import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import act
from elusive14 import InputError, bundle, perm, search
from elusive14.bundle import data_digests, load_group_specs, load_json
from elusive14.cli import build_parser, main, verify14
from elusive14.orbits import OrbitTable, mask_from_points
from elusive14.perm import Permutation, generate


ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_group_order_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "group", "order", "G3")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 56 and report["transitive"]


def test_group_classify_bundled(capsys):
    code, out = run_cli(capsys, "--format", "json", "group", "classify", "G2")
    assert code == 0
    assert json.loads(out)["classification"] == {
        "kind": "psi_p", "p": 7, "note": "bundled witness"}
    # the search-only group stays unresolved: exit 1
    code, out = run_cli(capsys, "--format", "json", "group", "classify", "G6")
    assert code == 1
    assert json.loads(out)["classification"]["kind"] == "unresolved"


def _group_file(tmp_path, name, bundled):
    """A group file with ``name`` that holds bundled ``bundled``'s
    generators."""
    spec = load_group_specs()[bundled]
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"name": name, "degree": spec.degree,
                                "generators": spec.generators}))
    return str(path)


def test_a_group_file_name_selects_no_bundled_data(capsys, tmp_path):
    # G6's generators under the name G4 get no G4 witness: unresolved
    code, out = run_cli(capsys, "--format", "json", "group", "classify",
                        _group_file(tmp_path, "G4", "G6"))
    assert code == 1
    assert json.loads(out)["classification"]["kind"] == "unresolved"
    # G1's generators under the name G6 get no published G6 orbit total
    code, out = run_cli(capsys, "--format", "json", "orbits", "compute",
                        _group_file(tmp_path, "G6", "G1"))
    assert code == 0
    report = json.loads(out)
    assert report["group"] == "G6"
    assert "published_total" not in report
    assert "matches_published" not in report


def test_a_group_file_reads_no_bundled_table(capsys, tmp_path, monkeypatch):
    path = _group_file(tmp_path, "mine", "G1")

    def unread(override=None):
        raise AssertionError("groups.json read for a group file")

    monkeypatch.setattr(bundle, "load_group_specs", unread)
    code, out = run_cli(capsys, "--format", "json", "group", "order", path)
    assert code == 0
    assert json.loads(out)["name"] == "mine"


def test_intransitive_group_orbits_warn_nothing(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "--format", "json", "orbits", "compute",
                            "G6_3")
    assert code == 0
    assert json.loads(out)["group"] == "G6_3"


def test_bad_input_exits_two(capsys):
    assert main(["group", "order", "/no/such/file.json"]) == 2


@pytest.mark.parametrize("body", [
    {"name": "D0", "degree": 0, "generators": ["()"]},
    {"name": "D-3", "degree": -3, "generators": ["()"]},
    {"name": "Nested", "degree": 4, "generators": [["(1,2)"]]},
    {"name": "Bool", "degree": True, "generators": ["()"]},
    {"name": "big", "degree": 300000, "generators": ["()"]},
], ids=["degree 0", "degree -3", "nested generator", "degree true",
        "degree 300000"])
def test_malformed_group_files_exit_two(capsys, tmp_path, body):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(body))
    for command in (["group", "order"], ["group", "classify"],
                    ["orbits", "compute"]):
        assert main([*command, str(path)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: bad group file"), err
        assert "Traceback" not in err


def test_closure_cap_bounds_a_large_group_file(capsys, tmp_path):
    # S12 has 479001600 elements; the closure stops at 10^5
    path = tmp_path / "s12.json"
    path.write_text(json.dumps({
        "name": "S12", "degree": 12,
        "generators": ["(1,2)", "(" + ",".join(map(str, range(1, 13))) + ")"]}))
    assert main(["group", "order", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: closure exceeded cap of 100000 elements")


# any JSON value, and cycle strings over small degrees, so that a drawn
# group file that parses has at most 7! elements
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=8), kids, max_size=4)),
    max_leaves=6)
_cycles = st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=3).map(
    lambda cycles: "".join(f"({','.join(map(str, c))})" for c in cycles))


@settings(max_examples=75, deadline=None)
@given(_json | st.fixed_dictionaries({
    "name": st.text(max_size=4) | _json,
    "degree": st.integers(-1, 7) | _json,
    "generators": st.lists(_cycles | _json, max_size=3) | _json}))
def test_random_group_files_keep_the_exit_contract(tmp_path_factory, body):
    path = tmp_path_factory.getbasetemp() / "fuzzed_group.json"
    path.write_text(json.dumps(body))
    assert main(["group", "order", str(path)]) in (0, 1, 2)


# every drawn list that has the assignment shape builds G6's orbit table
@settings(max_examples=50, deadline=None)
@given(_json | st.lists(st.fixed_dictionaries({
    "orbit": st.sampled_from(["1.0", "2.1", "3.1", "14.0", "0.0", "99.0",
                              "x"]) | _json,
    "state": st.sampled_from(["T", "F", "X"]) | _json}), max_size=4))
def test_random_assignment_files_keep_the_exit_contract(tmp_path_factory,
                                                        body):
    path = tmp_path_factory.getbasetemp() / "fuzzed_assignment.json"
    path.write_text(json.dumps(body))
    assert main(["euler", "G6", str(path)]) in (0, 1, 2)


def _subgroups_without_block_points():
    raw = load_json("subgroups.json")
    first = next(s for s in raw["subgroups"] if s["blocks"])
    del first["blocks"][0]["points"]
    return raw


def _case_study_without_anchor_points():
    raw = load_json("case_study.json")
    del raw["union_anchors"][0]["points"]
    return raw


def _groups_with_witness(name, change):
    def body():
        raw = load_json("groups.json")
        group = next(g for g in raw["groups"] if g["name"] == name)
        group["witness"] = change(group["witness"])
        return raw
    return body


@pytest.mark.parametrize("name, change", [
    ("G2", lambda w: {k: v for k, v in w.items() if k != "p_generators"}),
    ("G2", lambda w: "psi_p"),
    ("G2", lambda w: {**w, "p_generators": 5}),
    ("G2", lambda w: {**w, "h_generators": w["p_generators"]}),
    ("G2", lambda w: {**w, "p": "7"}),
    ("G4", lambda w: {**w, "kind": "psi_p"}),
    ("G2", lambda w: {**w, "kind": "banana"}),
], ids=["no p_generators", "string witness", "p_generators 5",
        "h_generators without q", "p a string", "G4 kind psi_p",
        "G2 kind banana"])
def test_malformed_witnesses_exit_two(capsys, tmp_path, name, change):
    path = tmp_path / "groups.json"
    path.write_text(json.dumps(_groups_with_witness(name, change)()))
    assert main(["verify14", "--groups-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {name}: bad witness: "), err
    assert "Traceback" not in err


def _changed(name, *keys, value):
    """A copy of a bundled data file with the entry at ``keys`` replaced."""
    def body():
        raw = load_json(name)
        entry = raw
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        return raw
    return body


def _case_study_with_step_1(key, value):
    return _changed("case_study.json", "steps", 0, key, value=value)


def _subgroups_with_extra_name():
    raw = load_json("subgroups.json")
    raw["subgroups"].append({**raw["subgroups"][1], "name": "H2"})
    return raw


@pytest.mark.parametrize("argv, body", [
    (["verify14", "--groups-file"], {}),
    (["verify14", "--groups-file"], []),
    (["verify14", "--subgroups-file"], {}),
    (["replay-appendix", "--case-study-file"], {}),
    (["verify14", "--subgroups-file"], _subgroups_without_block_points),
    (["replay-appendix", "--case-study-file"],
     _case_study_without_anchor_points),
    (["verify14", "--subgroups-file"],
     _changed("subgroups.json", "subgroups", 0, "printed_type",
              value="psi_5")),
    (["replay-appendix", "--case-study-file"],
     _case_study_with_step_1("select", {"set": [["9.99", "T"]],
                                        "default_free": "F"})),
    (["replay-appendix", "--case-study-file"],
     _case_study_with_step_1("subgroup", "G6_99")),
    (["replay-appendix", "--case-study-file"],
     _case_study_with_step_1("subgroup", "G6_1")),
    (["replay-appendix", "--case-study-file"],
     _case_study_with_step_1("select", 5)),
    (["replay-appendix", "--case-study-file"],
     _case_study_with_step_1("theta_t", 5)),
    (["replay-appendix", "--case-study-file"],
     _changed("case_study.json", "combination_table", "1", value=5)),
    (["replay-appendix", "--case-study-file"],
     _changed("case_study.json", "combination_table", "2", 0, value=[5, 2])),
    (["verify14", "--subgroups-file"],
     _changed("subgroups.json", "subgroups", 1, "name", value=["G6_2"])),
    (["replay-appendix", "--case-study-file"],
     _case_study_with_step_1("step", [1])),
    (["replay-appendix", "--case-study-file"],
     _changed("case_study.json", "final", "chi", value="1")),
    (["replay-appendix", "--case-study-file"],
     _changed("case_study.json", "final", "chi", value=True)),
    (["verify14", "--groups-file"],
     _changed("groups.json", "groups", 0, "printed_order", value="14")),
    (["replay-appendix", "--case-study-file"], b"{not json"),
    (["verify14", "--subgroups-file"], _subgroups_with_extra_name),
    (["verify14", "--subgroups-file"],
     _changed("subgroups.json", "subgroups", 1, "generators",
              value=["(1,15)"])),
    (["verify14", "--groups-file"],
     _changed("groups.json", "groups", 0, "generators", value=["(1,15)"])),
    (["replay-appendix", "--case-study-file"],
     _changed("case_study.json", "steps", 0, "theta_t", 0, value="abc")),
    (["replay-appendix", "--case-study-file"],
     _changed("case_study.json", "steps", 0, "theta_f", 0,
              value="8.0~9.2")),
    (["replay-appendix", "--case-study-file"],
     _changed("case_study.json", "union_anchors", 0, "printed_orbit",
              value="x")),
    (["replay-appendix", "--case-study-file"],
     _changed("case_study.json", "steps", 0, "theta_t", 0, value="8.5~8.2")),
    (["verify14", "--groups-file"],
     _changed("groups.json", "groups", 0, "generators", value=[])),
    (["verify14", "--subgroups-file"],
     _changed("subgroups.json", "subgroups", 1, "generators",
              value=["(1,2)"])),
    (["verify14", "--subgroups-file"],
     _changed("subgroups.json", "subgroups", 1, "printed_type",
              value="psi_2_2")),
    (["verify14", "--subgroups-file"],
     _changed("subgroups.json", "subgroups", 1, "blocks", 0, "printed_orbit",
              value="2.0")),
    (["replay-appendix", "--case-study-file"],
     _changed("case_study.json", "union_anchors", 0, "printed_orbit",
              value="9.6")),
    (["verify14", "--subgroups-file"],
     _changed("subgroups.json", "subgroups", 1, "blocks", 2, "printed_orbit",
              value="2.0")),
    (["verify14", "--subgroups-file"],
     _changed("subgroups.json", "subgroups", 1, "blocks", 3, "printed_orbit",
              value="2.2")),
    (["verify14", "--subgroups-file"],
     _changed("subgroups.json", "subgroups", 0, "generators",
              value=["(1,2)"])),
    (["verify14", "--subgroups-file"],
     _changed("subgroups.json", "subgroups", 0, "printed_type",
              value="cyclic")),
    (["verify14", "--subgroups-file"],
     _changed("subgroups.json", "subgroups", 1, "printed_type",
              value="identity")),
], ids=["groups {}", "groups []", "subgroups {}", "case study {}",
        "block without points", "union anchor without points",
        "unknown printed type", "selector label 9.99", "subgroup G6_99",
        "identity subgroup G6_1", "select 5", "theta_t 5",
        "combination row 5", "combination label 5", "subgroup name a list",
        "step [1]", "final chi '1'", "final chi true", "printed_order '14'",
        "not JSON", "extra subgroup H2", "subgroup generator (1,15)",
        "group generator (1,15)",
        "theta_t label abc", "theta_f range across levels",
        "union anchor label x", "theta_t range backwards",
        "group without generators", "G6_2 generator (1,2)",
        "G6_2 printed psi_2_2", "block label of another level",
        "union anchor label of another level", "label on two orbits",
        "orbit with two labels", "G6_1 generator (1,2)",
        "G6_1 printed cyclic", "G6_2 printed identity"])
def test_malformed_override_files_exit_two(capsys, tmp_path, argv, body):
    path = tmp_path / "override.json"
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(json.dumps(body() if callable(body) else body))
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}"), err
    assert "Traceback" not in err


def test_shape_errors_name_the_path_and_the_kind(capsys, tmp_path):
    path = tmp_path / "case_study.json"
    path.write_text(json.dumps(_case_study_with_step_1("step", [1])()))
    assert main(["replay-appendix", "--case-study-file", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: steps[0]: step: expected an integer\n")
    path.write_text(json.dumps(_changed(
        "case_study.json", "steps", 0, "select", "set", 0, 1, value="X")()))
    assert main(["replay-appendix", "--case-study-file", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: steps[0]: select: set[0][1]: expected one of "
        "'F', 'T'\n")
    path.write_text(json.dumps(_changed(
        "case_study.json", "union_anchors", 0, "printed_orbit", value="x")()))
    assert main(["replay-appendix", "--case-study-file", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: union_anchors[0]: printed_orbit: expected a label "
        "level.index\n")


def test_subgroup_generator_errors_name_the_file_and_the_subgroup(
        capsys, tmp_path):
    path = tmp_path / "subgroups.json"
    path.write_text(json.dumps(_changed(
        "subgroups.json", "subgroups", 1, "generators", value=["(1,15)"])()))
    assert main(["verify14", "--subgroups-file", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: G6_2: point 15 outside 1..14\n")


@pytest.mark.parametrize("command", ["verify14", "replay-appendix"])
def test_non_identity_subgroup_without_blocks_exits_two(capsys, tmp_path,
                                                        command):
    # only the identity's record may list no blocks; G6_3 has six
    path = tmp_path / "subgroups.json"
    path.write_text(json.dumps(
        _changed("subgroups.json", "subgroups", 2, "blocks", value=[])()))
    assert main([command, "--subgroups-file", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}: G6_3: published blocks do not match")


def test_orbits_compute_byte_stable(capsys):
    code, first = run_cli(capsys, "--format", "json", "orbits", "compute", "G6")
    assert code == 0
    code, second = run_cli(capsys, "--format", "json", "orbits", "compute", "G6")
    assert first == second
    report = json.loads(first)
    assert report["orbit_count"] == 155
    assert report["published_total"] == 158
    assert report["matches_published"] is False
    assert report["levels"]["2"] == 2
    parsed_twice = json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n"
    assert parsed_twice == first   # round-trips through parse without loss


def test_orbits_poset_small_group(capsys, tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({
        "name": "C4", "degree": 4, "generators": ["(1,2,3,4)"]}))
    code, out = run_cli(capsys, "--format", "json", "orbits", "poset", str(path))
    assert code == 0
    pairs = json.loads(out)["comparable_pairs"]
    assert ["1.0", "4.0"] in pairs


def test_orbits_rejects_a_group_of_degree_21(capsys, tmp_path):
    # the closure has 21 elements; the guard fires before any 2^21 table
    path = tmp_path / "c21.json"
    path.write_text(json.dumps({
        "name": "C21", "degree": 21,
        "generators": ["(" + ",".join(map(str, range(1, 22))) + ")"]}))
    assert main(["orbits", "compute", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degree 21 is too large")
    assert "Traceback" not in err


def _write_assignment(tmp_path, campaign, t_labels):
    table = campaign.table
    entries = []
    for o in range(1, table.orbit_count):
        label = str(table.label(o))
        entries.append({"orbit": label,
                        "state": "T" if label in t_labels else "F"})
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps(entries))
    return str(path)


def test_euler_and_fixedpoint_cli(capsys, tmp_path, campaign):
    # vertices-only complex: chi = 14, link chi = 0
    path = _write_assignment(tmp_path, campaign, {"1.0"})
    code, out = run_cli(capsys, "--format", "json", "euler", "G6", path)
    assert code == 0
    report = json.loads(out)
    assert report["euler"] == 14 and report["link_euler_x1"] == 0

    code, out = run_cli(capsys, "--format", "json", "fixedpoint", "G6",
                        "G6_10", path)
    assert code == 0
    report = json.loads(out)
    assert report["faces"] == [] and report["euler"] == 0

    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps([{"orbit": "1.0", "state": "T"}]))
    assert main(["euler", "G6", str(partial)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: assignment has FREE orbits\n")


def test_euler_and_fixedpoint_reject_non_closed_assignments(capsys, tmp_path,
                                                           campaign):
    # 3.1 TRUE with every other orbit FALSE used to print euler 28, exit 0
    upward = _write_assignment(tmp_path, campaign, {"3.1"})
    assert main(["euler", "G6", upward]) == 2
    assert main(["fixedpoint", "G6", "G6_10", upward]) == 2
    err = capsys.readouterr().err
    assert "error: euler needs a downward-closed assignment" in err
    assert "error: fixedpoint needs a downward-closed assignment" in err
    partial_upward = tmp_path / "partial_upward.json"
    partial_upward.write_text(json.dumps([{"orbit": "1.0", "state": "F"},
                                          {"orbit": "3.1", "state": "T"}]))
    assert main(["fixedpoint", "G6", "G6_10", str(partial_upward)]) == 2


def test_fixedpoint_accepts_partial_assignment_with_determined_blocks(
        capsys, tmp_path, campaign):
    table = campaign.table
    full = _write_assignment(tmp_path, campaign, {"1.0"})
    code, expected = run_cli(capsys, "--format", "json", "fixedpoint", "G6",
                             "G6_10", full)
    assert code == 0
    # G6_10 has two blocks; only the orbits of their unions need a state
    blocks = [mask_from_points(b) for b in json.loads(expected)["blocks"]]
    assert len(blocks) == 2
    needed = {table.orbit_of(u) for u in (blocks[0], blocks[1],
                                          blocks[0] | blocks[1])}
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps([{"orbit": str(table.label(o)), "state": "F"}
                                   for o in sorted(needed)]))
    code, out = run_cli(capsys, "--format", "json", "fixedpoint", "G6",
                        "G6_10", str(partial))
    assert code == 0 and out == expected


def test_fixedpoint_needs_a_subgroup_of_the_assignment_group(capsys):
    # none of G1..G5 is a subgroup of G6; G1 used to print euler 0, exit 0
    assignment = str(ROOT / "tests" / "data" / "g6_closure_1.json")
    for sub in ("G1", "G2", "G3", "G4", "G5"):
        assert main(["fixedpoint", "G6", sub, assignment]) == 2
    assert capsys.readouterr().err.count("is not a subgroup of G6") == 5
    assert main(["fixedpoint", "G6", "G6", assignment]) == 0


@pytest.mark.parametrize("name", ["g6_closure_1.json", "g6_survivor_2.json"])
def test_dtree_does_not_depend_on_the_numbering_of_the_points(
        capsys, tmp_path, campaign, name):
    # sigma G6 sigma^-1 as a group file, and the assignment carried through
    # sigma: each orbit's least mask goes to the label of its image's orbit
    images = list(range(14))
    random.Random(1).shuffle(images)
    sigma = Permutation(tuple(images))
    gens = [sigma * g * sigma.inverse()
            for g in campaign.groups["G6"].generators]
    group_file = tmp_path / "g6_relabelled.json"
    group_file.write_text(json.dumps({
        "name": "G6 relabelled", "degree": 14,
        "generators": [g.cycle_string() for g in gens]}))
    table, moved = campaign.table, OrbitTable(generate(gens))
    original = ROOT / "tests" / "data" / name
    relabelled = tmp_path / name
    relabelled.write_text(json.dumps([
        {"orbit": moved.label(moved.orbit_of(
            act(sigma, table.min_mask[table.oid(e["orbit"])]))),
         "state": e["state"]} for e in json.loads(original.read_text())]))
    reports = []
    for argv in (["G6", str(original)], [str(group_file), str(relabelled)]):
        code, out = run_cli(capsys, "--format", "json", "dtree", *argv)
        report = json.loads(out)
        reports.append((code, report["depth"], report["elusive"]))
    assert reports[0] == reports[1]


def _relabelled_data_files(tmp_path, seed):
    """Copies of the three data files with the 14 points renumbered by one
    seeded sigma: G6's generators, the subgroups' generators and block
    points, and the case study's union-anchor points.  A generator g
    becomes sigma g sigma^-1, whose cycles are g's with each point p
    written as sigma(p).  The printed labels stay as published."""
    images = list(range(14))
    random.Random(seed).shuffle(images)

    def points(ps):
        return [images[p - 1] + 1 for p in ps]

    def generator(g):
        return re.sub(r"\d+", lambda m: str(images[int(m[0]) - 1] + 1), g)

    groups, subgroups, case_study = (
        load_json(name) for name in ("groups.json", "subgroups.json",
                                     "case_study.json"))
    (g6,) = [g for g in groups["groups"] if g["name"] == "G6"]
    g6["generators"] = [generator(g) for g in g6["generators"]]
    for sub in subgroups["subgroups"]:
        sub["generators"] = [generator(g) for g in sub["generators"]]
        for block in sub["blocks"]:
            block["points"] = points(block["points"])
    for anchor in case_study["union_anchors"]:
        anchor["points"] = points(anchor["points"])
    argv = []
    for flag, raw in (("--groups-file", groups),
                      ("--subgroups-file", subgroups),
                      ("--case-study-file", case_study)):
        path = tmp_path / f"relabelled{flag[1:]}.json"
        path.write_text(json.dumps(raw))
        argv += [flag, str(path)]
    return argv


def test_the_verdict_does_not_depend_on_the_numbering_of_the_points(
        capsys, tmp_path):
    # the data path end to end: the campaign reads the relabelled files,
    # and the replay maps the printed labels through their anchor points
    argv = _relabelled_data_files(tmp_path, seed=1)
    code, out = run_cli(capsys, "--format", "json", "verify14",
                        "--seed-independent", *argv)
    report = json.loads(out)
    assert code == 0 and report["all_verified"]
    # the report names the three relabelled files, not the bundled ones
    assert all(report["data_digests"][name] != digest
               for name, digest in data_digests().items())
    (g6,) = [g for g in report["groups"] if g["name"] == "G6"]
    assert [(s["nodes_explored"], s["cases_enumerated"],
             s["leaf_assignments"], s["feasible_functions"])
            for s in g6["search"]] == [(521, 520, 25444, 0),
                                       (517, 516, 25444, 0)]
    code, out = run_cli(capsys, "--format", "json", "replay-appendix", *argv)
    replay = json.loads(out)
    assert code == 0 and replay["ok"]
    assert [s["block_local_cases"] for s in replay["steps"]] == [
        2, 2, 2, 4, 3, 2]
    assert (replay["residual_cases_chi_1"],
            replay["residual_cases_passing_link"]) == (16, 0)


def test_dtree_cli(capsys, tmp_path):
    path = tmp_path / "c6.json"
    path.write_text(json.dumps({
        "name": "C6", "degree": 6, "generators": ["(1,2,3,4,5,6)"]}))
    # all orbits false: the function is true only on the empty input
    from elusive14.orbits import OrbitTable
    from elusive14.bundle import load_group_file
    _, c6 = load_group_file(str(path))
    table = OrbitTable(c6)
    assignment = tmp_path / "empty.json"
    assignment.write_text(json.dumps(
        [{"orbit": str(table.label(o)), "state": "F"}
         for o in range(1, table.orbit_count)]))
    code, out = run_cli(capsys, "--format", "json", "dtree", str(path),
                        str(assignment))
    assert code == 0
    report = json.loads(out)
    assert report["depth"] == 6 and report["elusive"]
    assert len(report["adversary_path"]) == 6


def test_dtree_rejects_partial_and_non_monotone_assignments(capsys, tmp_path):
    # 3.1 alone used to come back as depth 11, elusive false, exit 0
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps([{"orbit": "3.1", "state": "T"}]))
    assert main(["dtree", "G6", str(partial)]) == 2
    # fully assigned, but 3.1 is TRUE above FALSE orbits
    from elusive14.bundle import load_group_specs
    from elusive14.orbits import OrbitTable
    table = OrbitTable(load_group_specs()["G6"].build())
    upward = tmp_path / "upward.json"
    upward.write_text(json.dumps(
        [{"orbit": str(table.label(o)),
          "state": "T" if str(table.label(o)) == "3.1" else "F"}
         for o in range(1, table.orbit_count)]))
    assert main(["dtree", "G6", str(upward)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: dtree needs") == 2


def test_dtree_refuses_a_wide_group_before_its_table(capsys, tmp_path,
                                                    monkeypatch):
    # the arity message, not the incomplete assignment's, and no orbit
    # table of 2^15 masks first
    group = tmp_path / "c15.json"
    group.write_text(json.dumps({"name": "C15", "degree": 15, "generators": [
        "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15)"]}))
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps([{"orbit": "1.0", "state": "T"}]))

    def no_table(group):
        raise AssertionError("built an orbit table")

    monkeypatch.setattr("elusive14.cli.OrbitTable", no_table)
    assert main(["dtree", str(group), str(partial)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: arity 15 exceeds the 14 limit\n")


def test_malformed_assignment_files_exit_two(capsys, tmp_path):
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps([{"orbit": "99.0", "state": "T"}]))
    not_a_list = tmp_path / "not_a_list.json"
    not_a_list.write_text(json.dumps({"orbit": "3.1"}))
    for path in (unknown, not_a_list):
        assert main(["dtree", "G6", str(path)]) == 2
        assert main(["euler", "G6", str(path)]) == 2
        assert main(["fixedpoint", "G6", "G6_1", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("label", ["99.0", "abc", "0.0"],
                         ids=["no such orbit", "bad label", "empty subset"])
def test_assignment_orbit_refusals_name_the_file(capsys, tmp_path, label):
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps([{"orbit": label, "state": "T"}]))
    assert main(["euler", "G6", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, prefix", [
    (["euler", "G6"], "{path}: "),
    (["group", "order"], "bad group file {path}: "),
    (["verify14", "--groups-file"], "{path}: "),
], ids=["assignment file", "group file", "override file"])
@pytest.mark.parametrize("text", [
    "not json",
    # json.dumps cannot build a value this deep; the parser gives up with
    # a RecursionError, which is not a verification failure
    "[" * 100_000 + "]" * 100_000,
], ids=["not JSON", "nested too deep"])
def test_unreadable_json_exits_two_naming_the_file(capsys, tmp_path, argv,
                                                   prefix, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + prefix.format(path=path)), err
    assert "Traceback" not in err


def test_conjecture_cli(capsys):
    code, out = run_cli(capsys, "--format", "json", "conjecture-check", "--n", "3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["monotone_functions"] == 20


def test_numeric_flags_are_range_checked(capsys):
    for argv in (["conjecture-check", "--n", "-1"],
                 ["conjecture-check", "--n", "0"],
                 ["conjecture-check", "--n", "6"],
                 ["verify14", "--cap", "5"],
                 ["verify14", "--schedule", "alternate"],
                 ["replay-appendix", "--cap", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
    code, out = run_cli(capsys, "--format", "json", "conjecture-check", "--n", "1")
    assert code == 0 and json.loads(out)["monotone_functions"] == 3


@pytest.mark.parametrize("command", ["verify14", "replay-appendix"])
def test_case_cap_exits_two(capsys, monkeypatch, command):
    monkeypatch.setattr(search, "CASE_CAP", 1)
    assert main([command]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2, lines
    assert lines[0].startswith("error: ")
    assert lines[0].endswith(": more than 1 cases"), lines[0]
    assert lines[1].startswith("(bundled data digests: ")


def test_replay_cli(capsys):
    code, out = run_cli(capsys, "--format", "json", "replay-appendix")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert report["chi"] == 1 and report["chi_link_x1"] == 7


def _bump(*keys, by=1):
    """Add ``by`` to the case-study integer at ``keys``."""
    def change(raw):
        entry = raw
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] += by
    return change


def _copy_theta_f_into_theta_t(raw):
    step = raw["steps"][0]
    step["theta_t"].append(step["theta_f"][0])


@pytest.mark.parametrize("change, problem", [
    (_bump("steps", 0, "printed_cases"),
     "step 1: 2 block-local cases computed, 3 published"),
    (_bump("final", "chi"), "final: chi 1 != published 2"),
    (_bump("final", "chi_link"), "final: link chi 7 != published 8"),
    (_bump("final", "computed_free_orbits", by=-5),
     "final: 12 free orbits, bundled regression value 7"),
    (_bump("final", "computed_cases_with_chi_1", by=-13),
     "final: 16 chi=1 cases, bundled regression value 3"),
    (_bump("final", "cases_passing_link"),
     "final: 0 cases pass the link condition, published 1"),
    (_bump("combination_table", "1", 0, 1),
     "combination table k=1: label 1.0 published with multiplicity 3, "
     "computed 2"),
    (_copy_theta_f_into_theta_t,
     "step 1: published 8.24 should be T but computed F"),
], ids=["printed cases", "final chi", "final link chi", "free orbits",
        "chi=1 cases", "cases passing link", "combination multiplicity",
        "theta_t holds an F orbit"])
def test_replay_reports_each_wrong_published_value(capsys, tmp_path, change,
                                                   problem):
    raw = load_json("case_study.json")
    change(raw)
    path = tmp_path / "case_study.json"
    path.write_text(json.dumps(raw))
    code, out = run_cli(capsys, "--format", "json", "replay-appendix",
                        "--case-study-file", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert problem in report["problems"]


def test_verify14_digests_the_files_it_read(capsys, tmp_path):
    bundled = data_digests()
    # the same groups, written with other whitespace
    path = tmp_path / "groups.json"
    path.write_text(json.dumps(load_json("groups.json"), indent=1))
    code, out = run_cli(capsys, "--format", "json", "verify14",
                        "--groups-file", str(path))
    assert code == 0
    digests = json.loads(out)["data_digests"]
    assert digests == {
        **bundled,
        "groups.json": hashlib.sha256(path.read_bytes()).hexdigest()}
    assert digests["groups.json"] != bundled["groups.json"]


def test_verify14_report(campaign):
    report = verify14(campaign=campaign)
    assert report["all_verified"]
    by_name = {g["name"]: g for g in report["groups"]}
    assert by_name["G4"]["order_discrepancy"]
    assert by_name["G4"]["order_witness_arithmetic"] == 196
    assert by_name["G6"]["method"] == "search"
    assert by_name["G6"]["search"][0]["feasible_functions"] == 0
    assert set(report["data_digests"]) == {
        "groups.json", "subgroups.json", "case_study.json"}
    # the text form carries one line per group with its method tag
    from elusive14.cli import _verify_text
    lines = _verify_text(report).splitlines()
    for name, method in (("G1", "cyclic"), ("G2", "psi_p"), ("G3", "psi_p"),
                         ("G4", "psi_pq"), ("G5", "sylow_lemma"),
                         ("G6", "search")):
        assert sum(1 for ln in lines
                   if ln.strip().startswith(f"{name}:") and method in ln) == 1


def test_verify14_negative_path(campaign, monkeypatch):
    monkeypatch.setattr(perm, "verify_sylow_lemma", lambda G: None)
    monkeypatch.setattr(perm, "_heuristic_oliver_search", lambda G: None)
    report = verify14(campaign=campaign)
    by_name = {g["name"]: g for g in report["groups"]}
    assert by_name["G5"]["classification"]["kind"] == "unresolved"
    assert not by_name["G5"]["verified"]
    assert not report["all_verified"]


def test_verify14_seed_independent(campaign):
    report = verify14(seed_independent=True, campaign=campaign)
    assert report["all_verified"]
    g6 = next(g for g in report["groups"] if g["name"] == "G6")
    assert g6["schedules_agree"]
    assert len(g6["search"]) == 2


def test_text_rendering(capsys):
    code, out = run_cli(capsys, "group", "order", "G1")
    assert code == 0
    assert "order" in out and "14" in out


# SHA-256 of the canonical JSON of each command; a change to any of these
# outputs must be deliberate
CANONICAL_DIGESTS = {
    ("verify14",):
        "3930cd017fc8bd3fa218d4082bbf09366a88da6aca969688061c35c4bdfe1e75",
    ("verify14", "--seed-independent"):
        "60a2491915c130c82528f08b868c8e58f7693846f48191645f2737245de2e55d",
    ("replay-appendix",):
        "f1a6f6e3d1bbe8ca8f00c4bb11f24055110a13889a2f7ee880f8fb61342cd531",
    ("orbits", "compute", "G6"):
        "8532e01734f3964ae53c13f8a00bc59c58772ed5576c367caa59637c21b39e8f",
    ("orbits", "poset", "G6"):
        "83feecd3218e28472bc939856a984a487711bc98f217cafa791e8a9b83a950f4",
    ("conjecture-check", "--n", "5"):
        "28615f55e36bc8bfab67913bc8447984b061212fb89c218bf35846a587ca8daf",
    # full G6 assignments from the benchmark's oracle pool; the digests
    # were taken with the stabilizer-query oracle the orbit keys replaced
    ("dtree", "G6", "tests/data/g6_closure_1.json"):
        "3897780469d000ae131afb923254871ada26b332661b83afe3e72321a4e8011a",
    ("dtree", "G6", "tests/data/g6_closure_2.json"):
        "4d52f400e62fc79b3656684734d26e4df166e6b7ba971e4995e5ed0b05609e24",
    ("dtree", "G6", "tests/data/g6_survivor_1.json"):
        "18653195ddfedc379e4d34c7a4e96cf8e239a528715865487cebc19fc2e90d1e",
    ("dtree", "G6", "tests/data/g6_survivor_2.json"):
        "8780be54aaa4de5931ae308dd837a2d24e424c9b8b7fa2f03f09b09696251a7e",
    # orbit labels, block points and the classification paths
    ("fixedpoint", "G6", "G6_3", "tests/data/g6_closure_1.json"):
        "3e282382fe529cdbe46619c71725a0a79671514e479de940dbc07c1d7bee4008",
    ("euler", "G6", "tests/data/g6_survivor_1.json"):
        "f6aa8f7650dfbce839ab537c58a05f5ae36fd46c3ecd4ecc567e76c96874e940",
    ("group", "classify", "G4"):
        "6dd40adac6f0314dcc72c759b940d4f63f4584f36ba3880ca7f492ad94b445a2",
    ("group", "classify", "G5"):
        "28506837b0e8610d25059b24b25c39bad6dc8ec8559693c7d138c538944f7e34",
}


@pytest.mark.parametrize("argv", sorted(CANONICAL_DIGESTS), ids=" ".join)
def test_canonical_output_digests(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)          # the dtree rows name repo-relative files
    code, out = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CANONICAL_DIGESTS[argv]


# modules a command loads only when it runs them
_DEFERRED = ("elusive14.bundle", "elusive14.complexes", "elusive14.search",
             "elusive14.replay", "elusive14.oracle", "hashlib", "dataclasses",
             "inspect")


def _deferred_loaded(*argv, modules=_DEFERRED) -> list[str]:
    """The ``modules``, by default the deferred ones, that a fresh
    interpreter loads while running the CLI with ``argv`` (those loaded
    before the CLI import do not count)."""
    code = ("import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from elusive14.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    if main(sys.argv[1:]) != 0:\n"
            "        sys.exit('the command failed')\n"
            f"print(*sorted(m for m in {modules!r}\n"
            "             if m in sys.modules and m not in before))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_commands_load_only_the_modules_they_run():
    assert _deferred_loaded("conjecture-check", "--n", "3") == [
        "elusive14.oracle"]
    assert _deferred_loaded("dtree", "G6", "tests/data/g6_closure_1.json") == [
        "elusive14.bundle", "elusive14.complexes", "elusive14.oracle"]
    # no command pays for the dataclasses import, or for inspect under it,
    # and the verdict commands do not load the oracle
    for argv in (["verify14"], ["verify14", "--seed-independent"],
                 ["replay-appendix"]):
        loaded = _deferred_loaded(*argv)
        assert "dataclasses" not in loaded and "inspect" not in loaded, argv
        assert "elusive14.oracle" not in loaded, argv


@pytest.mark.skipif(
    importlib.util.find_spec("_sha2") is None
    and importlib.util.find_spec("_sha256") is None,
    reason="this interpreter has no builtin SHA-256, so the data digests "
           "fall back to hashlib")
def test_no_command_loads_openssl():
    # the data digests use the builtin SHA-256: hashlib would load OpenSSL
    # through _hashlib, and with it set the run's peak memory
    for argv in (["verify14", "--seed-independent"], ["replay-appendix"]):
        assert _deferred_loaded(*argv, modules=("hashlib", "_hashlib")) == []


def test_exit_two_errors_share_one_base():
    from elusive14.bundle import DataIntegrityError
    from elusive14.complexes import IndeterminateFace

    for cls in (DataIntegrityError, IndeterminateFace,
                perm.ClosureCapExceeded, search.CaseCapExceeded):
        assert issubclass(cls, InputError), cls
    # the caps keep their old base
    assert issubclass(perm.ClosureCapExceeded, RuntimeError)
    assert issubclass(search.CaseCapExceeded, RuntimeError)


def test_smoke_cases_parse():
    # the packaging smoke table (tests/smoke.py) runs outside tier-1; here
    # each case must be a command line the parser accepts, or a usage
    # error that the case expects to exit 2
    from smoke import CASES
    parser = build_parser()
    for argv, code, _rule, _broken in CASES:
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            assert exc.code == code == 2, argv
