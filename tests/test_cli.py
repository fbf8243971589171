import hashlib
import json
from pathlib import Path

import pytest

from elusive14 import perm
from elusive14.bundle import load_json
from elusive14.cli import main, verify14
from elusive14.orbits import mask_from_points


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
    assert err.startswith(f"error: {name}: bad witness: "), err
    assert "Traceback" not in err


def _subgroups_with_unknown_type():
    raw = load_json("subgroups.json")
    raw["subgroups"][0]["printed_type"] = "psi_5"
    return raw


@pytest.mark.parametrize("argv, body", [
    (["verify14", "--groups-file"], {}),
    (["verify14", "--groups-file"], []),
    (["verify14", "--subgroups-file"], {}),
    (["replay-appendix", "--case-study-file"], {}),
    (["verify14", "--subgroups-file"], _subgroups_without_block_points),
    (["replay-appendix", "--case-study-file"],
     _case_study_without_anchor_points),
    (["verify14", "--subgroups-file"], _subgroups_with_unknown_type),
], ids=["groups {}", "groups []", "subgroups {}", "case study {}",
        "block without points", "union anchor without points",
        "unknown printed type"])
def test_malformed_override_files_exit_two(capsys, tmp_path, argv, body):
    path = tmp_path / "override.json"
    path.write_text(json.dumps(body() if callable(body) else body))
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}"), err
    assert "Traceback" not in err


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


def test_conjecture_cli(capsys):
    code, out = run_cli(capsys, "--format", "json", "conjecture-check", "--n", "3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["monotone_functions"] == 20


def test_numeric_flags_are_range_checked(capsys):
    for argv in (["conjecture-check", "--n", "-1"],
                 ["conjecture-check", "--n", "0"],
                 ["conjecture-check", "--n", "6"],
                 ["verify14", "--cap", "0"],
                 ["verify14", "--cap", "-1"],
                 ["replay-appendix", "--cap", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
    code, out = run_cli(capsys, "--format", "json", "conjecture-check", "--n", "1")
    assert code == 0 and json.loads(out)["monotone_functions"] == 3


def test_replay_cli(capsys):
    code, out = run_cli(capsys, "--format", "json", "replay-appendix")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert report["chi"] == 1 and report["chi_link_x1"] == 7


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
