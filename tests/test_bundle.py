import hashlib
import json
from importlib import resources

import pytest

from elusive14.bundle import (DATA_FILES, DataIntegrityError, build_anchor_map,
                              build_campaign, data_digests, expand_labels,
                              load_case_study, load_group_file,
                              load_group_specs, load_subgroup_specs)
from elusive14.orbits import mask_from_points
from elusive14.perm import classify

PINNED_DIGESTS = {
    "groups.json":
        "833f9e00f57373a7579019b3f0a29d0e86b1e01ae8dbc013d16e5dee63081a1d",
    "subgroups.json":
        "44c332d732e9217458fdb4cc017bdf093248ecf2105c42837b74442393c96a62",
    "case_study.json":
        "eef6afdcf18880a4fdc56a0a9c27db6f98855886709ddcbe926cc03d2b6e938e",
}


def test_data_digests_pinned():
    assert data_digests() == PINNED_DIGESTS


def test_data_digests_agree_with_hashlib(tmp_path):
    # the builtin SHA-256 the digests use gives hashlib's digest, for the
    # bundled files and for a file read in place of one
    data = resources.files("elusive14.data")
    assert data_digests() == {
        name: hashlib.sha256(data.joinpath(name).read_bytes()).hexdigest()
        for name in DATA_FILES}
    path = tmp_path / "case_study.json"
    path.write_bytes(b"not even JSON \xff")
    digests = data_digests({"case_study.json": str(path)})
    assert digests["case_study.json"] == hashlib.sha256(
        path.read_bytes()).hexdigest()
    assert digests["groups.json"] == PINNED_DIGESTS["groups.json"]


def test_group_specs_carry_the_published_record():
    specs = load_group_specs()
    assert set(specs) == {"G1", "G2", "G3", "G4", "G5", "G6"}
    # two rows needed generator repairs, kept verbatim next to the fix
    for name in ("G3", "G5"):
        assert specs[name].printed_generators is not None
        assert specs[name].errata
    assert specs["G4"].printed_order == 169
    assert specs["G4"].witness_order == 196
    assert specs["G4"].order_note
    assert specs["G6"].printed_orbit_total == 158


def test_expand_labels():
    assert expand_labels(["8.0~8.2", "1.0"]) == ["8.0", "8.1", "8.2", "1.0"]
    for entries in (["8.0~9.2"], ["8.5~8.2", "1.0"]):
        with pytest.raises(DataIntegrityError):
            expand_labels(entries)


def test_campaign_builds_clean(campaign):
    assert set(campaign.subgroups) == {f"G6_{i}" for i in range(1, 12)}
    orders = {name: g.order for name, g in campaign.subgroups.items()}
    assert orders == {"G6_1": 1, "G6_2": 2, "G6_3": 3, "G6_4": 4, "G6_5": 4,
                      "G6_6": 4, "G6_7": 6, "G6_8": 8, "G6_9": 12,
                      "G6_10": 21, "G6_11": 24}
    for name, H in campaign.subgroups.items():
        assert H.element_set <= campaign.groups["G6"].element_set


def test_published_blocks_match_recomputed_orbits(campaign):
    for name, spec in campaign.subgroup_specs.items():
        blocks = campaign.subgroups[name].point_orbits()
        computed = sorted(tuple(p + 1 for p in b) for b in blocks)
        printed = sorted(tuple(sorted(b["points"])) for b in spec.blocks)
        if spec.blocks:
            assert computed == printed


def test_anchor_map(campaign):
    anchors = campaign.anchors
    assert len(anchors) == 19
    # the 4.0 and 8.14 misprints carry an erratum and anchor nothing
    entries = [b for s in campaign.subgroup_specs.values() for b in s.blocks]
    entries += campaign.case_study["union_anchors"]
    assert sorted(e["printed_orbit"] for e in entries
                  if "erratum" in e) == ["4.0", "8.14"]
    assert not {"4.0", "8.14"} & set(anchors)
    # every anchored label has the level its name claims
    for label, oid in anchors.items():
        assert campaign.table.level[oid] == int(label.split(".")[0])


def test_anchor_outside_the_degree_aborts(campaign):
    case_study = {"union_anchors": [{"points": [1, 15],
                                     "printed_orbit": "2.0"}]}
    with pytest.raises(DataIntegrityError, match="1..14"):
        build_anchor_map(campaign.table, [], case_study)


def test_dropped_anchor_labels_really_collide(campaign):
    table = campaign.table
    # the published 4.0 representative lies in the 4.10 orbit
    assert (table.orbit_of(mask_from_points([5, 11, 9, 6]))
            == campaign.anchors.get("4.10"))
    # the published 8.14 union lies in the 8.24 orbit
    assert (table.orbit_of(mask_from_points([2, 5, 4, 6, 9, 12, 11, 13]))
            == campaign.anchors.get("8.24"))


def test_type_erratum_recorded(campaign):
    spec = campaign.subgroup_specs["G6_7"]
    assert spec.printed_type == "psi_2"
    assert spec.type_erratum
    cls = classify(campaign.subgroups["G6_7"])
    assert (cls.kind, cls.p) == ("psi_p", 3)
    assert cls.chi_condition == ("exact", 1)


def test_corrupted_generator_aborts(tmp_path):
    raw = load_case_study()  # noqa: F841  (exercise the loader too)
    groups = {"degree": 14, "groups": [
        {"name": "G1", "gap_transitive_index": 1, "printed_order": 14,
         "generators": ["(1,2)(2,3)"]},
    ]}
    bad = tmp_path / "groups.json"
    bad.write_text(json.dumps(groups))
    with pytest.raises(DataIntegrityError):
        build_campaign(groups_file=str(bad))


def test_incomplete_override_aborts(tmp_path):
    good_but_short = {"degree": 14, "groups": [
        {"name": "G1", "gap_transitive_index": 1, "printed_order": 14,
         "generators": ["(1,2,3,4,5,6,7,8,9,10,11,12,13,14)"]},
    ]}
    path = tmp_path / "groups.json"
    path.write_text(json.dumps(good_but_short))
    with pytest.raises(DataIntegrityError, match="lacks"):
        build_campaign(groups_file=str(path))


def test_group_file_round_trip(tmp_path, campaign):
    path = tmp_path / "c7.json"
    path.write_text(json.dumps({
        "name": "C7", "degree": 7, "generators": ["(1,2,3,4,5,6,7)"]}))
    name, group = load_group_file(str(path))
    assert name == "C7" and group.order == 7
    with pytest.raises(DataIntegrityError):
        load_group_file(str(tmp_path / "missing.json"))


def test_subgroup_specs_have_types():
    printed = {s.name: s.printed_type for s in load_subgroup_specs()}
    assert printed["G6_11"] == "psi_2_2"
    assert printed["G6_10"] == "psi_7"
    assert printed["G6_1"] == "identity"
