import copy

import pytest

from conftest import visit_nodes
from elusive14.orbits import iter_bits
from elusive14.replay import (MappingIncomplete, count_local_cases,
                              replay_case_study)
from elusive14.search import condition_met


@pytest.fixture(scope="module")
def result(campaign):
    return replay_case_study(campaign)


def test_replay_is_clean(result):
    assert result.problems == []
    assert result.ok


def test_published_case_counts(result):
    assert [s.printed_cases for s in result.steps] == [2, 2, 2, 4, 3, 2]
    assert [s.local_cases for s in result.steps] == [2, 2, 2, 4, 3, 2]
    # full orbit closure kills one of the four block-level cases at step 4
    assert [s.child_cases for s in result.steps] == [2, 2, 2, 3, 3, 2]


def brute_force_local_count(table, st, check) -> int:
    """Settings of the check's free governed orbits whose TRUE unions are
    closed downward under dropping one block, and that meet the check's
    Euler condition, counted by trying every setting."""
    unions = check.unions
    covers = {(table.orbit_of(unions[s]), table.orbit_of(unions[s ^ 1 << i]))
              for s in range(1, len(unions)) for i in range(s.bit_length())
              if s >> i & 1 and s ^ 1 << i}
    # chi of the fixed-point complex: one signed term per TRUE block union
    terms = [(table.orbit_of(unions[s]), (-1) ** (s.bit_count() + 1))
             for s in range(1, len(unions))]
    free = list(iter_bits(check.governed & ~(st.t_bits | st.f_bits)))
    governed_t = st.t_bits & check.governed
    count = 0
    for setting in range(1 << len(free)):
        t = governed_t | sum(1 << o for j, o in enumerate(free)
                             if setting >> j & 1)
        closed = all(t >> below & 1 for above, below in covers
                     if t >> above & 1)
        chi = sum(sign for o, sign in terms if t >> o & 1)
        count += closed and condition_met(check.condition, chi)
    return count


def test_local_count_matches_brute_force(campaign):
    nodes = []
    visit_nodes(campaign.engine(), campaign.schedule("default"), nodes.append)
    pairs = 0
    for st in nodes[::13]:
        assigned = st.t_bits | st.f_bits
        for check in campaign.checks.values():
            if (check.governed & ~assigned).bit_count() > 12:
                continue
            pairs += 1
            assert (count_local_cases(campaign, st, check)
                    == brute_force_local_count(campaign.table, st, check))
    assert pairs == 404


def test_theta_comparisons_have_no_mismatches(result):
    for s in result.steps:
        assert s.theta_t.mismatched == []
        assert s.theta_f.mismatched == []
        assert len(s.theta_t.matched) >= 7
        assert s.theta_f.complete_levels   # fully listed levels get verified


def test_step_counts_match_published_listings(result):
    # the published T-side listings track the computed state exactly
    for s in result.steps:
        assert s.theta_t.printed_count == s.theta_t.computed_count
    # the F side drops one level-7 orbit at steps 3 and 4, later repaired
    deltas = [s.theta_f.computed_count - s.theta_f.printed_count
              for s in result.steps]
    assert deltas == [0, 0, 1, 1, 0, 0]


def test_branch_selection_follows_the_published_choices(result):
    assert result.steps[0].selection == {"6.24": "T"}
    assert result.steps[1].selection == {"7.20": "T"}
    assert result.steps[3].selection == {"5.3": "T"}


def test_unvisited_subgroups(result):
    assert result.satisfied_unvisited == ["G6_4", "G6_5", "G6_8"]
    assert result.pending_unvisited == ["G6_2"]


def test_endgame_chi_values(result):
    assert result.chi == 1
    assert result.chi_link == 7


def test_endgame_free_orbits_recomputed(result):
    assert len(result.free_orbits) == 12
    levels = sorted(o["level"] for o in result.free_orbits)
    assert levels == [4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6]
    for o in result.free_orbits:
        assert o["containing_x1"] * 14 == o["level"] * o["size"]
    assert result.free_relations   # the free orbits are not an antichain


def test_endgame_cases(result):
    assert result.cases_with_chi_1 == 16
    assert result.cases_passing_link == 0
    assert all(c["chi"] == 1 for c in result.leaf_cases)
    assert all(c["chi_link"] != 1 for c in result.leaf_cases)


def test_published_endgame_is_recorded(result, campaign):
    assert result.published_final == {
        "free_orbits": 6,
        "free_labels": ["5.4", "5.6", "5.12", "6.10", "6.12", "6.17"],
        "cases_with_chi_1": 2,
    }
    assert campaign.case_study["final"]["errata"]


def test_combination_table_verified(result):
    assert result.combination_check["1"]["anchored_verified"] == [
        "1.0", "3.1", "3.2", "3.4"]
    assert "6.23" in result.combination_check["2"]["anchored_verified"]
    assert "7.27" in result.combination_check["3"]["anchored_verified"]
    assert result.combination_check["3"]["orbit_classes"] == 12


def test_step3_forced_case(result, campaign):
    # the chosen step-3 case keeps the six-point block a face: its orbit
    # (6.24) was TRUE before the step and stays TRUE
    assert campaign.anchors.get("6.24") is not None
    assert result.steps[2].selection == {}


def test_unanchored_labels_are_skipped_not_guessed(result):
    skipped = {lbl for s in result.steps
               for lbl in s.theta_t.skipped + s.theta_f.skipped}
    assert "4.9" in skipped     # no published representative
    assert "5.16" in skipped


def test_selector_with_unanchored_label_raises(campaign):
    broken = campaign._replace(case_study=copy.deepcopy(campaign.case_study))
    broken.case_study["steps"][0]["select"]["set"] = [["9.9", "T"]]
    with pytest.raises(MappingIncomplete):
        replay_case_study(broken)
