"""Acceptance gate: one test per criterion, each printing a PASS line on
success.  A failing test is the FAIL line.

Criterion 5 is split: the parts of the worked example the replay
reproduces step by step (test_criterion_5_replay), and the endgame held to
the publication's step-6 listing (test_criterion_5_published_endgame_counts).
The latter checks that the recomputed free orbits are exactly the orbits
the listing leaves undetermined, that two of the endgame sentence's "free"
labels are listed as F, that no search node has the sentence's endgame,
and that an explicit-face enumeration of the free orbits reproduces the
residual chi=1 count with no setting passing the link.  The sentence's own
integers (6 free orbits, 2 chi=1 cases) are an erratum recorded in the
bundled case study.

The last test holds README's premise ledger, the table of what the
verdict rests on, to the tests it names.
"""

import random
import re
import time
from pathlib import Path

import pytest

from conftest import (completions, explicit_euler, link, opposite, r_vector,
                      random_monotone_bits, visit_nodes)
from elusive14.bundle import expand_labels, load_group_specs
from elusive14.complexes import (FALSE, TRUE, TypeAssignment, chi_deltas,
                                 link_x1_deltas)
from elusive14.oracle import (BooleanFunction, decision_tree_depth,
                              enumerate_monotone,
                              exhaustive_conjecture_check,
                              sample_invariant_function)
from elusive14.perm import classify, subgroup, verify_witness
from elusive14.replay import replay_case_study
from elusive14.search import SearchEngine, run_search


@pytest.fixture(scope="module")
def replay(campaign):
    return replay_case_study(campaign)


def test_criterion_1_group_orders(campaign):
    t0 = time.perf_counter()
    specs = load_group_specs()
    groups = {name: spec.build() for name, spec in specs.items()}
    elapsed = time.perf_counter() - t0
    assert groups["G1"].order == 14
    assert groups["G2"].order == 14
    assert groups["G3"].order == 56
    assert groups["G5"].order == 1092
    assert groups["G6"].order == 168
    # G4: the computed closure is authoritative; both published values are
    # carried as a flagged discrepancy, and the witness chain must verify
    g4 = groups["G4"]
    assert g4.order != specs["G4"].printed_order == 169
    assert specs["G4"].witness_order == 196 == g4.order
    w = specs["G4"].oliver_witness()
    assert verify_witness(g4, w)
    P = subgroup(g4, list(w.p_generators))
    H = subgroup(g4, list(w.h_generators))
    assert P.order == 49 and g4.order // H.order == 2
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: orders 14/14/56/[196 vs printed 169]/1092/168 "
          f"({elapsed:.2f}s)")


def test_criterion_2_classification(campaign):
    t0 = time.perf_counter()
    got = {}
    for name in ("G1", "G2", "G3", "G4", "G5", "G6"):
        cls = classify(campaign.groups[name],
                       campaign.specs[name].oliver_witness())
        got[name] = (cls.kind, cls.p, cls.q)
    elapsed = time.perf_counter() - t0
    assert got == {
        "G1": ("cyclic", None, None),
        "G2": ("psi_p", 7, None),
        "G3": ("psi_p", 2, None),
        "G4": ("psi_pq", 7, 2),
        "G5": ("sylow_lemma", 13, None),
        "G6": ("unresolved", None, None),
    }
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: cyclic/psi_7/psi_2/psi_7^2/sylow(13)/"
          f"unresolved ({elapsed:.2f}s)")


def test_criterion_3_orbit_census(campaign):
    import math
    t0 = time.perf_counter()
    from elusive14.orbits import OrbitTable
    table = OrbitTable(campaign.groups["G6"])
    elapsed = time.perf_counter() - t0
    assert [table.size[o] for o in table.ids_at_level[1]] == [14]
    assert sorted(table.size[o] for o in table.ids_at_level[2]) == [7, 84]
    for k in range(15):
        assert sum(table.size[o] for o in table.ids_at_level[k]) == math.comb(14, k)
    total = table.orbit_count - 1
    published = campaign.specs["G6"].printed_orbit_total
    verdict = "matches" if total == published else "does not match"
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: census total {total} {verdict} the "
          f"published {published}; level sizes partition C(14,k) "
          f"({elapsed:.2f}s)")


def test_criterion_4_search_terminates_empty(campaign):
    t0 = time.perf_counter()
    # one engine per run, so each run resolves every leaf itself
    reports = [run_search(campaign.engine(), campaign.schedule(name))
               for name in ("default", "alternate")]
    again = run_search(campaign.engine(), campaign.schedule("default"))
    elapsed = time.perf_counter() - t0
    for rep in reports:
        assert rep.feasible_functions == []
    assert reports[0].stats == again.stats   # deterministic
    assert (reports[0].feasible_functions == reports[1].feasible_functions)
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 4 PASS: zero feasible functions under two "
          f"schedules, deterministic ({elapsed:.2f}s)")


def test_criterion_5_replay(replay):
    assert replay.problems == []
    by_step = {s.step: s for s in replay.steps}
    assert by_step[1].local_cases == 2
    assert by_step[4].local_cases == 4     # published counting, block level
    assert by_step[6].local_cases == 2
    assert replay.chi == 1
    assert replay.chi_link == 7
    # the substance of the final step: no residual setting passes the link
    assert replay.cases_with_chi_1 > 0
    assert replay.cases_passing_link == 0
    assert all(c["chi_link"] != 1 for c in replay.leaf_cases)
    print(f"\nACCEPTANCE 5 PASS (replayed parts): steps yield 2/4/2 cases, "
          f"chi=1, link chi=7, all {replay.cases_with_chi_1} residual "
          f"chi=1 settings fail the link condition")


def test_criterion_5_published_endgame_counts(replay, campaign, monkeypatch):
    """The replayed endgame, held to the published step-6 listing.

    The publication's endgame sentence claims 6 free orbits and 2 residual
    chi=1 cases; its own step-6 T/F listing contradicts both, and the
    bundled case study records the sentence as an erratum.  The expected
    values therefore come from the listing:

    (a) the recomputed free orbits are as many, and at the same levels, as
        the orbits the step-6 listing names neither T nor F;
    (b) of the sentence's six free labels, exactly 5.4 and 6.10 are listed
        as F at step 6;
    (c) no node of the search, under either schedule, has the sentence's
        endgame: six free orbits at its labels' levels with the published
        chi and link chi;
    (d) enumerating the completions of the free orbits from explicit faces,
        without the search's incremental chi bookkeeping, gives the
        recomputed number of chi=1 settings and none with link chi 1.
    """
    table = campaign.table
    published = campaign.case_study["final"]
    step6 = campaign.case_study["steps"][-1]
    listed_t = set(expand_labels(step6["theta_t"]))
    listed_f = set(expand_labels(step6["theta_f"]))
    listed = listed_t | listed_f

    # (a) the gaps of the listing, from the per-level orbit counts
    unlisted = [f"{k}.{j}" for k in range(1, table.n + 1)
                for j in range(len(table.ids_at_level[k]))
                if f"{k}.{j}" not in listed]
    gap_levels = sorted(int(lbl.split(".")[0]) for lbl in unlisted)
    free_levels = sorted(o["level"] for o in replay.free_orbits)
    assert (len(replay.free_orbits), free_levels) == (len(unlisted), gap_levels), (
        f"step-6 listing leaves {len(unlisted)} orbits unlisted (levels "
        f"{gap_levels}); the recomputation leaves {len(replay.free_orbits)} "
        f"free (levels {free_levels})")

    # (b) the sentence names as free two orbits the listing has as F
    sentence = replay.published_final["free_labels"]
    assert len(sentence) == replay.published_final["free_orbits"]
    assert set(sentence) & listed_f == {"5.4", "6.10"}

    # (c) the sentence's endgame is no node of the search tree
    want = (sorted(int(lbl.split(".")[0]) for lbl in sentence),
            published["chi"], published["chi_link"])
    matches, audited = [], [0]

    def audit(st):
        assigned = st.t_bits | st.f_bits
        levels = sorted(table.level[o] for o in range(1, table.orbit_count)
                        if not assigned >> o & 1)
        if (levels, st.chi, st.chi_link) == want:
            matches.append(st)
        audited[0] += 1

    engine = campaign.engine()
    for name in ("default", "alternate"):
        audited[0] = 0
        report = visit_nodes(engine, campaign.schedule(name), audit)
        assert audited[0] == report.stats.nodes_explored
    assert matches == []

    # (d) brute force over the free orbits of the replayed final state;
    # the replay does not return that state, so catch the one it hands to
    # the leaf resolution
    states = []
    leaf_survivors = SearchEngine.leaf_survivors

    def spy(self, st, *args, **kwargs):
        states.append(st)
        return leaf_survivors(self, st, *args, **kwargs)

    monkeypatch.setattr(SearchEngine, "leaf_survivors", spy)
    replay_case_study(campaign)
    monkeypatch.undo()
    (final,) = states
    free = [table.oid(o["orbit"]) for o in replay.free_orbits]
    assigned = final.t_bits | final.f_bits
    assert set(free) == {o for o in range(1, table.orbit_count)
                         if not assigned >> o & 1}
    fixed_t = [o for o in range(1, table.orbit_count) if final.t_bits >> o & 1]
    # the complex is a union of orbits, so it is downward closed iff one
    # member of each face orbit has all its one-point deletions as faces
    facets = {}
    for o in fixed_t + free:
        m = table.members[o][0]
        facets[o] = {table.orbit_of(m ^ (1 << i))
                     for i in range(table.n) if m >> i & 1} - {0}
    everything = (1 << table.orbit_count) - 2
    chi_1 = link_1 = 0
    for pick in range(1 << len(free)):
        true = set(fixed_t) | {o for i, o in enumerate(free) if pick >> i & 1}
        if any(not facets[o] <= true for o in true):
            continue
        if explicit_euler(m for o in true for m in table.members[o]) != 1:
            continue
        chi_1 += 1
        t_bits = sum(1 << o for o in true)
        a = TypeAssignment(table, campaign.poset, t_bits, everything & ~t_bits)
        link_1 += explicit_euler(link(a, 1)) == 1
    assert chi_1 == replay.cases_with_chi_1
    assert link_1 == 0
    print(f"\nACCEPTANCE 5 PASS (published endgame): {len(unlisted)} orbits "
          f"unlisted at step 6 = recomputed free orbits; "
          f"{sorted(set(sentence) & listed_f)} of the published free labels "
          f"are listed F; no search node has the published endgame; "
          f"{chi_1} chi=1 completions from explicit faces, none with link "
          f"chi 1")


def test_criterion_6_oracle_cross_check(campaign):
    rng = random.Random(20250808)
    times = []
    for k in range(5):
        f = sample_invariant_function(campaign.table, campaign.poset, rng)
        assert f.table[0] == 1 and f.table[(1 << 14) - 1] == 0   # nontrivial
        t0 = time.perf_counter()
        depth = decision_tree_depth(f)
        dt = time.perf_counter() - t0
        times.append(dt)
        assert depth == 14, f"sample {k}: D(f) = {depth}"
        assert dt < 300.0
    print(f"\nACCEPTANCE 6 PASS: 5 sampled invariant functions all have "
          f"depth 14 (times {['%.1fs' % t for t in times]})")


def test_criterion_7_exhaustive_small_arity():
    t0 = time.perf_counter()
    reports = [exhaustive_conjecture_check(n) for n in (2, 3, 4, 5)]
    elapsed = time.perf_counter() - t0
    for rep in reports:
        assert rep.elusive_failures == []
        assert rep.chi_one_failures == []
        assert rep.weakly_symmetric_nontrivial > 0
    assert [r.monotone_functions for r in reports] == [6, 20, 168, 7581]
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 7 PASS: no counterexamples through arity 5; every "
          f"non-elusive monotone function has chi 1 ({elapsed:.1f}s)")


def test_criterion_8_property_suites(campaign):
    table, poset, engine = campaign.table, campaign.poset, campaign.engine()
    rng = random.Random(88)

    def full_assignment(t_bits):
        f = 0
        for o in range(1, table.orbit_count):
            if not t_bits >> o & 1:
                f |= 1 << o
        return TypeAssignment(table, poset, t_bits, f)

    # (a) link r-vector identity and (b) fast link chi vs explicit link; G6
    # is transitive, so the link at every vertex has the link at x1's chi
    for _ in range(100):
        a = full_assignment(random_monotone_bits(table, poset, rng))
        v = rng.randint(1, 14)
        lk = link(a, v)
        r = r_vector(a)
        r_link = [0] * 15
        for m in lk:
            r_link[m.bit_count()] += 1
        assert all(14 * r_link[k - 1] == k * r[k] for k in range(1, 15))
        assert a.chi_link == explicit_euler(lk)

    # (c) the kernel's closure step vs brute-force member-scan
    # recomputation; from a blank state both children exist, TRUE first
    blank = TypeAssignment(table, poset)
    top = table.oid("14.0")
    ids = [o for o in range(1, table.orbit_count) if o != top]
    for _ in range(100):
        o = rng.choice(ids)
        value = rng.choice((TRUE, FALSE))
        st = completions(engine, blank, [o])[value == FALSE]
        bits = st.t_bits if value == TRUE else st.f_bits
        for p in rng.sample(range(1, table.orbit_count), 12):
            if value == TRUE:
                brute = any(m2 & ~m1 == 0 for m1 in table.members[o]
                            for m2 in table.members[p])
            else:
                brute = any(m1 & ~m2 == 0 for m1 in table.members[o]
                            for m2 in table.members[p])
            assert bool(bits >> p & 1) == (brute or p == o)

    # (d) incremental chi values vs from-scratch sums at search nodes
    chi_d, link_d = chi_deltas(table), link_x1_deltas(table)
    audited = [0]

    def audit(st):
        chi = sum(chi_d[o] for o in range(1, table.orbit_count)
                  if st.t_bits >> o & 1)
        lchi = sum(link_d[o] for o in range(1, table.orbit_count)
                   if st.t_bits >> o & 1)
        assert (chi, lchi) == (st.chi, st.chi_link)
        audited[0] += 1

    visit_nodes(engine, campaign.schedule("default"), audit)
    assert audited[0] >= 100

    # (e) depth of a function equals depth of its opposite
    checked = 0
    for n in (3, 4):
        for bits in enumerate_monotone(n):
            f = BooleanFunction.from_bitvector(n, bits)
            assert decision_tree_depth(f) == decision_tree_depth(opposite(f))
            checked += 1
    assert checked >= 100
    print(f"\nACCEPTANCE 8 PASS: property suites clean "
          f"(100+100+100 randomized cases, {audited[0]} audited nodes, "
          f"{checked} depth pairs)")


def test_premise_ledger_names_existing_tests():
    # README's premise ledger: every row has one of the four statuses, each
    # computed or checked premise names a test, and each test named exists
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    ledger = readme.split("## What the verdict rests on\n")[1].split("\n## ")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in ledger.splitlines()
            if line.startswith("| ") and not line.startswith("| Premise")]
    assert len(rows) > 10
    for premise, status, checked_by in rows:
        assert status in ("computed here", "bundled and checked",
                          "bundled, not checkable offline", "cited"), premise
        named = re.findall(r"`(tests/\w+\.py)::(\w+)`", checked_by)
        assert named or status not in ("computed here",
                                       "bundled and checked"), premise
        for path, name in named:
            source = (root / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {name}\(", source, re.M), f"{path}::{name}"
    print(f"\nPREMISE LEDGER PASS: {len(rows)} premises, every named test "
          "exists")
