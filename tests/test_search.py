import random

import pytest

from elusive14 import search
from elusive14.complexes import (FALSE, TRUE, TypeAssignment, assert_monotone,
                                 euler, fixed_point_complex, link_euler_fast)
from elusive14.orbits import OrbitPoset, OrbitTable
from elusive14.perm import Permutation, classify, generate
from elusive14.search import (CaseCapExceeded, SearchEngine, SearchStats,
                              build_check, condition_met, run_search)


def test_initial_state_pins_only_the_top_orbit(campaign):
    engine = campaign.engine()
    st = engine.initial_state()
    top = campaign.table.oid("14.0")
    assert st.f_bits == 1 << top
    assert st.t_bits == 0 and st.chi == 0 and st.chi_link == 0


def test_propagate_lower_closure_matches_published_count(campaign):
    engine = campaign.engine()
    st = engine.propagate(engine.initial_state(), campaign.anchors.get("6.24"),
                          TRUE, SearchStats())
    assert st is not None
    assert st.t_bits.bit_count() == 10
    levels = sorted(campaign.table.level[o]
                    for o in range(campaign.table.orbit_count)
                    if st.t_bits >> o & 1)
    assert levels == [1, 2, 2, 3, 3, 3, 4, 4, 5, 6]
    for label in ("1.0", "2.0", "2.1", "3.1", "4.11"):
        assert st.t_bits >> campaign.anchors.get(label) & 1


def test_propagate_upper_closure(campaign):
    engine = campaign.engine()
    st = engine.propagate(engine.initial_state(), campaign.anchors.get("8.24"),
                          FALSE, SearchStats())
    assert st.f_bits.bit_count() == 11


def test_propagate_conflict(campaign):
    engine = campaign.engine()
    table = campaign.table
    stats = SearchStats()
    level2 = table.ids_at_level[2][0]
    level1 = table.ids_at_level[1][0]
    st = engine.propagate(engine.initial_state(), level2, TRUE, stats)
    assert st is not None and st.t_bits >> level1 & 1
    assert engine.propagate(st, level1, FALSE, stats) is None
    assert stats.prunes_by_conflict == 1


def test_propagate_against_brute_force_closure(campaign):
    """Closure bitsets agree with a from-scratch sweep over all 2^n sets."""
    engine, table = campaign.engine(), campaign.table
    rng = random.Random(13)
    top = table.oid("14.0")
    ids = [o for o in range(1, table.orbit_count) if o != top]
    stats = SearchStats()
    blank = TypeAssignment(table, campaign.poset)
    full = (1 << table.n) - 1
    for _ in range(100):
        o = rng.choice(ids)
        value = rng.choice((TRUE, FALSE))
        st = engine.propagate(blank, o, value, stats)
        # TRUE: p is below o iff some member of p lies inside a member of o.
        # FALSE: p is above o, the same test on complemented sets.
        flip = 0 if value == TRUE else full
        inside = bytearray(full + 1)
        for m in table.members[o]:
            inside[m ^ flip] = 1
        for m in range(full, 0, -1):     # supersets before their subsets
            if inside[m]:
                rest = m
                while rest:
                    bit = rest & -rest
                    inside[m ^ bit] = 1
                    rest ^= bit
        brute = {p for p in range(1, table.orbit_count)
                 if any(inside[m ^ flip] for m in table.members[p])}
        bits = st.t_bits if value == TRUE else st.f_bits
        got = {p for p in range(1, table.orbit_count) if bits >> p & 1}
        assert got == brute


def test_step_one_enumeration(campaign):
    engine = campaign.engine()
    children = engine.enumerate_cases(engine.initial_state(),
                                      campaign.checks["G6_11"], SearchStats())
    assert len(children) == 2
    o6, o8 = campaign.anchors.get("6.24"), campaign.anchors.get("8.24")
    states = {(bool(c.t_bits >> o6 & 1), bool(c.t_bits >> o8 & 1))
              for c in children}
    assert states == {(True, False), (False, True)}


def test_full_search_both_schedules(campaign):
    engine = campaign.engine()
    reports = {}
    for name in ("default", "alternate"):
        rep = run_search(engine, campaign.schedule(name))
        assert rep.verified
        assert rep.feasible_functions == []
        reports[name] = rep
    assert (reports["default"].feasible_functions
            == reports["alternate"].feasible_functions)


def test_search_node_counts_deterministic(campaign):
    engine = campaign.engine()
    a = run_search(engine, campaign.schedule("default"))
    b = run_search(engine, campaign.schedule("default"))
    assert a.stats == b.stats
    assert a.stats.nodes_explored == 521


def test_relabelling_the_points_keeps_the_search_counters(campaign):
    # conjugating G6 and its subgroups by one sigma in S14 renumbers the
    # points and moves the orbit ids, but the search may depend only on the
    # groups: same conditions, same counters, no survivor with the link test
    # and 4224 chi = 1 leaves without it
    images = list(range(campaign.table.n))
    random.Random(1).shuffle(images)
    sigma = Permutation(tuple(images))
    sigma_inv = sigma.inverse()

    def conjugate(G):
        return generate([sigma * g * sigma_inv for g in G.generators])

    table = OrbitTable(conjugate(campaign.groups["G6"]))
    checks = {}
    for name, check in campaign.checks.items():
        H = conjugate(campaign.subgroups[name])
        condition = check.condition
        assert classify(H).chi_condition == condition, name
        checks[name] = build_check(table, H, name, condition)
    engine = SearchEngine(table, OrbitPoset(table), checks)
    for schedule, nodes, cases in (("default", 521, 520),
                                   ("alternate", 517, 516)):
        for link_check in (True, False):
            rep = run_search(engine, campaign.schedule(schedule), link_check)
            s = rep.stats
            assert (s.nodes_explored, s.cases_enumerated, s.leaf_assignments,
                    s.leaf_chi1) == (nodes, cases, 25444, 4224)
            assert len(rep.feasible_functions) == (0 if link_check else 4224)


def test_link_condition_is_load_bearing(campaign):
    engine = campaign.engine()
    rep = run_search(engine, campaign.schedule("default"), link_check=False)
    assert len(rep.feasible_functions) > 0
    assert len(rep.feasible_functions) == 4224
    # every survivor saved by disabling the link check fails it
    assert rep.stats.leaf_chi1 == 4224
    # the survivor set, not just its size, is schedule independent
    other = run_search(engine, campaign.schedule("alternate"), link_check=False)
    assert rep.feasible_functions == other.feasible_functions
    # Alexander duality (the dual complex holds a set iff its complement is
    # not in the complex) commutes with taking a subgroup's fixed-point
    # complex and changes the reduced Euler characteristic at most in sign,
    # so it keeps every condition chi = 1 and chi = 1 mod q and must map
    # the leaf set onto itself.  On orbit ids, o is TRUE in the dual iff
    # the orbit of its complement is FALSE
    table = campaign.table
    full = (1 << table.n) - 1
    complement = [table.orbit_of(full ^ m) for m in table.min_mask]
    labels = [str(table.label(o)) for o in range(table.orbit_count)]
    leaves = {frozenset(o for o in range(1, table.orbit_count)
                        if states[labels[o]] == TRUE) | {0}
              for states in rep.feasible_functions}
    assert len(leaves) == 4224

    def dual(true_ids):
        return frozenset(o for o in range(table.orbit_count)
                         if complement[o] not in true_ids)

    assert {dual(t) for t in leaves} == leaves
    assert not any(dual(t) == t for t in leaves)


def test_disabled_link_survivors_really_satisfy_everything_else(campaign):
    engine = campaign.engine()
    rep = run_search(engine, campaign.schedule("default"), link_check=False)
    states = rep.feasible_functions[:3] + rep.feasible_functions[-2:]
    for survivor in states:
        a = TypeAssignment.from_states(campaign.table, campaign.poset, survivor)
        assert assert_monotone(a)
        assert euler(a) == 1
        assert link_euler_fast(a) != 1
        for name, check in campaign.checks.items():
            fpc = fixed_point_complex(a, campaign.subgroups[name])
            assert condition_met(check.condition, fpc.euler)


def test_incremental_chi_audited_against_from_scratch(campaign):
    engine, table = campaign.engine(), campaign.table
    from elusive14.complexes import chi_deltas, link_x1_deltas
    chi_d, link_d = chi_deltas(table), link_x1_deltas(table)
    audited = []

    def audit(st):
        chi = sum(chi_d[o] for o in range(1, table.orbit_count)
                  if st.t_bits >> o & 1)
        link = sum(link_d[o] for o in range(1, table.orbit_count)
                   if st.t_bits >> o & 1)
        assert (chi, link) == (st.chi, st.chi_link)
        audited.append(st)

    run_search(engine, campaign.schedule("default"), audit=audit)
    assert len(audited) >= 100


def test_states_reverify_with_fixed_point_complex(campaign):
    """Children produced by a check satisfy monotonicity and the check's
    Euler condition when re-verified from scratch."""
    engine = campaign.engine()
    sched = engine.schedule_checks(campaign.schedule("default"))
    stats = SearchStats()
    frontier = [engine.initial_state()]
    for check in sched[:3]:
        nxt = []
        for st in frontier:
            for child in engine.enumerate_cases(st, check, stats):
                assert assert_monotone(child)
                fpc = fixed_point_complex(child, campaign.subgroups[check.name])
                assert condition_met(check.condition, fpc.euler)
                nxt.append(child)
        frontier = nxt
    assert frontier


def test_case_cap(campaign, monkeypatch):
    monkeypatch.setattr(search, "CASE_CAP", 1)
    with pytest.raises(CaseCapExceeded):
        run_search(campaign.engine(), campaign.schedule("default"))


def test_schedule_validation(campaign):
    from elusive14.search import Schedule
    engine = campaign.engine()
    with pytest.raises(ValueError):
        engine.schedule_checks(Schedule("bad", ("G6_1", "G6_2")))
    order = campaign.schedule("default").order
    with pytest.raises(ValueError):
        engine.schedule_checks(Schedule("bad", order[:-1] + (order[0],)))


def test_forced_full_simplex_conflicts_immediately(campaign):
    engine = campaign.engine()
    top = campaign.table.oid("14.0")
    stats = SearchStats()
    assert engine.propagate(engine.initial_state(), top, TRUE, stats) is None


def test_link_disabled_survivor_is_still_elusive(campaign):
    """Dual route: a labelling that passes every subgroup condition and
    chi(Delta) = 1 but fails only the link test still encodes an elusive
    function, per the independent depth oracle."""
    from elusive14.oracle import BooleanFunction, decision_tree_depth

    engine = campaign.engine()
    rep = run_search(engine, campaign.schedule("default"), link_check=False)
    survivor = rep.feasible_functions[0]
    t_bits = 0
    for label, state in survivor.items():
        if state == TRUE:
            t_bits |= 1 << campaign.table.oid(label)
    f = BooleanFunction.from_orbit_types(campaign.table, t_bits)
    assert decision_tree_depth(f) == 14
