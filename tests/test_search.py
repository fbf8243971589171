import gc
import random
from types import SimpleNamespace

import pytest

from conftest import completions, down_sets, visit_nodes
from elusive14 import search
from elusive14.complexes import (FALSE, TRUE, TypeAssignment, assert_monotone,
                                 fixed_point_complex)
from elusive14.orbits import OrbitPoset, OrbitTable, iter_bits
from elusive14.oracle import BooleanFunction, DepthSolver
from elusive14.perm import (Permutation, _prime_power, classify, generate,
                            parse_cycles)
from elusive14.search import (CaseCapExceeded, Schedule, SearchEngine,
                              SearchStats, build_check, condition_met,
                              run_search)


def test_initial_state_pins_only_the_top_orbit(campaign):
    engine = campaign.engine()
    st = engine.initial_state()
    top = campaign.table.oid("14.0")
    assert st.f_bits == 1 << top
    assert st.t_bits == 0 and st.chi == 0 and st.chi_link == 0


def test_propagate_lower_closure_matches_published_count(campaign):
    engine = campaign.engine()
    st, _ = completions(engine, engine.initial_state(),
                        [campaign.anchors.get("6.24")])
    assert st.t_bits.bit_count() == 10
    levels = sorted(campaign.table.level[o]
                    for o in range(campaign.table.orbit_count)
                    if st.t_bits >> o & 1)
    assert levels == [1, 2, 2, 3, 3, 3, 4, 4, 5, 6]
    for label in ("1.0", "2.0", "2.1", "3.1", "4.11"):
        assert st.t_bits >> campaign.anchors.get(label) & 1


def test_propagate_upper_closure(campaign):
    engine = campaign.engine()
    _, st = completions(engine, engine.initial_state(),
                        [campaign.anchors.get("8.24")])
    assert st.f_bits.bit_count() == 11


def test_propagate_against_brute_force_closure(campaign):
    """Closure bitsets agree with a from-scratch sweep over all 2^n sets."""
    engine, table = campaign.engine(), campaign.table
    rng = random.Random(13)
    top = table.oid("14.0")
    ids = [o for o in range(1, table.orbit_count) if o != top]
    blank = TypeAssignment(table, campaign.poset)
    full = (1 << table.n) - 1
    for _ in range(100):
        o = rng.choice(ids)
        value = rng.choice((TRUE, FALSE))
        # nothing is assigned, so both children exist, TRUE first
        st = completions(engine, blank, [o])[value == FALSE]
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
        assert (st.t_bits if value == FALSE else st.f_bits) == 0


def _downward_closed_completions(table, st, free):
    """Brute force: every T/F setting of ``free`` whose TRUE orbits,
    together with those of ``st``, are closed downward, as (t_bits,
    f_bits) in the lexicographic order of the settings with TRUE first.
    A union of orbits is closed downward iff one member of each of its
    orbits has all its one-point deletions in it, which is read from the
    orbit members, not from the poset."""
    below = {}
    for o in range(1, table.orbit_count):
        m = table.members[o][0]
        below[o] = 0
        for i in range(table.n):
            if m >> i & 1:
                below[o] |= 1 << table.orbit_of(m ^ 1 << i)
        below[o] &= ~1      # the empty face is always present
    fixed_t = [o for o in range(1, table.orbit_count) if st.t_bits >> o & 1]
    out = []
    last = len(free) - 1
    for pick in range(1 << len(free)):
        # bit last - j of pick set means the j-th free orbit is FALSE, so
        # counting up runs TRUE-first in the order of the free orbits
        true = [o for j, o in enumerate(free) if not pick >> last - j & 1]
        t = st.t_bits | sum(1 << o for o in true)
        if all(below[o] & ~t == 0 for o in fixed_t + true):
            out.append((t, st.f_bits | sum(1 << o for o in free) & ~t))
    return out


def test_completion_kernel_against_brute_force(campaign):
    """Random closed partial states reached by a few kernel steps: the
    kernel's complete cases are every downward-closed completion of the
    free orbits, TRUE first in the given order, and no branch meets a
    conflict."""
    engine, table = campaign.engine(), campaign.table
    rng = random.Random(20)
    everything = (1 << table.orbit_count) - 2
    checked = 0
    for _ in range(12):
        st = engine.initial_state()
        while True:
            free = [o for o in range(1, table.orbit_count)
                    if not (st.t_bits | st.f_bits) >> o & 1]
            if len(free) <= 10:
                break
            st = rng.choice(completions(engine, st, [rng.choice(free)]))
        rng.shuffle(free)
        stats = SearchStats()
        cases = completions(engine, st, free, stats)
        assert stats.prunes_by_conflict == 0
        assert ([(c.t_bits, c.f_bits) for c in cases]
                == _downward_closed_completions(table, st, free))
        for c in cases:
            assert c.t_bits | c.f_bits == everything
        checked += len(cases)
    assert checked > 12


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
    # each schedule on its own engine, so it resolves every leaf itself
    reports = {}
    for name in ("default", "alternate"):
        rep = run_search(campaign.engine(), campaign.schedule(name))
        assert rep.verified
        assert rep.feasible_functions == []
        assert rep.stats.prunes_by_conflict == 0
        reports[name] = rep
    assert (reports["default"].feasible_functions
            == reports["alternate"].feasible_functions)


def test_search_node_counts_deterministic(campaign):
    a = run_search(campaign.engine(), campaign.schedule("default"))
    b = run_search(campaign.engine(), campaign.schedule("default"))
    assert a.stats == b.stats
    assert a.stats.nodes_explored == 521


def test_one_engine_resolves_each_leaf_once(campaign):
    # both schedules reach the same leaf states, so on one engine the
    # alternate resolves none itself, yet reports what a fresh engine does
    engine = campaign.engine()
    run_search(engine, campaign.schedule("default"))
    assert len(engine.leaves) == 332
    shared = run_search(engine, campaign.schedule("alternate"))
    assert len(engine.leaves) == 332
    fresh = run_search(campaign.engine(), campaign.schedule("alternate"))
    assert shared.stats == fresh.stats
    assert shared.feasible_functions == fresh.feasible_functions == []
    # without the link test the same states are new leaves
    rep = run_search(engine, campaign.schedule("default"), link_check=False)
    assert len(rep.feasible_functions) == rep.stats.leaf_chi1 == 4224
    assert len(engine.leaves) == 2 * 332


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
    poset = OrbitPoset(table)
    for schedule, nodes, cases in (("default", 521, 520),
                                   ("alternate", 517, 516)):
        order = tuple(checks[c.name]
                      for c in campaign.schedule(schedule).checks)
        for link_check in (True, False):
            rep = run_search(SearchEngine(table, poset),
                             Schedule(schedule, order), link_check)
            s = rep.stats
            assert (s.nodes_explored, s.cases_enumerated, s.leaf_assignments,
                    s.leaf_chi1) == (nodes, cases, 25444, 4224)
            assert len(rep.feasible_functions) == (0 if link_check else 4224)


def test_the_replay_meets_no_conflict(campaign, monkeypatch):
    # the enumeration kernel has no conflict branch, since it is handed
    # only closed states, so the counter stays 0 on the search path (the
    # schedules' tests pin that) and in the replay, whose block-local
    # counts run on the order that a check's unions generate, not on the
    # orbit poset
    from elusive14 import replay
    made = []

    def recording_stats():
        made.append(SearchStats())
        return made[-1]

    monkeypatch.setattr(replay, "SearchStats", recording_stats)
    assert replay.replay_case_study(campaign).ok
    # the replay's one search stats, and one per step for the local counts
    steps = campaign.case_study["steps"]
    assert len(made) == 1 + len(steps)
    assert ([s.cases_enumerated for s in made[1:]]
            == [step["printed_cases"] for step in steps])
    assert [s.prunes_by_conflict for s in made] == [0] * len(made)


def test_link_condition_is_load_bearing(campaign):
    rep = run_search(campaign.engine(), campaign.schedule("default"),
                     link_check=False)
    assert len(rep.feasible_functions) > 0
    assert len(rep.feasible_functions) == 4224
    # every survivor saved by disabling the link check fails it
    assert rep.stats.leaf_chi1 == 4224
    # the survivor set, not just its size, is schedule independent
    other = run_search(campaign.engine(), campaign.schedule("alternate"),
                       link_check=False)
    assert rep.feasible_functions == other.feasible_functions
    assert rep.stats.prunes_by_conflict == other.stats.prunes_by_conflict == 0
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
        assert a.chi == 1
        assert a.chi_link != 1
        for name, check in campaign.checks.items():
            fpc = fixed_point_complex(a, campaign.subgroups[name])
            assert condition_met(check.condition, fpc.euler)


def test_states_reverify_with_fixed_point_complex(campaign):
    """Children produced by a check satisfy monotonicity and the check's
    Euler condition when re-verified from scratch."""
    engine = campaign.engine()
    stats = SearchStats()
    frontier = [engine.initial_state()]
    for check in campaign.schedule("default").checks[:3]:
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


def test_a_capped_leaf_stores_nothing(campaign, monkeypatch):
    # the largest check enumeration completes 185 cases and the largest
    # leaf 452, so at this cap only a leaf raises, partway through the run
    engine = campaign.engine()
    entered = []
    resolve = engine.leaf_survivors

    def leaf_survivors(st, stats, link_check=True):
        entered.append(st)
        return resolve(st, stats, link_check)

    monkeypatch.setattr(engine, "leaf_survivors", leaf_survivors)
    cap = search.CASE_CAP
    monkeypatch.setattr(search, "CASE_CAP", 185)
    with pytest.raises(CaseCapExceeded, match="^leaf: "):
        run_search(engine, campaign.schedule("default"))
    # fifteen leaves resolve and are kept, the sixteenth is capped
    assert len(entered) == 16
    assert set(engine.leaves) == {(st.t_bits, st.f_bits, True)
                                  for st in entered[:-1]}
    # and the caller's counters are left as they were
    stats = SearchStats()
    with pytest.raises(CaseCapExceeded):
        engine.leaf_survivors(entered[-1], stats)
    assert stats == SearchStats()
    assert len(engine.leaves) == 15
    # at the full cap the same engine counts what a fresh one does
    monkeypatch.setattr(search, "CASE_CAP", cap)
    rep = run_search(engine, campaign.schedule("default"))
    assert rep.stats == run_search(campaign.engine(),
                                   campaign.schedule("default")).stats
    assert rep.verified and len(engine.leaves) == 332


def test_a_count_raises_exactly_past_the_cap(campaign, monkeypatch):
    # a count raises when its total exceeds the cap, not when it reaches
    # it: the default schedule's largest check count, G6_2's 185 completions
    # at one node, and its largest leaf's 452 each pass at the cap and
    # raise one below it
    default = campaign.schedule("default")
    want = run_search(campaign.engine(), default).stats
    engine = campaign.engine()
    totals = []
    for st, check in _check_nodes(engine, [default], monkeypatch):
        full = SearchStats()
        engine.enumerate_cases(st, check, full)
        totals.append((full.cases_enumerated + full.prunes_by_chi, st, check,
                       full))
    total, st, check, full = max(totals, key=lambda node: node[0])
    assert (total, check.name) == (185, "G6_2")
    monkeypatch.setattr(search, "CASE_CAP", 185)
    stats = SearchStats()
    engine.enumerate_cases(st, check, stats)
    assert stats == full
    monkeypatch.setattr(search, "CASE_CAP", 184)
    with pytest.raises(CaseCapExceeded, match="^G6_2: more than 184 cases$"):
        engine.enumerate_cases(st, check, SearchStats())
    # the leaves: at 452 the schedule runs as it does uncapped
    monkeypatch.setattr(search, "CASE_CAP", 452)
    assert run_search(campaign.engine(), default).stats == want
    monkeypatch.setattr(search, "CASE_CAP", 451)
    engine, nodes = campaign.engine(), []
    with pytest.raises(CaseCapExceeded, match="^leaf: more than 451 cases$"):
        visit_nodes(engine, default, nodes.append)
    # the capped leaf, the last node the walk reached, stores nothing
    assert (nodes[-1].t_bits, nodes[-1].f_bits, True) not in engine.leaves
    assert engine.leaves


def test_link_disabled_survivor_is_still_elusive(campaign):
    """Dual route: a labelling that passes every subgroup condition and
    chi(Delta) = 1 but fails only the link test still encodes an elusive
    function, per the independent depth oracle."""
    from elusive14.oracle import decision_tree_depth

    engine = campaign.engine()
    rep = run_search(engine, campaign.schedule("default"), link_check=False)
    survivor = rep.feasible_functions[0]
    t_bits = 0
    for label, state in survivor.items():
        if state == TRUE:
            t_bits |= 1 << campaign.table.oid(label)
    f = BooleanFunction.from_orbit_types(campaign.table, t_bits)
    assert decision_tree_depth(f) == 14


def test_the_prime_power_subgroups_alone_give_the_verdict(campaign):
    # Smith theory: a p-group acting on a Z_p-acyclic complex has a Z_p-
    # acyclic fixed-point complex, so chi = 1 there, and a non-evasive
    # complex is collapsible, so Z_p-acyclic for every p.  The subgroups of
    # prime-power order, picked by their order in the default schedule's
    # order, must end the search with no survivor, and without the link
    # test keep exactly the leaves the ten checks keep
    order = {name: H.order for name, H in campaign.subgroups.items()}
    checks = tuple(c for c in campaign.schedule("default").checks
                   if _prime_power(order[c.name]))
    assert sorted(order[c.name] for c in checks) == [2, 3, 4, 4, 4, 8]
    assert {c.condition for c in checks} == {("exact", 1)}
    schedule = Schedule("prime-power", checks)
    rep = run_search(campaign.engine(), schedule)
    assert rep.feasible_functions == []
    s = rep.stats
    assert (s.nodes_explored, s.leaf_assignments, s.leaf_chi1,
            s.prunes_by_link) == (892, 54624, 4224, 4224)
    engine = campaign.engine()
    alone = run_search(engine, schedule, link_check=False)
    ten = run_search(engine, campaign.schedule("default"), link_check=False)
    assert len(alone.feasible_functions) == 4224
    assert alone.feasible_functions == ten.feasible_functions


# three small groups on six points, each as its list of generators
SMALL_GROUPS = {"C3": ["(1,2,3)(4,5,6)"],
                "S3": ["(1,2,3)(4,5,6)", "(1,2)(4,5)"],
                "S4": ["(1,2,3,4)", "(1,2)"]}


def _pair_schedule(generators):
    """The orbit table of the group that ``generators`` generate on six
    points, and a schedule of one check per nontrivial subgroup that two
    of its elements generate, each under the condition classify derives."""
    G = generate([parse_cycles(g, 6) for g in generators])
    table = OrbitTable(G)
    subgroups = {}
    for a in G.elements:
        for b in G.elements:
            H = generate([a, b])
            if H.order > 1:
                subgroups.setdefault(H.element_set, H)
    checks = []
    for i, H in enumerate(subgroups.values()):
        condition = classify(H).chi_condition
        assert condition is not None
        checks.append(build_check(table, H, f"H{i}", condition))
    return table, Schedule("pairs", tuple(checks))


@pytest.mark.parametrize("generators, mod_checks, survivors, non_evasive, "
                         "links", [
    (SMALL_GROUPS["C3"], 0, 98, 72, (70, 2)),
    (SMALL_GROUPS["S3"], 0, 30, 24, (22, 2)),
    (SMALL_GROUPS["S4"], 1, 36, 36, (30, 6)),
], ids=["C3", "S3", "S4"])
def test_every_non_evasive_function_survives_the_checks(
        generators, mod_checks, survivors, non_evasive, links):
    # A non-evasive complex is collapsible (Kahn-Saks-Sturtevant), so
    # Z-acyclic: it has chi = 1 and meets every Euler condition that
    # classify derives for a subgroup's fixed-point complex.  So the whole
    # pipeline (the checks with their conditions, the kernel and the
    # leaf's chi test) must keep every invariant function that the oracle
    # finds non-evasive.  These groups are intransitive, so the link test
    # is off.  S4 on four of the six points is the one whose own check
    # has a "mod" condition (chain V4 < A4 < S4 of index 2).
    table, schedule = _pair_schedule(generators)
    assert sum(c.condition[0] == "mod" for c in schedule.checks) == mod_checks
    rep = run_search(SearchEngine(table, OrbitPoset(table)), schedule,
                     link_check=False)
    found = {sum(1 << table.oid(label) for label, state in states.items()
                 if state == TRUE) for states in rep.feasible_functions}
    top = table.oid(f"{table.n}.0")
    nonevasive = set()
    checked = void = 0
    for t in down_sets(table):
        f = BooleanFunction.from_orbit_types(table, t)
        solver = DepthSolver(f)
        if t >> top & 1 or solver.evasive():
            continue
        nonevasive.add(t)
        # the link lemma at an optimal root x_v: the x_v = 1 restriction is
        # non-evasive, and its complex is Link(Delta, v), so chi = 1 there;
        # if {x_v} is FALSE, that restriction is constant 0 and the link void
        v, _ = solver.adversary_path()[0]
        b = 1 << (v - 1)
        if not f.table[b]:
            void += 1
            continue
        assert solver.depth(b, b) < table.n - 1
        # a link face S - {x_v} of size |S| - 1 adds (-1)^|S|
        assert sum((-1) ** m.bit_count() for m in range(1 << table.n)
                   if m & b and m != b and f.table[m]) == 1
        checked += 1
    assert nonevasive <= found
    assert (len(found), len(nonevasive)) == (survivors, non_evasive)
    assert (checked, void) == links


class _CountedReads(list):
    """A list that counts the items read from it by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


def test_a_leaf_past_the_cap_stops_within_the_walk_s_steps(campaign,
                                                           monkeypatch):
    # with no checks G6's one leaf is the initial state, whose completions
    # are far more than any cap here: the count must raise as the kernel's
    # walk does, store nothing, and take no more steps than the walk, each
    # step of either reading lower[] once.  Without its budget the count's
    # memo on this leaf grows until memory runs out
    monkeypatch.setattr(search, "CASE_CAP", 4096)
    table = campaign.table
    lower = _CountedReads(campaign.poset.lower)
    engine = SearchEngine(table, SimpleNamespace(lower=lower,
                                                 upper=campaign.poset.upper))
    with pytest.raises(CaseCapExceeded, match="^leaf: more than 4096 cases$"):
        run_search(engine, Schedule("none", ()))
    assert engine.leaves == {}
    counted, lower.reads = lower.reads, 0
    with pytest.raises(CaseCapExceeded):
        completions(engine, engine.initial_state(),
                    range(1, table.orbit_count))
    assert 0 < counted <= lower.reads


def _walked(engine, st, link_check: bool):
    """A leaf's own SearchStats and survivors as the completion kernel's
    walk over all of its completions finds them, each with the chi and
    link chi that the walk summed: the reference for the leaf count."""
    own, chis = SearchStats(), []
    cases = completions(engine, st, range(1, engine.table.orbit_count), own,
                        chis)
    chi1 = [(c, link) for c, (chi, link) in zip(cases, chis) if chi == 1]
    kept = [c for c, link in chi1 if not link_check or link == 1]
    own.leaf_assignments = len(cases)
    own.leaf_chi1 = len(chi1)
    own.prunes_by_chi = len(cases) - len(chi1)
    own.prunes_by_link = len(chi1) - len(kept)
    return own, kept


def _leaf_states(engine, schedules, monkeypatch) -> list:
    """Every distinct leaf state that the schedules reach on ``engine``."""
    states = {}
    resolve = engine.leaf_survivors

    def leaf_survivors(st, stats, link_check=True):
        states.setdefault((st.t_bits, st.f_bits), st)
        return resolve(st, stats, link_check)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "leaf_survivors", leaf_survivors)
        for schedule in schedules:
            run_search(engine, schedule)
    return list(states.values())


def _assert_counted_as_walked(engine, states) -> None:
    """Each state's leaf resolves, with the link test and without, to the
    counters and survivors of the kernel's walk."""
    for st in states:
        for link_check in (True, False):
            stats = SearchStats()
            found = engine.leaf_survivors(st, stats, link_check)
            own, kept = _walked(engine, st, link_check)
            assert stats == own
            assert ([(c.t_bits, c.f_bits) for c in found]
                    == [(c.t_bits, c.f_bits) for c in kept])


def test_the_leaf_count_equals_the_walk_on_every_g6_leaf(campaign,
                                                         monkeypatch):
    # the default, alternate and prime-power schedules' leaf states: the
    # prime-power one reaches the default's 332 and 406 more
    prime_power = Schedule("prime-power", tuple(
        c for c in campaign.schedule("default").checks
        if _prime_power(campaign.subgroups[c.name].order)))
    states = _leaf_states(campaign.engine(), [
        campaign.schedule("default"), campaign.schedule("alternate"),
        prime_power], monkeypatch)
    assert len(states) == 738
    _assert_counted_as_walked(campaign.engine(), states)


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_the_leaf_count_equals_the_walk_on_small_groups(name, monkeypatch):
    table, schedule = _pair_schedule(SMALL_GROUPS[name])
    poset = OrbitPoset(table)
    states = _leaf_states(SearchEngine(table, poset), [schedule], monkeypatch)
    assert states
    _assert_counted_as_walked(SearchEngine(table, poset), states)


def test_g5_with_no_checks_counts_as_walked(campaign):
    # G5's orbits are few enough for one leaf with no check before it
    table = OrbitTable(campaign.groups["G5"])
    engine = SearchEngine(table, OrbitPoset(table))
    st = engine.initial_state()
    _assert_counted_as_walked(engine, [st])
    own, survivors = engine.leaves[(st.t_bits, st.f_bits, True)]
    assert (own.leaf_assignments, own.leaf_chi1, own.prunes_by_link,
            survivors) == (5714, 140, 140, ())


def _prime_power_schedule(campaign) -> Schedule:
    """The default schedule's checks of prime-power order, in its order."""
    return Schedule("prime-power", tuple(
        c for c in campaign.schedule("default").checks
        if _prime_power(campaign.subgroups[c.name].order)))


def _check_nodes(engine, schedules, monkeypatch) -> list:
    """Every distinct (state, check) pair that the schedules hand to
    ``enumerate_cases`` on ``engine``."""
    nodes = {}
    enumerate_cases = engine.enumerate_cases

    def recording(st, check, stats):
        nodes.setdefault((st.t_bits, st.f_bits, check.name), (st, check))
        return enumerate_cases(st, check, stats)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "enumerate_cases", recording)
        for schedule in schedules:
            run_search(engine, schedule)
    return list(nodes.values())


def _assert_enumerated_as_walked(engine, nodes) -> int:
    """Each check's cases are the walk's completions of its governed orbits
    that meet its condition, in ascending order of their fixed-point chi
    and in the walk's order within one chi, with the walk's counters.
    Returns the number of nodes whose cases have more than one chi."""
    spread = 0
    for st, check in nodes:
        stats = SearchStats()
        got = engine.enumerate_cases(st, check, stats)
        walked = SearchStats()
        cases = completions(engine, st, iter_bits(check.governed), walked)
        chi = {c.t_bits: engine.subgroup_chi(c.t_bits, check) for c in cases}
        kept = sorted((c for c in cases
                       if condition_met(check.condition, chi[c.t_bits])),
                      key=lambda c: chi[c.t_bits])
        walked.cases_enumerated = len(kept)
        walked.prunes_by_chi = len(cases) - len(kept)
        assert stats == walked
        assert ([(c.t_bits, c.f_bits) for c in got]
                == [(c.t_bits, c.f_bits) for c in kept])
        spread += len({chi[c.t_bits] for c in kept}) > 1
    return spread


def test_a_check_enumerates_what_the_walk_enumerates(campaign, monkeypatch):
    # every check node of the default, alternate and prime-power schedules;
    # G6_11, the one mod 2 check, keeps two cases at the root, both of
    # fixed-point chi 1
    nodes = _check_nodes(campaign.engine(), [
        campaign.schedule("default"), campaign.schedule("alternate"),
        _prime_power_schedule(campaign)], monkeypatch)
    assert {check.condition for _, check in nodes} == {("exact", 1),
                                                       ("mod", 2)}
    assert len(nodes) == 312
    assert _assert_enumerated_as_walked(campaign.engine(), nodes) == 0


@pytest.mark.parametrize("name, spread", [("C3", 0), ("S3", 0), ("S4", 1)])
def test_a_check_enumerates_what_the_walk_enumerates_on_small_groups(
        name, spread, monkeypatch):
    # the pipeline's check nodes and each check from the initial state,
    # where S4's mod 2 check keeps cases of fixed-point chi 1 and 3
    table, schedule = _pair_schedule(SMALL_GROUPS[name])
    poset = OrbitPoset(table)
    engine = SearchEngine(table, poset)
    nodes = _check_nodes(engine, [schedule], monkeypatch)
    nodes += [(engine.initial_state(), check) for check in schedule.checks]
    assert _assert_enumerated_as_walked(SearchEngine(table, poset),
                                        nodes) == spread


def _assert_closed(poset, st) -> None:
    """Each TRUE orbit's lower closure is TRUE, each FALSE one's upper
    closure FALSE."""
    for o in iter_bits(st.t_bits):
        assert poset.lower[o] & ~st.t_bits == 0
    for o in iter_bits(st.f_bits):
        assert poset.upper[o] & ~st.f_bits == 0


def test_the_kernel_is_handed_only_closed_states(campaign, monkeypatch):
    # the count takes TRUE on a free orbit to decide exactly the free
    # orbits below it and FALSE those above it, which holds when no FALSE
    # orbit lies below a free one and no TRUE orbit above one: every state
    # that a schedule hands to a check or a leaf must be closed
    audited = []

    def audit(st):
        _assert_closed(campaign.poset, st)
        audited.append(st)

    for schedule in (campaign.schedule("default"),
                     campaign.schedule("alternate"),
                     _prime_power_schedule(campaign)):
        visit_nodes(campaign.engine(), schedule, audit)
    assert len(audited) == 521 + 517 + 892
    # and so must the replay's, the block-local start states included,
    # which are closed under the order that a check's unions generate
    from elusive14 import replay
    posets = []
    enumerate_cases = SearchEngine.enumerate_cases
    leaf_survivors = SearchEngine.leaf_survivors

    def enumerating(engine, st, check, stats):
        _assert_closed(engine.poset, st)
        posets.append(engine.poset)
        return enumerate_cases(engine, st, check, stats)

    def resolving(engine, st, stats, link_check=True):
        _assert_closed(engine.poset, st)
        posets.append(engine.poset)
        return leaf_survivors(engine, st, stats, link_check)

    monkeypatch.setattr(SearchEngine, "enumerate_cases", enumerating)
    monkeypatch.setattr(SearchEngine, "leaf_survivors", resolving)
    assert replay.replay_case_study(campaign).ok
    steps = len(campaign.case_study["steps"])
    assert sum(p is not campaign.poset for p in posets) == steps
    assert len(posets) == 2 * steps + 1


def test_leaf_resolution_leaves_no_reference_cycle(campaign):
    # a recursive closure holds itself through its cell; one left unbroken
    # keeps its memo until the cycle collector runs
    engine = campaign.engine()
    gc.collect()
    gc.disable()
    try:
        for name in ("default", "alternate"):
            run_search(engine, campaign.schedule(name))
        run_search(engine, campaign.schedule("default"), link_check=False)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_capped_check_leaves_no_reference_cycle(campaign, monkeypatch):
    # the kernel's recursive closure must be broken when a check raises
    # CaseCapExceeded too, not only when it returns
    engine = campaign.engine()
    monkeypatch.setattr(search, "CASE_CAP", 1)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(CaseCapExceeded, match="^G6_11: "):
            engine.enumerate_cases(engine.initial_state(),
                                   campaign.checks["G6_11"], SearchStats())
        assert gc.collect() == 0
    finally:
        gc.enable()
