import json
import random
from collections import Counter
from functools import cache
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import act, down_sets, opposite, restricted_true
from elusive14 import oracle
from elusive14.complexes import TypeAssignment
from elusive14.oracle import (ArityError, BooleanFunction, ConjectureReport,
                              DepthSolver, OrbitKeys,
                              decision_tree_depth,
                              enumerate_monotone, euler_of_bitvector,
                              exhaustive_conjecture_check,
                              is_elusive,
                              sample_invariant_function,
                              _relabellers, _relabelling_classes,
                              _trivial_table)
from elusive14.orbits import OrbitPoset, OrbitTable
from elusive14.perm import closure, generate, parse_cycles


def is_monotone_nonincreasing(n, tab):
    """Reference: no false input has a true superset."""
    return all(tab[m] or not tab[m | 1 << i]
               for m in range(1 << n) for i in range(n))


def not_all_ones(n):
    table = bytes(1 if m != (1 << n) - 1 else 0 for m in range(1 << n))
    return BooleanFunction(n, table)


def test_not_all_ones_is_elusive():
    for n in (2, 4, 6):
        f = not_all_ones(n)
        assert decision_tree_depth(f) == n
        assert is_elusive(f)


def test_constant_functions():
    for n in (1, 3, 5):
        zero = BooleanFunction(n, bytes(1 << n))
        one = BooleanFunction(n, bytes([1] * (1 << n)))
        assert decision_tree_depth(zero) == 0
        assert decision_tree_depth(one) == 0
        assert not is_elusive(zero)


def test_dictator():
    # f(x) = 1 iff x1 not in x, two variables
    table = bytes(0 if m & 1 else 1 for m in range(4))
    f = BooleanFunction(2, table)
    assert decision_tree_depth(f) == 1


def decision_tree_depth_plain(f, assigned=0, values=0):
    """Reference recursion: the minimax definition, constancy by a scan of
    the subcube, memoized on the (assigned, values) pair itself."""
    @cache
    def depth(assigned, values):
        free = ((1 << f.n) - 1) ^ assigned
        if len({f.table[values | s] for s in range(free + 1)
                if s & ~free == 0}) == 1:
            return 0
        return 1 + min(max(depth(assigned | b, values),
                           depth(assigned | b, values | b))
                       for b in (1 << i for i in range(f.n)) if free & b)

    return depth(assigned, values)


def test_arity_cap():
    # the constructor refuses the arity before it builds the trivial table
    # of 2^15 masks, and a refused function leaves no table cached
    before = _trivial_table.cache_info().currsize
    with pytest.raises(ArityError, match="arity 15 exceeds the 14 limit"):
        BooleanFunction(15, bytes(1 << 15))
    assert _trivial_table.cache_info().currsize == before


_monotone = cache(enumerate_monotone)


def _random_monotone(rng, n):
    """A random monotone function of arity n: a down-set, or with even odds
    its opposite, an up-set."""
    f = BooleanFunction.from_bitvector(n, rng.choice(_monotone(n)))
    return opposite(f) if rng.getrandbits(1) else f


def test_memoized_vs_plain_on_random_functions():
    rng = random.Random(55)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        f = _random_monotone(rng, n)
        assigned = rng.getrandbits(n)
        values = rng.getrandbits(n) & assigned
        assert DepthSolver(f).depth(assigned, values) == \
            decision_tree_depth_plain(f, assigned, values)
        checked += 1


def _radix3(assigned, values):
    return sum((1 + (values >> i & 1)) * 3 ** i
               for i in range(assigned.bit_length()) if assigned >> i & 1)


def _free_count(key, n):
    """The number of free variables of the restrictions with memo key
    ``key``: its zero radix-3 digits."""
    return sum(key // 3 ** i % 3 == 0 for i in range(n))


def _filled_keys(solver):
    return [k for k, r in enumerate(solver.memo) if r != oracle.UNFILLED]


def test_trivial_keys_are_the_radix3_index():
    for n in range(1, 7):
        keys = DepthSolver(BooleanFunction(n, bytes(1 << n))).keys
        assert keys.least == list(range(1 << n))
        for assigned in range(1 << n):
            values = assigned
            while True:
                assert keys.key(assigned, values) == _radix3(assigned, values)
                if values == 0:
                    break
                values = (values - 1) & assigned
    # built once per arity and shared by every group-less solver
    assert (DepthSolver(BooleanFunction.from_bitvector(4, 0b0111)).keys
            is DepthSolver(not_all_ones(4)).keys)


def test_monotone_shortcut_agrees_with_subcube_scan():
    rng = random.Random(56)
    monotone4 = enumerate_monotone(4)
    for _ in range(1000):
        f = BooleanFunction.from_bitvector(4, rng.choice(monotone4))
        assigned = rng.getrandbits(4)
        values = rng.getrandbits(4) & assigned
        # the solver tests constancy by two completions, the reference by
        # the subcube scan, at every restriction it visits
        assert (DepthSolver(f).depth(assigned, values)
                == decision_tree_depth_plain(f, assigned, values))


def test_the_rule_settles_every_restriction_with_two_free_variables():
    # every restriction with at most two free variables of every monotone
    # function of arity 0-4 and of its opposite: 25362 in all, each read
    # from the table with no memo entry
    checked = 0
    for n in range(5):
        restrictions = [(a, v) for a in range(1 << n)
                        if n - a.bit_count() <= 2
                        for v in range(1 << n) if v & ~a == 0]
        for fbits in enumerate_monotone(n):
            down = BooleanFunction.from_bitvector(n, fbits)
            for f in (down, opposite(down)):
                solver = DepthSolver(f)
                for a, v in restrictions:
                    assert solver.depth(a, v) == \
                        decision_tree_depth_plain(f, a, v), (n, f.table, a, v)
                assert _filled_keys(solver) == []
                assert solver.evasive() == (decision_tree_depth_plain(f) == n)
                checked += len(restrictions)
    assert checked == 25362


def test_monotone_flag_spot_check(campaign):
    # a sampled G6 function is a down-set on G6's own table
    rng = random.Random(57)
    f = sample_invariant_function(campaign.table, campaign.poset, rng)
    assert f.orbits is campaign.table
    assert is_monotone_nonincreasing(f.n, f.table)


def test_the_constructor_accepts_exactly_the_monotone_tables():
    # random tables, and monotone ones with one value flipped, are mostly
    # rejected; the monotone ones and their opposites are accepted
    rng = random.Random(67)
    accepted = rejected = 0
    for _ in range(600):
        n = rng.randint(0, 5)
        flip = 1 << rng.randrange(1 << n)
        bits = rng.choice([rng.getrandbits(1 << n), rng.choice(_monotone(n)),
                           rng.choice(_monotone(n)) ^ flip])
        tab = bytes(bits >> m & 1 for m in range(1 << n))
        for t in (tab, bytes(1 - v for v in tab)):
            if (is_monotone_nonincreasing(n, t)
                    or is_monotone_nonincreasing(n, bytes(1 - v for v in t))):
                assert BooleanFunction(n, t).table == t
                accepted += 1
            else:
                with pytest.raises(ValueError, match="not monotone"):
                    BooleanFunction(n, t)
                rejected += 1
    assert accepted > 600 and rejected > 300
    with pytest.raises(ValueError, match="0 or 1"):
        BooleanFunction(1, bytes([2, 0]))


def test_depth_of_opposite_function():
    for n in (2, 3, 4):
        for bits in enumerate_monotone(n):
            f = BooleanFunction.from_bitvector(n, bits)
            assert decision_tree_depth(f) == decision_tree_depth(opposite(f))


def test_subtree_bound_for_invariant_functions():
    # D(f) >= 1 + D(f with one variable answered 1) for non-constant f
    # invariant under a transitive group (root relabeling argument)
    rot = [(i + 1) % 4 for i in range(4)]
    act = [0] * 16
    for m in range(1, 16):
        low = m & -m
        act[m] = act[m ^ low] | 1 << rot[low.bit_length() - 1]
    checked = 0
    for bits in enumerate_monotone(4):
        if bits in (0, (1 << 16) - 1):
            continue
        if not all(bits >> act[m] & 1 == bits >> m & 1 for m in range(16)):
            continue
        f = BooleanFunction.from_bitvector(4, bits)
        d = decision_tree_depth(f)
        for v in range(1, 5):
            assert d >= 1 + decision_tree_depth(restricted_true(f, v))
        checked += 1
    assert checked > 0


def test_restricted_true_matches_definition():
    rng = random.Random(58)
    for _ in range(50):
        n = rng.randint(2, 5)
        f = _random_monotone(rng, n)
        v = rng.randint(1, n)
        g = restricted_true(f, v)
        bit = 1 << (v - 1)
        low = bit - 1
        for m in range(1 << (n - 1)):
            expanded = (m & low) | ((m & ~low) << 1) | bit
            assert g.table[m] == f.table[expanded]


def test_cyclic_invariant_five_variables_all_elusive():
    # exhaustive: every nontrivial monotone function invariant under the
    # 5-cycle has full depth (prime arity)
    rot = [(i + 1) % 5 for i in range(5)]
    act = [0] * 32
    for m in range(1, 32):
        low = m & -m
        act[m] = act[m ^ low] | 1 << rot[low.bit_length() - 1]
    found = 0
    for bits in enumerate_monotone(5):
        if not (bits & 1) or bits >> 31 & 1:
            continue
        if all(bits >> act[m] & 1 == bits >> m & 1 for m in range(32)):
            f = BooleanFunction.from_bitvector(5, bits)
            assert decision_tree_depth(f) == 5
            found += 1
    assert found > 0


def test_adversary_path_is_a_depth_witness():
    rng = random.Random(59)
    for bits in rng.sample(enumerate_monotone(4), 30):
        f = BooleanFunction.from_bitvector(4, bits)
        solver = DepthSolver(f)
        d = solver.depth()
        path = solver.adversary_path()
        assert len(path) == d
        assert len({v for v, _ in path}) == len(path)


def _reference_adversary_path(f):
    """The play by exact depths alone: at each restriction the least
    variable v with 1 + max(d0, d1) equal to its depth, answered 1 when
    d1 >= d0."""
    solver = DepthSolver(f)
    path = []
    assigned = values = 0
    target = solver.depth()
    while target:
        for v in range(1, f.n + 1):
            b = 1 << (v - 1)
            if assigned & b:
                continue
            d0 = solver.depth(assigned | b, values)
            d1 = solver.depth(assigned | b, values | b)
            if 1 + max(d0, d1) == target:
                break
        answer = int(d1 >= d0)
        path.append((v, answer))
        assigned |= b
        values |= b * answer
        target -= 1
    return path


def test_adversary_path_follows_the_exact_depth_play():
    # the path takes a shortcut from every evasive restriction it reaches;
    # the reference plays every step by exact depths, on functions that are
    # evasive, constant, and non-evasive with evasive restrictions below
    fs = [g for n in range(1, 5) for bits in enumerate_monotone(n)
          for f in [BooleanFunction.from_bitvector(n, bits)]
          for g in (f, opposite(f))]
    table = OrbitTable(generate([parse_cycles("(1,2,3)(4,5,6)", 6)]))
    c3 = [BooleanFunction.from_orbit_types(table, t) for t in down_sets(table)]
    assert len(c3) == 561
    non_evasive = 0
    for f in fs + c3:
        path = DepthSolver(f).adversary_path()
        assert path == _reference_adversary_path(f)
        non_evasive += f.orbits is table and 0 < len(path) < 6
    assert non_evasive == 72


def test_conjecture_check_small():
    rep2 = exhaustive_conjecture_check(2)
    assert rep2.monotone_functions == 6
    assert rep2.weakly_symmetric_nontrivial == 2
    assert rep2.ok
    rep4 = exhaustive_conjecture_check(4)
    assert rep4.monotone_functions == 168
    assert rep4.ok
    with pytest.raises(ArityError):
        exhaustive_conjecture_check(6)


def _reference_weakly_symmetric(n, fbits):
    # every permutation, no screen, no early stop
    def image(p, m):
        return sum(1 << p[i] for i in range(n) if m >> i & 1)
    reached = {p[0] for p in permutations(range(n))
               if all(fbits >> image(p, m) & 1 == fbits >> m & 1
                      for m in range(1 << n))}
    return len(reached) == n


def _weakly_symmetric(n, fbits, size=None):
    """The sweep's orbit-stabilizer test on any truth table: n divides
    |Aut(f)| = n! / |class|, and the relabellings that fix x1 reach the
    whole class, of ``size`` members if given."""
    size = size or len(closure((fbits,), _relabellers(n)))
    return (factorial(n - 1) % size == 0
            and len(closure((fbits,), _relabellers(n, first=1))) == size)


def _nontrivial(n, fbits):
    return fbits & 1 and not fbits >> ((1 << n) - 1) & 1


def _reference_report(n, elusive_of=None):
    counts = dict.fromkeys(("monotone_functions", "weakly_symmetric_nontrivial",
                            "elusive_verified", "non_elusive"), 0)
    elusive_failures, chi_one_failures = [], []
    for fbits in enumerate_monotone(n):
        counts["monotone_functions"] += 1
        f = BooleanFunction.from_bitvector(n, fbits)
        elusive = (decision_tree_depth(f) == n if elusive_of is None
                   else elusive_of(f))
        if not elusive:
            counts["non_elusive"] += 1
            if fbits != 0 and euler_of_bitvector(n, fbits) != 1:
                chi_one_failures.append(fbits)
        if _nontrivial(n, fbits) and _reference_weakly_symmetric(n, fbits):
            counts["weakly_symmetric_nontrivial"] += 1
            if elusive:
                counts["elusive_verified"] += 1
            else:
                elusive_failures.append(fbits)
    return ConjectureReport(n=n, elusive_failures=elusive_failures,
                            chi_one_failures=chi_one_failures, **counts)


def test_sweep_matches_full_scan_and_exact_depth():
    for n in (1, 2, 3, 4):
        for fbits in enumerate_monotone(n):
            f = BooleanFunction.from_bitvector(n, fbits)
            assert is_elusive(f) == (decision_tree_depth(f) == n)
            assert (_weakly_symmetric(n, fbits)
                    == _reference_weakly_symmetric(n, fbits))
        assert exhaustive_conjecture_check(n) == _reference_report(n)


def _reference_enumerate_monotone(n):
    """Every down-set, branching on the masks in increasing order, the
    branch without the mask first; a mask's submasks are smaller, so they
    are decided before it."""
    masks = range(1 << n)
    subs = [[m ^ (1 << i) for i in range(n) if m >> i & 1]
            for m in range(1 << n)]
    out = []

    def rec(pos, fbits):
        if pos == len(masks):
            out.append(fbits)
            return
        m = masks[pos]
        rec(pos + 1, fbits)
        if all(fbits >> s & 1 for s in subs[m]):
            rec(pos + 1, fbits | (1 << m))

    rec(0, 0)
    return out


def test_enumeration_matches_the_recursive_reference():
    for n in range(6):
        assert enumerate_monotone(n) == _reference_enumerate_monotone(n)


def _relabelled(n, p, fbits):
    return sum(1 << sum(1 << p[i] for i in range(n) if m >> i & 1)
               for m in range(1 << n) if fbits >> m & 1)


def test_relabelling_classes():
    counts = []
    for n in range(1, 6):
        functions = enumerate_monotone(n)
        rep_of = _relabelling_classes(n, functions)
        # a partition of the functions, each class named by its first member
        assert sorted(rep_of) == sorted(functions)
        first = {}
        for fbits in functions:
            first.setdefault(rep_of[fbits], fbits)
        assert all(rep == f for rep, f in first.items())
        counts.append(len(first))
        if n <= 4:
            # each class is one orbit under all n! relabellings
            for rep in first:
                assert {f for f in functions if rep_of[f] == rep} == {
                    _relabelled(n, p, rep) for p in permutations(range(n))}
    # OEIS A003182
    assert counts == [3, 5, 10, 30, 210]


def test_every_function_agrees_with_its_class_representative():
    n = 5
    functions = enumerate_monotone(n)
    rep_of = _relabelling_classes(n, functions)
    sizes = Counter(rep_of.values())

    def facts(fbits):
        f = BooleanFunction.from_bitvector(n, fbits)
        symmetric = _weakly_symmetric(n, fbits, sizes[rep_of[fbits]])
        return (is_elusive(f), bool(_nontrivial(n, fbits)), symmetric,
                euler_of_bitvector(n, fbits))

    decided = {rep: facts(rep) for rep in set(rep_of.values())}
    assert len(decided) == 210
    for fbits in functions:
        assert facts(fbits) == decided[rep_of[fbits]]


def test_failing_classes_list_every_member(monkeypatch):
    # relabelling-invariant: non-elusive iff 7 inputs are true.  At n = 4
    # that fails one weakly symmetric class of three members and several
    # classes with Euler characteristic other than 1
    def elusive_of(f):
        return sum(f.table) != 7

    monkeypatch.setattr(oracle, "is_elusive", elusive_of)
    rep = exhaustive_conjecture_check(4)
    assert rep == _reference_report(4, elusive_of)
    assert len(rep.elusive_failures) == 3
    assert len(rep.chi_one_failures) == 19
    order = enumerate_monotone(4)
    for failures in (rep.elusive_failures, rep.chi_one_failures):
        assert failures == sorted(failures, key=order.index)


def test_sweep_weak_symmetry_at_five_matches_the_reference(monkeypatch):
    # with every function non-elusive, the sweep's elusive failures are
    # the members of the classes it finds nontrivial and weakly symmetric
    n = 5
    monkeypatch.setattr(oracle, "is_elusive", lambda f: False)
    failures = exhaustive_conjecture_check(n).elusive_failures
    functions = enumerate_monotone(n)
    rep_of = _relabelling_classes(n, functions)
    reps = set(rep_of.values())
    assert len(reps) == 210
    symmetric = {rep for rep in reps if _nontrivial(n, rep)
                 and _reference_weakly_symmetric(n, rep)}
    assert failures == [f for f in functions if rep_of[f] in symmetric]
    assert len(failures) == 29


def test_the_closure_not_the_divisibility_decides(monkeypatch):
    # the down-set generated by {x1, x2, x3} and {x1, x2, x4}: Aut(f) is
    # <(12), (34)>, so its class of 6 divides 3!, yet x1 reaches only x2
    # and the relabellings that fix x1 reach 3 of the 6
    n = 4
    fbits = sum(1 << m for m in range(1 << n)
                if m | 0b0111 == 0b0111 or m | 0b1011 == 0b1011)
    members = closure((fbits,), _relabellers(n))
    assert len(members) == 6 and factorial(n - 1) % 6 == 0
    assert len(closure((fbits,), _relabellers(n, first=1))) == 3
    assert _nontrivial(n, fbits)
    assert not _reference_weakly_symmetric(n, fbits)
    assert not _weakly_symmetric(n, fbits)
    # a weakly symmetric class that is not elusive would be listed
    tables = {BooleanFunction.from_bitvector(n, f).table for f in members}
    monkeypatch.setattr(oracle, "is_elusive", lambda f: f.table not in tables)
    assert exhaustive_conjecture_check(n).elusive_failures == []


def test_orbit_stabilizer_on_arbitrary_tables():
    # non-monotone tables too: the orbit-stabilizer test holds for any
    # truth table, and a class size that divides (n-1)! does not decide
    rng = random.Random(66)
    cases = [(3, bits) for bits in range(1 << 8)]
    cases += [(4, rng.getrandbits(16)) for _ in range(400)]
    monotone4 = enumerate_monotone(4)
    cases += [(4, rng.choice(monotone4) ^ (1 << rng.randrange(16)))
              for _ in range(200)]
    divisible_not_symmetric = 0
    for n, fbits in cases:
        size = len(closure((fbits,), _relabellers(n)))
        symmetric = _weakly_symmetric(n, fbits, size)
        assert symmetric == _reference_weakly_symmetric(n, fbits)
        if factorial(n - 1) % size == 0 and not symmetric:
            divisible_not_symmetric += 1
    x1_or_x2x3 = 1 << 0b001 | 1 << 0b110
    assert not _weakly_symmetric(3, x1_or_x2x3)
    assert divisible_not_symmetric > 10


def test_sweep_report_at_five():
    rep = exhaustive_conjecture_check(5)
    assert (rep.monotone_functions, rep.weakly_symmetric_nontrivial,
            rep.elusive_verified, rep.non_elusive) == (7581, 29, 29, 1467)
    assert rep.elusive_failures == [] and rep.chi_one_failures == []
    assert rep.ok


def test_non_elusive_implies_chi_one_at_n4():
    for bits in enumerate_monotone(4):
        f = BooleanFunction.from_bitvector(4, bits)
        if bits != 0 and decision_tree_depth(f) < 4:
            assert euler_of_bitvector(4, bits) == 1


def test_restriction_lemma_cyclic_six(c6):
    # for invariant functions of a transitive group: one elusive
    # one-variable restriction forces full depth (the lemma) and makes every
    # one-variable restriction elusive (the remark)
    table = OrbitTable(c6)
    poset = OrbitPoset(table)
    rng = random.Random(7)
    applicable = 0
    for _ in range(50):
        f = sample_invariant_function(table, poset, rng,
                                      seed_orbits=rng.randint(1, 4))
        elusive_links = [decision_tree_depth(restricted_true(f, v)) == 5
                         for v in range(1, 7)]
        if any(elusive_links):
            applicable += 1
            assert all(elusive_links)
            assert decision_tree_depth(f) == 6
    assert applicable > 0


def test_euler_agrees_with_complex_module(c6):
    table = OrbitTable(c6)
    poset = OrbitPoset(table)
    rng = random.Random(60)
    for _ in range(25):
        t_bits = 0
        for o in rng.sample(range(1, table.orbit_count - 1), 2):
            t_bits |= poset.lower[o]
        f_bits = 0
        for o in range(1, table.orbit_count):
            if not t_bits >> o & 1:
                f_bits |= 1 << o
        a = TypeAssignment(table, poset, t_bits, f_bits)
        f = BooleanFunction.from_orbit_types(table, t_bits)
        fbits = sum(f.table[m] << m for m in range(64))
        assert a.chi == euler_of_bitvector(6, fbits)


def test_sampled_invariant_functions_full_depth_small(c6):
    table = OrbitTable(c6)
    poset = OrbitPoset(table)
    rng = random.Random(61)
    for _ in range(10):
        f = sample_invariant_function(table, poset, rng, seed_orbits=2)
        # weak symmetry at degree 6 with nontrivial monotone f
        assert decision_tree_depth(f) == 6


def _c6_invariant_functions(c6):
    table = OrbitTable(c6)
    poset = OrbitPoset(table)
    rng = random.Random(62)
    fs = [sample_invariant_function(table, poset, rng,
                                    seed_orbits=rng.randint(1, 4))
          for _ in range(8)]
    fs += [opposite(f) for f in fs]
    fs += [BooleanFunction(6, bytes([v]) * 64, table) for v in (0, 1)]
    return fs


def _without_group(f):
    # the same table on the trivial group's keys: a run on it differs from
    # one on f only in the memo key
    return BooleanFunction(f.n, f.table)


def test_group_aware_depth_matches_plain(c6):
    for f in _c6_invariant_functions(c6):
        assert f.orbits.group is c6
        d = decision_tree_depth_plain(f)
        assert DepthSolver(f).depth() == d
        # the decision pass alone, with no minimax to fall back on
        assert DepthSolver(f).evasive() == (d == 6)


def test_group_aware_adversary_path(c6):
    elusive = 0
    for f in _c6_invariant_functions(c6):
        solver = DepthSolver(f)
        d = solver.depth()
        path = solver.adversary_path()
        assert len(path) == d
        assert len({v for v, _ in path}) == d
        if d == f.n:
            elusive += 1
            assert path == DepthSolver(_without_group(f)).adversary_path()
    assert elusive == 16


D6 = generate([parse_cycles("(1,2,3,4,5,6)", 6),
               parse_cycles("(2,6)(3,5)", 6)])
C6 = generate([parse_cycles("(1,2,3,4,5,6)", 6)])


def _agrees_with_trivial_keys(f):
    """The solver's depth, after checking it and the adversary path
    against a solver on the same table with the trivial group's keys."""
    solver, reference = DepthSolver(f), DepthSolver(_without_group(f))
    d = solver.depth()
    assert d == reference.depth()
    assert solver.adversary_path() == reference.adversary_path()
    return d


def test_symmetry_reduction_on_every_dihedral_function():
    # every monotone union of dihedral orbits on 6 points: the down-sets
    # and their opposites, each constant or evasive
    table = OrbitTable(D6)
    fs = [BooleanFunction.from_orbit_types(table, t_bits)
          for t_bits in down_sets(table)]
    fs += [opposite(f) for f in fs]
    assert len({f.table for f in fs}) == 70
    assert {_agrees_with_trivial_keys(f) for f in fs} == {0, 6}
    keys = DepthSolver(fs[0]).keys
    # transitive: the six one-variable restrictions share a key per answer
    for answer in (0, 1):
        assert len({keys.key(1 << i, answer << i) for i in range(6)}) == 1
    restrictions = [(a, v) for a in range(64) for v in range(64) if v & ~a == 0]
    assert len({keys.key(a, v) for a, v in restrictions}) < len(restrictions)


def test_exact_fallback_on_the_orbit_keys_of_an_intransitive_group():
    # no nonconstant monotone D6 function is non-evasive, but 72 of the
    # down-sets of <(1,2,3)(4,5,6)> are, so the exact minimax runs on
    # orbit keys
    table = OrbitTable(generate([parse_cycles("(1,2,3)(4,5,6)", 6)]))
    non_evasive = 0
    for t_bits in down_sets(table):
        f = BooleanFunction.from_orbit_types(table, t_bits)
        d = _agrees_with_trivial_keys(f)
        if 0 < d < 6:
            assert d == decision_tree_depth_plain(f)
            non_evasive += 1
    assert non_evasive == 72


def _brute_orbit(group, assigned, values):
    return {(act(g, assigned), act(g, values)) for g in group.elements}


@st.composite
def _restrictions(draw):
    group = draw(st.sampled_from([C6, D6]))
    assigned = draw(st.integers(0, 63))
    return group, assigned, draw(st.integers(0, 63)) & assigned


@settings(max_examples=60, deadline=None)
@given(_restrictions())
def test_orbit_keys_against_brute_force_orbits(case):
    group, assigned, values = case
    keys = OrbitKeys(OrbitTable(group))
    least = min(act(g, assigned) for g in group.elements)
    assert keys.least[assigned] == least
    # the row's element carries the assigned mask itself to the least one
    assert keys.key(assigned, assigned) == 2 * _radix3(least, 0)
    # equal keys: some g carries one restriction onto the other
    orbit = _brute_orbit(group, assigned, values)
    key = keys.key(assigned, values)
    for a in range(64):
        for v in range(64):
            if v & ~a == 0 and keys.key(a, v) == key:
                assert (a, v) in orbit


def test_group_must_leave_the_table_invariant(c6):
    table = OrbitTable(c6)
    tab = bytearray(64)
    tab[0] = tab[0b1] = 1  # the down-set {{}, {x1}}: {x2} is false
    with pytest.raises(ValueError, match="not invariant"):
        DepthSolver(BooleanFunction(6, tab, table))
    with pytest.raises(ValueError, match="does not match arity"):
        BooleanFunction(5, bytes(32), table)


def test_from_orbit_types_requires_a_downward_closed_set(campaign):
    table, poset = campaign.table, campaign.poset
    t31 = 1 << table.oid("3.1")
    with pytest.raises(ValueError, match="not monotone"):
        BooleanFunction.from_orbit_types(table, t31)
    f = BooleanFunction.from_orbit_types(table, poset.lower[table.oid("3.1")])
    assert f.orbits is table and is_monotone_nonincreasing(f.n, f.table)
    assert BooleanFunction.from_orbit_types(table, 0).table[:2] == bytes([1, 0])


def test_group_follows_the_function(c6):
    table = OrbitTable(c6)
    f = sample_invariant_function(table, OrbitPoset(table), random.Random(64))
    assert f.orbits is table
    assert opposite(f).orbits is table
    # a function given without a table gets its arity's trivial one, shared
    trivial = restricted_true(f, 1).orbits
    assert trivial.group.order == 1 and trivial.orbit_count == 32
    assert BooleanFunction.from_bitvector(5, 1).orbits is trivial
    assert BooleanFunction.from_bitvector(2, 0b0111).orbits.n == 2


def test_g6_orbit_keys_map_to_least_masks(campaign):
    f = sample_invariant_function(campaign.table, campaign.poset,
                                  random.Random(65))
    keys = DepthSolver(f).keys
    table = campaign.table
    for a in range(1 << 14):
        least = table.min_mask[table.orbit_of(a)]
        assert keys.least[a] == least
        assert keys.key(a, 0) == _radix3(least, 0)
        assert keys.key(a, a) == 2 * keys.key(a, 0)
    # transitive: the fourteen one-variable restrictions share one key
    assert len({keys.key(1 << i, 0) for i in range(14)}) == 1


def test_g6_orbit_keys_share_one_row_per_element(campaign):
    # each mask's row is its element's pair of chunk tables, so the 16384
    # masks reference at most |G| = 168 row objects
    keys = OrbitKeys(campaign.table)
    assert len({id(row) for row in keys.rows}) <= campaign.groups["G6"].order
    assert campaign.groups["G6"].order == 168


# the memo entries a dtree input's depth fills: equal keys give equal counts
@pytest.mark.parametrize("name, filled", [
    ("g6_closure_1", 8304), ("g6_closure_2", 18679),
    ("g6_survivor_1", 5607), ("g6_survivor_2", 13458)])
def test_dtree_inputs_fill_pinned_memo_entries(campaign, name, filled):
    path = Path(__file__).parent / "data" / f"{name}.json"
    states = {e["orbit"]: e["state"]
              for e in json.loads(path.read_text(encoding="utf-8"))}
    assignment = TypeAssignment.from_states(campaign.table, campaign.poset,
                                            states)
    solver = DepthSolver(BooleanFunction.from_orbit_types(
        campaign.table, assignment.t_bits))
    assert solver.depth() == 14
    assert len(solver.memo) - solver.memo.count(oracle.UNFILLED) == filled
    # the rule settles every restriction with at most two free variables
    assert all(_free_count(k, 14) >= 3 for k in _filled_keys(solver))


def test_degree_14_memos_span_the_keys_with_three_free_variables(campaign):
    # a restriction's key is at most twice the radix-3 index of its least
    # assigned mask, and only restrictions with three or more free
    # variables get one: the least masks of at most 11 points bound it
    def memo_size(table):
        return len(DepthSolver(BooleanFunction(14, bytes(1 << 14),
                                               table)).memo)

    def span(table):
        return 2 * max(_radix3(m, 0) for m in table.min_mask
                       if m.bit_count() <= 11) + 1

    for table, size in [
            (OrbitTable(campaign.groups["G1"]), 1_554_795),
            (OrbitTable(campaign.groups["G4"]), 1_554_471),
            (OrbitTable(campaign.groups["G5"]), 413_343),
            (OrbitTable(campaign.subgroups["G6_3"]), 4_782_463),
            (_trivial_table(14), 4_782_943)]:
        assert memo_size(table) == span(table) == size, table.group
    f = sample_invariant_function(campaign.table, campaign.poset,
                                  random.Random(68))
    assert len(DepthSolver(f).memo) == span(campaign.table) == 531_435


# intransitive on 9 points, moving the last one
_C3_C2 = generate([parse_cycles("(1,2,3)(7,8,9)", 9),
                   parse_cycles("(4,5)", 9)])


def _settled_keys_written(solver):
    """The memo entries written for restrictions with at most two free
    variables: their keys are theirs alone, the keys with at most two zero
    radix-3 digits."""
    return [k for k in _filled_keys(solver) if _free_count(k, solver.n) < 3]


def test_the_memo_ends_where_the_keys_with_a_free_variable_end(c6):
    rng = random.Random(69)
    tables = [OrbitTable(c6), OrbitTable(_C3_C2)]
    tables += [_trivial_table(n) for n in range(1, 7)]
    for table in tables:
        n = table.n
        full = (1 << n) - 1
        keys = OrbitKeys(table)
        top = max((keys.key(a, v) for a in range(full) for v in range(a + 1)
                   if v & ~a == 0 and n - a.bit_count() >= 3), default=0)
        # every key of a restriction with three or more free variables is
        # in the memo, and the last entry is used
        assert top == keys.span - 1, table.group
        poset = OrbitPoset(table)
        fs = [sample_invariant_function(table, poset, rng,
                                        seed_orbits=rng.randint(1, 3))
              for _ in range(6)]
        fs += [opposite(f) for f in fs]
        for f in fs:
            solver = DepthSolver(f)
            assert len(solver.memo) == keys.span
            solver.depth()
            solver.adversary_path()
            assert _settled_keys_written(solver) == []
    for _ in range(40):
        solver = DepthSolver(_random_monotone(rng, rng.randint(1, 5)))
        assert solver.evasive() == (solver.depth() == solver.n)
        solver.adversary_path()
        assert _settled_keys_written(solver) == []


def test_arity_zero_and_one():
    for value in (0, 1):
        solver = DepthSolver(BooleanFunction(0, bytes([value])))
        # no variable: constant, and evasive, at depth 0 = n
        assert solver.depth() == 0 and solver.evasive()
        assert solver.adversary_path() == []
        constant = DepthSolver(BooleanFunction(1, bytes([value]) * 2))
        assert constant.depth() == 0 and not constant.evasive()
        assert constant.adversary_path() == []
        assert constant.depth(1, value) == 0
        # the dictator and its opposite: one query, whose children are
        # fully assigned and answered toward the 1-child on a tie
        dictator = DepthSolver(BooleanFunction(1, bytes([value, 1 - value])))
        assert dictator.depth() == 1 and dictator.evasive()
        assert dictator.adversary_path() == [(1, 1)]
        assert dictator.depth(1, 0) == dictator.depth(1, 1) == 0


def test_a_fully_assigned_restriction_has_depth_zero():
    rng = random.Random(70)
    for n in range(1, 6):
        f = _random_monotone(rng, n)
        solver = DepthSolver(f)
        full = (1 << n) - 1
        assert all(solver.depth(full, v) == 0 for v in range(full + 1))
        assert _settled_keys_written(solver) == []
