import random
import warnings
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import act, opposite
from elusive14 import oracle
from elusive14.complexes import TypeAssignment, euler
from elusive14.oracle import (ArityError, BooleanFunction, ConjectureReport,
                              DepthSolver, OrbitKeys, SymmetryScan,
                              decision_tree_depth,
                              enumerate_monotone, euler_of_bitvector,
                              exhaustive_conjecture_check,
                              is_elusive,
                              restriction_lemma_check,
                              sample_invariant_function,
                              _relabelling_classes)
from elusive14.orbits import OrbitPoset, OrbitTable
from elusive14.perm import generate, parse_cycles


def is_monotone_nonincreasing(f):
    """Reference: no false input has a true superset."""
    tab = f.table
    return all(tab[m] or not tab[m | 1 << i]
               for m in range(1 << f.n) for i in range(f.n))


def not_all_ones(n):
    table = bytes(1 if m != (1 << n) - 1 else 0 for m in range(1 << n))
    return BooleanFunction(n, table, monotone=True)


def test_not_all_ones_is_elusive():
    for n in (2, 4, 6):
        f = not_all_ones(n)
        assert decision_tree_depth(f) == n
        assert is_elusive(f)


def test_constant_functions():
    for n in (1, 3, 5):
        zero = BooleanFunction(n, bytes(1 << n), monotone=True)
        one = BooleanFunction(n, bytes([1] * (1 << n)), monotone=True)
        assert decision_tree_depth(zero) == 0
        assert decision_tree_depth(one) == 0
        assert not is_elusive(zero)


def test_dictator():
    # f(x) = 1 iff x1 not in x, two variables
    table = bytes(0 if m & 1 else 1 for m in range(4))
    f = BooleanFunction(2, table, monotone=True)
    assert decision_tree_depth(f) == 1


def decision_tree_depth_plain(f, assigned=0, values=0):
    """Memo-free reference recursion; exponential, for cross-checks only."""
    free = ((1 << f.n) - 1) ^ assigned
    subcube = {f.table[values | s] for s in range(free + 1) if s & ~free == 0}
    if len(subcube) == 1:
        return 0
    return 1 + min(max(decision_tree_depth_plain(f, assigned | b, values),
                       decision_tree_depth_plain(f, assigned | b, values | b))
                   for b in (1 << i for i in range(f.n)) if free & b)


def test_arity_cap():
    with pytest.raises(ArityError):
        DepthSolver(BooleanFunction(15, bytes(1 << 15)))


def test_memoized_vs_plain_on_random_functions():
    rng = random.Random(55)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        bits = rng.getrandbits(1 << n)
        f = BooleanFunction.from_bitvector(n, bits)
        assigned = rng.getrandbits(n)
        values = rng.getrandbits(n) & assigned
        assert DepthSolver(f).depth(assigned, values) == \
            decision_tree_depth_plain(f, assigned, values)
        checked += 1


def _radix3(assigned, values):
    return sum((1 + (values >> i & 1)) * 3 ** i
               for i in range(assigned.bit_length()) if assigned >> i & 1)


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
    # the trivial group's orbit table is not transitive; that is no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle._identity_keys.__wrapped__(5)


def test_monotone_shortcut_agrees_with_subcube_scan():
    rng = random.Random(56)
    monotone4 = enumerate_monotone(4)
    for _ in range(1000):
        bits = rng.choice(monotone4)
        fm = BooleanFunction.from_bitvector(4, bits, monotone=True)
        fs = BooleanFunction.from_bitvector(4, bits, monotone=False)
        assigned = rng.getrandbits(4)
        values = rng.getrandbits(4) & assigned
        assert (DepthSolver(fm)._constant(assigned, values)
                == DepthSolver(fs)._constant(assigned, values))


def test_monotone_flag_spot_check(campaign):
    rng = random.Random(57)
    f = sample_invariant_function(campaign.table, campaign.poset, rng)
    assert f.monotone
    assert is_monotone_nonincreasing(f)


def test_depth_of_opposite_function():
    for n in (2, 3, 4):
        for bits in enumerate_monotone(n):
            f = BooleanFunction.from_bitvector(n, bits, monotone=True)
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
        f = BooleanFunction.from_bitvector(4, bits, monotone=True)
        d = decision_tree_depth(f)
        for v in range(1, 5):
            assert d >= 1 + decision_tree_depth(f.restricted_true(v))
        checked += 1
    assert checked > 0


def test_restricted_true_matches_definition():
    rng = random.Random(58)
    for _ in range(50):
        n = rng.randint(2, 5)
        f = BooleanFunction.from_bitvector(n, rng.getrandbits(1 << n))
        v = rng.randint(1, n)
        g = f.restricted_true(v)
        bit = 1 << (v - 1)
        low = bit - 1
        for m in range(1 << (n - 1)):
            expanded = (m & low) | ((m & ~low) << 1) | bit
            assert g(m) == f(expanded)


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
            f = BooleanFunction.from_bitvector(5, bits, monotone=True)
            assert decision_tree_depth(f) == 5
            found += 1
    assert found > 0


def test_adversary_path_is_a_depth_witness():
    rng = random.Random(59)
    for bits in rng.sample(enumerate_monotone(4), 30):
        f = BooleanFunction.from_bitvector(4, bits, monotone=True)
        solver = DepthSolver(f)
        d = solver.depth()
        path = solver.adversary_path()
        assert len(path) == d
        assert len({v for v, _ in path}) == len(path)


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


def _reference_screen(n, fbits):
    counts = {sum(fbits >> m & 1 for m in range(1 << n) if m >> i & 1)
              for i in range(n)}
    return len(counts) == 1


def _reference_report(n, elusive_of=None):
    rep = ConjectureReport(n=n)
    for fbits in enumerate_monotone(n):
        rep.monotone_functions += 1
        f = BooleanFunction.from_bitvector(n, fbits, monotone=True)
        elusive = (decision_tree_depth(f) == n if elusive_of is None
                   else elusive_of(f))
        if not elusive:
            rep.non_elusive += 1
            if fbits != 0 and euler_of_bitvector(n, fbits) != 1:
                rep.chi_one_failures.append(fbits)
        nontrivial = fbits & 1 and not fbits >> ((1 << n) - 1) & 1
        if nontrivial and _reference_weakly_symmetric(n, fbits):
            rep.weakly_symmetric_nontrivial += 1
            if elusive:
                rep.elusive_verified += 1
            else:
                rep.elusive_failures.append(fbits)
    return rep


def test_sweep_matches_full_scan_and_exact_depth():
    for n in (1, 2, 3, 4):
        scan = SymmetryScan(n)
        for fbits in enumerate_monotone(n):
            f = BooleanFunction.from_bitvector(n, fbits, monotone=True)
            assert is_elusive(f) == (decision_tree_depth(f) == n)
            assert scan(fbits) == _reference_weakly_symmetric(n, fbits)
        assert exhaustive_conjecture_check(n) == _reference_report(n)


def _reference_enumerate_monotone(n):
    """Every down-set, branching on the masks by (size, value), the branch
    without the mask first."""
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
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
    scan = SymmetryScan(n)
    functions = enumerate_monotone(n)
    rep_of = _relabelling_classes(n, functions)

    def facts(fbits):
        f = BooleanFunction.from_bitvector(n, fbits, monotone=True)
        nontrivial = fbits & 1 and not fbits >> ((1 << n) - 1) & 1
        return (is_elusive(f), bool(nontrivial), scan(fbits),
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


def test_symmetry_scan_on_arbitrary_tables():
    # non-monotone tables can pass the screen without being weakly
    # symmetric (true on {x1} and {x2, x3}: each variable in one true
    # input), so here the scan, not the screen, decides
    rng = random.Random(66)
    cases = [(3, bits) for bits in range(1 << 8)]
    cases += [(4, rng.getrandbits(16)) for _ in range(400)]
    monotone4 = enumerate_monotone(4)
    cases += [(4, rng.choice(monotone4) ^ (1 << rng.randrange(16)))
              for _ in range(200)]
    scans = {n: SymmetryScan(n) for n in (3, 4)}
    screened_out_by_scan = 0
    for n, fbits in cases:
        scan = scans[n]
        assert scan.screen(fbits) == _reference_screen(n, fbits)
        symmetric = scan(fbits)
        assert symmetric == _reference_weakly_symmetric(n, fbits)
        if scan.screen(fbits) and not symmetric:
            screened_out_by_scan += 1
    x1_or_x2x3 = 1 << 0b001 | 1 << 0b110
    assert scans[3].screen(x1_or_x2x3) and not scans[3](x1_or_x2x3)
    assert screened_out_by_scan > 10


def test_sweep_report_at_five():
    rep = exhaustive_conjecture_check(5)
    assert (rep.monotone_functions, rep.weakly_symmetric_nontrivial,
            rep.elusive_verified, rep.non_elusive) == (7581, 29, 29, 1467)
    assert rep.elusive_failures == [] and rep.chi_one_failures == []
    assert rep.ok


def test_non_elusive_implies_chi_one_at_n4():
    for bits in enumerate_monotone(4):
        f = BooleanFunction.from_bitvector(4, bits, monotone=True)
        if bits != 0 and decision_tree_depth(f) < 4:
            assert euler_of_bitvector(4, bits) == 1


def test_restriction_lemma_cyclic_six(c6):
    rep = restriction_lemma_check(c6, 50, seed=7)
    assert rep.samples == 50
    assert rep.lemma_applicable > 0
    assert rep.ok
    with pytest.raises(ArityError):
        restriction_lemma_check(generate([parse_cycles("(1,2,3,4,5,6,7,8,9)", 9)]), 1)


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
        fbits = sum(f(m) << m for m in range(64))
        assert euler(a) == euler_of_bitvector(6, fbits)


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
    fs += [BooleanFunction(6, bytes([v]) * 64, monotone=True, group=c6)
           for v in (0, 1)]
    return fs


def _without_group(f):
    # the same table on the trivial group's keys: a run on it differs from
    # one on f only in the memo key
    return BooleanFunction(f.n, f.table, monotone=f.monotone)


def test_group_aware_depth_matches_plain(c6):
    for f in _c6_invariant_functions(c6):
        assert f.group is c6
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


def test_symmetry_reduction_on_every_dihedral_function():
    # every union of dihedral orbits on 6 points, monotone or not: two of
    # these functions are neither constant nor evasive, so the exact
    # fallback runs on orbit keys
    table = OrbitTable(D6)
    non_evasive = 0
    for bits in range(1 << table.orbit_count):
        tab = bytearray(64)
        for o in range(table.orbit_count):
            if bits >> o & 1:
                for m in table.members[o]:
                    tab[m] = 1
        f = BooleanFunction(6, tab, group=D6)
        solver = DepthSolver(f)
        reference = DepthSolver(_without_group(f))
        d = solver.depth()
        assert d == reference.depth()
        assert solver.adversary_path() == reference.adversary_path()
        if 0 < d < 6:
            assert d == decision_tree_depth_plain(f)
            non_evasive += 1
    assert non_evasive == 2
    keys = solver.keys
    # transitive: the six one-variable restrictions share a key per answer
    for answer in (0, 1):
        assert len({keys.key(1 << i, answer << i) for i in range(6)}) == 1
    restrictions = [(a, v) for a in range(64) for v in range(64) if v & ~a == 0]
    assert len({keys.key(a, v) for a, v in restrictions}) < len(restrictions)


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
    tab = bytearray(64)
    tab[0b1] = 1          # true on {x1} but not on {x2}
    with pytest.raises(ValueError):
        DepthSolver(BooleanFunction(6, tab, group=c6))
    with pytest.raises(ValueError):
        DepthSolver(BooleanFunction(5, bytes(32), group=c6))


def test_from_orbit_types_requires_a_downward_closed_set(campaign):
    table, poset = campaign.table, campaign.poset
    t31 = 1 << table.oid("3.1")
    with pytest.raises(ValueError, match="3.1"):
        BooleanFunction.from_orbit_types(table, t31)
    f = BooleanFunction.from_orbit_types(table, poset.lower[table.oid("3.1")])
    assert f.monotone and is_monotone_nonincreasing(f)
    assert BooleanFunction.from_orbit_types(table, 0).table[:2] == bytes([1, 0])


def test_group_follows_the_function(c6):
    table = OrbitTable(c6)
    f = sample_invariant_function(table, OrbitPoset(table), random.Random(64))
    assert f.group is c6
    assert opposite(f).group is c6
    assert f.restricted_true(1).group is None
    assert BooleanFunction.from_bitvector(2, 0b0111).group is None


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
