"""The count kernel against numbers it did not make.

``SearchEngine._count`` decides every case the verdict rests on, and the
other kernel tests hold it to ``conftest.completions``, a walk over the
same ``OrbitPoset``.  A wrong poset would fool both the same way.  These
tests hold it to numbers from code that shares nothing with the poset:
the Dedekind numbers, written here as published (OEIS A000372), and the
oracle's doubling enumerator ``enumerate_monotone`` with the oracle's own
``euler_of_bitvector``.

On ``OrbitTable.of_identity(n)`` each orbit is one mask, and orbit ids
sort by level, so an orbit's mask is ``table.min_mask[o]``.  A labelling
of its orbits with the full set FALSE is then a nonconstant monotone
non-increasing function: a truth-table bitvector whose true inputs are the
TRUE masks and the empty set.
"""

import random
from functools import cache

import pytest

from conftest import act
from elusive14 import search
from elusive14.complexes import TypeAssignment
from elusive14.oracle import enumerate_monotone, euler_of_bitvector
from elusive14.orbits import OrbitPoset, OrbitTable, iter_bits
from elusive14.perm import generate, parse_cycles
from elusive14.search import SearchEngine, SearchStats

# Dedekind(n) for n = 1..6, the monotone functions of n variables (Church
# 1940 for n = 5, Ward 1946 for n = 6), less the two constants
DEDEKIND_LESS_CONSTANTS = {1: 1, 2: 4, 3: 18, 4: 166, 5: 7579, 6: 7828352}


def _identity_engine(n: int) -> SearchEngine:
    table = OrbitTable.of_identity(n)
    return SearchEngine(table, OrbitPoset(table))


def _bitvector(table, t_bits: int) -> int:
    """The truth table of a labelling of the trivial group's orbits: its
    TRUE masks and the empty set."""
    return 1 | sum(1 << table.min_mask[o] for o in iter_bits(t_bits))


@cache
def _monotone_census(n: int) -> dict[int, tuple[int, int]]:
    """Each nonconstant function of ``enumerate_monotone(n)``, as its
    bitvector, to its chi and its link chi at x1, both read from the
    bitvector: a true input m that contains x1, other than {x1} itself,
    is the link face m - {x1}, of sign (-1)^|m|."""
    everything = (1 << (1 << n)) - 1
    return {bits: (euler_of_bitvector(n, bits),
                   sum((-1) ** m.bit_count() for m in range(3, 1 << n, 2)
                       if bits >> m & 1))
            for bits in enumerate_monotone(n) if bits not in (0, everything)}


@pytest.mark.parametrize("n", sorted(DEDEKIND_LESS_CONSTANTS))
def test_the_count_gives_the_dedekind_numbers(n, monkeypatch):
    # the zero-weight count over the initial state's free orbits counts
    # every closed labelling once, under one tally key
    monkeypatch.setattr(search, "CASE_CAP", 1 << 23)
    engine = _identity_engine(n)
    st = engine.initial_state()
    free = ((1 << engine.table.orbit_count) - 2) & ~st.f_bits
    memo = engine._count(free, [0] * engine.table.orbit_count, "dedekind")
    tally, total = memo[free][:2]
    assert tally == {0: total}
    assert total == DEDEKIND_LESS_CONSTANTS[n]


def _assert_leaf_counts_the_functions(engine, st, census) -> None:
    """The leaf of ``st``, with the link test and without, counts and keeps
    exactly what the census gives for the functions that extend ``st``."""
    table = engine.table
    t_mask = _bitvector(table, st.t_bits)
    f_mask = _bitvector(table, st.f_bits) ^ 1     # less the empty set
    extend = {bits: chis for bits, chis in census.items()
              if bits & t_mask == t_mask and not bits & f_mask}
    chi1 = {bits for bits, (chi, _) in extend.items() if chi == 1}
    for link_check in (True, False):
        kept = {bits for bits in chi1
                if not link_check or extend[bits][1] == 1}
        stats = SearchStats()
        found = engine.leaf_survivors(st, stats, link_check)
        assert (stats.leaf_assignments, stats.leaf_chi1,
                stats.prunes_by_link) == (len(extend), len(chi1),
                                          len(chi1) - len(kept))
        assert len(found) == len(kept)
        assert {_bitvector(table, c.t_bits) for c in found} == kept


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_leaf_tallies_chi_and_link_chi_of_every_monotone_function(n):
    engine = _identity_engine(n)
    census = _monotone_census(n)
    assert len(census) == DEDEKIND_LESS_CONSTANTS[n]
    st = engine.initial_state()
    _assert_leaf_counts_the_functions(engine, st, census)
    if n == 5:
        own, survivors = engine.leaves[(st.t_bits, st.f_bits, True)]
        assert (own.leaf_assignments, own.leaf_chi1,
                len(survivors)) == (7579, 1855, 1074)


@pytest.mark.parametrize("n", [4, 5])
def test_the_leaf_counts_from_states_with_true_orbits(n):
    # closed states with TRUE orbits whose chi and link chi are both
    # nonzero, so each leaf tests its tally against a nonzero base
    engine = _identity_engine(n)
    table, poset = engine.table, engine.poset
    census = _monotone_census(n)
    rng = random.Random(n)
    below_top = range(1, engine.top_oid)
    drawn = 0
    while drawn < 40:
        t = f = 0
        for o in rng.sample(below_top, rng.randint(1, 3)):
            t |= poset.lower[o]
        for o in rng.sample(below_top, rng.randint(0, 2)) + [engine.top_oid]:
            f |= poset.upper[o]
        st = TypeAssignment(table, poset, t, f)
        if t & f or not st.chi or not st.chi_link:
            continue
        _assert_leaf_counts_the_functions(engine, st, census)
        drawn += 1


# transitive groups of degree at most five, their generators, and the
# number of their invariant nonconstant monotone functions
TRANSITIVE = {
    "C3": (3, ["(1,2,3)"], 3),
    "S3": (3, ["(1,2,3)", "(1,2)"], 3),
    "C4": (4, ["(1,2,3,4)"], 6),
    "D4": (4, ["(1,2,3,4)", "(1,3)"], 6),
    "C5": (5, ["(1,2,3,4,5)"], 9),
    "D5": (5, ["(1,2,3,4,5)", "(2,5)(3,4)"], 9),
    "A4": (4, ["(1,2,3)", "(2,3,4)"], 4),
    "S4": (4, ["(1,2,3,4)", "(1,2)"], 4),
}


@pytest.mark.parametrize("name", sorted(TRANSITIVE))
def test_the_leaf_counts_the_invariant_monotone_functions(name):
    n, generators, want = TRANSITIVE[name]
    G = generate([parse_cycles(g, n) for g in generators])
    invariant = [bits for bits in _monotone_census(n)
                 if all(bits >> act(g, m) & 1 == bits >> m & 1
                        for g in G.generators for m in range(1 << n))]
    table = OrbitTable(G)
    engine = SearchEngine(table, OrbitPoset(table))
    stats = SearchStats()
    engine.leaf_survivors(engine.initial_state(), stats, link_check=False)
    assert stats.leaf_assignments == len(invariant) == want
