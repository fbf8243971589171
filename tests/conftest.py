import random
from functools import cache

import pytest
from hypothesis import strategies as st

from elusive14 import search
from elusive14.bundle import build_campaign
from elusive14.complexes import TypeAssignment, link_x1_deltas
from elusive14.oracle import BooleanFunction
from elusive14.orbits import OrbitPoset, iter_bits
from elusive14.perm import Permutation, generate, parse_cycles
from elusive14.search import CaseCapExceeded, SearchStats, run_search


@pytest.fixture(scope="session")
def campaign():
    return build_campaign()


@pytest.fixture(scope="session")
def g6_table(campaign):
    return campaign.table


@pytest.fixture(scope="session")
def g6_poset(campaign):
    return campaign.poset


@pytest.fixture(scope="session")
def groups(campaign):
    return campaign.groups


@pytest.fixture(scope="session")
def c6():
    return generate([parse_cycles("(1,2,3,4,5,6)", 6)])


@st.composite
def generated_groups(draw):
    """Degree 1..6 and one to three random generators (image tuples)."""
    n = draw(st.integers(1, 6))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return n, [tuple(p) for p in perms]


def act(sigma: Permutation, mask: int) -> int:
    """Reference image of a subset mask under a permutation, one bit at a
    time: bit sigma(i) of the output is set iff bit i of the input is set."""
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << sigma[i]
        mask >>= 1
        i += 1
    return out


def random_monotone_bits(table, poset, rng: random.Random,
                         max_seeds: int = 5) -> int:
    """T-bitset of a random monotone-consistent full assignment: the lower
    closure of a few random orbits below the top level."""
    candidates = [o for o in range(1, table.orbit_count)
                  if table.level[o] < table.n]
    t = 0
    for o in rng.sample(candidates, rng.randint(1, max_seeds)):
        t |= poset.lower[o]
    return t


def down_sets(table) -> list[int]:
    """The T-bitsets of every downward-closed set of the table's orbits."""
    poset = OrbitPoset(table)
    sets = [0]
    for o in range(1, table.orbit_count):
        below = poset.lower[o] ^ 1 << o
        sets += [t | 1 << o for t in sets if not below & ~t]
    return sets


@cache
def _link_deltas(table) -> list[int]:
    """The reference walk's link chi deltas, built once per table."""
    return link_x1_deltas(table)


def completions(engine, st, orbits, stats=None, chis=None) -> list:
    """The reference for the search's enumeration kernel: every completion
    of the still-free ``orbits`` from ``st`` that survives monotone
    closure, walked one case at a time, branching in the given order, TRUE
    first, with chi and link chi summed on the way and appended, as the
    pair (chi, link chi) of each case, to the list ``chis`` when one is
    given.  A branch that needs some orbit both TRUE and FALSE is counted
    in ``stats`` as a conflict and dropped; more than CASE_CAP cases raise
    CaseCapExceeded.  On one free orbit of a closed state these are its
    closed TRUE child and then its closed FALSE child."""
    lower, upper = engine.poset.lower, engine.poset.upper
    chi_delta, link_delta = engine.chi_delta, _link_deltas(engine.table)
    stats = SearchStats() if stats is None else stats
    chis = [] if chis is None else chis
    orbits = [o for o in orbits if not (st.t_bits | st.f_bits) >> o & 1]
    out = []

    def walk(t, f, chi, link, k):
        while k < len(orbits) and (t | f) >> orbits[k] & 1:
            k += 1
        if k == len(orbits):
            if len(out) == search.CASE_CAP:
                raise CaseCapExceeded(
                    f"walk: more than {search.CASE_CAP} cases")
            out.append(TypeAssignment(engine.table, engine.poset, t, f))
            chis.append((chi, link))
            return
        o = orbits[k]
        add = lower[o] & ~t
        if add & f:
            stats.prunes_by_conflict += 1
        else:
            c, lk = chi, link
            for i in iter_bits(add):
                c += chi_delta[i]
                lk += link_delta[i]
            walk(t | add, f, c, lk, k + 1)
        add = upper[o] & ~f
        if add & t:
            stats.prunes_by_conflict += 1
        else:
            walk(t, f | add, chi, link, k + 1)

    walk(st.t_bits, st.f_bits,
         sum(chi_delta[o] for o in iter_bits(st.t_bits)),
         sum(link_delta[o] for o in iter_bits(st.t_bits)), 0)
    return out


def visit_nodes(engine, schedule, visit):
    """``run_search`` on ``engine`` with ``visit(st)`` called on every node
    it explores, in the walk's order, and its report returned.  Each node
    is handed to exactly one of the engine's ``enumerate_cases`` (a check)
    and ``leaf_survivors`` (a leaf), so wrapping the two on the instance
    sees them all."""
    enumerate_cases, leaf_survivors = (engine.enumerate_cases,
                                       engine.leaf_survivors)

    def enumerating(st, check, stats):
        visit(st)
        return enumerate_cases(st, check, stats)

    def resolving(st, stats, link_check=True):
        visit(st)
        return leaf_survivors(st, stats, link_check)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "enumerate_cases", enumerating)
        patch.setattr(engine, "leaf_survivors", resolving)
        return run_search(engine, schedule)


def true_masks(a) -> list[int]:
    """Every face of an assignment's complex except the empty face."""
    return [m for o in iter_bits(a.t_bits) for m in a.table.members[o]]


def explicit_euler(faces) -> int:
    """Alternating-sum chi of an explicit mask family; the empty mask is
    skipped per the size >= 1 summation."""
    return sum((-1) ** (m.bit_count() + 1) for m in faces if m)


def link(a, v: int) -> set[int]:
    """Explicit link of a full assignment at variable x_v (1-based): faces
    t - {x_v} for TRUE faces t containing x_v.  May contain the empty
    mask."""
    assert a.is_fully_assigned()
    bit = 1 << (v - 1)
    return {m ^ bit for m in true_masks(a) if m & bit}


def r_vector(a) -> list[int]:
    """Reference face counts of a full assignment, counted over its explicit
    faces: r[k] faces of size k, r[0] = 1 for the empty face."""
    r = [1] + [0] * a.table.n
    for m in true_masks(a):
        r[m.bit_count()] += 1
    return r


def restricted_true(f: BooleanFunction, v: int) -> BooleanFunction:
    """f with variable x_v (1-based) answered 1, on the remaining n-1
    variables."""
    bit = 1 << (v - 1)
    low = bit - 1
    tab = bytearray(1 << (f.n - 1))
    for m in range(1 << (f.n - 1)):
        tab[m] = f.table[(m & low) | ((m & ~low) << 1) | bit]
    return BooleanFunction(f.n - 1, tab)


def opposite(f: BooleanFunction) -> BooleanFunction:
    """f with every truth value flipped, on f's orbit table."""
    return BooleanFunction(f.n, bytes(1 - v for v in f.table), f.orbits)
