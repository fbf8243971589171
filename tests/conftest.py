import random

import pytest
from hypothesis import strategies as st

from elusive14.bundle import build_campaign
from elusive14.oracle import BooleanFunction
from elusive14.perm import Permutation, generate, parse_cycles


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
    images = sigma.images
    while mask:
        if mask & 1:
            out |= 1 << images[i]
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


def r_vector(a) -> list[int]:
    """Reference face counts of a full assignment, counted over its explicit
    faces: r[k] faces of size k, r[0] = 1 for the empty face."""
    r = [1] + [0] * a.table.n
    for m in a.true_masks():
        r[m.bit_count()] += 1
    return r


def opposite(f: BooleanFunction) -> BooleanFunction:
    """f with every truth value flipped; monotone and the group carry over."""
    return BooleanFunction(f.n, bytes(1 - v for v in f.table),
                           monotone=f.monotone, group=f.group)
