import random

import pytest

from conftest import r_vector, random_monotone_bits
from elusive14.complexes import (FALSE, FREE, TRUE, IndeterminateFace,
                                 TypeAssignment, assert_monotone, chi_deltas,
                                 euler, explicit_euler, fixed_point_complex,
                                 link, link_euler_fast, link_x1_deltas)
from elusive14.orbits import OrbitPoset, OrbitTable


def deletion(a, v):
    """Reference deletion at x_v: the TRUE faces avoiding x_v."""
    bit = 1 << (v - 1)
    return {m for m in a.true_masks() if not m & bit}


def all_true(table, poset):
    t = 0
    for o in range(1, table.orbit_count):
        t |= 1 << o
    return TypeAssignment(table, poset, t, 0)


def all_false(table, poset):
    f = 0
    for o in range(1, table.orbit_count):
        f |= 1 << o
    return TypeAssignment(table, poset, 0, f)


def from_t_bits(table, poset, t_bits):
    f = 0
    for o in range(1, table.orbit_count):
        if not t_bits >> o & 1:
            f |= 1 << o
    return TypeAssignment(table, poset, t_bits, f)


def test_euler_full_simplex(g6_table, g6_poset):
    assert euler(all_true(g6_table, g6_poset)) == 1   # alternating binomial sum


def test_euler_empty_and_vertices(g6_table, g6_poset):
    assert euler(all_false(g6_table, g6_poset)) == 0
    level1 = g6_table.ids_at_level[1][0]
    a = from_t_bits(g6_table, g6_poset, 1 << level1)
    assert euler(a) == 14


def test_euler_requires_full_assignment(g6_table, g6_poset):
    with pytest.raises(IndeterminateFace):
        euler(TypeAssignment(g6_table, g6_poset))


def test_euler_equals_explicit_face_sum(g6_table, g6_poset):
    rng = random.Random(101)
    for _ in range(25):
        a = from_t_bits(g6_table, g6_poset,
                        random_monotone_bits(g6_table, g6_poset, rng))
        faces = a.true_masks()
        assert euler(a) == explicit_euler(faces)


def test_chi_sums_match_the_delta_tables(g6_table, g6_poset, c6):
    c6_table = OrbitTable(c6)
    rng = random.Random(103)
    for table, poset in ((g6_table, g6_poset),
                         (c6_table, OrbitPoset(c6_table))):
        chi_d, link_d = chi_deltas(table), link_x1_deltas(table)
        for _ in range(40):
            t = rng.getrandbits(table.orbit_count) & ~1
            a = TypeAssignment(table, poset, t)
            true = [o for o in range(table.orbit_count) if t >> o & 1]
            assert a.chi == sum(chi_d[o] for o in true)
            assert a.chi_link == sum(link_d[o] for o in true)


def test_link_of_full_simplex(g6_table, g6_poset):
    a = all_true(g6_table, g6_poset)
    lk = link(a, 1)
    # the full simplex on the 13 remaining variables, empty face included
    assert len(lk) == 1 << 13
    assert explicit_euler(lk) == 1
    assert link_euler_fast(a) == 1


def test_link_of_empty_complex(g6_table, g6_poset):
    a = all_false(g6_table, g6_poset)
    assert link(a, 1) == set()
    assert link_euler_fast(a) == 0


def test_deletion_examples(g6_table, g6_poset):
    a = all_true(g6_table, g6_poset)
    dele = deletion(a, 1)
    assert len(dele) == (1 << 13) - 1      # empty face is implicit
    level1 = g6_table.ids_at_level[1][0]
    verts = from_t_bits(g6_table, g6_poset, 1 << level1)
    assert len(deletion(verts, 1)) == 13


def test_link_euler_fast_agrees_with_explicit(g6_table, g6_poset):
    rng = random.Random(77)
    for i in range(100):
        a = from_t_bits(g6_table, g6_poset,
                        random_monotone_bits(g6_table, g6_poset, rng))
        v = rng.randint(1, 14)
        # G6 is transitive: the link at every vertex has the x1 link's chi
        assert link_euler_fast(a) == explicit_euler(link(a, v))


def test_r_vector_link_identity(g6_table, g6_poset):
    # 14 * r(Link(a, v), k-1) = k * r(a, k), independent of v
    rng = random.Random(3)
    for i in range(100):
        a = from_t_bits(g6_table, g6_poset,
                        random_monotone_bits(g6_table, g6_poset, rng))
        r = r_vector(a)
        v = rng.randint(1, 14)
        lk = link(a, v)
        r_link = [0] * 15
        for m in lk:
            r_link[m.bit_count()] += 1
        for k in range(1, 15):
            assert 14 * r_link[k - 1] == k * r[k]


def test_link_and_deletion_stay_monotone(g6_table, g6_poset):
    rng = random.Random(9)
    for _ in range(20):
        a = from_t_bits(g6_table, g6_poset,
                        random_monotone_bits(g6_table, g6_poset, rng))
        v = rng.randint(1, 14)
        for family in (link(a, v), deletion(a, v)):
            members = family | {0}
            for m in family:
                for i in range(14):
                    if m >> i & 1:
                        assert m ^ (1 << i) in members


def test_assert_monotone(g6_table, g6_poset):
    assert assert_monotone(TypeAssignment(g6_table, g6_poset))
    top = g6_table.ids_at_level[14][0]
    level1 = g6_table.ids_at_level[1][0]
    bad = TypeAssignment(g6_table, g6_poset, 1 << top, 1 << level1)
    assert not assert_monotone(bad)
    rng = random.Random(21)
    for _ in range(50):
        a = from_t_bits(g6_table, g6_poset,
                        random_monotone_bits(g6_table, g6_poset, rng))
        assert assert_monotone(a)


def test_fixed_point_full_simplex(campaign, g6_table, g6_poset):
    a = all_true(g6_table, g6_poset)
    fpc = fixed_point_complex(a, campaign.subgroups["G6_11"])
    assert len(fpc.blocks) == 2
    assert len(fpc.faces) == 3
    assert fpc.euler == 1
    # a simplex on m blocks has chi 1 for every bundled subgroup
    for name, sub in campaign.subgroups.items():
        assert fixed_point_complex(a, sub).euler == 1


def test_fixed_point_step_one_case(campaign, g6_table, g6_poset):
    # the branch case: the 6-point block is a face, the 8-point one is not
    o_six = campaign.anchors.oid("6.24")
    t = g6_poset.lower[o_six]
    f = 0
    for o in range(1, g6_table.orbit_count):
        if not t >> o & 1:
            f |= 1 << o
    a = TypeAssignment(g6_table, g6_poset, t, f)
    fpc = fixed_point_complex(a, campaign.subgroups["G6_11"])
    assert fpc.euler == 1
    assert fpc.euler % 2 == 1
    six_block = next(i for i, b in enumerate(fpc.blocks) if b.bit_count() == 6)
    assert fpc.faces == ((six_block,),)


def test_fixed_point_indeterminate(campaign, g6_table, g6_poset):
    with pytest.raises(IndeterminateFace):
        fixed_point_complex(TypeAssignment(g6_table, g6_poset),
                            campaign.subgroups["G6_11"])


def test_fixed_point_identity_subgroup_equals_euler(campaign, g6_table, g6_poset):
    rng = random.Random(31)
    a = from_t_bits(g6_table, g6_poset,
                    random_monotone_bits(g6_table, g6_poset, rng))
    fpc = fixed_point_complex(a, campaign.subgroups["G6_1"])
    assert fpc.euler == euler(a)


def test_fixed_point_downward_closed_when_monotone(campaign, g6_table, g6_poset):
    rng = random.Random(41)
    for _ in range(10):
        a = from_t_bits(g6_table, g6_poset,
                        random_monotone_bits(g6_table, g6_poset, rng))
        for name in ("G6_11", "G6_10", "G6_7", "G6_3"):
            fpc = fixed_point_complex(a, campaign.subgroups[name])
            faces = {frozenset(fc) for fc in fpc.faces}
            for fc in faces:
                for drop in fc:
                    smaller = fc - {drop}
                    if smaller:
                        assert smaller in faces


def test_from_states_validation(g6_table, g6_poset):
    a = TypeAssignment.from_states(g6_table, g6_poset, {"1.0": "T", "14.0": "F"})
    assert a.state_of_label("1.0") == TRUE
    assert a.state_of_label("14.0") == FALSE
    assert a.state_of_label("2.0") == FREE
    with pytest.raises(ValueError):
        TypeAssignment.from_states(g6_table, g6_poset, {"0.0": "T"})
    with pytest.raises(ValueError):
        TypeAssignment.from_states(g6_table, g6_poset, {"1.0": "X"})
