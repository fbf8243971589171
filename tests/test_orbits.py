import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import act, generated_groups
from elusive14.orbits import (OrbitPoset, OrbitTable, action_table,
                              block_masks, iter_bits, mask_from_points,
                              points_from_mask, subset_unions)
from elusive14.perm import (Permutation, closure, generate, identity,
                            parse_cycles)


def burnside_census(group):
    """Independent orbit count per subset size: average number of fixed
    k-subsets over the group, via the cycle-type generating function."""
    n = group.degree
    totals = [0] * (n + 1)
    for e in group.elements:
        coeffs = [1]
        lengths = [len(c) for c in e.cycles()]
        lengths += [1] * (n - sum(lengths))
        for length in lengths:
            nxt = coeffs + [0] * length
            for i, c in enumerate(coeffs):
                nxt[i + length] += c
            coeffs = nxt
        for k in range(n + 1):
            totals[k] += coeffs[k]
    assert all(t % group.order == 0 for t in totals)
    return [t // group.order for t in totals]


def test_act_examples():
    ident = identity(14)
    assert act(ident, 0b1011) == 0b1011
    swap = parse_cycles("(1,2)", 14)
    assert act(swap, mask_from_points([1])) == mask_from_points([2])
    full_cycle = parse_cycles("(1,2,3,4,5,6,7,8,9,10,11,12,13,14)", 14)
    assert act(full_cycle, mask_from_points([1, 2])) == mask_from_points([2, 3])


@given(st.permutations(list(range(12))), st.integers(0, (1 << 12) - 1))
def test_act_preserves_size(images, mask):
    assert act(Permutation(tuple(images)), mask).bit_count() == mask.bit_count()


@given(st.permutations(list(range(9))), st.permutations(list(range(9))),
       st.integers(0, (1 << 9) - 1))
def test_act_is_an_action(a_img, b_img, mask):
    a, b = Permutation(tuple(a_img)), Permutation(tuple(b_img))
    assert act(a * b, mask) == act(a, act(b, mask))


@given(st.integers(1, 8).flatmap(lambda n: st.permutations(list(range(n)))))
def test_action_table_matches_act(images):
    sigma = Permutation(tuple(images))
    assert action_table(sigma) == [act(sigma, m)
                                   for m in range(1 << sigma.degree)]


@given(st.lists(st.integers(0, (1 << 16) - 1), max_size=8))
def test_subset_unions_or_the_selected_bits(bits):
    unions = subset_unions(bits)
    assert len(unions) == 1 << len(bits)
    for s, union in enumerate(unions):
        expected = 0
        for i, b in enumerate(bits):
            if s >> i & 1:
                expected |= b
        assert union == expected


@given(st.integers(0, (1 << 70) - 1))
def test_iter_bits_lists_set_bits_ascending(mask):
    assert list(iter_bits(mask)) == [i for i in range(mask.bit_length())
                                     if mask >> i & 1]


def test_block_masks_are_point_orbits():
    g = generate([parse_cycles("(1,2)(3,4,5)", 6)])
    assert block_masks(g) == (0b11, 0b11100, 0b100000)


def test_census_matches_burnside(campaign, g6_table):
    expected = burnside_census(campaign.groups["G6"])
    computed = [len(g6_table.ids_at_level[k]) for k in range(15)]
    assert computed == expected
    assert computed == [1, 1, 2, 5, 12, 17, 25, 30, 25, 17, 12, 5, 2, 1, 1]


def test_census_totals(g6_table):
    assert g6_table.orbit_count - 1 == 155   # published total is 158; see data
    assert g6_table.orbit_count == 156


def test_level_one_and_two(g6_table):
    assert [g6_table.size[o] for o in g6_table.ids_at_level[1]] == [14]
    assert sorted(g6_table.size[o] for o in g6_table.ids_at_level[2]) == [7, 84]


def test_partition_per_level(g6_table):
    for k in range(15):
        assert sum(g6_table.size[o] for o in g6_table.ids_at_level[k]) == math.comb(14, k)


def test_orbit_sizes_divide_group_order(campaign, g6_table):
    order = campaign.groups["G6"].order
    assert all(order % g6_table.size[o] == 0 for o in range(g6_table.orbit_count))


def test_containing_count_identity(g6_table):
    for o in range(g6_table.orbit_count):
        assert g6_table.containing_x1[o] * 14 == g6_table.level[o] * g6_table.size[o]


def test_canonical_stability(campaign, g6_table):
    g1, g2 = campaign.groups["G6"].generators
    shuffled = generate([g2, g1, g1 * g2])
    other = OrbitTable(shuffled)
    assert other._orbit_of == g6_table._orbit_of
    assert other.min_mask == g6_table.min_mask


def test_orbit_of_anchor_examples(campaign, g6_table):
    same = [mask_from_points([4, 5, 7, 11, 12, 14]),
            mask_from_points([2, 6, 7, 9, 13, 14]),
            mask_from_points([1, 3, 7, 8, 10, 14])]
    assert len({g6_table.orbit_of(m) for m in same}) == 1
    o = g6_table.orbit_of(mask_from_points([1, 2, 3, 6, 8, 9, 10, 13]))
    assert g6_table.level[o] == 8 and g6_table.size[o] == 7
    top = g6_table.orbit_of((1 << 14) - 1)
    assert g6_table.level[top] == 14
    assert str(g6_table.label(top)) == "14.0"


def test_complement_symmetry(g6_table):
    # complementation is equivariant, so it maps orbits to orbits
    full = (1 << 14) - 1
    for o in range(g6_table.orbit_count):
        comp = {g6_table.orbit_of(m ^ full) for m in g6_table.members[o]}
        assert len(comp) == 1


def test_poset_bottom_and_top(g6_table, g6_poset):
    level1 = g6_table.ids_at_level[1][0]
    assert list(iter_bits(g6_poset.lower[level1])) == [level1]
    top = g6_table.ids_at_level[14][0]
    assert list(iter_bits(g6_poset.upper[top])) == [top]
    assert (set(iter_bits(g6_poset.lower[top]))
            == set(range(1, g6_table.orbit_count)))


def test_poset_antisymmetry(g6_table, g6_poset):
    for o in range(1, g6_table.orbit_count):
        both = g6_poset.lower[o] & g6_poset.upper[o]
        assert both == 1 << o


def test_poset_closure_transitive(g6_table, g6_poset):
    rng = random.Random(5)
    ids = list(range(1, g6_table.orbit_count))
    for _ in range(200):
        o = rng.choice(ids)
        for p in iter_bits(g6_poset.lower[o]):
            assert g6_poset.lower[p] & ~g6_poset.lower[o] == 0


def test_poset_against_member_scan(g6_table, g6_poset):
    # brute-force oracle: O1 <= O2 iff some member of O2 contains a member of O1
    rng = random.Random(11)
    ids = list(range(1, g6_table.orbit_count))
    checked = 0
    while checked < 120:
        o1, o2 = rng.choice(ids), rng.choice(ids)
        if g6_table.level[o1] >= g6_table.level[o2]:
            continue
        brute = any(m1 & ~m2 == 0
                    for m2 in g6_table.members[o2]
                    for m1 in g6_table.members[o1])
        assert bool(g6_poset.lower[o2] >> o1 & 1) == brute
        checked += 1


def reference_partition(group):
    """The orbit partition found by scanning all 2^n masks sorted by (size,
    value), one closure per mask not yet placed: orbit_of, members and
    ids_at_level in canonical order."""
    n = group.degree
    maps = [action_table(g).__getitem__ for g in group.generators]
    orbit_of = [-1] * (1 << n)
    by_level = [[] for _ in range(n + 1)]
    members = []
    for m in sorted(range(1 << n), key=lambda m: (m.bit_count(), m)):
        if orbit_of[m] < 0:
            mem = sorted(closure((m,), maps))
            for x in mem:
                orbit_of[x] = len(members)
            by_level[m.bit_count()].append(len(members))
            members.append(mem)
    return orbit_of, members, by_level


def member_scan_covers(table):
    """The orbits directly below each orbit, from the facets of every
    member rather than of one."""
    covers = {o: set() for o in range(1, table.orbit_count)}
    for o, below in covers.items():
        if table.level[o] >= 2:
            for m in table.members[o]:
                below.update(table.orbit_of(m ^ 1 << i) for i in iter_bits(m))
    return covers


def assert_matches_reference(group):
    table = OrbitTable(group)
    orbit_of, members, by_level = reference_partition(group)
    assert table._orbit_of == orbit_of
    assert table.members == members
    assert table.ids_at_level == by_level
    poset = OrbitPoset(table)
    reference = OrbitPoset.generated_by(table, member_scan_covers(table))
    assert poset.lower == reference.lower
    assert poset.upper == reference.upper
    return poset


def test_bundled_tables_match_the_mask_scan(campaign):
    groups = {**campaign.groups, **campaign.subgroups}
    assert len(groups) == 17
    for group in groups.values():
        assert_matches_reference(group)


@settings(max_examples=40, deadline=None)
@given(generated_groups())
def test_tables_match_the_mask_scan(case):
    _, perms = case
    poset = assert_matches_reference(generate([Permutation(p) for p in perms]))
    # upper is the transpose of lower
    upper = [0] * len(poset.lower)
    for o, below in enumerate(poset.lower):
        for p in iter_bits(below):
            upper[p] |= 1 << o
    assert poset.upper == upper


def test_identity_table_matches_the_mask_scan():
    for n in range(1, 8):
        table = OrbitTable.of_identity(n)
        orbit_of, members, by_level = reference_partition(
            generate([identity(n)]))
        assert table.group.order == 1
        assert table._orbit_of == orbit_of
        assert table.members == members
        assert table.ids_at_level == by_level


def test_tables_above_sixteen_points_use_wide_images():
    # 16-bit image arrays would drop point 17; the binary necklaces of
    # length 17 number (2^17 + 16 * 2) / 17
    c17 = generate([Permutation(tuple(range(1, 17)) + (0,))])
    table = OrbitTable(c17)
    assert table.orbit_count == 7712
    orbit_of, _, _ = reference_partition(c17)
    assert table._orbit_of == orbit_of


def test_small_group_orbits():
    c4 = generate([parse_cycles("(1,2,3,4)", 4)])
    table = OrbitTable(c4)
    assert [len(table.ids_at_level[k]) for k in range(5)] == [1, 1, 2, 1, 1]
    poset = OrbitPoset(table)
    pair_orbits = table.ids_at_level[2]
    triple = table.ids_at_level[3][0]
    assert all(poset.lower[triple] >> o & 1 for o in pair_orbits)


def test_label_round_trip(g6_table):
    for o in range(g6_table.orbit_count):
        assert g6_table.oid(str(g6_table.label(o))) == o
    assert points_from_mask(mask_from_points([3, 1, 14])) == [1, 3, 14]
