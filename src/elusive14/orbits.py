"""Orbits of k-subsets of variables under a permutation group, canonical
indexing, and the inclusion poset with Upper/Lower closures.

Subsets are machine-word bitmasks: bit i set means variable x_{i+1} is in
the subset, so x_1 is the least significant bit.  Everything for n = 14
(16384 masks) is precomputed once and then immutable.
"""

from __future__ import annotations

import warnings

from .perm import (Permutation, PermGroup, closure, generate, identity,
                   is_transitive)

# OrbitTable keeps several 2^n-entry lists: about 200 MiB at degree 20
MAX_DEGREE = 20


def mask_from_points(points, one_based: bool = True) -> int:
    m = 0
    for p in points:
        m |= 1 << (p - 1 if one_based else p)
    return m


def points_from_mask(mask: int) -> list[int]:
    return [i + 1 for i in iter_bits(mask)]


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, in ascending order."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def subset_unions(bits) -> list[int]:
    """Entry s is the union of the bits[i] with bit i set in s."""
    out = [0]
    for b in bits:
        out += [x | b for x in out]
    return out


def action_table(sigma: Permutation) -> list[int]:
    """The image of every mask m under sigma (bit sigma(i) of entry m is
    set iff bit i of m is), built from single-bit images."""
    return subset_unions([1 << i for i in sigma.images])


def block_masks(group: PermGroup) -> tuple[int, ...]:
    """The group's point orbits as masks, ordered by smallest point."""
    return tuple(mask_from_points(orbit, one_based=False)
                 for orbit in group.point_orbits())


class OrbitTable:
    """All orbits of subset masks under a group, canonically indexed.

    Canonical order: within each level (= subset size) orbits are sorted by
    their numerically smallest member mask.  Dense ids run over levels
    0..n in that order; id 0 is always the empty subset's orbit.
    """

    def __init__(self, group: PermGroup):
        n = group.degree
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} is too large for the orbit tables "
                             f"(2^n entries each; at most {MAX_DEGREE})")
        if not is_transitive(group):
            warnings.warn("group is not transitive; orbit census still computed")
        maps = [action_table(g).__getitem__ for g in group.generators]
        seen = bytearray(1 << n)
        members: list[list[int]] = []
        # masks run upward, so the first one not yet seen is the least of
        # its orbit
        m = 0
        while m >= 0:
            members.append(sorted(closure((m,), maps)))
            for x in members[-1]:
                seen[x] = 1
            m = seen.find(0, m + 1)
        self._index(group, members)

    @classmethod
    def of_identity(cls, n: int) -> "OrbitTable":
        """The trivial group's table, whose orbits are the single masks:
        no scan, and no warning that the group is not transitive."""
        table = cls.__new__(cls)
        table._index(generate([identity(n)]), [[m] for m in range(1 << n)])
        return table

    def _index(self, group: PermGroup, members: list[list[int]]) -> None:
        """The tables of the orbits with the sorted member lists
        ``members``, in any order; ids sort by level, then least member."""
        members.sort(key=lambda mem: (mem[0].bit_count(), mem[0]))
        self.group = group
        self.n = n = group.degree
        self._orbit_of = orbit_of = [0] * (1 << n)
        for oid, mem in enumerate(members):
            for x in mem:
                orbit_of[x] = oid
        self.orbit_count = len(members)
        self.members = members
        self.level = [m[0].bit_count() for m in members]
        self.size = [len(m) for m in members]
        self.min_mask = [m[0] for m in members]
        self.containing_x1 = [sum(1 for x in m if x & 1) for m in members]
        self.ids_at_level: list[list[int]] = [[] for _ in range(n + 1)]
        self.index_in_level: list[int] = []
        for oid, lvl in enumerate(self.level):
            self.index_in_level.append(len(self.ids_at_level[lvl]))
            self.ids_at_level[lvl].append(oid)

    def orbit_of(self, mask: int) -> int:
        return self._orbit_of[mask]

    def oid(self, label: str) -> int:
        """Dense id from a canonical level.index label; ValueError for a
        label that names no orbit."""
        try:
            lvl, idx = map(int, label.split("."))
        except ValueError:
            raise ValueError(f"bad orbit label {label!r}") from None
        if not (0 <= lvl <= self.n and 0 <= idx < len(self.ids_at_level[lvl])):
            raise ValueError(f"no orbit {lvl}.{idx} in this table")
        return self.ids_at_level[lvl][idx]

    def label(self, oid: int) -> str:
        """The canonical level.index label of an orbit id."""
        return f"{self.level[oid]}.{self.index_in_level[oid]}"

    def census(self) -> list[dict]:
        """Per-orbit summary rows, byte-stable ordering."""
        return [
            {
                "level": self.level[o],
                "index": self.index_in_level[o],
                "size": self.size[o],
                "representative": points_from_mask(self.min_mask[o]),
                "containing_x1": self.containing_x1[o],
            }
            for o in range(self.orbit_count)
        ]


class OrbitPoset:
    """Inclusion order between orbits (levels >= 1 only).

    O1 <= O2 iff some member of O2 contains some member of O1.  Upper and
    lower closures are stored as int bitsets over dense orbit ids; each
    closure contains the orbit itself.  The empty subset's orbit (id 0) is
    excluded from all closures.
    """

    def __init__(self, table: OrbitTable):
        self.table = table
        # g carries the facets of m onto those of gm, so one member per
        # orbit gives the orbits directly below it
        self._close({o: {table.orbit_of(m ^ 1 << i) for i in iter_bits(m)}
                     for o, m in enumerate(table.min_mask) if o})

    @classmethod
    def generated_by(cls, table: OrbitTable,
                     covers: dict[int, set[int]]) -> "OrbitPoset":
        """The order generated by ``covers`` alone (orbit id -> the ids
        directly below it), closed by the same pass as the inclusion order;
        orbits that are not keys of ``covers`` stay out of every closure."""
        order = cls.__new__(cls)
        order.table = table
        order._close(covers)
        return order

    def _close(self, covers: dict[int, set[int]]) -> None:
        """Lower and upper closures of the order with direct-below sets
        ``covers``.  Covers have smaller ids than the orbits above them (ids
        run up the levels), so ascending ids close covers first, and
        descending ids close the orbits directly above first."""
        self.lower = lower = [0] * self.table.orbit_count
        self.upper = upper = [0] * self.table.orbit_count
        above: dict[int, list[int]] = {o: [] for o in covers}
        for o in sorted(covers):
            acc = 1 << o
            for p in covers[o]:
                acc |= lower[p]
                if p in above:
                    above[p].append(o)
            lower[o] = acc
        for o in sorted(covers, reverse=True):
            acc = 1 << o
            for q in above[o]:
                acc |= upper[q]
            upper[o] = acc

    def lower_ids(self, o: int) -> list[int]:
        return list(iter_bits(self.lower[o]))
