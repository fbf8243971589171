"""Orbits of k-subsets of variables under a permutation group, canonical
indexing, and the inclusion poset with Upper/Lower closures.

Subsets are machine-word bitmasks: bit i set means variable x_{i+1} is in
the subset, so x_1 is the least significant bit.  Everything for n = 14
(16384 masks) is precomputed once and then immutable.

An orbit is found by one scan: the images of its least mask under every
element of the group, read from per-element images of 7-point chunks of a
mask.  Those chunk tables hold ceil(n/7) * 128 * |G| entries, so the
table's cost grows with the group's order: 43 008 entries for G6 (168
elements) and 279 552 for G5 (1092).  The oracle's memo keys read
the same chunk images.
"""

from __future__ import annotations

import sys
from array import array

from .perm import PermGroup, generate, identity

# OrbitTable keeps several 2^n-entry lists, about 200 MiB at degree 20, and
# at most ceil(n/7) * 128 * |G| chunk images: at degree 20, for a group at
# perm's 100 000-element closure cap, 38.4 M entries of 4 bytes, 154 MB
MAX_DEGREE = 20

# points per chunk of a mask in the chunk images
CHUNK = 7


def mask_from_points(points) -> int:
    m = 0
    for p in points:
        m |= 1 << (p - 1)
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


def action_table(sigma: tuple[int, ...]) -> list[int]:
    """The image of every mask m under sigma, a Permutation or any tuple of
    point images (bit sigma[i] of entry m is set iff bit i of m is), built
    from single-bit images."""
    return subset_unions([1 << i for i in sigma])


def block_masks(group: PermGroup) -> tuple[int, ...]:
    """The group's point orbits as masks, ordered by smallest point."""
    return tuple(sum(1 << p for p in orbit) for orbit in group.point_orbits())


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
        self._set_group(group)
        seen = bytearray(1 << n)
        members: list[list[int]] = []
        # masks run upward, so the first one not yet seen is the least of
        # its orbit, whose members are its images
        m = 0
        while m >= 0:
            members.append(sorted(set(self.images(m))))
            for x in members[-1]:
                seen[x] = 1
            m = seen.find(0, m + 1)
        self._index(members)

    @classmethod
    def of_identity(cls, n: int) -> "OrbitTable":
        """The trivial group's table, whose orbits are the single masks:
        no scan."""
        table = cls.__new__(cls)
        table._set_group(generate([identity(n)]))
        table._index([[m] for m in range(1 << n)])
        return table

    def _set_group(self, group: PermGroup) -> None:
        """The group, its degree and its chunk images: per chunk of CHUNK
        points, per value v of the chunk's bits, the images of v under the
        elements, in element order, as the bytes of one array read as an
        int.  An OR of such ints is an OR of every element's images."""
        self.group = group
        self.n = n = group.degree
        # the narrowest array type that holds n bits
        self._code = next(t for t in "HIL" if array(t).itemsize * 8 >= n)
        self._width = array(self._code).itemsize * group.order
        points = [int.from_bytes(array(self._code, [1 << p for p in images]),
                                 sys.byteorder)
                  for images in zip(*group.elements)]
        self._chunks = [subset_unions(points[i:i + CHUNK])
                        for i in range(0, n, CHUNK)]

    def _array(self, images: int) -> array:
        return array(self._code, images.to_bytes(self._width, sys.byteorder))

    def images(self, mask: int) -> array:
        """The image of ``mask`` under each element of the group, in
        element order: one OR of its chunks' images."""
        images = 0
        for rows in self._chunks:
            images |= rows[mask & (1 << CHUNK) - 1]
            mask >>= CHUNK
        return self._array(images)

    def chunk_images(self, c: int) -> list[array]:
        """Per value v of the bits of chunk c (points CHUNK * c on), the
        image of v under each element of the group, in element order.  A
        chunk past the last point has the one value 0."""
        return list(map(self._array, self._chunks[c]
                        if c < len(self._chunks) else [0]))

    def _index(self, members: list[list[int]]) -> None:
        """The tables of the orbits with the sorted member lists
        ``members``, in any order; ids sort by level, then least member."""
        members.sort(key=lambda mem: (mem[0].bit_count(), mem[0]))
        n = self.n
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
