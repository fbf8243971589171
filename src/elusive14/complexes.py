"""Monotone simplicial complexes encoded as orbit-type assignments.

A fully assigned TypeAssignment encodes the complex whose faces are the
members of the TRUE orbits (plus the empty face, which is always present
and never counted by the Euler characteristic).  Partial assignments leave
orbits FREE; queries that need a determined value raise IndeterminateFace.

TypeAssignment is the package's one assignment type: the search's nodes,
the replay's states and the assignment files the CLI reads are all
instances.  Each carries chi and the link-at-x1 chi of its TRUE orbits,
which euler() and link_euler_fast() read instead of summing again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .orbits import (OrbitPoset, OrbitTable, block_masks, iter_bits,
                     points_from_mask, subset_unions)
from .perm import PermGroup

FREE = "free"
TRUE = "T"
FALSE = "F"


class IndeterminateFace(Exception):
    """A FREE orbit governs a face whose value is needed."""


def _chi_delta(table: OrbitTable, o: int) -> int:
    return (-1) ** (table.level[o] + 1) * table.size[o] if table.level[o] else 0


def _link_delta(table: OrbitTable, o: int) -> int:
    return ((-1) ** table.level[o] * table.containing_x1[o]
            if table.level[o] >= 2 else 0)


def chi_deltas(table: OrbitTable) -> list[int]:
    """Per-orbit increment to chi(Delta) when the orbit turns TRUE."""
    return [_chi_delta(table, o) for o in range(table.orbit_count)]


def link_x1_deltas(table: OrbitTable) -> list[int]:
    """Per-orbit increment to chi(Link(Delta, x1)) when the orbit turns TRUE.

    A TRUE level-k orbit contributes its members containing x1 as link faces
    of size k-1, hence (-1)^k times the containing count; level-1 members
    contribute only the empty link face, which chi ignores.
    """
    return [_link_delta(table, o) for o in range(table.orbit_count)]


class TypeAssignment:
    """Three-valued orbit states backed by two int bitsets over orbit ids,
    with the Euler characteristics of the TRUE orbits' faces and of their
    link at x1.

    The search builds one per node and passes ``chi`` and ``chi_link`` as
    it tracks them; left out, they are summed from the TRUE orbits.  Orbit
    id 0 (the empty subset) is never assigned; the empty face is implicitly
    always present.
    """

    __slots__ = ("table", "poset", "t_bits", "f_bits", "chi", "chi_link")

    def __init__(self, table: OrbitTable, poset: OrbitPoset,
                 t_bits: int = 0, f_bits: int = 0,
                 chi: int | None = None, chi_link: int | None = None):
        self.table = table
        self.poset = poset
        self.t_bits = t_bits
        self.f_bits = f_bits
        if chi is None:
            true = list(iter_bits(t_bits))
            chi = sum(_chi_delta(table, o) for o in true)
            chi_link = sum(_link_delta(table, o) for o in true)
        self.chi = chi
        self.chi_link = chi_link

    @classmethod
    def from_states(cls, table: OrbitTable, poset: OrbitPoset,
                    states: dict[str, str]) -> "TypeAssignment":
        """Build from {'level.index': 'T'|'F'} without closure side effects."""
        t = f = 0
        for label, st in states.items():
            o = table.oid(label)
            if table.level[o] == 0:
                raise ValueError("the empty subset's orbit is not assignable")
            if st == TRUE:
                t |= 1 << o
            elif st == FALSE:
                f |= 1 << o
            else:
                raise ValueError(f"bad state {st!r} for orbit {label}")
        if t & f:
            raise ValueError("an orbit is listed both TRUE and FALSE")
        return cls(table, poset, t, f)

    def state(self, oid: int) -> str:
        if self.t_bits >> oid & 1:
            return TRUE
        if self.f_bits >> oid & 1:
            return FALSE
        return FREE

    def state_of_label(self, label: str) -> str:
        return self.state(self.table.oid(label))

    def is_fully_assigned(self) -> bool:
        # every orbit but the empty subset's (id 0)
        return self.t_bits | self.f_bits == (1 << self.table.orbit_count) - 2

    def true_masks(self) -> list[int]:
        """Every face of the encoded complex except the empty face."""
        return [m for o in iter_bits(self.t_bits) for m in self.table.members[o]]


def assert_monotone(a: TypeAssignment) -> bool:
    """True iff no TRUE orbit has a FALSE orbit below it and no FALSE orbit
    has a TRUE orbit above it."""
    poset, t, f = a.poset, a.t_bits, a.f_bits
    return (not any(poset.lower[o] & f for o in iter_bits(t))
            and not any(poset.upper[o] & t for o in iter_bits(f)))


def _require_full(a: TypeAssignment) -> None:
    if not a.is_fully_assigned():
        raise IndeterminateFace("assignment has FREE orbits")


def euler(a: TypeAssignment) -> int:
    """Euler characteristic of the encoded complex (empty face excluded)."""
    _require_full(a)
    return a.chi


def explicit_euler(faces) -> int:
    """Alternating-sum chi of an explicit mask family; the empty mask is
    skipped per the size >= 1 summation."""
    return sum((-1) ** (m.bit_count() + 1) for m in faces if m)


def link(a: TypeAssignment, v: int) -> set[int]:
    """Explicit link at variable x_v (1-based): faces t - {x_v} for TRUE
    faces t containing x_v.  May contain the empty mask."""
    _require_full(a)
    bit = 1 << (v - 1)
    return {m ^ bit for m in a.true_masks() if m & bit}


def link_euler_fast(a: TypeAssignment) -> int:
    """chi of the link at x1 without materializing it: the sum of the TRUE
    orbits' link_x1_deltas, which the assignment tracks."""
    _require_full(a)
    return a.chi_link


@dataclass(frozen=True)
class FixedPointComplex:
    """The complex over a subgroup's variable-orbit blocks whose faces are
    the block collections with TRUE union."""

    blocks: tuple[int, ...]            # block masks, ordered by smallest point
    faces: tuple[tuple[int, ...], ...]  # nonempty faces as block-index tuples
    euler: int

    @property
    def block_points(self) -> list[list[int]]:
        return [points_from_mask(b) for b in self.blocks]


def fixed_point_complex(a: TypeAssignment, sub: PermGroup) -> FixedPointComplex:
    """Build the fixed-point complex of ``sub`` on the assignment.

    Raises IndeterminateFace when a FREE orbit governs some union of
    blocks; partial assignments are usable only when every union is
    determined.
    """
    if sub.degree != a.table.n:
        raise ValueError("subgroup degree does not match the orbit table")
    blocks = block_masks(sub)
    unions = subset_unions(blocks)
    faces = []
    chi = 0
    for s in range(1, len(unions)):
        state = a.state(a.table.orbit_of(unions[s]))
        if state == FREE:
            raise IndeterminateFace(
                f"union of blocks {bin(s)} is governed by a FREE orbit")
        if state == TRUE:
            idxs = tuple(iter_bits(s))
            faces.append(idxs)
            chi += (-1) ** (len(idxs) + 1)
    return FixedPointComplex(blocks=blocks, faces=tuple(faces), euler=chi)
