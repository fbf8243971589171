"""Backtracking case analysis over orbit-type assignments.

Every node of the search is a monotone-consistent partial TypeAssignment:
two int bitsets over orbit ids plus the Euler characteristics of the
encoded complex and of its link at x1, which propagation updates as orbits
turn TRUE.  Each schedule entry is one of the ten non-identity subgroups
of G6, whose fixed-point complex must satisfy an Euler condition.  The
identity's condition is chi(Delta) = 1 itself, so it gets no entry: the
leaf after the last entry enumerates the remaining free orbits against
chi(Delta) = 1 and tests the survivors against chi(Link(Delta, x1)) = 1.

A subgroup check and the leaf run one completion recursion, which assigns
the free orbits in id order with propagation and hands every complete
case to a leaf test of its own.
"""

from __future__ import annotations

from collections import namedtuple

from . import InputError
from .complexes import FALSE, TRUE, TypeAssignment, chi_deltas, link_x1_deltas
from .orbits import OrbitPoset, OrbitTable, block_masks, subset_unions
from .perm import PermGroup


class CaseCapExceeded(InputError, RuntimeError):
    """A single check tried to enumerate more than CASE_CAP cases."""


CASE_CAP = 1 << 20


# A subgroup's Euler condition and the precomputed mapping from its block
# unions to governed orbits: condition is ("exact", 1) or ("mod", q),
# governed the orbit ids of all block unions, weights the (orbit id,
# alternating-sum weight) pairs, and unions[s] the union of the blocks in s.
SubgroupCheck = namedtuple(
    "SubgroupCheck", "name condition governed weights unions")


def condition_met(condition: tuple[str, int], chi: int) -> bool:
    kind, value = condition
    if kind == "exact":
        return chi == value
    if kind == "mod":
        return chi % value == 1 % value
    raise ValueError(f"unknown condition kind {kind!r}")


def build_check(table: OrbitTable, sub: PermGroup, name: str,
                condition: tuple[str, int]) -> SubgroupCheck:
    """Precompute governed orbits and chi weights for one subgroup."""
    unions = tuple(subset_unions(block_masks(sub)))
    weights: dict[int, int] = {}
    for s in range(1, len(unions)):
        o = table.orbit_of(unions[s])
        weights[o] = weights.get(o, 0) + (-1) ** (s.bit_count() + 1)
    return SubgroupCheck(
        name=name, condition=condition,
        governed=tuple(sorted(weights)), weights=tuple(sorted(weights.items())),
        unions=unions)


# ordered subgroup checks by name
Schedule = namedtuple("Schedule", "name order")


class SearchStats:
    __slots__ = ("nodes_explored", "cases_enumerated", "prunes_by_conflict",
                 "prunes_by_chi", "prunes_by_link", "leaf_assignments",
                 "leaf_chi1")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, SearchStats) and all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__)


class SearchReport(namedtuple("SearchReport",
                              "schedule link_check feasible_functions stats")):
    __slots__ = ()

    @property
    def verified(self) -> bool:
        return not self.feasible_functions


class SearchEngine:
    """Shared immutable context plus the propagation/enumeration kernels."""

    def __init__(self, table: OrbitTable, poset: OrbitPoset,
                 checks: dict[str, SubgroupCheck]):
        self.table = table
        self.poset = poset
        self.checks = checks
        self.chi_delta = chi_deltas(table)
        self.link_delta = link_x1_deltas(table)
        self.top_oid = table.oid(f"{table.n}.0")

    def initial_state(self) -> TypeAssignment:
        """All orbits free except the full-set orbit, pinned FALSE (a TRUE
        full set would make the function constant); no orbit lies above it."""
        return TypeAssignment(self.table, self.poset, 0, 1 << self.top_oid, 0, 0)

    def propagate(self, st: TypeAssignment, oid: int, value: str,
                  stats: SearchStats) -> TypeAssignment | None:
        """Assign one orbit and close monotonically; None signals a pruned
        branch (some orbit would need both values)."""
        if value == TRUE:
            add = self.poset.lower[oid] & ~st.t_bits
            if add & st.f_bits:
                stats.prunes_by_conflict += 1
                return None
            chi, link = st.chi, st.chi_link
            # lowest-bit loop kept inline: this is the search's hot path
            rem = add
            while rem:
                b = rem & -rem
                rem ^= b
                i = b.bit_length() - 1
                chi += self.chi_delta[i]
                link += self.link_delta[i]
            return TypeAssignment(self.table, self.poset, st.t_bits | add,
                                  st.f_bits, chi, link)
        add = self.poset.upper[oid] & ~st.f_bits
        if add & st.t_bits:
            stats.prunes_by_conflict += 1
            return None
        return TypeAssignment(self.table, self.poset, st.t_bits,
                              st.f_bits | add, st.chi, st.chi_link)

    def subgroup_chi(self, st: TypeAssignment, check: SubgroupCheck) -> int:
        return sum(w for o, w in check.weights if st.t_bits >> o & 1)

    def _complete(self, st: TypeAssignment, orbits, leaf, stats: SearchStats,
                  what: str) -> None:
        """Call ``leaf`` on every assignment of the still-free ``orbits``
        that survives propagation; orbits are branched in the given order,
        TRUE first.  More than CASE_CAP complete cases raise
        CaseCapExceeded."""
        assigned = st.t_bits | st.f_bits
        free = [o for o in orbits if not assigned >> o & 1]
        budget = CASE_CAP

        def rec(s: TypeAssignment, k: int) -> None:
            nonlocal budget
            done = s.t_bits | s.f_bits
            while k < len(free) and done >> free[k] & 1:
                k += 1
            if k == len(free):
                budget -= 1
                if budget < 0:
                    raise CaseCapExceeded(f"{what}: more than {CASE_CAP} cases")
                leaf(s)
                return
            o = free[k]
            for value in (TRUE, FALSE):
                child = self.propagate(s, o, value, stats)
                if child is not None:
                    rec(child, k + 1)

        rec(st, 0)

    def enumerate_cases(self, st: TypeAssignment, check: SubgroupCheck,
                        stats: SearchStats) -> list[TypeAssignment]:
        """All assignments of the check's free governed orbits that survive
        propagation and meet the check's Euler condition."""
        out: list[TypeAssignment] = []

        def leaf(s: TypeAssignment) -> None:
            if condition_met(check.condition, self.subgroup_chi(s, check)):
                out.append(s)
            else:
                stats.prunes_by_chi += 1

        self._complete(st, check.governed, leaf, stats, check.name)
        stats.cases_enumerated += len(out)
        return out

    def leaf_survivors(self, st: TypeAssignment, stats: SearchStats,
                       link_check: bool = True) -> list[TypeAssignment]:
        """Resolve all remaining free orbits against chi(Delta) = 1, then
        test chi(Link(Delta, x1)) = 1 on each chi-feasible assignment."""
        survivors: list[TypeAssignment] = []

        def leaf(s: TypeAssignment) -> None:
            stats.leaf_assignments += 1
            if s.chi != 1:
                stats.prunes_by_chi += 1
                return
            stats.leaf_chi1 += 1
            if link_check and s.chi_link != 1:
                stats.prunes_by_link += 1
            else:
                survivors.append(s)

        self._complete(st, range(1, self.table.orbit_count), leaf, stats,
                       "leaf")
        return survivors

    def schedule_checks(self, schedule: Schedule) -> list[SubgroupCheck]:
        if sorted(schedule.order) != sorted(self.checks):
            raise ValueError("schedule must list every subgroup check exactly once")
        return [self.checks[name] for name in schedule.order]


def _walk(engine: SearchEngine, checks: list[SubgroupCheck], st: TypeAssignment,
          depth: int, stats: SearchStats, link_check: bool,
          audit=None) -> list[TypeAssignment]:
    stats.nodes_explored += 1
    if audit is not None:
        audit(st)
    if depth == len(checks):
        return engine.leaf_survivors(st, stats, link_check=link_check)
    found: list[TypeAssignment] = []
    for child in engine.enumerate_cases(st, checks[depth], stats):
        found.extend(_walk(engine, checks, child, depth + 1, stats,
                           link_check, audit))
    return found


def run_search(engine: SearchEngine, schedule: Schedule, link_check: bool = True,
               audit=None) -> SearchReport:
    """Depth-first search over the whole schedule; returns the report with
    every surviving full assignment (expected: none)."""
    checks = engine.schedule_checks(schedule)
    stats = SearchStats()
    found = _walk(engine, checks, engine.initial_state(), 0, stats,
                  link_check, audit)
    found.sort(key=lambda s: s.t_bits)
    labels = [(o, engine.table.label(o))
              for o in range(1, engine.table.orbit_count)]
    return SearchReport(
        schedule=schedule.name, link_check=link_check,
        # canonical label -> T/F map of each surviving full assignment
        feasible_functions=[{label: s.state(o) for o, label in labels}
                            for s in found],
        stats=stats)
