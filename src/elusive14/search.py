"""Backtracking case analysis over orbit-type assignments.

Every node of the search is a monotone-consistent partial TypeAssignment:
two int bitsets over orbit ids plus the Euler characteristics of the
encoded complex and of its link at x1.  Each schedule entry is one of the
ten non-identity subgroups of G6, whose fixed-point complex must satisfy
an Euler condition.  The identity's condition is chi(Delta) = 1 itself, so
it gets no entry: the leaf after the last entry enumerates the remaining
free orbits against chi(Delta) = 1 and tests the survivors against
chi(Link(Delta, x1)) = 1.

Checks and leaves share one enumeration kernel on plain ints.  It counts
the completions of the orbits it resolves (a check's free governed
orbits, a leaf's every free orbit), tallied by the weight they add and
memoized by the set of orbits still free; then it emits the cases kept,
the tally keys that meet the test, by following that memo into the
branches whose tallies hold one.  A check's weight is each orbit's term
in its fixed-point chi, a leaf's the chi and link chi deltas.  An engine
resolves each leaf state once, into counters and survivors of the leaf's
own; every visit to that state, the first included, adds those counters
to its run's and returns those survivors.
"""

from __future__ import annotations

from collections import namedtuple

from . import InputError
from .complexes import TypeAssignment, chi_deltas, link_x1_deltas
from .orbits import (OrbitPoset, OrbitTable, block_masks, iter_bits,
                     subset_unions)
from .perm import PermGroup


class CaseCapExceeded(InputError, RuntimeError):
    """A single check tried to enumerate more than CASE_CAP cases."""


CASE_CAP = 1 << 20


# A subgroup's Euler condition and the precomputed mapping from its block
# unions to governed orbits: condition is ("exact", 1) or ("mod", q),
# governed the bitset of the orbits of all block unions, weight[o] orbit
# o's term in the fixed-point complex's alternating sum (0 off the governed
# orbits), and unions[s] the union of the blocks in s.
SubgroupCheck = namedtuple(
    "SubgroupCheck", "name condition governed weight unions")


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
    weight = [0] * table.orbit_count
    governed = 0
    for s in range(1, len(unions)):
        o = table.orbit_of(unions[s])
        governed |= 1 << o
        weight[o] += (-1) ** (s.bit_count() + 1)
    return SubgroupCheck(
        name=name, condition=condition, governed=governed,
        weight=tuple(weight), unions=unions)


# a named visiting order: the SubgroupChecks in the order the search runs them
Schedule = namedtuple("Schedule", "name checks")


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

    def add(self, other: "SearchStats") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class SearchReport(namedtuple("SearchReport",
                              "schedule link_check feasible_functions stats")):
    __slots__ = ()

    @property
    def verified(self) -> bool:
        return not self.feasible_functions


class SearchEngine:
    """The orbit table, its poset and chi deltas, the enumeration kernel
    that counts and emits a check's and a leaf's cases, and a memo of
    resolved leaves, each held as the leaf's own SearchStats and survivors.
    A leaf state is the closure of the T/F values on every governed orbit,
    whatever order the checks ran in, so all schedules run on one engine
    share its leaves."""

    def __init__(self, table: OrbitTable, poset: OrbitPoset):
        self.table = table
        self.poset = poset
        self.chi_delta = chi_deltas(table)
        self.link_delta = link_x1_deltas(table)
        # an orbit's chi and link chi deltas packed in one int, link chi in
        # the low link_shift bits as a signed offset: link chi counts faces
        # that contain x1, so every sum of link deltas lies within +-2^(n-1),
        # inside the +-2^n that the low bits hold, and a sum of packed
        # deltas is the packed pair of sums
        self.link_shift = table.n + 1
        self.packed_delta = [(c << self.link_shift) + lk for c, lk
                             in zip(self.chi_delta, self.link_delta)]
        self.top_oid = table.oid(f"{table.n}.0")
        # (t_bits, f_bits, link_check) -> (the leaf's own SearchStats, its
        # survivors as a tuple of TypeAssignments)
        self.leaves: dict[tuple[int, int, bool], tuple[SearchStats, tuple]] = {}

    def initial_state(self) -> TypeAssignment:
        """All orbits free except the full-set orbit, pinned FALSE (a TRUE
        full set would make the function constant); no orbit lies above it."""
        return TypeAssignment(self.table, self.poset, 0, 1 << self.top_oid, 0, 0)

    def subgroup_chi(self, t_bits: int, check: SubgroupCheck) -> int:
        """chi of the check's fixed-point complex on the TRUE orbits
        ``t_bits``, a governed orbit still free counting as FALSE."""
        return sum(check.weight[o] for o in iter_bits(t_bits & check.governed))

    def enumerate_cases(self, st: TypeAssignment, check: SubgroupCheck,
                        stats: SearchStats) -> list[TypeAssignment]:
        """All assignments of the check's free governed orbits that survive
        closure and meet the check's Euler condition.  The count tallies
        the completions by the chi they add to the fixed-point complex; the
        cases of each tally key that meets the condition, in ascending
        order, are emitted in the kernel's order."""
        free = check.governed & ~(st.t_bits | st.f_bits)
        memo = self._count(free, check.weight, check.name)
        tally, total = memo[free][:2]
        base = self.subgroup_chi(st.t_bits, check)
        out: list[TypeAssignment] = []
        for k in sorted(tally):
            if condition_met(check.condition, base + k):
                out += self._emit(st, memo, free, k)
        stats.cases_enumerated += len(out)
        stats.prunes_by_chi += total - len(out)
        return out

    def _count(self, free: int, weight, what: str) -> dict:
        """Tally the completions of a closed state whose free orbits are the
        bitset ``free``.  The returned memo maps ``free``, and each set R of
        orbits still free on the way, to ``(tally, total, add, delta)``: a
        dict from the sum of ``weight`` over the orbits of R that a
        completion turns TRUE to the number of completions with that sum,
        the number of all of them, and R's branch.  R branches on its lowest
        orbit o: TRUE turns ``add = lower[o] & R``, of summed weight
        ``delta``, TRUE, and FALSE leaves ``R & ~upper[o]`` free.  A closed
        state has no FALSE orbit below a free one and no TRUE orbit above
        one, so this is exact, also when ``free`` is only some of the free
        orbits.  Each entry's total is at most the count's, so the count
        raises CaseCapExceeded, named by ``what``, exactly when its total
        exceeds CASE_CAP: at the first entry that does, before anything is
        kept."""
        lower, upper = self.poset.lower, self.poset.upper
        memo = {0: ({0: 1}, 1, 0, 0)}

        def count(R: int) -> tuple[dict, int, int, int]:
            o = (R & -R).bit_length() - 1
            add = lower[o] & R
            delta, rem = 0, add
            while rem:
                b = rem & -rem
                rem ^= b
                delta += weight[b.bit_length() - 1]
            yes = memo.get(R ^ add) or count(R ^ add)
            no = memo.get(R & ~upper[o]) or count(R & ~upper[o])
            total = yes[1] + no[1]
            if total > CASE_CAP:
                raise CaseCapExceeded(f"{what}: more than {CASE_CAP} cases")
            tally = dict(no[0])
            for k, n in yes[0].items():
                k += delta
                tally[k] = tally.get(k, 0) + n
            memo[R] = (tally, total, add, delta)
            return memo[R]

        try:
            if free:
                count(free)
        finally:
            # count holds itself through its closure cell; breaking that
            # cycle frees the memo with the caller's last reference to it,
            # not at the cycle collector's pass
            del count
        return memo

    def _emit(self, st: TypeAssignment, memo: dict, free: int,
              want: int) -> list[TypeAssignment]:
        """The completions of ``st`` counted in ``memo`` from ``free`` whose
        summed weight is ``want``, in the kernel's order, lowest orbit and
        TRUE first.  The walk follows the memo, entering a branch only when
        its tally holds the weight a case still needs, and carries the
        whole state: TRUE turns ``lower[o]`` TRUE with its chi and link chi
        deltas, FALSE turns ``upper[o]`` FALSE."""
        table, poset = self.table, self.poset
        lower, upper = poset.lower, poset.upper
        chi_delta, link_delta = self.chi_delta, self.link_delta
        out: list[TypeAssignment] = []
        # the stack pushes FALSE before TRUE, so TRUE comes out first
        todo = ([(free, want, st.t_bits, st.f_bits, st.chi, st.chi_link)]
                if want in memo[free][0] else [])
        while todo:
            R, want, t, f, chi, link = todo.pop()
            if not R:
                out.append(TypeAssignment(table, poset, t, f, chi, link))
                continue
            add, delta = memo[R][2:]
            o = (R & -R).bit_length() - 1
            if want in memo[R & ~upper[o]][0]:
                todo.append((R & ~upper[o], want, t, f | upper[o], chi, link))
            if want - delta in memo[R ^ add][0]:
                rem = lower[o] & ~t
                t |= rem
                while rem:
                    b = rem & -rem
                    rem ^= b
                    i = b.bit_length() - 1
                    chi += chi_delta[i]
                    link += link_delta[i]
                todo.append((R ^ add, want - delta, t, f, chi, link))
        return out

    def leaf_survivors(self, st: TypeAssignment, stats: SearchStats,
                       link_check: bool = True) -> list[TypeAssignment]:
        """Resolve all remaining free orbits against chi(Delta) = 1, then
        test chi(Link(Delta, x1)) = 1 on each chi-feasible assignment.  The
        first visit to a state on this engine counts its completions by
        their chi and link chi deltas into the leaf's own SearchStats, and
        emits its kept cases from the count's memo; it keeps both.  Every
        visit adds those counters to ``stats`` and returns the survivors.
        A leaf of more than CASE_CAP completions raises CaseCapExceeded,
        keeps nothing and leaves ``stats`` as it was."""
        key = (st.t_bits, st.f_bits, link_check)
        if key not in self.leaves:
            everything = (1 << self.table.orbit_count) - 2
            free = everything & ~(st.t_bits | st.f_bits)
            # tally by packed (chi, link chi) deltas under the link test and
            # by chi deltas alone without it
            if link_check:
                shift, weight, link_on = self.link_shift, self.packed_delta, 1
            else:
                shift, weight, link_on = 0, self.chi_delta, 0
            memo = self._count(free, weight, "leaf")
            tally, total = memo[free][:2]
            half = (1 << shift) >> 1
            own = SearchStats()
            own.leaf_assignments = total
            own.leaf_chi1 = sum(n for k, n in tally.items()
                                if (k + half) >> shift == 1 - st.chi)
            own.prunes_by_chi = total - own.leaf_chi1
            # a kept case has chi 1 and, under the link test, link chi 1
            want = ((1 - st.chi) << shift) + link_on * (1 - st.chi_link)
            survivors = self._emit(st, memo, free, want)
            own.prunes_by_link = own.leaf_chi1 - len(survivors)
            self.leaves[key] = (own, tuple(survivors))
        own, found = self.leaves[key]
        stats.add(own)
        return list(found)


def _walk(engine: SearchEngine, checks: tuple[SubgroupCheck, ...],
          st: TypeAssignment, depth: int, stats: SearchStats,
          link_check: bool) -> list[TypeAssignment]:
    stats.nodes_explored += 1
    if depth == len(checks):
        return engine.leaf_survivors(st, stats, link_check=link_check)
    found: list[TypeAssignment] = []
    for child in engine.enumerate_cases(st, checks[depth], stats):
        found.extend(_walk(engine, checks, child, depth + 1, stats,
                           link_check))
    return found


def run_search(engine: SearchEngine, schedule: Schedule,
               link_check: bool = True) -> SearchReport:
    """Depth-first search over the whole schedule; returns the report with
    every surviving full assignment (expected: none)."""
    stats = SearchStats()
    found = _walk(engine, schedule.checks, engine.initial_state(), 0, stats,
                  link_check)
    found.sort(key=lambda s: s.t_bits)
    labels = [(o, engine.table.label(o))
              for o in range(1, engine.table.orbit_count)]
    return SearchReport(
        schedule=schedule.name, link_check=link_check,
        # canonical label -> T/F map of each surviving full assignment
        feasible_functions=[{label: s.state(o) for o, label in labels}
                            for s in found],
        stats=stats)
