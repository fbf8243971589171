"""Independent ground truth: elusiveness decided by the adversary
recursion, exact decision-tree depth, exhaustive small-arity sweeps, and the
restriction lemma check.

Both recursions walk restrictions (assigned mask, answered mask) of the
variable set and share one memo.  There is one key scheme
(``OrbitKeys``): a restriction's key is the radix-3 index, one digit per
variable (free / answered 0 / answered 1), of its image under an element of
the function's invariance group G that carries its assigned mask to the
least mask of that mask's orbit.  Restrictions with equal keys are G-images
of each other and have the same depth, so isomorphic subproblems share one
memo entry and every free variable can be queried.  A function without a
group gets the keys of the trivial group of its arity, which are the plain
radix-3 indices.  The same tables check a given group: the truth table is
G-invariant iff it is constant on every mask orbit.

The decision pass comes first.  A restriction is evasive (its depth equals
its number of free variables) iff it has no free variable, or it is
nonconstant and every free query has an answer whose child is evasive; the
pass stops at the first query whose two children are both non-evasive.
Only a non-evasive restriction falls back to the exact minimax, which then
finds its evasive children already settled.

The oracle deliberately leaves out the Rivest-Vuillemin parity shortcut
(a restriction whose true inputs have a nonzero signed count is evasive).
At the x1 = 1 child that shortcut is the link lemma the search relies on,
and the oracle's worth is that it reaches its verdict without it.

For monotone functions, constancy on a subcube reduces to comparing the
all-zeros and all-ones completions, which is what makes arity 14 tractable.

The small-arity sweep decides one function per class under relabelling
the variables, and runs its n!-permutation invariance scan only on
functions whose variables each lie in the same number of true inputs.
"""

from __future__ import annotations

import random
import weakref
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from operator import itemgetter, or_

from .orbits import (OrbitPoset, OrbitTable, action_table, iter_bits,
                     subset_unions)
from .perm import Permutation, PermGroup, closure


class ArityError(ValueError):
    """Function too wide for the 3^n restriction table."""


MAX_ARITY = 14

# memo entries other than an exact depth 0..n
NOT_EVASIVE = 0xFE
UNFILLED = 0xFF


class BooleanFunction:
    """A boolean function given by its full truth table over subset masks.

    ``monotone`` asserts the function is monotone (in either direction),
    which licenses the two-completion constancy shortcut.  ``group``, when
    set, is a permutation group of the variables that the function is
    invariant under; the depth solver checks it and keys its memo by
    G-orbits of restrictions.  ``orbit_table``, set by ``from_orbit_types``,
    is the group's ``OrbitTable``, from which the solver builds its keys
    rather than from a table of its own.
    """

    __slots__ = ("n", "table", "monotone", "group", "orbit_table")

    def __init__(self, n: int, table: bytes | bytearray, monotone: bool = False,
                 group: PermGroup | None = None):
        if len(table) != 1 << n:
            raise ValueError("truth table length must be 2^n")
        self.n = n
        self.table = bytes(table)
        self.monotone = monotone
        self.group = group
        self.orbit_table: OrbitTable | None = None

    def __call__(self, mask: int) -> int:
        return self.table[mask]

    @classmethod
    def from_bitvector(cls, n: int, bits: int, monotone: bool = False) -> "BooleanFunction":
        return cls(n, bytes((bits >> m) & 1 for m in range(1 << n)), monotone)

    @classmethod
    def from_orbit_types(cls, table: OrbitTable, t_bits: int) -> "BooleanFunction":
        """Function whose true inputs are the empty input and the members of
        the TRUE orbits, which must be closed downward (``ValueError``)."""
        tab = bytearray(1 << table.n)
        tab[0] = 1
        for o in range(1, table.orbit_count):
            if t_bits >> o & 1:
                # ids run up the levels, so the smaller subsets are already
                # set; the table is G-invariant, so one member per orbit will do
                m = table.members[o][0]
                if not all(tab[m ^ 1 << i] for i in range(table.n) if m >> i & 1):
                    raise ValueError(f"TRUE orbit {table.label(o)} is above a "
                                     "FALSE one")
                for m in table.members[o]:
                    tab[m] = 1
        f = cls(table.n, tab, monotone=True, group=table.group)
        f.orbit_table = table
        return f

    def restricted_true(self, v: int) -> "BooleanFunction":
        """The function with variable x_v (1-based) answered 1, on the
        remaining n-1 variables."""
        bit = 1 << (v - 1)
        low = bit - 1
        tab = bytearray(1 << (self.n - 1))
        for m in range(1 << (self.n - 1)):
            expanded = (m & low) | ((m & ~low) << 1) | bit
            tab[m] = self.table[expanded]
        return BooleanFunction(self.n - 1, tab, monotone=self.monotone)


def _scatter(target, positions, values) -> None:
    """target[p] = v for each pair, in order, at C speed."""
    deque(map(target.__setitem__, positions, values), maxlen=0)


class OrbitKeys:
    """Memo keys of restrictions (assigned mask A, values mask V) that G
    carries onto each other.

    ``least[A]`` is the least mask of A's orbit.  ``rows[A]`` is a triple
    ``(base, lo, hi)`` for an element g of G that maps A to ``least[A]``:
    ``base`` is the radix-3 index of ``least[A]`` with every variable
    answered 0, and ``lo[V & low] + hi[V >> half]`` raises the digit of
    each point of gV from 1 to 2.  The key of (A, V) is the radix-3 index
    of (gA, gV), one digit per variable (free / answered 0 / answered 1).
    Equal keys mean gA = g'A' and gV = g'V', so g'^-1 g carries one
    restriction onto the other, and a G-invariant function has the same
    depth on both.  The keys need not be complete: the stabilizer of the
    least mask may still move gV.  Under the trivial group the key is the
    plain radix-3 index of (A, V).  Both come from the group's OrbitTable,
    the elements g from the images of its orbits' least masks alone.
    """

    __slots__ = ("least", "rows", "half", "low")

    def __init__(self, table: OrbitTable):
        n = table.n
        elements = table.group.elements
        index = {g: k for k, g in enumerate(elements)}
        inverse = [index[g.inverse()] for g in elements]
        self.half = half = n // 2
        self.low = low = (1 << half) - 1
        # radix[M]: the radix-3 index of M with every point answered 0
        radix = [0]
        for i in range(n):
            w = 3 ** i
            radix += [x + w for x in radix]
        # mask images under each element, half a mask at a time, kept as
        # 16-bit arrays while the build lasts; the key tables reuse radix's
        # int objects rather than making their own
        bits = [[1 << p for p in g.images] for g in elements]
        lo_img = [array("H", subset_unions(b[:half])) for b in bits]
        hi_img = [array("H", subset_unions(b[half:])) for b in bits]
        lo = [list(map(radix.__getitem__, t)) for t in lo_img]
        hi = [list(map(radix.__getitem__, t)) for t in hi_img]
        trans = [0] * (1 << n)
        inverse.reverse()
        for m in table.min_mask:
            # element k carries the orbit's least mask to images[k], and the
            # inverse of k carries that image back; written in reverse, the
            # first such k is the one that stays
            images = list(map(or_, map(itemgetter(m & low), lo_img),
                              map(itemgetter(m >> half), hi_img)))
            images.reverse()
            _scatter(trans, images, inverse)
        self.least = least = list(map(table.min_mask.__getitem__,
                                      map(table.orbit_of, range(1 << n))))
        # one triple per mask: the decision pass reads a child's key from
        # one list lookup
        self.rows = [(radix[x], lo[k], hi[k]) for x, k in zip(least, trans)]

    def key(self, assigned: int, values: int) -> int:
        base, lo, hi = self.rows[assigned]
        return base + lo[values & self.low] + hi[values >> self.half]


# one OrbitKeys per group, shared by the solvers of its functions and
# dropped with the group; built from the group's OrbitTable, a new one if
# the function carries none
_keys_of_group: "weakref.WeakKeyDictionary[PermGroup, OrbitKeys]" = (
    weakref.WeakKeyDictionary())


def _orbit_keys(group: PermGroup, table: OrbitTable | None) -> OrbitKeys:
    if group not in _keys_of_group:
        _keys_of_group[group] = OrbitKeys(table or OrbitTable(group))
    return _keys_of_group[group]


@cache
def _identity_keys(n: int) -> OrbitKeys:
    """The keys of group-less functions of arity n: the trivial group's."""
    return OrbitKeys(OrbitTable.of_identity(n))


class DepthSolver:
    """Evasiveness by the adversary recursion, with memoized minimax for
    the exact depth of non-evasive restrictions.

    ``memo[key]`` holds a restriction's exact depth (an evasive one's is
    its free count), ``NOT_EVASIVE`` once the decision pass has shown its
    depth is below its free count, or ``UNFILLED``.  The key is the
    ``OrbitKeys`` key of the function's group, shared by restrictions that
    G carries onto each other; a function without a group gets the trivial
    group's keys, which are the plain radix-3 indices.  A function's group
    is checked against its table through the same keys: the table must be
    constant on every mask orbit.
    """

    def __init__(self, f: BooleanFunction):
        if f.n > MAX_ARITY:
            raise ArityError(f"arity {f.n} exceeds the {MAX_ARITY} limit")
        self.n = f.n
        self.full = (1 << f.n) - 1
        self.memo = bytearray([UNFILLED]) * (3 ** f.n)
        group = f.group
        if group is None:
            keys = _identity_keys(f.n)
        elif group.degree != f.n:
            raise ValueError(f"group degree {group.degree} does not match "
                             f"arity {f.n}")
        else:
            keys = _orbit_keys(group, f.orbit_table)
            if bytes(map(f.table.__getitem__, keys.least)) != f.table:
                raise ValueError(f"truth table is not invariant under "
                                 f"{group!r}")
        self.keys = keys
        # the decision pass reads these from the solver, one attribute each
        self.table, self.monotone = f.table, f.monotone
        self.rows, self.low, self.half = keys.rows, keys.low, keys.half

    def _constant(self, assigned: int, values: int) -> bool:
        table = self.table
        if self.monotone:
            return table[values] == table[values | (self.full ^ assigned)]
        # a plain loop: a generator here would turn table and values into
        # closure cells and slow the monotone branch on every call
        first = table[values]
        for s in _submasks(self.full ^ assigned):
            if table[values | s] != first:
                return False
        return True

    def _evasive(self, assigned: int, values: int, key: int,
                 free: int) -> bool:
        memo = self.memo
        r = memo[key]
        if r != UNFILLED:
            return r == free
        table = self.table
        rem = self.full ^ assigned
        # the monotone test of _constant, inline: this is the oracle's hot
        # path
        if (table[values] == table[values | rem] if self.monotone
                else self._constant(assigned, values)):
            memo[key] = 0
            return free == 0
        rows, low, half = self.rows, self.low, self.half
        evasive = self._evasive
        sub = free - 1
        # lowest-bit loop kept inline for the same reason
        while rem:
            b = rem & -rem
            rem ^= b
            a = assigned | b
            base, lo, hi = rows[a]
            v = values | b
            # most children are memo hits, so look them up before recursing
            c = base + lo[v & low] + hi[v >> half]
            r = memo[c]
            if r == sub or (r == UNFILLED and evasive(a, v, c, sub)):
                continue
            c = base + lo[values & low] + hi[values >> half]
            r = memo[c]
            if r == sub or (r == UNFILLED and evasive(a, values, c, sub)):
                continue
            memo[key] = NOT_EVASIVE
            return False
        memo[key] = free
        return True

    def evasive(self) -> bool:
        """Whether the function has full decision-tree depth."""
        return self._evasive(0, 0, self.keys.key(0, 0), self.n)

    def depth(self, assigned: int = 0, values: int = 0) -> int:
        """Exact depth of the restriction with the variables in ``assigned``
        answered, those in ``values`` with 1 and the rest with 0."""
        return self._depth(assigned, values, self.keys.key(assigned, values))

    def _depth(self, assigned: int, values: int, key: int) -> int:
        memo = self.memo
        free = self.n - assigned.bit_count()
        if self._evasive(assigned, values, key, free):
            return free
        r = memo[key]
        if r != NOT_EVASIVE:
            return r
        # non-evasive, so some query reaches depth <= free - 1
        best = free
        depth, key_of = self._depth, self.keys.key
        rem = self.full ^ assigned
        # lowest-bit loop kept inline: the exact minimax is a hot path too
        while rem:
            b = rem & -rem
            rem ^= b
            a = assigned | b
            d1 = depth(a, values | b, key_of(a, values | b))
            if d1 + 1 < best:
                d0 = depth(a, values, key_of(a, values))
                d = (d0 if d0 > d1 else d1) + 1
                if d < best:
                    best = d
                    if best == 1:
                        break
        memo[key] = best
        return best

    def adversary_path(self) -> list[tuple[int, int]]:
        """A worst-case play: at each restriction the solver queries the
        least variable that reaches the optimum, and the adversary answers
        toward the deeper subtree.  Returns (variable, answer) pairs,
        1-based variables.

        From an evasive restriction every query is optimal and has an
        evasive child, so the play takes the lowest free variable and
        answers 1 exactly when the 1-child is evasive; no exact depth of a
        non-evasive child is needed."""
        if self.evasive():
            return self._evasive_path()
        path: list[tuple[int, int]] = []
        assigned = values = 0
        while not self._constant(assigned, values):
            target = self.depth(assigned, values)
            for i in iter_bits(self.full ^ assigned):
                b = 1 << i
                d0 = self.depth(assigned | b, values)
                d1 = self.depth(assigned | b, values | b)
                if 1 + max(d0, d1) == target:
                    break
            answer = 1 if d1 >= d0 else 0
            path.append((i + 1, answer))
            assigned |= b
            values |= b * answer
        return path

    def _evasive_path(self) -> list[tuple[int, int]]:
        # with x1..xi assigned, the lowest free variable is x(i+1)
        path: list[tuple[int, int]] = []
        values = 0
        for i in range(self.n):
            b = 1 << i
            child = (2 * b - 1, values | b)
            answer = int(self._evasive(*child, self.keys.key(*child),
                                       self.n - 1 - i))
            values |= b * answer
            path.append((i + 1, answer))
        return path


def decision_tree_depth(f: BooleanFunction) -> int:
    """Minimum over decision trees of the worst-case number of queries."""
    return DepthSolver(f).depth()


def _submasks(mask: int):
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def is_elusive(f: BooleanFunction) -> bool:
    return DepthSolver(f).evasive()


def _bit_mover(targets: list[int]):
    """The map that sends bit m of an integer to bit ``targets[m]``, a byte
    at a time."""
    chunks = [subset_unions([1 << t for t in targets[i:i + 8]])
              for i in range(0, len(targets), 8)]

    def move(bits: int) -> int:
        out = 0
        for chunk in chunks:
            out |= chunk[bits & 0xFF]
            bits >>= 8
        return out

    return move


def enumerate_monotone(n: int) -> list[int]:
    """All monotone non-increasing functions on n variables as truth-table
    bitvectors (bit m = value on input mask m).  The order is lexicographic
    in the values on the masks taken by (size, value), false before true."""
    # a down-set on k + 1 variables is a pair of down-sets on k variables,
    # f0 where x_{k+1} is false and f1 where it is true, with f1 inside f0
    down = [0, 1]
    for k in range(n):
        shift = 1 << k
        down = [f0 | f1 << shift for f0 in down for f1 in down
                if not f1 & ~f0]
    # the sort key moves the first mask's bit to the top, and so on down
    top = (1 << n) - 1
    targets = [0] * (1 << n)
    for pos, m in enumerate(sorted(range(1 << n),
                                   key=lambda m: (m.bit_count(), m))):
        targets[m] = top - pos
    return sorted(down, key=_bit_mover(targets))


def _relabelling_classes(n: int, functions: list[int]) -> dict[int, int]:
    """Each truth-table bitvector of ``functions`` (closed under relabelling
    the n variables) mapped to the first member in ``functions`` of its
    class.  A transposition and an n-cycle generate S_n, so the classes are
    the closures under their truth-table images."""
    maps = []
    if n > 1:
        swap = (1, 0) + tuple(range(2, n))
        cycle = tuple(range(1, n)) + (0,)
        maps = [_bit_mover(action_table(Permutation(p)))
                for p in (swap, cycle)]
    rep_of: dict[int, int] = {}
    for fbits in functions:
        if fbits not in rep_of:
            rep_of.update(dict.fromkeys(closure((fbits,), maps), fbits))
    return rep_of


def euler_of_bitvector(n: int, fbits: int) -> int:
    """Euler characteristic of the complex of true inputs (empty face
    excluded)."""
    return sum((-1) ** (m.bit_count() + 1) for m in range(1, 1 << n)
               if fbits >> m & 1)


class SymmetryScan:
    """Weak symmetry (a transitive invariance group) of truth-table
    bitvectors on n variables."""

    def __init__(self, n: int):
        self.full = (1 << n) - 1
        self.actions = [action_table(Permutation(p))
                        for p in permutations(range(n))]
        # var_pos[i]: the masks containing x_{i+1}, as a bitvector
        self.var_pos = [sum(1 << m for m in range(1 << n) if m >> i & 1)
                        for i in range(n)]

    def screen(self, fbits: int) -> bool:
        """Every variable lies in the same number of true inputs, which a
        sigma in Aut(f) with sigma(i) = j forces for i and j."""
        return len({(fbits & v).bit_count() for v in self.var_pos}) == 1

    def __call__(self, fbits: int) -> bool:
        if not self.screen(fbits):
            return False
        reached = 0
        for t in self.actions:
            # t[1] is the image of {x1}; one invariant sigma per image will do
            if not t[1] & reached and all(fbits >> t[m] & 1 == fbits >> m & 1
                                          for m in range(len(t))):
                reached |= t[1]
                if reached == self.full:
                    return True
        return False


@dataclass
class ConjectureReport:
    n: int
    monotone_functions: int = 0
    weakly_symmetric_nontrivial: int = 0
    elusive_verified: int = 0
    elusive_failures: list[int] = field(default_factory=list)
    non_elusive: int = 0
    chi_one_failures: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.elusive_failures and not self.chi_one_failures


def exhaustive_conjecture_check(n: int) -> ConjectureReport:
    """Sweep every monotone non-increasing function on n variables.

    Asserts two facts of every function, deciding one member of each class
    under relabelling the variables: every nontrivial one whose invariance
    group is transitive has full decision-tree depth, and every non-elusive
    one except the constant-0 function (whose complex is empty) has Euler
    characteristic 1.
    """
    if n > 5:
        raise ArityError("the sweep scans n! permutations; capped at n = 5")
    symmetric = SymmetryScan(n)
    report = ConjectureReport(n=n)
    full_input = 1 << ((1 << n) - 1)
    functions = enumerate_monotone(n)
    rep_of = _relabelling_classes(n, functions)
    elusive_failing: set[int] = set()
    chi_failing: set[int] = set()
    # depth, nontriviality, weak symmetry and the Euler characteristic are
    # unchanged by relabelling, so the first member decides for its class
    for fbits, size in Counter(rep_of.values()).items():
        report.monotone_functions += size
        elusive = is_elusive(
            BooleanFunction.from_bitvector(n, fbits, monotone=True))
        if not elusive:
            report.non_elusive += size
            if fbits != 0 and euler_of_bitvector(n, fbits) != 1:
                chi_failing.add(fbits)
        # nontrivial: true on the empty input, false on the full one
        if fbits & 1 and not fbits & full_input and symmetric(fbits):
            report.weakly_symmetric_nontrivial += size
            if elusive:
                report.elusive_verified += size
            else:
                elusive_failing.add(fbits)
    # a failing class lists every member, in enumeration order
    report.elusive_failures = [f for f in functions
                               if rep_of[f] in elusive_failing]
    report.chi_one_failures = [f for f in functions
                               if rep_of[f] in chi_failing]
    return report


def sample_invariant_function(table: OrbitTable, poset: OrbitPoset,
                              rng: random.Random,
                              seed_orbits: int = 4) -> BooleanFunction:
    """A random nontrivial monotone function invariant under the table's
    group: the lower closure of a few random orbits below the top level."""
    candidates = [o for o in range(1, table.orbit_count)
                  if table.level[o] < table.n]
    t_bits = 0
    for o in rng.sample(candidates, min(seed_orbits, len(candidates))):
        t_bits |= poset.lower[o]
    return BooleanFunction.from_orbit_types(table, t_bits)


@dataclass
class RestrictionReport:
    samples: int
    lemma_applicable: int
    lemma_violations: list[dict] = field(default_factory=list)
    remark_violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.lemma_violations and not self.remark_violations


def restriction_lemma_check(G: PermGroup, samples: int,
                            seed: int = 0) -> RestrictionReport:
    """Sample invariant functions for a transitive G of small degree and
    check: an elusive one-variable restriction forces full depth, and one
    elusive restriction forces all of them elusive."""
    n = G.degree
    if n > 8:
        raise ArityError("restriction sampling computes exact depths on "
                         "both sides; capped at degree 8")
    table = OrbitTable(G)
    poset = OrbitPoset(table)
    rng = random.Random(seed)
    report = RestrictionReport(samples=samples, lemma_applicable=0)
    for _ in range(samples):
        f = sample_invariant_function(table, poset, rng,
                                      seed_orbits=rng.randint(1, 4))
        link_depths = [decision_tree_depth(f.restricted_true(v))
                       for v in range(1, n + 1)]
        elusive_links = [d == n - 1 for d in link_depths]
        if not any(elusive_links):
            continue
        report.lemma_applicable += 1
        if not all(elusive_links):
            report.remark_violations.append({"link_depths": link_depths})
        if decision_tree_depth(f) != n:
            report.lemma_violations.append(
                {"depth": decision_tree_depth(f), "link_depths": link_depths})
    return report
