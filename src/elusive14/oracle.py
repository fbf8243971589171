"""Independent ground truth: elusiveness decided by the adversary
recursion, exact decision-tree depth and exhaustive small-arity sweeps.

Both recursions walk restrictions (assigned mask, answered mask) of the
variable set and share one memo.  There is one key scheme
(``OrbitKeys``): a restriction's key is the radix-3 index, one digit per
variable (free / answered 0 / answered 1), of its image under an element of
the function's invariance group G that carries its assigned mask to the
least mask of that mask's orbit.  Restrictions with equal keys are G-images
of each other and have the same depth, so isomorphic subproblems share one
memo entry and every free variable can be queried.  The keys come from
the orbit table's own image scan: its chunk images give each orbit's
least mask under every element, so the elements are found without a
second pass over the masks.  A mask keeps only a reference to its
element's pair of chunk tables, one row object per element, and both
halves of a key, the assigned mask's and the answers', are read through
that pair.  A function given without an orbit table gets the trivial
group's table of its arity, whose keys are the plain radix-3 indices.
The same keys check the group: the truth table is G-invariant iff it is
constant on every mask orbit.

The decision pass comes first.  A restriction is evasive (its depth equals
its number of free variables) iff it has no free variable, or it is
nonconstant and every free query has an answer whose child is evasive; the
pass stops at the first query whose two children are both non-evasive.
Only a non-evasive restriction falls back to the exact minimax, which then
finds its evasive children already settled.  Neither runs on a restriction
with at most two free variables: four table reads give its depth (0 if
constant, 1 if one variable is free or decides it, else 2, an AND or an
OR), so it gets no key and no memo entry.

The oracle deliberately leaves out the Rivest-Vuillemin parity shortcut
(a restriction whose true inputs have a nonzero signed count is evasive).
At the x1 = 1 child that shortcut is the link lemma the search relies on,
and the oracle's worth is that it reaches its verdict without it.

Every function is monotone in one direction, as its constructor checks,
so a restriction is constant iff its all-zeros and all-ones completions
agree: this is what makes arity 14 tractable.

The small-arity sweep decides one function per class under relabelling
the variables.  Weak symmetry follows from the class by orbit-stabilizer:
with H the relabellings that fix x1, the Aut(f)-orbit of x1 has
n |H f| / |class| points, so Aut(f) is transitive iff the closure of f
under H is the whole class.
"""

from __future__ import annotations

import random
import weakref
from collections import Counter, namedtuple
from functools import cache
from math import factorial

from .orbits import (CHUNK, OrbitPoset, OrbitTable, action_table, iter_bits,
                     subset_unions)
from .perm import Permutation, closure


class ArityError(ValueError):
    """Function too wide for the 3^n restriction table."""


MAX_ARITY = 14

# memo entries other than an exact depth 0..n
NOT_EVASIVE = 0xFE
UNFILLED = 0xFF


# the trivial group's table per arity, for functions given without one
_trivial_table = cache(OrbitTable.of_identity)


@cache
def _without_bit(n: int) -> list[int]:
    """Per variable i, the big int with byte m set to 1 for each mask m of
    arity n without bit i."""
    return [int.from_bytes((b"\1" * (1 << i) + bytes(1 << i))
                           * (1 << (n - 1 - i)), "little") for i in range(n)]


def _is_monotone(n: int, table: bytes) -> bool:
    """Whether the 0/1 table is non-increasing or non-decreasing: per
    variable i, one shift sets byte m + 2^i against byte m for every m
    without bit i.  A change above byte m is a fall iff byte m is 1."""
    t = int.from_bytes(table, "little")
    changes = 0
    for i, low in enumerate(_without_bit(n)):
        changes |= (t ^ t >> (8 << i)) & low
    return (changes & t) in (0, changes)


class BooleanFunction:
    """A monotone function, non-increasing or non-decreasing, of at most
    MAX_ARITY variables (``ArityError``), by its 0/1 truth table over subset
    masks, which the constructor checks (``ValueError``), and the
    ``OrbitTable`` of a group G of its variables, by default the trivial
    group's.  The depth solver checks that the table is G-invariant and
    keys its memo by G-orbits of restrictions.
    """

    __slots__ = ("n", "table", "orbits")

    def __init__(self, n: int, table: bytes | bytearray,
                 orbits: OrbitTable | None = None):
        if n > MAX_ARITY:
            raise ArityError(f"arity {n} exceeds the {MAX_ARITY} limit")
        if len(table) != 1 << n:
            raise ValueError("truth table length must be 2^n")
        table = bytes(table)
        if table.translate(None, b"\0\1"):
            raise ValueError("truth table values must be 0 or 1")
        if not _is_monotone(n, table):
            raise ValueError("truth table is not monotone in either direction")
        if orbits is None:
            orbits = _trivial_table(n)
        elif orbits.n != n:
            raise ValueError(f"orbit table degree {orbits.n} does not match "
                             f"arity {n}")
        self.n = n
        self.table = table
        self.orbits = orbits

    @classmethod
    def from_bitvector(cls, n: int, bits: int) -> "BooleanFunction":
        return cls(n, bytes((bits >> m) & 1 for m in range(1 << n)))

    @classmethod
    def from_orbit_types(cls, table: OrbitTable, t_bits: int) -> "BooleanFunction":
        """Function whose true inputs are the empty input and the members of
        the TRUE orbits, which must be closed downward (``ValueError``).
        The constructor's monotonicity check refuses any other set: its
        table rises somewhere, and falls from the true empty input."""
        tab = bytearray(1 << table.n)
        tab[0] = 1
        for o in iter_bits(t_bits):
            for m in table.members[o]:
                tab[m] = 1
        return cls(table.n, tab, table)


class OrbitKeys:
    """Memo keys of restrictions (assigned mask A, values mask V) that G
    carries onto each other.

    ``least[A]`` is the least mask of A's orbit.  ``rows[A]`` is the pair
    ``(lo, hi)`` of chunk tables of an element g of G that maps A to
    ``least[A]``: ``lo[M & low] + hi[M >> half]`` is the radix-3 index of
    gM with every point answered 0, one 7-point chunk of M at a time.  The
    key of (A, V) is that sum for A plus that sum for V, the radix-3 index
    of (gA, gV), one digit per variable (free / answered 0 / answered 1).
    Equal keys mean gA = g'A' and gV = g'V', so g'^-1 g carries one
    restriction onto the other, and a G-invariant function has the same
    depth on both.  The keys need not be complete: the stabilizer of the
    least mask may still move gV.  Under the trivial group the key is the
    plain radix-3 index of (A, V).

    There is one row object per element, |G| in all, shared by every mask
    that element's inverse is chosen for.

    The depth solver keys only restrictions with three or more free
    variables, whose key is at most twice the radix-3 index of a least
    mask of at most n - 3 points.  ``span`` is one more than the largest
    such key: 531,435 for G6, 3^n - 26 for the trivial group (n >= 3).

    Everything comes from the group's OrbitTable: its chunk images give
    each orbit's least mask m under every element k, and the mask k m
    gets the row of k's inverse, for the first such k in element order.
    """

    __slots__ = ("least", "rows", "half", "low", "span")

    def __init__(self, table: OrbitTable):
        n = table.n
        elements = table.group.elements
        index = {g: k for k, g in enumerate(elements)}
        self.half = CHUNK
        self.low = (1 << CHUNK) - 1
        # radix[M]: the radix-3 index of M with every point answered 0
        radix = [0]
        for i in range(n):
            w = 3 ** i
            radix += [x + w for x in radix]
        # per element, radix of the image of each value of the low and the
        # high chunk, as int objects of radix
        lo, hi = ([list(map(radix.__getitem__, col))
                   for col in zip(*table.chunk_images(c))] for c in (0, 1))
        # in reverse element order, the row of each element's inverse:
        # scattered over the reversed images, one C-level pass per orbit,
        # the first element that carries m to a mask writes its row last
        back = [index[g.inverse()] for g in reversed(elements)]
        pairs = [(lo[k], hi[k]) for k in back]
        self.rows = rows = [None] * (1 << n)
        for m in table.min_mask:
            images = table.images(m)
            images.reverse()
            any(map(rows.__setitem__, images, pairs))
        self.least = list(map(table.min_mask.__getitem__, table._orbit_of))
        self.span = 2 * max((radix[m] for m in table.min_mask
                             if m.bit_count() <= n - 3), default=0) + 1

    def key(self, assigned: int, values: int) -> int:
        lo, hi = self.rows[assigned]
        low, half = self.low, self.half
        return (lo[assigned & low] + hi[assigned >> half]
                + lo[values & low] + hi[values >> half])


# one OrbitKeys per orbit table, shared by the solvers of its functions and
# dropped with the table
_keys_of_table: "weakref.WeakKeyDictionary[OrbitTable, OrbitKeys]" = (
    weakref.WeakKeyDictionary())


def _orbit_keys(table: OrbitTable) -> OrbitKeys:
    keys = _keys_of_table.get(table)
    if keys is None:
        keys = _keys_of_table[table] = OrbitKeys(table)
    return keys


def _settled(table: bytes, values: int, rem: int) -> int:
    """Depth of a monotone restriction whose free set ``rem`` has at most
    two variables: 0 if constant, 1 for one or a dictator, else 2."""
    if table[values] == table[values | rem]:
        return 0
    b = rem & -rem
    if b == rem or table[values | b] != table[values | rem ^ b]:
        return 1
    return 2


class DepthSolver:
    """Evasiveness by the adversary recursion, with memoized minimax for
    the exact depth of non-evasive restrictions.

    ``memo[key]`` holds a restriction's exact depth (an evasive one's is
    its free count), ``NOT_EVASIVE`` once the decision pass has shown its
    depth is below its free count, or ``UNFILLED``.  The key is the
    ``OrbitKeys`` key of the function's orbit table, shared by restrictions
    that its group G carries onto each other; under the trivial group it is
    the plain radix-3 index.  The decision pass reads a child's key inline,
    through the child's row: four chunk-table lookups.  The function's
    invariance is checked through the same keys: the table must be
    constant on every mask orbit.

    Only restrictions with three or more free variables get an entry, so
    the memo has ``OrbitKeys.span`` entries, 531,435 for G6: ``_settled``
    reads any other restriction's depth from the table.
    """

    def __init__(self, f: BooleanFunction):
        self.n = f.n
        self.full = (1 << f.n) - 1
        self.keys = keys = _orbit_keys(f.orbits)
        if bytes(map(f.table.__getitem__, keys.least)) != f.table:
            raise ValueError(f"truth table is not invariant under "
                             f"{f.orbits.group!r}")
        self.memo = bytearray([UNFILLED]) * keys.span
        # the decision pass reads these from the solver, one attribute each
        self.table = f.table
        self.rows, self.low, self.half = keys.rows, keys.low, keys.half

    def _evasive(self, assigned: int, values: int, key: int,
                 free: int) -> bool:
        memo = self.memo
        r = memo[key]
        if r != UNFILLED:
            return r == free
        table = self.table
        rem = self.full ^ assigned
        # the two-completion constancy test, inline: this is the oracle's
        # hot path
        if table[values] == table[values | rem]:
            memo[key] = 0
            return False
        if free == 3:
            # each child has two free variables: evasive iff _settled reads 2
            three = rem
            while three:
                b = three & -three
                three ^= b
                if not (_settled(table, values | b, rem ^ b) == 2
                        or _settled(table, values, rem ^ b) == 2):
                    memo[key] = NOT_EVASIVE
                    return False
            memo[key] = 3
            return True
        rows, low, half = self.rows, self.low, self.half
        evasive = self._evasive
        sub = free - 1
        # lowest-bit loop kept inline for the same reason
        while rem:
            b = rem & -rem
            rem ^= b
            a = assigned | b
            lo, hi = rows[a]
            base = lo[a & low] + hi[a >> half]
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

    def _evasive_at(self, assigned: int, values: int, free: int) -> bool:
        """Whether the restriction with ``free`` free variables is evasive."""
        if free < 3:
            return self.depth(assigned, values) == free
        return self._evasive(assigned, values,
                             self.keys.key(assigned, values), free)

    def evasive(self) -> bool:
        """Whether the function has full decision-tree depth."""
        return self._evasive_at(0, 0, self.n)

    def depth(self, assigned: int = 0, values: int = 0) -> int:
        """Exact depth of the restriction with the variables in ``assigned``
        answered, those in ``values`` with 1 and the rest with 0."""
        rem = self.full ^ assigned
        free = rem.bit_count()
        if free < 3:
            return _settled(self.table, values, rem)
        key = self.keys.key(assigned, values)
        if self._evasive(assigned, values, key, free):
            return free
        r = self.memo[key]
        if r != NOT_EVASIVE:
            return r
        # non-evasive, so some query reaches depth <= free - 1
        best = free
        depth = self.depth
        # lowest-bit loop kept inline: the exact minimax is a hot path too
        while rem:
            b = rem & -rem
            rem ^= b
            a = assigned | b
            d1 = depth(a, values | b)
            if d1 + 1 < best:
                d0 = depth(a, values)
                d = (d0 if d0 > d1 else d1) + 1
                if d < best:
                    best = d
                    if best == 1:
                        break
        self.memo[key] = best
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
        path: list[tuple[int, int]] = []
        assigned = values = 0
        # a restriction of depth 0 is constant, and the deeper child of the
        # chosen query has depth target - 1
        target = self.depth()
        while target:
            rem = self.full ^ assigned
            if target == rem.bit_count():
                b = rem & -rem
                answer = int(self._evasive_at(assigned | b, values | b,
                                              target - 1))
            else:
                for i in iter_bits(rem):
                    b = 1 << i
                    d0 = self.depth(assigned | b, values)
                    d1 = self.depth(assigned | b, values | b)
                    if 1 + max(d0, d1) == target:
                        break
                answer = 1 if d1 >= d0 else 0
            path.append((b.bit_length(), answer))
            assigned |= b
            values |= b * answer
            target -= 1
        return path


def decision_tree_depth(f: BooleanFunction) -> int:
    """Minimum over decision trees of the worst-case number of queries."""
    return DepthSolver(f).depth()


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
    in the values on the masks taken in increasing order, false before
    true: the pairs (f0, f1) are listed by f0, then by f1."""
    # a down-set on k + 1 variables is a pair of down-sets on k variables,
    # f0 where x_{k+1} is false and f1 where it is true, with f1 inside f0
    down = [0, 1]
    for k in range(n):
        shift = 1 << k
        down = [f0 | f1 << shift for f0 in down for f1 in down
                if not f1 & ~f0]
    return down


def _relabellers(n: int, first: int = 0) -> list:
    """The truth-table images of a transposition and a cycle of the
    variables x_{first+1}..x_n, which generate every relabelling that
    moves only those variables."""
    if n - first < 2:
        return []
    fixed = tuple(range(first))
    swap = fixed + (first + 1, first) + tuple(range(first + 2, n))
    cycle = fixed + tuple(range(first + 1, n)) + (first,)
    return [_bit_mover(action_table(Permutation(p))) for p in (swap, cycle)]


def _relabelling_classes(n: int, functions: list[int]) -> dict[int, int]:
    """Each truth-table bitvector of ``functions`` (closed under relabelling
    the n variables) mapped to the first member in ``functions`` of its
    class, the closure under ``_relabellers(n)``."""
    maps = _relabellers(n)
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


class ConjectureReport(namedtuple(
        "ConjectureReport", "n monotone_functions weakly_symmetric_nontrivial "
        "elusive_verified elusive_failures non_elusive chi_one_failures")):
    """The sweep's counts and failures; its fields are canonical keys."""

    __slots__ = ()

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
        raise ArityError("the sweep enumerates every monotone function, "
                         "7828354 of them at n = 6; capped at n = 5")
    fix_x1 = _relabellers(n, first=1)
    full_input = 1 << ((1 << n) - 1)
    functions = enumerate_monotone(n)
    rep_of = _relabelling_classes(n, functions)
    symmetric_count = verified = non_elusive = 0
    elusive_failing: set[int] = set()
    chi_failing: set[int] = set()
    # depth, nontriviality, weak symmetry and the Euler characteristic are
    # unchanged by relabelling, so the first member decides for its class;
    # Aut(f), of order n!/size, is transitive iff n divides its order and
    # the relabellings that fix x1 reach the whole class
    for fbits, size in Counter(rep_of.values()).items():
        elusive = is_elusive(BooleanFunction.from_bitvector(n, fbits))
        if not elusive:
            non_elusive += size
            if fbits != 0 and euler_of_bitvector(n, fbits) != 1:
                chi_failing.add(fbits)
        # nontrivial: true on the empty input, false on the full one
        if (fbits & 1 and not fbits & full_input
                and factorial(n - 1) % size == 0
                and len(closure((fbits,), fix_x1)) == size):
            symmetric_count += size
            if elusive:
                verified += size
            else:
                elusive_failing.add(fbits)
    # a failing class lists every member, in enumeration order
    return ConjectureReport(
        n=n, monotone_functions=len(functions),
        weakly_symmetric_nontrivial=symmetric_count, elusive_verified=verified,
        elusive_failures=[f for f in functions if rep_of[f] in elusive_failing],
        non_elusive=non_elusive,
        chi_one_failures=[f for f in functions if rep_of[f] in chi_failing])


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
