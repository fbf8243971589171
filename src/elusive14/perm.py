"""Permutations, finitely generated permutation groups, and the
classification checks (cyclic, psi_p, psi_p^q, Sylow-style prime test) used
by the degree-14 verification campaign.

A permutation is the tuple of its images, read from and printed as cycle
notation.  Points are 1-based in all textual input/output (matching the
bundled tables) and 0-based internally.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from . import InputError

DEFAULT_CLOSURE_CAP = 100_000


class ParseError(ValueError):
    """Malformed cycle notation."""


class ClosureCapExceeded(InputError, RuntimeError):
    """Group closure grew past the configured element cap."""


class WitnessError(ValueError):
    """A classification witness refers to elements outside the group."""


class Permutation(tuple):
    """A bijection on {0..n-1}, held as the tuple of its images: entry i is
    the image of point i.  Equality, hashing, ``len`` (the degree) and the
    order that sorts elements are the tuple's."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"Permutation({tuple(self)!r})"

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(x) = self(other(x))."""
        return Permutation([self[j] for j in other])

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return Permutation(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point, 0-based."""
        seen = [False] * len(self)
        out = []
        for start in range(len(self)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self) if i == j)

    def __str__(self) -> str:
        """Canonical 1-based cycle notation; identity prints as '()'."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycs)


def identity(n: int) -> Permutation:
    return Permutation(range(n))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse a product of disjoint cycles over points 1..n.

    Empty text (or bare whitespace, or '()') denotes the identity.  Raises
    ParseError on repeated points, out-of-range points, stray characters,
    or a value that is not a string.
    """
    if not isinstance(text, str):
        raise ParseError(f"cycle notation must be a string, not {text!r}")
    body = text.strip()
    if body in ("", "()", "id"):
        return identity(n)
    leftover = _CYCLE_RE.sub("", body).strip()
    if leftover:
        raise ParseError(f"stray characters outside cycles: {leftover!r}")
    images = list(range(n))
    seen: set[int] = set()
    for m in _CYCLE_RE.finditer(body):
        inner = m.group(1).strip()
        if not inner:
            continue
        try:
            pts = [int(tok) for tok in inner.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad cycle {m.group(0)!r}") from exc
        for p in pts:
            if not 1 <= p <= n:
                raise ParseError(f"point {p} outside 1..{n}")
            if p - 1 in seen:
                raise ParseError(f"point {p} repeated in {text!r}")
            seen.add(p - 1)
        if len(pts) < 2:
            continue
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b - 1
    return Permutation(images)


class PermGroup:
    """A finite permutation group with its element set materialized."""

    def __init__(self, degree: int, generators: tuple[Permutation, ...],
                 elements: tuple[Permutation, ...]):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self.element_set = frozenset(elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, sigma: Permutation) -> bool:
        return sigma in self.element_set

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, <{gens}>)"

    def point_orbits(self) -> list[tuple[int, ...]]:
        """Orbits on points (0-based), each sorted, ordered by smallest point."""
        maps = [g.__getitem__ for g in self.generators]
        seen: set[int] = set()
        orbits = []
        for start in range(self.degree):
            if start not in seen:
                orbit = closure((start,), maps)
                seen |= orbit
                orbits.append(tuple(sorted(orbit)))
        return orbits


def closure(seeds, maps, cap: int | None = None) -> set:
    """The least set that contains ``seeds`` and is closed under every
    function in ``maps``.  Group elements, point orbits, conjugacy classes,
    normal closures and the sweep's relabelling classes all come from here.
    A closure of more than ``cap`` elements raises ClosureCapExceeded."""
    found = set(seeds)
    frontier = list(found)
    while frontier:
        x = frontier.pop()
        for f in maps:
            y = f(x)
            if y not in found:
                found.add(y)
                frontier.append(y)
        if cap is not None and len(found) > cap:
            raise ClosureCapExceeded(f"closure exceeded cap of {cap} elements")
    return found


def generate(generators: list[Permutation] | tuple[Permutation, ...],
             cap: int = DEFAULT_CLOSURE_CAP) -> PermGroup:
    """Materialize the group generated by ``generators``."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator (use identity for the trivial group)")
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators have mixed degrees")
    # left multiplication by the generators reaches every product of them
    elements = closure((identity(degree),), [g.__mul__ for g in gens], cap)
    return PermGroup(degree, tuple(gens), tuple(sorted(elements)))


def subgroup(G: PermGroup, gens: list[Permutation]) -> PermGroup:
    """Closure of ``gens`` inside G; raises WitnessError if gens leave G."""
    for g in gens:
        if g not in G:
            raise WitnessError(f"element {g} is not in the group")
    return generate(gens if gens else [identity(G.degree)])


def is_transitive(G: PermGroup) -> bool:
    """True iff the orbit of point 1 under G is the whole point set."""
    return len(G.point_orbits()[0]) == G.degree


def is_cyclic(G: PermGroup) -> bool:
    """True iff some element has order |G|.  A generator's cycles are the
    group's point orbits, so a cyclic group's order is the lcm of their
    sizes; a group of any other order is not scanned."""
    n = G.order
    if n != math.lcm(*map(len, G.point_orbits())):
        return False
    return any(e.order() == n for e in G.elements)


def is_normal(G: PermGroup, H: PermGroup) -> bool:
    """True iff H (a subgroup of G) is closed under conjugation by G."""
    hset = H.element_set
    for g in G.generators:
        ginv = g.inverse()
        for h in H.elements:
            if g * h * ginv not in hset:
                return False
    return True


def _conjugations(G: PermGroup) -> list:
    """x -> g x g^-1 for each generator g of G."""
    return [lambda x, g=g, ginv=g.inverse(): g * x * ginv for g in G.generators]


def normal_closure(G: PermGroup, seed: Permutation,
                   cap: int | None = None) -> PermGroup:
    """Smallest normal subgroup of G containing ``seed``; one of more than
    ``cap`` elements (default |G|) raises ClosureCapExceeded."""
    if seed not in G:
        raise WitnessError("seed element is not in the group")
    conjugates = closure((seed,), _conjugations(G))
    return generate(sorted(conjugates), cap=G.order if cap is None else cap)


def _cyclic_mod(H: PermGroup, P: PermGroup) -> bool:
    """True iff H/P is cyclic, for P normal in H: some h has h^k outside P
    for every 0 < k < |H:P|."""
    index = H.order // P.order
    pset = P.element_set
    for h in H.elements:
        power = h
        for _ in range(1, index):
            if power in pset:
                break
            power = power * h
        else:
            return True
    return False


def _prime_power(n: int) -> int | None:
    """Return p if n = p^k for a prime p and k >= 1, else None."""
    if n < 2:
        return None
    p = next((f for f in range(2, math.isqrt(n) + 1) if n % f == 0), n)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


# witness for membership in psi_p (q and h_generators None) or psi_p^q
OliverWitness = namedtuple("OliverWitness", "p p_generators q h_generators",
                           defaults=(None, None))


def _oliver_chain(G: PermGroup, P: PermGroup, H: PermGroup) -> int | None:
    """|G:H| if P <= H <= G is an Oliver chain, else None: |P| a prime
    power, P normal in H, H normal in G, |G:H| 1 or a prime power, and H/P
    cyclic (Oliver 1975).  Such a G licenses an Euler condition on
    fixed-point complexes."""
    index = G.order // H.order
    if _prime_power(P.order) is None:
        return None
    if index > 1 and (_prime_power(index) is None or not is_normal(G, H)):
        return None
    if not is_normal(H, P) or not _cyclic_mod(H, P):
        return None
    return index


def verify_witness(G: PermGroup, w: OliverWitness) -> bool:
    """Check the witness's chain P <= H <= G, where P = <w.p_generators>,
    H = <w.h_generators> for psi_p^q and H = G for psi_p: an Oliver chain
    with |P| a w.p-power and |G:H| 1 or a w.q-power."""
    if (w.q is None) != (w.h_generators is None):
        raise ValueError("a witness carries q and H generators together "
                         "or neither")
    P = subgroup(G, list(w.p_generators))
    H = G if w.h_generators is None else subgroup(G, list(w.h_generators))
    if not P.element_set <= H.element_set:
        raise WitnessError("P is not contained in H")
    index = _oliver_chain(G, P, H)
    return (index is not None and _prime_power(P.order) == w.p
            and (index == 1 or _prime_power(index) == w.q))


def verify_sylow_lemma(G: PermGroup) -> Permutation | None:
    """For degree n with n-1 =: p prime, p | |G| and p^2 not | |G|, return an
    element of order p fixing exactly one point (a p-cycle on the rest)."""
    p = G.degree - 1
    if _prime_power(p) != p:
        return None
    if G.order % p != 0 or G.order % (p * p) == 0:
        return None
    for e in G.elements:
        if e.order() == p and len(e.fixed_points()) == 1:
            return e
    return None


class Classification(namedtuple("Classification", "kind p q witness note",
                                defaults=(None, None, None, ""))):
    """Outcome of classify(); kind is one of cyclic / psi_p / psi_pq /
    sylow_lemma / unresolved."""

    __slots__ = ()

    @property
    def chi_condition(self) -> tuple[str, int] | None:
        """The fixed-point Euler condition this classification licenses:
        ('exact', 1) or ('mod', q); None when unresolved."""
        if self.kind in ("cyclic", "psi_p", "sylow_lemma"):
            return ("exact", 1)
        if self.kind == "psi_pq":
            return ("mod", self.q)
        return None


def _oliver_class(w: OliverWitness, note: str) -> Classification:
    return Classification("psi_p" if w.q is None else "psi_pq", p=w.p,
                          q=w.q, witness=w, note=note)


def conjugacy_class_representatives(G: PermGroup) -> list[Permutation]:
    """One element per conjugacy class, smallest image tuple first."""
    conjugations = _conjugations(G)
    seen: set[Permutation] = set()
    reps: list[Permutation] = []
    for e in G.elements:
        if e not in seen:
            reps.append(e)
            seen |= closure((e,), conjugations)
    return reps


def _heuristic_oliver_search(G: PermGroup) -> Classification | None:
    """Bounded witness search: P runs over the normal closures of single
    elements of prime-power order that are p-groups, smallest first; H is
    G, then <P, e> for each further element e.  Sound but deliberately
    incomplete.  Normal closures and the derived chains are class
    functions, so one representative per conjugacy class suffices."""
    reps = conjugacy_class_representatives(G)
    found: dict[frozenset[Permutation], PermGroup] = {}
    for e in reps:
        p = _prime_power(e.order())
        if p is None:
            continue
        try:
            # p ** bit_length(|G|) exceeds |G|, so the gcd is |G|'s p-part
            P = normal_closure(G, e, cap=math.gcd(G.order,
                                                  p ** G.order.bit_length()))
        except ClosureCapExceeded:
            continue      # larger than any p-subgroup of G
        if _prime_power(P.order) == p:
            found.setdefault(P.element_set, P)
    candidates = sorted(found.values(), key=lambda P: P.order)

    def chains():
        for P in candidates:
            yield P, G
        for P in candidates:
            seen: set[frozenset[Permutation]] = set()
            for e in reps:
                if e == identity(G.degree):
                    continue
                H = subgroup(G, list(P.generators) + [e])
                if H.element_set not in seen and H.order != G.order:
                    seen.add(H.element_set)
                    yield P, H

    for P, H in chains():
        index = _oliver_chain(G, P, H)
        if index is not None:
            q = _prime_power(index)
            return _oliver_class(OliverWitness(
                p=_prime_power(P.order), p_generators=P.generators, q=q,
                h_generators=None if q is None else H.generators),
                "heuristic witness")
    return None


def classify(G: PermGroup,
             bundled_witness: OliverWitness | None = None) -> Classification:
    """Classify G for the elusiveness argument.

    Tries, in order: cyclic test, bundled witness verification, the Sylow
    prime test, and the bounded heuristic witness search.  Deterministic.
    """
    if is_cyclic(G):
        return Classification("cyclic")
    if bundled_witness is not None and verify_witness(G, bundled_witness):
        return _oliver_class(bundled_witness, "bundled witness")
    if verify_sylow_lemma(G) is not None:
        return Classification("sylow_lemma", p=G.degree - 1)
    found = _heuristic_oliver_search(G)
    if found is not None:
        return found
    return Classification("unresolved", note="neither cyclic nor a found Oliver witness")
