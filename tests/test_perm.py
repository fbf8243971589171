import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generated_groups
from elusive14 import perm
from elusive14.perm import (ClosureCapExceeded, OliverWitness, ParseError,
                            Permutation, WitnessError, _cyclic_mod, classify,
                            closure, conjugacy_class_representatives,
                            generate, identity, is_cyclic, is_normal,
                            is_transitive, normal_closure, parse_cycles,
                            subgroup, verify_sylow_lemma, verify_witness)


def test_parse_identity_forms():
    for text in ("", "   ", "()", "id"):
        assert parse_cycles(text, 14) == identity(14)


def test_parse_full_cycle_order():
    sigma = parse_cycles("(1,2,3,4,5,6,7,8,9,10,11,12,13,14)", 14)
    assert sigma.order() == 14
    assert sigma[0] == 1 and sigma[13] == 0


def test_parse_involution():
    b = parse_cycles("(1,12)(2,11)(3,10)(4,9)(5,8)(6,7)(13,14)", 14)
    assert b.order() == 2
    assert b.fixed_points() == ()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_cycles("(1,2)(2,3)", 14)          # repeated point
    with pytest.raises(ParseError):
        parse_cycles("(1,15)", 14)              # point out of range
    with pytest.raises(ParseError):
        parse_cycles("(1,2) junk", 14)          # stray characters
    with pytest.raises(ParseError):
        parse_cycles("(1,0)", 14)               # zero is not a point
    with pytest.raises(ParseError):
        parse_cycles("(1,x)", 14)


@settings(max_examples=200)
@given(st.text(alphabet="(),0123456789 -_x", max_size=24) | st.text(),
       st.integers(1, 14))
def test_parse_cycles_on_arbitrary_text(text, n):
    # a permutation of 1..n or a ParseError, never another exception
    try:
        sigma = parse_cycles(text, n)
    except ParseError:
        return
    assert sorted(sigma) == list(range(n))


@given(st.permutations(list(range(10))))
def test_cycle_string_round_trip(images):
    from elusive14.perm import Permutation
    sigma = Permutation(tuple(images))
    assert parse_cycles(str(sigma), 10) == sigma


@given(st.lists(st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(n)))), min_size=1, max_size=6))
def test_a_permutation_is_the_tuple_of_its_images(images):
    # equality, hash, length and order are the image tuple's, so element
    # sets, memo keys and sorted element lists keep one canonical order
    perms = [Permutation(p) for p in images]
    for sigma, p in zip(perms, images):
        assert sigma == tuple(p) and hash(sigma) == hash(tuple(p))
        assert len(sigma) == len(p) and sigma.fixed_points() == tuple(
            i for i in range(len(p)) if p[i] == i)
        assert eval(repr(sigma)) == sigma
        assert type(eval(repr(sigma))) is Permutation
    assert [tuple(s) for s in sorted(perms)] == sorted(map(tuple, images))


@given(st.permutations(list(range(8))), st.permutations(list(range(8))))
def test_compose_inverse(a_img, b_img):
    from elusive14.perm import Permutation
    a, b = Permutation(tuple(a_img)), Permutation(tuple(b_img))
    assert (a * b) == tuple(a[b[i]] for i in range(8))
    assert a * a.inverse() == identity(8)
    assert ((a * b) * b.inverse()) == a


def test_group_orders(groups):
    assert groups["G1"].order == 14
    assert groups["G2"].order == 14
    assert groups["G3"].order == 56
    assert groups["G4"].order == 196
    assert groups["G5"].order == 1092
    assert groups["G6"].order == 168


def test_closure_cap():
    gens = [parse_cycles("(1,2,3,4,5,6,7)", 7), parse_cycles("(1,2)", 7)]
    with pytest.raises(ClosureCapExceeded):
        generate(gens, cap=100)


@pytest.mark.parametrize("name", ["G3", "G6", "G5"])
def test_closure_exhaustive(groups, name):
    G = groups[name]
    elems = G.element_set
    for a in G.elements:
        assert a.inverse() in elems
    for a in G.elements:
        for b in G.generators:
            assert a * b in elems and b * a in elems
    # full pairwise closure for the two smaller groups
    if G.order <= 200:
        for a in G.elements:
            for b in G.elements:
                assert a * b in elems


def test_lagrange(groups):
    for name in ("G5", "G6"):
        G = groups[name]
        assert all(G.order % e.order() == 0 for e in G.elements)


def test_transitivity(groups):
    assert all(is_transitive(groups[n]) for n in ("G1", "G2", "G3", "G4", "G5", "G6"))
    assert not is_transitive(generate([identity(14)]))


def test_cyclicity(groups):
    assert is_cyclic(groups["G1"])
    assert not is_cyclic(groups["G5"])
    assert is_cyclic(generate([identity(14)]))
    # order 6 is the lcm of the orbit sizes 2 and 3, not the largest size
    assert is_cyclic(generate([Permutation((1, 0, 3, 4, 2))]))
    # V4 acting regularly: order 4 meets the bound, but no element has it
    v4 = generate([Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
    assert v4.order == 4 and not is_cyclic(v4)


def _scanned_cyclic(G) -> bool:
    return any(e.order() == G.order for e in G.elements)


@settings(max_examples=60, deadline=None)
@given(generated_groups())
def test_cyclicity_agrees_with_the_order_scan(case):
    _, perms = case
    G = generate([Permutation(p) for p in perms])
    assert is_cyclic(G) == _scanned_cyclic(G)


def test_cyclicity_agrees_with_the_order_scan_on_the_bundled_groups(campaign):
    groups = {**campaign.groups, **campaign.subgroups}
    for name, G in groups.items():
        assert is_cyclic(G) == _scanned_cyclic(G), name
    # the groups whose scan the bound skips
    assert sorted(name for name, G in groups.items()
                  if G.order != math.lcm(*map(len, G.point_orbits()))) == [
        "G3", "G4", "G5", "G6", "G6_10"]


def test_psi_p_witnesses(campaign, groups):
    w2 = campaign.specs["G2"].oliver_witness()
    assert verify_witness(groups["G2"], w2)
    w3 = campaign.specs["G3"].oliver_witness()
    assert verify_witness(groups["G3"], w3)
    # the reflection subgroup of G2 is not normal
    b = parse_cycles("(1,12)(2,11)(3,10)(4,9)(5,8)(6,7)(13,14)", 14)
    assert not verify_witness(groups["G2"], OliverWitness(p=2, p_generators=(b,)))


def test_quotient_cyclicity_certificate(campaign, groups):
    w2 = campaign.specs["G2"].oliver_witness()
    P = subgroup(groups["G2"], list(w2.p_generators))
    assert groups["G2"].order // P.order == 2
    assert _cyclic_mod(groups["G2"], P)
    # the Klein four-group over its trivial subgroup is not cyclic
    V4 = generate([parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)])
    assert not _cyclic_mod(V4, generate([identity(4)]))


def test_psi_pq_witness(campaign, groups):
    G4 = groups["G4"]
    w = campaign.specs["G4"].oliver_witness()
    assert verify_witness(G4, w)
    P = subgroup(G4, list(w.p_generators))
    H = subgroup(G4, list(w.h_generators))
    assert P.order == 49 and H.order == 98 and G4.order // H.order == 2
    assert is_normal(G4, H) and is_normal(H, P)
    # degenerate chain: the whole group is not a 7-power
    degenerate = OliverWitness(p=7, q=2, p_generators=G4.generators,
                               h_generators=G4.generators)
    assert not verify_witness(G4, degenerate)
    # V4 < A4 < S4 is a chain; V4 < D8 < S4 is not, as D8 is not normal
    S4 = generate([parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)])
    v4 = (parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4))
    a4 = v4 + (parse_cycles("(1,2,3)", 4),)
    d8 = v4 + (parse_cycles("(1,2,3,4)", 4),)
    assert verify_witness(S4, OliverWitness(p=2, q=2, p_generators=v4,
                                            h_generators=a4))
    assert not verify_witness(S4, OliverWitness(p=2, q=3, p_generators=v4,
                                                h_generators=d8))
    # a witness carries q and H together or neither
    for half in (OliverWitness(p=7, p_generators=w.p_generators, q=2),
                 OliverWitness(p=7, p_generators=w.p_generators,
                               h_generators=w.h_generators)):
        with pytest.raises(ValueError):
            verify_witness(G4, half)


def test_witness_outside_group(groups):
    outside = parse_cycles("(1,2)", 14)
    with pytest.raises(WitnessError):
        verify_witness(groups["G2"], OliverWitness(p=2, p_generators=(outside,)))


def test_lemma_generators_give_index_two_subgroup(campaign, groups):
    # the published index-2 witness trio generates half of G4, not G4 itself
    w = campaign.specs["G4"].oliver_witness()
    H = subgroup(groups["G4"], list(w.h_generators))
    assert H.order == 98
    assert H.element_set < groups["G4"].element_set


def test_sylow_lemma(groups):
    e = verify_sylow_lemma(groups["G5"])
    assert e is not None
    assert e.order() == 13
    assert len(e.fixed_points()) == 1
    assert [len(c) for c in e.cycles()] == [13]
    assert verify_sylow_lemma(groups["G6"]) is None   # 13 does not divide 168
    assert verify_sylow_lemma(groups["G1"]) is None   # 13 does not divide 14


def test_dihedral_relation(groups):
    a = parse_cycles("(1,3,5,7,9,11,13)(2,4,6,8,10,12,14)", 14)
    b = parse_cycles("(1,12)(2,11)(3,10)(4,9)(5,8)(6,7)(13,14)", 14)
    assert b * a * b == a * a * a * a * a * a


def test_classify_verdicts(campaign, groups):
    assert classify(groups["G1"]).kind == "cyclic"
    c2 = classify(groups["G2"], campaign.specs["G2"].oliver_witness())
    assert (c2.kind, c2.p) == ("psi_p", 7)
    c3 = classify(groups["G3"], campaign.specs["G3"].oliver_witness())
    assert (c3.kind, c3.p) == ("psi_p", 2)
    c4 = classify(groups["G4"], campaign.specs["G4"].oliver_witness())
    assert (c4.kind, c4.p, c4.q) == ("psi_pq", 7, 2)
    c5 = classify(groups["G5"])
    assert (c5.kind, c5.p) == ("sylow_lemma", 13)
    assert classify(groups["G6"]).kind == "unresolved"


def test_classify_deterministic(groups):
    assert classify(groups["G6"]) == classify(groups["G6"])
    assert classify(groups["G5"]) == classify(groups["G5"])


def test_classify_negative_path(groups, monkeypatch):
    monkeypatch.setattr(perm, "verify_sylow_lemma", lambda G: None)
    monkeypatch.setattr(perm, "_heuristic_oliver_search", lambda G: None)
    c = classify(groups["G5"])
    assert c.kind == "unresolved"


def assert_heuristic_witness(G):
    """A psi_p or psi_pq verdict from classify() without a bundled witness
    carries a witness that verify_witness accepts."""
    cls = classify(G)
    if cls.kind in ("psi_p", "psi_pq"):
        w = cls.witness
        assert (w.p, w.q) == (cls.p, cls.q)
        assert verify_witness(G, w)
    else:
        assert cls.witness is None
    return cls


def test_heuristic_witnesses_verify(campaign, groups):
    kinds = [assert_heuristic_witness(G).kind for G in
             [groups[n] for n in ("G2", "G3", "G4")]
             + list(campaign.subgroups.values())]
    assert kinds.count("psi_pq") == 1 and kinds.count("psi_p") == 9


def test_subgroup_classifications(campaign):
    classifications = {name: classify(H)
                       for name, H in campaign.subgroups.items()}
    kinds = {name: cls.kind for name, cls in classifications.items()}
    assert kinds["G6_1"] == "cyclic"
    assert kinds["G6_2"] == "cyclic"
    assert kinds["G6_3"] == "cyclic"
    assert kinds["G6_6"] == "cyclic"
    assert kinds["G6_4"] == "psi_p"
    assert kinds["G6_5"] == "psi_p"
    assert kinds["G6_8"] == "psi_p"
    assert kinds["G6_9"] == "psi_p"
    assert kinds["G6_10"] == "psi_p"
    assert kinds["G6_7"] == "psi_p"   # order-6 dihedral: psi_3, see data note
    assert classifications["G6_7"].p == 3
    c11 = classifications["G6_11"]
    assert (c11.kind, c11.p, c11.q) == ("psi_pq", 2, 2)
    conditions = {name: cls.chi_condition
                  for name, cls in classifications.items()}
    assert conditions["G6_11"] == ("mod", 2)
    assert all(cond == ("exact", 1) for name, cond in conditions.items()
               if name != "G6_11")


@settings(max_examples=25)
@given(st.integers(0, 10**9))
def test_random_words_stay_inside(groups, seed):
    import random
    rng = random.Random(seed)
    G = groups["G3"]
    word = identity(14)
    for _ in range(rng.randint(1, 12)):
        word = word * rng.choice(G.generators)
    assert word in G


# -- perm.closure against brute-force references ---------------------------

def compose(a, b):
    return tuple(a[j] for j in b)


def products_fixpoint(n, perms):
    """Reference group: the identity and ``perms`` (image tuples), with
    every pairwise product added until none is new.  Semi-naive: each round
    multiplies the elements new in the last round by the whole set, on
    either side, so every product of two elements is formed once."""
    group = {tuple(range(n))} | set(perms)
    new = group
    while new:
        older = group - new
        products = {compose(a, b) for a in new for b in group}
        products |= {compose(a, b) for a in older for b in new}
        new = products - group
        group = group | new
    return group


def union_find_orbits(n, perms):
    """Reference point orbits: the classes of the edges p -- g(p)."""
    parent = list(range(n))

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for g in perms:
        for p in range(n):
            parent[find(p)] = find(g[p])
    classes = {}
    for p in range(n):
        classes.setdefault(find(p), []).append(p)
    return sorted(tuple(c) for c in classes.values())


@settings(max_examples=40, deadline=None)
@given(generated_groups())
def test_closure_generates_the_products_fixpoint(case):
    n, perms = case
    gens = [Permutation(p) for p in perms]
    G = generate(gens)
    assert set(G.elements) == products_fixpoint(n, perms)
    assert G.point_orbits() == union_find_orbits(n, perms)
    assert generate(gens, cap=G.order).elements == G.elements
    with pytest.raises(ClosureCapExceeded):
        generate(gens, cap=G.order - 1)


@settings(max_examples=40, deadline=None)
@given(generated_groups(), st.data())
def test_conjugacy_classes_and_normal_closure(case, data):
    n, perms = case
    G = generate([Permutation(p) for p in perms])
    pairs = [(g, g.inverse()) for g in G.elements]
    classes = {}
    seen = set()
    for x in G.elements:
        if x in seen:            # its class was built from an earlier member
            continue
        cls = frozenset(compose(compose(g, x), ginv) for g, ginv in pairs)
        seen |= cls
        classes[cls] = x         # the first member in element order
    assert conjugacy_class_representatives(G) == list(classes.values())
    seed = data.draw(st.sampled_from(G.elements))
    (conjugates,) = [cls for cls in classes if seed in cls]
    N = normal_closure(G, seed)
    brute = products_fixpoint(n, conjugates)
    assert set(N.elements) == brute
    cap = data.draw(st.integers(1, G.order))
    if len(brute) > cap:
        with pytest.raises(ClosureCapExceeded):
            normal_closure(G, seed, cap=cap)
    else:
        assert normal_closure(G, seed, cap=cap).elements == N.elements
    # the witness search is built on the same classes and closures
    assert_heuristic_witness(G)


@given(st.integers(1, 60), st.integers(0, 5))
def test_closure_cap_raises_at_cap_plus_one(k, start):
    step = [lambda x: (x + 1) % k]
    assert closure({start % k}, step, cap=k) == set(range(k))
    with pytest.raises(ClosureCapExceeded):
        closure({start % k}, step, cap=k - 1)

