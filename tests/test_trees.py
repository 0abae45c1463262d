"""Tree encodings, the tree multicategory, free multicategories, circle
products; frozen oracle values throughout."""

from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multicat import perms
from multicat.core import FiniteCollection, check_multicategory_laws
from multicat.dsl import elaborate, parse
from multicat.errors import SubstitutionError, TruncationError
from multicat.presents import arrow_multicategory, coproduct
from multicat.standard import assoc_multicategory, comm_multicategory, \
    unit_multicategory
from multicat.trees import (BARE_EDGE, Layer, base_layer,
                            build_tree_multicategory, canonical_circle,
                            canonical_term, circle_layer, circle_product,
                            corolla, enumerate_terms, free_multicategory,
                            graft, identity_term, least_image, op_compose,
                            op_hom_set, op_identity, renumber_term,
                            shuffles, term_arity, term_signature,
                            vertex_minimum)
from test_search import _sym12

S2 = (("x", "x"), "x")


def binary_gen(free_orbit=False):
    if free_orbit:
        ops = {S2: ("g", "h")}
        action = {(S2, (0, 1)): {"g": "g", "h": "h"},
                  (S2, (1, 0)): {"g": "h", "h": "g"}}
    else:
        ops = {S2: ("g",)}
        action = {(S2, p): {"g": "g"} for p in perms.all_perms(2)}
    return FiniteCollection(("x",), ops, action)


def corolla_with(tau):
    slots = [None] * len(tau)
    for t, s in enumerate(tau):
        slots[s] = ("L", t)
    return ("V", 0, tuple(slots))


class TestGraft:
    def test_unary_corolla_is_identity_shape(self):
        g = corolla(S2, "g")
        unary = ((("x",), "x"), "u")
        u = corolla(unary[0], "u")
        out = graft(u, 0, g)
        assert term_signature(out) == S2
        assert out[2] == "u" and out[3][0][2] == "g"

    def test_binary_into_binary(self):
        g = corolla(S2, "g")
        left = graft(g, 0, g)
        right = graft(g, 1, g)
        assert term_signature(left) == ((("x",) * 3), "x")
        assert left != right

    def test_wrong_color_rejected(self):
        g = corolla(S2, "g")
        other = corolla((("x",), "y"), "k")
        with pytest.raises(SubstitutionError):
            graft(g, 0, other)

    def test_missing_leaf_rejected(self):
        g = corolla(S2, "g")
        with pytest.raises(SubstitutionError):
            graft(g, 5, g)


@st.composite
def random_term(draw, depth=0):
    gens = binary_gen(free_orbit=True)
    if depth >= 2 or draw(st.booleans()):
        return identity_term("x")
    gid = draw(st.sampled_from(["g", "h"]))
    left = draw(random_term(depth=depth + 1))
    right = draw(random_term(depth=depth + 1))
    from multicat.trees import shift_leaves

    t = ("N", S2, gid, (left, shift_leaves(right, term_arity(left))))
    return t


@settings(max_examples=60)
@given(random_term(), st.randoms(use_true_random=False))
def test_canonicalization_idempotent_and_orbit_stable(t, rng):
    gens = binary_gen(free_orbit=True)
    c = canonical_term(t, gens)
    assert canonical_term(c, gens) == c
    n = term_arity(t)
    p = tuple(rng.sample(range(n), n))
    moved = canonical_term(renumber_term(t, p), gens)
    back = canonical_term(renumber_term(moved, perms.inverse(p)), gens)
    assert back == c


class TestTreeOperations:
    def test_hom_set_sizes(self, fx):
        for key, want in fx["numbered_tree_counts"].items():
            vals, n = key.split(";")
            valences = [int(v) for v in vals.split(",")] if vals else []
            assert len(op_hom_set(valences, int(n))) == want, key

    def test_corolla_count_is_factorial(self):
        for n in range(5):
            assert len(op_hom_set([n], n)) == len(list(permutations(range(n))))

    def test_single_vertex_mismatch_empty(self):
        assert op_hom_set([2], 3) == []

    def test_cap(self):
        with pytest.raises(TruncationError):
            op_hom_set([2, 2, 1], 3, cap=10)

    def test_identity_unit(self):
        t = op_hom_set([2, 2], 3)[0]
        assert op_compose(op_identity(3), [t]) == t
        assert op_compose(t, [op_identity(2), op_identity(2)]) == t

    def test_opposite_group_law(self, fx):
        for n in (2, 3):
            for tau in permutations(range(n)):
                for rho in permutations(range(n)):
                    got = op_compose(corolla_with(tau), [corolla_with(rho)])
                    key = "{}|{}".format("".join(map(str, tau)),
                                         "".join(map(str, rho)))
                    want = corolla_with(
                        tuple(int(c) for c in fx["corolla_compositions"][key]))
                    assert got == want

    def test_two_vertex_substitution_by_hand(self):
        # substituting the numbered corolla t2 into vertex 1 of the
        # two-vertex tree, with a twisted inner numbering
        tree = ("V", 0, (("V", 1, (("L", 0), ("L", 1))), ("L", 2)))
        got = op_compose(tree, [corolla_with((0, 1)), corolla_with((1, 0))])
        # the inner leaf numbered l lands on planar slot l of the deep
        # vertex, so the twist moves the numbers of its two inputs
        want = ("V", 0, (("V", 1, (("L", 1), ("L", 0))), ("L", 2)))
        assert got == want

    def test_unital_and_associative_exhaustively(self):
        # all composites of total arity <= 4 against double substitution
        from multicat.trees import op_signature, op_vertex_count

        pool = (op_hom_set([2], 2) + op_hom_set([1], 1)
                + op_hom_set([2, 1], 2) + op_hom_set([1, 1], 1))
        for outer in op_hom_set([2], 2) + op_hom_set([1], 1):
            vals = [int(c) for c in op_signature(outer)[0]]
            for mid in pool:
                if op_signature(mid)[1] != str(vals[0]):
                    continue
                mids = [mid] + [op_identity(v) for v in vals[1:]]
                once = op_compose(outer, mids)
                mvals = [int(c) for c in op_signature(mid)[0]]
                for inner in pool:
                    if op_signature(inner)[1] != str(mvals[0]):
                        continue
                    inners = [inner] + [op_identity(v) for v in mvals[1:]]
                    seq = op_compose(once, inners
                                     + [op_identity(v) for v in vals[1:]])
                    nested = op_compose(
                        outer, [op_compose(mid, inners)]
                        + [op_identity(v) for v in vals[1:]])
                    assert seq == nested

    def test_table_laws(self):
        T, _ = build_tree_multicategory(max_arity=3, max_vertices=2)
        report = check_multicategory_laws(T)
        assert report.ok
        assert not T.complete  # vertex growth escapes any cap


class TestFree:
    def test_empty_generators(self):
        E = FiniteCollection(("x",), {}, {})
        F, report = free_multicategory(E, symmetric=True, max_arity=3,
                                       max_vertices=3)
        assert {s: len(F.ops_at(s)) for s in F.signatures()} == {
            (("x",), "x"): 1}
        assert report.complete

    def test_planar_binary_counts(self, fx):
        F, report = free_multicategory(binary_gen(), symmetric=False,
                                       max_arity=4, max_vertices=4)
        sizes = [len(F.ops_at(((("x",) * n), "x"))) for n in range(1, 5)]
        assert sizes == fx["planar_binary_tree_sizes"]
        assert report.complete
        assert check_multicategory_laws(F).ok

    def test_symmetric_free_orbit_counts(self, fx):
        F, _ = free_multicategory(binary_gen(free_orbit=True),
                                  symmetric=True, max_arity=3,
                                  max_vertices=3)
        assert len(F.ops_at(((("x",) * 3), "x"))) == fx["labeled_magma_3"]
        assert check_multicategory_laws(F).ok

    def test_free_passes_laws_with_trivial_orbit(self):
        F, _ = free_multicategory(binary_gen(), symmetric=True,
                                  max_arity=3, max_vertices=3)
        assert check_multicategory_laws(F).ok


class TestCircle:
    def test_unit_laws(self):
        I = unit_multicategory("x")
        as2 = assoc_multicategory(2)
        left, _ = circle_product(I.collection, as2.collection, max_arity=3)
        right, _ = circle_product(as2.collection, I.collection, max_arity=3)
        for s in as2.collection.ops:
            assert len(left.ops_at(s)) == len(as2.ops_at(s))
            assert len(right.ops_at(s)) == len(as2.ops_at(s))

    def test_unit_on_unit(self):
        I = unit_multicategory("x")
        c, _ = circle_product(I.collection, I.collection, max_arity=2)
        assert sum(len(c.ops_at(s)) for s in c.ops) == 1

    def test_cardinalities_vs_oracle(self, fx):
        as2 = assoc_multicategory(2)
        c, _ = circle_product(as2.collection, as2.collection, max_arity=3)
        sizes = [sum(len(c.ops_at(s)) for s in c.ops if len(s[0]) == n)
                 for n in range(4)]
        assert sizes == fx["circle_as2_as2"]
        com2 = comm_multicategory(2)
        c2, _ = circle_product(com2.collection, com2.collection, max_arity=3)
        sizes2 = [sum(len(c2.ops_at(s)) for s in c2.ops if len(s[0]) == n)
                  for n in range(4)]
        assert sizes2 == fx["circle_com2_com2"]

    def test_associative_up_to_cardinality(self, fx):
        as2p = assoc_multicategory(2, include_nullary=False)
        c1, _ = circle_product(as2p.collection, as2p.collection, max_arity=2)
        c12, _ = circle_product(c1, as2p.collection, max_arity=2)
        c23, _ = circle_product(as2p.collection, c1, max_arity=2)
        s1 = {s: len(c12.ops_at(s)) for s in c12.ops}
        s2 = {s: len(c23.ops_at(s)) for s in c23.ops}
        assert s1 == s2
        sizes = [sum(n for s, n in s1.items() if len(s[0]) == k)
                 for k in range(3)]
        assert sizes == fx["as2pos_powers"][1][:3]

    def test_canonical_circle_matches_reference(self):
        # the orbit minimum read from the image table equals the earlier
        # minimum over all_perms with one act per permutation, and every
        # twist of an element canonicalizes back to it
        def ref_canonical_circle(root, blocks, coll):
            k = len(blocks)
            return min(("circ", ("op",) + coll.act(root[1:], p),
                        tuple(blocks[p[j]] for j in range(k)))
                       for p in perms.all_perms(k))

        for A, B in [(comm_multicategory(2), assoc_multicategory(2)),
                     (assoc_multicategory(3), comm_multicategory(2))]:
            _, decode = circle_product(A.collection, B.collection, 3)
            for e in decode.values():
                _, root, blocks = e
                for p, s, op in A.collection.images(root[1:]):
                    twisted = (("op", s, op),
                               tuple(blocks[p[j]] for j in range(len(p))))
                    assert canonical_circle(*twisted, A.collection) == (
                        ref_canonical_circle(*twisted, A.collection)) == e


# ---------------------------------------------------------------------------
# orbit minima over the least image's coset, against the full minimum


def _fixture(document, name):
    path = Path(__file__).resolve().parent.parent / "fixtures" / document
    objects, _ = elaborate(parse(path.read_text())[0])
    return objects[name]


# a free action (As), a trivial one (Com), proper stabilizers (Sym12),
# two colors (Pair), and least images at another signature (the arrow
# multicategory of As2, and the tensor generators of Com2 and As2)
COLLECTIONS = {
    "As3": lambda: assoc_multicategory(3).collection,
    "Com3": lambda: comm_multicategory(3).collection,
    "Sym12": lambda: _sym12().collection,
    "Pair": lambda: _fixture("twocolor.mcat", "Pair").collection,
    "As2^1": lambda: arrow_multicategory(assoc_multicategory(2), 1).collection,
    "Com2+As2": lambda: coproduct(comm_multicategory(2),
                                  assoc_multicategory(2)).generators,
}


def full_vertex_minimum(gsig, gid, children, gens):
    """The earlier step of canonical_term: the minimum over every image."""
    return min([("N", s, g, tuple(children[j] for j in p))
                for p, s, g in gens.images((gsig, gid))])


def full_canonical_term(t, gens):
    if t[0] == "L":
        return t
    return full_vertex_minimum(t[1], t[2], tuple(
        full_canonical_term(c, gens) for c in t[3]), gens)


def full_canonical_circle(root, blocks, coll):
    """The earlier canonical_circle: the minimum over every image."""
    s, op, bs = min([(s, op, tuple(blocks[j] for j in p))
                     for p, s, op in coll.images(root[1:])])
    return ("circ", ("op", s, op), bs)


def full_term_pool(gens, max_arity, max_vertices):
    """The earlier symmetric branch of enumerate_terms: every planar term,
    over every generator, canonicalized and closed under renumbering."""
    found, steps = {}, {}
    for t in enumerate_terms(gens, max_arity, max_vertices, False):
        c = full_canonical_term(t, gens)
        if c in found:
            continue
        found[c] = len(found)
        taus = perms.adjacent_transpositions(term_arity(t))
        frontier = [c]
        while frontier:
            x = frontier.pop()
            row = steps[found[x]] = []
            for tau in taus:
                y = full_canonical_term(renumber_term(x, tau), gens)
                if y not in found:
                    found[y] = len(found)
                    frontier.append(y)
                row.append(found[y])
    pool = FullPool(sorted(found))
    where = {found[t]: i for i, t in enumerate(pool)}
    pool.moves = [tuple(where[j] for j in steps[found[t]]) for t in pool]
    return pool


class FullPool(list):
    """The sorted terms of :func:`full_term_pool`, with ``moves``."""


def full_circle_layer(m_coll, below, max_arity):
    """The earlier circle_layer: every root drawn, minimum over every
    image."""
    sig_of = {}
    for ms in m_coll.signatures():
        for n in range(max_arity + 1):
            for blocks_pos in shuffles(n, len(ms[0])):
                pools = [below.shapes.get((out, len(S)), ())
                         for S, out in zip(blocks_pos, ms[0])]
                for op, combo in product(m_coll.ops_at(ms), product(*pools)):
                    e = full_canonical_circle(
                        ("op", ms, op), tuple(zip(blocks_pos, combo)), m_coll)
                    inputs = [None] * n
                    for S, c in e[2]:
                        for pos, color in zip(S, below.sigs[c][0]):
                            inputs[pos] = color
                    sig_of[e] = (tuple(inputs), e[1][1][1])
    return Layer(sig_of, below)


def test_collections_cover_every_kind_of_coset():
    kinds = set()
    for build in COLLECTIONS.values():
        coll = build()
        for ref in coll.refs():
            s, op, coset = least_image(coll, ref)
            n = len(ref[0][0])
            size = 1 if coset is None else len(coset)
            kinds.add("moved" if (s, op) != ref else "least")
            kinds.add("another signature" if s != ref[0] else "same")
            kinds.add("free" if size == 1 else "whole group"
                      if size == len(perms.all_perms(n)) else "proper")
    assert kinds == {"moved", "least", "another signature", "same", "free",
                     "whole group", "proper"}


@pytest.mark.parametrize("name", sorted(COLLECTIONS))
def test_vertex_minimum_matches_full_minimum(name):
    coll = COLLECTIONS[name]()
    # repeated children make ties, which a stabilizer breaks
    items = [("L", "a", 0), ("L", "a", 1), ("L", "b", 0)]
    for gsig, gid in coll.refs():
        for children in product(items, repeat=len(gsig[0])):
            assert vertex_minimum(gsig, gid, children, coll) == (
                full_vertex_minimum(gsig, gid, children, coll))
    for t in enumerate_terms(coll, 3, 2, False):
        for p in perms.all_perms(term_arity(t)):
            moved = renumber_term(t, p)
            assert canonical_term(moved, coll) == (
                full_canonical_term(moved, coll))


@pytest.mark.parametrize("name", sorted(COLLECTIONS))
def test_canonical_circle_matches_full_minimum(name):
    coll = COLLECTIONS[name]()
    # empty blocks with equal children tie
    items = [((), 0), ((), 1), ((0,), 0), ((1,), 1)]
    for ref in coll.refs():
        root = ("op",) + ref
        for blocks in product(items, repeat=len(ref[0][0])):
            assert canonical_circle(root, blocks, coll) == (
                full_canonical_circle(root, blocks, coll))


@pytest.mark.parametrize("name", sorted(COLLECTIONS))
def test_orbit_least_draws_match_full_draws(name):
    coll = COLLECTIONS[name]()
    for caps in [(3, 2), (3, 3)]:
        pool = enumerate_terms(coll, *caps, symmetric=True)
        want = full_term_pool(coll, *caps)
        assert list(pool) == list(want)
        assert pool.moves == want.moves
    layer = base_layer(coll)
    for _ in range(2):
        got = circle_layer(coll, layer, 3)
        want = full_circle_layer(coll, layer, 3)
        assert (got.elems, got.sigs, got.shapes) == (
            want.elems, want.sigs, want.shapes)
        layer = got


def _planar_oracle(coll, caps):
    return oracles.planar_term_counts(
        coll.colors, {s: len(coll.ops_at(s)) for s in coll.signatures()},
        *caps)


@pytest.mark.parametrize("document,name", [("as2.mcat", "As2"),
                                           ("twocolor.mcat", "Pair")])
@pytest.mark.parametrize("caps", [(3, 2), (2, 3), (4, 3)])
def test_planar_sizes_match_oracle(document, name, caps):
    # the planar branch draws every generator, whatever its action
    coll = _fixture(document, name).collection
    want = _planar_oracle(coll, caps)
    terms = enumerate_terms(coll, *caps, symmetric=False)
    assert Counter(map(term_signature, terms)) == want
    F, report = free_multicategory(coll, False, *caps)
    assert {s: len(F.ops_at(s)) for s in F.signatures()} == want
    assert report.term_count == sum(want.values())
    if name == "As2" and caps == (3, 2):
        assert want[("x", "x"), "x"] == 8
