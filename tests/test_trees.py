"""Tree encodings, the tree multicategory, free multicategories, circle
products; frozen oracle values throughout."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from multicat import perms
from multicat.core import FiniteCollection, check_multicategory_laws
from multicat.errors import SubstitutionError, TruncationError
from multicat.standard import assoc_multicategory, comm_multicategory, \
    unit_multicategory
from multicat.trees import (BARE_EDGE, build_tree_multicategory,
                            canonical_circle, canonical_term,
                            circle_product, corolla,
                            enumerate_terms, free_multicategory, graft,
                            identity_term, op_compose, op_hom_set,
                            op_identity, renumber_term, term_arity,
                            term_signature)

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
