"""End structures, algebra censuses, free algebras, the map classifier,
the tree-multicategory correspondence, the arrow-construction censuses."""

from dataclasses import replace
from itertools import product

import pytest

from multicat import perms
from multicat.algebras import (AlgebraStructure, EndView, ObjectFamily,
                               algebra_from_multifunctor, check_algebra,
                               end_multicategory, end_module, end_of_map,
                               enumerate_algebras, free_algebra,
                               is_algebra_hom, op_algebra_to_operad,
                               operad_to_op_algebra, p1_algebras_as_triples)
from multicat.core import check_multicategory_laws
from multicat.errors import (BudgetExceededError, CompositionError,
                             DomainError)
from multicat.homcalc import check_multifunctor
from multicat.presents import arrow_multicategory
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               indiscrete_pair, unit_multicategory)
from multicat.trees import build_tree_multicategory

I = unit_multicategory()
AS3 = assoc_multicategory(3)
COM3 = comm_multicategory(3)
A1 = ObjectFamily({"x": ("a",)})
A2 = ObjectFamily({"x": ("a", "b")})
A3 = ObjectFamily({"x": ("a", "b", "c")})


class TestEnd:
    def test_cardinalities_formula(self):
        mixed = ObjectFamily({"x": ("a", "b"), "y": ("c", "d", "e")})
        view = EndView(mixed, arity_cap=3)
        for s in view.signatures():
            dom = 1
            for c in s[0]:
                dom *= len(mixed.carrier(c))
            want = len(mixed.carrier(s[1])) ** dom
            ops = view.ops_at(s)
            assert ops.size == want
            if want <= 2000:
                assert len(list(ops)) == want

    def test_single_color_sizes(self):
        view = EndView(A2, arity_cap=2)
        sizes = [view.ops_at((("x",) * n, "x")).size for n in range(3)]
        assert sizes == [2, 4, 16]

    def test_materialized_laws(self):
        E = end_multicategory(A2, arity_cap=2)
        assert check_multicategory_laws(E).ok

    def test_binary_action_swaps_arguments(self):
        view = EndView(A2, arity_cap=2)
        s = (("x", "x"), "x")
        # the first-projection table becomes the second projection
        proj1 = "f:" + "|".join(a for a in ("a", "a", "b", "b"))
        acted = view.act((s, proj1), (1, 0))[1]
        proj2 = "f:" + "|".join(a for a in ("a", "b", "a", "b"))
        assert acted == proj2

    def test_overflow_guard(self):
        with pytest.raises(BudgetExceededError):
            end_multicategory(A3, arity_cap=3, limit=1000)


class TestCensus:
    def test_unit_unique(self):
        assert len(enumerate_algebras(I, ObjectFamily({"u": ("p", "q")}))) == 1

    @pytest.mark.parametrize("P,key", [(AS3, "monoids"),
                                       (COM3, "commutative_monoids")],
                             ids=["assoc", "comm"])
    def test_counts_match_table_search(self, P, key, fx):
        assert len(enumerate_algebras(P, A2)) == fx[key]["2"]
        assert len(enumerate_algebras(P, A3)) == fx[key]["3"]

    def test_check_reuses_the_census_view(self):
        algs = enumerate_algebras(COM3, A3) + enumerate_algebras(AS3, A2)
        s3 = (("x",) * 3, "x")
        broken = algs[-1].action[s3]
        algs.append(replace(algs[-1], action={
            **algs[-1].action, s3: {op: ("a",) * 8 for op in broken}}))
        for A in algs:
            assert A.view is not None
            assert A.to_multifunctor().target is A.view
            got = check_algebra(A)
            fresh = check_multifunctor(replace(A, view=None).to_multifunctor())
            assert got.violations == fresh.violations
            assert list(got.checked.items()) == list(fresh.checked.items())
            assert got.to_json() == fresh.to_json()
        assert not got.ok
        assert algs[0].to_multifunctor(arity_cap=4).target is not algs[0].view
        assert algs[0].to_multifunctor(limit=10).target is not algs[0].view

    def test_encodings_interconvert(self):
        for alg in enumerate_algebras(AS3, A2):
            F = alg.to_multifunctor()
            back = algebra_from_multifunctor(F)
            assert back.key() == alg.key()
            assert check_multifunctor(F).ok


class TestFreeTruncation:
    def test_require_complete_raises(self):
        from multicat.errors import TruncationError
        from multicat.trees import free_multicategory

        s0 = ((), "x")
        s2 = (("x", "x"), "x")
        gens = __import__("multicat.core", fromlist=["FiniteCollection"]
                          ).FiniteCollection(
            ("x",),
            {s0: ("e",), s2: ("g",)},
            {(s0, ()): {"e": "e"},
             **{(s2, p): {"g": "g"} for p in perms.all_perms(2)}})
        with pytest.raises(TruncationError):
            free_multicategory(gens, symmetric=True, max_arity=2,
                               max_vertices=3, require_complete=True)


class TestFreeAlgebra:
    def test_unit_multicategory_gives_back_carrier(self):
        fa = free_algebra(I, ObjectFamily({"u": ("p", "q")}))
        assert len(fa.carriers["u"]) == 2

    def test_com_multisets(self, fx):
        fa = free_algebra(COM3, A2)
        by_level = {}
        for eid, (s, op, args) in fa.decode.items():
            by_level[len(args)] = by_level.get(len(args), 0) + 1
        assert [by_level.get(n, 0) for n in range(4)] == fx["multisets_2"]

    def test_monad_unit_laws_elementwise(self):
        fa = free_algebra(COM3, A2)
        P = COM3
        for eid, (s, op, args) in fa.decode.items():
            # mu after eta-on-the-outside: wrap in the unit operation
            wrapped = fa.mu(P.unit_ref(s[1]), (eid,))
            assert wrapped == eid
            # mu after mapping eta over the arguments
            etas = tuple(fa.eta("x", a) for a in args)
            # arguments become unary elements; substitute them back in
            got = fa.mu((s, op), etas)
            assert got == eid

    def test_substituting_an_element_of_another_color_raises(self):
        # the unit acts as the identity only on its own color: substituting
        # an element of color b into an input of color a is refused
        P = indiscrete_pair()
        fa = free_algebra(P, ObjectFamily({"a": ("p",), "b": ("q",)}))
        eb = fa.carriers["b"][0]
        for pref in (P.unit_ref("a"), ((("a",), "b"), "f")):
            with pytest.raises(CompositionError) as exc:
                fa.mu(pref, (eb,))
            assert str(exc.value) == (
                f"color mismatch: slot 0 of a;{pref[0][1]} expects a, "
                "argument outputs b")

    def test_monad_associativity_elementwise(self):
        P = COM3
        fa = free_algebra(P, A2)
        # two-layer elements built from binary over unary pieces
        s2 = (("x", "x"), "x")
        unaries = [eid for eid, (s, _, _) in fa.decode.items()
                   if len(s[0]) == 1]
        for e1 in unaries:
            for e2 in unaries:
                one = fa.mu((s2, "m2"), (e1, e2))
                assert one in fa.decode

    @pytest.mark.parametrize("P", [AS3, COM3], ids=["assoc", "comm"])
    def test_orbit_ids_match_reference(self, P):
        # element ids are the minimum over the image table; the earlier
        # loop took it over all_perms with one act per permutation
        from multicat.algebras import _canon_free, _free_id

        def ref_id(s, op, args):
            return min(_free_id(*P.collection.act((s, op), p),
                                tuple(args[i] for i in p))
                       for p in perms.all_perms(len(args)))

        fa = free_algebra(P, A2)
        assert len(fa.decode) >= 10
        for eid, (s, op, args) in fa.decode.items():
            for p, s2, op2 in P.collection.images((s, op)):
                twisted = tuple(args[i] for i in p)
                assert _canon_free(P, s2, op2, twisted) == (
                    ref_id(s2, op2, twisted)) == eid


class TestEndPairsAndMaps:
    @pytest.mark.parametrize("f,target,message", [
        ({"y": {"a": "b"}}, A2, "map not total on carrier x"),
        ({"x": {"a": "b"}}, A2, "map not total on carrier x"),
        ({"x": {"a": "b", "b": "a"}}, ObjectFamily({"y": ("a", "b")}),
         "the target has no carrier x"),
        ({"x": {"a": "c", "b": "a"}}, A2, "map leaves carrier x"),
    ])
    def test_map_off_the_carriers_is_a_domain_error(self, f, target,
                                                    message):
        with pytest.raises(DomainError, match=message):
            end_of_map(f, A2, target, arity_cap=1)

    def test_pair_cardinalities(self):
        B = ObjectFamily({"x": ("p", "q", "r")})
        mod = end_module(A2, B, arity_cap=2)
        for n in range(3):
            s = (("x",) * n, "x")
            assert len(mod.ops_at(s)) == 3 ** (2 ** n)

    def test_pair_with_equal_carriers_matches_end(self):
        mod = end_module(A2, A2, arity_cap=2)
        E = end_multicategory(A2, arity_cap=2)
        for s in E.signatures():
            assert sorted(mod.ops_at(s)) == sorted(E.ops_at(s))

    def test_pair_bimodule_compatibility(self):
        # (psi . (m1..mn)) . (phi...) = psi . (m_i . phi_i...) over all
        # instances with arity <= 2 on 2-element carriers
        B = ObjectFamily({"x": ("p", "q")})
        mod = end_module(A2, B, arity_cap=2)
        viewB = EndView(B, arity_cap=2)
        viewA = EndView(A2, arity_cap=2)
        s1 = (("x",), "x")
        psi_pool = [((s1,), opid) for opid in viewB.ops_at(s1)]
        m_pool = [(s1, m) for m in mod.ops_at(s1)]
        phi_pool = [(s1, f) for f in viewA.ops_at(s1)]
        for psi in viewB.ops_at((("x", "x"), "x")):
            psi_ref = ((("x", "x"), "x"), psi)
            for m1 in m_pool:
                for m2 in m_pool:
                    combined = mod.left_act(psi_ref, (m1, m2))
                    for f1 in phi_pool:
                        for f2 in phi_pool:
                            left = mod.right_act1(
                                mod.right_act1(combined, 1, f2), 0, f1)
                            right = mod.left_act(
                                psi_ref, (mod.right_act1(m1, 0, f1),
                                          mod.right_act1(m2, 0, f2)))
                            assert left == right

    def test_end_of_identity_matches_end(self):
        f = {"x": {"a": "a", "b": "b"}}
        table, projA, projB = end_of_map(f, A2, A2, arity_cap=2)
        E = end_multicategory(A2, arity_cap=2)
        for s in E.signatures():
            assert len(table.ops_at(s)) == len(E.ops_at(s))
        assert check_multifunctor(projA).ok
        assert check_multifunctor(projB).ok
        assert check_multicategory_laws(table).ok

    def test_constant_map_membership(self):
        f = {"x": {"a": "p", "b": "p"}}
        B = ObjectFamily({"x": ("p", "q")})
        table, _, _ = end_of_map(f, A2, B, arity_cap=2)
        viewA = EndView(A2, arity_cap=2)
        viewB = EndView(B, arity_cap=2)
        s = (("x", "x"), "x")
        for pid in table.ops_at(s):
            phi, psi = pid[1:-1].split(",")
            for z in product(("a", "b"), repeat=2):
                fz = tuple("p" for _ in z)
                assert f["x"][viewA.apply((s, phi), z)] == \
                    viewB.apply((s, psi), fz)

    def test_map_classifier_induces_structures(self):
        f = {"x": {"a": "a", "b": "b"}}
        table, projA, projB = end_of_map(f, A2, A2, arity_cap=3)
        from multicat.homcalc import enumerate_multifunctors

        fs = enumerate_multifunctors(AS3, table, fix_objects={"x": "x"})
        for F in fs:
            from multicat.homcalc import compose_multifunctors

            a_side = algebra_from_multifunctor(
                _into_view(compose_multifunctors(F, projA), A2))
            b_side = algebra_from_multifunctor(
                _into_view(compose_multifunctors(F, projB), A2))
            assert check_algebra(a_side).ok
            assert check_algebra(b_side).ok
            assert is_algebra_hom(a_side, b_side, f)

    def test_hom_criterion_matches_classifier(self):
        # f is a homomorphism iff all image pairs intertwine
        f = {"x": {"a": "b", "b": "b"}}
        algs = enumerate_algebras(AS3, A2)
        table, _, _ = end_of_map(f, A2, A2, arity_cap=3)
        for a0 in algs:
            for a1 in algs:
                direct = is_algebra_hom(a0, a1, f)
                classifier = all(
                    f"<{'f:' + '|'.join(a0.action[s][op])},"
                    f"{'f:' + '|'.join(a1.action[s][op])}>"
                    in table.ops_at(s)
                    for s in AS3.signatures() for op in AS3.ops_at(s))
                assert direct == classifier


def _into_view(F, family):
    view = EndView(family, arity_cap=3)
    return type(F)(source=F.source, target=view,
                   object_map=F.object_map, op_maps=F.op_maps)


@pytest.fixture(scope="module")
def tree_table():
    return build_tree_multicategory(max_arity=3, max_vertices=2)


class TestTreeAlgebraCorrespondence:

    @pytest.mark.parametrize("make", [unit_multicategory,
                                      lambda: comm_multicategory(3),
                                      lambda: assoc_multicategory(3)],
                             ids=["unit", "comm", "assoc"])
    def test_roundtrip(self, make, tree_table):
        P = make()
        T, struct = tree_table
        alg = operad_to_op_algebra(P, T, struct, max_arity=3)
        assert check_algebra(alg).ok
        back, report = op_algebra_to_operad(alg, max_arity=3)
        assert report.ok
        col = P.colors[0]
        for n in range(4):
            assert sorted(back.ops_at((("x",) * n, "x"))) == sorted(
                P.ops_at(((col,) * n, col)))
        for (psig, p, slot, qsig, q), r in P.comp.items():
            key = ((("x",) * len(psig[0]), "x"), p, slot,
                   (("x",) * len(qsig[0]), "x"), q)
            assert back.comp.get(key) == r
        for (s, pm), tab in P.collection.action.items():
            key = ((("x",) * len(s[0]), "x"), pm)
            assert back.collection.action.get(key) == tab
        assert list(back.units.values()) == list(P.units.values())

    def test_seeded_violation_reported(self, tree_table):
        T, struct = tree_table
        alg = operad_to_op_algebra(AS3, T, struct, max_arity=3)
        # corrupt one slot-composition action value
        s = (("2", "2"), "3")
        tid = sorted(alg.action[s])[0]
        table = dict(alg.action)
        row = dict(table[s])
        old = row[tid]
        swapped = tuple(
            "w" + "".join(str((1, 0, 2)[int(c)]) for c in v[1:])
            if v.startswith("w") and len(v) == 4 else v for v in old)
        row[tid] = swapped
        table[s] = row
        bad = AlgebraStructure(alg.multicategory, alg.carrier, table)
        _, report = op_algebra_to_operad(bad, max_arity=3)
        assert not report.ok

    @pytest.mark.parametrize("make,family", [
        # no carriers named by arities
        (lambda: AS3, A2),
        # carriers at arities 0..3, but over the arrow multicategory
        (lambda: arrow_multicategory(I, 3),
         ObjectFamily({str(n): ("a",) for n in range(4)}))],
        ids=["monoid", "arrows"])
    def test_read_off_needs_a_tree_algebra(self, make, family):
        alg = enumerate_algebras(make(), family)[0]
        with pytest.raises(DomainError, match="over the tree multicategory"):
            op_algebra_to_operad(alg, max_arity=3)


class TestArrowCensus:
    def test_unit_triples_are_functions(self):
        rep = p1_algebras_as_triples(I, ObjectFamily({"u": ("p", "q")}),
                                     ObjectFamily({"u": ("s",)}))
        assert rep["bijective"]
        assert rep["arrow_count"] == 1  # one function to a point

    def test_monoid_triples(self, fx):
        rep = p1_algebras_as_triples(AS3, A2, A2)
        assert rep["bijective"]
        assert rep["arrow_count"] == fx["monoid_triples_2_2"]

    def test_strings_of_length_two(self, fx):
        P2 = arrow_multicategory(AS3, 2)
        family = ObjectFamily({"0": ("a", "b"), "1": ("a", "b"),
                               "2": ("a", "b")})
        algs = enumerate_algebras(P2, family)
        assert len(algs) == fx["monoid_strings2_2"]


class TestFreeForgetful:
    def test_algebra_maps_biject_with_carrier_maps(self):
        P = COM3
        base = A1
        fa = free_algebra(P, base)
        fam = fa.family()
        targets = enumerate_algebras(P, A2)
        for beta in targets:
            carrier_maps = list(product(("a", "b"), repeat=1))
            algebra_maps = []
            for images in product(("a", "b"), repeat=len(fam.carrier("x"))):
                f = {"x": dict(zip(fam.carrier("x"), images))}
                # respects the free structure: determined by unit level
                if _is_free_algebra_map(P, fa, beta, f):
                    algebra_maps.append(f)
            assert len(algebra_maps) == len(carrier_maps)


def _is_free_algebra_map(P, fa, beta, f):
    for eid, (s, op, args) in fa.decode.items():
        want = beta.apply((s, op), tuple(f["x"][fa.eta("x", a)]
                                         for a in args))
        if f["x"][eid] != want:
            return False
    return True
