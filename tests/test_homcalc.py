"""Multifunctors, multilinear transformations, the hom multicategory, and
the tensor-hom adjunction."""

from dataclasses import replace

import pytest

from multicat.algebras import EndView, ObjectFamily
from multicat.core import check_multicategory_laws
from multicat.errors import DomainError
from multicat.homcalc import (KNatTransformation, Multifunctor,
                              adjunction_check, check_multifunctor,
                              compose_multifunctors, enumerate_multifunctors,
                              generated_ops, identity_multifunctor,
                              internal_hom, is_k_natural,
                              naturality_on_generators)
from multicat.presents import arrow_multicategory
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               indiscrete_pair, unit_multicategory)

I = unit_multicategory()
AS2 = assoc_multicategory(2)
AS3 = assoc_multicategory(3)
COM2 = comm_multicategory(2)
COM3 = comm_multicategory(3)
A2 = ObjectFamily({"x": ("a", "b")})


def terminal_to_com(P, com):
    return Multifunctor(
        source=P, target=com,
        object_map={c: "x" for c in P.colors},
        op_maps={s: {op: f"m{len(s[0])}" for op in P.ops_at(s)}
                 for s in P.signatures()})


class TestMultifunctor:
    def test_identity_passes(self):
        assert check_multifunctor(identity_multifunctor(AS3)).ok

    def test_terminal_passes(self):
        assert check_multifunctor(terminal_to_com(AS3, COM3)).ok

    def test_seeded_equivariance_violation(self):
        F = terminal_to_com(AS3, COM3)
        # send the two binary orderings to the single commutative target,
        # then corrupt the unary image table with a non-functorial swap
        bad = Multifunctor(
            source=AS3, target=AS3,
            object_map={"x": "x"},
            op_maps={s: {op: op for op in AS3.ops_at(s)}
                     for s in AS3.signatures()})
        bad.op_maps[(("x", "x"), "x")] = {"w01": "w01", "w10": "w01"}
        report = check_multifunctor(bad)
        assert not report.ok
        assert any(law == "equivariance" for law, _ in report.violations)

    def test_composition(self):
        F = terminal_to_com(AS3, COM3)
        G = identity_multifunctor(COM3)
        assert compose_multifunctors(F, G).key() == F.key()


class TestEnumerate:
    def test_from_unit_matches_objects(self):
        ind = indiscrete_pair()
        assert len(enumerate_multifunctors(I, ind)) == len(ind.colors)

    def test_terminal_target_unique(self):
        assert len(enumerate_multifunctors(AS3, COM3)) == 1
        assert len(enumerate_multifunctors(AS2, COM2)) == 1

    def test_monoid_count_into_end(self, fx):
        view = EndView(A2, arity_cap=3)
        fs = enumerate_multifunctors(AS3, view, fix_objects={"x": "x"})
        assert len(fs) == fx["monoids"]["2"]

    @pytest.mark.parametrize("fix,message", [
        ({}, "the object map has no image for color x"),
        ({"x": "y"}, "the target has no color y")])
    def test_malformed_object_map_is_a_domain_error(self, fix, message):
        with pytest.raises(DomainError) as info:
            enumerate_multifunctors(COM3, EndView(A2), fix_objects=fix)
        assert str(info.value) == message


class TestNaturality:
    def test_identity_components_natural(self):
        F = identity_multifunctor(AS3)
        xi = KNatTransformation((F,), F, {"x": AS3.units["x"]})
        ok, _ = is_k_natural(xi)
        assert ok

    def test_terminal_target_always_natural(self):
        F = terminal_to_com(AS3, COM3)
        for comp in COM3.ops_at((("x", "x"), "x")):
            xi = KNatTransformation((F, F), F, {"x": comp})
            ok, _ = is_k_natural(xi)
            assert ok

    def test_seeded_failure_with_witness(self):
        view = EndView(A2, arity_cap=4)
        fs = enumerate_multifunctors(AS3, view, fix_objects={"x": "x"})
        failures = 0
        for F in fs:
            for comp in view.ops_at((("x", "x"), "x")):
                xi = KNatTransformation((F, F), F, {"x": comp})
                ok, witnesses = is_k_natural(xi)
                if not ok:
                    failures += 1
                    assert witnesses
        assert failures > 0

    def test_generator_verdicts_match_full(self):
        S = [(((), "x"), "w")] + [((("x", "x"), "x"), w)
                                  for w in AS3.ops_at((("x", "x"), "x"))]
        assert generated_ops(AS3, S) == set(AS3.refs())
        view = EndView(A2, arity_cap=4)
        fs = enumerate_multifunctors(AS3, view, fix_objects={"x": "x"})
        for F in fs:
            for G in fs:
                for comp in view.iter_ops((("x",), "x")):
                    xi = KNatTransformation((F,), G, {"x": comp})
                    full, _ = is_k_natural(xi)
                    gen, _ = naturality_on_generators(xi, S)
                    assert full == gen

    def test_non_generating_set_rejected(self):
        S = [(((), "x"), "w")]
        F = identity_multifunctor(AS3)
        xi = KNatTransformation((F,), F, {"x": AS3.units["x"]})
        with pytest.raises(DomainError):
            naturality_on_generators(xi, S)

    def test_generator_closure_is_kept_on_the_table(self):
        P = assoc_multicategory(3)
        S = [(((), "x"), "w")] + [((("x", "x"), "x"), w)
                                  for w in P.ops_at((("x", "x"), "x"))]
        got = generated_ops(P, S)
        assert got == set(P.refs())
        assert generated_ops(P, S[::-1]) is got
        assert generated_ops(assoc_multicategory(3), S) == got
        F = identity_multifunctor(P)
        xi = KNatTransformation((F,), F, {"x": P.units["x"]})
        # the same error, missing list included, whether kept or not
        for gens, missing in [
                ([(((), "x"), "w")],
                 "['x,x,x;x:w012', 'x,x,x;x:w021', 'x,x,x;x:w102', "
                 "'x,x,x;x:w120', 'x,x,x;x:w201']"),
                ([((("x", "x"), "x"), "w01")], "[';x:w']")]:
            for _ in range(2):
                with pytest.raises(DomainError) as info:
                    naturality_on_generators(xi, gens)
                assert str(info.value) == (
                    f"the given set does not generate; missing {missing}")
        assert len(P.closures) == 3

    def test_planar_closure_takes_no_symmetric_actions(self):
        # a table marked planar generates by units and composition alone:
        # w and w01 give the order-preserving operations, not all ten
        P = replace(assoc_multicategory(3), symmetric=False)
        got = generated_ops(P, [(((), "x"), "w"), ((("x", "x"), "x"), "w01")])
        assert sorted(op for _, op in got) == ["w", "w0", "w01", "w012"]


class TestInternalHom:
    def test_hom_from_unit_is_target(self):
        ind = indiscrete_pair()
        hom = internal_hom(I, ind, arity_cap=2)
        assert len(hom.functors) == len(ind.colors)
        for s in hom.table.signatures():
            # each hom set matches the corresponding set of the target
            sources = [hom.functors[c].object_map["u"] for c in s[0]]
            target = hom.functors[s[1]].object_map["u"]
            want = ind.ops_at((tuple(sources), target))
            assert len(hom.table.ops_at(s)) == len(want)
        assert check_multicategory_laws(hom.table).ok

    def test_hom_to_terminal_is_terminal(self):
        hom = internal_hom(AS2, COM2, arity_cap=2)
        assert len(hom.functors) == 1
        for s in hom.table.signatures():
            assert len(hom.table.ops_at(s)) == 1
        assert check_multicategory_laws(hom.table).ok

    def test_object_count_definitional(self):
        view = EndView(A2, arity_cap=2)
        hom = internal_hom(COM2, view, arity_cap=1)
        assert len(hom.functors) == len(
            enumerate_multifunctors(COM2, view))


class TestAdjunction:
    def test_unit_unit(self):
        rep = adjunction_check(I, I, AS2, max_arity=2, max_vertices=2)
        assert rep.ok and rep.tensor_side == 1

    def test_unit_com_end(self):
        view = EndView(A2, arity_cap=3)
        rep = adjunction_check(I, COM2, view, max_arity=2, max_vertices=3)
        assert rep.ok
        assert rep.tensor_side == rep.hom_side == 4

    def test_com_com_end(self):
        view = EndView(A2, arity_cap=4)
        rep = adjunction_check(COM2, COM2, view, max_arity=4,
                               max_vertices=4)
        assert rep.ok and rep.tensor_side == 4

    @pytest.mark.parametrize("P", [
        arrow_multicategory(I, 1), indiscrete_pair()],
        ids=["arrow", "indiscrete"])
    def test_multicolored_source(self, P):
        # the same op id at several signatures of P: transposition must
        # read the signature it loops over, not the first one holding the id
        assert len({op for s in P.signatures() for op in P.ops_at(s)}) \
            < sum(len(P.ops_at(s)) for s in P.signatures())
        rep = adjunction_check(P, I, AS2, max_arity=2, max_vertices=2)
        assert rep.bijective and rep.round_trips_ok and not rep.witnesses

    def test_naturality_in_the_target(self):
        # transposing after postcomposition equals pushing the hom side
        # forward: the square of sets commutes along End(A) -> Com2
        from multicat.homcalc import tensor_to_hom
        from multicat.presents import bv_tensor

        view = EndView(A2, arity_cap=2)
        sat = bv_tensor(I, COM2, max_arity=2, max_vertices=3)
        hom_r = internal_hom(COM2, view, arity_cap=1)
        hom_r2 = internal_hom(COM2, COM2, arity_cap=1)
        rho = Multifunctor(
            source=view, target=COM2, object_map={"x": "x"},
            op_maps={s: {op: f"m{len(s[0])}" for op in view.ops_at(s)}
                     for s in view.signatures()})

        def hom_push(K):
            object_map = {}
            for a, fid in K.object_map.items():
                pushed = compose_multifunctors(hom_r.functors[fid], rho)
                object_map[a] = hom_r2.functor_id(pushed)
            op_maps = {}
            for s, table in K.op_maps.items():
                new = {}
                for op, oid in table.items():
                    xi = hom_r.knats[K.map_sig(s), oid]
                    comps = {
                        b: rho.map_ref(xi.component_ref(b))[1]
                        for b in xi.components}
                    new[op] = "{" + ",".join(
                        f"{b}:{comps[b]}" for b in sorted(comps)) + "}"
                op_maps[s] = new
            return Multifunctor(source=K.source, target=hom_r2.table,
                                object_map=object_map, op_maps=op_maps)

        for H in enumerate_multifunctors(sat.table, view):
            K = tensor_to_hom(H, I, COM2, view, sat, hom_r)
            direct = tensor_to_hom(compose_multifunctors(H, rho),
                                   I, COM2, COM2, sat, hom_r2)
            assert K is not None and direct is not None
            assert hom_push(K).key() == direct.key()


# ---------------------------------------------------------------------------
# check_multifunctor against the check on text it replaced


def ref_check_multifunctor(F):
    """The earlier `check_multifunctor`, kept whole: every image is a
    ``(signature, op id)`` reference and the target acts and composes on
    text."""
    import lookups
    from multicat import perms
    from multicat.core import LawReport, _ref_str, sig_key

    P, Q = F.source, F.target
    report = LawReport()
    for s in P.signatures():
        table = F.op_maps.get(s, {})
        ms = F.map_sig(s)
        for op in P.ops_at(s):
            report.note("total")
            if op not in table:
                report.fail("total", f"{sig_key(s)}:{op}")
            elif table[op] not in Q.ops_at(ms):
                report.fail("lands-in-target", f"{sig_key(s)}:{op}")
    if report.violations:
        return report
    for c in P.colors:
        report.note("units")
        if F.map_ref(P.unit_ref(c)) != Q.unit_ref(F.object_map[c]):
            report.fail("units", f"color {c}")
    if P.symmetric:
        for s in P.signatures():
            n = len(s[0])
            for p in perms.all_perms(n):
                for op in P.ops_at(s):
                    report.note("equivariance")
                    if F.map_ref(P.collection.act((s, op), p)) != lookups.act(
                            Q, F.map_ref((s, op)), p):
                        report.fail("equivariance",
                                    f"{sig_key(s)}:{op} perm {p}")
    for pref, slot, qref, rref in P.cells():
        report.note("compositions")
        got = Q.compose1(F.map_ref(pref), slot, F.map_ref(qref))
        if got != F.map_ref(rref):
            report.fail(
                "compositions",
                f"({_ref_str(pref)}) o_{slot} ({_ref_str(qref)})")
    return report


def _fixture_functors():
    from pathlib import Path

    from multicat.algebras import AlgebraStructure
    from multicat.dsl import elaborate, parse

    out = {}
    for path in sorted((Path(__file__).parent.parent / "fixtures"
                        ).glob("*.mcat")):
        objects, _ = elaborate(parse(path.read_text())[0])
        for name, obj in objects.items():
            if isinstance(obj, Multifunctor):
                out[name] = obj
            elif isinstance(obj, AlgebraStructure):
                out[name] = obj.to_multifunctor()
    return out


def _identity_into_as3():
    return identity_multifunctor(AS3)


def _drop_w10(F):
    del F.op_maps[(("x", "x"), "x")]["w10"]


def _collapse_binary(F):
    F.op_maps[(("x", "x"), "x")] = {"w01": "w01", "w10": "w01"}


def _constant_ternary(F):
    # the ternary images all go to one constant function, which every
    # permutation fixes: equivariant, but not the composite of the
    # binary images
    s3 = (("x",) * 3, "x")
    F.op_maps[s3] = {op: "f:a|a|a|a|a|a|a|a" for op in F.op_maps[s3]}


def _algebra_into_end():
    from multicat.algebras import enumerate_algebras

    return enumerate_algebras(AS3, A2)[0].to_multifunctor()


# name -> (a multifunctor, the edit in place that breaks it, the law the
# edit breaks)
EDITS = {"missing-image": (_identity_into_as3, _drop_w10, "total"),
         "not-equivariant": (_identity_into_as3, _collapse_binary,
                             "equivariance"),
         "wrong-composite": (_algebra_into_end, _constant_ternary,
                             "compositions")}


def _broken(name):
    make, edit, _ = EDITS[name]
    F = make()
    edit(F)
    return F


BROKEN = {name: (lambda name=name: _broken(name)) for name in EDITS}


def _censuses():
    from multicat.algebras import enumerate_algebras

    A3 = ObjectFamily({"x": ("a", "b", "c")})
    return ([A.to_multifunctor() for A in enumerate_algebras(COM3, A3)]
            + [A.to_multifunctor() for A in enumerate_algebras(AS3, A2)])


def assert_same_report(F):
    new, ref = check_multifunctor(F), ref_check_multifunctor(F)
    assert new.violations == ref.violations
    assert list(new.checked.items()) == list(ref.checked.items())
    assert new.to_json() == ref.to_json()
    return new


@pytest.mark.parametrize("name", sorted(_fixture_functors()))
def test_check_matches_text_reference_on_fixtures(name):
    assert assert_same_report(_fixture_functors()[name]).ok


def test_check_matches_text_reference_on_censuses():
    functors = _censuses()
    assert len(functors) == 27 + 4
    for F in functors:
        assert assert_same_report(F).ok


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_check_matches_text_reference_on_broken_functors(name):
    report = assert_same_report(BROKEN[name]())
    law = {"missing-image": "total", "not-equivariant": "equivariance",
           "wrong-composite": "compositions"}[name]
    assert law in {law for law, _ in report.violations}


# ---------------------------------------------------------------------------
# the images kept on a multifunctor are read again after an edit in place


@pytest.mark.parametrize("name", sorted(EDITS))
def test_edit_after_a_check_is_seen(name):
    make, edit, law = EDITS[name]
    F = make()
    assert check_multifunctor(F).ok
    edit(F)
    report = assert_same_report(F)
    assert law in {law for law, _ in report.violations}


def test_object_map_edit_after_a_check_is_seen():
    # two colors with equal carriers: the same tables are operations at
    # either, so moving the color keeps F a multifunctor, but every image
    # moves to the other color's signatures (a stale image of the unit
    # would fail the unit law)
    view = EndView(ObjectFamily({"x": ("a", "b"), "y": ("a", "b")}), 3)
    F = enumerate_multifunctors(COM3, view, fix_objects={"x": "x"})[1]
    assert check_multifunctor(F).ok
    F.object_map["x"] = "y"
    assert assert_same_report(F).ok


@pytest.mark.parametrize("name", sorted(EDITS))
def test_naturality_edit_after_a_check_is_seen(name):
    from test_hom_search import ref_is_k_natural

    make, edit, _ = EDITS[name]
    F, G = make(), make()
    Q = G.target
    unit = Q.unit_ref("x")[1]
    xi = KNatTransformation((F,), G, {"x": unit})
    assert is_k_natural(xi) == (True, [])
    gens = [(((), "x"), op) for op in F.source.ops_at(((), "x"))] + [
        ((("x", "x"), "x"), op) for op in F.source.ops_at((("x", "x"), "x"))]
    assert naturality_on_generators(xi, gens) == (True, [])
    edit(G)
    got = is_k_natural(xi)
    assert got == ref_is_k_natural(xi)
    # a missing image leaves its square out, so only the other two edits
    # break naturality
    assert got[0] == (name == "missing-image")
    assert naturality_on_generators(xi, gens) == ref_is_k_natural(
        xi, sorted(gens))
