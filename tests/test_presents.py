"""Saturation, coproducts, the tensor product, the arrow family, pushouts."""

import oracles
import pytest

from multicat import perms
from multicat.core import FiniteCollection, check_multicategory_laws, sig_key
from multicat.errors import PartialInputError
from multicat.homcalc import (Multifunctor, enumerate_multifunctors,
                              identity_multifunctor)
from multicat.presents import (Presentation, arrow_multicategory, bv_tensor,
                               coproduct, interchange_relations, pushout,
                               saturate)
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               unit_multicategory)
from multicat.trees import corolla, graft, term_signature, term_text

I = unit_multicategory()
AS3 = assoc_multicategory(3)
COM2 = comm_multicategory(2)
COM3 = comm_multicategory(3)

S2 = (("x", "x"), "x")


def binary_presentation(with_assoc=True):
    gens = FiniteCollection(
        ("x",), {S2: ("m",)},
        {(S2, p): {"m": "m"} for p in perms.all_perms(2)})
    g = corolla(S2, "m")
    rels = ((graft(g, 0, g), graft(g, 1, g)),) if with_assoc else ()
    return Presentation(gens, rels, name="binary")


class TestSaturate:
    def test_no_relations_matches_free(self):
        # the free operad on a commutative binary generator, counted
        # independently: every arity up to the caps fits the vertex cap
        pres = binary_presentation(with_assoc=False)
        for max_arity, max_vertices in ((3, 2), (4, 3)):
            sat = saturate(pres, max_arity, max_vertices)
            assert {len(s[0]): len(sat.table.ops_at(s))
                    for s in sat.table.ops} == {
                n: oracles.commutative_binary_count(n)
                for n in range(1, max_arity + 1)}
        assert [oracles.commutative_binary_count(n)
                for n in range(1, 6)] == [1, 1, 3, 15, 105]

    def test_associativity_single_class_per_arity(self):
        sat = saturate(binary_presentation(), max_arity=4, max_vertices=3)
        assert sat.report.stabilized
        assert all(n == 1 for n in sat.report.class_counts.values())
        assert check_multicategory_laws(sat.table).ok

    def test_caps_too_small(self):
        sat = saturate(binary_presentation(), max_arity=4, max_vertices=1)
        assert not sat.report.stabilized
        assert sat.report.seed_escapes > 0


class TestCoproduct:
    def test_unit_plus_unit(self):
        pres = coproduct(I, I)
        sat = saturate(pres, max_arity=2, max_vertices=2)
        assert sat.report.stabilized
        assert sat.report.class_counts == {"u.u;u.u": 1}

    def test_as3_plus_unit_is_as3(self):
        sat = saturate(coproduct(AS3, I), max_arity=3, max_vertices=3)
        assert sat.report.stabilized
        got = {k: v for k, v in sat.report.class_counts.items()}
        assert got == {";x.u": 1, "x.u;x.u": 1, "x.u,x.u;x.u": 2,
                       "x.u,x.u,x.u;x.u": 6}
        assert check_multicategory_laws(sat.table).ok

    def test_maps_out_correspond_to_pairs(self):
        # multifunctors off the coproduct match pairs agreeing on objects
        sat = saturate(coproduct(COM2, I), max_arity=2, max_vertices=3)
        assert sat.report.stabilized
        out = enumerate_multifunctors(sat.table, COM2)
        pairs = []
        for F in enumerate_multifunctors(COM2, COM2):
            for G in enumerate_multifunctors(I, COM2):
                if set(G.object_map.values()) <= set(F.object_map.values()):
                    pairs.append((F, G))
        assert len(out) == len(pairs)

    def test_refuses_partial(self):
        from multicat.trees import build_tree_multicategory

        T, _ = build_tree_multicategory(max_arity=2, max_vertices=2)
        with pytest.raises(PartialInputError):
            coproduct(T, I)


class TestTensor:
    @pytest.mark.parametrize("P,caps", [
        (I, (2, 2)), (COM3, (3, 3)), (AS3, (3, 3)),
    ], ids=lambda x: getattr(x, "name", str(x)))
    def test_unit_law(self, P, caps):
        sat = bv_tensor(I, P, max_arity=caps[0], max_vertices=caps[1])
        assert sat.report.stabilized
        want = {}
        for s in P.signatures():
            key = ",".join(f"u.{c}" for c in s[0]) + f";u.{s[1]}"
            want[key] = len(P.ops_at(s))
        assert sat.report.class_counts == want
        assert check_multicategory_laws(sat.table).ok
        # explicit isomorphism: evaluate class representatives back into P
        iso = _unit_tensor_iso(sat, P)
        assert iso is not None

    def test_com_tensor_com(self):
        sat = bv_tensor(COM2, COM2, max_arity=4, max_vertices=4)
        assert sat.report.stabilized
        assert all(n == 1 for n in sat.report.class_counts.values())
        assert check_multicategory_laws(sat.table).ok

    def test_com3_collapses_within_caps(self):
        sat = bv_tensor(COM3, COM3, max_arity=4, max_vertices=4)
        # the larger interchange seeds do not fit; the report says so
        assert not sat.report.stabilized
        assert all(n == 1 for n in sat.report.class_counts.values())

    def test_symmetry_by_color_swap(self):
        left = bv_tensor(COM2, I, max_arity=2, max_vertices=3)
        right = bv_tensor(I, COM2, max_arity=2, max_vertices=3)
        swap = {"x.u;x.u": "u.x;u.x", ";x.u": ";u.x",
                "x.u,x.u;x.u": "u.x,u.x;u.x"}
        assert {swap[k]: v for k, v in left.report.class_counts.items()} == \
            right.report.class_counts

    def test_interchange_square_collapses(self):
        # both composites of every bilinearity square share a class
        sat = bv_tensor(COM2, COM2, max_arity=4, max_vertices=4)
        rels = interchange_relations(COM2, COM2,
                                     sat.presentation.generators)
        assert rels
        for left, right in rels:
            cl, cr = sat.class_of(left), sat.class_of(right)
            assert cl is not None and cl == cr

    def test_generators_generate(self):
        # every class representative is a grafting of one-sided generators
        sat = bv_tensor(I, COM2, max_arity=2, max_vertices=3)
        for rep in set(sat.rep_of.values()):
            def check(node):
                if node[0] == "L":
                    return True
                assert node[2].startswith(("p:", "q:"))
                return all(check(c) for c in node[3])
            assert check(rep)

    def test_coproduct_plus_interchange_equals_tensor(self):
        pres = coproduct(COM2, COM2)
        plain = saturate(pres, max_arity=4, max_vertices=4)
        tens = bv_tensor(COM2, COM2, max_arity=4, max_vertices=4)
        # the coproduct does not identify the two binary generators
        assert plain.report.class_counts["x.x,x.x;x.x"] > \
            tens.report.class_counts["x.x,x.x;x.x"]


def _unit_tensor_iso(sat, P):
    """The evaluation multifunctor from the saturated unit tensor onto P,
    bijective per signature; None when anything fails."""
    from multicat.homcalc import check_multifunctor
    from multicat.presents import pair_color

    T = sat.table
    u = I.colors[0]
    color_map = {pair_color(u, c): c for c in P.colors}

    def gen_image(gsig, gid):
        if gsig is None:
            return color_map[gid]
        kind, mid, rest = gid.split(":", 2)
        assert kind == "q"
        qsig = next(s for s in P.signatures() if rest in P.ops_at(s))
        return (qsig, rest)

    from multicat.homcalc import evaluate_term
    from multicat.trees import term_signature as tsig

    op_maps = {}
    for s in T.signatures():
        table = {}
        for tid in T.ops_at(s):
            rep = next(r for r in set(sat.rep_of.values())
                       if tsig(r) == s and term_text(r) == tid)
            table[tid] = evaluate_term(rep, P, gen_image)[1]
        op_maps[s] = table
    F = Multifunctor(source=T, target=P, object_map=color_map,
                     op_maps=op_maps)
    if not check_multifunctor(F).ok:
        return None
    for s in T.signatures():
        images = set(op_maps[s].values())
        target = (tuple(color_map[c] for c in s[0]), color_map[s[1]])
        if len(images) != len(T.ops_at(s)) or images != set(
                P.ops_at(target)):
            return None
    return F


class TestArrow:
    def test_level_zero(self):
        assert arrow_multicategory(AS3, 0) is AS3

    def test_level_one_formula(self):
        P1 = arrow_multicategory(AS3, 1)
        assert P1.ops_at((("1",), "0")) == ()
        assert len(P1.ops_at((("0",), "1"))) == len(AS3.ops_at((("x",), "x")))
        assert len(P1.ops_at((("0", "1"), "1"))) == 2
        assert check_multicategory_laws(P1).ok

    def test_nullary_everywhere(self):
        P1 = arrow_multicategory(AS3, 1)
        for c in ("0", "1"):
            assert len(P1.ops_at(((), c))) == 1

    def test_level_two_matches_pushout_of_arrows(self):
        P = COM2
        P2 = arrow_multicategory(P, 2)
        P1 = arrow_multicategory(P, 1)
        # the span P1 <- P -> P1 along the endpoint inclusions 1 and 0
        incl1 = Multifunctor(
            source=P, target=P1, object_map={"x": "1"},
            op_maps={s: {op: op for op in P.ops_at(s)}
                     for s in P.signatures()})
        incl0 = Multifunctor(
            source=P, target=P1, object_map={"x": "0"},
            op_maps={s: {op: op for op in P.ops_at(s)}
                     for s in P.signatures()})
        pres = pushout(incl1, incl0)
        sat = saturate(pres, max_arity=2, max_vertices=3)
        assert sat.report.stabilized
        got = {}
        for key, n in sat.report.class_counts.items():
            got[key] = n
        # compare per-signature counts through the color identification
        rename = {"b_0": "0", "b_1.c_0": "1", "c_1": "2"}
        want = {}
        for s in P2.signatures():
            key = ",".join(s[0]) + ";" + s[1]
            want[key] = len(P2.ops_at(s))
        translated = {}
        for key, n in got.items():
            ins, _, out = key.partition(";")
            cols = [rename[c] for c in ins.split(",") if c]
            translated[",".join(cols) + ";" + rename[out]] = n
        assert translated == want


class TestPushout:
    def test_identity_span(self):
        ident = identity_multifunctor(COM2)
        sat = saturate(pushout(ident, ident), max_arity=2, max_vertices=3)
        assert sat.report.stabilized
        assert all(n == 1 for n in sat.report.class_counts.values())

    def test_pushout_over_empty_is_disjoint_union(self):
        # the pushout over the empty multicategory is the categorical
        # coproduct (a disjoint union of colors and operations); note this
        # differs from `coproduct`, which is the paired-color construction
        from multicat.core import TableMulticategory

        empty = TableMulticategory(
            collection=FiniteCollection((), {}, {}), units={}, comp={},
            name="empty")
        f = Multifunctor(source=empty, target=I, object_map={}, op_maps={})
        g = Multifunctor(source=empty, target=COM2, object_map={},
                         op_maps={})
        sat = saturate(pushout(f, g), max_arity=2, max_vertices=3)
        assert sat.report.stabilized
        got = {}
        for key, n in sat.report.class_counts.items():
            got[key] = n
        want = {}
        for M, side in ((I, "b"), (COM2, "c")):
            for s in M.signatures():
                key = (",".join(f"{side}_{c}" for c in s[0])
                       + ";" + f"{side}_{s[1]}")
                want[key] = len(M.ops_at(s))
        assert got == want
