"""Tables, law checking, the underlying category, nerves, object maps."""

from dataclasses import replace

import pytest

from multicat import dsl, perms
from multicat.bimodules import module_from_multicategory
from multicat.core import (FiniteCollection, TableMulticategory,
                           check_multicategory_laws, compose_values,
                           extend_objects_injective, is_equivalence, nerve,
                           restrict_objects, sig_key)
from multicat.errors import CompositionError, DomainError, StructuralError
from multicat.homcalc import Multifunctor, identity_multifunctor
from multicat.jsonio import category_json
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               corrupt_unit, discrete_pair, indiscrete_pair,
                               unit_multicategory)

I = unit_multicategory()
AS3 = assoc_multicategory(3)
COM3 = comm_multicategory(3)


@pytest.mark.parametrize("M", [I, AS3, COM3, indiscrete_pair(),
                               discrete_pair(), assoc_multicategory(2)],
                         ids=lambda M: M.name)
def test_corpus_laws(M):
    assert check_multicategory_laws(M).ok


def test_a_unit_acts_only_on_its_own_color(docs_dir):
    # Pair has one operation f at each of (a;a), (a;b), (b;a), (b;b), the
    # units being those at (a;a) and (b;b): a unit composed into a slot of
    # the other color has no composite, and neither has a module action
    P = dsl.elaborate(dsl.parse(
        (docs_dir / "twocolor.mcat").read_text())[0])[0]["Pair"]

    def f(inputs, out):
        return P.value(((tuple(inputs), out), "f"))

    unit_a, unit_b, ab = f("a", "a"), f("b", "b"), f("a", "b")
    for p, q in [(ab, unit_b), (unit_a, ab), (unit_a, unit_b)]:
        assert P.cell(p, 0, q) is None
        with pytest.raises(CompositionError, match="color mismatch"):
            compose_values(P, p, 0, q)
    assert P.cell(ab, 0, unit_a) == P.cell(unit_b, 0, ab) == ab
    assert P.cell(ab, 1, unit_a) is None
    M = module_from_multicategory(P)
    m = M.collection.numbering.number(P.ref_of(ab))
    assert M.right_cell(m, 0, unit_b) is None
    assert M.left_cell(unit_a, (m,)) is None
    assert M.right_cell(m, 0, unit_a) == M.left_cell(unit_b, (m,)) == m
    assert M.left_cell(unit_b, (m, m)) is None


def test_seeded_unit_violation_found():
    bad = corrupt_unit(AS3)
    report = check_multicategory_laws(bad)
    assert not report.ok
    assert any(law == "unit-right" for law, _ in report.violations)
    assert any("1_x" in witness for _, witness in report.violations)


def test_missing_cell_reported_once():
    # a complete table with one non-unit cell deleted: the check reports
    # that cell once and skips the instances that need it
    cell = next(k for k in COM3.comp
                if not COM3.is_unit((k[0], k[1]))
                and not COM3.is_unit((k[3], k[4])))
    comp = dict(COM3.comp)
    del comp[cell]
    holed = replace(COM3, comp=comp)
    assert holed.complete
    report = check_multicategory_laws(holed)
    psig, p, slot, qsig, q = cell
    assert report.violations == [(
        "missing-cell",
        f"({sig_key(psig)}:{p}) o_{slot} ({sig_key(qsig)}:{q})")]


def test_compose_examples(fx):
    # unit laws through the table
    p = ((("x", "x"), "x"), "w01")
    assert AS3.compose1(p, 0, AS3.unit_ref("x")) == p
    assert AS3.compose1(AS3.unit_ref("x"), 0, p) == p
    # block substitution against the frozen oracle values
    got = AS3.compose1(((("x", "x"), "x"), "w10"), 0,
                       ((("x", "x"), "x"), "w10"))
    assert got[1] == "w" + fx["word_substitution"]["10|0|10"]
    # the equivariance law as a spot check
    swapped = AS3.collection.act(p, (1, 0))
    q = ((("x", "x"), "x"), "w10")
    left = AS3.compose1(swapped, 0, q)
    base = AS3.compose1(p, 1, q)
    assert left == AS3.collection.act(base, perms.expand_outer((1, 0), 0, 2))


def test_sigma_contravariance_exhaustive():
    s = (("x",) * 3, "x")
    for p_ in perms.all_perms(3):
        for q_ in perms.all_perms(3):
            for op in AS3.ops_at(s):
                one = AS3.collection.act(AS3.collection.act((s, op), p_), q_)
                two = AS3.collection.act((s, op), perms.compose(p_, q_))
                assert one == two


def test_underlying_category():
    # the unit and associativity laws of the unary operations are those of
    # the multicategory, checked on the same table
    C = category_json(I)
    assert C["objects"] == ["u"] and C["homs"] == {"u->u": ["1"]}
    assert category_json(AS3)["homs"]["x->x"] == ["w0"]
    assert check_multicategory_laws(AS3).ok
    assert check_multicategory_laws(indiscrete_pair()).ok


def test_underlying_category_of_arrow_level():
    from multicat.presents import arrow_multicategory

    M = arrow_multicategory(AS3, 1)
    C = category_json(M)
    assert C["objects"] == ["0", "1"]
    assert C["homs"]["0->1"] and C["homs"].get("1->0", []) == []
    assert check_multicategory_laws(M).ok


def test_nerve_counts(fx):
    one = nerve(I, 2)
    assert [len(l) for l in one.levels] == [1, 1, 1]
    assert one.check_identities().ok

    # the walking arrow: two objects, a single non-identity morphism
    from multicat.presents import arrow_multicategory

    N = nerve(arrow_multicategory(I, 1), 3)
    assert [len(l) for l in N.levels] == fx["walking_arrow_chains"]
    assert N.check_identities().ok


def test_nerve_raises_on_a_missing_unary_composite():
    # f: a -> b and h: b -> a with no composite tabulated: the edges are
    # there, and the inner face of the 2-simplex (f, h) is not
    ops = {(("a",), "a"): ("1",), (("b",), "b"): ("1",),
           (("a",), "b"): ("f",), (("b",), "a"): ("h",)}
    M = TableMulticategory(FiniteCollection(("a", "b"), ops, {}),
                           {"a": "1", "b": "1"}, {}, complete=False)
    assert [len(l) for l in nerve(M, 1).levels] == [2, 4]
    with pytest.raises(StructuralError, match=r"missing category composite "
                       r"\('a', 'b', 'f'\);\('b', 'a', 'h'\)"):
        nerve(M, 2)


def test_is_equivalence_cases():
    assert is_equivalence(identity_multifunctor(AS3)).is_equivalence

    ind = indiscrete_pair()
    sub = unit_multicategory("a")
    skel = Multifunctor(source=sub, target=ind, object_map={"a": "a"},
                        op_maps={((("a",), "a")): {"1": "f"}})
    assert is_equivalence(skel).is_equivalence

    disc = discrete_pair()
    point = unit_multicategory("a")
    collapse = Multifunctor(
        source=disc, target=point, object_map={"a": "a", "b": "a"},
        op_maps={s: {"1": "1"} for s in disc.signatures()})
    rep = is_equivalence(collapse)
    assert not rep.is_equivalence
    assert rep.witnesses


def test_restrict_objects():
    # identity: an isomorphic copy
    M = restrict_objects(AS3, {"x": "x"})
    assert M.ops == AS3.ops and M.comp == AS3.comp

    # constant from two colors: every signature carries the full arity set
    M2 = restrict_objects(AS3, {"a": "x", "b": "x"})
    assert set(M2.colors) == {"a", "b"}
    for s in M2.signatures():
        n = len(s[0])
        assert sorted(M2.ops_at(s)) == sorted(
            AS3.ops_at(((("x",) * n), "x")))
    assert check_multicategory_laws(M2).ok

    # empty domain
    M3 = restrict_objects(AS3, {}, new_colors=())
    assert M3.colors == () and not M3.ops

    # functoriality against composition of maps
    f = {"p": "a", "q": "b"}
    g = {"a": "x", "b": "x"}
    lhs = restrict_objects(restrict_objects(AS3, g), f)
    gf = {c: g[f[c]] for c in f}
    rhs = restrict_objects(AS3, gf)
    assert lhs.ops == rhs.ops and lhs.comp == rhs.comp
    assert lhs.collection.action == rhs.collection.action


def test_extend_objects_injective():
    M = extend_objects_injective(AS3, {"x": "x"}, ("x",))
    assert M.ops == AS3.ops

    M2 = extend_objects_injective(AS3, {"x": "x"}, ("x", "y"))
    assert sorted(M2.colors) == ["x", "y"]
    assert M2.ops_at((("y",), "y")) == ("1",)
    # mixed image / non-image signatures are empty
    assert M2.ops_at((("x", "y"), "x")) == ()
    assert M2.ops_at((("y",), "x")) == ()
    assert check_multicategory_laws(M2).ok

    with pytest.raises(DomainError):
        extend_objects_injective(indiscrete_pair(), {"a": "c", "b": "c"},
                                 ("c",))
