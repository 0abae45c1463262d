"""Tables, law checking, the underlying category, nerves, object maps."""

from dataclasses import replace

import pytest

from multicat import perms
from multicat.core import (check_category_laws, check_multicategory_laws,
                           extend_objects_injective, is_equivalence, nerve,
                           restrict_objects, sig_key, underlying_category)
from multicat.errors import DomainError
from multicat.homcalc import Multifunctor, identity_multifunctor
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
    swapped = AS3.act(p, (1, 0))
    q = ((("x", "x"), "x"), "w10")
    left = AS3.compose1(swapped, 0, q)
    base = AS3.compose1(p, 1, q)
    assert left == AS3.act(base, perms.expand_outer((1, 0), 0, 2))


def test_sigma_contravariance_exhaustive():
    s = (("x",) * 3, "x")
    for p_ in perms.all_perms(3):
        for q_ in perms.all_perms(3):
            for op in AS3.ops_at(s):
                one = AS3.act(AS3.act((s, op), p_), q_)
                two = AS3.act((s, op), perms.compose(p_, q_))
                assert one == two


def test_underlying_category():
    C = underlying_category(I)
    assert C.objects == ("u",) and C.hom("u", "u") == ("1",)
    C3 = underlying_category(AS3)
    assert C3.hom("x", "x") == ("w0",)
    assert check_category_laws(C3).ok
    assert check_category_laws(underlying_category(indiscrete_pair())).ok


def test_underlying_category_of_arrow_level():
    from multicat.presents import arrow_multicategory

    C = underlying_category(arrow_multicategory(AS3, 1))
    assert sorted(C.objects) == ["0", "1"]
    assert C.hom("0", "1") != () and C.hom("1", "0") == ()
    assert check_category_laws(C).ok


def test_nerve_counts(fx):
    one = nerve(underlying_category(I), 2)
    assert [len(l) for l in one.levels] == [1, 1, 1]
    assert one.check_identities().ok

    # the walking arrow: two objects, a single non-identity morphism
    from multicat.presents import arrow_multicategory

    P1 = arrow_multicategory(I, 1)
    C = underlying_category(P1)
    N = nerve(C, 3)
    assert [len(l) for l in N.levels] == fx["walking_arrow_chains"]
    assert N.check_identities().ok


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
