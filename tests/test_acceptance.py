"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line and enforcing its stated runtime budget.

Expected counts come from tests/fixtures/oracle_fixtures.json, which was
generated by the independent brute-force oracles in oracles.py before the
package was built (see gen_fixtures.py).
"""

import json
import time
from itertools import permutations, product
from pathlib import Path

import pytest

from multicat import dsl, perms
from multicat.algebras import (EndView, ObjectFamily, check_algebra,
                               end_multicategory, enumerate_algebras,
                               free_algebra, op_algebra_to_operad,
                               operad_to_op_algebra, p1_algebras_as_triples)
from multicat.bimodules import (bar_complex, hochschild,
                                module_from_multicategory)
from multicat.core import check_multicategory_laws, is_equivalence
from multicat.homcalc import (KNatTransformation, Multifunctor,
                              adjunction_check, enumerate_multifunctors,
                              generated_ops, identity_multifunctor,
                              is_k_natural, naturality_on_generators)
from multicat.presents import arrow_multicategory, bv_tensor
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               discrete_pair, indiscrete_pair,
                               unit_multicategory)
from multicat.trees import build_tree_multicategory, op_compose, op_hom_set

HERE = Path(__file__).parent
FX = json.loads((HERE / "fixtures" / "oracle_fixtures.json").read_text())

I = unit_multicategory()
AS3 = assoc_multicategory(3)
COM3 = comm_multicategory(3)
AS2P = assoc_multicategory(2, include_nullary=False)
A2 = ObjectFamily({"x": ("a", "b")})
A3 = ObjectFamily({"x": ("a", "b", "c")})


def report(name, ok, started, budget=None):
    took = time.time() - started
    status = "PASS" if ok else "FAIL"
    budget_note = f" [{took:.1f}s / {budget:.0f}s]" if budget else f" [{took:.1f}s]"
    print(f"{status}: {name}{budget_note}")
    assert ok, name
    if budget is not None:
        assert took < budget, f"{name} exceeded {budget}s"


def corolla_with(tau):
    slots = [None] * len(tau)
    for t, s in enumerate(tau):
        slots[s] = ("L", t)
    return ("V", 0, tuple(slots))


def test_tree_group_law():
    """Numbered corollas realize the opposite group law, up to arity 4."""
    t0 = time.time()
    ok = True
    for n in range(5):
        homset = op_hom_set([n], n)
        ok &= len(homset) == len(list(permutations(range(n))))
        for tau in permutations(range(n)):
            for rho in permutations(range(n)):
                got = op_compose(corolla_with(tau), [corolla_with(rho)])
                want = corolla_with(tuple(rho[tau[t]] for t in range(n)))
                ok &= got == want
    report("tree-multicategory group law (n <= 4)", ok, t0, budget=10)


def test_operad_roundtrip():
    """Packaging as a tree-multicategory algebra and reading back is the
    identity on three operads."""
    t0 = time.time()
    T, struct = build_tree_multicategory(max_arity=3, max_vertices=2)
    ok = True
    for P in (I, COM3, AS3):
        alg = operad_to_op_algebra(P, T, struct, max_arity=3)
        ok &= check_algebra(alg).ok
        back, rep = op_algebra_to_operad(alg, max_arity=3)
        ok &= rep.ok
        col = P.colors[0]
        for n in range(4):
            ok &= sorted(back.ops_at((("x",) * n, "x"))) == sorted(
                P.ops_at(((col,) * n, col)))
        for (psig, p, slot, qsig, q), r in P.comp.items():
            key = ((("x",) * len(psig[0]), "x"), p, slot,
                   (("x",) * len(qsig[0]), "x"), q)
            ok &= back.comp.get(key) == r
        for (s, pm), tab in P.collection.action.items():
            ok &= back.collection.action.get(
                ((("x",) * len(s[0]), "x"), pm)) == tab
        ok &= list(back.units.values()) == list(P.units.values())
    report("operad <-> tree-algebra round trip (3 operads)", ok, t0,
           budget=30)


def _evaluation_iso(sat, P):
    from multicat.homcalc import check_multifunctor, evaluate_term
    from multicat.presents import pair_color
    from multicat.trees import term_signature, term_text

    T = sat.table
    u = I.colors[0]
    color_map = {pair_color(u, c): c for c in P.colors}

    def gen_image(gsig, gid):
        if gsig is None:
            return color_map[gid]
        kind, mid, rest = gid.split(":", 2)
        qsig = next(s for s in P.signatures() if rest in P.ops_at(s))
        return (qsig, rest)

    op_maps = {}
    reps = set(sat.rep_of.values())
    for s in T.signatures():
        table = {}
        for tid in T.ops_at(s):
            rep = next(r for r in reps
                       if term_signature(r) == s and term_text(r) == tid)
            table[tid] = evaluate_term(rep, P, gen_image)[1]
        op_maps[s] = table
    F = Multifunctor(source=T, target=P, object_map=color_map,
                     op_maps=op_maps)
    if not check_multifunctor(F).ok:
        return False
    for s in T.signatures():
        target = (tuple(color_map[c] for c in s[0]), color_map[s[1]])
        images = set(op_maps[s].values())
        if len(images) != len(T.ops_at(s)) or images != set(
                P.ops_at(target)):
            return False
    return True


@pytest.mark.parametrize("P,acap,vcap", [(I, 2, 2), (COM3, 3, 3),
                                         (AS3, 3, 3)],
                         ids=["unit", "comm", "assoc"])
def test_tensor_unit_law(P, acap, vcap):
    """The one-point multicategory is a tensor unit, with the isomorphism
    exhibited by evaluating class representatives."""
    t0 = time.time()
    sat = bv_tensor(I, P, max_arity=acap, max_vertices=vcap)
    ok = sat.report.stabilized
    ok &= check_multicategory_laws(sat.table).ok
    ok &= _evaluation_iso(sat, P)
    report(f"tensor unit law for {P.name}", ok, t0, budget=60)


def test_tensor_hom_adjunction():
    """The transposition bijection on three triples, both round trips."""
    t0 = time.time()
    com2 = comm_multicategory(2)
    as2 = assoc_multicategory(2)
    view3 = EndView(A2, arity_cap=3)
    view4 = EndView(A2, arity_cap=4)
    ok = True
    for P, Q, R, acap, vcap in [
            (I, I, as2, 2, 2),
            (I, com2, view3, 2, 3),
            (com2, com2, view4, 4, 4)]:
        rep = adjunction_check(P, Q, R, max_arity=acap, max_vertices=vcap)
        ok &= rep.ok
    report("tensor-hom adjunction (3 triples)", ok, t0, budget=300)


def test_generator_naturality():
    """Generator-restricted naturality verdicts equal full verdicts for
    every candidate on three instances with certified generating sets."""
    t0 = time.time()
    view = EndView(A2, arity_cap=4)
    com2 = comm_multicategory(2)
    instances = []

    s_as = [(((), "x"), "w")] + [((("x", "x"), "x"), w)
                                 for w in AS3.ops_at((("x", "x"), "x"))]
    instances.append((AS3, view, s_as, {"x": "x"}))
    s_com = [(((), "x"), "m0"), ((("x", "x"), "x"), "m2")]
    instances.append((COM3, view, s_com, {"x": "x"}))
    instances.append((COM3, COM3, s_com, None))

    checked = 0
    ok = True
    for P, Q, S, fix in instances:
        ok &= generated_ops(P, S) == set(P.refs())
        fs = enumerate_multifunctors(P, Q, fix_objects=fix)
        for F in fs:
            for G in fs:
                for k in (1, 2):
                    sources = (F,) * k
                    sig = (tuple(F.object_map["x"] for _ in range(k)),
                           G.object_map["x"])
                    pool = Q.ops_at(sig)
                    for comp in pool:
                        xi = KNatTransformation(sources, G, {"x": comp})
                        full, _ = is_k_natural(xi)
                        gen, _ = naturality_on_generators(xi, S)
                        ok &= full == gen
                        checked += 1
    ok &= checked > 100
    report(f"generator naturality = full naturality "
           f"({checked} candidates)", ok, t0, budget=120)


def test_algebra_census():
    """Structure counts on 2- and 3-element carriers equal the frozen
    multiplication-table search."""
    t0 = time.time()
    ok = True
    ok &= len(enumerate_algebras(COM3, A2)) == FX["commutative_monoids"]["2"]
    ok &= len(enumerate_algebras(COM3, A3)) == FX["commutative_monoids"]["3"]
    ok &= len(enumerate_algebras(AS3, A2)) == FX["monoids"]["2"]
    ok &= len(enumerate_algebras(AS3, A3)) == FX["monoids"]["3"]
    report("algebra census vs table-search oracle", ok, t0)


def test_end_cardinalities():
    """Function-set sizes across mixed carriers up to size 3, arity <= 3;
    full enumeration wherever the set has at most 600000 elements, the
    documented counting plus prefix-distinctness beyond that."""
    t0 = time.time()
    ok = True
    families = [
        ObjectFamily({"x": ("a",)}),
        A2,
        A3,
        ObjectFamily({"x": ("a", "b"), "y": ("p", "q", "r")}),
    ]
    for family in families:
        view = EndView(family, arity_cap=3, limit=10 ** 7)
        for s in view.signatures():
            dom = 1
            for c in s[0]:
                dom *= len(family.carrier(c))
            want = len(family.carrier(s[1])) ** dom
            ops = view.ops_at(s)
            ok &= ops.size == want
            if want <= 600000:
                seen = list(ops)
                ok &= len(seen) == want and len(set(seen)) == want
            else:
                prefix = []
                for op in ops:
                    prefix.append(op)
                    if len(prefix) >= 100:
                        break
                ok &= len(set(prefix)) == len(prefix)
    report("endomorphism cardinalities (arity <= 3, carriers <= 3)", ok, t0)


def test_arrow_algebra_censuses():
    """Level-1 algebras are triples, level-2 algebras are length-2 strings,
    counts matching the homomorphism census on 2-element carriers."""
    t0 = time.time()
    rep = p1_algebras_as_triples(AS3, A2, A2)
    ok = rep["bijective"]
    ok &= rep["arrow_count"] == rep["triple_count"] == FX["monoid_triples_2_2"]
    P2 = arrow_multicategory(AS3, 2)
    family = ObjectFamily({"0": ("a", "b"), "1": ("a", "b"),
                           "2": ("a", "b")})
    ok &= len(enumerate_algebras(P2, family)) == FX["monoid_strings2_2"]
    report("arrow-construction algebra censuses", ok, t0)


def test_simplicial_identities():
    """All five identity families, elementwise, to level 3."""
    t0 = time.time()
    ok = True
    for P in (I, AS2P):
        h = hochschild(P, n_max=3, max_arity=2)
        ok &= h.check_identities().ok
        mod = module_from_multicategory(P)
        bar = bar_complex(mod, P, mod, n_max=3, max_arity=2)
        ok &= bar.check_identities().ok
    report("simplicial identities to level 3", ok, t0, budget=60)


def test_free_forgetful():
    """Maps off a free algebra biject with carrier maps; the substitution
    maps satisfy the unit laws elementwise."""
    t0 = time.time()
    P = COM3
    base = ObjectFamily({"x": ("a",)})
    fa = free_algebra(P, base)
    ok = True
    for eid, (s, op, args) in fa.decode.items():
        ok &= fa.mu(P.unit_ref(s[1]), (eid,)) == eid
        etas = tuple(fa.eta("x", a) for a in args)
        ok &= fa.mu((s, op), etas) == eid
    targets = enumerate_algebras(P, A2)
    fam = fa.family()
    for beta in targets:
        count = 0
        for images in product(("a", "b"), repeat=len(fam.carrier("x"))):
            f = {"x": dict(zip(fam.carrier("x"), images))}
            good = all(
                f["x"][eid] == beta.apply(
                    (s, op),
                    tuple(f["x"][fa.eta("x", a)] for a in args))
                for eid, (s, op, args) in fa.decode.items())
            count += good
        ok &= count == len(A2.carrier("x")) ** len(base.carrier("x"))
    report("free/forgetful adjunction and unit laws", ok, t0)


def test_equivalence_checker():
    """Identity and skeleton positives, seeded negatives with witnesses."""
    t0 = time.time()
    ok = is_equivalence(identity_multifunctor(AS3)).is_equivalence
    ind = indiscrete_pair()
    sub = unit_multicategory("a")
    skel = Multifunctor(source=sub, target=ind, object_map={"a": "a"},
                        op_maps={((("a",), "a")): {"1": "f"}})
    ok &= is_equivalence(skel).is_equivalence
    disc = discrete_pair()
    collapse = Multifunctor(
        source=disc, target=unit_multicategory("a"),
        object_map={"a": "a", "b": "a"},
        op_maps={s: {"1": "1"} for s in disc.signatures()})
    rep = is_equivalence(collapse)
    ok &= not rep.is_equivalence and bool(rep.witnesses)
    # a non-surjective inclusion into two non-isomorphic colors
    incl = Multifunctor(source=sub, target=disc, object_map={"a": "a"},
                        op_maps={((("a",), "a")): {"1": "1"}})
    rep2 = is_equivalence(incl)
    ok &= not rep2.is_equivalence and bool(rep2.witnesses)
    report("equivalence checker fixtures", ok, t0)


def test_cli_round_trip_and_determinism(tmp_path):
    """parse o print identity on every shipped document; exports are
    byte-identical across runs."""
    from multicat.cli import main as cli_main

    t0 = time.time()
    docs = HERE.parent / "fixtures"
    ok = True
    for path in sorted(docs.glob("*.mcat")):
        text = path.read_text()
        ast, diags = dsl.parse(text)
        ok &= ast is not None and dsl.print_ast(ast) == text
    outs = []
    for run in range(2):
        out = tmp_path / f"e{run}.json"
        ok &= cli_main(["export", str(docs / "as3.mcat"), "--name", "As3",
                        "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    ok &= outs[0] == outs[1]
    report("document round trip and deterministic exports", ok, t0)
