"""`internal_hom`'s transformation search on `core.backtrack` against the
product loop it replaced.

`ref_internal_hom` is the earlier `internal_hom` whole: a `product` over
the component pools of every (sources, target) signature, a private
candidate counter, and a full naturality check per candidate
(`ref_is_k_natural`, with the square it read, kept here as well, which
composes and acts through `lookups`).  Its
table is filled by `test_tabulate.ref_tabulate`, the earlier `tabulate`,
which takes elements that are not hashable, as its transformations are.
"""

import hashlib
import json
from dataclasses import replace
from itertools import permutations, product
from pathlib import Path

import pytest

import lookups
from multicat import homcalc, perms
from multicat.algebras import EndView, ObjectFamily, end_multicategory
from multicat.core import (FiniteCollection, TableMulticategory,
                           check_multicategory_laws, composed_sig, sig_key)
from multicat.dsl import elaborate, parse
from multicat.errors import BudgetExceededError, StructuralError
from multicat.homcalc import (HomResult, KNatTransformation,
                              adjunction_check, enumerate_multifunctors,
                              internal_hom)
from multicat.jsonio import multicategory_json
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               discrete_pair, indiscrete_pair,
                               unit_multicategory)
from test_tabulate import ref_tabulate

A2 = ObjectFamily({"x": ("a", "b")})


def ref_naturality_square(xi, Q, pref):
    (inputs, out), _ = pref
    m = len(inputs)
    k = len(xi.sources)
    G = xi.target
    compose = lookups.composite(Q)
    try:  # map_ref raises on a missing image
        left = lookups.gamma(compose, G.map_ref(pref),
                             [xi.component_ref(a) for a in inputs])
        right_pre = lookups.gamma(compose, xi.component_ref(out),
                                  [F.map_ref(pref) for F in xi.sources])
    except StructuralError:
        return None
    if left is None or right_pre is None:
        return None
    right = lookups.act(Q, right_pre, perms.transpose_shuffle(m, k))
    return left, right


def ref_is_k_natural(xi, ops=None):
    P = xi.target.source
    Q = xi.target.target
    for a in P.colors:
        s, op = xi.component_ref(a)
        if op not in Q.ops_at(s):
            raise StructuralError(
                f"component at {a} is not an operation at {sig_key(s)}")
    witnesses = []
    refs = ops if ops is not None else list(P.refs())
    for pref in refs:
        square = ref_naturality_square(xi, Q, pref)
        if square is None:
            continue
        left, right = square
        if left != right:
            witnesses.append(f"{sig_key(pref[0])}:{pref[1]}")
    return not witnesses, witnesses


def ref_internal_hom(P, Q, arity_cap=3, budget=10 ** 6):
    functors = enumerate_multifunctors(P, Q, budget=budget)
    ids = {i: F for i, F in enumerate(functors)}
    color_of = {i: f"F{i}" for i in ids}

    elements = {}
    tried = 0
    colors_sorted = sorted(P.colors)
    for k in range(arity_cap + 1):
        for combo in product(range(len(functors)), repeat=k):
            for gi in range(len(functors)):
                sources = tuple(ids[i] for i in combo)
                G = ids[gi]
                pools = []
                feasible = True
                for a in colors_sorted:
                    s = (tuple(F.object_map[a] for F in sources),
                         G.object_map[a])
                    pool = Q.ops_at(s)
                    if not pool:
                        feasible = False
                        break
                    pools.append(pool)
                if not feasible:
                    continue
                sig = (tuple(color_of[i] for i in combo), color_of[gi])
                for assignment in product(*pools):
                    tried += 1
                    if tried > budget:
                        raise BudgetExceededError(
                            "transformation search exceeded budget",
                            count=sum(len(v) for v in elements.values()))
                    xi = KNatTransformation(
                        sources=sources, target=G,
                        components=dict(zip(colors_sorted, assignment)))
                    if ref_is_k_natural(xi)[0]:
                        elements.setdefault(sig, []).append(xi)

    def oid_of(xi):
        return "{" + ",".join(
            f"{a}:{xi.components[a]}" for a in colors_sorted) + "}"

    def act(s, xi, p):
        return KNatTransformation(
            sources=tuple(xi.sources[i] for i in p), target=xi.target,
            components={a: lookups.act(Q, xi.component_ref(a), p)[1]
                        for a in colors_sorted})

    def compose(s, xi, slot, qs, eta):
        return KNatTransformation(
            xi.sources[:slot] + eta.sources + xi.sources[slot + 1:],
            xi.target,
            {a: Q.compose1(xi.component_ref(a), slot,
                           eta.component_ref(a))[1] for a in colors_sorted})

    units = {color_of[i]: KNatTransformation(
        (F,), F, {a: Q.unit_ref(F.object_map[a])[1] for a in colors_sorted})
        for i, F in ids.items()}
    table, knats, _ = ref_tabulate(
        [color_of[i] for i in sorted(ids)], elements, units, oid_of, act,
        compose, arity_cap=arity_cap, name=f"Hom({P.name},{Q.name})")
    return HomResult(table=table,
                     functors={color_of[i]: ids[i] for i in ids},
                     knats=knats)


def _pair():
    text = (Path(__file__).parent.parent / "fixtures" / "twocolor.mcat"
            ).read_text()
    return elaborate(parse(text)[0])[0]["Pair"]


def _constants(add=(), cut=()):
    """A multicategory in which the square at a ternary operation fits
    while the one at the binary operations generating it does not.

    Colors c1 and c2 are one point each and t is {0, 1}; the operations
    are the unique functions into c1 and c2, named !, and the constant
    functions into t, named by their value, with the identity of t: a
    sub-multicategory of End, as a composite with a constant is constant.
    It is truncated to the signatures of arity at most 3 and to the
    arrangements, into t, of the input lists below: those a square at a
    ternary operation of As3pos passes through when its components lie
    at (c1,c2;t) or (c2,c1;t).  The ones of the squares at the binary
    operations, two c1s and two c2s, are cut out.  So from the algebras
    at c1 and c2 to one at t, a basis chosen over all operations keeps a
    binary operation, whose square does not fit, and skips the ternary
    ones, whose squares do: it admits the constant 1 as a component into
    the constant-0 algebra, which the square at a ternary operation
    refuses.

    The arrangements into t of the input lists ``add`` are added to the
    support and those of ``cut`` removed."""
    colors = ("c1", "c2", "t")
    sigs = {(ins, out) for n in range(4)
            for ins in product(colors, repeat=n) for out in colors}
    for ins in [("c1", "c2", "t", "t"), ("c1", "c1", "c2", "c2", "t"),
                ("c1",) * 3 + ("c2",) * 3, ("c1",) * 3 + ("c2",),
                ("c1",) + ("c2",) * 3, *add]:
        sigs |= {(p, "t") for p in set(permutations(ins))}
    for ins in cut:
        sigs -= {(p, "t") for p in set(permutations(ins))}
    ops = {s: ("!",) if s[1] != "t" else ("0", "1", "id")
           if s == (("t",), "t") else ("0", "1") for s in sigs}
    comp = {(ps, p, i, qs, q): q if p == "id" else p
            for ps in ops for i, c in enumerate(ps[0])
            for qs in ops if qs[1] == c and composed_sig(ps, i, qs) in ops
            for p in ops[ps] for q in ops[qs]}
    action = {(s, p): {op: op for op in ids} for s, ids in ops.items()
              for p in perms.all_perms(len(s[0]))}
    return TableMulticategory(
        collection=FiniteCollection(colors, ops, action),
        units={"c1": "!", "c2": "!", "t": "id"}, comp=comp, name="Constants")


def _unary_table(colors, homs, name):
    """A table of unary operations only: ``homs`` maps (a, b) to the op
    ids at (a; b), with "id" at (a; a), and a composite is its outer
    factor unless that is "id", and its inner one then."""
    ops = {((a,), b): ids for (a, b), ids in homs.items()}
    comp = {(ps, p, 0, qs, q): q if p == "id" else p
            for ps in ops for qs in ops if qs[1] == ps[0][0]
            and composed_sig(ps, 0, qs) in ops
            for p in ops[ps] for q in ops[qs]}
    action = {(s, (0,)): {op: op for op in ids} for s, ids in ops.items()}
    return TableMulticategory(
        collection=FiniteCollection(tuple(colors), ops, action),
        units={c: "id" for c in colors}, comp=comp, name=name)


def _rows():
    """Two rows of three colors, cut by color: X0 -> X1 -> X2 on a point,
    Y0 -> Y1 -> Y2 on {0, 1} by identities, and the constants X_i -> Y_j
    for i <= j, except X1 -> Y2.  The table is complete, but composites
    such as (X2;Y2:0) o_0 (X1;X2:id) land at the cut signature."""
    homs = {}
    for i in range(3):
        for j in range(i, 3):
            homs[f"X{i}", f"X{j}"] = homs[f"Y{i}", f"Y{j}"] = ("id",)
            if (i, j) != (1, 2):
                homs[f"X{i}", f"Y{j}"] = ("0", "1")
    return _unary_table(("X0", "X1", "X2", "Y0", "Y1", "Y2"), homs, "Rows")


HOM_CASES = {
    "As3->End(A2)": lambda: (assoc_multicategory(3),
                             EndView(A2, arity_cap=3), 2),
    "Com3->End(A2)": lambda: (comm_multicategory(3),
                              EndView(A2, arity_cap=3), 2),
    "As2->Com2": lambda: (assoc_multicategory(2), comm_multicategory(2), 2),
    "indiscrete->indiscrete": lambda: (indiscrete_pair(), indiscrete_pair(),
                                       2),
    "discrete->indiscrete": lambda: (discrete_pair(), indiscrete_pair(), 2),
    "Pair->Pair": lambda: (_pair(), _pair(), 2),
    "Pair->End": lambda: (
        _pair(), EndView(ObjectFamily({"a": ("p", "q"), "b": ("r",)}),
                         arity_cap=2), 1),
    "As3pos->Constants": lambda: (
        assoc_multicategory(3, include_nullary=False), _constants(), 2),
    # the binary squares fit at their final signature (c1,c2,c1,c2;t), but
    # their left route stops at the cut (c1,c2,t;t) and comes back None:
    # a square counted as fitting by its final signature alone is never
    # checked, and the ternary squares that refuse the constant 1 skipped
    "As3pos->Constants cut by color": lambda: (
        assoc_multicategory(3, include_nullary=False),
        _constants(add=[("c1", "c2", "c1", "c2")], cut=[("c1", "c2", "t")]),
        2),
    "Com2->End(A2) table": lambda: (comm_multicategory(2),
                                    end_multicategory(A2, arity_cap=3), 2),
}


def _raised(fn, *args, **kwargs):
    with pytest.raises(BudgetExceededError) as info:
        fn(*args, **kwargs)
    return str(info.value), info.value.count


def _digest(table):
    text = json.dumps(multicategory_json(table), sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(HOM_CASES))
def test_hom_matches_product_loop(case):
    P, Q, cap = HOM_CASES[case]()
    want = ref_internal_hom(P, Q, arity_cap=cap)
    got = internal_hom(P, Q, arity_cap=cap)
    # the transformations of each signature, in the order they were found
    assert list(got.knats) == list(want.knats)
    for key, xi in want.knats.items():
        assert list(got.knats[key].components.items()) == list(
            xi.components.items())
        assert got.knats[key].sources == xi.sources
        assert got.knats[key].target == xi.target
    assert list(got.functors) == list(want.functors)
    assert [F.key() for F in got.functors.values()] == [
        F.key() for F in want.functors.values()]
    assert _digest(got.table) == _digest(want.table)


def test_hom_into_a_table_cut_by_color_is_partial():
    # composites of transformations that leave the support escape the
    # table, which is marked partial, instead of raising
    chain = _unary_table("012", {(a, b): ("id",) for a in "012"
                                 for b in "012" if a <= b}, "Chain")
    H = internal_hom(chain, _rows(), arity_cap=1)
    assert not H.table.complete
    assert len(H.functors) == 50
    assert sum(map(len, H.table.ops.values())) == 592
    assert check_multicategory_laws(H.table).ok
    # a composite missing inside the support still raises; from a point
    # no multifunctor reads a composite, so the table's compose meets it
    point = _unary_table("0", {("0", "0"): ("id",)}, "Point")
    assert not internal_hom(point, _rows(), arity_cap=1).table.complete
    rows = _rows()
    comp = dict(rows.comp)
    del comp[(("Y1",), "Y2"), "id", 0, (("X0",), "Y1"), "0"]
    with pytest.raises(StructuralError, match=r"missing composition cell "
                       r"\(Y1;Y2:id\) o_0 \(X0;Y1:0\)"):
        internal_hom(point, replace(rows, comp=comp), arity_cap=1)


@pytest.mark.parametrize("source,view_cap,squares", [
    ("As3", 3, 1132), ("Com3", 3, 1132), ("Com2", 4, 1644)])
def test_squares_on_a_basis(source, view_cap, squares, monkeypatch):
    # the squares internal_hom computes at cap 2 into End on two elements;
    # a change to the basis or the order that loses it fails here
    P = {"As3": assoc_multicategory(3), "Com3": comm_multicategory(3),
         "Com2": comm_multicategory(2)}[source]
    calls = []
    square = homcalc._naturality_square
    monkeypatch.setattr(homcalc, "_naturality_square",
                        lambda *args: calls.append(1) or square(*args))
    internal_hom(P, EndView(A2, arity_cap=view_cap), 2)
    assert len(calls) == squares


# (P, Q, R, arity cap, vertex cap).  I, As2, As2 runs at arity cap 2: at 4
# hom_to_tensor refuses the truncated As2 with a PartialInputError, since
# As2 has no operations at (x,x,x,x;x), where the tensor's arity-4
# operations must go
ADJUNCTION_CASES = {
    "I,As2,As2": lambda: (unit_multicategory(), assoc_multicategory(2),
                          assoc_multicategory(2), 2, 4),
    "I,Com2,End(A2)": lambda: (unit_multicategory(), comm_multicategory(2),
                               EndView(A2, arity_cap=3), 2, 3),
    "Com2,Com2,End(A2)": lambda: (comm_multicategory(2),
                                  comm_multicategory(2),
                                  EndView(A2, arity_cap=4), 4, 4),
}


@pytest.mark.parametrize("case", sorted(ADJUNCTION_CASES))
def test_adjunction_matches_product_loop(case, monkeypatch):
    P, Q, R, arity, vertices = ADJUNCTION_CASES[case]()
    got = adjunction_check(P, Q, R, arity, vertices).to_json()
    monkeypatch.setattr(homcalc, "internal_hom", ref_internal_hom)
    want = adjunction_check(P, Q, R, arity, vertices).to_json()
    assert got == want
    assert got["bijective"] and got["round_trips_ok"]


def test_single_colored_budget_is_the_candidate_count():
    # one color: every candidate is a full assignment, as in the loop
    P, Q = assoc_multicategory(3), EndView(A2, arity_cap=3)
    assert _digest(internal_hom(P, Q, 2, budget=1096).table) == _digest(
        ref_internal_hom(P, Q, 2).table)
    want = ("transformation search exceeded budget", 539)
    assert _raised(internal_hom, P, Q, 2, budget=1095) == want
    assert _raised(ref_internal_hom, P, Q, 2, budget=1095) == want


@pytest.mark.parametrize("case,threshold,loop_threshold,count", [
    ("Pair->Pair", 32, 16, 15), ("Pair->End", 112, 84, 27)])
def test_multicolored_budget_counts_partial_candidates(
        case, threshold, loop_threshold, count):
    # several colors: the partial assignments tried count as well, so the
    # threshold lies above the loop's count of full candidates
    P, Q, cap = HOM_CASES[case]()
    want = ("transformation search exceeded budget", count)
    internal_hom(P, Q, cap, budget=threshold)
    assert _raised(internal_hom, P, Q, cap, budget=threshold - 1) == want
    ref_internal_hom(P, Q, cap, budget=loop_threshold)
    assert _raised(ref_internal_hom, P, Q, cap,
                   budget=loop_threshold - 1)[0] == want[0]
