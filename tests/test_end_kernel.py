"""The index-coded End kernel against the plain route it replaced.

`EndView.compose1`, `act` and `apply` are compared with a reference that
splits the `f:a|b|…` ids and finds every coordinate with `tuple.index`;
`end_of_map` is compared with the pairs of endomorphisms that pass the
intertwining test, with componentwise structure computed by that
reference.
"""

import random
from itertools import product

import pytest

from multicat import perms
from multicat.algebras import (EndView, ObjectFamily, end_multicategory,
                               end_of_map)
from multicat.core import composed_sig
from multicat.errors import BudgetExceededError, StructuralError

FAMILIES = {
    "one": ObjectFamily({"x": ("a",)}),
    "two": ObjectFamily({"x": ("a", "b")}),
    "three": ObjectFamily({"x": ("a", "b", "c")}),
    "mixed": ObjectFamily({"x": ("a", "b"), "y": ("c", "d", "e")}),
}
SAMPLES = 4  # operations drawn per signature when the set is larger
CAP = 3


# ---------------------------------------------------------------------------
# reference: split the id, look up coordinates with tuple.index


def ref_table(opid):
    body = opid[2:]
    return tuple(body.split("|")) if body else ()


def ref_id(table):
    return "f:" + "|".join(table)


def ref_domains(family, inputs):
    return [family.carrier(c) for c in inputs]


def ref_lex_index(tup, domains):
    idx = 0
    for v, dom in zip(tup, domains):
        idx = idx * len(dom) + dom.index(v)
    return idx


def ref_apply(family, ref, args):
    s, opid = ref
    domains = ref_domains(family, s[0])
    return ref_table(opid)[ref_lex_index(tuple(args), domains)]


def ref_compose1(family, pref, slot, qref):
    rsig = composed_sig(pref[0], slot, qref[0])
    k = len(qref[0][0])
    out = []
    for z in product(*ref_domains(family, rsig[0])):
        mid = ref_apply(family, qref, z[slot:slot + k])
        out.append(ref_apply(family, pref, z[:slot] + (mid,) + z[slot + k:]))
    return (rsig, ref_id(out))


def ref_act(family, ref, p):
    s, opid = ref
    sizes = tuple(len(family.carrier(c)) for c in s[0])
    table = perms.act_on_function(ref_table(opid), p, sizes)
    return ((perms.permute(s[0], p), s[1]), ref_id(table))


def all_signatures(family, cap):
    return [(combo, c) for k in range(cap + 1)
            for combo in product(family.colors, repeat=k)
            for c in family.colors]


def sample_ops(family, s, rng):
    dom = 1
    for c in s[0]:
        dom *= len(family.carrier(c))
    cod = family.carrier(s[1])
    if len(cod) ** dom <= SAMPLES:
        return [ref_id(t) for t in product(cod, repeat=dom)]
    return [ref_id(tuple(rng.choice(cod) for _ in range(dom)))
            for _ in range(SAMPLES)]


# ---------------------------------------------------------------------------
# EndView against the reference


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_compose1_matches_reference(name):
    family = FAMILIES[name]
    view = EndView(family, arity_cap=CAP)
    rng = random.Random(name)
    sigs = all_signatures(family, CAP)
    checked = 0
    for psig in sigs:
        for slot, color in enumerate(psig[0]):
            for qsig in sigs:
                if qsig[1] != color:
                    continue
                over = len(psig[0]) + len(qsig[0]) - 1 > CAP
                for p in sample_ops(family, psig, rng):
                    for q in sample_ops(family, qsig, rng):
                        if over:
                            with pytest.raises(StructuralError):
                                view.compose1((psig, p), slot, (qsig, q))
                            continue
                        assert view.compose1((psig, p), slot, (qsig, q)) \
                            == ref_compose1(family, (psig, p), slot,
                                            (qsig, q))
                        checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_act_matches_reference(name):
    family = FAMILIES[name]
    view = EndView(family, arity_cap=CAP)
    rng = random.Random(name)
    for s in all_signatures(family, CAP):
        for op in sample_ops(family, s, rng):
            for p in perms.all_perms(len(s[0])):
                assert view.act((s, op), p) == ref_act(family, (s, op), p)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_apply_matches_reference(name):
    family = FAMILIES[name]
    view = EndView(family, arity_cap=CAP)
    rng = random.Random(name)
    for s in all_signatures(family, CAP):
        for op in sample_ops(family, s, rng):
            for z in product(*ref_domains(family, s[0])):
                assert view.apply((s, op), z) == ref_apply(family, (s, op), z)


# ---------------------------------------------------------------------------
# End(f) against the filtered pairs


A2 = FAMILIES["two"]
A3 = FAMILIES["three"]
B3 = ObjectFamily({"x": ("p", "q", "r")})

MAPS = {
    "bijection": ({"x": {"a": "b", "b": "a"}}, A2),
    "constant": ({"x": {"a": "b", "b": "b"}}, A2),
    "into-three": ({"x": {"a": "r", "b": "p"}}, B3),
}
COMP_SAMPLE = 2000  # composition cells whose values are recomputed


def ref_functions(family, s):
    dom = ref_domains(family, s[0])
    size = 1
    for d in dom:
        size *= len(d)
    return [ref_id(t) for t in product(family.carrier(s[1]), repeat=size)]


def ref_end_of_map(f, A, B, cap):
    """Every pair of endomorphisms that passes the intertwining test, at
    the signatures of the materialized End(A)."""
    endA = end_multicategory(A, arity_cap=cap)
    ops, pairs = {}, {}
    for s in endA.signatures():
        ids = []
        zs = list(product(*ref_domains(A, s[0])))
        fzs = [[f[c][v] for c, v in zip(s[0], z)] for z in zs]
        psis = ref_functions(B, s)
        for phi in endA.ops_at(s):
            want = [f[s[1]][ref_apply(A, (s, phi), z)] for z in zs]
            for psi in psis:
                if all(ref_apply(B, (s, psi), fz) == w
                       for fz, w in zip(fzs, want)):
                    pid = f"<{phi},{psi}>"
                    ids.append(pid)
                    pairs[s, pid] = (phi, psi)
        if ids:
            ops[s] = tuple(sorted(ids))
    return ops, pairs


@pytest.mark.parametrize("name", sorted(MAPS))
def test_end_of_map_matches_filtered_pairs(name):
    f, B = MAPS[name]
    A, cap = A2, 2
    table, projA, projB = end_of_map(f, A, B, arity_cap=cap)
    ops, pairs = ref_end_of_map(f, A, B, cap)
    assert table.collection.ops == ops

    for s in ops:
        for p in perms.all_perms(len(s[0])):
            want = {}
            for pid in ops[s]:
                phi, psi = pairs[s, pid]
                want[pid] = (f"<{ref_act(A, (s, phi), p)[1]},"
                             f"{ref_act(B, (s, psi), p)[1]}>")
            assert table.collection.action[s, p] == want
    assert set(table.collection.action) == {
        (s, p) for s in ops for p in perms.all_perms(len(s[0]))}

    assert table.units == {
        c: f"<{ref_id(A.carrier(c))},{ref_id(B.carrier(c))}>"
        for c in A.colors}

    cells = [(s, pid, slot, qs, qid)
             for s in ops for slot, color in enumerate(s[0])
             for qs in ops if qs[1] == color
             and composed_sig(s, slot, qs) in ops
             for pid in ops[s] for qid in ops[qs]]
    assert set(table.comp) == set(cells)
    if len(cells) > COMP_SAMPLE:
        cells = random.Random(name).sample(cells, COMP_SAMPLE)
    for s, pid, slot, qs, qid in cells:
        phi, psi = pairs[s, pid]
        phi2, psi2 = pairs[qs, qid]
        rphi = ref_compose1(A, (s, phi), slot, (qs, phi2))[1]
        rpsi = ref_compose1(B, (s, psi), slot, (qs, psi2))[1]
        assert table.comp[s, pid, slot, qs, qid] == f"<{rphi},{rpsi}>"

    for proj, side, family in ((projA, 0, A), (projB, 1, B)):
        assert isinstance(proj.target, EndView)
        assert proj.target.family == family
        assert proj.op_maps == {
            s: {pid: pairs[s, pid][side] for pid in ops[s]} for s in ops}


def test_end_of_map_budget():
    f = {"x": {v: v for v in A3.carrier("x")}}
    with pytest.raises(BudgetExceededError):
        end_of_map(f, A3, A3, arity_cap=3, limit=1000)


def test_end_of_map_limit_threshold():
    # End(A2) at cap 1 has 2 + 4 operations and End(B3) 3 + 27; the limit
    # applies to each, as end_multicategory applies it
    f, B = MAPS["into-three"]
    end_of_map(f, A2, B, arity_cap=1, limit=30)
    with pytest.raises(BudgetExceededError):
        end_of_map(f, A2, B, arity_cap=1, limit=29)
    f, B = MAPS["bijection"]
    end_of_map(f, A2, B, arity_cap=1, limit=6)
    with pytest.raises(BudgetExceededError):
        end_of_map(f, A2, B, arity_cap=1, limit=5)
