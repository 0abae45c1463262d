"""`core.backtrack` against the two search loops it replaced.

`ref_multifunctors` and `ref_module_homs` are the earlier
assign-copy/propagate/recurse loops of `enumerate_multifunctors` and
`enumerate_module_homs`, kept here as reference copies (together with the
tensor-element and action helpers they ran on), reading the actions off
the tables (`lookups`).  Each returns its
results and the number of candidates it tried, which is the smallest
budget under which it finishes.  `ref_multifunctors` branches in the
order `enumerate_multifunctors` uses, derived here from ``P.comp``, so
that the two count the same candidates.
"""

from dataclasses import replace
from itertools import product

import pytest

import lookups
from multicat import homcalc, perms
from multicat.algebras import EndView, ObjectFamily, algebra_from_multifunctor
from multicat.bimodules import (enumerate_module_homs,
                                module_from_multicategory, right_module_from)
from multicat.core import backtrack, composed_sig, sig_key
from multicat.dsl import elaborate, parse
from multicat.errors import (BudgetExceededError, PartialInputError,
                             StructuralError)
from multicat.homcalc import (Multifunctor, enumerate_multifunctors,
                              internal_hom)
from multicat.presents import arrow_multicategory, bv_tensor
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               indiscrete_pair, unit_multicategory)

I = unit_multicategory()
AS2 = assoc_multicategory(2)
AS3 = assoc_multicategory(3)
COM2 = comm_multicategory(2)
COM3 = comm_multicategory(3)
A2 = ObjectFamily({"x": ("a", "b")})
A3 = ObjectFamily({"x": ("a", "b", "c")})


def ref_multifunctors(P, Q, budget=10 ** 6, fix_objects=None):
    if not P.complete:
        raise PartialInputError("source must be complete")
    comp_index = {}
    # ref -> the composites it takes part in whose result is neither factor
    degree = {}
    for key, r in P.comp.items():
        psig, p, slot, qsig, q = key
        comp_index.setdefault((psig, p), []).append(key)
        comp_index.setdefault((qsig, q), []).append(key)
        if (composed_sig(psig, slot, qsig), r) not in ((psig, p), (qsig, q)):
            for ref in ((psig, p), (qsig, q)):
                degree[ref] = degree.get(ref, 0) + 1

    # by arity, the most constrained first, then by signature and id
    op_order = [(s, op) for s in P.signatures() for op in P.ops_at(s)]
    op_order.sort(key=lambda ref: (len(ref[0][0]), -degree.get(ref, 0),
                                   sig_key(ref[0]), ref[1]))

    tried = [0]
    results = []

    def propagate(assign, queue):
        while queue:
            ref = queue.pop()
            image = assign[ref]
            s = ref[0]
            if P.symmetric:
                for sp in perms.all_perms(len(s[0])):
                    derived = P.collection.act(ref, sp)
                    want = lookups.act(Q, image, sp)
                    if derived in assign:
                        if assign[derived] != want:
                            return False
                    else:
                        assign[derived] = want
                        queue.append(derived)
            for key in comp_index.get(ref, ()):
                psig, p, slot, qsig, q = key
                pref, qref = (psig, p), (qsig, q)
                if pref in assign and qref in assign:
                    rsig = composed_sig(psig, slot, qsig)
                    rref = (rsig, P.comp[key])
                    want = Q.compose1(assign[pref], slot, assign[qref])
                    if rref in assign:
                        if assign[rref] != want:
                            return False
                    else:
                        assign[rref] = want
                        queue.append(rref)
        return True

    def candidates(Q, ms):
        it = getattr(Q, "iter_ops", None)
        if it is not None:
            yield from it(ms)
        else:
            yield from Q.ops_at(ms)

    def search(object_map):
        base = {}
        queue = []
        for c in P.colors:
            ref = P.unit_ref(c)
            base[ref] = Q.unit_ref(object_map[c])
            queue.append(ref)
        if not propagate(base, queue):
            return

        def rec(assign):
            pending = [ref for ref in op_order if ref not in assign]
            if not pending:
                op_maps = {}
                for (s, op), (ms, im) in assign.items():
                    op_maps.setdefault(s, {})[op] = im
                results.append(Multifunctor(
                    source=P, target=Q, object_map=dict(object_map),
                    op_maps=op_maps))
                return
            ref = pending[0]
            ms = (tuple(object_map[c] for c in ref[0][0]),
                  object_map[ref[0][1]])
            for cand in candidates(Q, ms):
                tried[0] += 1
                if tried[0] > budget:
                    raise BudgetExceededError(
                        f"multifunctor search exceeded {budget} candidates",
                        count=len(results))
                trial = dict(assign)
                trial[ref] = (ms, cand)
                if propagate(trial, [ref]):
                    rec(trial)

        rec(base)

    if fix_objects is not None:
        search(dict(fix_objects))
    else:
        for combo in product(Q.colors, repeat=len(P.colors)):
            search(dict(zip(P.colors, combo)))
    results.sort(key=lambda F: F.key())
    return results, tried[0]


def ref_tensor_elements(N, factors, max_arity):
    out = {}
    k = len(factors)
    for n in range(max_arity + 1):
        assigns = product(range(k), repeat=n) if k else (
            [()] if n == 0 else [])
        for assign in assigns:
            blocks_pos = tuple(tuple(p for p in range(n) if assign[p] == j)
                               for j in range(k))
            pools = []
            ok = True
            for j, S in enumerate(blocks_pos):
                cands = []
                for s in N.collection.signatures():
                    if s[1] == factors[j] and len(s[0]) == len(S):
                        cands.extend((s, m) for m in N.collection.ops_at(s))
                if not cands:
                    ok = False
                    break
                pools.append(cands)
            if not ok and k:
                continue
            for combo in product(*pools):
                blocks = tuple((blocks_pos[j], combo[j]) for j in range(k))
                inputs = [None] * n
                for (S, (ms, _)) in blocks:
                    for local, pos in enumerate(sorted(S)):
                        inputs[pos] = ms[0][local]
                sig = (tuple(inputs), tuple(factors))
                out.setdefault(sig, []).append(("tens", blocks))
    return {s: sorted(set(v)) for s, v in out.items()}


def ref_tensor_act_sigma(N, elem, p):
    _, blocks = elem
    inv = perms.inverse(p)
    new_blocks = []
    for S, mref in blocks:
        newS = tuple(sorted(inv[x] for x in S))
        old_sorted = sorted(S)
        rho = tuple(old_sorted.index(p[x]) for x in newS)
        new_blocks.append(
            (newS, N.collection.act(mref, rho)
             if rho != perms.identity(len(rho)) else mref))
    return ("tens", tuple(new_blocks))


def ref_tensor_act_right(N, elem, slot, qref):
    _, blocks = elem
    k = len(qref[0][0])
    new_blocks = []
    for S, mref in blocks:
        if slot in S:
            acted = lookups.act_right(N, mref, sorted(S).index(slot), qref)
            if acted is None:
                return None
            newS = []
            for pos in sorted(S):
                if pos < slot:
                    newS.append(pos)
                elif pos == slot:
                    newS.extend(range(slot, slot + k))
                else:
                    newS.append(pos + k - 1)
            new_blocks.append((tuple(newS), acted))
        else:
            newS = tuple(pos if pos < slot else pos + k - 1 for pos in S)
            new_blocks.append((newS, mref))
    return ("tens", tuple(new_blocks))


def ref_module_homs(N, factors, target, max_arity, budget=200000):
    elems = ref_tensor_elements(N, factors, max_arity)
    elem_sets = {s: set(v) for s, v in elems.items()}
    order = [(s, e)
             for s in sorted(elems, key=lambda s: (len(s[0]), str(s)))
             for e in elems[s]]
    target_ops = {s: [((s[0], target), m)
                      for m in N.collection.ops_at((s[0], target))]
                  for s in elems}

    results = []
    tried = [0]

    def propagate(assign, queue):
        while queue:
            key = queue.pop()
            s, e = key
            value = assign[key]
            n = len(s[0])
            for p in perms.all_perms(n):
                e2 = ref_tensor_act_sigma(N, e, p)
                s2 = (perms.permute(s[0], p), s[1])
                k2 = (s2, e2)
                if e2 not in elem_sets.get(s2, ()):
                    continue
                v2 = N.collection.act(value, p)
                if k2 in assign:
                    if assign[k2] != v2:
                        return False
                else:
                    assign[k2] = v2
                    queue.append(k2)
            for slot, color in enumerate(s[0]):
                for qs in N.right.signatures():
                    if qs[1] != color:
                        continue
                    if len(s[0]) + len(qs[0]) - 1 > max_arity:
                        continue
                    for q in N.right.ops_at(qs):
                        qref = (qs, q)
                        e2 = ref_tensor_act_right(N, e, slot, qref)
                        if e2 is None:
                            continue
                        v2 = lookups.act_right(N, value, slot, qref)
                        if v2 is None:
                            continue
                        s2 = (composed_sig((s[0], "*"), slot, qs)[0], s[1])
                        k2 = (s2, e2)
                        if e2 not in elem_sets.get(s2, ()):
                            continue
                        if k2 in assign:
                            if assign[k2] != v2:
                                return False
                        else:
                            assign[k2] = v2
                            queue.append(k2)
        return True

    def rec(assign):
        pending = [key for key in order if key not in assign]
        if not pending:
            results.append(dict(assign))
            return
        key = pending[0]
        s, _ = key
        for cand in target_ops[s]:
            tried[0] += 1
            if tried[0] > budget:
                raise BudgetExceededError(
                    "module homomorphism search exceeded budget",
                    count=len(results))
            trial = dict(assign)
            trial[key] = cand
            if propagate(trial, [key]):
                rec(trial)

    rec({})
    return results, tried[0]


def _arrow_com2():
    family = ObjectFamily({c: ("a", "b") for c in "012"})
    return (arrow_multicategory(COM2, 2), EndView(family, arity_cap=2),
            {c: c for c in "012"})


def _sym12():
    # ternary operations t0, t1, t2, symmetric in every input but the
    # k-th: t2 is fixed by (1,2) and not by (2,3), t0 the other way round
    rows = ["multicategory Sym12", "  color x", "  ops (x;x) = u",
            "  ops (x,x,x;x) = t0 t1 t2", "  unit x = u",
            "  comp (x;x) u 1 (x;x) u = u"]
    swaps = {"[2,1,3]": {"t0": "t1", "t1": "t0", "t2": "t2"},
             "[1,3,2]": {"t0": "t0", "t1": "t2", "t2": "t1"}}
    for perm, table in swaps.items():
        rows += [f"  act (x,x,x;x) {t} {perm} = {table[t]}" for t in table]
    for t in ("t0", "t1", "t2"):
        rows.append(f"  comp (x;x) u 1 (x,x,x;x) {t} = {t}")
        rows += [f"  comp (x,x,x;x) {t} {i} (x;x) u = {t}" for i in (1, 2, 3)]
    objects, diags = elaborate(parse("\n".join(rows) + "\n")[0])
    assert not diags
    return objects["Sym12"]


MULTIFUNCTOR_CASES = {
    "As3->Com3": lambda: (AS3, COM3, None),
    "As2->Com2": lambda: (AS2, COM2, None),
    "As3->End(A2)": lambda: (AS3, EndView(A2, arity_cap=3), None),
    "Com3->End(A3)": lambda: (COM3, EndView(A3, arity_cap=3), None),
    "Com2^2->End": _arrow_com2,
    "I->indiscrete": lambda: (I, indiscrete_pair(), None),
    "indiscrete->indiscrete": lambda: (indiscrete_pair(), indiscrete_pair(),
                                       None),
    "Com2^1->Com2^1": lambda: (arrow_multicategory(COM2, 1),
                               arrow_multicategory(COM2, 1), None),
    # a hom table as the target, a tensor as the source
    "As2->Hom(As2,End(A2))": lambda: (
        AS2, internal_hom(AS2, EndView(A2, arity_cap=2), 2).table, None),
    "I(x)As2->End(A2)": lambda: (bv_tensor(I, AS2, 3, 3).table,
                                 EndView(A2, arity_cap=3), None),
    # each ternary operation is fixed by one adjacent transposition only
    "Sym12->End(A2)": lambda: (_sym12(), EndView(A2, arity_cap=3), None),
    "Sym12->Sym12": lambda: (_sym12(), _sym12(), None),
}


def _bimod():
    from pathlib import Path

    text = (Path(__file__).parent.parent / "fixtures" / "bimod.mcat"
            ).read_text()
    objects, _ = elaborate(parse(text)[0])
    return objects


MODULES = {
    "Reg": lambda: right_module_from(_bimod()["Reg"]),
    "As2pos": lambda: right_module_from(
        module_from_multicategory(_bimod()["As2pos"])),
}


def _raised(fn, *args, **kwargs):
    with pytest.raises(BudgetExceededError) as info:
        fn(*args, **kwargs)
    return str(info.value), info.value.count


@pytest.mark.parametrize("case", sorted(MULTIFUNCTOR_CASES))
def test_multifunctors_match_reference(case):
    P, Q, fix = MULTIFUNCTOR_CASES[case]()
    want, tried = ref_multifunctors(P, Q, fix_objects=fix)
    got = enumerate_multifunctors(P, Q, fix_objects=fix)
    assert [F.key() for F in got] == [F.key() for F in want]
    assert [F.object_map for F in got] == [F.object_map for F in want]
    # the smallest passing budget is the reference's candidate count
    assert enumerate_multifunctors(P, Q, budget=tried, fix_objects=fix) \
        == got
    if tried:
        assert (_raised(enumerate_multifunctors, P, Q, budget=tried - 1,
                        fix_objects=fix)
                == _raised(ref_multifunctors, P, Q, budget=tried - 1,
                           fix_objects=fix))


@pytest.mark.parametrize("case", sorted(MULTIFUNCTOR_CASES))
def test_maps_follow_the_source_order(case, monkeypatch):
    # op_maps, and the action of an algebra read off them, list P's
    # operations in refs() order, whatever order the search branches in:
    # branching in (arity, sig_key, op id) order gives the same maps in
    # the same order
    P, Q, fix = MULTIFUNCTOR_CASES[case]()
    refs = list(P.refs())

    def listed(maps):
        return [((s, op), im) for s, t in maps.items()
                for op, im in t.items()]

    got = enumerate_multifunctors(P, Q, fix_objects=fix)
    for F in got:
        assert [ref for ref, _ in listed(F.op_maps)] == refs
        if isinstance(Q, EndView):
            action = listed(algebra_from_multifunctor(F).action)
            assert [ref for ref, _ in action] == refs

    num = P.collection.numbering
    monkeypatch.setattr(homcalc, "_search_order", lambda P, index: sorted(
        num.ops, key=lambda m: (len(num.sigs[m][0]), sig_key(num.sigs[m]),
                                num.refs[m][1])))
    plain = enumerate_multifunctors(P, Q, fix_objects=fix)
    assert [listed(F.op_maps) for F in plain] == [listed(F.op_maps)
                                                  for F in got]


# the instances `check_multifunctor` counts per law, summed over the
# multifunctors each case finds ("Com2^2->End" is the arrow census), taken
# while the check noted every instance on its own
CHECKED = {
    "As2->Com2": (1, (4, 1, 6, 12)),
    "As2->Hom(As2,End(A2))": (8, (32, 8, 48, 96)),
    "As3->Com3": (1, (10, 1, 42, 62)),
    "As3->End(A2)": (4, (40, 4, 168, 248)),
    "Com2^1->Com2^1": (3, (30, 6, 45, 111)),
    "Com2^2->End": (144, (3312, 432, 5328, 16416)),
    "Com3->End(A3)": (27, (108, 27, 270, 432)),
    "I(x)As2->End(A2)": (4, (64, 4, 312, 416)),
    "I->indiscrete": (2, (2, 2, 2, 2)),
    "Sym12->End(A2)": (64, (256, 64, 1216, 832)),
    "Sym12->Sym12": (1, (4, 1, 19, 13)),
    "indiscrete->indiscrete": (4, (16, 8, 16, 32)),
}


@pytest.mark.parametrize("case", sorted(MULTIFUNCTOR_CASES))
def test_check_counts_unchanged(case):
    P, Q, fix = MULTIFUNCTOR_CASES[case]()
    laws = ("total", "units", "equivariance", "compositions")
    found = enumerate_multifunctors(P, Q, fix_objects=fix)
    sums = [0] * len(laws)
    for F in found:
        report = homcalc.check_multifunctor(F)
        assert report.ok and tuple(report.checked) == laws
        for k, law in enumerate(laws):
            sums[k] += report.checked[law]
    assert (len(found), tuple(sums)) == CHECKED[case]


def test_arrow_census_budget():
    # the arrow census branches on (2,2;2) before the mixed signatures it
    # forces: 3,182 candidates for its 144 algebras; an order that loses
    # this fails here
    P, Q, fix = _arrow_com2()
    assert len(enumerate_multifunctors(P, Q, budget=3182,
                                       fix_objects=fix)) == 144
    with pytest.raises(BudgetExceededError):
        enumerate_multifunctors(P, Q, budget=3181, fix_objects=fix)


def test_several_object_maps_share_one_budget():
    P = Q = arrow_multicategory(COM2, 1)
    _, tried = ref_multifunctors(P, Q)
    assert len(P.colors) > 1 and tried > 1
    for budget in range(tried):
        assert (_raised(enumerate_multifunctors, P, Q, budget=budget)
                == _raised(ref_multifunctors, P, Q, budget=budget))


def _same_as_reference(P, Q, budget):
    try:
        want = ref_multifunctors(P, Q, budget=budget)[0]
    except BudgetExceededError:
        assert (_raised(enumerate_multifunctors, P, Q, budget=budget)
                == _raised(ref_multifunctors, P, Q, budget=budget))
        return False
    assert enumerate_multifunctors(P, Q, budget=budget) == want
    return True


def test_every_budget_counts_the_passed_over_candidates():
    # Com2's binary operation is commutative: of the 16 binary tables on
    # two elements only the 8 symmetric ones are drawn, and the 8 others
    # still count against the budget
    P, Q = COM2, EndView(A2, arity_cap=2)
    _, tried = ref_multifunctors(P, Q)
    assert tried == 2 * (1 + 16)
    finished = [_same_as_reference(P, Q, budget)
                for budget in range(tried + 1)]
    assert finished == [False] * tried + [True]


def _symmetric_rank(rank, size, digits):
    # whether the binary table of the given rank in values_at order is
    # fixed by the transposition of its inputs
    table = []
    for _ in range(size * size):
        rank, d = divmod(rank, digits)
        table.append(d)
    table.reverse()
    return all(table[a * size + b] == table[b * size + a]
               for a in range(size) for b in range(size))


def test_budgets_inside_passed_over_runs():
    # Com3 on three elements tries each nullary value, then the 3**9
    # binary tables, of which only the symmetric ones are drawn
    P, Q = COM3, EndView(A3, arity_cap=3)
    block = 1 + 3 ** 9
    ranks = [3, 4, 5, 10, 100, 1000, 12345, 3 ** 9 - 4]
    assert not any(_symmetric_rank(r, 3, 3) for r in ranks)
    # the candidate past the budget is the table of that rank
    budgets = [j * block + 1 + r for j in (0, 1) for r in ranks]
    for budget in budgets:
        assert not _same_as_reference(P, Q, budget)


@pytest.mark.parametrize("limit,budget", [
    (4, 10 ** 6), (10, 10 ** 6), (1000, 10 ** 6), (10, 8), (10, 12),
    (6, 7), (1, 10 ** 6), (30, 10 ** 6), (30, 20), (30, 31)])
def test_limit_fires_inside_a_passed_over_run(limit, budget):
    # the binary table of rank `limit` is passed over, so the limit error
    # (or the budget error, whichever comes first) fires inside a run;
    # rank 30 is a drawn table, for the limit on a drawn candidate (at
    # budget 31 that candidate would also pass the budget, and the limit
    # comes first), and limit 1 stops at the three nullary candidates
    P = COM3
    if limit > 2:
        assert _symmetric_rank(limit, 3, 3) == (limit == 30)

    def outcome(fn):
        try:
            return [F.key() for F in fn(P, EndView(A3, arity_cap=3,
                                                   limit=limit),
                                        budget=budget)]
        except BudgetExceededError as exc:
            return str(exc), exc.count

    want = outcome(lambda *a, **k: ref_multifunctors(*a, **k)[0])
    assert outcome(enumerate_multifunctors) == want
    assert isinstance(want, tuple)


def test_truncated_target_prunes_outside_its_support():
    # I(x)As2 at caps (4, 4) has operations of arity 3 and 4, which As2
    # lacks: a composite there prunes the branch, where the reference
    # loop raised on the missing cell
    T = bv_tensor(I, AS2, 4, 4).table
    with pytest.raises(StructuralError, match="missing composition cell"):
        ref_multifunctors(T, AS2)
    assert enumerate_multifunctors(T, AS2) == []
    # a cell missing inside the support cannot be checked
    cell = next(k for k in COM3.comp if len(k[0][0]) == len(k[3][0]) == 2)
    comp = dict(COM3.comp)
    del comp[cell]
    with pytest.raises(PartialInputError, match="inside its support"):
        enumerate_multifunctors(COM3, replace(COM3, comp=comp))


@pytest.mark.parametrize("module", sorted(MODULES))
@pytest.mark.parametrize("factors", [["x"], ["x", "x"]])
def test_module_homs_match_reference(module, factors):
    N = MODULES[module]()
    want, tried = ref_module_homs(N, factors, "x", 2)
    assert enumerate_module_homs(N, factors, "x", 2) == want
    assert enumerate_module_homs(N, factors, "x", 2, budget=tried) == want
    assert tried > 0
    assert (_raised(enumerate_module_homs, N, factors, "x", 2,
                    budget=tried - 1)
            == _raised(ref_module_homs, N, factors, "x", 2,
                       budget=tried - 1))


class TestEngine:
    @staticmethod
    def free(key):
        return "ab"

    @staticmethod
    def nothing(key, value, assign):
        return ()

    @staticmethod
    def copy_0_to_2(key, value, assign):
        if key == 0:
            yield 2, value

    def test_product_order(self):
        got = list(backtrack([0, 1], self.free, self.nothing, {}, 10, "x"))
        assert got == [{0: "a", 1: "a"}, {0: "a", 1: "b"},
                       {0: "b", 1: "a"}, {0: "b", 1: "b"}]

    def test_derived_keys_are_not_branched(self):
        counts = {"tried": 0, "found": 0}
        got = list(backtrack([0, 1, 2], self.free, self.copy_0_to_2, {},
                             10, "x", counts))
        assert [(a[0], a[1], a[2]) for a in got] == [
            ("a", "a", "a"), ("a", "b", "a"), ("b", "a", "b"),
            ("b", "b", "b")]
        assert counts == {"tried": 6, "found": 4}

    def test_conflicting_start_yields_nothing(self):
        start = {0: "a", 2: "b"}
        assert list(backtrack([0, 1, 2], self.free, self.copy_0_to_2,
                              start, 10, "x")) == []

    def test_budget_counts_across_calls(self):
        counts = {"tried": 0, "found": 0}
        assert len(list(backtrack([0], self.free, self.nothing, {}, 3, "x",
                                  counts))) == 2
        with pytest.raises(BudgetExceededError) as info:
            list(backtrack([0], self.free, self.nothing, {}, 3,
                           "over budget", counts))
        assert str(info.value) == "over budget"
        assert info.value.count == 3
        assert counts == {"tried": 4, "found": 3}
