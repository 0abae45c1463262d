"""One slot-action law pass for multicategories and bimodules, against the
two law checkers it replaced.

The references below are the earlier ``check_multicategory_laws`` and
``check_bimodule``, kept whole: each coded associativity and equivariance
of its slot action itself, and the bimodule one never checked that the
right action is equivariant in its argument."""

import hashlib
import json
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import lookups
from multicat import dsl, perms
from multicat.algebras import EndView, ObjectFamily, end_of_map
from multicat.bimodules import (Bimodule, check_bimodule,
                                module_from_multicategory)
from multicat.core import (CellLookup, LawReport, TableMulticategory,
                           check_multicategory_laws, composed_sig, sig_key)
from multicat.errors import MulticatError, StructuralError
from multicat.homcalc import internal_hom
from multicat.presents import bv_tensor, saturate
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               corrupt_unit, indiscrete_pair,
                               unit_multicategory)
from multicat.trees import build_tree_multicategory, free_multicategory

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# the references


def _ref_str(ref):
    return f"{sig_key(ref[0])}:{ref[1]}"


def ref_check_multicategory_laws(M, max_violations=25):
    """Exhaustive law check over the declared support.

    For complete tables a composition cell that is absent although its
    result signature is in the support is reported once, as a
    ``missing-cell`` violation whose witness names the cell, and the
    instances that need it are skipped.  For tables marked partial the
    laws are verified on all instances whose every intermediate composite
    is present.
    """
    report = LawReport()
    coll = M.collection
    missing = set()

    def comp(pref, slot, qref):
        psig, p = pref
        qsig, q = qref
        rsig = composed_sig(psig, slot, qsig)
        entry = M.comp.get((psig, p, slot, qsig, q))
        if entry is not None:
            return (rsig, entry)
        if M.is_unit(qref):
            return pref
        if M.is_unit(pref):
            return qref
        if rsig in M.ops and M.complete:
            cell = (psig, p, slot, qsig, q)
            if cell not in missing:
                missing.add(cell)
                report.fail("missing-cell",
                            f"({_ref_str(pref)}) o_{slot} ({_ref_str(qref)})")
        return None

    # units present and well placed
    for c in coll.colors:
        u = M.units.get(c)
        if u is None or u not in coll.ops_at(((c,), c)):
            report.fail("unit-present", f"color {c}")
        report.note("unit-present")

    # action tables sane: identity, bijection, contravariance
    for s in coll.signatures():
        n = len(s[0])
        for p in (perms.all_perms(n) if M.symmetric
                  else [perms.identity(n)]):
            table = coll.action.get((s, p))
            if table is None or set(table) != set(coll.ops[s]):
                report.fail("action-total", f"{sig_key(s)} perm {p}")
                continue
            target = (perms.permute(s[0], p), s[1])
            if sorted(table.values()) != sorted(coll.ops.get(target, ())):
                report.fail("action-bijective", f"{sig_key(s)} perm {p}")
            report.note("action-bijective")
        ident = coll.action.get((s, perms.identity(n)), {})
        if any(ident.get(op) != op for op in coll.ops[s]):
            report.fail("action-identity", sig_key(s))
        report.note("action-identity")
    if report.violations:
        return report

    for s in coll.signatures():
        if not M.symmetric:
            break
        n = len(s[0])
        for p_ in perms.all_perms(n):
            for q_ in perms.all_perms(n):
                pq = perms.compose(p_, q_)
                for op in coll.ops[s]:
                    one = coll.act(coll.act((s, op), p_), q_)
                    two = coll.act((s, op), pq)
                    report.note("action-contravariant")
                    if one != two:
                        report.fail(
                            "action-contravariant",
                            f"{sig_key(s)}:{op} perms {p_},{q_}")

    all_refs = list(coll.refs())

    # unit laws
    for pref in all_refs:
        psig, _ = pref
        for slot, color in enumerate(psig[0]):
            got = comp(pref, slot, M.unit_ref(color))
            report.note("unit-right")
            if got is not None and got != pref:
                report.fail(
                    "unit-right",
                    f"{_ref_str(pref)} o_{slot} 1_{color} = {_ref_str(got)}")
        u = M.unit_ref(psig[1])
        got = comp(u, 0, pref)
        report.note("unit-left")
        if got is not None and got != pref:
            report.fail(
                "unit-left",
                f"1_{psig[1]} o_0 {_ref_str(pref)} = {_ref_str(got)}")

    def composables(pref):
        psig, _ = pref
        for slot, color in enumerate(psig[0]):
            for qs in coll.signatures():
                if qs[1] != color:
                    continue
                for q in coll.ops[qs]:
                    yield slot, (qs, q)

    # associativity, sequential and parallel
    for pref in all_refs:
        if len(report.violations) >= max_violations:
            return report
        for i, qref in composables(pref):
            pq = comp(pref, i, qref)
            if pq is None:
                continue
            qsig = qref[0]
            k = len(qsig[0])
            for j, rref in composables(qref):
                qr = comp(qref, j, rref)
                left = comp(pq, i + j, rref)
                right = None if qr is None else comp(pref, i, qr)
                report.note("assoc-sequential")
                if left is not None and right is not None and left != right:
                    report.fail(
                        "assoc-sequential",
                        f"({_ref_str(pref)} o_{i} {_ref_str(qref)}) o_{i+j} "
                        f"{_ref_str(rref)}")
            for j, rref in composables(pref):
                if j <= i:
                    continue
                pr = comp(pref, j, rref)
                left = comp(pq, j + k - 1, rref)
                right = None if pr is None else comp(pr, i, qref)
                report.note("assoc-parallel")
                if left is not None and right is not None and left != right:
                    report.fail(
                        "assoc-parallel",
                        f"slots {i},{j} of {_ref_str(pref)} with "
                        f"{_ref_str(qref)},{_ref_str(rref)}")

    # equivariance of composition with the actions
    for pref in all_refs if M.symmetric else ():
        if len(report.violations) >= max_violations:
            return report
        psig, _ = pref
        n = len(psig[0])
        for sigma in perms.all_perms(n):
            p_acted = coll.act(pref, sigma)
            for i in range(n):
                color = psig[0][sigma[i]]
                for qs in coll.signatures():
                    if qs[1] != color:
                        continue
                    k = len(qs[0])
                    for q in coll.ops[qs]:
                        qref = (qs, q)
                        base = comp(pref, sigma[i], qref)
                        left = comp(p_acted, i, qref)
                        report.note("equivariance-outer")
                        if base is not None and left is not None:
                            expected = coll.act(
                                base, perms.expand_outer(sigma, i, k))
                            if left != expected:
                                report.fail(
                                    "equivariance-outer",
                                    f"{_ref_str(pref)} perm {sigma} slot {i} "
                                    f"arg {_ref_str(qref)}")
        for i, qref in composables(pref):
            qs = qref[0]
            k = len(qs[0])
            base = comp(pref, i, qref)
            if base is None:
                continue
            for tau in perms.all_perms(k):
                q_acted = coll.act(qref, tau)
                left = comp(pref, i, q_acted)
                report.note("equivariance-inner")
                if left is not None:
                    expected = coll.act(base, perms.expand_inner(n, i, tau))
                    if left != expected:
                        report.fail(
                            "equivariance-inner",
                            f"{_ref_str(pref)} slot {i} arg {_ref_str(qref)} "
                            f"perm {tau}")

    return report


def ref_check_bimodule(M, max_violations=25):
    """Left laws, right laws, the symmetric-action laws, and the two-sided
    compatibility axiom, exhaustively over the declared support; instances
    whose intermediate values fall outside the support are skipped.  The
    actions and composites are read off the tables (`lookups`)."""
    report = LawReport()
    coll = M.collection

    def act_right1(mref, slot, qref):
        return lookups.act_right(M, mref, slot, qref)

    def act_right(mref, qrefs):
        return lookups.gamma(act_right1, mref, qrefs)

    def act_left(pref, mrefs):
        return lookups.act_left(M, pref, mrefs)

    for s in coll.signatures():
        n = len(s[0])
        for p in perms.all_perms(n):
            table = coll.action.get((s, p))
            if table is None or set(table) != set(coll.ops[s]):
                report.fail("action-total", f"{sig_key(s)} perm {p}")
            report.note("action-total")
    if report.violations:
        return report

    mrefs_all = list(coll.refs())

    def q_ops(color):
        for qs in M.right.signatures():
            if qs[1] == color:
                for q in M.right.ops_at(qs):
                    yield (qs, q)

    # right unit law
    for mref in mrefs_all:
        s = mref[0]
        for slot, color in enumerate(s[0]):
            got = act_right1(mref, slot, M.right.unit_ref(color))
            report.note("right-unit")
            if got is not None and got != mref:
                report.fail("right-unit", f"{mref} slot {slot}")

    # right associativity, both families
    for mref in mrefs_all:
        if len(report.violations) >= max_violations:
            return report
        s = mref[0]
        for i, color in enumerate(s[0]):
            for qref in q_ops(color):
                mq = act_right1(mref, i, qref)
                if mq is None:
                    continue
                k = len(qref[0][0])
                for j, color2 in enumerate(qref[0][0]):
                    for rref in q_ops(color2):
                        qr = lookups.compose(M.right, qref, j, rref)
                        left = act_right1(mq, i + j, rref)
                        right = (None if qr is None
                                 else act_right1(mref, i, qr))
                        report.note("right-assoc")
                        if (left is not None and right is not None
                                and left != right):
                            report.fail("right-assoc",
                                        f"{mref} o_{i} {qref} o_{j} {rref}")
                for j, color2 in enumerate(s[0]):
                    if j <= i:
                        continue
                    for rref in q_ops(color2):
                        mr = act_right1(mref, j, rref)
                        left = act_right1(mq, j + k - 1, rref)
                        right = (None if mr is None
                                 else act_right1(mr, i, qref))
                        report.note("right-parallel")
                        if (left is not None and right is not None
                                and left != right):
                            report.fail("right-parallel",
                                        f"{mref} slots {i},{j}")

    # right equivariance
    for mref in mrefs_all:
        s = mref[0]
        n = len(s[0])
        for sigma in perms.all_perms(n):
            acted = coll.act(mref, sigma)
            for i in range(n):
                for qref in q_ops(s[0][sigma[i]]):
                    base = act_right1(mref, sigma[i], qref)
                    left = act_right1(acted, i, qref)
                    report.note("right-equivariance")
                    if base is not None and left is not None:
                        k = len(qref[0][0])
                        want = coll.act(base,
                                        perms.expand_outer(sigma, i, k))
                        if left != want:
                            report.fail("right-equivariance",
                                        f"{mref} perm {sigma} slot {i}")

    def m_tuples(colors):
        pools = [[m for m in mrefs_all if m[0][1] == c] for c in colors]
        yield from product(*pools)

    # left associativity and equivariance
    for s in M.left.signatures():
        if len(report.violations) >= max_violations:
            return report
        n = len(s[0])
        for p in M.left.ops_at(s):
            pref = (s, p)
            for mrefs in m_tuples(s[0]):
                pm = act_left(pref, mrefs)
                if pm is None:
                    continue
                for slot, color in enumerate(s[0]):
                    for qs in M.left.signatures():
                        if qs[1] != color:
                            continue
                        for q in M.left.ops_at(qs):
                            pq = lookups.compose(M.left, pref, slot, (qs, q))
                            if pq is None:
                                continue
                            for inner in m_tuples(qs[0]):
                                qm = act_left((qs, q), inner)
                                if qm is None:
                                    continue
                                nested = (mrefs[:slot] + (qm,)
                                          + mrefs[slot + 1:])
                                left_side = act_left(pref, nested)
                                flat = (mrefs[:slot] + tuple(inner)
                                        + mrefs[slot + 1:])
                                right_side = act_left(pq, flat)
                                report.note("left-assoc")
                                if (left_side is not None
                                        and right_side is not None
                                        and left_side != right_side):
                                    report.fail(
                                        "left-assoc",
                                        f"{pref} o_{slot} {(qs, q)}")
                for sigma in perms.all_perms(n):
                    p2 = M.left.collection.act(pref, sigma)
                    permuted = tuple(mrefs[sigma[t]] for t in range(n))
                    left_side = act_left(p2, permuted)
                    report.note("left-equivariance")
                    if left_side is not None:
                        sizes = [len(m[0][0]) for m in mrefs]
                        want = coll.act(
                            pm, perms.block_permutation(sigma, sizes))
                        if left_side != want:
                            report.fail("left-equivariance",
                                        f"{pref} perm {sigma}")

    # compatibility of the two actions
    for s in M.left.signatures():
        if len(report.violations) >= max_violations:
            return report
        for p in M.left.ops_at(s):
            pref = (s, p)
            for mrefs in m_tuples(s[0]):
                pm = act_left(pref, mrefs)
                if pm is None:
                    continue
                pools = [list(product(*[list(q_ops(c)) for c in m[0][0]]))
                         for m in mrefs]
                for combo in product(*pools):
                    flat = [q for block in combo for q in block]
                    left_side = act_right(pm, flat)
                    acted = tuple(act_right(m, list(block))
                                  for m, block in zip(mrefs, combo))
                    right_side = (None if None in acted
                                  else act_left(pref, acted))
                    report.note("compatibility")
                    if (left_side is not None and right_side is not None
                            and left_side != right_side):
                        report.fail("compatibility", f"{pref} on {mrefs}")
                        if len(report.violations) >= max_violations:
                            return report
    return report


# ---------------------------------------------------------------------------
# inputs

I = unit_multicategory()
AS2 = assoc_multicategory(2)
AS3 = assoc_multicategory(3)
AS3P = assoc_multicategory(3, include_nullary=False)
COM2 = comm_multicategory(2)
COM3 = comm_multicategory(3)
A2 = ObjectFamily({"x": ("a", "b")})


def fixture_objects():
    out = {}
    for path in sorted(FIXTURES.glob("*.mcat")):
        objs, diags = dsl.elaborate(dsl.parse(path.read_text())[0])
        assert not diags
        out.update({f"{path.stem}:{name}": obj for name, obj in objs.items()})
    return out


def _plain_cell(M):
    return next(k for k in sorted(M.comp, key=str)
                if not M.is_unit((k[0], k[1]))
                and not M.is_unit((k[3], k[4])))


def holed(M):
    # a complete table with one non-unit cell deleted
    comp = dict(M.comp)
    del comp[_plain_cell(M)]
    return replace(M, comp=comp)


def miswired(M):
    # one non-unit cell pointing at another operation of its signature
    cell = _plain_cell(M)
    rsig = composed_sig(cell[0], cell[2], cell[3])
    comp = dict(M.comp)
    comp[cell] = next(op for op in M.ops_at(rsig) if op != comp[cell])
    return replace(M, comp=comp)


def free_binary(symmetric):
    binary = fixture_objects()["magma:Binary"]
    return free_multicategory(binary, symmetric, 4, 4)[0]


TABLES = {
    "I": lambda: I,
    "As2": lambda: AS2,
    "As3": lambda: AS3,
    "Com3": lambda: COM3,
    "As3pos": lambda: AS3P,
    "corrupt-unit-As3": lambda: corrupt_unit(AS3),
    "holed-Com3": lambda: holed(COM3),
    "miswired-As3": lambda: miswired(AS3),
    "I(x)As3-4-3": lambda: bv_tensor(I, AS3, 4, 3).table,
    "Com2(x)Com2-4-4": lambda: bv_tensor(COM2, COM2, 4, 4).table,
    "magma-5-4": lambda: saturate(fixture_objects()["magma:Magma"], 5,
                                  4).table,
    "free-binary-sym-4-4": lambda: free_binary(True),
    "free-binary-planar-4-4": lambda: free_binary(False),
    "trees-3-2": lambda: build_tree_multicategory(3, 2)[0],
    "end-of-map-bijection-2": lambda: end_of_map(
        {"x": {"a": "b", "b": "a"}}, A2, A2, arity_cap=2)[0],
    "hom-As3-End3-2": lambda: internal_hom(
        AS3, EndView(A2, arity_cap=3), 2).table,
}
FIXTURE_TABLES = sorted(name for name, obj in fixture_objects().items()
                        if isinstance(obj, TableMulticategory))


def seeded_bimodule():
    # As3's regular bimodule with one right action cell changed
    mod = module_from_multicategory(AS3)
    s2 = (("x", "x"), "x")
    s3 = (("x",) * 3, "x")
    bad_right = dict(mod.right_table)
    bad_right[(s2, "w01"), 0, (s2, "w01")] = (s3, "w021")
    return Bimodule(left=AS3, right=AS3, collection=mod.collection,
                    left_table=mod.left_table, right_table=bad_right)


def seeded_left_bimodule():
    # As3's regular bimodule with one non-unit left action row changed
    mod = module_from_multicategory(AS3)
    s1 = (("x",), "x")
    s2 = (("x", "x"), "x")
    bad_left = dict(mod.left_table)
    key = (s2, "w01"), ((s1, "w0"), (s1, "w0"))
    assert bad_left[key] == (s2, "w01")
    bad_left[key] = (s2, "w10")
    return Bimodule(left=AS3, right=AS3, collection=mod.collection,
                    left_table=bad_left, right_table=mod.right_table)


BIMODULES = {
    "I": lambda: module_from_multicategory(I),
    "As2": lambda: module_from_multicategory(AS2),
    "As3": lambda: module_from_multicategory(AS3),
    "Com3": lambda: module_from_multicategory(COM3),
    "As3pos": lambda: module_from_multicategory(AS3P),
    "Reg": lambda: fixture_objects()["bimod:Reg"],
    "seeded-compatibility": seeded_bimodule,
    "seeded-left": seeded_left_bimodule,
}
UNCAPPED = 10 ** 9
RIGHT_SLOT_LAWS = {"right-assoc", "right-parallel", "right-equivariance"}


# ---------------------------------------------------------------------------
# differential tests


def assert_same_law_report(new, ref):
    assert new.violations == ref.violations
    assert list(new.checked.items()) == list(ref.checked.items())
    assert new.to_json() == ref.to_json()


@pytest.mark.parametrize("name", sorted(TABLES) + FIXTURE_TABLES)
def test_multicategory_laws_match_reference(name):
    M = TABLES[name]() if name in TABLES else fixture_objects()[name]
    assert_same_law_report(check_multicategory_laws(M),
                           ref_check_multicategory_laws(M))


def test_corpus_covers_every_outcome():
    # the corpus holds planar and partial tables, law violations and
    # missing cells, so each branch of the pass is compared
    reports = {name: ref_check_multicategory_laws(TABLES[name]())
               for name in ("holed-Com3", "miswired-As3", "hom-As3-End3-2",
                            "free-binary-planar-4-4")}
    assert [law for law, _ in reports["holed-Com3"].violations] == [
        "missing-cell"]
    assert not reports["miswired-As3"].ok
    laws = {law for law, _ in reports["hom-As3-End3-2"].violations}
    assert "missing-cell" in laws
    assert "equivariance-outer" not in reports[
        "free-binary-planar-4-4"].checked


@pytest.mark.parametrize("name", sorted(BIMODULES))
def test_bimodule_laws_match_reference(name):
    # uncapped: a report that reaches the cap may stop at another instance
    # now that the inner equivariance law comes first
    M = BIMODULES[name]()
    new = check_bimodule(M, max_violations=UNCAPPED)
    ref = ref_check_bimodule(M, max_violations=UNCAPPED)
    assert new.ok == ref.ok
    checked = dict(new.checked)
    assert checked.pop("right-equivariance-inner") > 0
    assert checked == ref.checked
    assert ([law for law, _ in new.violations
             if law != "right-equivariance-inner"]
            == [law for law, _ in ref.violations])
    # only the right slot laws changed their witness text
    assert ([v for v in new.violations if v[0] not in RIGHT_SLOT_LAWS
             and v[0] != "right-equivariance-inner"]
            == [v for v in ref.violations if v[0] not in RIGHT_SLOT_LAWS])


# sha256 of the capped reports of the seeded bimodules, as JSON together
# with the order of ``checked``, taken while the left laws and the
# compatibility law looked the actions up on references: (name, cap) ->
# (violations, digest)
CAPPED_REPORTS = {
    ("seeded-compatibility", 1): (
        1,
        "ecd5b568b5dda30e7396ebaa2b227162ef2beb7ed3990ca6c8140031eec45f3d"),
    ("seeded-compatibility", 25): (
        25,
        "1a118bf53035f42f449d8470ea75c03f1afdddfeddb1a504528166c3d56527ae"),
    ("seeded-left", 1): (
        18,
        "edd4775aef7541a2fe220c2f7fd9a9d2ddba9f76aaab085b8187d61e60345420"),
    ("seeded-left", 25): (
        108,
        "a63f7ea30ca45a68ed9f32658785a517687a467d46c36f6378059c13f097ad00"),
}


@pytest.mark.parametrize("name,cap", sorted(CAPPED_REPORTS))
def test_bimodule_law_check_stops_where_it_did(name, cap):
    # the cap is compared between elements for the slot laws, between
    # signatures of the left multicategory for the left laws, and after
    # each compatibility violation
    report = check_bimodule(BIMODULES[name](), max_violations=cap)
    doc = json.dumps([report.to_json(), list(report.checked)])
    assert (len(report.violations),
            hashlib.sha256(doc.encode()).hexdigest()) == CAPPED_REPORTS[
                name, cap]


# ---------------------------------------------------------------------------
# the value lookups against the tables, and the raising compose1


def assert_value_lookup(got, want, ref_of):
    """``got``, a value or None, is None exactly where the reference
    lookup's ``want`` is, and otherwise the value of ``want``; returns
    whether it was None."""
    assert (got is None) == (want is None)
    if got is not None:
        assert ref_of(got) == want
    return got is None


def assert_compose1(Q, p, slot, q, message):
    """``Q.compose1`` raises ``message`` where ``Q.cell`` gives None, and
    otherwise gives the cell's reference; returns whether it was None."""
    got = Q.cell(Q.value(p), slot, Q.value(q))
    if got is None:
        with pytest.raises(StructuralError) as exc:
            Q.compose1(p, slot, q)
        assert str(exc.value) == message
    else:
        assert Q.compose1(p, slot, q) == Q.ref_of(got)
    return got is None


def slot_instances(elems, Q):
    for m in elems:
        for slot, color in enumerate(m[0][0]):
            for qs in Q.signatures():
                if qs[1] == color:
                    for q in Q.ops_at(qs):
                        yield m, slot, (qs, q)


# the inputs where some slot instances have a value and some have none
MIXED = ("holed-Com3", "As2", "As3pos")


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_compose_lookup(name):
    M = TABLES[name]()
    absent = []
    for p, slot, q in slot_instances(list(M.refs()), M):
        absent.append(assert_value_lookup(
            M.cell(M.value(p), slot, M.value(q)),
            lookups.compose(M, p, slot, q), M.ref_of))
        assert assert_compose1(
            M, p, slot, q,
            f"missing composition cell ({sig_key(p[0])}:{p[1]}) o_{slot} "
            f"({sig_key(q[0])}:{q[1]})") == absent[-1]
    if name in MIXED:
        assert any(absent) and not all(absent)


def test_end_view_compose_lookup():
    # a view has a composite exactly where its arity is within the cap
    view = EndView(A2, arity_cap=2)
    refs = [(s, op) for s in view.signatures() for op in view.ops_at(s)]
    absent = []
    for p, slot, q in slot_instances(refs[::7], view):
        arity = len(composed_sig(p[0], slot, q[0])[0])
        for _ in range(2):  # the second call reads the kept composite
            absent.append(assert_compose1(
                view, p, slot, q, f"composite arity {arity} beyond the cap"))
            assert absent[-1] == (arity > 2)
    assert any(absent) and not all(absent)


@pytest.mark.parametrize("name", sorted(BIMODULES))
def test_module_action_lookups(name):
    mod = BIMODULES[name]()
    L, R, num = mod.left, mod.right, mod.collection.numbering
    refs = list(mod.collection.refs())
    absent = [
        assert_value_lookup(
            mod.right_cell(num.number(m), slot, R.value(q)),
            lookups.act_right(mod, m, slot, q), num.refs.__getitem__)
        for m, slot, q in slot_instances(refs, R)]
    if name in MIXED:
        assert any(absent) and not all(absent)
    absent = []
    for p in L.refs():
        pools = [[m for m in refs if m[0][1] == c] for c in p[0][0]]
        for mrefs in product(*pools):
            absent.append(assert_value_lookup(
                mod.left_cell(L.value(p), tuple(map(num.number, mrefs))),
                lookups.act_left(mod, p, mrefs), num.refs.__getitem__))
    if name in MIXED:
        assert any(absent) and not all(absent)


# ---------------------------------------------------------------------------
# the lookups the law checks index


def renumbered(obj):
    # the same object on a collection of its own, so that numbers made
    # here stay out of the shared tables
    return replace(obj, collection=replace(obj.collection))


def outside_bimodule():
    # As2's regular bimodule with a right action leaving the operations:
    # w01 o_0 w01 goes to an arity-3 operation that As2 does not have
    mod = renumbered(module_from_multicategory(AS2))
    s2, s3 = (("x", "x"), "x"), (("x",) * 3, "x")
    right_table = dict(mod.right_table)
    right_table[(s2, "w01"), 0, (s2, "w01")] = (s3, "w012")
    return replace(mod, right_table=right_table)


def assert_answers_like(lookup, rule, num, ops, colors):
    """``lookup`` answers every (number, slot, operation) key as ``rule``
    does, twice, numbers made after the filling included."""
    fresh = [num.number((((c,), c), "fresh")) for c in colors]
    assert not any(p in fresh or q in fresh for p, _, q in lookup)
    keys = [(m, slot, q) for m in range(len(num.refs))
            for slot in range(len(num.sigs[m][0])) for q in ops]
    want = [rule(*key) for key in keys]
    assert [lookup[key] for key in keys] == want
    assert [lookup[key] for key in keys] == want  # kept answers
    return fresh


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_lookup_answers_like_cell(name):
    M = renumbered(TABLES[name]())
    num = M.collection.numbering
    lookup = CellLookup(M.numbered_cells(), M.cell)
    ops = list(num.ops)
    ops += assert_answers_like(lookup, M.cell, num, ops, M.colors)
    # fresh numbers as arguments too, where only the unit rule answers
    assert_answers_like(lookup, M.cell, num, ops, ())


@pytest.mark.parametrize("name", sorted(BIMODULES) + ["outside"])
def test_right_action_lookup_answers_like_right_cell(name):
    mod = outside_bimodule() if name == "outside" else renumbered(
        BIMODULES[name]())
    num = mod.collection.numbering
    lookup = CellLookup(mod._right_cells, mod.right_cell)
    if name == "outside":
        assert len(num.refs) > len(num.ops)
    assert_answers_like(lookup, mod.right_cell, num,
                        mod.right.collection.numbering.ops, mod.right.colors)


# a row of a regular bimodule sent off the composed signature: (key,
# composed result, new result).  On the two isomorphic colors the new
# result keeps the arity, so no law lookup fails on it; on As2 the arity
# changes, so left-equivariance would meet an action entry that is not
# there ("no action entry for w0 at x;x under (0, 1)")
OFF_SIGNATURE_ROWS = {
    "two-colors": (indiscrete_pair(), (((("b",), "a"), "f"),
                                       ((((("a",), "b"), "f"),))),
                   ((("a",), "a"), "f"), ((("b",), "a"), "f")),
    "As2": (AS2, (((("x", "x"), "x"), "w01"),
                  (((("x",), "x"), "w0"), ((("x",), "x"), "w0"))),
            ((("x", "x"), "x"), "w01"), ((("x",), "x"), "w0")),
}


@pytest.mark.parametrize("name", sorted(OFF_SIGNATURE_ROWS))
def test_left_action_off_the_composed_signature_is_refused(name):
    P, key, composed, off = OFF_SIGNATURE_ROWS[name]
    mod = renumbered(module_from_multicategory(P))
    assert mod.left_table[key] == composed
    bad = replace(mod, left_table={**mod.left_table, key: off})
    with pytest.raises(MulticatError) as exc:
        check_bimodule(bad, max_violations=UNCAPPED)
    assert str(exc.value) == (f"left action {key[0]} on {key[1]} gives "
                              f"{off}, off the composed signature")
