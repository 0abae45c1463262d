"""Numbered circle layers and the bar levels built on them, against the
nested-tuple route they replaced, and the simplicial identities checked on
positions against the check on labels.

The reference below is the earlier code, kept whole: circle layers held
nested ``('circ', root, blocks)`` tuples, every face and degeneracy
re-walked the level element from its root, and the face and degeneracy
tables were dicts keyed by the simplices themselves."""

import json
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import pytest

import lookups
from multicat import dsl, jsonio, perms
from multicat.bimodules import (Bimodule, _block_order, bar_complex,
                                hochschild, hochschild_comparison,
                                module_from_multicategory)
from multicat.core import FiniteCollection, LawReport, nerve, sig_key
from multicat.errors import StructuralError
from multicat.presents import UnionFind
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               unit_multicategory)
from multicat.trees import (base_layer, canonical_circle, circle_layer,
                            circle_product, elem_text, renumber_blocks,
                            shuffles)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# the reference: nested circle elements


class RefLayeredSet:
    def __init__(self, by_sig, act_fn):
        self.by_sig = {s: tuple(sorted(v)) for s, v in by_sig.items() if v}
        self._act = act_fn

    def signatures(self):
        return sorted(self.by_sig, key=sig_key)

    def elements(self, s):
        return self.by_sig.get(s, ())

    def act(self, elem, p):
        if p == perms.identity(len(p)):
            return elem
        return self._act(elem, p)


def ref_base_layer(coll):
    by_sig = {s: [("op", s, op) for op in coll.ops_at(s)]
              for s in coll.signatures()}

    def act(elem, p):
        _, s, op = elem
        ns, nop = coll.act((s, op), p)
        return ("op", ns, nop)

    return RefLayeredSet(by_sig, act)


def ref_elem_signature(elem):
    if elem[0] == "op":
        return elem[1]
    _, root, blocks = elem
    out = ref_elem_signature(root)[1]
    n = sum(len(S) for S, _ in blocks)
    inputs = [None] * n
    for (S, child) in blocks:
        child_sig = ref_elem_signature(child)
        for local, pos in enumerate(sorted(S)):
            inputs[pos] = child_sig[0][local]
    return (tuple(inputs), out)


def ref_circle_layer(m_coll, n_layer, max_arity):
    by_sig = {}
    for ms in m_coll.signatures():
        for n in range(max_arity + 1):
            for blocks_pos in shuffles(n, len(ms[0])):
                pools = [[e for cs in n_layer.signatures()
                          if cs[1] == out and len(cs[0]) == len(S)
                          for e in n_layer.elements(cs)]
                         for S, out in zip(blocks_pos, ms[0])]
                for op in m_coll.ops_at(ms):
                    for combo in product(*pools):
                        e = canonical_circle(
                            ("op", ms, op), tuple(zip(blocks_pos, combo)),
                            m_coll)
                        by_sig.setdefault(ref_elem_signature(e),
                                          set()).add(e)

    def act(elem, p):
        _, root, blocks = elem
        return canonical_circle(
            root, tuple((S, n_layer.act(child, rho))
                        for S, rho, child in renumber_blocks(blocks, p)),
            m_coll)

    return RefLayeredSet(by_sig, act)


def ref_layered_to_collection(layer):
    ops = {}
    decode = {}
    for s in layer.signatures():
        ids = []
        for e in layer.elements(s):
            eid = elem_text(e)
            ids.append(eid)
            decode[s, eid] = e
        ops[s] = tuple(sorted(ids))
    colors = set()
    for s in ops:
        colors |= set(s[0]) | {s[1]}
    action = {}
    for s in ops:
        n = len(s[0])
        for p in perms.all_perms(n):
            action[s, p] = {
                eid: elem_text(layer.act(decode[s, eid], p))
                for eid in ops[s]}
    return FiniteCollection(tuple(sorted(colors)), ops, action), decode


def ref_circle_product(m_coll, n_coll, max_arity=3):
    layer = ref_circle_layer(m_coll, ref_base_layer(n_coll), max_arity)
    return ref_layered_to_collection(layer)


def ref_reposition(blocks):
    out = []
    for S, child in blocks:
        mapping = sorted(S)
        _, _, subblocks = child
        for S2, grand in subblocks:
            out.append((tuple(mapping[t] for t in sorted(S2)), grand))
    return tuple(out)


@dataclass(frozen=True)
class RefSimplicial:
    """Simplices as labels, face and degeneracy tables as dicts keyed by
    them: (k, i) -> {simplex: its image in the adjacent level}."""

    depth: int
    levels: tuple
    faces: dict
    degeneracies: dict

    def check_identities(self):
        report = LawReport()
        d, s = self.faces, self.degeneracies
        for k in range(2, self.depth + 1):
            for j in range(k + 1):
                for i in range(j):
                    for x in self.levels[k]:
                        report.note("dd")
                        if d[k - 1, i][d[k, j][x]] != d[k - 1, j - 1][d[k, i][x]]:
                            report.fail("dd", f"level {k} d_{i} d_{j} at {x}")
        for k in range(self.depth - 1):
            for i in range(k + 1):
                for j in range(i, k + 1):
                    for x in self.levels[k]:
                        report.note("ss")
                        if s[k + 1, i][s[k, j][x]] != s[k + 1, j + 1][s[k, i][x]]:
                            report.fail("ss", f"level {k} s_{i} s_{j} at {x}")
        for k in range(1, self.depth):
            for j in range(k + 1):
                for i in range(k + 2):
                    for x in self.levels[k]:
                        report.note("ds")
                        got = d[k + 1, i][s[k, j][x]]
                        if i < j:
                            want = s[k - 1, j - 1][d[k, i][x]]
                        elif i in (j, j + 1):
                            want = x
                        else:
                            want = s[k - 1, j][d[k, i - 1][x]]
                        if got != want:
                            report.fail("ds", f"level {k} d_{i} s_{j} at {x}")
        return report


def ref_simplicial_json(S):
    return {
        "schema": jsonio.SCHEMA,
        "kind": "simplicial",
        "depth": S.depth,
        "levels": [sorted(str(x) for x in level) for level in S.levels],
        "faces": {
            f"d_{i}@{k}": {str(x): str(y) for x, y in sorted(
                table.items(), key=lambda kv: str(kv[0]))}
            for (k, i), table in sorted(S.faces.items())},
        "degeneracies": {
            f"s_{j}@{k}": {str(x): str(y) for x, y in sorted(
                table.items(), key=lambda kv: str(kv[0]))}
            for (k, j), table in sorted(S.degeneracies.items())},
    }


@dataclass
class RefBar:
    simplicial: RefSimplicial
    augmentation: dict
    basepoint: dict = field(default_factory=dict)

    def check_identities(self):
        return self.simplicial.check_identities()


def decoded(S):
    """The position tables of S written out as label dicts."""
    L = S.levels
    return RefSimplicial(
        depth=S.depth, levels=L,
        faces={(k, i): {x: L[k - 1][m] for x, m in zip(L[k], t)}
               for (k, i), t in S.faces.items()},
        degeneracies={(k, j): {x: L[k + 1][m] for x, m in zip(L[k], t)}
                      for (k, j), t in S.degeneracies.items()})


def ref_bar_complex(X, P, Y, n_max=3, max_arity=2):
    towers = [ref_base_layer(Y.collection)]
    for _ in range(n_max):
        towers.append(ref_circle_layer(P.collection, towers[-1], max_arity))
    levels = [ref_circle_layer(X.collection, towers[n], max_arity)
              for n in range(n_max + 1)]

    # the actions and composites read off the tables, raising where the
    # tables have none

    def x_act1(mref, slot, qref):
        got = lookups.act_right(X, mref, slot, qref)
        if got is None:
            raise StructuralError(
                f"missing right action {mref} o_{slot} {qref}")
        return got

    def p_compose1(pref, slot, qref):
        got = lookups.compose(P, pref, slot, qref)
        if got is None:
            raise StructuralError(
                f"missing composition cell ({sig_key(pref[0])}:{pref[1]}) "
                f"o_{slot} ({sig_key(qref[0])}:{qref[1]})")
        return got

    def x_act(root_elem, p_elems):
        rs, rop = lookups.gamma(x_act1, (root_elem[1], root_elem[2]),
                                [(e[1], e[2]) for e in p_elems])
        return ("op", rs, rop)

    def p_act(root_elem, p_elems):
        rs, rop = lookups.gamma(p_compose1, (root_elem[1], root_elem[2]),
                                [(e[1], e[2]) for e in p_elems])
        return ("op", rs, rop)

    def y_merge(elem):
        _, root, blocks = elem
        mrefs = [(c[1], c[2]) for _, c in blocks]
        got = lookups.act_left(Y, (root[1], root[2]), mrefs)
        if got is None:
            raise StructuralError(
                f"missing left action {(root[1], root[2])} on {mrefs}")
        rs, rop = perms.unshuffle(Y.collection.act, got,
                                  _block_order(blocks))
        return ("op", rs, rop)

    def merge_head(elem, act, coll):
        _, root, blocks = elem
        new_root = act(root, [child[1] for _, child in blocks])
        return canonical_circle(new_root, ref_reposition(blocks), coll)

    def face_at(elem, i, n):
        if i == 0:
            return merge_head(elem, x_act, X.collection)

        def descend(e, depth):
            if depth == i:
                if i == n:
                    return y_merge(e)
                return merge_head(e, p_act, P.collection)
            _, r, bs = e
            new_bs = tuple((S, descend(child, depth + 1)) for S, child in bs)
            return canonical_circle(r, new_bs, P.collection)

        _, root, blocks = elem
        new_blocks = tuple((S, descend(child, 1)) for S, child in blocks)
        return canonical_circle(root, new_blocks, X.collection)

    def elem_out(e):
        if e[0] == "op":
            return e[1][1]
        return elem_out(e[1])

    def elem_arity(e):
        if e[0] == "op":
            return len(e[1][0])
        _, _, bs = e
        return sum(len(S) for S, _ in bs)

    def wrap_unit(e):
        unit = P.unit_ref(elem_out(e))
        positions = tuple(range(elem_arity(e)))
        return ("circ", ("op",) + unit, ((positions, e),))

    def degeneracy_at(elem, j, n):
        def descend(e, depth, coll):
            _, r, bs = e
            if depth == j:
                new_bs = tuple((S, wrap_unit(child)) for S, child in bs)
            else:
                new_bs = tuple((S, descend(child, depth + 1, P.collection))
                               for S, child in bs)
            return canonical_circle(r, new_bs, coll)

        return descend(elem, 0, X.collection)

    level_elems = []
    for n in range(n_max + 1):
        elems = []
        for s in levels[n].signatures():
            elems.extend(levels[n].elements(s))
        level_elems.append(tuple(sorted(elems)))

    faces = {}
    for n in range(1, n_max + 1):
        for i in range(n + 1):
            faces[n, i] = {e: face_at(e, i, n) for e in level_elems[n]}
    degeneracies = {}
    for n in range(n_max):
        for j in range(n + 1):
            degeneracies[n, j] = {e: degeneracy_at(e, j, n)
                                  for e in level_elems[n]}

    simplicial = RefSimplicial(
        depth=n_max, levels=tuple(level_elems),
        faces=faces, degeneracies=degeneracies)

    uf = UnionFind(list(level_elems[0]))
    if n_max >= 1:
        for e in level_elems[1]:
            uf.union(faces[1, 0][e], faces[1, 1][e])
    augmentation = {}
    for root, members in uf.classes().items():
        rep = min(members)
        for m in members:
            augmentation[m] = rep

    return RefBar(simplicial=simplicial, augmentation=augmentation)


def ref_hochschild(P, n_max=3, max_arity=2):
    mod = module_from_multicategory(P, max_arity=max_arity)
    bar = ref_bar_complex(mod, P, mod, n_max=n_max, max_arity=max_arity)
    basepoint = {}
    for e in bar.simplicial.levels[0]:
        cur = e
        basepoint[0, e] = cur
        for n in range(n_max):
            cur = bar.simplicial.degeneracies[n, 0][cur]
            basepoint[n + 1, e] = cur
    bar.basepoint = basepoint
    return bar


# ---------------------------------------------------------------------------
# inputs

def load(name):
    ast, _ = dsl.parse((FIXTURES / name).read_text())
    return dsl.elaborate(ast)[0]


AS3P = assoc_multicategory(3, include_nullary=False)
AS2P = assoc_multicategory(2, include_nullary=False)
I = unit_multicategory()
COM3 = comm_multicategory(3)

HOCHSCHILD = {
    "as3pos-4-3": (AS3P, 4, 3),
    "as2pos-6-2": (AS2P, 6, 2),
    "com3-0-3": (COM3, 0, 3),
    "i-3-2": (I, 3, 2),
}


def collapsed_left_module(P, max_arity):
    """The regular module of P with each left action value replaced by the
    least operation of its signature: a left action that is not P's
    composition, so the top face of the bar differs from a P merge."""
    mod = module_from_multicategory(P, max_arity=max_arity)
    ops = mod.collection.ops
    left = {k: (s, min(ops[s])) for k, (s, _) in mod.left_table.items()}
    return Bimodule(left=P, right=P, collection=mod.collection,
                    left_table=left, right_table=mod.right_table,
                    name="collapsed")


def assert_same_report(new, ref):
    assert new.violations == ref.violations
    assert list(new.checked.items()) == list(ref.checked.items())
    assert new.to_json() == ref.to_json()


def assert_same_simplicial(S, R):
    """Positions S against label dicts R: levels, every table with its key
    order, the identities report and the JSON, with their orders."""
    assert S.depth == R.depth
    assert S.levels == R.levels
    for table in (*S.faces.values(), *S.degeneracies.values()):
        assert type(table) is tuple
        assert all(type(m) is int for m in table)
    D = decoded(S)
    for got, want in ((D.faces, R.faces), (D.degeneracies, R.degeneracies)):
        assert ([(key, list(t.items())) for key, t in got.items()]
                == [(key, list(t.items())) for key, t in want.items()])
    assert_same_report(S.check_identities(), R.check_identities())
    assert (json.dumps(jsonio.simplicial_json(S))
            == json.dumps(ref_simplicial_json(R)))


def assert_same_bar(new, ref):
    assert_same_simplicial(new.simplicial, ref.simplicial)
    assert list(new.augmentation.items()) == list(ref.augmentation.items())
    assert list(new.basepoint.items()) == list(ref.basepoint.items())


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("key", sorted(HOCHSCHILD))
def test_hochschild_matches_reference(key):
    P, n_max, cap = HOCHSCHILD[key]
    new, ref = hochschild(P, n_max, cap), ref_hochschild(P, n_max, cap)
    assert_same_bar(new, ref)
    assert hochschild_comparison(P, new) == hochschild_comparison(P, ref)


def test_bar_on_dsl_bimodule_matches_reference():
    objs = load("bimod.mcat")
    X, P = objs["Reg"], objs["As2pos"]
    assert_same_bar(bar_on_reg(), ref_bar_complex(X, P, X, 3, 2))


def test_bar_with_foreign_left_action_matches_reference():
    Y = collapsed_left_module(AS3P, 3)
    X = module_from_multicategory(AS3P, max_arity=3)
    new = bar_complex(X, AS3P, Y, 3, 3)
    assert_same_bar(new, ref_bar_complex(X, AS3P, Y, 3, 3))
    # the top face reads Y, not P: the collapsed action shows in it
    plain = bar_complex(X, AS3P, X, 3, 3)
    assert new.simplicial.faces[2, 2] != plain.simplicial.faces[2, 2]


@pytest.mark.parametrize("name,file", [("As2", "as2.mcat"),
                                       ("Com2", "com2.mcat"),
                                       ("As3", "as3.mcat")])
def test_level_one_failure_matches_reference(name, file):
    P = load(file)[name]
    with pytest.raises(StructuralError) as ref:
        ref_hochschild(P, 1, 2)
    with pytest.raises(StructuralError) as new:
        hochschild(P, 1, 2)
    assert str(new.value) == str(ref.value)
    assert "missing right action" in str(new.value)


def _same_collection(new, ref):
    (nc, nd), (rc, rd) = new, ref
    assert nc.colors == rc.colors
    assert list(nc.ops.items()) == list(rc.ops.items())
    assert ([(k, list(v.items())) for k, v in nc.action.items()]
            == [(k, list(v.items())) for k, v in rc.action.items()])
    assert list(nd.items()) == list(rd.items())


def test_circle_products_match_reference():
    adj = load("adjunction.mcat")
    com2, as2 = adj["Com2"].collection, adj["As2"].collection
    for m, n, cap in [(com2, as2, 3), (as2, com2, 4),
                      (I.collection, com2, 3), (as2, as2, 3)]:
        _same_collection(circle_product(m, n, cap),
                         ref_circle_product(m, n, cap))
    c1, _ = circle_product(AS2P.collection, AS2P.collection, 2)
    _same_collection(circle_product(c1, AS2P.collection, 2),
                     ref_circle_product(c1, AS2P.collection, 2))
    _same_collection(circle_product(AS2P.collection, c1, 2),
                     ref_circle_product(AS2P.collection, c1, 2))


def test_layers_are_sorted_and_numbered():
    tower = [base_layer(AS3P.collection)]
    for _ in range(3):
        tower.append(circle_layer(AS3P.collection, tower[-1], 3))
    layers = tower + [circle_layer(COM3.collection, t, 3) for t in tower]
    for layer in layers:
        assert layer.elems == sorted(layer.elems)
        assert layer.nested == sorted(layer.nested)
        assert all(layer.number[e] == i for i, e in enumerate(layer.elems))
        assert len(layer.number) == len(layer.elems)
        assert layer.sigs == [ref_elem_signature(e) for e in layer.nested]
        for (out, n), nums in layer.shapes.items():
            assert all(layer.sigs[i][1] == out and len(layer.sigs[i][0]) == n
                       for i in nums)


# ---------------------------------------------------------------------------
# the identities check on positions against the check on labels

def bar_on_reg():
    objs = load("bimod.mcat")
    return bar_complex(objs["Reg"], objs["As2pos"], objs["Reg"], 3, 2)


CHECK_INPUTS = {
    "hochschild-as3pos-5-3": lambda: hochschild(AS3P, 5, 3).simplicial,
    "hochschild-as2pos-6-2": lambda: hochschild(AS2P, 6, 2).simplicial,
    "hochschild-i-3-2": lambda: hochschild(I, 3, 2).simplicial,
    "bar-reg-3-2": lambda: bar_on_reg().simplicial,
    "nerve-pair-3": lambda: nerve(load("twocolor.mcat")["Pair"], 3),
}


@pytest.mark.parametrize("key", sorted(CHECK_INPUTS))
def test_check_on_positions_matches_label_check(key):
    S = CHECK_INPUTS[key]()
    assert S.check_identities().ok
    assert_same_simplicial(S, decoded(S))


def redirected(S, tables, key, n):
    """S with entry n of one table moved to the next simplex of its
    level."""
    table = getattr(S, tables)[key]
    k = key[0] - 1 if tables == "faces" else key[0] + 1
    moved = table[:n] + ((table[n] + 1) % len(S.levels[k]),) + table[n + 1:]
    return replace(S, **{tables: {**getattr(S, tables), key: moved}})


@pytest.mark.parametrize("key", ["hochschild-as2pos-6-2", "nerve-pair-3"])
def test_corrupted_tables_give_the_label_violations(key):
    S = CHECK_INPUTS[key]()
    laws = set()
    for bad in (redirected(S, "faces", (2, 1), 0),
                redirected(S, "degeneracies", (1, 0), 0)):
        report = bad.check_identities()
        assert not report.ok
        assert_same_report(report, decoded(bad).check_identities())
        assert (json.dumps(jsonio.simplicial_json(bad))
                == json.dumps(ref_simplicial_json(decoded(bad))))
        laws |= {law for law, _ in report.violations}
    assert laws == {"dd", "ss", "ds"}
