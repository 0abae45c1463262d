"""`core.tabulate` and the builders that fill their tables through it.

Each builder's JSON export is pinned by the sha256 digest of
`jsonio.dumps` taken from the hand-written loops that `tabulate`
replaced, so a change to the shared loop that alters any table, action
or composition cell shows up here byte for byte.

`ref_tabulate` is the earlier `tabulate`, which gave every element, image
and composite its text anew; `test_tabulate_matches_reference` runs
every table constructor with each of its `tabulate` calls made by both and
compared.
"""

import hashlib
import sys

import pytest

from multicat import (algebras, bimodules, core, dsl, homcalc, jsonio,
                      perms, presents, standard, trees)
from multicat.algebras import (EndView, ObjectFamily, end_multicategory,
                               end_of_map, op_algebra_to_operad,
                               operad_to_op_algebra)
from multicat.bimodules import (analyze_pointed, end_right_module,
                                module_from_multicategory)
from multicat.core import (FiniteCollection, TableMulticategory,
                           check_multicategory_laws, tabulate)
from multicat.homcalc import internal_hom
from multicat.presents import arrow_multicategory, bv_tensor, saturate
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               discrete_pair, indiscrete_pair,
                               unit_multicategory)
from multicat.trees import build_tree_multicategory, free_multicategory

A2 = ObjectFamily({"x": ("a", "b")})
A3 = ObjectFamily({"x": ("a", "b", "c")})
MAPS = {
    "bijection": ({"x": {"a": "b", "b": "a"}}, A2),
    "constant": ({"x": {"a": "a", "b": "a"}}, A2),
    "into3": ({"x": {"a": "a", "b": "c"}}, A3),
}

DIGESTS = {
    "free-sym-4-4":
        "cffb54ff0163dbf34c66840fdf332357065c5bd166ecb8641766d83d03e84910",
    "free-planar-4-4":
        "1216b9e7216911d234a5bf0bf71c32e5cd93ab0fb16c9407d61b50e8511d1ae6",
    "trees-2-2":
        "f9a9b6b3c9a123eb32b219f689c1bafd1a216594d3f6ac5bbce0453e45c9564e",
    "trees-3-2":
        "3491f3e924c36358e7c566668609525cf69ae078da8c05eb2492d99f7f2ddf29",
    "saturate-magma-4-4":
        "9951a04294dbaf3a317442b7bcfc54bc3887b966343f6965f1d018cda7592663",
    "saturate-magma-4-4-report":
        "f15065a18c919afc404b15e4e6ff545d4f84d90dd06e15c54d927147cec51e52",
    "hom-com3-end3":
        "365614b957386a1b9f5882589aa1a9987afb9ae85db8d1799c3e638b89975e04",
    "end-a2-2":
        "3cdc508cf5aa0bd8ad16030684ec4720efb46080cffc6b387fc2074d5f2b3621",
    "end-of-map-bijection-2":
        "74b6c85623daed60482973bf785a79bd1b0142982265ab44120bc769c7aa4bdd",
    "end-of-map-constant-2":
        "b294c677168ab5058095ffe47fcd416edf090cfa397955c9dedfe22bbdac8349",
    "end-of-map-into3-2":
        "a563acedca6d2d424fe11ac95f549c734a4d39e98b3f9cff78f0b09604b0d352",
    "end-right-module-reg":
        "a2ad5edc6b43edc1295662cbc9569492b75ec60d979ae360cf6b974b15882b26",
    "assoc-2":
        "5b4b072c5d1a3a7c94d6a58eaee836a763290cf8e117456d251188473e680cf7",
    "assoc-3":
        "0b8ac001e34acc99705aa8844343842b6830f6cd11bbb888f2d7ddaefc891453",
    "assoc-4":
        "59bf695eb184b2818407c9e6c7c60764e8759bc3d793681c884539e5a6a926a9",
    "assoc-pos-2":
        "60b9a2e64078317519e81d4920e04a33c7b6ea106c253ab5d3b3c56eddabafe7",
    "assoc-pos-3":
        "b7c4c3ba3b2bbf96fd8538cc32ce655416783ed182d032e19f814f896df994e7",
    "assoc-pos-4":
        "0b955114310cc6962892e52963eb66ebec44a972616b534b6b8a4f7c58aef5cd",
    "comm-2":
        "49770fb31523aa93dc51630922ac6a87f65e4bdc018336ac6d4fda7c8263e789",
    "comm-3":
        "1d4f48552e5cdbc3fcdae61bc9785f2d8f03ec34f1b48e2fa20038cfc388ab95",
    "comm-4":
        "2cf30f4b3ae8e9c636c1043e6e176daf21501095a8d90bfe89b627585fcf5f40",
    "arrow-com2-2":
        "61d4574caaba939dab7132137d692a87751f22e3839cf5e8c731bcd0714c681f",
    "unit-u":
        "577b3ff7987976b1f5d250df23fd9fd97376ae5ee53dd3a7d72b21e7b7d7de7f",
    "unit-x":
        "03b6f0807ee4cf9d405357504795af4d020e46ca5fda9e7760ae0e23de29b264",
    "indiscrete-ab":
        "332144927e335e7659921e567783a8d6b0e1ddecfafada1cb88a03490ca39d58",
    "indiscrete-qpr":
        "047d1460eafd1dd7a6aa1bccf2bac96039eb427b702a998be380d3d6b57bd3b0",
    "discrete-ab":
        "dc946860c938e70c3c2b58ad8b76a35f947bc6c3cd36c60e195fad4bebd46dec",
    "discrete-yx":
        "3f93d1042c1e0d15fc885131ce65fb61a3194645ededf7406313cec2ca2ce406",
}


def digest(obj):
    return hashlib.sha256(jsonio.dumps(obj).encode()).hexdigest()


@pytest.fixture(scope="module")
def objects(docs_dir):
    out = {}
    for name in ("magma", "com2", "com3", "bimod"):
        ast, diags = dsl.parse((docs_dir / f"{name}.mcat").read_text())
        objs, more = dsl.elaborate(ast)
        assert not diags and not more
        out.update(objs)
    return out


@pytest.mark.parametrize("symmetric", [True, False])
def test_free_binary(objects, symmetric):
    table, report = free_multicategory(objects["Binary"], symmetric, 4, 4)
    key = "free-sym-4-4" if symmetric else "free-planar-4-4"
    assert digest(table) == DIGESTS[key]
    assert (report.complete, report.escapes, report.term_count) == (
        (True, 0, 20) if symmetric else (True, 0, 9))


@pytest.mark.parametrize("caps,trees", [((2, 2), 25), ((3, 2), 115)])
def test_tree_multicategory(caps, trees):
    table, structure = build_tree_multicategory(*caps)
    assert digest(table) == DIGESTS[f"trees-{caps[0]}-{caps[1]}"]
    assert len(structure) == trees
    assert not table.complete


def test_saturate_magma(objects):
    sat = saturate(objects["Magma"], 4, 4)
    assert digest(sat.table) == DIGESTS["saturate-magma-4-4"]
    assert digest(sat.report) == DIGESTS["saturate-magma-4-4-report"]
    assert set(sat.structure) == {(s, op) for s, op in sat.table.refs()}


def test_internal_hom(objects):
    hom = internal_hom(objects["Com3"], EndView(A2, arity_cap=3), 2)
    assert digest(hom.table) == DIGESTS["hom-com3-end3"]
    assert len(hom.knats) == 540


def test_end_multicategory():
    assert digest(end_multicategory(A2, 2)) == DIGESTS["end-a2-2"]


@pytest.mark.parametrize("kind", sorted(MAPS))
def test_end_of_map(kind):
    f, target = MAPS[kind]
    table, projA, projB = end_of_map(f, A2, target, arity_cap=2)
    assert digest(table) == DIGESTS[f"end-of-map-{kind}-2"]
    for s, pid in list(table.refs())[:50]:
        assert pid == (f"<{projA.op_maps[s][pid]},"
                       f"{projB.op_maps[s][pid]}>")


def test_end_right_module(objects):
    table, homs = end_right_module(objects["Reg"])
    assert digest(table) == DIGESTS["end-right-module-reg"]
    assert len(homs) == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_standard_families(n):
    assert digest(assoc_multicategory(n)) == DIGESTS[f"assoc-{n}"]
    assert digest(assoc_multicategory(n, include_nullary=False)) == (
        DIGESTS[f"assoc-pos-{n}"])
    assert digest(comm_multicategory(n)) == DIGESTS[f"comm-{n}"]


def test_arrow(objects):
    table = arrow_multicategory(objects["Com2"], 2)
    assert digest(table) == DIGESTS["arrow-com2-2"]


# the one-operation-per-unary-signature tables: (builder, arguments,
# colors in the order given)
UNARY = {
    "unit-u": (unit_multicategory, (), ("u",)),
    "unit-x": (unit_multicategory, ("x",), ("x",)),
    "indiscrete-ab": (indiscrete_pair, (), ("a", "b")),
    "indiscrete-qpr": (indiscrete_pair, (("q", "p", "r"),), ("q", "p", "r")),
    "discrete-ab": (discrete_pair, (), ("a", "b")),
    "discrete-yx": (discrete_pair, (("y", "x"),), ("y", "x")),
}


@pytest.mark.parametrize("name", sorted(UNARY))
def test_unary_tables(name):
    build, args, colors = UNARY[name]
    M = build(*args)
    assert M.colors == colors and M.complete
    assert check_multicategory_laws(M).ok
    assert digest(M) == DIGESTS[name]


# ---------------------------------------------------------------------------
# the escape and completeness rule


def _comm_model(cap, limit):
    """One operation per arity up to cap; composites above `limit` are
    reported as escapes."""
    return tabulate(
        ("x",), {(("x",) * n, "x"): [n] for n in range(cap + 1)},
        {"x": 1}, lambda n: f"m{n}", lambda s, n, p: n,
        lambda s, n, i, qs, m: None if n + m - 1 > limit else n + m - 1,
        arity_cap=cap)


def test_capped_cells_are_not_escapes():
    table, structure, escapes = _comm_model(3, 3)
    assert escapes == 0 and table.complete
    assert table.comp == comm_multicategory(3).comp
    assert structure[(("x", "x"), "x"), "m2"] == 2


def test_escapes_mark_the_table_partial():
    table, _, escapes = _comm_model(3, 2)
    # the cells with n + m - 1 == 3, one per slot of the n-ary operation:
    # (n, m) = (1, 3), (2, 2), (3, 1)
    assert escapes == 1 + 2 + 3
    assert not table.complete
    assert all(int(r[1:]) <= 2 for r in table.comp.values())
    assert check_multicategory_laws(table).ok


def test_planar_tables_carry_only_identities():
    table, _, _ = tabulate(
        ("x",), {(("x",) * 2, "x"): ["ab", "ba"]}, {"x": "a"}, str,
        lambda s, w, p: w[::-1], lambda *args: None, symmetric=False)
    assert set(table.collection.action) == {((("x", "x"), "x"), (0, 1))}
    assert not table.symmetric


def test_comp_rows_sort_as_their_json_text():
    # the export sorts composition rows by their JSON text; the key is
    # written out by hand, so it is checked against json.dumps on ids
    # that need escaping and on slots whose text orders 10 before 1
    import json

    ids = ["w", 'q"1', "a\\b", "é", "f:a|b", ""]
    rows = [{"at": at, "op": op, "slot": slot, "arg_at": "x;x",
             "arg": arg, "result": op}
            for at in ("x,x;x", "x;x") for op in ids for arg in ids[:3]
            for slot in (0, 1, 10, 2)]
    assert [jsonio._comp_row_key(row) for row in rows] == [
        json.dumps(row, sort_keys=True) for row in rows]


# ---------------------------------------------------------------------------
# the earlier tabulate, as a reference


def ref_tabulate(colors, elements, units, text, act, compose, arity_cap=None,
                 symmetric=True, name=""):
    """`core.tabulate` as it was before elements were named once: `text`
    runs on every element, image and composite, and elements need not be
    hashable."""
    structure = {}
    ops = {}
    by_out = {}
    for s, elems in elements.items():
        ids = []
        for e in elems:
            tid = text(e)
            ids.append(tid)
            structure[s, tid] = e
        if ids:
            ops[s] = tuple(sorted(ids))
            by_out.setdefault(s[1], []).append(s)

    action = {}
    for s, ids in ops.items():
        n = len(s[0])
        for p in perms.all_perms(n) if symmetric else [perms.identity(n)]:
            action[s, p] = {tid: text(act(s, structure[s, tid], p))
                            for tid in ids}

    comp = {}
    escapes = 0
    for s, ids in ops.items():
        for slot, color in enumerate(s[0]):
            for qs in by_out.get(color, ()):
                if (arity_cap is not None
                        and len(s[0]) + len(qs[0]) - 1 > arity_cap):
                    continue
                for tid in ids:
                    e = structure[s, tid]
                    for qid in ops[qs]:
                        got = compose(s, e, slot, qs, structure[qs, qid])
                        if got is None:
                            escapes += 1
                        else:
                            comp[s, tid, slot, qs, qid] = text(got)

    table = TableMulticategory(
        collection=FiniteCollection(tuple(colors), ops, action),
        units={c: text(u) for c, u in units.items()}, comp=comp,
        complete=(escapes == 0), name=name, symmetric=symmetric)
    return table, structure, escapes


def _pair():
    from pathlib import Path

    text = (Path(__file__).parent.parent / "fixtures" / "twocolor.mcat"
            ).read_text()
    return dsl.elaborate(dsl.parse(text)[0])[0]["Pair"]


def _read_off():
    T, struct = build_tree_multicategory(max_arity=3, max_vertices=2)
    alg = operad_to_op_algebra(assoc_multicategory(3), T, struct, 3)
    return op_algebra_to_operad(alg, max_arity=3)


def _saturate_references(objects):
    import test_saturate

    return (test_saturate.ref_saturate(objects["Magma"], 4, 4),
            test_saturate.ref_free_multicategory(objects["Binary"], 3, 3))


# every caller of tabulate, in the package and in the tests' references:
# name -> a function of the objects fixture that calls it
CALLERS = {
    "end_multicategory": lambda o: end_multicategory(A2, 2),
    **{f"end_of_map-{kind}": (lambda o, kind=kind: end_of_map(
        MAPS[kind][0], A2, MAPS[kind][1], arity_cap=2)) for kind in MAPS},
    "internal_hom-Com3": lambda o: internal_hom(
        o["Com3"], EndView(A2, arity_cap=3), 2),
    "internal_hom-As3": lambda o: internal_hom(
        assoc_multicategory(3), EndView(A2, arity_cap=3), 2),
    "internal_hom-As2-Com2": lambda o: internal_hom(
        assoc_multicategory(2), comm_multicategory(2), 2),
    "internal_hom-Pair": lambda o: internal_hom(_pair(), _pair(), 2),
    "end_right_module-Reg": lambda o: end_right_module(o["Reg"]),
    "analyze_pointed-As3pos": lambda o: analyze_pointed(
        module_from_multicategory(
            assoc_multicategory(3, include_nullary=False))),
    "read-off": lambda o: _read_off(),
    "standard": lambda o: [assoc_multicategory(3), comm_multicategory(3),
                           assoc_multicategory(3, include_nullary=False),
                           unit_multicategory(), indiscrete_pair(),
                           discrete_pair()],
    "free-planar": lambda o: free_multicategory(o["Binary"], False, 4, 4),
    "saturate": lambda o: saturate(o["Magma"], 4, 4),
    "bv_tensor": lambda o: bv_tensor(comm_multicategory(2),
                                     assoc_multicategory(2), 3, 3),
    "comm-model": lambda o: _comm_model(3, 2),
    "test_saturate-references": _saturate_references,
}


def _rows(table):
    coll = table.collection
    return (coll.colors, list(coll.ops.items()),
            [(k, list(v.items())) for k, v in coll.action.items()],
            list(table.units.items()), list(table.comp.items()),
            table.complete, table.name, table.symmetric, digest(table))


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_tabulate_matches_reference(caller, objects, monkeypatch):
    calls = []

    def both(colors, elements, *args, **kwargs):
        elements = {s: list(es) for s, es in elements.items()}
        got = core.tabulate(colors, elements, *args, **kwargs)
        want = ref_tabulate(colors, elements, *args, **kwargs)
        assert _rows(got[0]) == _rows(want[0])
        assert list(got[1].items()) == list(want[1].items())
        assert got[2] == want[2]
        calls.append(got[0].name)
        return got

    import test_saturate

    for module in (algebras, bimodules, homcalc, presents, standard, trees,
                   test_saturate, sys.modules[__name__]):
        monkeypatch.setattr(module, "tabulate", both)
    CALLERS[caller](objects)
    assert calls
