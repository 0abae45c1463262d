"""Restriction, extension, the arrow family and module restriction as
pull-backs along maps of signatures (``core.lifts``, ``core.pull_back``,
``core.pull_back_table``), against the copies they replaced, and on
planar tables, which the copies could not carry.

The references below are the earlier ``restrict_objects``,
``extend_objects_injective``, ``arrow_multicategory``, ``restrict_module``
and the fullness loop of ``is_equivalence``, kept whole: each carried a
table along a color map with its own loops and read an action table for
every permutation."""

import json
from itertools import product
from pathlib import Path

import pytest

from multicat import dsl, jsonio, perms
from multicat.bimodules import (Bimodule, module_from_multicategory,
                                restrict_module, right_module_from)
from multicat.cli import main
from multicat.core import (EquivalenceReport, FiniteCollection,
                           TableMulticategory, _iso_objects,
                           check_multicategory_laws, composed_sig,
                           extend_objects_injective, is_equivalence,
                           restrict_objects, sig_key)
from multicat.errors import DomainError
from multicat.homcalc import Multifunctor, identity_multifunctor
from multicat.presents import arrow_multicategory

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# the references


def ref_restrict_objects(M, object_map, new_colors=None):
    for c, target in object_map.items():
        if target not in M.colors:
            raise DomainError(f"{c} maps to {target}, not a color of M")
    new_colors = tuple(sorted(new_colors or object_map.keys()))
    fibers = {c: [d for d in new_colors if object_map[d] == c]
              for c in M.colors}

    ops = {}
    for s in M.signatures():
        choices = [fibers[c] for c in s[0]] + [fibers[s[1]]]
        for combo in product(*choices):
            new_sig = (tuple(combo[:-1]), combo[-1])
            ops[new_sig] = tuple(M.ops_at(s))
    ops = {s: v for s, v in ops.items() if v}

    def back(s):
        return (tuple(object_map[c] for c in s[0]), object_map[s[1]])

    action = {(s, p): dict(M.collection.action[back(s), p])
              for s in ops for p in perms.all_perms(len(s[0]))}
    units = {d: M.units[object_map[d]] for d in new_colors}
    comp = {}
    for (psig, p, slot, qsig, q), r in M.comp.items():
        p_fib = [fibers[c] for c in psig[0]] + [fibers[psig[1]]]
        for combo in product(*p_fib):
            new_p = (tuple(combo[:-1]), combo[-1])
            q_fib = [fibers[c] for c in qsig[0]]
            for qcombo in product(*q_fib):
                new_q = (tuple(qcombo), new_p[0][slot])
                comp[new_p, p, slot, new_q, q] = r
    return TableMulticategory(FiniteCollection(new_colors, ops, action),
                              units, comp, M.complete, f"restrict({M.name})")


def ref_extend_objects_injective(M, alpha, new_colors):
    values = list(alpha.values())
    if len(set(values)) != len(values):
        raise DomainError("object map is not injective")
    if set(alpha) != set(M.colors):
        raise DomainError("object map domain must be the colors of M")
    new_colors = tuple(sorted(new_colors))
    if not set(values) <= set(new_colors):
        raise DomainError("object map lands outside the stated color set")
    fresh = [d for d in new_colors if d not in values]

    def fwd(s):
        return (tuple(alpha[c] for c in s[0]), alpha[s[1]])

    ops = {fwd(s): tuple(M.ops_at(s)) for s in M.signatures()}
    action = {(fwd(s), p): dict(M.collection.action[s, p])
              for s in M.ops for p in perms.all_perms(len(s[0]))}
    units = {alpha[c]: u for c, u in M.units.items()}
    comp = {(fwd(psig), p, slot, fwd(qsig), q): r
            for (psig, p, slot, qsig, q), r in M.comp.items()}
    for d in fresh:
        ops[((d,), d)] = ("1",)
        for p in perms.all_perms(1):
            action[((d,), d), p] = {"1": "1"}
        units[d] = "1"
    return TableMulticategory(FiniteCollection(new_colors, ops, action),
                              units, comp, M.complete, f"extend({M.name})")


def ref_arrow_multicategory(P, n):
    if len(P.colors) != 1:
        raise DomainError("the arrow construction needs a single color")
    if n < 0:
        raise DomainError("level must be >= 0")
    if n == 0:
        return P
    colors = tuple(str(i) for i in range(n + 1))
    full = ref_restrict_objects(P, {c: P.colors[0] for c in colors})

    def allowed(s):
        return all(int(c) <= int(s[1]) for c in s[0])

    action = {(s, p): t for (s, p), t in full.collection.action.items()
              if allowed(s)}
    comp = {(*pref, slot, *qref): rref[1]
            for pref, slot, qref, rref in full.cells()
            if allowed(pref[0]) and allowed(qref[0])}
    return TableMulticategory(
        collection=FiniteCollection(
            colors, {s: v for s, v in full.ops.items() if allowed(s)},
            action),
        units=full.units, comp=comp, complete=P.complete,
        name=f"{P.name or 'P'}^{n}")


def ref_restrict_module(N, psi):
    R = psi.source
    S = psi.target
    if S is not N.right:
        raise DomainError(f"{psi.name or 'the multifunctor'} lands in "
                          f"{S.name}, not in {N.right.name}, which acts on "
                          f"{N.name} from the right")
    fibers = {c: [d for d in R.colors if psi.object_map[d] == c]
              for c in S.colors}
    ops = {}
    origin = {}
    for s in N.collection.signatures():
        for combo in product(*[fibers[c] for c in s[0]]):
            new_sig = (tuple(combo), s[1])
            ops[new_sig] = tuple(N.collection.ops_at(s))
            origin[new_sig] = s
    ops = {s: v for s, v in ops.items() if v}
    action = {}
    for s in ops:
        n = len(s[0])
        for p in perms.all_perms(n):
            action[s, p] = dict(N.collection.action[(origin[s], p)])
    colors = tuple(sorted(set(R.colors) | {s[1] for s in ops}))
    coll = FiniteCollection(colors, ops, action)

    table = {}
    num = N.collection.numbering
    for s in ops:
        for m in ops[s]:
            for slot, color in enumerate(s[0]):
                for qs in R.signatures():
                    if qs[1] != color:
                        continue
                    for q in R.ops_at(qs):
                        base = N.right_cell(num.number((origin[s], m)), slot,
                                            S.value(psi.map_ref((qs, q))))
                        if base is None:
                            continue
                        rsig = composed_sig(s, slot, qs)
                        table[(s, m), slot, (qs, q)] = rsig, num.refs[base][1]
    return Bimodule(left=None, right=R, collection=coll, right_table=table,
                    name=f"restrict({N.name})")


def ref_is_equivalence(F):
    P, Q = F.source, F.target
    witnesses = []
    for s in P.signatures():
        images = [F.op_maps.get(s, {}).get(op) for op in P.ops_at(s)]
        if len(set(images)) != len(images):
            witnesses.append(f"not faithful at {sig_key(s)}")
        if set(images) != set(Q.ops_at(F.map_sig(s))):
            witnesses.append(f"not full at {sig_key(s)}")
    fibers = {c: [p for p in P.colors if F.object_map[p] == c]
              for c in Q.colors}
    for s in Q.signatures():
        if not Q.ops_at(s):
            continue
        for combo in product(*([fibers[c] for c in s[0]] + [fibers[s[1]]])):
            pre = (tuple(combo[:-1]), combo[-1])
            if not P.ops_at(pre):
                witnesses.append(f"not full at empty {sig_key(pre)}")
    ff = not witnesses
    ess = True
    for q in Q.colors:
        if not any(_iso_objects(Q, F.object_map[p], q) for p in P.colors):
            ess = False
            witnesses.append(f"object {q} not reached up to isomorphism")
    return EquivalenceReport(ff, ess, witnesses)


# ---------------------------------------------------------------------------
# the cases: every symmetric table and every multifunctor of every fixture


def fixture_objects():
    out = {}
    for path in sorted(FIXTURES.glob("*.mcat")):
        objs, diags = dsl.elaborate(dsl.parse(path.read_text())[0])
        assert not diags
        out.update({f"{path.stem}:{name}": obj for name, obj in objs.items()})
    return out


OBJECTS = fixture_objects()
TABLES = sorted(name for name, obj in OBJECTS.items()
                if isinstance(obj, TableMulticategory) and obj.symmetric)
FUNCTORS = sorted(name for name, obj in OBJECTS.items()
                  if isinstance(obj, Multifunctor))


def color_maps(M):
    """Two maps into M's colors: two colors onto its first color, and the
    identity with one more color in the fiber of its last color."""
    first, last = M.colors[0], M.colors[-1]
    return {"two-onto-one": {"p": first, "q": first},
            "identity-and-one": {**{c: c for c in M.colors},
                                 f"{last}'": last}}


def functors():
    """Every multifunctor of the fixtures and the identity of every
    symmetric table."""
    out = {name: OBJECTS[name] for name in FUNCTORS}
    out.update({f"id-{name}": identity_multifunctor(OBJECTS[name])
                for name in TABLES})
    return out


FUNCTOR_CASES = functors()


def assert_same_table(new, ref):
    assert jsonio.dumps(new) == jsonio.dumps(ref)
    assert list(new.comp) == list(ref.comp)
    assert list(new.ops) == list(ref.ops)
    assert new.collection.action == ref.collection.action


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("how", ["two-onto-one", "identity-and-one"])
def test_restriction_matches_reference(name, how):
    M = OBJECTS[name]
    object_map = color_maps(M)[how]
    assert_same_table(restrict_objects(M, object_map),
                      ref_restrict_objects(M, object_map))


@pytest.mark.parametrize("name", TABLES)
def test_extension_matches_reference(name):
    M = OBJECTS[name]
    alpha = {c: f"{c}'" for c in M.colors}
    new_colors = (*alpha.values(), "fresh")
    assert_same_table(extend_objects_injective(M, alpha, new_colors),
                      ref_extend_objects_injective(M, alpha, new_colors))


@pytest.mark.parametrize("name", [n for n in TABLES
                                  if len(OBJECTS[n].colors) == 1])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_arrow_matches_reference(name, level):
    P = OBJECTS[name]
    assert_same_table(arrow_multicategory(P, level),
                      ref_arrow_multicategory(P, level))


def module_cases():
    cases = {name: (right_module_from(F.target), F)
             for name, F in FUNCTOR_CASES.items()}
    reg = OBJECTS["bimod:Reg"]
    cases["bimod:Reg"] = (reg, identity_multifunctor(reg.right))
    return cases


MODULE_CASES = module_cases()


@pytest.mark.parametrize("name", sorted(MODULE_CASES))
def test_module_restriction_matches_reference(name):
    N, psi = MODULE_CASES[name]
    new, ref = restrict_module(N, psi), ref_restrict_module(N, psi)
    assert new.collection.colors == ref.collection.colors
    assert list(new.collection.ops.items()) == list(
        ref.collection.ops.items())
    assert new.collection.action == ref.collection.action
    assert list(new.right_table.items()) == list(ref.right_table.items())
    assert (new.left, new.right, new.name) == (ref.left, ref.right, ref.name)


@pytest.mark.parametrize("name", sorted(FUNCTOR_CASES))
def test_equivalence_report_matches_reference(name):
    F = FUNCTOR_CASES[name]
    new, ref = is_equivalence(F), ref_is_equivalence(F)
    assert new.to_json() == ref.to_json()
    assert new.witnesses == ref.witnesses


def test_the_empty_fullness_check_is_exercised():
    # Collapse sends a and b to one color; (a;b) and (b;a) are empty
    rep = is_equivalence(OBJECTS["twocolor:Collapse"])
    assert "not full at empty a;b" in rep.witnesses


# ---------------------------------------------------------------------------
# planar tables


PLANAR = """\
multicategory Pl
  color x
  ops (x;x) = e
  ops (x,x;x) = m
  unit x = e
  comp (x;x) e 1 (x;x) e = e
  comp (x;x) e 1 (x,x;x) m = m
  comp (x,x;x) m 1 (x;x) e = m
  comp (x,x;x) m 2 (x;x) e = m
  planar
"""


@pytest.fixture
def planar_doc(tmp_path):
    path = tmp_path / "planar.mcat"
    path.write_text(PLANAR)
    return str(path)


def planar_table():
    objs, diags = dsl.elaborate(dsl.parse(PLANAR)[0])
    assert not diags and not objs["Pl"].symmetric
    return objs["Pl"]


PLANAR_CASES = {
    "restrict-map": (
        ("export", "--name", "Pl", "--restrict-map", "y:x,z:x"),
        lambda Pl: restrict_objects(Pl, {"y": "x", "z": "x"})),
    "extend-map": (
        ("export", "--name", "Pl", "--extend-map", "x:y|y,z"),
        lambda Pl: extend_objects_injective(Pl, {"x": "y"}, ("y", "z"))),
    "arrow": (("tensor", "Pl", "--arrow", "1"),
              lambda Pl: arrow_multicategory(Pl, 1)),
    "arrow-3": (("tensor", "Pl", "--arrow", "3"),
                lambda Pl: arrow_multicategory(Pl, 3)),
}


@pytest.mark.parametrize("case", sorted(PLANAR_CASES))
def test_planar_tables_are_carried(planar_doc, capsys, case):
    argv, build = PLANAR_CASES[case]
    assert main([argv[0], planar_doc, *argv[1:]]) == 0
    doc = json.loads(capsys.readouterr().out)
    table = build(planar_table())
    assert doc == jsonio.multicategory_json(table)
    assert doc["symmetric"] is False and not table.symmetric
    assert all(p == perms.identity(len(s[0]))
               for s, p in table.collection.action)
    assert check_multicategory_laws(table).ok


def test_planar_module_restriction():
    Pl = planar_table()
    N = module_from_multicategory(Pl)
    out = restrict_module(N, identity_multifunctor(Pl))
    assert dict(out.collection.ops) == dict(N.collection.ops)
    assert out.collection.action == N.collection.action
    assert set(out.collection.action) == {
        ((("x",), "x"), (0,)), ((("x", "x"), "x"), (0, 1))}
    assert out.right_table == N.right_table
