"""Deterministic JSON export for every exchangeable object.

All containers are emitted sorted so identical inputs always produce
byte-identical documents; every document carries a versioned schema tag.
"""

import json
from json.encoder import encode_basestring_ascii as _quoted

from .core import (EquivalenceReport, FiniteCategory, LawReport,
                   TableMulticategory, TruncatedSimplicialSet, sig_key)

SCHEMA = "multicat/1"


def _perm_key(p):
    return "[" + ",".join(str(i + 1) for i in p) + "]"


def _comp_row_key(row):
    """``json.dumps(row, sort_keys=True)`` of a ``comp`` row, written out
    for its six fields without the general encoder."""
    return (f'{{"arg": {_quoted(row["arg"])}, '
            f'"arg_at": {_quoted(row["arg_at"])}, "at": {_quoted(row["at"])}, '
            f'"op": {_quoted(row["op"])}, "result": {_quoted(row["result"])}, '
            f'"slot": {row["slot"]}}}')


def multicategory_json(M):
    doc = {
        "schema": SCHEMA,
        "kind": "multicategory",
        "name": M.name,
        "colors": sorted(M.colors),
        "complete": M.complete,
        "symmetric": M.symmetric,
        "ops": {sig_key(s): sorted(M.ops_at(s)) for s in M.signatures()},
        "units": dict(sorted(M.units.items())),
        "comp": sorted(
            [{
                "at": sig_key(pref[0]), "op": pref[1], "slot": slot,
                "arg_at": sig_key(qref[0]), "arg": qref[1], "result": rref[1],
            } for pref, slot, qref, rref in M.cells()],
            key=_comp_row_key),
        "action": sorted(
            [{
                "at": sig_key(s), "perm": _perm_key(p),
                "table": dict(sorted(t.items())),
            } for (s, p), t in M.collection.action.items()],
            key=lambda row: json.dumps(row, sort_keys=True)),
    }
    return doc


def category_json(C):
    return {
        "schema": SCHEMA,
        "kind": "category",
        "objects": sorted(C.objects),
        "homs": {f"{a}->{b}": sorted(fs)
                 for (a, b), fs in sorted(C.homs.items())},
        "identities": dict(sorted(C.identities.items())),
        "compose": sorted(
            [{"first": list(f), "then": list(g), "result": list(h)}
             for (f, g), h in C.compose.items()],
            key=lambda row: json.dumps(row, sort_keys=True)),
    }


def simplicial_json(S):
    L = S.levels
    return {
        "schema": SCHEMA,
        "kind": "simplicial",
        "depth": S.depth,
        "levels": [sorted(str(x) for x in level) for level in L],
        "faces": {
            f"d_{i}@{k}": dict(sorted((str(x), str(L[k - 1][m]))
                                      for x, m in zip(L[k], table)))
            for (k, i), table in sorted(S.faces.items())},
        "degeneracies": {
            f"s_{j}@{k}": dict(sorted((str(x), str(L[k + 1][m]))
                                      for x, m in zip(L[k], table)))
            for (k, j), table in sorted(S.degeneracies.items())},
    }


def report_json(obj):
    if isinstance(obj, (LawReport, EquivalenceReport)):
        return {"schema": SCHEMA, "kind": "report", **obj.to_json()}
    if hasattr(obj, "to_json"):
        return {"schema": SCHEMA, "kind": "report", **obj.to_json()}
    return {"schema": SCHEMA, "kind": "report", "value": obj}


def to_json(obj):
    if isinstance(obj, TableMulticategory):
        return multicategory_json(obj)
    if isinstance(obj, FiniteCategory):
        return category_json(obj)
    if isinstance(obj, TruncatedSimplicialSet):
        return simplicial_json(obj)
    return report_json(obj)


def dumps(obj):
    return json.dumps(to_json(obj), sort_keys=True, indent=2) + "\n"
