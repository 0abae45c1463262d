"""Deterministic JSON export for every exchangeable object.

All containers are emitted sorted so identical inputs always produce
byte-identical documents; every document carries a versioned schema tag.

:func:`encode` is the one text writer: every artifact, from
:func:`dumps` and from the command line, is its output, byte for byte
``json.dumps(doc, sort_keys=True, indent=2) + "\n"``.  With an indent the
standard library leaves its C encoder for a pure-Python one, so the
writer keeps the indent out of the encoder.  Indented text is the compact
text with separators that depend on the depth, so a container whose
members are all scalars is encoded in one call to a C encoder whose item
separator is ``",\n"`` plus the padding of that depth (one encoder per
depth, kept once made), and only its brackets are placed by hand.  A list
of flat rows, such as the ``comp`` rows, is encoded in one call with the
rows' separator, and the row boundaries are then re-indented by one
``str.replace``: with ``ensure_ascii`` an encoded string never holds a
raw newline, so ``"},\n"`` followed by padding and ``"{"`` occurs only
between two rows.  Other containers recurse, and the pieces are joined
once at the end.  Dict keys are sorted on the original keys, then
written as ``json.dumps`` writes them, and a value ``json.dumps`` cannot
encode raises the same ``TypeError``.  A cyclic document is not
detected: it ends in ``RecursionError`` where ``json.dumps`` raises
``ValueError``; no exported document holds a cycle.
"""

import functools
import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quoted

from .core import (TableMulticategory, TruncatedSimplicialSet, sig_key,
                   unary_composite, unary_ops)

SCHEMA = "multicat/1"


def _perm_key(p):
    return "[" + ",".join(str(i + 1) for i in p) + "]"


# ``json.dumps(row, sort_keys=True)`` of a row, from one encoder made once
_row_key = json.JSONEncoder(sort_keys=True).encode


def _comp_row_key(row):
    """``json.dumps(row, sort_keys=True)`` of a ``comp`` row, written out
    for its six fields without the general encoder."""
    return (f'{{"arg": {_quoted(row["arg"])}, '
            f'"arg_at": {_quoted(row["arg_at"])}, "at": {_quoted(row["at"])}, '
            f'"op": {_quoted(row["op"])}, "result": {_quoted(row["result"])}, '
            f'"slot": {row["slot"]}}}')


def multicategory_json(M):
    # each signature's text once, read off ``comp`` without numbering it
    at = {s: sig_key(s) for s in {key[i] for key in M.comp for i in (0, 3)}}
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
                "at": at[psig], "op": p, "slot": slot,
                "arg_at": at[qsig], "arg": q, "result": r,
            } for (psig, p, slot, qsig, q), r in M.comp.items()],
            key=_comp_row_key),
        "action": sorted(
            [{
                "at": sig_key(s), "perm": _perm_key(p),
                "table": dict(sorted(t.items())),
            } for (s, p), t in M.collection.action.items()],
            key=_row_key),
    }
    return doc


def category_json(M):
    """M's underlying category: its colors, its unary operations as
    hom-sets, its units, and the composites ``g o_0 f`` that M holds, as
    rows first f, then g."""
    mors = unary_ops(M)
    return {
        "schema": SCHEMA,
        "kind": "category",
        "objects": sorted(M.colors),
        "homs": {f"{s[0][0]}->{s[1]}": sorted(M.ops_at(s))
                 for s in M.signatures() if len(s[0]) == 1},
        "identities": dict(sorted(M.units.items())),
        "compose": sorted(
            [{"first": list(f), "then": list(g), "result": list(h)}
             for f in mors for g in mors if f[1] == g[0]
             and (h := unary_composite(M, f, g)) is not None],
            key=_row_key),
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
    if hasattr(obj, "to_json"):
        return {"schema": SCHEMA, "kind": "report", **obj.to_json()}
    return {"schema": SCHEMA, "kind": "report", "value": obj}


def to_json(obj):
    if isinstance(obj, TableMulticategory):
        return multicategory_json(obj)
    if isinstance(obj, TruncatedSimplicialSet):
        return simplicial_json(obj)
    return report_json(obj)


def dumps(obj):
    return encode(to_json(obj))


_SCALARS = frozenset((str, int, float, bool, type(None)))
_PAD = "  "


def encode(doc):
    """The artifact text of ``doc``: ``json.dumps(doc, sort_keys=True,
    indent=2) + "\n"``, byte for byte (see the module docstring)."""
    out = []
    _write(doc, 0, out)
    out.append("\n")
    return "".join(out)


@functools.cache
def _flat(depth):
    """Compact text of a container whose members sit at ``depth``, with
    the separators of the indented text there."""
    return json.JSONEncoder(
        sort_keys=True, separators=(",\n" + _PAD * depth, ": ")).encode


def _write(obj, depth, out):
    """Append the text of ``obj``, whose brackets sit at ``depth``, to
    ``out``; the pieces are joined once, so no text is copied per level."""
    is_list = isinstance(obj, (list, tuple))
    if not (is_list or isinstance(obj, dict)):
        out.append(_flat(0)(obj))  # a scalar, or json.dumps's TypeError
        return
    start, end = "[]" if is_list else "{}"
    if not obj:
        out.append(start + end)
        return
    inner = "\n" + _PAD * (depth + 1)
    out.append(start + inner)
    if _SCALARS.issuperset(map(type, obj if is_list else obj.values())):
        out.append(_flat(depth + 1)(obj)[1:-1])
    elif is_list:
        if not _write_rows(obj, depth + 1, out):
            for i, member in enumerate(obj):
                if i:
                    out.append("," + inner)
                _write(member, depth + 1, out)
    else:
        for i, (key, value) in enumerate(sorted(obj.items())):
            out.append(("," + inner if i else "") + _key_text(key) + ": ")
            _write(value, depth + 1, out)
    out.append("\n" + _PAD * depth + end)


def _write_rows(rows, depth, out):
    """Append a list of non-empty flat dicts, or of non-empty flat lists,
    whose rows sit at ``depth``, with one encoder call and one
    ``str.replace``; False, appending nothing, for any other list."""
    kinds = set(map(type, rows))
    if kinds == {dict}:
        members = chain.from_iterable(map(dict.values, rows))
        start, end = "{}"
    elif kinds <= {list, tuple}:
        members = chain.from_iterable(rows)
        start, end = "[]"
    else:
        return False
    if not (all(rows) and _SCALARS.issuperset(map(type, members))):
        return False
    row = "\n" + _PAD * depth
    member = row + _PAD
    text = _flat(depth + 1)(rows).replace(
        end + "," + member + start, row + end + "," + row + start + member)
    out += (start + member, text[2:-2], row + end)
    return True


def _key_text(key):
    """A dict key as ``json.dumps`` writes it."""
    if isinstance(key, str):
        return _quoted(key)
    if isinstance(key, (int, float)) or key is None:
        return '"' + _flat(0)(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")
