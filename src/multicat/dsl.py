"""Line-oriented declarative format for all inputs.

A document is a sequence of named blocks.  A block starts at column 0
with a kind and a name; its entries are indented lines of whitespace
-separated tokens.  Signatures, permutations, and tree terms are single
tokens: ``(x,y;z)``, ``[2,1]``, ``m($1,g($2,$3))`` (1-based leaf numbers,
``~c`` for the identity term at a color).  Comments start with ``#`` and
blank lines are ignored.

Block kinds:

* ``multicategory N`` — color / ops / unit / comp / act rows, optional
  ``partial`` and ``planar`` markers
* ``collection N`` — color / ops / act rows (generators)
* ``presentation N over G`` — rel rows over a collection block
* ``multifunctor N : SRC -> DST`` — obj / map rows
* ``algebra N over M`` — carrier / act rows, function tables in the
  lexicographic order of the input product
* ``bimodule N : LEFT | RIGHT`` — ops / act / ract / lact rows
"""

from dataclasses import dataclass, field

from . import perms
from .algebras import ObjectFamily, algebra_from_tables, check_algebra
from .bimodules import Bimodule
from .core import (FiniteCollection, TableMulticategory, complete_actions,
                   check_multicategory_laws, composed_sig, sig_key)
from .errors import CompositionError, StructuralError
from .homcalc import Multifunctor, check_multifunctor
from .presents import Presentation
from .trees import identity_term, term_signature


@dataclass
class Diagnostic:
    code: str
    message: str
    line: int
    col: int = 0

    def __str__(self):
        return f"{self.line}:{self.col}: {self.code}: {self.message}"


@dataclass
class Block:
    kind: str
    name: str
    header: tuple
    entries: list  # (line number, tuple of tokens)
    line: int


@dataclass
class Ast:
    blocks: list = field(default_factory=list)


BLOCK_KINDS = ("multicategory", "collection", "presentation",
               "multifunctor", "algebra", "bimodule")


def parse(text):
    """Parse a document; returns (Ast or None, diagnostics)."""
    ast = Ast()
    diags = []
    current = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0] in " \t"
        tokens = tuple(line.split())
        if not indented:
            kind = tokens[0]
            if kind not in BLOCK_KINDS:
                diags.append(Diagnostic(
                    "SYNTAX", f"unknown block kind {kind!r}", lineno, 1))
                current = None
                continue
            if len(tokens) < 2:
                diags.append(Diagnostic(
                    "SYNTAX", "block needs a name", lineno, len(kind) + 1))
                current = None
                continue
            name = tokens[1]
            if name in seen:
                diags.append(Diagnostic(
                    "RESOLVE", f"duplicate block name {name!r}", lineno, 1))
            seen.add(name)
            current = Block(kind=kind, name=name, header=tokens[2:],
                            entries=[], line=lineno)
            ast.blocks.append(current)
        else:
            if current is None:
                diags.append(Diagnostic(
                    "SYNTAX", "entry outside any block", lineno, 1))
                continue
            current.entries.append((lineno, tokens))
    if any(d.code != "RESOLVE" for d in diags):
        return None, diags
    return ast, diags


def parse_sig_token(tok, lineno, diags):
    if not (tok.startswith("(") and tok.endswith(")")) or ";" not in tok:
        diags.append(Diagnostic(
            "SYNTAX", f"expected a signature token, got {tok!r}", lineno))
        return None
    body = tok[1:-1]
    ins, _, out = body.partition(";")
    inputs = tuple(x for x in ins.split(",") if x)
    if not out:
        diags.append(Diagnostic(
            "SYNTAX", f"signature {tok!r} lacks an output color", lineno))
        return None
    return (inputs, out)


def parse_perm_token(tok, lineno, diags):
    if not (tok.startswith("[") and tok.endswith("]")):
        diags.append(Diagnostic(
            "SYNTAX", f"expected a permutation token, got {tok!r}", lineno))
        return None
    body = tok[1:-1]
    try:
        images = tuple(int(x) - 1 for x in body.split(",") if x)
    except ValueError:
        diags.append(Diagnostic(
            "SYNTAX", f"bad permutation {tok!r}", lineno))
        return None
    if sorted(images) != list(range(len(images))):
        diags.append(Diagnostic(
            "SYNTAX", f"{tok!r} is not a permutation", lineno))
        return None
    return images


class _TermParser:
    """Recursive-descent parser for single-token tree terms."""

    def __init__(self, text, gen_lookup, lineno, diags):
        self.text = text
        self.pos = 0
        self.gen_lookup = gen_lookup
        self.lineno = lineno
        self.diags = diags

    def error(self, message):
        self.diags.append(Diagnostic(
            "SYNTAX", f"{message} in term {self.text!r}",
            self.lineno, self.pos + 1))
        raise _TermError

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def term(self, expect_color=None):
        if self.peek() == "$":
            self.pos += 1
            start = self.pos
            while self.peek().isdigit():
                self.pos += 1
            if start == self.pos:
                self.error("leaf number expected after $")
            idx = int(self.text[start:self.pos]) - 1
            if expect_color is None:
                self.error("a bare leaf needs a surrounding generator")
            return ("L", expect_color, idx)
        if self.peek() == "~":
            self.pos += 1
            start = self.pos
            while self.peek() not in ("", "(", ")", ","):
                self.pos += 1
            color = self.text[start:self.pos]
            return ("L", color, 0)
        start = self.pos
        while self.peek() not in ("", "(", ")", ","):
            self.pos += 1
        gid = self.text[start:self.pos]
        if not gid:
            self.error("generator name expected")
        gsig = self.gen_lookup(gid)
        if gsig is None:
            self.diags.append(Diagnostic(
                "RESOLVE", f"unknown generator {gid!r} in {self.text!r}",
                self.lineno, start + 1))
            raise _TermError
        children = []
        if self.peek() == "(":
            self.pos += 1
            if self.peek() == ")":
                self.pos += 1
            else:
                while True:
                    want = (gsig[0][len(children)]
                            if len(children) < len(gsig[0]) else None)
                    children.append(self.term(expect_color=want))
                    if self.peek() == ",":
                        self.pos += 1
                        continue
                    if self.peek() == ")":
                        self.pos += 1
                        break
                    self.error("expected , or )")
        if len(children) != len(gsig[0]):
            self.error(f"{gid} expects {len(gsig[0])} arguments")
        return ("N", gsig, gid, tuple(children))


class _TermError(Exception):
    pass


def parse_term(tok, gen_lookup, lineno, diags):
    """Parse a bracketed term literal; leaf numbers are renumbered as
    written (1-based), and sub-leaves inherit the expected input color.
    A diagnostic's column counts from the start of the literal, not of
    the line."""
    p = _TermParser(tok, gen_lookup, lineno, diags)
    try:
        t = p.term(expect_color="?")
        if p.pos != len(tok):
            p.error("trailing characters")
    except _TermError:
        return None
    return t


# ---------------------------------------------------------------------------
# elaboration


def elaborate(ast):
    """Build typed objects from an AST; returns (objects, diagnostics).

    Law checks run as part of elaboration; a violated law is reported as a
    LAW diagnostic carrying the checker's witness.
    """
    objects = {}
    diags = []
    for block in ast.blocks:
        try:
            if block.kind == "multicategory":
                objects[block.name] = _elab_multicategory(block, diags)
            elif block.kind == "collection":
                objects[block.name] = _elab_collection(block, diags)
            elif block.kind == "presentation":
                objects[block.name] = _elab_presentation(
                    block, objects, diags)
            elif block.kind == "multifunctor":
                objects[block.name] = _elab_multifunctor(
                    block, objects, diags)
            elif block.kind == "algebra":
                objects[block.name] = _elab_algebra(block, objects, diags)
            elif block.kind == "bimodule":
                objects[block.name] = _elab_bimodule(block, objects, diags)
        except _Abort:
            objects[block.name] = None
    objects = {k: v for k, v in objects.items() if v is not None}
    return objects, diags


class _Abort(Exception):
    pass


def _collect_tables(block, diags, with_structure):
    colors = []
    ops = {}
    units = {}
    comp = {}
    generators = {}
    lines = {}  # a comp row's key, or ("unit", color) -> the row's line
    flags = {"partial": False, "planar": False}
    for lineno, tokens in block.entries:
        head = tokens[0]
        if head == "color":
            colors.extend(tokens[1:])
        elif head == "ops":
            s, ids = _ops_row(tokens, lineno, diags)
            ops[s] = ids
        elif head == "unit" and with_structure:
            if len(tokens) != 4 or tokens[2] != "=":
                _fail("unit row: unit color = id", lineno, diags, "SYNTAX")
            units[tokens[1]] = tokens[3]
            lines["unit", tokens[1]] = lineno
        elif head == "comp" and with_structure:
            if len(tokens) != 8 or tokens[6] != "=":
                _fail("comp row: comp (sig) id slot (sig) id = id",
                      lineno, diags, "SYNTAX")
            psig = parse_sig_token(tokens[1], lineno, diags)
            qsig = parse_sig_token(tokens[4], lineno, diags)
            if psig is None or qsig is None:
                raise _Abort
            key = (psig, tokens[2], _slot(tokens[3], lineno, diags), qsig,
                   tokens[5])
            comp[key] = tokens[7]
            lines[key] = lineno
        elif head == "act":
            s, p, op, image = _act_row(tokens, lineno, diags)
            generators.setdefault((s, p), {})[op] = image
        elif head in flags and len(tokens) == 1:
            flags[head] = True
        else:
            _fail(f"unknown row {head!r} in {block.kind}",
                  lineno, diags, "SYNTAX")
    return colors, ops, units, comp, generators, flags, lines


def _ops_row(tokens, lineno, diags):
    """The signature and sorted ids of an ``ops (sig) = id...`` row."""
    s = parse_sig_token(tokens[1], lineno, diags) if len(tokens) > 1 else None
    if s is None or len(tokens) < 3 or tokens[2] != "=":
        _fail("ops row: ops (sig) = id...", lineno, diags, "SYNTAX")
    ids = tokens[3:]
    if len(set(ids)) != len(ids):
        diags.append(Diagnostic(
            "STRUCT", f"duplicate op ids at {tokens[1]}", lineno))
    return s, tuple(sorted(ids))


def _act_row(tokens, lineno, diags):
    """Signature, permutation, id and image of an ``act (sig) id [perm] =
    id`` row."""
    if len(tokens) != 6 or tokens[4] != "=":
        _fail("act row: act (sig) id [perm] = id", lineno, diags, "SYNTAX")
    s = parse_sig_token(tokens[1], lineno, diags)
    p = parse_perm_token(tokens[3], lineno, diags)
    if s is None or p is None:
        raise _Abort
    if len(p) != len(s[0]):
        _fail(f"permutation {tokens[3]} does not act on {tokens[1]}",
              lineno, diags)
    return s, p, tokens[2], tokens[5]


def _fail(message, lineno, diags, code="STRUCT"):
    """Reject the input: append a diagnostic with ``code`` (STRUCT for a
    row that elaboration cannot use, SYNTAX or RESOLVE) at the line and
    drop the block being elaborated."""
    diags.append(Diagnostic(code, message, lineno))
    raise _Abort


def _need(ops, ref, what, lineno, diags):
    """Fail unless ``ref`` is an operation of the ``ops`` table."""
    s, op = ref
    if op not in ops.get(s, ()):
        _fail(f"{what}: no {op} at ({sig_key(s)})", lineno, diags)


def _at(sig, want, what, lineno, diags):
    """Fail unless an action row's result sits at the composed signature."""
    if sig != want:
        _fail(f"{what}: result at ({sig_key(sig)}), not at the composed "
              f"({sig_key(want)})", lineno, diags)


def _law_diags(report, block, diags):
    """A LAW diagnostic at the block's line for each violation."""
    for law, witness in report.violations:
        diags.append(Diagnostic(
            "LAW", f"{block.name}: {law} violated at {witness}", block.line))


def _slot(tok, lineno, diags):
    """A 1-based slot token as a 0-based slot."""
    try:
        return int(tok) - 1
    except ValueError:
        _fail("bad slot", lineno, diags, "SYNTAX")


def _resolve_ops(block, colors, ops, diags):
    declared = set(colors)
    for s in ops:
        for c in list(s[0]) + [s[1]]:
            if c not in declared:
                _fail(f"color {c!r} not declared in {block.name}",
                      block.line, diags, "RESOLVE")


def _finish_actions(block, ops, generators, diags, planar=False):
    try:
        if planar:
            action = {}
            for s in ops:
                n = len(s[0])
                action[s, perms.identity(n)] = {op: op for op in ops[s]}
            return action
        return complete_actions(ops, generators)
    except StructuralError as exc:
        _fail(str(exc), block.line, diags)


def _elab_collection(block, diags):
    colors, ops, _, _, generators, flags, _ = _collect_tables(
        block, diags, with_structure=False)
    _resolve_ops(block, colors, ops, diags)
    action = _finish_actions(block, ops, generators, diags)
    return FiniteCollection(tuple(sorted(colors)), ops, action)


def _elab_multicategory(block, diags):
    colors, ops, units, comp, generators, flags, lines = _collect_tables(
        block, diags, with_structure=True)
    _resolve_ops(block, colors, ops, diags)
    action = _finish_actions(block, ops, generators, diags,
                             planar=flags["planar"])
    for c in colors:
        if c not in units:
            _fail(f"color {c} has no unit row", block.line, diags)
    for c, u in units.items():
        _need(ops, (((c,), c), u), f"unit {c}", lines["unit", c], diags)
    for (psig, p, slot, qsig, q), r in comp.items():
        line = lines[psig, p, slot, qsig, q]
        try:
            rsig = composed_sig(psig, slot, qsig)
        except CompositionError:
            _fail(f"comp row: slot {slot + 1} of ({sig_key(psig)}) does not "
                  f"take ({sig_key(qsig)})", line, diags)
        for ref in ((psig, p), (qsig, q), (rsig, r)):
            _need(ops, ref, "comp row", line, diags)
    M = TableMulticategory(
        collection=FiniteCollection(tuple(sorted(colors)), ops, action),
        units=units, comp=comp, complete=not flags["partial"],
        symmetric=not flags["planar"], name=block.name)
    _law_diags(check_multicategory_laws(M), block, diags)
    return M


def _gen_lookup_for(coll):
    index = {}
    for s in coll.ops:
        for op in coll.ops[s]:
            if op in index and index[op] != s:
                index[op] = "ambiguous"
            else:
                index.setdefault(op, s)

    def lookup(gid):
        got = index.get(gid)
        return None if got in (None, "ambiguous") else got

    return lookup


def _elab_presentation(block, objects, diags):
    if len(block.header) != 2 or block.header[0] != "over":
        _fail("presentation N over COLLECTION", block.line, diags, "SYNTAX")
    gens = objects.get(block.header[1])
    if not isinstance(gens, FiniteCollection):
        _fail(f"{block.header[1]!r} is not a collection",
              block.line, diags, "RESOLVE")
    lookup = _gen_lookup_for(gens)
    rels = []
    for lineno, tokens in block.entries:
        if tokens[0] != "rel" or len(tokens) != 5 or tokens[3] != "=":
            _fail("rel row: rel (sig) term = term", lineno, diags, "SYNTAX")
        s = parse_sig_token(tokens[1], lineno, diags)
        if s is None:
            raise _Abort
        left = _typed_term(tokens[2], s, lookup, lineno, diags)
        right = _typed_term(tokens[4], s, lookup, lineno, diags)
        if left is None or right is None:
            raise _Abort
        ls, rs = term_signature(left), term_signature(right)
        if ls != s or rs != s:
            _fail(f"relation sides do not have signature {sig_key(s)}",
                  lineno, diags)
        rels.append((left, right))
    return Presentation(gens, tuple(rels), name=block.name)


def _typed_term(tok, sig, lookup, lineno, diags):
    """Parse a term and push the expected leaf colors through."""
    raw = parse_term(tok, lookup, lineno, diags)
    if raw is None:
        return None

    def retype(node):
        if node[0] == "L":
            idx = node[2]
            if node[1] == "?":
                if idx >= len(sig[0]):
                    diags.append(Diagnostic(
                        "STRUCT", f"leaf ${idx + 1} outside the signature",
                        lineno))
                    raise _TermError
                return ("L", sig[0][idx], idx)
            return node
        return ("N", node[1], node[2], tuple(retype(c) for c in node[3]))

    if raw[0] == "L" and raw[1] == "?":
        # a bare identity written as ~color was already resolved; a bare
        # leaf is only valid when the signature is unary
        if len(sig[0]) == 1:
            return identity_term(sig[1])
        diags.append(Diagnostic("STRUCT", "bare leaf term", lineno))
        return None
    try:
        out = retype(raw)
    except _TermError:
        return None
    # leaves written as $i get the color demanded by the row's signature
    return out


def _elab_multifunctor(block, objects, diags):
    if (len(block.header) != 4 or block.header[0] != ":"
            or block.header[2] != "->"):
        _fail("multifunctor N : SRC -> DST", block.line, diags, "SYNTAX")
    src = objects.get(block.header[1])
    dst = objects.get(block.header[3])
    if not isinstance(src, TableMulticategory) or not isinstance(
            dst, TableMulticategory):
        _fail("multifunctor endpoints must be multicategories",
              block.line, diags, "RESOLVE")
    object_map = {}
    op_maps = {}
    for lineno, tokens in block.entries:
        if tokens[0] == "obj" and len(tokens) == 4 and tokens[2] == "=":
            object_map[tokens[1]] = tokens[3]
        elif tokens[0] == "map" and len(tokens) == 5 and tokens[3] == "=":
            s = parse_sig_token(tokens[1], lineno, diags)
            if s is None:
                raise _Abort
            op_maps.setdefault(s, {})[tokens[2]] = tokens[4]
        else:
            _fail(f"unknown row {tokens[0]!r} in multifunctor",
                  lineno, diags, "SYNTAX")
    for c in src.colors:
        if object_map.get(c) not in dst.colors:
            _fail(f"no obj row maps color {c} to a color of "
                  f"{block.header[3]}", block.line, diags)
    F = Multifunctor(source=src, target=dst, object_map=object_map,
                     op_maps=op_maps, name=block.name)
    _law_diags(check_multifunctor(F), block, diags)
    return F


def _elab_algebra(block, objects, diags):
    if len(block.header) != 2 or block.header[0] != "over":
        _fail("algebra N over MULTICATEGORY", block.line, diags, "SYNTAX")
    M = objects.get(block.header[1])
    if not isinstance(M, TableMulticategory):
        _fail(f"{block.header[1]!r} is not a multicategory",
              block.line, diags, "RESOLVE")
    carriers = {}
    action = {}
    act_lines = {}
    for lineno, tokens in block.entries:
        if tokens[0] == "carrier" and len(tokens) >= 3 and tokens[2] == "=":
            carriers[tokens[1]] = tuple(tokens[3:])
        elif tokens[0] == "act" and len(tokens) >= 4 and tokens[3] == "=":
            s = parse_sig_token(tokens[1], lineno, diags)
            if s is None:
                raise _Abort
            action.setdefault(s, {})[tokens[2]] = tuple(tokens[4:])
            act_lines[s, tokens[2]] = lineno
        else:
            _fail(f"unknown row {tokens[0]!r} in algebra",
                  lineno, diags, "SYNTAX")
    try:
        family = ObjectFamily(carriers)
    except StructuralError as exc:
        _fail(str(exc), block.line, diags)
    for (s, op), line in act_lines.items():
        for v in action[s][op]:
            if v not in carriers.get(s[1], ()):
                _fail(f"act row: {v} is not in the carrier of {s[1]}", line,
                      diags)
    alg = algebra_from_tables(M, family, action)
    _law_diags(check_algebra(alg), block, diags)
    return alg


def _elab_bimodule(block, objects, diags):
    if (len(block.header) != 4 or block.header[0] != ":"
            or block.header[2] != "|"):
        _fail("bimodule N : LEFT | RIGHT", block.line, diags, "SYNTAX")
    L = objects.get(block.header[1])
    R = objects.get(block.header[3])
    if not isinstance(L, TableMulticategory) or not isinstance(
            R, TableMulticategory):
        _fail("bimodule endpoints must be multicategories",
              block.line, diags, "RESOLVE")
    ops = {}
    generators = {}
    right_table = {}
    left_table = {}
    row_line = {}  # action table key -> the line of its row
    saw_action_row = False
    for lineno, tokens in block.entries:
        head = tokens[0]
        if head == "ops":
            s, ids = _ops_row(tokens, lineno, diags)
            ops[s] = ids
        elif head == "act":
            s, p, op, image = _act_row(tokens, lineno, diags)
            generators.setdefault((s, p), {})[op] = image
        elif head == "ract":
            # ract (msig) m slot (qsig) q = (rsig) r
            if len(tokens) != 9 or tokens[6] != "=":
                _fail("ract row: ract (sig) m slot (sig) q = (sig) m'",
                      lineno, diags, "SYNTAX")
            ms = parse_sig_token(tokens[1], lineno, diags)
            qs = parse_sig_token(tokens[4], lineno, diags)
            rs = parse_sig_token(tokens[7], lineno, diags)
            if None in (ms, qs, rs):
                raise _Abort
            slot = _slot(tokens[3], lineno, diags)
            try:
                want = composed_sig(ms, slot, qs)
            except CompositionError:
                _fail(f"ract row: slot {slot + 1} of ({sig_key(ms)}) does "
                      f"not take ({sig_key(qs)})", lineno, diags)
            _at(rs, want, "ract row", lineno, diags)
            key = ((ms, tokens[2]), slot, (qs, tokens[5]))
            right_table[key] = (rs, tokens[8])
            row_line[key] = lineno
            saw_action_row = True
        elif head == "lact":
            # lact (psig) p : (sig) m ... = (sig) m'
            if ":" not in tokens or "=" not in tokens:
                _fail("lact row: lact (sig) p : pairs = (sig) m'",
                      lineno, diags, "SYNTAX")
            ci = tokens.index(":")
            ei = tokens.index("=")
            ps = parse_sig_token(tokens[1], lineno, diags)
            if ps is None:
                raise _Abort
            args = tokens[ci + 1:ei]
            if len(args) % 2 != 0 or len(tokens) - ei != 3:
                _fail("lact row is malformed", lineno, diags, "SYNTAX")
            mrefs = []
            for i in range(0, len(args), 2):
                s = parse_sig_token(args[i], lineno, diags)
                if s is None:
                    raise _Abort
                mrefs.append((s, args[i + 1]))
            rs = parse_sig_token(tokens[ei + 1], lineno, diags)
            if rs is None:
                raise _Abort
            if tuple(m[0][1] for m in mrefs) != ps[0]:
                _fail(f"lact row: ({sig_key(ps)}) does not take "
                      f"{' '.join(f'({sig_key(m[0])})' for m in mrefs)}",
                      lineno, diags)
            _at(rs, (sum((m[0][0] for m in mrefs), ()), ps[1]), "lact row",
                lineno, diags)
            key = ((ps, tokens[2]), tuple(mrefs))
            left_table[key] = (rs, tokens[ei + 2])
            row_line[key] = lineno
            saw_action_row = True
        else:
            _fail(f"unknown row {head!r} in bimodule", lineno, diags, "SYNTAX")
    if not saw_action_row and ops:
        diags.append(Diagnostic(
            "STRUCT", f"bimodule {block.name} has no action rows",
            block.line))
    action = _finish_actions(block, ops, generators, diags)
    colors = sorted({c for s in ops for c in s[0]} | {s[1] for s in ops})
    coll = FiniteCollection(tuple(colors), ops, action)
    for (m, slot, q), r in right_table.items():
        lineno = row_line[m, slot, q]
        _need(ops, m, "ract row", lineno, diags)
        _need(R.ops, q, "ract row", lineno, diags)
        _need(ops, r, "ract row", lineno, diags)
    for (p, ms), r in left_table.items():
        lineno = row_line[p, ms]
        _need(L.ops, p, "lact row", lineno, diags)
        for m in ms + (r,):
            _need(ops, m, "lact row", lineno, diags)
    M = Bimodule(left=L, right=R, collection=coll,
                 left_table=left_table, right_table=right_table,
                 name=block.name)
    from .bimodules import check_bimodule

    _law_diags(check_bimodule(M), block, diags)
    return M


# ---------------------------------------------------------------------------
# pretty printing (the normalized form)


def print_block(block):
    lines = [" ".join((block.kind, block.name) + block.header)]
    for _, tokens in block.entries:
        lines.append("  " + " ".join(tokens))
    return "\n".join(lines)


def print_ast(ast):
    return "\n\n".join(print_block(b) for b in ast.blocks) + "\n"


def _sig_token(s):
    return "(" + ",".join(s[0]) + ";" + s[1] + ")"


def _perm_token(p):
    return "[" + ",".join(str(i + 1) for i in p) + "]"


def multicategory_block(M, name=None):
    """Emit the normalized document text for a table multicategory."""
    name = name or M.name or "M"
    lines = [f"multicategory {name}"]
    if not M.complete:
        lines.append("  partial")
    if not M.symmetric:
        lines.append("  planar")
    for c in sorted(M.colors):
        lines.append(f"  color {c}")
    for s in M.signatures():
        lines.append(f"  ops {_sig_token(s)} = " + " ".join(sorted(M.ops_at(s))))
    for c in sorted(M.units):
        lines.append(f"  unit {c} = {M.units[c]}")
    if M.symmetric:
        for s in M.signatures():
            n = len(s[0])
            for t in perms.adjacent_transpositions(n):
                table = M.collection.action[s, t]
                for op in sorted(table):
                    lines.append(
                        f"  act {_sig_token(s)} {op} {_perm_token(t)} "
                        f"= {table[op]}")
    for (psig, p), slot, (qsig, q), (_, r) in sorted(
            M.cells(), key=lambda c: (sig_key(c[0][0]), c[0][1], c[1],
                                      sig_key(c[2][0]), c[2][1])):
        lines.append(
            f"  comp {_sig_token(psig)} {p} {slot + 1} {_sig_token(qsig)} "
            f"{q} = {r}")
    return "\n".join(lines)


def collection_block(G, name):
    lines = [f"collection {name}"]
    for c in sorted(G.colors):
        lines.append(f"  color {c}")
    for s in G.signatures():
        lines.append(f"  ops {_sig_token(s)} = " + " ".join(sorted(G.ops[s])))
    for s in G.signatures():
        n = len(s[0])
        for t in perms.adjacent_transpositions(n):
            table = G.action[s, t]
            for op in sorted(table):
                lines.append(
                    f"  act {_sig_token(s)} {op} {_perm_token(t)} "
                    f"= {table[op]}")
    return "\n".join(lines)
