"""Finite colored collections and table-backed multicategories.

A multicategory here is a finite family of operation sets indexed by
signatures (an ordered list of input colors and one output color),
together with unit operations, slot composition tables, and tables for
the right symmetric actions.  Everything is explicit and finite: a
"support" lists every signature with a nonempty operation set, and all
undeclared signatures are empty.

Operations are opaque identifiers; equality is identifier equality
within a signature.  Where data enters or leaves (the constructors, the
DSL, JSON and witness text) an operation is the pair ``(signature,
op_id)``.  Inside, the tables work on numbers: a collection numbers its
operations once (:class:`Numbering`), a table keeps its composition as
``(p, slot, q) -> r`` and its units on those numbers, and the law checks
turn a number back into text only to write a witness.

A multicategory that serves as the target of a search or a check offers
one value interface: ``value(ref)`` and ``ref_of(v)`` convert between
references and values, ``sig_of(v)`` is a value's signature,
``values_at(s)`` lists the operations at s as values in ``ops_at`` order,
``fixed_values_at(s, ts)`` gives ``(rank, v)`` for each of them that every
permutation in ts fixes, rank being its position in ``values_at(s)``, and
then ``(len(values_at(s)), None)``; ``unit_value(c)`` is the unit,
``image(v, p)`` the symmetric action and ``cell(v, slot, w)`` the
composite, or None where there is none, and :func:`compose_values` the
composite that raises instead.  A :class:`TableMulticategory`'s values
are its numbers; ``algebras.EndView`` gives the other kind.  Composites
and actions are asked for on values only.

A collection or a table is carried along a color map by one pull-back:
:func:`lifts` lifts signatures through the fibers of the map,
:func:`pull_back` takes the operations and exactly the action tables the
source has at each lift's image, and :func:`pull_back_table` reads the
composites off the source.  Restriction, extension, the arrow family and
module restriction are built on them.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from . import perms
from .errors import (BudgetExceededError, CompositionError, DomainError,
                     StructuralError)

def sig_key(s):
    """Stable text form of a signature, used in JSON and diagnostics."""
    return ",".join(s[0]) + ";" + s[1]


def fits(inputs, slot, color):
    """Whether an output of ``color`` fits the input ``slot`` of inputs."""
    return 0 <= slot < len(inputs) and inputs[slot] == color


def composed_sig(psig, slot, qsig):
    """Signature of p o_slot q: the slot-th input replaced by q's inputs."""
    p_in, p_out = psig
    q_in, q_out = qsig
    if not (0 <= slot < len(p_in)):
        raise CompositionError(
            f"slot {slot} out of range for arity {len(p_in)}")
    if p_in[slot] != q_out:
        raise CompositionError(
            f"color mismatch: slot {slot} of {sig_key(psig)} expects "
            f"{p_in[slot]}, argument outputs {q_out}")
    return (p_in[:slot] + q_in + p_in[slot + 1:], p_out)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteCollection:
    """Operation sets with symmetric actions and no composition.

    ``action`` maps ``(signature, permutation) -> {op: op'}`` where the
    permuted operation lives at the permuted signature.  Tables must be
    present for the full symmetric group on every declared signature;
    use :func:`complete_actions` to build them from adjacent
    transpositions.
    """

    colors: tuple
    ops: dict
    action: dict

    def signatures(self):
        return sorted(self.ops, key=sig_key)

    def ops_at(self, s):
        return self.ops.get(s, ())

    def act(self, ref, p):
        s, op = ref
        if p == perms.identity(len(s[0])):
            return ref
        table = self.action.get((s, p))
        if table is None or op not in table:
            raise StructuralError(
                f"no action entry for {op} at {sig_key(s)} under {p}")
        return ((perms.permute(s[0], p), s[1]), table[op])

    @cached_property
    def numbering(self):
        return Numbering(self)

    def images(self, ref):
        """Every symmetric image of an operation as ``(p, signature, id)``,
        in the order of ``perms.all_perms``; kept per number and raising as
        :meth:`act` does on a missing action entry."""
        num = self.numbering
        m = num.number(ref)
        got = num.shown.get(m)
        if got is None:
            got = num.shown[m] = tuple(
                (p, *num.refs[num.image(m, p)])
                for p in perms.all_perms(len(ref[0][0])))
        return got

    def refs(self):
        for s in self.signatures():
            for op in self.ops[s]:
                yield (s, op)


class Numbering:
    """The references of a collection numbered once (hash-consing): its
    operations first, in ``refs()`` order, then every other reference met
    (a composite or an image outside the operations), in the order met.

    ``ops`` lists the numbers of the operations in ``refs()`` order,
    ``refs`` and ``sigs`` give each number's reference and signature, and
    :meth:`image` the number of its image under a permutation, kept once
    asked for."""

    def __init__(self, coll):
        self.coll = coll
        self.refs, self.sigs, self.index = [], [], {}
        self.acted = {}  # (number, permutation) -> number of the image
        self.shown = {}  # number -> its images() tuple
        self.least = {}  # reference -> trees.least_image entry
        self.ops = [self.number(ref) for ref in coll.refs()]

    def number(self, ref):
        got = self.index.get(ref)
        if got is None:
            got = self.index[ref] = len(self.refs)
            self.refs.append(ref)
            self.sigs.append(ref[0])
        return got

    def image(self, m, p):
        """The number of m acted on by p, raising as ``act`` does."""
        got = self.acted.get((m, p))
        if got is None:
            got = self.acted[m, p] = self.number(
                self.coll.act(self.refs[m], p))
        return got


def complete_actions(ops, generators):
    """Close generator action tables to the full symmetric groups.

    ``generators`` maps ``(signature, permutation) -> {op: op'}``; the
    identity tables are implicit, and adjacent transpositions at every
    signature suffice as input.  Raises on inconsistency (two generator
    words assigning different tables to the same permutation) or when the
    given permutations do not generate the full group, or when a
    generator table misses an operation it is applied to.
    """
    action = {(s, perms.identity(len(s[0]))): {op: op for op in ops[s]}
              for s in ops}
    frontier = list(action.keys())
    while frontier:
        s, p = frontier.pop()
        table = action[s, p]
        psig = (perms.permute(s[0], p), s[1])
        for (gsig, t), gen in generators.items():
            if gsig != psig:
                continue
            new_p = perms.compose(p, t)
            missing = set(table.values()) - gen.keys()
            if missing:
                raise StructuralError(
                    f"action generator {t} at {sig_key(psig)} has no entry "
                    f"for {min(missing)}")
            new_table = {op: gen[table[op]] for op in table}
            key = (s, new_p)
            if key in action:
                if action[key] != new_table:
                    raise StructuralError(
                        f"inconsistent action tables at {sig_key(s)} "
                        f"for {new_p}")
            else:
                action[key] = new_table
                frontier.append(key)
    for s in ops:
        for p in perms.all_perms(len(s[0])):
            if (s, p) not in action:
                raise StructuralError(
                    f"action generators do not reach {p} at {sig_key(s)}")
    return action


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableMulticategory:
    """A finite colored operad given by explicit tables.

    ``comp`` maps ``(psig, p, slot, qsig, q) -> result op id`` with the
    result living at ``composed_sig(psig, slot, qsig)``; it is constructor
    input, read once into a table on the collection's numbers, with a
    result outside the operations numbered after them.  Its values in the
    value interface (see the module docstring) are those numbers:
    :meth:`cell` looks a composite up on them and :meth:`image` acts on
    them, :meth:`numbered_cells` lists the tabulated composites and
    :meth:`fixed_values_at` the numbers that given permutations fix.  On
    references remain only :meth:`compose1`, for the error that names
    them, and the readers of the constructor tables, :meth:`cells`,
    :meth:`unit_ref` and :meth:`is_unit`.  ``complete`` is True when every
    composable pair whose result signature is inside the declared support
    has an entry; constructions that truncate (free multicategories under
    caps, the arity-indexed tree multicategory) mark their output partial
    instead.
    """

    collection: FiniteCollection
    units: dict
    comp: dict
    complete: bool = True
    name: str = ""
    symmetric: bool = True  # False: planar, only identity action tables

    @property
    def colors(self):
        return self.collection.colors

    @property
    def ops(self):
        return self.collection.ops

    def signatures(self):
        return self.collection.signatures()

    def ops_at(self, s):
        return self.collection.ops_at(s)

    def refs(self):
        return self.collection.refs()

    def max_arity(self):
        return max([len(s[0]) for s in self.ops], default=0)

    def unit_ref(self, color):
        if color not in self.units:
            raise StructuralError(f"no unit for color {color}")
        return ((((color,), color)), self.units[color])

    def is_unit(self, ref):
        s, op = ref
        return len(s[0]) == 1 and s[1] == s[0][0] and self.units.get(s[1]) == op

    @cached_property
    def _cells(self):
        number = self.collection.numbering.number
        return {(number((psig, p)), slot, number((qsig, q))):
                number((composed_sig(psig, slot, qsig), r))
                for (psig, p, slot, qsig, q), r in self.comp.items()}

    @cached_property
    def closures(self):
        """``homcalc.generated_ops`` results: frozen generator set ->
        frozen closure."""
        return {}

    @cached_property
    def unit_numbers(self):
        number = self.collection.numbering.number
        return frozenset(number(self.unit_ref(c)) for c in self.units)

    def cell(self, p, slot, q):
        """p o_slot q on numbers, or None if the entry is absent.  A unit
        acts as the identity only on a slot of its own color."""
        got = self._cells.get((p, slot, q))
        if got is None:
            units = self.unit_numbers
            if q in units or p in units:
                sigs = self.collection.numbering.sigs
                if fits(sigs[p][0], slot, sigs[q][1]):
                    return p if q in units else q
        return got

    def numbered_cells(self):
        """Every tabulated composite as ``((p, slot, q), r)`` on numbers,
        in the order of ``comp``."""
        return self._cells.items()

    def cells(self):
        """Every tabulated composite as ``(pref, slot, qref, rref)``, in
        the order of ``comp``."""
        refs = self.collection.numbering.refs
        for (p, slot, q), r in self._cells.items():
            yield refs[p], slot, refs[q], refs[r]

    # the value interface: values are the collection's numbers

    def value(self, ref):
        return self.collection.numbering.number(ref)

    def ref_of(self, m):
        return self.collection.numbering.refs[m]

    def sig_of(self, m):
        return self.collection.numbering.sigs[m]

    @cached_property
    def _numbers_at(self):
        num = self.collection.numbering
        out = {}
        for m in num.ops:
            out.setdefault(num.sigs[m], []).append(m)
        return out

    def values_at(self, s):
        return self._numbers_at.get(s, ())

    def fixed_values_at(self, s, ts):
        vs = self.values_at(s)
        yield from ((i, m) for i, m in enumerate(vs)
                    if all(self.image(m, t) == m for t in ts))
        yield len(vs), None

    def unit_value(self, color):
        return self.value(self.unit_ref(color))

    def image(self, m, p):
        return self.collection.numbering.image(m, p)

    def compose1(self, pref, slot, qref):
        """p o_slot q on references, raising if the entry is absent."""
        p, q = self.value(pref), self.value(qref)
        if (p, slot, q) not in self._cells:  # a wrong slot or color raises
            composed_sig(pref[0], slot, qref[0])
        got = self.cell(p, slot, q)
        if got is None:
            raise StructuralError(
                "missing composition cell "
                f"({_ref_str(pref)}) o_{slot} ({_ref_str(qref)})")
        return self.ref_of(got)

    def has_sig(self, s):
        return s in self.ops


class CellLookup(dict):
    """A slot table ``(p, slot, q) -> r`` on numbers for the law checks to
    index: the entries of ``cells`` first, and any other key answered once
    by ``rule(p, slot, q)``, the answer kept."""

    def __init__(self, cells, rule):
        super().__init__(cells)
        self.rule = rule

    def __missing__(self, key):
        got = self[key] = self.rule(*key)
        return got


def compose_values(Q, v, slot, w):
    """v o_slot w on Q's values, raising as ``Q.compose1`` does where Q
    has no composite."""
    got = Q.cell(v, slot, w)
    if got is None:
        Q.compose1(Q.ref_of(v), slot, Q.ref_of(w))
    return got


def _gamma_by_size(compose1, v, ws, sig_of, arg_sig_of=None):
    """v(w_1..w_n) by ``compose1``, or None as soon as a step gives None;
    ``sig_of`` gives a value's signature and ``arg_sig_of`` an argument's,
    where the arguments are numbered apart (``sig_of`` by default).

    Arguments are substituted smallest arity first so that, on a table
    truncated by arity, intermediate composites stay inside the support
    whenever the final signature does."""
    n = len(sig_of(v)[0])
    if len(ws) != n:
        raise CompositionError(f"gamma needs {n} arguments, got {len(ws)}")
    arity = [len((arg_sig_of or sig_of)(w)[0]) for w in ws]
    positions = list(range(n))
    order = sorted(range(n), key=arity.__getitem__)
    out = v
    for i in order:
        k = arity[i]
        out = compose1(out, positions[i], ws[i])
        if out is None:
            return None
        for j in range(n):
            if positions[j] > positions[i]:
                positions[j] += k - 1
    return out


def tabulate(colors, elements, units, text, act, compose, arity_cap=None,
             symmetric=True, name=""):
    """Fill the tables of a multicategory from a model of its operations.

    ``elements`` maps each signature to its model elements, ``units`` each
    color to the element of its identity; ``text(e)`` is the op id of an
    element, ``act(s, e, p)`` its image under a permutation (every
    permutation, or the identity only when ``symmetric`` is False) and
    ``compose(s, e, slot, qs, f)`` the element of e o_slot f.  Composites
    are filled over the argument signatures whose output color is the
    slot's color, skipping those whose arity exceeds ``arity_cap``.  A
    ``compose`` that returns None leaves the cell out and counts as an
    escape; the table is ``complete`` exactly when there are no escapes.

    Elements must be hashable: each is named once, keyed by the element,
    and the images and composites, nearly always elements again, are
    named by looking them up; ``text`` runs only on one met for the first
    time.  An op id depends only on its element, so the key gives the
    id that ``text`` would.

    Returns ``(table, structure, escapes)``, where ``structure`` maps
    ``(signature, op id)`` to the element behind the operation.
    Signatures without elements are left out of the support.
    """
    names = {}

    def named(e):
        got = names.get(e)
        if got is None:
            got = names[e] = text(e)
        return got

    structure = {}
    ops = {}
    by_out = {}
    for s, elems in elements.items():
        ids = []
        for e in elems:
            ids.append(named(e))
            structure[s, ids[-1]] = e
        if ids:
            ops[s] = tuple(sorted(ids))
            by_out.setdefault(s[1], []).append(s)

    action = {}
    for s, ids in ops.items():
        n = len(s[0])
        for p in perms.all_perms(n) if symmetric else [perms.identity(n)]:
            action[s, p] = {tid: named(act(s, structure[s, tid], p))
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
                            comp[s, tid, slot, qs, qid] = named(got)

    table = TableMulticategory(
        collection=FiniteCollection(tuple(colors), ops, action),
        units={c: named(u) for c, u in units.items()}, comp=comp,
        complete=(escapes == 0), name=name, symmetric=symmetric)
    return table, structure, escapes


def backtrack(order, candidates, derive, start, budget, what, counts=None):
    """Every assignment of the keys in ``order`` that extends ``start`` and
    is closed under ``derive``, depth first.

    ``derive(key, value, assign)`` yields the ``(key, value)`` pairs forced
    by one assigned key given the others; a forced value that differs from
    an assigned one prunes the branch, so a derive states a constraint by
    forcing two values onto one key.  The first unassigned key of
    ``order`` branches over ``candidates(key)``, in its order.  Every
    candidate tried counts against ``budget``; past it BudgetExceededError
    is raised with the message ``what`` and the number of assignments
    found.  ``counts``, a dict with the keys ``"tried"`` and ``"found"``,
    carries both figures across calls that share one budget.  Each
    assignment is yielded as a dict of its own.
    """
    if counts is None:
        counts = {"tried": 0, "found": 0}

    def closed(assign, queue):
        while queue:
            key = queue.pop()
            for key2, value2 in derive(key, assign[key], assign):
                if key2 in assign:
                    if assign[key2] != value2:
                        return False
                else:
                    assign[key2] = value2
                    queue.append(key2)
        return True

    def search(assign, i):
        while i < len(order) and order[i] in assign:
            i += 1
        if i == len(order):
            counts["found"] += 1
            yield assign
            return
        key = order[i]
        for cand in candidates(key):
            counts["tried"] += 1
            if counts["tried"] > budget:
                raise BudgetExceededError(what, count=counts["found"])
            trial = {**assign, key: cand}
            if closed(trial, [key]):
                yield from search(trial, i + 1)

    assign = dict(start)
    if closed(assign, list(assign)):
        yield from search(assign, 0)


# ---------------------------------------------------------------------------
# law checking


@dataclass
class LawReport:
    """Violations as ``(law, witness)`` pairs and instance counts per law.

    A checker with a ``max_violations`` cap compares it between elements,
    never inside one, so a report can hold more violations than the cap."""

    violations: list = field(default_factory=list)
    checked: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.violations

    def note(self, law, count=1):
        self.checked[law] = self.checked.get(law, 0) + count

    def fail(self, law, witness):
        self.violations.append((law, witness))

    def to_json(self):
        return {
            "ok": self.ok,
            "checked": dict(sorted(self.checked.items())),
            "violations": [
                {"law": law, "witness": witness}
                for law, witness in self.violations
            ],
        }


def _ref_str(ref):
    return f"{sig_key(ref[0])}:{ref[1]}"


def check_multicategory_laws(M, max_violations=25):
    """Exhaustive law check over the declared support: units, the action
    tables, then composition as a slot action of M on itself
    (:func:`check_slot_laws`), on the numbers of the operations.

    Composites come from one :class:`CellLookup`: the table entry first,
    and any other key answered once by :meth:`cell`; for complete tables
    that answer reports a cell absent although its result signature is in
    the support as a ``missing-cell`` violation naming it, and the
    instances that need it are skipped.  For tables marked
    partial the laws are verified on all instances whose every
    intermediate composite is present.  ``max_violations`` is compared
    between elements, so the report can hold more violations than that.
    """
    report = LawReport()
    coll = M.collection

    # units present and well placed
    for c in coll.colors:
        if M.units.get(c) not in coll.ops_at(((c,), c)):
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

    num = coll.numbering
    refs, sigs, image = num.refs, num.sigs, num.image
    # a row of images per operation, read through the products in S_n
    rows = {m: [image(m, p) for p in perms.all_perms(len(sigs[m][0]))]
            for m in num.ops} if M.symmetric else {}
    for s in coll.signatures() if M.symmetric else ():
        ps, times = perms.all_perms(len(s[0])), perms.products(len(s[0]))
        ms = [num.number((s, op)) for op in coll.ops[s]]
        for (a, p_), (b, q_) in product(enumerate(ps), repeat=2):
            for m in ms:
                if rows[rows[m][a]][b] != rows[m][times[a][b]]:
                    report.fail("action-contravariant",
                                f"{_ref_str(refs[m])} perms {p_},{q_}")
        if ms:
            report.note("action-contravariant", len(ps) ** 2 * len(ms))

    def missing(p, slot, q):
        got = M.cell(p, slot, q)
        if (got is None and M.complete
                and composed_sig(sigs[p], slot, sigs[q]) in M.ops):
            report.fail("missing-cell", f"({_ref_str(refs[p])}) o_{slot} "
                        f"({_ref_str(refs[q])})")
        return got

    comp = CellLookup(M.numbered_cells(), missing)

    # unit laws
    unit = {c: M.unit_value(c) for c in coll.colors}
    for m in num.ops:
        ins, out = sigs[m]
        for slot, color in enumerate(ins):
            got = comp[m, slot, unit[color]]
            report.note("unit-right")
            if got is not None and got != m:
                report.fail("unit-right", f"{_ref_str(refs[m])} o_{slot} "
                            f"1_{color} = {_ref_str(refs[got])}")
        got = comp[unit[out], 0, m]
        report.note("unit-left")
        if got is not None and got != m:
            report.fail("unit-left", f"1_{out} o_0 {_ref_str(refs[m])} = "
                        f"{_ref_str(refs[got])}")

    check_slot_laws(report, coll, comp, M, comp, M.symmetric,
                    ("assoc-sequential", "assoc-parallel",
                     "equivariance-outer", "equivariance-inner"),
                    max_violations)
    return report


def check_slot_laws(report, E, act1, Q, compose, symmetric, names,
                    max_violations):
    """The laws of a slot action ``act1[m, i, q]`` of the multicategory Q
    on the operations of the collection E, noted in ``report``: sequential
    and parallel associativity (against Q's ``compose``), then
    equivariance with the symmetric actions outside (E's) and inside
    (Q's) the slot.  Elements and operations are numbers
    (:attr:`FiniteCollection.numbering`): ``act1`` takes and gives E's
    and ``compose`` Q's, both indexed by ``(p, slot, q)`` as
    :class:`CellLookup` is.  ``names`` gives the four law names in that
    order.  A lookup gives None where it has no value, and such an
    instance is counted but not compared.  Without ``symmetric`` the
    elements carry no symmetric action and no equivariance is checked;
    inner equivariance also needs Q symmetric.  Instances are counted per
    element and noted once per (element, law), in the order each law was
    first met.  An element is started only while fewer than
    ``max_violations`` are reported, so the report can hold more
    violations than that."""
    seq, par, outer, inner = names
    num, qnum = E.numbering, Q.collection.numbering
    refs, sigs, qrefs, qsigs = num.refs, num.sigs, qnum.refs, qnum.sigs
    by_color = {}
    for q in qnum.ops:
        by_color.setdefault(qsigs[q][1], []).append(q)

    for m in num.ops:
        if len(report.violations) >= max_violations:
            return
        ins = sigs[m][0]
        n_seq = n_par = 0
        first = None  # the law of the element's first instance
        for i, color in enumerate(ins):
            for q in by_color.get(color, ()):
                mq = act1[m, i, q]
                if mq is None:
                    continue
                for j, color2 in enumerate(qsigs[q][0]):
                    for r in by_color.get(color2, ()):
                        qr = compose[q, j, r]
                        left = act1[mq, i + j, r]
                        right = None if qr is None else act1[m, i, qr]
                        n_seq += 1
                        if (left is not None and right is not None
                                and left != right):
                            report.fail(
                                seq, f"({_ref_str(refs[m])} o_{i} "
                                f"{_ref_str(qrefs[q])}) o_{i+j} "
                                f"{_ref_str(qrefs[r])}")
                k = len(qsigs[q][0])
                for j in range(i + 1, len(ins)):
                    for r in by_color.get(ins[j], ()):
                        mr = act1[m, j, r]
                        left = act1[mq, j + k - 1, r]
                        right = None if mr is None else act1[mr, i, q]
                        n_par += 1
                        if (left is not None and right is not None
                                and left != right):
                            report.fail(
                                par, f"slots {i},{j} of {_ref_str(refs[m])} "
                                f"with {_ref_str(qrefs[q])},"
                                f"{_ref_str(qrefs[r])}")
                if first is None and (n_seq or n_par):
                    first = seq if n_seq else par
        counts = ((seq, n_seq), (par, n_par))
        for law, count in counts if first == seq else counts[::-1]:
            if count:
                report.note(law, count)

    for m in num.ops if symmetric else ():
        if len(report.violations) >= max_violations:
            return
        ins = sigs[m][0]
        n = len(ins)
        n_outer = n_inner = 0
        for sigma in perms.all_perms(n):
            acted = num.image(m, sigma)
            for i in range(n):
                for q in by_color.get(ins[sigma[i]], ()):
                    base = act1[m, sigma[i], q]
                    left = act1[acted, i, q]
                    n_outer += 1
                    if base is not None and left is not None:
                        want = num.image(base, perms.expand_outer(
                            sigma, i, len(qsigs[q][0])))
                        if left != want:
                            report.fail(
                                outer, f"{_ref_str(refs[m])} perm {sigma} "
                                f"slot {i} arg {_ref_str(qrefs[q])}")
        for i, color in enumerate(ins if Q.symmetric else ()):
            for q in by_color.get(color, ()):
                base = act1[m, i, q]
                if base is None:
                    continue
                for tau in perms.all_perms(len(qsigs[q][0])):
                    left = act1[m, i, qnum.image(q, tau)]
                    n_inner += 1
                    if left is not None:
                        want = num.image(base, perms.expand_inner(n, i, tau))
                        if left != want:
                            report.fail(
                                inner, f"{_ref_str(refs[m])} slot {i} arg "
                                f"{_ref_str(qrefs[q])} perm {tau}")
        if n_outer:
            report.note(outer, n_outer)
        if n_inner:
            report.note(inner, n_inner)


# ---------------------------------------------------------------------------
# the underlying category, read off the unary operations, and its nerve


def unary_ops(M):
    """The morphisms of M's underlying category, the category of its unary
    operations, as ``(a, b, id)`` for each operation at (a; b), sorted."""
    return sorted((s[0][0], s[1], f) for s in M.signatures()
                  if len(s[0]) == 1 for f in M.ops_at(s))


def unary_composite(M, f, g):
    """g after f for f = (a, b, id) and g = (b, c, id): ``g o_0 f`` as an
    ``(a, c, id)`` triple, or None where M holds no such composite."""
    r = M.cell(M.value((((g[0],), g[1]), g[2])), 0,
               M.value((((f[0],), f[1]), f[2])))
    return None if r is None else (f[0], g[1], M.ref_of(r)[1])


def _then(M, f, g):
    h = unary_composite(M, f, g)
    if h is None:
        raise StructuralError(f"missing category composite {f};{g}")
    return h


def _identity(M, a):
    return (a, a, M.units[a])


@dataclass(frozen=True)
class TruncatedSimplicialSet:
    """Finite simplex sets in levels 0..depth, each sorted, with face and
    degeneracy tables that hold positions into the adjacent level."""

    depth: int
    levels: tuple  # tuple of sorted tuples of simplex labels
    faces: dict  # (k, i) -> tuple: position of d_i x in levels[k - 1]
    degeneracies: dict  # (k, j) -> tuple: position of s_j x in levels[k + 1]

    def check_identities(self):
        report = LawReport()
        d, s, levels = self.faces, self.degeneracies, self.levels

        def compare(law, k, what, got, want):
            if levels[k]:
                report.note(law, len(levels[k]))
            if got != want:
                for n, (g, w) in enumerate(zip(got, want)):
                    if g != w:
                        report.fail(law, f"level {k} {what} at {levels[k][n]}")

        def then(first, second):
            return [second[m] for m in first]

        for k in range(2, self.depth + 1):
            for j in range(k + 1):
                for i in range(j):
                    compare("dd", k, f"d_{i} d_{j}",
                            then(d[k, j], d[k - 1, i]),
                            then(d[k, i], d[k - 1, j - 1]))
        for k in range(self.depth - 1):
            for i in range(k + 1):
                for j in range(i, k + 1):
                    compare("ss", k, f"s_{i} s_{j}",
                            then(s[k, j], s[k + 1, i]),
                            then(s[k, i], s[k + 1, j + 1]))
        for k in range(1, self.depth):
            same = list(range(len(levels[k])))
            for j in range(k + 1):
                for i in range(k + 2):
                    if i < j:
                        want = then(d[k, i], s[k - 1, j - 1])
                    elif i in (j, j + 1):
                        want = same
                    else:
                        want = then(d[k, i - 1], s[k - 1, j])
                    compare("ds", k, f"d_{i} s_{j}",
                            then(s[k, j], d[k + 1, i]), want)
        return report


def nerve(M, depth):
    """The nerve of M's underlying category, truncated at the given level:
    a k-simplex is a chain of k composable unary operations, each an
    ``(a, b, id)`` triple; inner faces compose with ``o_0`` and
    degeneracies insert units, so higher-arity operations play no part."""
    if depth < 0:
        raise DomainError("nerve depth must be >= 0")
    levels = [tuple(sorted(M.colors))]
    mors = unary_ops(M)
    chains = [(m,) for m in mors]
    if depth >= 1:
        levels.append(tuple(sorted(chains)))
    for k in range(2, depth + 1):
        chains = [c + (m,) for c in chains for m in mors if c[-1][1] == m[0]]
        levels.append(tuple(sorted(chains)))
    index = [{x: n for n, x in enumerate(level)} for level in levels]
    faces, degeneracies = {}, {}
    for k in range(1, depth + 1):
        for i in range(k + 1):
            if k == 1:
                images = [x[0][1] if i == 0 else x[0][0] for x in levels[k]]
            elif i == 0:
                images = [x[1:] for x in levels[k]]
            elif i == k:
                images = [x[:-1] for x in levels[k]]
            else:
                images = [x[:i - 1] + (_then(M, x[i - 1], x[i]),) + x[i + 1:]
                          for x in levels[k]]
            faces[k, i] = tuple(map(index[k - 1].__getitem__, images))
    for k in range(depth):
        for j in range(k + 1):
            if k == 0:
                images = [(_identity(M, x),) for x in levels[k]]
            else:
                images = [x[:j] + (_identity(M, x[j][0] if j < k
                                                else x[j - 1][1]),) + x[j:]
                          for x in levels[k]]
            degeneracies[k, j] = tuple(map(index[k + 1].__getitem__, images))
    return TruncatedSimplicialSet(depth, tuple(levels), faces, degeneracies)


# ---------------------------------------------------------------------------
# equivalence checking


@dataclass
class EquivalenceReport:
    fully_faithful: bool
    essentially_surjective: bool
    witnesses: list

    @property
    def is_equivalence(self):
        return self.fully_faithful and self.essentially_surjective

    def to_json(self):
        return {
            "fully_faithful": self.fully_faithful,
            "essentially_surjective": self.essentially_surjective,
            "is_equivalence": self.is_equivalence,
            "witnesses": list(self.witnesses),
        }


def _iso_objects(M, a, b):
    return any(_then(M, (a, b, f), (b, a, g)) == _identity(M, a)
               and _then(M, (b, a, g), (a, b, f)) == _identity(M, b)
               for f in M.ops_at(((a,), b)) for g in M.ops_at(((b,), a)))


def is_equivalence(F):
    """Fully faithful (per-signature bijective) + essentially surjective:
    each color of the target is isomorphic to an image color, the
    isomorphisms read off the target's unary operations and their
    ``o_0`` composites."""
    P, Q = F.source, F.target
    witnesses = []
    for s in P.signatures():
        images = [F.op_maps.get(s, {}).get(op) for op in P.ops_at(s)]
        if len(set(images)) != len(images):
            witnesses.append(f"not faithful at {sig_key(s)}")
        if set(images) != set(Q.ops_at(F.map_sig(s))):
            witnesses.append(f"not full at {sig_key(s)}")
    # fullness quantifies over all source signatures, including those with
    # empty operation sets: the empty function onto a nonempty set fails
    for pre in lifts([s for s in Q.signatures() if Q.ops_at(s)], P.colors,
                     F.object_map):
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
# pull-backs along maps of signatures, and restriction and extension


def lifts(sigs, domain, object_map, outputs=True):
    """Every signature over ``domain`` that ``object_map`` sends to one of
    ``sigs``, mapped to that signature, in the order of ``sigs`` and then
    of ``product`` over the fibers, each in the order of ``domain``.
    Without ``outputs`` only the inputs are lifted."""
    fibers = {}
    for d in domain:
        fibers.setdefault(object_map[d], []).append(d)
    out = {}
    for s in sigs:
        ends = fibers.get(s[1], ()) if outputs else (s[1],)
        for combo in product(*[fibers.get(c, ()) for c in s[0]], ends):
            out[combo[:-1], combo[-1]] = s
    return out


def pull_back(coll, colors, back):
    """The collection over ``colors`` that holds, at each signature s of
    ``back``, the operations of coll at ``back[s]`` and exactly the action
    tables coll has there (the identity alone for a planar table); a
    signature with no operations is left out."""
    ops = {s: tuple(coll.ops_at(t)) for s, t in back.items() if coll.ops_at(t)}
    action = {(s, p): dict(coll.action[back[s], p]) for s in ops
              for p in perms.all_perms(len(s[0]))
              if (back[s], p) in coll.action}
    return FiniteCollection(tuple(colors), ops, action)


def pull_back_table(M, coll, back, units, name):
    """The table on ``coll``, a pull-back of M's collection along ``back``
    (:func:`pull_back`), with each composite of two pulled-back operations
    read off M at their images, and M's ``complete`` and ``symmetric``."""
    over = {}
    for s, t in back.items():
        over.setdefault(t, []).append(s)
    comp = {(s, p, slot, u, q): r
            for (psig, p, slot, qsig, q), r in M.comp.items()
            for s in over.get(psig, ()) for u in over.get(qsig, ())
            if u[1] == s[0][slot]}
    return TableMulticategory(coll, units, comp, M.complete, name,
                              M.symmetric)


def restrict_objects(M, object_map):
    """Pull M back along a map of color sets into obj(M)."""
    for c, target in object_map.items():
        if target not in M.colors:
            raise DomainError(f"{c} maps to {target}, not a color of M")
    colors = tuple(sorted(object_map))
    back = lifts(M.signatures(), colors, object_map)
    return pull_back_table(M, pull_back(M.collection, colors, back), back,
                           {d: M.units[object_map[d]] for d in colors},
                           f"restrict({M.name})")


def extend_objects_injective(M, alpha, new_colors):
    """Push a multicategory forward along an injective map of color sets:
    the pull-back along its inverse on the image signatures.

    Image signatures carry the transported operations; a color outside the
    image carries only its identity; every other signature is empty.
    """
    values = list(alpha.values())
    if len(set(values)) != len(values):
        raise DomainError("object map is not injective")
    if set(alpha) != set(M.colors):
        raise DomainError("object map domain must be the colors of M")
    new_colors = tuple(sorted(new_colors))
    if not set(values) <= set(new_colors):
        raise DomainError("object map lands outside the stated color set")
    back = lifts(M.signatures(), values, {v: c for c, v in alpha.items()})
    coll = pull_back(M.collection, new_colors, back)
    units = {alpha[c]: u for c, u in M.units.items()}
    for d in new_colors:
        if d not in values:
            coll.ops[(d,), d] = ("1",)
            coll.action[((d,), d), perms.identity(1)] = {"1": "1"}
            units[d] = "1"
    return pull_back_table(M, coll, back, units, f"extend({M.name})")
