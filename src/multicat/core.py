"""Finite colored collections and table-backed multicategories.

A multicategory here is a finite family of operation sets indexed by
signatures (an ordered list of input colors and one output color),
together with unit operations, slot composition tables, and tables for
the right symmetric actions.  Everything is explicit and finite: a
"support" lists every signature with a nonempty operation set, and all
undeclared signatures are empty.

Operations are opaque identifiers; equality is identifier equality
within a signature.  An operation is referenced as a pair
``(signature, op_id)`` throughout.
"""

from dataclasses import dataclass, field
from itertools import product

from . import perms
from .errors import CompositionError, DomainError, StructuralError

Signature = tuple  # (tuple of input colors, output color)
OpRef = tuple  # (Signature, op id)


def sig(inputs, output):
    return (tuple(inputs), output)


def sig_key(s):
    """Stable text form of a signature, used in JSON and diagnostics."""
    return ",".join(s[0]) + ";" + s[1]


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

    def arities(self):
        return sorted({len(s[0]) for s in self.ops})

    def act(self, ref, p):
        s, op = ref
        if p == perms.identity(len(s[0])):
            return ref
        table = self.action.get((s, p))
        if table is None or op not in table:
            raise StructuralError(
                f"no action entry for {op} at {sig_key(s)} under {p}")
        return ((perms.permute(s[0], p), s[1]), table[op])

    def refs(self):
        for s in self.signatures():
            for op in self.ops[s]:
                yield (s, op)


def complete_actions(ops, generators):
    """Close generator action tables to the full symmetric groups.

    ``generators`` maps ``(signature, permutation) -> {op: op'}``; the
    identity tables are implicit, and adjacent transpositions at every
    signature suffice as input.  Raises on inconsistency (two generator
    words assigning different tables to the same permutation) or when the
    given permutations do not generate the full group.
    """
    action = {}
    for s in ops:
        n = len(s[0])
        action[s, perms.identity(n)] = {op: op for op in ops[s]}
    frontier = list(action.keys())
    while frontier:
        s, p = frontier.pop()
        table = action[s, p]
        psig = (perms.permute(s[0], p), s[1])
        n = len(s[0])
        for (gsig, t), gen in generators.items():
            if gsig != psig:
                continue
            new_p = perms.compose(p, t)
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
        n = len(s[0])
        for p in perms.all_perms(n):
            if (s, p) not in action:
                raise StructuralError(
                    f"action generators do not reach {p} at {sig_key(s)}")
    return action


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableMulticategory:
    """A finite colored operad given by explicit tables.

    ``comp`` maps ``(psig, p, slot, qsig, q) -> result op id`` with the
    result living at ``composed_sig(psig, slot, qsig)``.  ``complete`` is
    True when every composable pair whose result signature is inside the
    declared support has an entry; constructions that truncate (free
    multicategories under caps, the arity-indexed tree multicategory)
    mark their output partial instead.
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

    def act(self, ref, p):
        return self.collection.act(ref, p)

    def compose1(self, pref, slot, qref):
        """p o_slot q, raising if the entry is absent."""
        psig, p = pref
        qsig, q = qref
        rsig = composed_sig(psig, slot, qsig)
        entry = self.comp.get((psig, p, slot, qsig, q))
        if entry is None:
            if self.is_unit(qref):
                return pref
            if self.is_unit(pref):
                return qref
            raise StructuralError(
                "missing composition cell "
                f"({sig_key(psig)}:{p}) o_{slot} ({sig_key(qsig)}:{q})")
        return (rsig, entry)

    def try_compose1(self, pref, slot, qref):
        try:
            return self.compose1(pref, slot, qref)
        except StructuralError:
            return None

    def gamma(self, pref, qrefs):
        """Full composition p(q_1..q_n) by iterated slot composition.

        Arguments are substituted smallest arity first so that, on a table
        truncated by arity, intermediate composites stay inside the support
        whenever the final signature does."""
        psig, _ = pref
        if len(qrefs) != len(psig[0]):
            raise CompositionError(
                f"gamma needs {len(psig[0])} arguments, got {len(qrefs)}")
        return _gamma_by_size(self.compose1, pref, qrefs)

    def has_sig(self, s):
        return s in self.ops


def _gamma_by_size(compose1, pref, qrefs):
    positions = list(range(len(qrefs)))
    order = sorted(range(len(qrefs)), key=lambda i: len(qrefs[i][0][0]))
    out = pref
    for i in order:
        k = len(qrefs[i][0][0])
        out = compose1(out, positions[i], qrefs[i])
        for j in range(len(qrefs)):
            if positions[j] > positions[i]:
                positions[j] += k - 1
    return out


# ---------------------------------------------------------------------------
# law checking


@dataclass
class LawReport:
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


# ---------------------------------------------------------------------------
# the underlying category and its nerve


@dataclass(frozen=True)
class FiniteCategory:
    objects: tuple
    homs: dict  # (a, b) -> tuple of morphism ids
    compose: dict  # ((a,b,f),(b,c,g)) -> (a,c,h), g after f
    identities: dict  # a -> id

    def hom(self, a, b):
        return self.homs.get((a, b), ())

    def mors(self):
        for (a, b) in sorted(self.homs):
            for f in self.homs[a, b]:
                yield (a, b, f)

    def then(self, f, g):
        """g after f, for f=(a,b,id), g=(b,c,id)."""
        if f[1] != g[0]:
            raise CompositionError(f"{f} then {g}: endpoints do not match")
        entry = self.compose.get((f, g))
        if entry is None:
            raise StructuralError(f"missing category composite {f};{g}")
        return entry

    def identity(self, a):
        return (a, a, self.identities[a])


def check_category_laws(C):
    report = LawReport()
    for a in C.objects:
        if C.identities.get(a) not in C.hom(a, a):
            report.fail("identity-present", str(a))
        report.note("identity-present")
    for f in C.mors():
        left = C.then(C.identity(f[0]), f)
        right = C.then(f, C.identity(f[1]))
        report.note("identity-laws")
        if left != f or right != f:
            report.fail("identity-laws", str(f))
    for f in C.mors():
        for g in C.mors():
            if f[1] != g[0]:
                continue
            fg = C.then(f, g)
            for h in C.mors():
                if g[1] != h[0]:
                    continue
                report.note("associativity")
                if C.then(fg, h) != C.then(f, C.then(g, h)):
                    report.fail("associativity", f"{f};{g};{h}")
    return report


def underlying_category(M):
    """The category of unary operations; higher-arity data is discarded."""
    homs = {}
    for s in M.signatures():
        if len(s[0]) == 1:
            homs[(s[0][0], s[1])] = tuple(M.ops_at(s))
    compose = {}
    for (a, b), fs in homs.items():
        for (b2, c), gs in homs.items():
            if b2 != b:
                continue
            for f in fs:
                for g in gs:
                    got = M.try_compose1((((b,), c), g), 0, (((a,), b), f))
                    if got is not None:
                        compose[(a, b, f), (b, c, g)] = (a, c, got[1])
    return FiniteCategory(
        objects=tuple(M.colors),
        homs=homs,
        compose=compose,
        identities=dict(M.units),
    )


@dataclass(frozen=True)
class TruncatedSimplicialSet:
    """Finite simplex sets in levels 0..depth with face/degeneracy tables."""

    depth: int
    levels: tuple  # tuple of tuples of simplex ids
    faces: dict  # (k, i) -> {simplex: simplex at level k-1}
    degeneracies: dict  # (k, j) -> {simplex: simplex at level k+1}

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


def nerve(C, depth):
    """Composable chains of morphisms, truncated at the given level."""
    if depth < 0:
        raise DomainError("nerve depth must be >= 0")
    levels = [tuple(sorted(C.objects))]
    mors = sorted(C.mors())
    chains = [(m,) for m in mors]
    if depth >= 1:
        levels.append(tuple(sorted(chains)))
    for k in range(2, depth + 1):
        chains = [c + (m,) for c in chains for m in mors if c[-1][1] == m[0]]
        levels.append(tuple(sorted(chains)))
    faces = {}
    degeneracies = {}
    for k in range(1, depth + 1):
        for i in range(k + 1):
            table = {}
            for x in levels[k]:
                if k == 1:
                    table[x] = x[0][1] if i == 0 else x[0][0]
                elif i == 0:
                    table[x] = x[1:]
                elif i == k:
                    table[x] = x[:-1]
                else:
                    table[x] = x[:i - 1] + (C.then(x[i - 1], x[i]),) + x[i + 1:]
            faces[k, i] = table
    for k in range(depth):
        for j in range(k + 1):
            table = {}
            for x in levels[k]:
                if k == 0:
                    table[x] = (C.identity(x),)
                else:
                    obj = x[j][0] if j < k else x[j - 1][1]
                    ident = (C.identity(obj),)
                    table[x] = x[:j] + ident + x[j:]
            degeneracies[k, j] = table
    return TruncatedSimplicialSet(
        depth=depth, levels=tuple(levels), faces=faces,
        degeneracies=degeneracies)


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


def _iso_objects(C, a, b):
    for f in C.hom(a, b):
        for g in C.hom(b, a):
            fm, gm = (a, b, f), (b, a, g)
            if (C.then(fm, gm) == C.identity(a)
                    and C.then(gm, fm) == C.identity(b)):
                return True
    return False


def is_equivalence(F):
    """Fully faithful (per-signature bijective) + essentially surjective."""
    P, Q = F.source, F.target
    ff = True
    witnesses = []
    for s in P.signatures():
        target_sig = (tuple(F.object_map[c] for c in s[0]), F.object_map[s[1]])
        images = [F.op_maps.get(s, {}).get(op) for op in P.ops_at(s)]
        if len(set(images)) != len(images):
            ff = False
            witnesses.append(f"not faithful at {sig_key(s)}")
        if set(images) != set(Q.ops_at(target_sig)):
            ff = False
            witnesses.append(f"not full at {sig_key(s)}")
    # fullness quantifies over all source signatures, including those with
    # empty operation sets: the empty function onto a nonempty set fails
    fibers = {c: [p for p in P.colors if F.object_map[p] == c]
              for c in Q.colors}
    for s in Q.signatures():
        if not Q.ops_at(s):
            continue
        for combo in product(*([fibers[c] for c in s[0]] + [fibers[s[1]]])):
            pre = (tuple(combo[:-1]), combo[-1])
            if not P.ops_at(pre):
                ff = False
                witnesses.append(f"not full at empty {sig_key(pre)}")
    CQ = underlying_category(Q)
    ess = True
    for q in Q.colors:
        if not any(_iso_objects(CQ, F.object_map[p], q) for p in P.colors):
            ess = False
            witnesses.append(f"object {q} not reached up to isomorphism")
    return EquivalenceReport(ff, ess, witnesses)


# ---------------------------------------------------------------------------
# restriction and extension along object maps


def restrict_objects(M, object_map, new_colors=None):
    """Pull operations back along a map of color sets into obj(M)."""
    for c, target in object_map.items():
        if target not in M.colors:
            raise DomainError(f"{c} maps to {target}, not a color of M")
    new_colors = tuple(sorted(new_colors or object_map.keys()))
    fibers = {}
    for c in M.colors:
        fibers[c] = [d for d in new_colors if object_map[d] == c]

    ops = {}
    for s in M.signatures():
        choices = [fibers[c] for c in s[0]] + [fibers[s[1]]]
        for combo in product(*choices):
            new_sig = (tuple(combo[:-1]), combo[-1])
            ops[new_sig] = tuple(M.ops_at(s))
    ops = {s: v for s, v in ops.items() if v}

    def back(s):
        return (tuple(object_map[c] for c in s[0]), object_map[s[1]])

    action = {}
    for s in ops:
        n = len(s[0])
        for p in perms.all_perms(n):
            base = M.collection.action[(back(s), p)]
            action[s, p] = dict(base)
    units = {}
    for d in new_colors:
        units[d] = M.units[object_map[d]]
    comp = {}
    for (psig, p, slot, qsig, q), r in M.comp.items():
        p_fib = [fibers[c] for c in psig[0]] + [fibers[psig[1]]]
        for combo in product(*p_fib):
            new_p = (tuple(combo[:-1]), combo[-1])
            q_fib = [fibers[c] for c in qsig[0]]
            for qcombo in product(*q_fib):
                new_q = (tuple(qcombo), new_p[0][slot])
                comp[new_p, p, slot, new_q, q] = r
    return TableMulticategory(
        collection=FiniteCollection(new_colors, ops, action),
        units=units, comp=comp, complete=M.complete,
        name=f"restrict({M.name})")


def extend_objects_injective(M, alpha, new_colors):
    """Push a multicategory forward along an injective map of color sets.

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
    fresh = [d for d in new_colors if d not in values]

    def fwd(s):
        return (tuple(alpha[c] for c in s[0]), alpha[s[1]])

    ops = {fwd(s): tuple(M.ops_at(s)) for s in M.signatures()}
    action = {}
    for s in M.ops:
        n = len(s[0])
        for p in perms.all_perms(n):
            action[fwd(s), p] = dict(M.collection.action[s, p])
    units = {alpha[c]: u for c, u in M.units.items()}
    comp = {}
    for (psig, p, slot, qsig, q), r in M.comp.items():
        comp[fwd(psig), p, slot, fwd(qsig), q] = r
    for d in fresh:
        ops[((d,), d)] = ("1",)
        for p in perms.all_perms(1):
            action[((d,), d), p] = {"1": "1"}
        units[d] = "1"
    return TableMulticategory(
        collection=FiniteCollection(new_colors, ops, action),
        units=units, comp=comp, complete=M.complete,
        name=f"extend({M.name})")
