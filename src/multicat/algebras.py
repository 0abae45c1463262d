"""Algebras over multicategories in finite sets.

Carriers are finite sets per color; the endomorphism multicategory has
all functions between products of carriers as operations, composition by
substitution, and the symmetric actions permuting source factors.  An
algebra structure is equivalently a family of action tables or a
multifunctor into the endomorphism multicategory fixing objects; both
encodings are supported and interconvert losslessly.

A function is identified by its table ``f:a|b|…``, the outputs listed
over the lexicographic order of the product of input carriers.  These
string ids are what callers see: in ``ops_at``, in the results of
composition and of the actions, in multifunctor maps and in JSON.
Inside, the kernel works on positions in that order: `_lex_coords` gives
each input's element->index map and stride, from which a position is a
stride sum.

`EndView` exposes the endomorphism multicategory lazily so that large
carriers never materialize full tables; per signature it keeps the
strides, per slot composition of signatures a gather map and per
symmetric action an index permutation.  `end_multicategory`
materializes a table when the total size is within a configured limit,
and `end_of_map` tabulates the pairs intertwined by a map, with
projections to the two views.
"""

from dataclasses import dataclass
from itertools import product

from . import perms
from .core import (FiniteCollection, TableMulticategory,
                   check_multicategory_laws, composed_sig, sig_key)
from .errors import (BudgetExceededError, CompositionError, DomainError,
                     StructuralError)
from .homcalc import Multifunctor, check_multifunctor, enumerate_multifunctors


@dataclass(frozen=True)
class ObjectFamily:
    carriers: dict  # color -> tuple of element names

    def __post_init__(self):
        for c, elems in self.carriers.items():
            if len(set(elems)) != len(elems):
                raise StructuralError(f"duplicate elements in carrier {c}")
            for e in elems:
                if any(ch in e for ch in "|,(){}; ") :
                    raise StructuralError(f"element name {e!r} not allowed")

    @property
    def colors(self):
        return tuple(sorted(self.carriers))

    def carrier(self, c):
        return self.carriers[c]


def fn_id(table):
    return "f:" + "|".join(table)


def fn_table(opid):
    body = opid[2:]
    return tuple(body.split("|")) if body else ()


def _element_index(family):
    """Per color, the element->index map of its carrier."""
    return {c: {e: i for i, e in enumerate(family.carrier(c))}
            for c in family.colors}


def _lex_coords(index, inputs):
    """Per input color, its element->index map and its stride in the
    lexicographic order of the product of carriers; and the size of
    that product."""
    coords = []
    stride = 1
    for c in reversed(inputs):
        coords.append((index[c], stride))
        stride *= len(index[c])
    return tuple(reversed(coords)), stride


def _lex_position(coords, args):
    return sum(ix[a] * st for (ix, st), a in zip(coords, args))


def _image_positions(f, family, target_index, inputs):
    """Position of f(z) in the target's order, for each z of the family's
    product in lexicographic order."""
    coords, _ = _lex_coords(target_index, inputs)
    maps = [f[c] for c in inputs]
    return [_lex_position(coords, [m[v] for m, v in zip(maps, z)])
            for z in product(*map(family.carrier, inputs))]


class _EndOps:
    """Lazily enumerated operation set at one signature."""

    def __init__(self, view, s):
        self.s = s
        self.limit = view.limit
        self.codomain = view.family.carrier(s[1])
        self.dom_size = view._lex(s[0])[1]
        self.size = len(self.codomain) ** self.dom_size

    def __bool__(self):
        return self.size > 0

    def __iter__(self):
        yielded = 0
        for outputs in product(self.codomain, repeat=self.dom_size):
            yielded += 1
            if yielded > self.limit:
                raise BudgetExceededError(
                    f"enumeration at {sig_key(self.s)} exceeded the limit "
                    f"{self.limit} (set size {self.size})")
            yield fn_id(outputs)

    def __contains__(self, opid):
        if not isinstance(opid, str) or not opid.startswith("f:"):
            return False
        table = fn_table(opid)
        return (len(table) == self.dom_size
                and all(v in self.codomain for v in table))


class EndView:
    """The endomorphism multicategory of a family, computed on demand.

    Operation ids are function tables; composition and the actions
    rearrange positions of those tables through maps that the view builds
    on first use and keeps: the lexicographic coordinates of each input
    list, a gather map for each (psig, slot, qsig) and an index
    permutation for each (signature, permutation)."""

    complete = True
    symmetric = True

    def __init__(self, family, arity_cap=3, limit=10 ** 6, name=""):
        self.family = family
        self.arity_cap = arity_cap
        self.limit = limit
        self.colors = family.colors
        self.name = name or "End"
        self.comp = {}  # no tabulated entries; everything is computed
        self._index = _element_index(family)
        self._coords = {}  # inputs -> (per input (index map, stride), size)
        self._gathers = {}  # (psig, slot, qsig) -> (rsig, stride, pairs)
        self._perms = {}  # (sig, perm) -> source position of each entry

    def _lex(self, inputs):
        got = self._coords.get(inputs)
        if got is None:
            got = self._coords[inputs] = _lex_coords(self._index, inputs)
        return got

    def max_arity(self):
        return self.arity_cap

    def signatures(self):
        out = []
        for k in range(self.arity_cap + 1):
            for combo in product(self.colors, repeat=k):
                for c in self.colors:
                    s = (combo, c)
                    if _EndOps(self, s).size > 0:
                        out.append(s)
        return sorted(out, key=sig_key)

    def ops_at(self, s):
        if len(s[0]) > self.arity_cap:
            return ()
        if not (set(s[0]) <= set(self.colors) and s[1] in self.colors):
            return ()
        return _EndOps(self, s)

    def iter_ops(self, s):
        ops = self.ops_at(s)
        if ops == ():
            return
        yield from ops

    def has_sig(self, s):
        return len(s[0]) <= self.arity_cap and bool(self.ops_at(s))

    def unit_ref(self, color):
        table = tuple(self.family.carrier(color))
        return (((color,), color), fn_id(table))

    def is_unit(self, ref):
        return ref == self.unit_ref(ref[0][1])

    def apply(self, ref, args):
        s, opid = ref
        return fn_table(opid)[_lex_position(self._lex(s[0])[0], args)]

    def _gather(self, psig, slot, qsig):
        # position z of p o_slot q reads p at b + stride * (q at j): the
        # composite's inputs are p's prefix, q's inputs and p's suffix,
        # in that lexicographic order
        rsig = composed_sig(psig, slot, qsig)
        if len(rsig[0]) > self.arity_cap:
            raise StructuralError(
                f"composite arity {len(rsig[0])} beyond the cap")
        coords, _ = self._lex(psig[0])
        stride = coords[slot][1]
        block = stride * len(coords[slot][0])
        _, n_pre = self._lex(psig[0][:slot])
        _, n_q = self._lex(qsig[0])
        pairs = tuple((pre * block + suf, j) for pre in range(n_pre)
                      for j in range(n_q) for suf in range(stride))
        return rsig, stride, pairs

    def compose1(self, pref, slot, qref):
        psig, p = pref
        qsig, q = qref
        key = (psig, slot, qsig)
        gather = self._gathers.get(key)
        if gather is None:
            gather = self._gathers[key] = self._gather(psig, slot, qsig)
        rsig, stride, pairs = gather
        if not pairs:  # an empty domain: neither table is read
            return (rsig, "f:")
        pt = p[2:].split("|")
        ix = self._index[qsig[1]]
        qt = [stride * ix[v] for v in q[2:].split("|")]
        return (rsig, "f:" + "|".join([pt[b + qt[j]] for b, j in pairs]))

    def try_compose1(self, pref, slot, qref):
        try:
            return self.compose1(pref, slot, qref)
        except StructuralError:
            return None

    def gamma(self, pref, qrefs):
        from .core import _gamma_by_size

        psig, _ = pref
        if len(qrefs) != len(psig[0]):
            raise CompositionError(
                f"gamma needs {len(psig[0])} arguments, got {len(qrefs)}")
        return _gamma_by_size(self.compose1, pref, qrefs)

    def act(self, ref, p):
        s, opid = ref
        if p == perms.identity(len(p)):
            return ref
        key = (s, p)
        src = self._perms.get(key)
        if src is None:
            coords, size = self._lex(s[0])
            sizes = tuple(len(ix) for ix, _ in coords)
            src = self._perms[key] = perms.act_on_function(
                range(size), p, sizes)
        table = opid[2:].split("|")
        return ((perms.permute(s[0], p), s[1]),
                "f:" + "|".join([table[i] for i in src]))


def _signatures_within(view, limit):
    """The view's signatures, once their operations number at most the
    limit in total."""
    sigs = view.signatures()
    total = sum(view.ops_at(s).size for s in sigs)
    if total > limit:
        raise BudgetExceededError(
            f"{total} operations exceed the materialization limit {limit}")
    return sigs


def end_multicategory(A, arity_cap=2, limit=200000):
    """Materialized endomorphism multicategory; raises when the total
    number of operations exceeds the limit."""
    view = EndView(A, arity_cap=arity_cap, limit=limit)
    sigs = _signatures_within(view, limit)
    ops = {s: tuple(sorted(view.ops_at(s))) for s in sigs}
    action = {}
    for s in sigs:
        n = len(s[0])
        for p in perms.all_perms(n):
            action[s, p] = {op: view.act((s, op), p)[1] for op in ops[s]}
    units = {c: view.unit_ref(c)[1] for c in view.colors}
    comp = {}
    for s in sigs:
        for slot, color in enumerate(s[0]):
            for qs in sigs:
                if qs[1] != color:
                    continue
                rsig = composed_sig(s, slot, qs)
                if len(rsig[0]) > arity_cap:
                    continue
                for p in ops[s]:
                    for q in ops[qs]:
                        comp[s, p, slot, qs, q] = view.compose1(
                            (s, p), slot, (qs, q))[1]
    return TableMulticategory(
        collection=FiniteCollection(view.colors, ops, action),
        units=units, comp=comp, name=f"End({','.join(view.colors)})")


# ---------------------------------------------------------------------------
# algebra structures


@dataclass
class AlgebraStructure:
    multicategory: object
    carrier: ObjectFamily
    action: dict  # source signature -> {op id: function table tuple}

    def to_multifunctor(self, arity_cap=None, limit=10 ** 6):
        P = self.multicategory
        cap = arity_cap if arity_cap is not None else max(P.max_arity(), 1)
        view = EndView(self.carrier, arity_cap=cap, limit=limit)
        op_maps = {s: {op: fn_id(t) for op, t in table.items()}
                   for s, table in self.action.items()}
        return Multifunctor(
            source=P, target=view,
            object_map={c: c for c in P.colors}, op_maps=op_maps)

    def apply(self, ref, args):
        s, op = ref
        coords, _ = _lex_coords(_element_index(self.carrier), s[0])
        return self.action[s][op][_lex_position(coords, args)]

    def key(self):
        return tuple(
            (sig_key(s), tuple(sorted(t.items())))
            for s, t in sorted(self.action.items(),
                               key=lambda kv: sig_key(kv[0])))


def algebra_from_multifunctor(F):
    action = {}
    for s, table in F.op_maps.items():
        action[s] = {op: fn_table(im) for op, im in table.items()}
    return AlgebraStructure(
        multicategory=F.source, carrier=F.target.family, action=action)


def check_algebra(A):
    return check_multifunctor(A.to_multifunctor())


def enumerate_algebras(P, family, budget=10 ** 7, arity_cap=None):
    """All algebra structures on the family, as multifunctors into the
    endomorphism view that fix objects."""
    cap = arity_cap if arity_cap is not None else max(P.max_arity(), 1)
    view = EndView(family, arity_cap=cap)
    fs = enumerate_multifunctors(
        P, view, budget=budget,
        fix_objects={c: c for c in P.colors})
    return [algebra_from_multifunctor(F) for F in fs]


# ---------------------------------------------------------------------------
# free algebras


@dataclass
class FreeAlgebra:
    multicategory: object
    base: ObjectFamily
    carriers: dict  # color -> tuple of element ids
    decode: dict  # element id -> (sig, op id, argument tuple)

    def family(self):
        return ObjectFamily({c: tuple(v) for c, v in self.carriers.items()})

    def eta(self, color, a):
        P = self.multicategory
        s, u = P.unit_ref(color)
        return _free_id(s, u, (a,))

    def mu(self, pref, element_ids):
        """Substitute free elements into an operation: compose in P and
        concatenate arguments; None when outside the truncation."""
        P = self.multicategory
        s, _ = pref
        qrefs = []
        args = []
        for eid in element_ids:
            es, eop, eargs = self.decode[eid]
            qrefs.append((es, eop))
            args.extend(eargs)
        try:
            rs, rop = P.gamma(pref, qrefs)
        except StructuralError:
            return None
        if not P.has_sig(rs):
            return None
        return _canon_free(P, rs, rop, tuple(args))


def _free_id(s, op, args):
    # stays inside the carrier-name alphabet so free carriers can feed
    # back into ObjectFamily
    ins = ".".join(s[0])
    return f"{ins}>{s[1]}:{op}[{'.'.join(args)}]"


def _canon_free(P, s, op, args):
    n = len(args)
    best = None
    for p in perms.all_perms(n):
        s2, op2 = P.act((s, op), p)
        args2 = tuple(args[p[i]] for i in range(n))
        cand = _free_id(s2, op2, args2)
        if best is None or cand < best:
            best = cand
    return best


def free_algebra(P, base, arity_cap=None):
    """Levelwise orbit construction of the free algebra: an element is an
    operation together with a tuple of base elements, modulo the
    simultaneous symmetric action."""
    cap = arity_cap if arity_cap is not None else P.max_arity()
    carriers = {c: [] for c in P.colors}
    decode = {}
    for s in P.signatures():
        if len(s[0]) > cap:
            continue
        domains = [base.carrier(c) for c in s[0]]
        for op in P.ops_at(s):
            for args in product(*domains):
                eid = _canon_free(P, s, op, tuple(args))
                if eid not in decode:
                    decode[eid] = (s, op, tuple(args))
                    carriers[s[1]].append(eid)
    carriers = {c: tuple(sorted(v)) for c, v in carriers.items()}
    return FreeAlgebra(multicategory=P, base=base, carriers=carriers,
                       decode=decode)


# ---------------------------------------------------------------------------
# endomorphism data for pairs and maps


@dataclass
class EndModule:
    """Functions between products of two carrier families, with the left
    action of the target's endomorphisms and the right action of the
    source's, both by substitution."""

    source: ObjectFamily
    target: ObjectFamily
    arity_cap: int

    def ops_at(self, s):
        _, dom = _lex_coords(_element_index(self.source), s[0])
        cod = self.target.carrier(s[1])
        return [fn_id(t) for t in product(cod, repeat=dom)]

    def signatures(self):
        out = []
        for k in range(self.arity_cap + 1):
            for combo in product(self.source.colors, repeat=k):
                for c in self.target.colors:
                    out.append((combo, c))
        return sorted(out, key=sig_key)

    def apply(self, ref, args):
        s, opid = ref
        coords, _ = _lex_coords(_element_index(self.source), s[0])
        return fn_table(opid)[_lex_position(coords, args)]

    def act(self, ref, p):
        s, opid = ref
        sizes = tuple(len(self.source.carrier(c)) for c in s[0])
        table = perms.act_on_function(fn_table(opid), p, sizes)
        return ((perms.permute(s[0], p), s[1]), fn_id(table))

    def left_act(self, psi_ref, module_refs):
        """psi in End(target) applied after a tuple of module elements."""
        sig_inputs = tuple(c for ref in module_refs for c in ref[0][0])
        rsig = (sig_inputs, psi_ref[0][1])
        view = EndView(self.target, arity_cap=len(psi_ref[0][0]))
        out = []
        for z in product(*map(self.source.carrier, rsig[0])):
            mids = []
            pos = 0
            for ref in module_refs:
                k = len(ref[0][0])
                mids.append(self.apply(ref, z[pos:pos + k]))
                pos += k
            out.append(view.apply(psi_ref, mids))
        return (rsig, fn_id(out))

    def right_act1(self, mref, slot, phi_ref):
        """One endomorphism of the source substituted into one input."""
        msig, _ = mref
        rsig = composed_sig(msig, slot, phi_ref[0])
        view = EndView(self.source, arity_cap=len(phi_ref[0][0]))
        k = len(phi_ref[0][0])
        out = []
        for z in product(*map(self.source.carrier, rsig[0])):
            mid = view.apply(phi_ref, z[slot:slot + k])
            out.append(self.apply(mref, z[:slot] + (mid,) + z[slot + k:]))
        return (rsig, fn_id(out))


def end_module(A, B, arity_cap=2):
    return EndModule(source=A, target=B, arity_cap=arity_cap)


def _intertwined_pairs(f, viewA, viewB, s):
    """The pairs (phi, psi) at s with f . phi = psi . f^n: psi is fixed on
    the image of f^n and free elsewhere, and phi has a partner exactly
    when the values it forces agree."""
    inputs, out = s
    image = _image_positions(f, viewA.family, viewB._index, inputs)
    _, size_b = viewB._lex(inputs)
    free = sorted(set(range(size_b)) - set(image))
    f_out = f[out]
    cod_b = viewB.family.carrier(out)
    for phi in product(viewA.family.carrier(out), repeat=len(image)):
        psi = [None] * size_b
        for j, v in zip(image, phi):
            w = f_out[v]
            if psi[j] is None:
                psi[j] = w
            elif psi[j] != w:
                break
        else:
            phi_id = fn_id(phi)
            for choice in product(cod_b, repeat=len(free)):
                for j, w in zip(free, choice):
                    psi[j] = w
                yield phi_id, fn_id(psi)


def end_of_map(f, A, B, arity_cap=2, limit=200000):
    """Operations are the pairs (phi, psi) of endomorphisms intertwined by
    f; the table inherits componentwise structure, and the projections to
    the endomorphism views of A and B are returned.  The limit bounds
    each endomorphism multicategory as in `end_multicategory`."""
    for c in A.colors:
        if set(f[c]) != set(A.carrier(c)):
            raise DomainError(f"map not total on carrier {c}")
        if any(v not in B.carrier(c) for v in f[c].values()):
            raise DomainError(f"map leaves carrier {c} of the target")
    viewA = EndView(A, arity_cap=arity_cap, limit=limit)
    viewB = EndView(B, arity_cap=arity_cap, limit=limit)
    sigs = _signatures_within(viewA, limit)
    _signatures_within(viewB, limit)

    def pair_id(phi, psi):
        return f"<{phi},{psi}>"

    ops = {}
    pairs = {}
    for s in sigs:
        ids = []
        for phi, psi in _intertwined_pairs(f, viewA, viewB, s):
            pid = pair_id(phi, psi)
            ids.append(pid)
            pairs[s, pid] = (phi, psi)
        if ids:
            ops[s] = tuple(sorted(ids))

    action = {}
    for s in ops:
        n = len(s[0])
        for p in perms.all_perms(n):
            table = {}
            for pid in ops[s]:
                phi, psi = pairs[s, pid]
                table[pid] = pair_id(
                    viewA.act((s, phi), p)[1], viewB.act((s, psi), p)[1])
            action[s, p] = table
    units = {c: pair_id(viewA.unit_ref(c)[1], viewB.unit_ref(c)[1])
             for c in A.colors}
    comp = {}
    for s in ops:
        for slot, color in enumerate(s[0]):
            for qs in ops:
                if qs[1] != color:
                    continue
                rsig = composed_sig(s, slot, qs)
                if rsig not in ops:
                    continue
                for pid in ops[s]:
                    phi, psi = pairs[s, pid]
                    for qid in ops[qs]:
                        phi2, psi2 = pairs[qs, qid]
                        rphi = viewA.compose1((s, phi), slot, (qs, phi2))[1]
                        rpsi = viewB.compose1((s, psi), slot, (qs, psi2))[1]
                        comp[s, pid, slot, qs, qid] = pair_id(rphi, rpsi)
    table = TableMulticategory(
        collection=FiniteCollection(A.colors, ops, action),
        units=units, comp=comp, name="End(f)")
    projA = Multifunctor(
        source=table, target=viewA,
        object_map={c: c for c in A.colors},
        op_maps={s: {pid: pairs[s, pid][0] for pid in ops[s]} for s in ops})
    projB = Multifunctor(
        source=table, target=viewB,
        object_map={c: c for c in A.colors},
        op_maps={s: {pid: pairs[s, pid][1] for pid in ops[s]} for s in ops})
    return table, projA, projB


def is_algebra_hom(alg0, alg1, f):
    """The intertwining criterion, checked on every operation."""
    P = alg0.multicategory
    index1 = _element_index(alg1.carrier)
    for s in P.signatures():
        image = _image_positions(f, alg0.carrier, index1, s[0])
        f_out = f[s[1]]
        for op in P.ops_at(s):
            t0 = alg0.action[s][op]
            t1 = alg1.action[s][op]
            if any(f_out[v] != t1[j] for v, j in zip(t0, image)):
                return False
    return True


# ---------------------------------------------------------------------------
# algebras over the tree multicategory are operads


def _slot_tree(n, i, k):
    """Two-vertex tree: an n-valent root (vertex 0) with a k-valent vertex
    (vertex 1) on input slot i, leaves numbered left to right."""
    children = []
    for j in range(n):
        if j == i:
            inner = tuple(("L", i + l) for l in range(k))
            children.append(("V", 1, inner))
        else:
            children.append(("L", j if j < i else j + k - 1))
    return ("V", 0, tuple(children))


def _corolla_tree(n, numbering):
    """Corolla whose planar slot s carries the leaf numbered numbering[s]."""
    return ("V", 0, tuple(("L", numbering[s]) for s in range(n)))


def op_algebra_to_operad(alg, max_arity=3):
    """Read a single-colored operad off an algebra over the tree
    multicategory: carriers become the operation sets, slot composition
    comes from the two-vertex trees, the symmetric actions from the
    numbered corollas; the result is law-checked."""
    from .trees import op_text

    family = alg.carrier
    colors = ("x",)
    ops = {}
    for n in range(max_arity + 1):
        if family.carrier(str(n)):
            ops[(("x",) * n, "x")] = tuple(family.carrier(str(n)))

    def act_tree(tree, in_colors, args):
        s = (tuple(in_colors), str_leafcount(tree))
        opid = op_text(tree)
        return alg.apply((s, opid), args)

    def str_leafcount(tree):
        def count(node):
            return 1 if node[0] == "L" else sum(count(c) for c in node[2])
        return str(count(tree))

    units = {"x": act_tree(("L", 0), (), ())}

    comp = {}
    for n in range(1, max_arity + 1):
        for k in range(max_arity + 1):
            if n + k - 1 > max_arity:
                continue
            for i in range(n):
                tree = _slot_tree(n, i, k)
                for p in family.carrier(str(n)):
                    for q in family.carrier(str(k)):
                        r = act_tree(tree, (str(n), str(k)), (p, q))
                        comp[(("x",) * n, "x"), p, i,
                             (("x",) * k, "x"), q] = r
    action = {}
    for n in range(max_arity + 1):
        s = (("x",) * n, "x")
        for p in perms.all_perms(n):
            tree = _corolla_tree(n, perms.inverse(p))
            action[s, p] = {
                el: act_tree(tree, (str(n),), (el,))
                for el in family.carrier(str(n))}
    table = TableMulticategory(
        collection=FiniteCollection(colors, ops, action),
        units=units, comp=comp, name="read-off")
    return table, check_multicategory_laws(table)


def operad_to_op_algebra(P, op_table, op_structure, max_arity=3):
    """Package a single-colored operad as an algebra over the tree
    multicategory: the carrier at arity n is P(n) and a numbered tree acts
    by evaluating the composite it denotes."""
    if len(P.colors) != 1:
        raise DomainError("packaging needs a single color")
    color = P.colors[0]
    family = ObjectFamily({
        str(n): tuple(P.ops_at(((color,) * n, color)))
        for n in range(max_arity + 1)})

    def planar_eval(node, args):
        # returns (ref, leaf indices in planar order); vertex children are
        # composed smallest-arity-first so intermediates stay inside the
        # truncated support
        if node[0] == "L":
            return None, [node[1]]
        _, vnum, children = node
        n = len(children)
        ref = (((color,) * n, color), args[vnum])
        idxs = []
        pending = []
        positions = {}
        for slot, child in enumerate(children):
            if child[0] == "L":
                idxs.append(child[1])
            else:
                cref, cidx = planar_eval(child, args)
                idxs.extend(cidx)
                positions[slot] = slot
                pending.append((slot, cref))
        pending.sort(key=lambda item: len(item[1][0][0]))
        for slot, cref in pending:
            pos = positions[slot]
            k = len(cref[0][0])
            ref = P.compose1(ref, pos, cref)
            for other in positions:
                if positions[other] > pos:
                    positions[other] += k - 1
        return ref, idxs

    action = {}
    for s in op_table.signatures():
        table = {}
        for tid in op_table.ops_at(s):
            tree = op_structure[s, tid]
            domains = [family.carrier(c) for c in s[0]]
            out = []
            for args in product(*domains):
                ref, idxs = planar_eval(tree, args)
                if ref is None:
                    # the bare edge: value is the operad unit
                    out.append(P.unit_ref(color)[1])
                    continue
                if idxs:
                    ref = P.act(ref, perms.inverse(tuple(idxs)))
                out.append(ref[1])
            table[tid] = tuple(out)
        action[s] = table
    return AlgebraStructure(multicategory=op_table, carrier=family,
                            action=action)


# ---------------------------------------------------------------------------
# algebras over the arrow construction


def p1_algebras_as_triples(P, A0, A1, budget=10 ** 7):
    """Certify the correspondence between algebras over the level-1 arrow
    construction on carriers (A0, A1) and triples (structure on A0,
    structure on A1, homomorphism)."""
    from .presents import arrow_multicategory

    P1 = arrow_multicategory(P, 1)
    family = ObjectFamily({"0": A0.carrier(P.colors[0]),
                           "1": A1.carrier(P.colors[0])})
    arrow_algebras = enumerate_algebras(P1, family, budget=budget)

    alg0 = enumerate_algebras(P, A0, budget=budget)
    alg1 = enumerate_algebras(P, A1, budget=budget)
    base = P.colors[0]
    triples = []
    for a0 in alg0:
        for a1 in alg1:
            for fvals in product(A1.carrier(base),
                                 repeat=len(A0.carrier(base))):
                f = {base: dict(zip(A0.carrier(base), fvals))}
                if is_algebra_hom(a0, a1, f):
                    triples.append((a0, a1, tuple(fvals)))

    # arrow algebra -> triple
    def split(alg):
        act0, act1 = {}, {}
        for s, table in alg.action.items():
            if set(s[0]) <= {"0"} and s[1] == "0":
                act0[((base,) * len(s[0]), base)] = dict(table)
            if set(s[0]) <= {"1"} and s[1] == "1":
                act1[((base,) * len(s[0]), base)] = dict(table)
        a0 = AlgebraStructure(P, A0, act0)
        a1 = AlgebraStructure(P, A1, act1)
        usig = (("0",), "1")
        ftable = alg.action[usig][P.units[base]]
        return (a0.key(), a1.key(), tuple(ftable))

    got = sorted(split(alg) for alg in arrow_algebras)
    want = sorted((a0.key(), a1.key(), f) for a0, a1, f in triples)
    return {
        "arrow_count": len(arrow_algebras),
        "triple_count": len(triples),
        "bijective": got == want,
    }
