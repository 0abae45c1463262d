"""Algebras over multicategories in finite sets.

Carriers are finite sets per color; the endomorphism multicategory has
all functions between products of carriers as operations, composition by
substitution, and the symmetric actions permuting source factors.  An
algebra structure is a multifunctor into the endomorphism multicategory
that fixes objects, and `AlgebraStructure` holds only that functor: its
action tables are read off the functor's op ids, and callers that hold
tables build one through `algebra_from_tables`.

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
symmetric action an index permutation.  Its values in the value
interface of `core` are ``(signature, index tuple)`` pairs, the tuple
listing the codomain index of each output; the searches and checks of
`homcalc` run on them.  Only `act`, `apply` and `compose1` take text:
they parse it, run the same kernel and print text, `compose1` to raise
the error of a composite beyond the cap.  The free algebras and the tree
algebra of an operad compose on a table's numbers.  `end_multicategory`
materializes a table when the total size is within a configured limit,
and `end_of_map` tabulates the pairs intertwined by a map, with
projections to the two views.
"""

import sys
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product, repeat
from math import log10
from operator import mul

from . import perms
from .core import (_gamma_by_size, check_multicategory_laws, compose_values,
                   composed_sig, sig_key, tabulate)
from .errors import BudgetExceededError, DomainError, StructuralError
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


def _signatures(inputs, outputs, arity_cap):
    """The signatures of arity at most the cap over the input and the
    output colors, sorted."""
    return sorted(((combo, c) for k in range(arity_cap + 1)
                   for combo in product(inputs, repeat=k) for c in outputs),
                  key=sig_key)


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

    def over_limit(self):
        return BudgetExceededError(
            f"enumeration at {sig_key(self.s)} exceeded the limit "
            f"{self.limit} (set size {self.size})")

    def _tables(self, entries):
        # every output tuple over the entries, in lexicographic order
        yielded = 0
        for outputs in product(entries, repeat=self.dom_size):
            yielded += 1
            if yielded > self.limit:
                raise self.over_limit()
            yield outputs

    def values(self):
        """The operations as values, in the order of the ids."""
        return zip(repeat(self.s), self._tables(range(len(self.codomain))))

    def __iter__(self):
        return map(fn_id, self._tables(self.codomain))

    def __contains__(self, opid):
        if not isinstance(opid, str) or not opid.startswith("f:"):
            return False
        table = fn_table(opid)
        return (len(table) == self.dom_size
                and all(v in self.codomain for v in table))


class EndView:
    """The endomorphism multicategory of a family, computed on demand.

    Operation ids are function tables.  In the value interface of `core`
    an operation is ``(signature, outputs)``, the outputs as codomain
    indices; :meth:`cell` and :meth:`image` compose and act on those
    tuples through maps that the view builds on first use and keeps: the
    lexicographic coordinates of each input list, a gather map for each
    (psig, slot, qsig) and an index permutation for each (signature,
    permutation).  Values compare by value, so none is numbered.  Each
    composite :meth:`cell` computes is kept, keyed by ``(v, slot, w)``,
    None marking one over the cap: values are immutable tuples, and a
    composite depends only on them and on the family and the cap, which
    the view never changes, so a kept answer is the one a new gather
    would give.
    :meth:`fixed_values_at` enumerates only the tables fixed by given
    permutations, constant on the orbits of input positions, with their
    ranks in :meth:`values_at`, so that a search passes over the others
    while still counting them against its budget and the view's limit.
    :meth:`act` and :meth:`compose1` take and give ids, through
    :meth:`value` and :meth:`ref_of`: the first for callers that hold
    text, the second for the ``beyond the cap`` error, which
    :func:`core.compose_values` raises through it."""

    complete = True
    symmetric = True

    def __init__(self, family, arity_cap=3, limit=10 ** 6, name=""):
        if arity_cap < 0:
            raise DomainError("the arity cap must be >= 0")
        self.family = family
        self.arity_cap = arity_cap
        self.limit = limit
        self.colors = family.colors
        self.name = name or "End"
        self._index = _element_index(family)
        self._coords = {}  # inputs -> (per input (index map, stride), size)
        self._gathers = {}  # (psig, slot, qsig) -> (rsig, stride, pairs)
        self._cells = {}  # (v, slot, w) -> composite value, None over cap
        self._perms = {}  # (sig, perm) -> (acted sig, source of each entry)
        self._orbit_maps = {}  # (sig, perms) -> (orbit per entry, weights)

    def _lex(self, inputs):
        got = self._coords.get(inputs)
        if got is None:
            got = self._coords[inputs] = _lex_coords(self._index, inputs)
        return got

    def signatures(self):
        return [s for s in _signatures(self.colors, self.colors,
                                       self.arity_cap)
                if _EndOps(self, s).size > 0]

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

    # the value interface

    def value(self, ref):
        s, opid = ref
        ix = self._index[s[1]]
        return s, tuple([ix[v] for v in fn_table(opid)])

    def ref_of(self, v):
        s, outputs = v
        cod = self.family.carrier(s[1])
        return s, "f:" + "|".join([cod[i] for i in outputs])

    def sig_of(self, v):
        return v[0]

    def values_at(self, s):
        ops = self.ops_at(s)
        return () if ops == () else ops.values()

    def unit_value(self, color):
        return ((color,), color), tuple(range(len(self.family.carrier(color))))

    def has_sig(self, s):
        return len(s[0]) <= self.arity_cap and bool(self.ops_at(s))

    def unit_ref(self, color):
        table = tuple(self.family.carrier(color))
        return (((color,), color), fn_id(table))

    def apply(self, ref, args):
        s, opid = ref
        return fn_table(opid)[_lex_position(self._lex(s[0])[0], args)]

    def _gather(self, psig, slot, qsig):
        # position z of p o_slot q reads p at b + stride * (q at j): the
        # composite's inputs are p's prefix, q's inputs and p's suffix,
        # in that lexicographic order; None for a composite over the cap
        rsig = composed_sig(psig, slot, qsig)
        if len(rsig[0]) > self.arity_cap:
            return None
        coords, _ = self._lex(psig[0])
        stride = coords[slot][1]
        block = stride * len(coords[slot][0])
        _, n_pre = self._lex(psig[0][:slot])
        _, n_q = self._lex(qsig[0])
        pairs = tuple((pre * block + suf, j) for pre in range(n_pre)
                      for j in range(n_q) for suf in range(stride))
        return rsig, stride, pairs

    def cell(self, v, slot, w):
        """v o_slot w on values, or None for a composite over the cap;
        each answer is kept, keyed by ``(v, slot, w)``."""
        got = self._cells.get((v, slot, w), False)
        if got is not False:
            return got
        psig, pt = v
        qsig, q = w
        key = (psig, slot, qsig)
        gather = self._gathers.get(key, False)
        if gather is False:
            gather = self._gathers[key] = self._gather(psig, slot, qsig)
        if gather is not None:
            rsig, stride, pairs = gather
            qt = [stride * j for j in q]
            got = rsig, tuple([pt[b + qt[j]] for b, j in pairs])
        else:
            got = None
        self._cells[v, slot, w] = got
        return got

    def _perm(self, s, p):
        key = (s, p)
        got = self._perms.get(key)
        if got is None:
            coords, size = self._lex(s[0])
            sizes = tuple(len(ix) for ix, _ in coords)
            got = self._perms[key] = (
                (perms.permute(s[0], p), s[1]),
                perms.act_on_function(range(size), p, sizes))
        return got

    def image(self, v, p):
        """v acted on by p, on values."""
        if p == perms.identity(len(p)):
            return v
        acted, src = self._perm(v[0], p)
        table = v[1]
        return acted, tuple([table[i] for i in src])

    def _orbits(self, s, ts):
        # the orbit of each input position under the index maps of ts,
        # numbered in the order of the orbits' minima, and per orbit the
        # weight of its positions in a table's lexicographic rank
        key = (s, ts)
        got = self._orbit_maps.get(key)
        if got is None:
            root = list(range(self._lex(s[0])[1]))
            for t in ts:
                for i, j in enumerate(self._perm(s, t)[1]):
                    while root[i] != i:
                        i = root[i]
                    while root[j] != j:
                        j = root[j]
                    root[max(i, j)] = min(i, j)
            for i, r in enumerate(root):
                root[i] = root[r]  # r < i is resolved already: a minimum
            number = {r: k for k, r in enumerate(sorted(set(root)))}
            base = len(self.family.carrier(s[1]))
            weights = [0] * len(number)
            for i, r in enumerate(root):
                weights[number[r]] += base ** (len(root) - 1 - i)
            got = self._orbit_maps[key] = [number[r] for r in root], weights
        return got

    def fixed_values_at(self, s, ts):
        """``(rank, value)`` for each value at s fixed by every permutation
        in ts, in ``values_at`` order, rank being its position there; then
        ``(size of values_at, None)``.  The fixed tables are those constant
        on the orbits of input positions under the index maps of ts: one
        entry per orbit, in the order of the orbits' minima, which is the
        lexicographic order of the tables.  A fixed table of rank at least
        the limit gives ``(limit, None)`` instead and then the limit's
        BudgetExceededError; the last table, constant, is always fixed, so
        no other draw passes the limit."""
        ops = self.ops_at(s)
        if ops == ():
            yield 0, None
            return
        orbit, weights = self._orbits(s, ts)
        for entries in product(range(len(ops.codomain)),
                               repeat=len(weights)):
            rank = sum(map(mul, entries, weights))
            if rank >= ops.limit:
                yield ops.limit, None
                raise ops.over_limit()
            yield rank, (s, tuple([entries[k] for k in orbit]))
        yield ops.size, None

    def compose1(self, pref, slot, qref):
        got = self.cell(self.value(pref), slot, self.value(qref))
        if got is None:
            rsig = composed_sig(pref[0], slot, qref[0])
            raise StructuralError(
                f"composite arity {len(rsig[0])} beyond the cap")
        return self.ref_of(got)

    def act(self, ref, p):
        return self.ref_of(self.image(self.value(ref), p))


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
    table, _, _ = tabulate(
        view.colors, {s: view.values_at(s) for s in sigs},
        {c: view.unit_value(c) for c in view.colors},
        lambda v: view.ref_of(v)[1], lambda s, v, p: view.image(v, p),
        lambda s, v, slot, qs, w: view.cell(v, slot, w),
        arity_cap=arity_cap, name=f"End({','.join(view.colors)})")
    return table


# ---------------------------------------------------------------------------
# algebra structures


def _action_key(action):
    return tuple((sig_key(s), tuple(sorted(t.items())))
                 for s, t in sorted(action.items(),
                                    key=lambda kv: sig_key(kv[0])))


@dataclass(frozen=True)
class AlgebraStructure:
    """An algebra of P: an object-fixing multifunctor from P into the
    endomorphism view of its carrier."""

    functor: Multifunctor

    @property
    def multicategory(self):
        return self.functor.source

    @property
    def carrier(self):
        return self.functor.target.family

    @cached_property
    def action(self):
        """Source signature -> {op id: function table tuple}, read once off
        the functor's op ids."""
        return {s: {op: fn_table(im) for op, im in table.items()}
                for s, table in self.functor.op_maps.items()}

    def apply(self, ref, args):
        s, op = ref
        coords, _ = _lex_coords(_element_index(self.carrier), s[0])
        return self.action[s][op][_lex_position(coords, args)]

    def key(self):
        return _action_key(self.action)


def algebra_from_tables(P, carrier, action):
    """The algebra of P on the carrier that acts by the function tables of
    ``action`` (source signature -> {op id: table}), into the endomorphism
    view at P's largest arity, at least 1."""
    view = EndView(carrier, arity_cap=max(P.max_arity(), 1))
    return AlgebraStructure(Multifunctor(
        source=P, target=view, object_map={c: c for c in P.colors},
        op_maps={s: {op: fn_id(t) for op, t in table.items()}
                 for s, table in action.items()}))


def check_algebra(A):
    return check_multifunctor(A.functor)


def enumerate_algebras(P, family, budget=10 ** 7, arity_cap=None):
    """All algebra structures on the family, as multifunctors into the
    endomorphism view that fix objects."""
    cap = arity_cap if arity_cap is not None else max(P.max_arity(), 1)
    view = EndView(family, arity_cap=cap)
    fs = enumerate_multifunctors(
        P, view, budget=budget,
        fix_objects={c: c for c in P.colors})
    return [AlgebraStructure(F) for F in fs]


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
        ws = []
        args = []
        for slot, eid in enumerate(element_ids):
            es, eop, eargs = self.decode[eid]
            composed_sig(pref[0], slot, es)  # a wrong slot or color raises
            ws.append(P.value((es, eop)))
            args.extend(eargs)
        got = _gamma_by_size(P.cell, P.value(pref), ws, P.sig_of)
        if got is None or not P.has_sig(P.sig_of(got)):
            return None
        return _canon_free(P, *P.ref_of(got), tuple(args))


def _free_id(s, op, args):
    # stays inside the carrier-name alphabet so free carriers can feed
    # back into ObjectFamily
    ins = ".".join(s[0])
    return f"{ins}>{s[1]}:{op}[{'.'.join(args)}]"


def _canon_free(P, s, op, args):
    pick = args.__getitem__
    return min([_free_id(s2, op2, tuple(map(pick, p)))
                for p, s2, op2 in P.collection.images((s, op))])


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
        for c in s[0]:
            if c not in base.carriers:
                raise DomainError(f"the target has no color {c}")
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
    """Functions from products of one carrier family into another, listed
    and counted per signature."""

    source: ObjectFamily
    target: ObjectFamily
    arity_cap: int

    def ops_at(self, s):
        _, dom = _lex_coords(_element_index(self.source), s[0])
        cod = self.target.carrier(s[1])
        return [fn_id(t) for t in product(cod, repeat=dom)]

    def size_at(self, s):
        """``len(ops_at(s))``, from the carrier sizes, listing nothing.
        A count with more decimal digits than Python turns into text
        (``sys.get_int_max_str_digits``) raises DomainError before the
        power is taken, its digits estimated as dom * log10 |B|."""
        _, dom = _lex_coords(_element_index(self.source), s[0])
        base = len(self.target.carrier(s[1]))
        limit = sys.get_int_max_str_digits()
        if limit and base > 1 and dom * log10(base) >= limit:
            raise DomainError(
                f"{base}^{dom} operations at {sig_key(s)}: the count has "
                f"more than {limit} digits")
        return base ** dom

    def signatures(self):
        return _signatures(self.source.colors, self.target.colors,
                           self.arity_cap)


def end_module(A, B, arity_cap=2):
    if arity_cap < 0:
        raise DomainError("the arity cap must be >= 0")
    return EndModule(source=A, target=B, arity_cap=arity_cap)


def _intertwined_pairs(f, viewA, viewB, s):
    """The pairs (phi, psi) at s with f . phi = psi . f^n, as values of
    the two views: psi is fixed on the image of f^n and free elsewhere,
    and phi has a partner exactly when the values it forces agree."""
    inputs, out = s
    image = _image_positions(f, viewA.family, viewB._index, inputs)
    _, size_b = viewB._lex(inputs)
    free = sorted(set(range(size_b)) - set(image))
    index_b = viewB._index[out]
    f_out = [index_b[f[out][v]] for v in viewA.family.carrier(out)]
    cod_b = range(len(index_b))
    for phi in product(range(len(f_out)), repeat=len(image)):
        psi = [None] * size_b
        for j, v in zip(image, phi):
            w = f_out[v]
            if psi[j] is None:
                psi[j] = w
            elif psi[j] != w:
                break
        else:
            for choice in product(cod_b, repeat=len(free)):
                for j, w in zip(free, choice):
                    psi[j] = w
                yield (s, phi), (s, tuple(psi))


def _check_map(f, A, B, colors):
    """f is a map from the carriers of A into those of B at the colors."""
    for c in colors:
        if c not in f or set(f[c]) != set(A.carriers.get(c, ())):
            raise DomainError(f"map not total on carrier {c}")
        if c not in B.carriers:
            raise DomainError(f"the target has no carrier {c}")
        if any(v not in B.carrier(c) for v in f[c].values()):
            raise DomainError(f"map leaves carrier {c} of the target")


def end_of_map(f, A, B, arity_cap=2, limit=200000):
    """Operations are the pairs (phi, psi) of endomorphisms intertwined by
    f; the table inherits componentwise structure, and the projections to
    the endomorphism views of A and B are returned.  The limit bounds
    each endomorphism multicategory as in `end_multicategory`."""
    _check_map(f, A, B, A.colors)
    viewA = EndView(A, arity_cap=arity_cap, limit=limit)
    viewB = EndView(B, arity_cap=arity_cap, limit=limit)
    sigs = _signatures_within(viewA, limit)
    _signatures_within(viewB, limit)

    def pair_id(pair):
        return f"<{viewA.ref_of(pair[0])[1]},{viewB.ref_of(pair[1])[1]}>"

    def act(s, pair, p):
        return viewA.image(pair[0], p), viewB.image(pair[1], p)

    def compose(s, pair, slot, qs, arg):
        return (viewA.cell(pair[0], slot, arg[0]),
                viewB.cell(pair[1], slot, arg[1]))

    table, pairs, _ = tabulate(
        A.colors,
        {s: list(_intertwined_pairs(f, viewA, viewB, s)) for s in sigs},
        {c: (viewA.unit_value(c), viewB.unit_value(c)) for c in A.colors},
        pair_id, act, compose, arity_cap=arity_cap, name="End(f)")

    def projection(i, view):
        return Multifunctor(
            source=table, target=view, object_map={c: c for c in A.colors},
            op_maps={s: {pid: view.ref_of(pairs[s, pid][i])[1]
                         for pid in ids}
                     for s, ids in table.ops.items()})

    return table, projection(0, viewA), projection(1, viewB)


def is_algebra_hom(alg0, alg1, f):
    """The intertwining criterion, checked on every operation."""
    P = alg0.multicategory
    _check_map(f, alg0.carrier, alg1.carrier, P.colors)
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
    multicategory through `core.tabulate`: carriers become the operation
    sets, the numbered corollas act, the two-vertex trees compose; the
    result is law-checked.  A missing carrier is an empty operation set."""
    from .trees import op_signature, op_text

    def evaluate(tree, args):
        ref = (op_signature(tree), op_text(tree))
        try:
            return alg.apply(ref, args)
        except KeyError:
            raise DomainError(
                f"the algebra does not act by the tree {ref[1]} at "
                f"{sig_key(ref[0])}: the read-off needs an algebra over the "
                f"tree multicategory") from None

    def act(s, el, p):
        return evaluate(_corolla_tree(len(p), perms.inverse(p)), (el,))

    def compose(s, p, slot, qs, q):
        return evaluate(_slot_tree(len(s[0]), slot, len(qs[0])), (p, q))

    table, _, _ = tabulate(
        ("x",), {(("x",) * n, "x"): alg.carrier.carriers.get(str(n), ())
                 for n in range(max_arity + 1)},
        {"x": evaluate(("L", 0), ())}, lambda el: el, act, compose,
        arity_cap=max_arity, name="read-off")
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
        # returns (value, leaf indices in planar order): an input edge is
        # the unit, a vertex the composite of its operation with its
        # children
        if node[0] == "L":
            return P.unit_value(color), [node[1]]
        _, vnum, children = node
        v = P.value((((color,) * len(children), color), args[vnum]))
        ws, idxs = [], []
        for child in children:
            w, cidx = planar_eval(child, args)
            ws.append(w)
            idxs.extend(cidx)
        return _gamma_by_size(partial(compose_values, P), v, ws,
                              P.sig_of), idxs

    action = {}
    for s in op_table.signatures():
        table = {}
        for tid in op_table.ops_at(s):
            tree = op_structure[s, tid]
            domains = [family.carrier(c) for c in s[0]]
            table[tid] = tuple(
                P.ref_of(perms.unshuffle(P.image,
                                         *planar_eval(tree, args)))[1]
                for args in product(*domains))
        action[s] = table
    return algebra_from_tables(op_table, family, action)


# ---------------------------------------------------------------------------
# algebras over the arrow construction


def p1_algebras_as_triples(P, A0, A1, budget=10 ** 7):
    """Certify the correspondence between algebras over the level-1 arrow
    construction on carriers (A0, A1) and triples (structure on A0,
    structure on A1, homomorphism)."""
    from .presents import arrow_multicategory

    P1 = arrow_multicategory(P, 1)
    base = P.colors[0]
    if any(base not in A.carriers for A in (A0, A1)):
        raise DomainError(f"the target has no color {base}")
    family = ObjectFamily({"0": A0.carrier(base), "1": A1.carrier(base)})
    arrow_algebras = enumerate_algebras(P1, family, budget=budget)

    alg0 = enumerate_algebras(P, A0, budget=budget)
    alg1 = enumerate_algebras(P, A1, budget=budget)
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
        ftable = alg.action[(("0",), "1")][P.units[base]]
        return (_action_key(act0), _action_key(act1), tuple(ftable))

    got = sorted(split(alg) for alg in arrow_algebras)
    want = sorted((a0.key(), a1.key(), f) for a0, a1, f in triples)
    return {
        "arrow_count": len(arrow_algebras),
        "triple_count": len(triples),
        "bijective": got == want,
    }
