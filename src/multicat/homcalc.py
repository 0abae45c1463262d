"""Multifunctors, multilinear transformations, and the internal hom.

A k-ary transformation between multifunctors F_1..F_k -> G assigns to
every color a component in the target; it is natural when, for every
source operation, composing the components into the image of the
operation under G agrees (through the block transposition that regroups
m blocks of k inputs into k blocks of m) with composing the images under
the F_j into the component at the output color.  These transformations
are the operations of the hom multicategory, with composition and
symmetric actions inherited from the target.

The multifunctor search, its check and the naturality squares run on the
source's numbers and the target's values (the value interface of `core`:
a table's numbers, an ``EndView``'s index tuples), and so does
`evaluate_term`, which `hom_to_tensor` runs on each class of the tensor.
Text ids are made only where a result leaves: `Multifunctor.op_maps`,
`KNatTransformation.components`, the op ids of the hom table and the
witnesses.
"""

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from types import MappingProxyType

from . import perms
from .core import (LawReport, TableMulticategory, _gamma_by_size, _ref_str,
                   backtrack, compose_values, composed_sig, sig_key,
                   tabulate)
from .errors import (BudgetExceededError, DomainError, PartialInputError,
                     StructuralError)
from .presents import bv_tensor, pair_color, tensor_generator


@dataclass(frozen=True)
class Multifunctor:
    """A value: the object map and the operation maps are read-only once
    made, so an edit is a `dataclasses.replace` with new maps.  ``images``
    holds the images on the source's numbers as values of the target,
    read off the maps once asked for (`_Images`); a replaced copy starts
    with none."""

    source: object
    target: object
    object_map: dict
    op_maps: dict  # source signature -> {op id: target op id}
    name: str = ""
    images: dict = field(init=False, default_factory=dict, compare=False,
                         repr=False)

    def __post_init__(self):
        for c in self.source.colors:
            if c not in self.object_map:
                raise DomainError(f"the object map has no image for color {c}")
        object.__setattr__(self, "object_map",
                           MappingProxyType(dict(self.object_map)))
        object.__setattr__(self, "op_maps", MappingProxyType(
            {s: MappingProxyType(dict(t)) for s, t in self.op_maps.items()}))

    def map_sig(self, s):
        return (tuple(self.object_map[c] for c in s[0]),
                self.object_map[s[1]])

    def map_ref(self, ref):
        s, op = ref
        table = self.op_maps.get(s)
        if table is None or op not in table:
            raise StructuralError(f"no image for {sig_key(s)}:{op}")
        return (self.map_sig(s), table[op])

    def key(self):
        return (tuple(sorted(self.object_map.items())),
                tuple((sig_key(s), tuple(sorted(t.items())))
                      for s, t in sorted(self.op_maps.items(),
                                         key=lambda kv: sig_key(kv[0]))))


def identity_multifunctor(P):
    return Multifunctor(
        source=P, target=P,
        object_map={c: c for c in P.colors},
        op_maps={s: {op: op for op in P.ops_at(s)} for s in P.signatures()},
        name="id")


def compose_multifunctors(F, G):
    """G after F."""
    op_maps = {}
    for s, table in F.op_maps.items():
        ms = F.map_sig(s)
        op_maps[s] = {op: G.map_ref((ms, im))[1] for op, im in table.items()}
    return Multifunctor(
        source=F.source, target=G.target,
        object_map={c: G.object_map[F.object_map[c]]
                    for c in F.object_map},
        op_maps=op_maps, name=f"{G.name}.{F.name}")


class _Images:
    """The images of a multifunctor F on the source's numbers, as values of
    Q, read off ``op_maps`` once asked for; None where there is no image.

    In F's own target they are ``F.images``, so every check of F reads
    each image once; `enumerate_multifunctors` fills them from its
    assignment.  F is immutable, so those images stay its own.  In another
    target they are read afresh."""

    def __init__(self, F, Q):
        self.F, self.Q = F, Q
        self.refs = F.source.collection.numbering.refs
        self.got = F.images if Q is F.target else {}

    def __call__(self, m):
        got = self.got.get(m, False)
        if got is False:
            s, op = self.refs[m]
            table = self.F.op_maps.get(s)
            got = self.got[m] = None if table is None or op not in table \
                else self.Q.value((self.F.map_sig(s), table[op]))
        return got


def check_multifunctor(F):
    """Totality, unit preservation, equivariance, and compatibility with
    every tabulated composition of the source, on the source's numbers
    and the target's values."""
    P, Q = F.source, F.target
    report = LawReport()
    total = 0
    for s in P.signatures():
        table = F.op_maps.get(s, {})
        ms = F.map_sig(s)
        for op in P.ops_at(s):
            total += 1
            if op not in table:
                report.fail("total", f"{sig_key(s)}:{op}")
            elif table[op] not in Q.ops_at(ms):
                report.fail("lands-in-target", f"{sig_key(s)}:{op}")
    if total:
        report.note("total", total)
    if report.violations:
        return report
    num = P.collection.numbering
    images = _Images(F, Q)

    def image(m):
        got = images(m)
        if got is None:
            F.map_ref(num.refs[m])  # raises: no image
        return got

    if P.colors:
        report.note("units", len(P.colors))
    for c in P.colors:
        if image(num.number(P.unit_ref(c))) != Q.unit_value(
                F.object_map[c]):
            report.fail("units", f"color {c}")
    if P.symmetric:
        count = 0
        for s in P.signatures():
            ms = P.values_at(s)
            ps = perms.all_perms(len(s[0]))
            count += len(ps) * len(ms)
            for p in ps:
                for m in ms:
                    if image(num.image(m, p)) != Q.image(image(m), p):
                        report.fail("equivariance",
                                    f"{_ref_str(num.refs[m])} perm {p}")
        if count:
            report.note("equivariance", count)
    cells = P.numbered_cells()
    if cells:
        report.note("compositions", len(cells))
    for (p, slot, q), r in cells:
        if compose_values(Q, image(p), slot, image(q)) != image(r):
            report.fail(
                "compositions",
                f"({_ref_str(num.refs[p])}) o_{slot} "
                f"({_ref_str(num.refs[q])})")
    return report


def _comp_index(P):
    """P's number -> the tabulated composites it takes part in, as
    ``(p, slot, q, result)``; one listed twice where p is q."""
    index = {}
    for (p, slot, q), r in P.numbered_cells():
        entry = (p, slot, q, r)
        index.setdefault(p, []).append(entry)
        index.setdefault(q, []).append(entry)
    return index


def _search_order(P, index):
    """P's operation numbers by arity and, within an arity, those in more
    composites whose result is neither factor first; ties by
    ``(sig_key, op id)``."""
    num = P.collection.numbering
    refs, sigs = num.refs, num.sigs
    degree = {m: sum(r != p and r != q for p, _, q, r in index.get(m, ()))
              for m in num.ops}
    return sorted(num.ops, key=lambda m: (len(sigs[m][0]), -degree[m],
                                          sig_key(sigs[m]), refs[m][1]))


def _moves(P):
    """n -> the adjacent transpositions that act on P's n-ary operations:
    none when P is planar."""
    return perms.adjacent_transpositions if P.symmetric else (lambda n: ())


def enumerate_multifunctors(P, Q, budget=10 ** 6, fix_objects=None):
    """All multifunctors P -> Q, sorted by key: one `core.backtrack` per
    object map, with units fixed and the images forced by the symmetric
    actions and the tabulated compositions derived eagerly.  `budget`
    bounds the candidate images tried over all object maps before
    BudgetExceededError.

    The search assigns Q's values (the value interface of `core`) to P's
    numbers, the candidates coming from ``Q.values_at`` in ``ops_at``
    order; ``op_maps`` are written as text once an assignment is found,
    in P's ``refs()`` order, and the assignment fills the functor's
    ``images``.
    The symmetric images are derived along adjacent transpositions only:
    the closure derives again from every image it assigns, so the whole
    orbit is reached.  A composite of images that Q lacks prunes the
    branch when its signature lies outside Q's support, as the composite
    P-operation then has no candidate; inside the support it cannot be
    checked, and PartialInputError names Q.

    It branches most constrained first (`_search_order`): by arity, and
    within an arity on the operations that take part in more composites
    whose result is neither factor, since their images force the most
    others (in the arrow multicategory of Com2 at level 2, the binary
    operation at (2,2;2) forces the mixed signatures before they are
    drawn); ties keep the ``(sig_key, op id)`` order.  The order is fixed
    once per call, for every object map.  It changes which branches are
    cut and when, never which assignments survive: the results, their
    sort, their ``op_maps`` and every BudgetExceededError message are
    those of any other order.  What moves is the number of candidates
    tried, so the budget at which the search stops, and the count of
    multifunctors found by then that the error carries.

    A number fixed by some adjacent transpositions of P draws only the
    values that those transpositions fix in Q (``Q.fixed_values_at``): any
    other value is refused by the first derive step on the number's own
    key, so no multifunctor is lost.  The values passed over still count
    as candidates tried, where the full draw would have counted them, and
    an ``EndView``'s limit still counts them too, so the budget counts the
    candidates of the full draw in the order above.
    ``fix_objects`` must send every color of P to a color of Q, else
    DomainError.
    """
    if not P.complete:
        raise PartialInputError("source must be complete")
    num = P.collection.numbering
    refs, sigs, image = num.refs, num.sigs, num.image
    comp_index = _comp_index(P)
    op_order = _search_order(P, comp_index)
    moves = _moves(P)
    # number -> the adjacent transpositions that fix it
    fixers = {m: tuple(t for t in moves(len(sigs[m][0])) if image(m, t) == m)
              for m in op_order}

    def derive(m, v, assign):
        for t in moves(len(sigs[m][0])):
            yield image(m, t), Q.image(v, t)
        for p, slot, q, r in comp_index.get(m, ()):
            if p in assign and q in assign:
                got = Q.cell(assign[p], slot, assign[q])
                if got is not None:
                    yield r, got
                elif Q.has_sig(composed_sig(Q.sig_of(assign[p]), slot,
                                            Q.sig_of(assign[q]))):
                    raise PartialInputError(
                        f"{Q.name or 'the target'} lacks the composite "
                        f"({_ref_str(Q.ref_of(assign[p]))}) o_{slot} "
                        f"({_ref_str(Q.ref_of(assign[q]))}) inside its "
                        "support")
                else:
                    # two values on one key: the branch dies
                    yield ("outside", r), False
                    yield ("outside", r), True

    if fix_objects is not None:
        for c in P.colors:
            if c not in fix_objects:
                raise DomainError(f"the object map has no image for color {c}")
            if fix_objects[c] not in Q.colors:
                raise DomainError(f"the target has no color {fix_objects[c]}")
        object_maps = [dict(fix_objects)]
    else:
        object_maps = [dict(zip(P.colors, combo))
                       for combo in product(Q.colors, repeat=len(P.colors))]
    what = f"multifunctor search exceeded {budget} candidates"
    counts = {"tried": 0, "found": 0}

    def fixed(s, ts):
        # the values fixed by ts; every value passed over counts as a
        # candidate tried, as it would have been refused on its own key
        done = 0
        for rank, v in Q.fixed_values_at(s, ts):
            counts["tried"] += rank - done
            if counts["tried"] > budget:
                raise BudgetExceededError(what, count=counts["found"])
            done = rank + 1
            if v is not None:
                yield v

    results = []
    for object_map in object_maps:
        def candidates(m):
            ins, out = sigs[m]
            s = tuple(object_map[c] for c in ins), object_map[out]
            return fixed(s, fixers[m]) if fixers[m] else Q.values_at(s)

        start = {num.number(P.unit_ref(c)): Q.unit_value(object_map[c])
                 for c in P.colors}
        for assign in backtrack(op_order, candidates, derive, start, budget,
                                what, counts):
            op_maps = {}
            for m in sorted(assign):  # P's operations first, in refs() order
                s, op = refs[m]
                op_maps.setdefault(s, {})[op] = Q.ref_of(assign[m])[1]
            F = Multifunctor(source=P, target=Q, object_map=object_map,
                             op_maps=op_maps)
            F.images.update(assign)
            results.append(F)
    results.sort(key=lambda F: F.key())
    return results


# ---------------------------------------------------------------------------
# multilinear transformations


@dataclass
class KNatTransformation:
    sources: tuple  # multifunctors F_1..F_k
    target: object  # multifunctor G
    components: dict  # color of P -> op id of Q at (F_1 a..F_k a; G a)

    def component_ref(self, a):
        if a not in self.components:
            raise DomainError(
                f"the transformation has no component at color {a}")
        s = (tuple(F.object_map[a] for F in self.sources),
             self.target.object_map[a])
        return (s, self.components[a])


def _knat_id(components):
    """The op id of a transformation in the hom table: its components at
    the source's colors, given in sorted order, as ``{a:op,...}``."""
    return "{" + ",".join(f"{a}:{op}" for a, op in components.items()) + "}"


def _naturality_square(Q, sources, target, component, m, sig):
    """Both routes of the naturality square at the source operation
    numbered m, with signature sig, as Q's values: ``sources`` and
    ``target`` give the images of a number under the F_j and under G
    (None where there is none) and ``component(a)`` the component at
    color a.  None when an image is missing or the composites fall
    outside the target's declared support (a truncated target leaves such
    instances undefined)."""
    inputs, out = sig
    g = target(m)
    fs = [F(m) for F in sources]
    if g is None or None in fs:
        return None
    left = _gamma_by_size(Q.cell, g, [component(a) for a in inputs],
                          Q.sig_of)
    right_pre = None if left is None else _gamma_by_size(
        Q.cell, component(out), fs, Q.sig_of)
    if right_pre is None:
        return None
    right = Q.image(right_pre, perms.transpose_shuffle(len(inputs),
                                                       len(sources)))
    return left, right


def _square_sigs(sig, maps, goal):
    """The signatures `_naturality_square` passes through at an operation
    of signature sig, given the object maps of the F_j and of G: on the
    left route the components go into G's image, on the right the F_j's
    images into the component at the output.  All arguments of a route
    have one arity, so `_gamma_by_size` substitutes them slot by slot."""
    inputs, out = sig
    # per route: the argument blocks in the order substituted, and the
    # colors they replace
    routes = [([tuple(F[a] for F in maps) for a in inputs],
               tuple(goal[a] for a in inputs)),
              ([tuple(F[a] for a in inputs) for F in maps],
               tuple(F[out] for F in maps))]
    return [(sum(done[:t], ()) + todo[t:], goal[out])
            for done, todo in routes for t in range(len(todo) + 1)]


def is_k_natural(xi, ops=None):
    """Check the naturality square for every operation of the source (or
    the given ones); returns (verdict, witnesses)."""
    P = xi.target.source
    Q = xi.target.target
    for a in P.colors:
        s, op = xi.component_ref(a)
        if op not in Q.ops_at(s):
            raise StructuralError(
                f"component at {a} is not an operation at {sig_key(s)}")
    num = P.collection.numbering
    components = {a: Q.value(xi.component_ref(a)) for a in P.colors}
    sources = [_Images(F, Q) for F in xi.sources]
    target = _Images(xi.target, Q)
    witnesses = []
    refs = ops if ops is not None else list(P.refs())
    for pref in refs:
        square = _naturality_square(Q, sources, target, components.get,
                                    num.number(pref), pref[0])
        if square is None:
            continue
        left, right = square
        if left != right:
            witnesses.append(f"{sig_key(pref[0])}:{pref[1]}")
    return not witnesses, witnesses


def _close(P, have, new, index):
    """Add to ``have``, a set of P's numbers closed under the tabulated
    composites and the symmetric actions, the numbers ``new`` and all they
    generate with it, by one worklist: each number added is composed once
    with those already in (``index`` is `_comp_index`) and acted on by the
    adjacent transpositions."""
    num, moves = P.collection.numbering, _moves(P)
    work = [m for m in new if m not in have]
    have.update(work)
    while work:
        m = work.pop()
        got = [num.image(m, t) for t in moves(len(num.sigs[m][0]))]
        got += [r for p, _, q, r in index.get(m, ())
                if p in have and q in have]
        for r in got:
            if r not in have:
                have.add(r)
                work.append(r)
    return have


def _units(P):
    return [P.collection.numbering.number(P.unit_ref(c)) for c in P.colors]


def generated_ops(P, gen_refs):
    """Closure of a set of operations under units, slot composition, and
    the symmetric actions: the sub-multicategory they generate, closed on
    P's numbers.  Kept on the table per frozen generator set."""
    key = frozenset(gen_refs)
    got = P.closures.get(key)
    if got is None:
        num = P.collection.numbering
        have = _close(P, set(), _units(P) + [num.number(r) for r in key],
                      _comp_index(P))
        got = P.closures[key] = frozenset(num.refs[m] for m in have)
    return got


def _basis(P, ops, index):
    """The numbers of ``ops`` kept when, walked in order, each is kept
    only if the closure of the units and those kept before lacks it."""
    have, kept = _close(P, set(), _units(P), index), []
    for m in ops:
        if m not in have:
            kept.append(m)
            _close(P, have, [m], index)
    return kept


def naturality_on_generators(xi, gen_refs):
    """Naturality checked only on a generating set; the verdict must agree
    with the full check whenever the set actually generates."""
    P = xi.target.source
    closure = generated_ops(P, gen_refs)
    all_ops = set(P.refs())
    if closure != all_ops:
        missing = sorted(sig_key(s) + ":" + op for s, op in all_ops - closure)
        raise DomainError(
            f"the given set does not generate; missing {missing[:5]}")
    return is_k_natural(xi, ops=sorted(gen_refs))


# ---------------------------------------------------------------------------
# the hom multicategory


@dataclass
class HomResult:
    table: TableMulticategory
    functors: dict  # color id -> Multifunctor
    knats: dict  # (sig, op id) -> KNatTransformation

    def functor_id(self, F):
        key = F.key()
        for cid, G in self.functors.items():
            if G.key() == key:
                return cid
        return None


def internal_hom(P, Q, arity_cap=3, budget=10 ** 6):
    """Objects: multifunctors P -> Q.  k-ary operations: the natural
    transformations, for k <= arity_cap, composed and acted on through Q.

    The transformations of each (sources, target) signature come from one
    `core.backtrack` over the colors of P, sorted, with the naturality
    squares as the derive.  `budget` bounds the components tried, partial
    assignments included, over all signatures together.  The search and
    the tables run on Q's values; the op ids and the components of
    ``knats`` are text.

    The derive computes the squares on a basis only.  For each (sources,
    target) signature, a square fits when Q has operations at every
    signature its two routes pass through (`_square_sigs`), not only at
    the final one: a table cut by color can hold the final signature and
    lack an intermediate one.  Only those squares are ever computed; any
    other comes back None and is skipped.  The fitting operations are
    walked in the search order of `enumerate_multifunctors`, and one is
    kept only if the closure (`generated_ops`, units included) of those
    kept before lacks it; the basis is kept per set of fitting operations.

    This finds the transformations the full check finds whenever Q is a
    truncation of a genuine multicategory R: every composite and action
    Q computes is R's, and Q holds every composite whose signature lies
    in its support (an ``EndView`` composes functions below its cap, and
    a complete table holds its composites), so a square fits exactly
    when it is computed.  In R the operations whose square commutes are
    closed under units (both routes are the component), the symmetric
    actions (the square at p acted on is the square at p acted on) and
    composition (by associativity and equivariance in R and the
    functoriality of the F_j and G, the square at p o_i q is the square
    at p with the one at q substituted at i), whether or not Q holds the
    composites on the way.  A kept square fits, so it is checked; every
    fitting operation lies in the closure of the kept ones, so its square
    commutes in R, and its routes computed in Q are R's.  Two choices
    keep this sound.  A square that fits at its final signature but not
    at an intermediate one comes back None; counting it as fitting would
    keep it unchecked.  And the basis is chosen among the fitting
    operations: a generator whose square does not fit cannot be checked,
    while a composite of it may fit, and a basis chosen over all
    operations would skip that composite's square, which the full check
    reads.  (Walked by arity, both take a target whose support is cut by
    more than arity: on an ``EndView`` a square fits by its arity alone.)
    """
    if arity_cap < 0:
        raise DomainError("the arity cap must be >= 0")
    functors = enumerate_multifunctors(P, Q, budget=budget)
    color_of = [f"F{i}" for i in range(len(functors))]
    images = [_Images(F, Q) for F in functors]

    colors_sorted = sorted(P.colors)
    num = P.collection.numbering
    index = _comp_index(P)
    order = _search_order(P, index)
    # the components' signatures -> the fitting operations, and those ->
    # per color, the operations of their basis that it takes part in:
    # their number, signature and colors
    fits_of, touching_of = {}, {}
    counts = {"tried": 0, "found": 0}
    # an element is (source functor indices, target functor index,
    # component values in colors_sorted order)
    elements = {}
    for k in range(arity_cap + 1):
        for combo in product(range(len(functors)), repeat=k):
            for gi in range(len(functors)):
                source_images = [images[i] for i in combo]
                maps = [functors[i].object_map for i in combo]
                goal = functors[gi].object_map
                comp_sig = {a: (tuple(F[a] for F in maps), goal[a])
                            for a in colors_sorted}
                fits = fits_of.get(tuple(comp_sig.values()))
                if fits is None:
                    fits = fits_of[tuple(comp_sig.values())] = tuple(
                        m for m in order if all(map(Q.has_sig, _square_sigs(
                            num.sigs[m], maps, goal))))
                touching = touching_of.get(fits)
                if touching is None:
                    touching = touching_of[fits] = {a: [] for a in
                                                    colors_sorted}
                    for m in _basis(P, fits, index):
                        inputs, out = sig = num.sigs[m]
                        colors = {*inputs, out}
                        for a in colors:
                            touching[a].append((m, sig, colors))

                def candidates(a):
                    return Q.values_at(comp_sig[a])

                def derive(key, value, assign):
                    # a square with every component chosen must commute:
                    # both routes are forced onto one key
                    for m, sig, colors in touching.get(key, ()):
                        if not colors <= assign.keys():
                            continue
                        square = _naturality_square(
                            Q, source_images, images[gi], assign.__getitem__,
                            m, sig)
                        if square is not None:
                            yield ("square", m), square[0]
                            yield ("square", m), square[1]

                sig = (tuple(color_of[i] for i in combo), color_of[gi])
                for assign in backtrack(
                        colors_sorted, candidates, derive, {}, budget,
                        "transformation search exceeded budget", counts):
                    elements.setdefault(sig, []).append((
                        combo, gi, tuple(assign[a] for a in colors_sorted)))

    def components(xi):
        return {a: Q.ref_of(v)[1] for a, v in zip(colors_sorted, xi[2])}

    def act(s, xi, p):
        return (tuple(xi[0][i] for i in p), xi[1],
                tuple(Q.image(v, p) for v in xi[2]))

    def compose(s, xi, slot, qs, eta):
        # a component composite outside Q's support escapes the table,
        # which is then partial; one missing inside it raises
        out = []
        for v, w in zip(xi[2], eta[2]):
            got = Q.cell(v, slot, w)
            if got is None and not Q.has_sig(
                    composed_sig(Q.sig_of(v), slot, Q.sig_of(w))):
                return None
            out.append(compose_values(Q, v, slot, w) if got is None else got)
        return (xi[0][:slot] + eta[0] + xi[0][slot + 1:], xi[1], tuple(out))

    units = {color_of[i]: ((i,), i, tuple(Q.unit_value(F.object_map[a])
                                          for a in colors_sorted))
             for i, F in enumerate(functors)}
    table, structure, _ = tabulate(
        color_of, elements, units, lambda xi: _knat_id(components(xi)), act,
        compose, arity_cap=arity_cap, name=f"Hom({P.name},{Q.name})")
    return HomResult(
        table=table, functors=dict(zip(color_of, functors)),
        knats={key: KNatTransformation(tuple(functors[i] for i in xi[0]),
                                       functors[xi[1]], components(xi))
               for key, xi in structure.items()})


# ---------------------------------------------------------------------------
# the tensor-hom adjunction


@dataclass
class AdjunctionReport:
    tensor_side: int
    hom_side: int
    bijective: bool
    round_trips_ok: bool
    pairing: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)

    @property
    def ok(self):
        return self.bijective and self.round_trips_ok

    def to_json(self):
        return {
            "tensor_side": self.tensor_side,
            "hom_side": self.hom_side,
            "bijective": self.bijective,
            "round_trips_ok": self.round_trips_ok,
            "pairing": self.pairing,
            "witnesses": self.witnesses,
        }


def evaluate_term(term, R, gen_image):
    """Evaluate a generator term in R: gen_image maps (gsig, gid) to an
    operation of R, and (None, color) to the color of R a leaf of that
    color goes to; leaves go to units, the composites are taken on R's
    values, and the leaf numbering is applied as a symmetric action at
    the end.  Returns the reference of the result."""

    def planar(node):
        # returns (R's value, list of leaf indices in planar order)
        if node[0] == "L":
            return R.unit_value(gen_image(None, node[1])), [node[2]]
        root = R.value(gen_image(node[1], node[2]))
        ws, idxs = [], []
        for child in node[3]:
            w, cidx = planar(child)
            ws.append(w)
            idxs.extend(cidx)
        return _gamma_by_size(partial(compose_values, R), root, ws,
                              R.sig_of), idxs

    return R.ref_of(perms.unshuffle(R.image, *planar(term)))


def tensor_to_hom(H, P, Q, R, sat, hom):
    """Restrict a multifunctor off the tensor along the generators: the
    a-slice gives the object, the b-components of each operation give the
    transformation."""
    from .trees import corolla, term_signature, term_text

    def tensor_image(s, op, c, left):
        # class of a generator corolla, then its image under H
        rep = sat.class_of(corolla(*tensor_generator(s, op, c, left)))
        if rep is None:
            return None
        return H.map_ref((term_signature(rep), term_text(rep)))

    object_map = {}
    op_maps = {}
    for a in P.colors:
        # the slice functor Q -> R at color a
        slice_obj = {b: H.object_map[pair_color(a, b)] for b in Q.colors}
        slice_ops = {}
        for qs in Q.signatures():
            table = {}
            for qid in Q.ops_at(qs):
                if Q.is_unit((qs, qid)):
                    table[qid] = R.unit_ref(slice_obj[qs[1]])[1]
                else:
                    img = tensor_image(qs, qid, a, left=False)
                    if img is None:
                        return None
                    table[qid] = img[1]
            slice_ops[qs] = table
        Fa = Multifunctor(source=Q, target=R, object_map=slice_obj,
                          op_maps=slice_ops, name=f"slice@{a}")
        fid = hom.functor_id(Fa)
        if fid is None:
            return None
        object_map[a] = fid

    for ps in P.signatures():
        table = {}
        for pid in P.ops_at(ps):
            if P.is_unit((ps, pid)):
                table[pid] = hom.table.units[object_map[ps[1]]]
                continue
            comps = {}
            for b in sorted(Q.colors):
                img = tensor_image(ps, pid, b, left=True)
                if img is None:
                    return None
                comps[b] = img[1]
            table[pid] = _knat_id(comps)
        op_maps[ps] = table
    return Multifunctor(source=P, target=hom.table, object_map=object_map,
                        op_maps=op_maps, name=f"transpose({H.name})")


def hom_to_tensor(K, P, Q, R, sat, hom):
    """Evaluate every congruence class on its representative term, sending
    each generator through K."""
    object_map = {}
    images = {}  # tensor generator (gsig, gid) -> its image in R
    for a in P.colors:
        F = hom.functors[K.object_map[a]]
        for b in Q.colors:
            object_map[pair_color(a, b)] = F.object_map[b]
        for qref in Q.refs():
            images[tensor_generator(*qref, a, left=False)] = F.map_ref(qref)
    for ps, pid in P.refs():
        xi = hom.knats[K.map_ref((ps, pid))]
        for b in Q.colors:
            gen = tensor_generator(ps, pid, b, left=True)
            images[gen] = xi.component_ref(b)

    def gen_image(gsig, gid):
        # gsig None asks for the image of the tensor color gid
        return object_map[gid] if gsig is None else images[gsig, gid]

    op_maps = {}
    T = sat.table
    for s in T.signatures():
        ms = (tuple(object_map[c] for c in s[0]), object_map[s[1]])
        if not R.has_sig(ms):
            raise PartialInputError(
                f"{R.name or 'the target'} is truncated: it has no "
                f"operations at ({sig_key(ms)}), where the tensor's "
                f"({sig_key(s)}) must go")
        table = {}
        for tid in T.ops_at(s):
            term = sat_structure_term(sat, s, tid)
            table[tid] = evaluate_term(term, R, gen_image)[1]
        op_maps[s] = table
    return Multifunctor(source=T, target=R, object_map=object_map,
                        op_maps=op_maps, name=f"untranspose({K.name})")


def sat_structure_term(sat, s, tid):
    rep = sat.structure.get((s, tid))
    if rep is None:
        raise StructuralError(
            f"no class representative for {sig_key(s)}:{tid}")
    return rep


def adjunction_check(P, Q, R, max_arity=4, max_vertices=4, budget=10 ** 6):
    """Certify the explicit bijection between multifunctors off the tensor
    and multifunctors into the hom: both round trips are identities and
    the two independent enumerations have equal size."""
    sat = bv_tensor(P, Q, max_arity=max_arity, max_vertices=max_vertices)
    if not sat.report.stabilized:
        raise PartialInputError("tensor did not stabilize within caps")
    lhs = enumerate_multifunctors(sat.table, R, budget=budget)
    hom = internal_hom(Q, R, arity_cap=max(P.max_arity(), 1), budget=budget)
    rhs = enumerate_multifunctors(P, hom.table, budget=budget)

    witnesses = []
    pairing = []
    rhs_keys = {F.key(): i for i, F in enumerate(rhs)}
    lhs_keys = {F.key(): i for i, F in enumerate(lhs)}
    round_ok = True
    for i, H in enumerate(lhs):
        K = tensor_to_hom(H, P, Q, R, sat, hom)
        if K is None or K.key() not in rhs_keys:
            round_ok = False
            witnesses.append(f"transpose of #{i} not found on the hom side")
            continue
        j = rhs_keys[K.key()]
        H2 = hom_to_tensor(rhs[j], P, Q, R, sat, hom)
        if H2.key() != H.key():
            round_ok = False
            witnesses.append(f"round trip of #{i} differs")
        pairing.append((i, j))
    for j, K in enumerate(rhs):
        H = hom_to_tensor(K, P, Q, R, sat, hom)
        if H.key() not in lhs_keys:
            round_ok = False
            witnesses.append(f"untranspose of hom #{j} not on tensor side")
            continue
        K2 = tensor_to_hom(H, P, Q, R, sat, hom)
        if K2 is None or K2.key() != K.key():
            round_ok = False
            witnesses.append(f"round trip of hom #{j} differs")
    bijective = (len(lhs) == len(rhs)
                 and len({j for _, j in pairing}) == len(lhs))
    return AdjunctionReport(
        tensor_side=len(lhs), hom_side=len(rhs),
        bijective=bijective, round_trips_ok=round_ok,
        pairing=pairing, witnesses=witnesses)
