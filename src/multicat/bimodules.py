"""Two-sided module structures on collections, bar-style resolutions, and
the endomorphism multicategory of a right module.

A bimodule has inputs colored by the right-acting multicategory and
outputs by the left-acting one.  The right action substitutes operations
into single inputs; the left action composes an operation onto a tuple of
module elements.  The compatibility axiom relates the two whenever both
sides are defined inside the declared support.  A right module is a
bimodule without a left action (``left`` is None).

Every action lookup follows the rule of
:meth:`core.TableMulticategory.cell`: the table entry first, and only
where the table has none does a unit act as the identity.  Actions are
asked for on numbers only; references stay in the constructor tables, in
the bar and tensor elements and the module maps, whose text and order
are output, and in error text.

Bar truncations are circle-product elements over numbered towers of
layers; face maps merge two adjacent layers (the module actions at the
ends, composition in the middle), degeneracy maps insert a unit layer,
and both are computed once per tower element.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import product

from . import perms
from .core import (CellLookup, FiniteCollection, LawReport,
                   TableMulticategory, TruncatedSimplicialSet, _gamma_by_size,
                   backtrack, check_slot_laws, compose_values, composed_sig,
                   fits, is_equivalence, lifts, pull_back, sig_key, tabulate)
from .errors import DomainError, StructuralError
from .homcalc import Multifunctor
from .presents import UnionFind
from .trees import (base_layer, canonical_circle, circle_layer,
                    renumber_blocks, shuffles)


@dataclass
class Bimodule:
    """A collection with a right action of ``right`` and a left action of
    ``left`` (None for a right module).  ``right_table`` maps ``(element,
    slot, operation)`` and ``left_table`` ``(operation, elements)`` to an
    element, as references: they are constructor input, read once into
    tables on the numbers of the elements and of the operations, and no
    lookup takes references.  :meth:`right_cell` and :meth:`left_cell`
    look an action up on those numbers by the rule in the module
    docstring."""

    left: TableMulticategory
    right: TableMulticategory
    collection: FiniteCollection
    left_table: dict = field(repr=False, default_factory=dict)
    right_table: dict = field(repr=False, default_factory=dict)
    name: str = ""

    @cached_property
    def tensors(self):
        """`tensor_elements` results, kept by `tensor_elements_of`:
        (factors, max arity) -> elements."""
        return {}

    @cached_property
    def _right_cells(self):
        number, value = self.collection.numbering.number, self.right.value
        return {(number(m), slot, value(q)): number(r)
                for (m, slot, q), r in self.right_table.items()}

    @cached_property
    def _left_cells(self):
        number, value = self.collection.numbering.number, self.left.value
        return {(value(p), tuple(map(number, ms))): number(r)
                for (p, ms), r in self.left_table.items()}

    def right_cell(self, m, slot, q):
        """m acted on by q in its input slot, on numbers, or None."""
        got = self._right_cells.get((m, slot, q))
        if (got is None and q in self.right.unit_numbers
                and fits(self.collection.numbering.sigs[m][0], slot,
                         self.right.sig_of(q)[1])):
            return m
        return got

    def left_cell(self, p, ms):
        """p acting on the tuple of elements ms, on numbers, or None."""
        got = self._left_cells.get((p, ms))
        if (got is None and p in self.left.unit_numbers and len(ms) == 1
                and self.collection.numbering.sigs[ms[0]][1]
                == self.left.sig_of(p)[1]):
            return ms[0]
        return got


def _nonnegative(*caps, what="the arity cap"):
    if min(caps) < 0:
        raise DomainError(f"{what} must be >= 0")


def module_from_multicategory(M, max_arity=None):
    """M as a bimodule over itself on both sides; actions are composition."""
    cap = max_arity if max_arity is not None else M.max_arity()
    _nonnegative(cap)
    coll = M.collection
    right_table = {(pref, slot, qref): rref
                   for pref, slot, qref, rref in M.cells()}
    left_table = {}
    num = coll.numbering
    refs, sigs = num.refs, num.sigs
    for s in M.signatures():
        # argument tuples in product order, pruned as soon as their
        # running total arity passes the cap
        tuples = [((), 0)]
        for c in s[0]:
            tuples = [(t + (m,), n + len(sigs[m][0])) for t, n in tuples
                      for m in num.ops
                      if sigs[m][1] == c and n + len(sigs[m][0]) <= cap]
        for p in M.values_at(s):
            for ms, _ in tuples:
                got = _gamma_by_size(M.cell, p, ms, M.sig_of)
                if got is not None:
                    key = refs[p], tuple(map(refs.__getitem__, ms))
                    left_table[key] = refs[got]
    return Bimodule(left=M, right=M, collection=coll,
                    left_table=left_table, right_table=right_table,
                    name=f"{M.name}-bimod")


def check_bimodule(M, max_violations=25):
    """Every law of a bimodule, exhaustively over the declared support; M
    needs a left action:

    - ``action-total``: the symmetric action tables are total;
    - ``right-unit``, then the right action as a slot action of
      ``M.right`` (:func:`core.check_slot_laws`): ``right-assoc``,
      ``right-parallel``, ``right-equivariance`` (outer) and
      ``right-equivariance-inner``;
    - ``left-assoc`` and ``left-equivariance`` of the left action;
    - ``compatibility`` of the two actions.

    Every law runs on the numbers of the elements and operations; text is
    written only into witnesses.  The right slot laws index lookups
    (:class:`core.CellLookup`) of the right action and of ``M.right``.
    A left action ``p(ms)`` off the composed signature raises
    StructuralError, so the inputs of ``p(ms)`` are those of ``ms`` in
    turn and ``compatibility`` reads its left side off their right
    actions.  Instances whose intermediate values fall outside the
    support are skipped.  ``max_violations`` is compared between elements
    for the right laws, between signatures of ``M.left`` for the left
    laws, and after each compatibility violation, so the report can hold
    more than that."""
    if M.left is None:
        raise DomainError(f"{M.name or 'the module'} has no left action: "
                          "check_bimodule needs a bimodule")
    report = LawReport()
    coll = M.collection

    for s in coll.signatures():
        n = len(s[0])
        for p in perms.all_perms(n):
            table = coll.action.get((s, p))
            if table is None or set(table) != set(coll.ops[s]):
                report.fail("action-total", f"{sig_key(s)} perm {p}")
            report.note("action-total")
    if report.violations:
        return report

    num = coll.numbering
    L, lnum = M.left, M.left.collection.numbering
    rnum = M.right.collection.numbering
    refs, sigs = num.refs, num.sigs
    right_cell, left_cell = M.right_cell, M.left_cell
    m_by_color, l_by_color, r_by_color = {}, {}, {}
    for by_color, numbering in ((m_by_color, num), (l_by_color, lnum),
                                (r_by_color, rnum)):
        for m in numbering.ops:
            by_color.setdefault(numbering.sigs[m][1], []).append(m)

    def m_tuples(colors):
        return product(*[m_by_color.get(c, ()) for c in colors])

    def left_acted():
        # (p, ms, p(ms)) where defined, stopping between signatures at cap
        for s in L.signatures():
            if len(report.violations) >= max_violations:
                return
            for p in L.values_at(s):
                for ms in m_tuples(s[0]):
                    pm = left_cell(p, ms)
                    if pm is None:
                        continue
                    if sigs[pm][0] != sum((sigs[m][0] for m in ms), ()):
                        raise StructuralError(
                            f"left action {lnum.refs[p]} on "
                            f"{tuple(refs[m] for m in ms)} gives {refs[pm]}, "
                            "off the composed signature")
                    yield p, ms, pm

    for m in num.ops:
        for slot, color in enumerate(sigs[m][0]):
            got = right_cell(m, slot, M.right.unit_value(color))
            report.note("right-unit")
            if got is not None and got != m:
                report.fail("right-unit", f"{refs[m]} slot {slot}")

    right = CellLookup(M._right_cells, right_cell)
    Q = CellLookup(M.right.numbered_cells(), M.right.cell)
    check_slot_laws(report, coll, right, M.right, Q, True,
                    ("right-assoc", "right-parallel", "right-equivariance",
                     "right-equivariance-inner"),
                    max_violations)

    # left associativity and equivariance
    for p, ms, pm in left_acted():
        count = 0
        for slot, color in enumerate(lnum.sigs[p][0]):
            for q in l_by_color.get(color, ()):
                pq = L.cell(p, slot, q)
                if pq is None:
                    continue
                for inner in m_tuples(lnum.sigs[q][0]):
                    qm = left_cell(q, inner)
                    if qm is None:
                        continue
                    left_side = left_cell(p, ms[:slot] + (qm,) + ms[slot + 1:])
                    right_side = left_cell(pq,
                                           ms[:slot] + inner + ms[slot + 1:])
                    count += 1
                    if (left_side is not None and right_side is not None
                            and left_side != right_side):
                        report.fail("left-assoc", f"{lnum.refs[p]} o_{slot} "
                                    f"{lnum.refs[q]}")
        if count:
            report.note("left-assoc", count)
        sigmas = perms.all_perms(len(ms))
        report.note("left-equivariance", len(sigmas))
        for sigma in sigmas:
            left_side = left_cell(L.image(p, sigma),
                                 tuple(ms[t] for t in sigma))
            if left_side is not None:
                sizes = [len(sigs[m][0]) for m in ms]
                want = num.image(pm, perms.block_permutation(sigma, sizes))
                if left_side != want:
                    report.fail("left-equivariance",
                                f"{lnum.refs[p]} perm {sigma}")

    # compatibility: pm's inputs are those of ms in turn, so its right
    # actions in product order pair off with the products of theirs
    @cache
    def acted_on(m):
        return [_gamma_by_size(right_cell, m, block, sigs.__getitem__,
                               rnum.sigs.__getitem__)
                for block in product(*[r_by_color.get(c, ())
                                       for c in sigs[m][0]])]

    for p, ms, pm in left_acted():
        count = 0
        for left_side, acted in zip(acted_on(pm), product(*map(acted_on, ms))):
            right_side = None if None in acted else left_cell(p, acted)
            count += 1
            if (left_side is not None and right_side is not None
                    and left_side != right_side):
                report.fail("compatibility", f"{lnum.refs[p]} on "
                            f"{tuple(refs[m] for m in ms)}")
                if len(report.violations) >= max_violations:
                    report.note("compatibility", count)
                    return report
        if count:
            report.note("compatibility", count)
    return report


# ---------------------------------------------------------------------------
# bar truncations


@dataclass
class BarComplexTruncation:
    simplicial: TruncatedSimplicialSet
    augmentation: dict  # level-0 element -> coequalizer class representative
    basepoint: dict = field(default_factory=dict)  # (n, level-0 elem) -> elem

    def check_identities(self):
        return self.simplicial.check_identities()


def _block_order(blocks):
    """The input positions of (positions, item) blocks in planar order."""
    return tuple(x for S, _ in blocks for x in sorted(S))


def bar_complex(X, P, Y, n_max=3, max_arity=2):
    """Levels 0..n_max of the two-sided bar construction on a right module
    X, the multicategory P, and a left module Y: level n is the circle
    product with n middle layers, faces act or compose adjacent layers,
    degeneracies insert units, and the augmentation is the coequalizer of
    the two faces off level 1.

    The middle layers form towers, numbered :class:`trees.Layer` s: the
    tower of height h is P over the tower of height h - 1, the one of
    height 0 is Y, and level n is X over the tower of height n.  Faces and
    degeneracies are computed on element numbers, once per tower element:
    below the root, a face or degeneracy maps the children and
    re-canonicalizes, and its values are kept per (height, number,
    index).  P must act on X and on Y, whose tables the merges index by
    P's numbers."""
    _nonnegative(n_max, max_arity, what="levels and the arity cap")
    if P is not X.right:
        raise DomainError(f"{P.name} does not act on {X.name} from the right")
    if P is not Y.left:
        raise DomainError(f"{P.name} does not act on {Y.name} from the left")
    towers = [base_layer(Y.collection)]
    for _ in range(n_max):
        towers.append(circle_layer(P.collection, towers[-1], max_arity))
    levels = [circle_layer(X.collection, towers[n], max_arity)
              for n in range(n_max + 1)]

    pnum = P.collection.numbering
    xnum, ynum = X.collection.numbering, Y.collection.numbering

    def x_act(m, slot, q):
        got = X.right_cell(m, slot, q)
        if got is None:
            raise StructuralError(f"missing right action {xnum.refs[m]} "
                                  f"o_{slot} {pnum.refs[q]}")
        return got

    def merge_roots(elem, kids, act, num, coll, target):
        # the root (a number of num) acted on by its children's roots
        # (numbers of P); the grandchildren take the positions of their
        # parent's block (sorted tuples)
        _, root, blocks = elem
        children = [kids.elems[c] for _, c in blocks]
        got = _gamma_by_size(act, num.number(root[1:]),
                             [pnum.number(k[1][1:]) for k in children],
                             num.sigs.__getitem__, pnum.sigs.__getitem__)
        inlined = tuple((tuple(S[t] for t in S2), g)
                        for (S, _), k in zip(blocks, children)
                        for S2, g in k[2])
        return target.number[canonical_circle(("op",) + num.refs[got],
                                              inlined, coll)]

    def map_children(elem, f, coll, target):
        _, root, blocks = elem
        return target.number[canonical_circle(
            root, tuple((S, f(c)) for S, c in blocks), coll)]

    def y_merge(elem):
        # Y's left action, inputs renumbered back to ascending positions
        _, root, blocks = elem
        mrefs = [towers[0].elems[c][1:] for _, c in blocks]
        got = Y.left_cell(pnum.number(root[1:]),
                          tuple(map(ynum.number, mrefs)))
        if got is None:
            raise StructuralError(
                f"missing left action {root[1:]} on {mrefs}")
        got = perms.unshuffle(ynum.image, got, _block_order(blocks))
        return towers[0].number[("op",) + ynum.refs[got]]

    lowered, lifted = {}, {}

    def lower(h, c, j):
        # face j of element c of the tower of height h; 0 merges its root
        got = lowered.get((h, c, j))
        if got is None:
            t = towers[h].elems[c]
            if j:
                got = map_children(t, lambda g: lower(h - 1, g, j - 1),
                                   P.collection, towers[h - 1])
            elif h > 1:
                got = merge_roots(t, towers[h - 1],
                                  partial(compose_values, P), pnum,
                                  P.collection, towers[h - 1])
            else:
                got = y_merge(t)
            lowered[h, c, j] = got
        return got

    def lift(h, c, j):
        # degeneracy j of element c of the tower of height h; -1 puts a
        # unit on top of it
        got = lifted.get((h, c, j))
        if got is None:
            if j < 0:
                inputs, out = towers[h].sigs[c]
                unit = ("op",) + P.unit_ref(out)
                got = towers[h + 1].number[
                    "circ", unit, ((tuple(range(len(inputs))), c),)]
            else:
                got = map_children(towers[h].elems[c],
                                   lambda g: lift(h - 1, g, j - 1),
                                   P.collection, towers[h + 1])
            lifted[h, c, j] = got
        return got

    faces = {}
    for n in range(1, n_max + 1):
        down = levels[n - 1]
        # d_0 first, in element order: the first missing action of X is
        # met at the first element that needs it
        faces[n, 0] = tuple(
            merge_roots(e, towers[n], x_act, xnum, X.collection, down)
            for e in levels[n].elems)
        for i in range(1, n + 1):
            faces[n, i] = tuple(
                map_children(e, lambda c: lower(n, c, i - 1), X.collection,
                             down)
                for e in levels[n].elems)
    degeneracies = {}
    for n in range(n_max):
        for j in range(n + 1):
            degeneracies[n, j] = tuple(
                map_children(e, lambda c: lift(n, c, j - 1), X.collection,
                             levels[n + 1])
                for e in levels[n].elems)

    level_elems = tuple(tuple(layer.nested) for layer in levels)
    # the coequalizer on positions: a class's first member is its least
    level0 = level_elems[0]
    uf = UnionFind(range(len(level0)))
    for a, b in zip(faces.get((1, 0), ()), faces.get((1, 1), ())):
        uf.union(a, b)
    augmentation = {level0[m]: level0[members[0]]
                    for members in uf.classes().values() for m in members}

    return BarComplexTruncation(
        simplicial=TruncatedSimplicialSet(n_max, level_elems, faces,
                                          degeneracies),
        augmentation=augmentation)


def hochschild(P, n_max=3, max_arity=2):
    """The bar construction of P on itself, plus the degeneracy basepoint
    from level 0 into every computed level."""
    _nonnegative(n_max, max_arity, what="levels and the arity cap")
    mod = module_from_multicategory(P, max_arity=max_arity)
    bar = bar_complex(mod, P, mod, n_max=n_max, max_arity=max_arity)
    levels, s = bar.simplicial.levels, bar.simplicial.degeneracies
    basepoint = {}
    for cur, e in enumerate(levels[0]):
        basepoint[0, e] = e
        for n in range(n_max):
            cur = s[n, 0][cur]
            basepoint[n + 1, e] = levels[n + 1][cur]
    bar.basepoint = basepoint
    return bar


def hochschild_comparison(P, bar):
    """Level-0 elements composed down to operations of P; constant on the
    coequalizer classes and bijective onto P when P is complete."""
    out = {}
    for e in bar.simplicial.levels[0]:
        _, root, blocks = e
        got = _gamma_by_size(partial(compose_values, P), P.value(root[1:]),
                             [P.value(c[1:]) for _, c in blocks], P.sig_of)
        out[e] = P.ref_of(perms.unshuffle(P.image, got, _block_order(blocks)))
    return out


# ---------------------------------------------------------------------------
# right modules, restriction


def right_module_from(M):
    """M itself if it is a bimodule, else the regular module of the
    multicategory M."""
    if isinstance(M, Bimodule):
        return M
    return module_from_multicategory(M)


def restrict_module(N, psi):
    """Reindex the right action of a bimodule along a multifunctor into
    its acting multicategory: same elements, inputs recolored through the
    object map, action through the operation maps.  The result is a right
    module, a :class:`Bimodule` with no left action.  psi must land in
    N.right, on whose numbers the action is looked up."""
    R = psi.source
    S = psi.target
    if S is not N.right:
        raise DomainError(f"{psi.name or 'the multifunctor'} lands in "
                          f"{S.name}, not in {N.right.name}, which acts on "
                          f"{N.name} from the right")
    back = lifts(N.collection.signatures(), R.colors, psi.object_map,
                 outputs=False)
    coll = pull_back(N.collection, sorted(
        {*R.colors, *(s[1] for s, t in back.items()
                      if N.collection.ops_at(t))}), back)

    table = {}
    num = N.collection.numbering
    for s, ms in coll.ops.items():
        for m in ms:
            for slot, color in enumerate(s[0]):
                for qs in R.signatures():
                    if qs[1] != color:
                        continue
                    for q in R.ops_at(qs):
                        base = N.right_cell(num.number((back[s], m)), slot,
                                            S.value(psi.map_ref((qs, q))))
                        if base is None:
                            continue
                        rsig = composed_sig(s, slot, qs)
                        table[(s, m), slot, (qs, q)] = rsig, num.refs[base][1]
    return Bimodule(left=None, right=R, collection=coll, right_table=table,
                    name=f"restrict({N.name})")


# ---------------------------------------------------------------------------
# tensor powers of a right module and module homomorphisms


def tensor_elements(N, factors, max_arity):
    """Elements of the ordered tensor of the slices N(-; b_j): a shuffle
    decomposition of the input positions with one element per factor.
    Keys are (input colors, factors)."""
    out = {}
    for n in range(max_arity + 1):
        for blocks_pos in shuffles(n, len(factors)):
            pools = [[(s, m) for s in N.collection.signatures()
                      if s[1] == b and len(s[0]) == len(S)
                      for m in N.collection.ops_at(s)]
                     for S, b in zip(blocks_pos, factors)]
            for combo in product(*pools):
                blocks = tuple(zip(blocks_pos, combo))
                inputs = [None] * n
                for S, (ms, _) in blocks:
                    for local, pos in enumerate(S):
                        inputs[pos] = ms[0][local]
                sig = (tuple(inputs), tuple(factors))
                out.setdefault(sig, []).append(("tens", blocks))
    return {s: sorted(set(v)) for s, v in out.items()}


def tensor_elements_of(N, factors, max_arity):
    """`tensor_elements`, computed once per factor list and kept on the
    module N; the result is shared, so it is not to be changed."""
    key = tuple(factors), max_arity
    got = N.tensors.get(key)
    if got is None:
        got = N.tensors[key] = tensor_elements(N, list(factors), max_arity)
    return got


def tensor_act_sigma(N, elem, p):
    return ("tens", tuple(
        (S, N.collection.act(mref, rho))
        for S, rho, mref in renumber_blocks(elem[1], p)))


def tensor_act_right(N, elem, slot, q):
    """The tensor element acted on in its input slot by N.right's number
    q, or None where N has no such action."""
    k = len(N.right.sig_of(q)[0])
    num = N.collection.numbering
    new_blocks = []
    for S, mref in elem[1]:
        newS = tuple(pos if pos < slot else pos + k - 1
                     for pos in S if pos != slot)
        if slot in S:
            acted = N.right_cell(num.number(mref), sorted(S).index(slot), q)
            if acted is None:
                return None
            newS = tuple(sorted(newS + tuple(range(slot, slot + k))))
            mref = num.refs[acted]
        new_blocks.append((newS, mref))
    return ("tens", tuple(new_blocks))


def enumerate_module_homs(N, factors, target, max_arity, budget=200000):
    """Right-module homomorphisms from an ordered tensor of slices into
    the slice at `target`, in depth-first order: a `core.backtrack` that
    derives images along the symmetric actions and the right action."""
    _nonnegative(max_arity)
    elems = tensor_elements_of(N, factors, max_arity)
    elem_sets = {s: set(v) for s, v in elems.items()}
    order = [(s, e)
             for s in sorted(elems, key=lambda s: (len(s[0]), str(s)))
             for e in elems[s]]
    num = N.collection.numbering
    target_ops = {s: [num.number(((s[0], target), m))
                      for m in N.collection.ops_at((s[0], target))]
                  for s in elems}

    def derive(key, value, assign):
        s, e = key
        for p in perms.all_perms(len(s[0])):
            e2 = tensor_act_sigma(N, e, p)
            s2 = (perms.permute(s[0], p), s[1])
            if e2 in elem_sets.get(s2, ()):
                yield (s2, e2), num.image(value, p)
        for slot, color in enumerate(s[0]):
            for qs in N.right.signatures():
                if qs[1] != color or len(s[0]) + len(qs[0]) - 1 > max_arity:
                    continue
                for q in N.right.values_at(qs):
                    e2 = tensor_act_right(N, e, slot, q)
                    if e2 is None:
                        continue
                    v2 = N.right_cell(value, slot, q)
                    if v2 is None:
                        continue
                    s2 = (composed_sig((s[0], "*"), slot, qs)[0], s[1])
                    if e2 in elem_sets.get(s2, ()):
                        yield (s2, e2), v2

    return [{key: num.refs[v] for key, v in assign.items()}
            for assign in backtrack(
                order, lambda key: target_ops[key[0]], derive, {}, budget,
                "module homomorphism search exceeded budget")]


def _tens_id(e):
    _, blocks = e
    return "+".join(
        f"({','.join(str(x) for x in S)}:{m[1]})" for S, m in blocks)


class _Hom(dict):
    """A module homomorphism, ``(signature, tensor element) -> element``,
    hashed by its items so that `core.tabulate` names each one once; it is
    not changed once made."""

    def __hash__(self):
        return hash(frozenset(self.items()))


def _hom_id(hom):
    parts = []
    for (s, e), v in sorted(hom.items(),
                            key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        parts.append(f"{','.join(s[0])}|{_tens_id(e)}->{v[1]}")
    return "h{" + ";".join(parts) + "}"


def end_right_module(M, arity_cap=None, budget=200000):
    """The endomorphism multicategory of a right module: objects are the
    output colors, an operation from b_1..b_k to b is a right-module
    homomorphism from the ordered tensor of the slices at the b_j into the
    slice at b; composition substitutes homomorphisms, the actions permute
    the tensor factors.

    Everything is read inside the module's declared support: tensor
    elements beyond its maximal arity are not part of the comparison, and
    the default arity cap is that same maximum, which keeps the canonical
    comparison meaningful for arity-truncated modules."""
    N = right_module_from(M)
    out_colors = tuple(sorted({s[1] for s in N.collection.ops}))
    max_arity = max((len(s[0]) for s in N.collection.ops), default=0)
    if arity_cap is None:
        arity_cap = max_arity
    _nonnegative(arity_cap)

    elements = {}
    for k in range(arity_cap + 1):
        for factors in product(out_colors, repeat=k):
            for b in out_colors:
                elements[tuple(factors), b] = list(map(
                    _Hom, enumerate_module_homs(N, list(factors), b,
                                                max_arity, budget=budget)))

    def act_hom(sig, h, p):
        new_factors = perms.permute(sig[0], p)
        out = {}
        for (s, e), v in h.items():
            _, blocks = e
            new_blocks = tuple(blocks[j] for j in p)
            out[(s[0], new_factors), ("tens", new_blocks)] = v
        return _Hom(out)

    units = {}
    for b in out_colors:
        h = _Hom()
        for s, es in tensor_elements_of(N, [b], max_arity).items():
            for e in es:
                (_, ((_, mref),)) = e
                h[s, e] = mref
        units[b] = h

    def compose_homs(sig, h, slot, qsig, g):
        l = len(qsig[0])
        new_factors = sig[0][:slot] + qsig[0] + sig[0][slot + 1:]
        out = {}
        for s, es in tensor_elements_of(N, new_factors, max_arity).items():
            for e in es:
                _, blocks = e
                inner = blocks[slot:slot + l]
                inner_positions = sorted(x for S, _ in inner for x in S)
                rank = {x: r for r, x in enumerate(inner_positions)}
                inner_norm = tuple(
                    (tuple(rank[x] for x in S), m) for S, m in inner)
                inner_cols = tuple(s[0][x] for x in inner_positions)
                mid = g[(inner_cols, tuple(qsig[0])), ("tens", inner_norm)]
                new_blocks = (blocks[:slot]
                              + ((tuple(inner_positions), mid),)
                              + blocks[slot + l:])
                out[s, e] = h[(s[0], tuple(sig[0])), ("tens", new_blocks)]
        return _Hom(out)

    table, homs, _ = tabulate(
        out_colors, elements, units, _hom_id, act_hom, compose_homs,
        arity_cap=arity_cap, name=f"End_mod({N.name})")
    return table, homs


# ---------------------------------------------------------------------------
# pointedness and the quasi-free condition


def analyze_pointed(M, arity_cap=None, budget=200000):
    """Search for a basepoint (a right-module map out of the acting
    multicategory, determined by its unary values) and, when the two
    acting multicategories coincide, evaluate the quasi-free comparison
    from the right-acting multicategory to the module endomorphisms."""
    Q = M.right
    colors = sorted(Q.colors)
    num = M.collection.numbering
    max_arity = max((len(s[0]) for s in M.collection.ops), default=0)
    if arity_cap is None:
        arity_cap = max(max_arity, Q.max_arity())
    _nonnegative(arity_cap)

    def keeps_color(m, q):
        img = M.right_cell(m, 0, q)
        return img is not None and num.sigs[img][1] == num.sigs[m][1]

    # a unary element at a is a basepoint component when every q with
    # output a acts on it in slot 0 and keeps its output color
    pools = []
    for a in colors:
        qs = [q for s in Q.signatures() if s[1] == a for q in Q.values_at(s)]
        pools.append([(s, m) for s in M.collection.ops if s[0] == (a,)
                      for m in M.collection.ops_at(s)
                      if all(keeps_color(num.number((s, m)), q) for q in qs)])
    basepoints = [dict(zip(colors, combo)) for combo in product(*pools)]
    pointed = bool(basepoints)

    quasi_free = None
    witness = None
    if pointed and M.left is M.right:
        table, _homs = end_right_module(M, arity_cap=arity_cap,
                                        budget=budget)

        def comparison(qs, q):
            # the left action of q as a module map, or None where the
            # action is undefined
            h = {}
            p = Q.value((qs, q))
            for s, es in tensor_elements_of(M, qs[0], max_arity).items():
                for _, blocks in es:
                    got = M.left_cell(p, tuple(num.number(m)
                                               for _, m in blocks))
                    if got is None:
                        return None
                    h[s, ("tens", blocks)] = num.refs[perms.unshuffle(
                        num.image, got, _block_order(blocks))]
            return _hom_id(h)

        op_maps = {qs: {q: comparison(qs, q) for q in Q.ops_at(qs)}
                   for qs in Q.signatures() if len(qs[0]) <= arity_cap}
        if all(None not in table_q.values() for table_q in op_maps.values()):
            chi = Multifunctor(source=Q, target=table,
                               object_map={a: a for a in Q.colors},
                               op_maps=op_maps)
            rep = is_equivalence(chi)
            quasi_free = rep.is_equivalence
            witness = rep.witnesses[:3]
        else:
            quasi_free = False
            witness = ["comparison undefined inside the caps"]
    return {
        "pointed": pointed,
        "basepoints": basepoints,
        "quasi_free": quasi_free,
        "witness": witness,
    }
