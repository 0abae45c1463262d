"""Two-sided module structures on collections, bar-style resolutions, and
the endomorphism multicategory of a right module.

A bimodule has inputs colored by the right-acting multicategory and
outputs by the left-acting one.  The right action substitutes operations
into single inputs; the left action composes an operation onto a tuple of
module elements.  The compatibility axiom relates the two whenever both
sides are defined inside the declared support.

Bar truncations are circle-product elements over numbered towers of
layers; face maps merge two adjacent layers (the module actions at the
ends, composition in the middle), degeneracy maps insert a unit layer,
and both are computed once per tower element.
"""

from dataclasses import dataclass, field
from itertools import product

from . import perms
from .core import (FiniteCollection, LawReport, TableMulticategory,
                   TruncatedSimplicialSet, _gamma_by_size, backtrack,
                   check_slot_laws, composed_sig, sig_key, tabulate)
from .errors import DomainError, StructuralError
from .homcalc import Multifunctor
from .presents import UnionFind
from .trees import (base_layer, canonical_circle, circle_layer,
                    renumber_blocks, shuffles)


@dataclass
class Bimodule:
    left: TableMulticategory
    right: TableMulticategory
    collection: FiniteCollection
    left_table: dict = field(repr=False, default_factory=dict)
    right_table: dict = field(repr=False, default_factory=dict)
    name: str = ""

    def signatures(self):
        return self.collection.signatures()

    def refs(self):
        return self.collection.refs()

    def act(self, mref, p):
        return self.collection.act(mref, p)

    def act_right1(self, mref, slot, qref):
        got = self.try_act_right1(mref, slot, qref)
        if got is None:
            raise StructuralError(
                f"missing right action {mref} o_{slot} {qref}")
        return got

    def try_act_right1(self, mref, slot, qref):
        if self.right.is_unit(qref):
            return mref
        return self.right_table.get((mref, slot, qref))

    def act_right(self, mref, qrefs):
        return _gamma_by_size(self.act_right1, mref, qrefs)

    def act_left(self, pref, mrefs):
        got = self.try_act_left(pref, mrefs)
        if got is None:
            raise StructuralError(f"missing left action {pref} on {mrefs}")
        return got

    def try_act_left(self, pref, mrefs):
        if self.left.is_unit(pref):
            return mrefs[0]
        return self.left_table.get((pref, tuple(mrefs)))


def module_from_multicategory(M, max_arity=None):
    """M as a bimodule over itself on both sides; actions are composition."""
    cap = max_arity if max_arity is not None else M.max_arity()
    coll = M.collection
    right_table = {(pref, slot, qref): rref
                   for pref, slot, qref, rref in M.cells()}
    left_table = {}
    refs = list(coll.refs())
    for s in M.signatures():
        # argument tuples in product order, pruned as soon as their
        # running total arity passes the cap
        tuples = [((), 0)]
        for c in s[0]:
            tuples = [(t + (m,), n + len(m[0][0])) for t, n in tuples
                      for m in refs
                      if m[0][1] == c and n + len(m[0][0]) <= cap]
        for p in M.ops_at(s):
            for mrefs, _ in tuples:
                got = _gamma_by_size(M.try_compose1, (s, p), mrefs)
                if got is not None:
                    left_table[(s, p), mrefs] = got
    return Bimodule(left=M, right=M, collection=coll,
                    left_table=left_table, right_table=right_table,
                    name=f"{M.name}-bimod")


def check_bimodule(M, max_violations=25):
    """Every law of a bimodule, exhaustively over the declared support:

    - ``action-total``: the symmetric action tables are total;
    - ``right-unit``, then the right action as a slot action of
      ``M.right`` (:func:`core.check_slot_laws`): ``right-assoc``,
      ``right-parallel``, ``right-equivariance`` (outer) and
      ``right-equivariance-inner``;
    - ``left-assoc`` and ``left-equivariance`` of the left action;
    - ``compatibility`` of the two actions.

    Instances whose intermediate values fall outside the support are
    skipped.  The right action is read once into a table on the numbers
    of the elements and of ``M.right``.  ``max_violations`` is compared
    between elements, so the report can hold more violations than that."""
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

    mrefs_all = list(coll.refs())
    m_by_color, l_by_color, r_by_color = {}, {}, {}
    for m in mrefs_all:
        m_by_color.setdefault(m[0][1], []).append(m)
    for by_color, Q in ((l_by_color, M.left), (r_by_color, M.right)):
        for qs in Q.signatures():
            by_color.setdefault(qs[1], []).extend(
                (qs, q) for q in Q.ops_at(qs))

    def m_tuples(colors):
        return product(*[m_by_color.get(c, ()) for c in colors])

    for mref in mrefs_all:
        for slot, color in enumerate(mref[0][0]):
            got = M.try_act_right1(mref, slot, M.right.unit_ref(color))
            report.note("right-unit")
            if got is not None and got != mref:
                report.fail("right-unit", f"{mref} slot {slot}")

    # the right action once on numbers, for the slot laws
    number = coll.numbering.number
    qnumber = M.right.collection.numbering.number
    right = {(number(m), slot, qnumber(q)): number(r)
             for (m, slot, q), r in M.right_table.items()}
    right_units = M.right.unit_numbers

    def act1(m, slot, q):
        return m if q in right_units else right.get((m, slot, q))

    check_slot_laws(report, coll, act1, M.right, M.right.cell, True,
                    ("right-assoc", "right-parallel", "right-equivariance",
                     "right-equivariance-inner"),
                    max_violations)

    # left associativity and equivariance
    for s in M.left.signatures():
        if len(report.violations) >= max_violations:
            return report
        n = len(s[0])
        for p in M.left.ops_at(s):
            pref = (s, p)
            for mrefs in m_tuples(s[0]):
                pm = M.try_act_left(pref, mrefs)
                if pm is None:
                    continue
                for slot, color in enumerate(s[0]):
                    for qref in l_by_color.get(color, ()):
                        pq = M.left.try_compose1(pref, slot, qref)
                        if pq is None:
                            continue
                        for inner in m_tuples(qref[0][0]):
                            qm = M.try_act_left(qref, inner)
                            if qm is None:
                                continue
                            nested = (mrefs[:slot] + (qm,)
                                      + mrefs[slot + 1:])
                            left_side = M.try_act_left(pref, nested)
                            flat = mrefs[:slot] + inner + mrefs[slot + 1:]
                            right_side = M.try_act_left(pq, flat)
                            report.note("left-assoc")
                            if (left_side is not None
                                    and right_side is not None
                                    and left_side != right_side):
                                report.fail("left-assoc",
                                            f"{pref} o_{slot} {qref}")
                for sigma in perms.all_perms(n):
                    p2 = M.left.act(pref, sigma)
                    permuted = tuple(mrefs[sigma[t]] for t in range(n))
                    left_side = M.try_act_left(p2, permuted)
                    report.note("left-equivariance")
                    if left_side is not None:
                        sizes = [len(m[0][0]) for m in mrefs]
                        want = M.act(pm, perms.block_permutation(sigma, sizes))
                        if left_side != want:
                            report.fail("left-equivariance",
                                        f"{pref} perm {sigma}")

    # compatibility of the two actions; each element's right actions on
    # the blocks of its inputs are computed once
    right_acted = {}

    def blocks(m):
        got = right_acted.get(m)
        if got is None:
            got = right_acted[m] = [
                (block, _gamma_by_size(M.try_act_right1, m, block))
                for block in product(*[r_by_color.get(c, ())
                                       for c in m[0][0]])]
        return got

    for s in M.left.signatures():
        if len(report.violations) >= max_violations:
            return report
        for p in M.left.ops_at(s):
            pref = (s, p)
            for mrefs in m_tuples(s[0]):
                pm = M.try_act_left(pref, mrefs)
                if pm is None:
                    continue
                for combo in product(*[blocks(m) for m in mrefs]):
                    flat = [q for block, _ in combo for q in block]
                    left_side = _gamma_by_size(M.try_act_right1, pm, flat)
                    acted = tuple(a for _, a in combo)
                    right_side = (None if None in acted
                                  else M.try_act_left(pref, acted))
                    report.note("compatibility")
                    if (left_side is not None and right_side is not None
                            and left_side != right_side):
                        report.fail("compatibility", f"{pref} on {mrefs}")
                        if len(report.violations) >= max_violations:
                            return report
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
    index)."""
    if min(n_max, max_arity) < 0:
        raise DomainError("levels and the arity cap must be >= 0")
    towers = [base_layer(Y.collection)]
    for _ in range(n_max):
        towers.append(circle_layer(P.collection, towers[-1], max_arity))
    levels = [circle_layer(X.collection, towers[n], max_arity)
              for n in range(n_max + 1)]

    def merge_roots(elem, kids, act, coll, target):
        # the root composed with its children's roots; the grandchildren
        # take the positions of their parent's block (sorted tuples)
        _, root, blocks = elem
        children = [kids.elems[c] for _, c in blocks]
        new_root = ("op",) + act(root[1:], [k[1][1:] for k in children])
        inlined = tuple((tuple(S[t] for t in S2), g)
                        for (S, _), k in zip(blocks, children)
                        for S2, g in k[2])
        return target.number[canonical_circle(new_root, inlined, coll)]

    def map_children(elem, f, coll, target):
        _, root, blocks = elem
        return target.number[canonical_circle(
            root, tuple((S, f(c)) for S, c in blocks), coll)]

    def y_merge(elem):
        # Y's left action, inputs renumbered back to ascending positions
        _, root, blocks = elem
        ref = perms.unshuffle(
            Y.act, Y.act_left(root[1:], [towers[0].elems[c][1:]
                                         for _, c in blocks]),
            _block_order(blocks))
        return towers[0].number[("op",) + ref]

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
                got = merge_roots(t, towers[h - 1], P.gamma, P.collection,
                                  towers[h - 1])
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
            merge_roots(e, towers[n], X.act_right, X.collection, down)
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
        out[e] = perms.unshuffle(
            P.act, P.gamma((root[1], root[2]),
                           [(c[1], c[2]) for _, c in blocks]),
            _block_order(blocks))
    return out


# ---------------------------------------------------------------------------
# right modules, restriction


@dataclass
class RightModule:
    over: TableMulticategory
    collection: FiniteCollection
    table: dict = field(repr=False, default_factory=dict)
    name: str = ""

    def act1(self, mref, slot, qref):
        got = self.try_act1(mref, slot, qref)
        if got is None:
            raise StructuralError(
                f"missing right action {mref} o_{slot} {qref}")
        return got

    def try_act1(self, mref, slot, qref):
        if self.over.is_unit(qref):
            return mref
        return self.table.get((mref, slot, qref))

    def act(self, mref, p):
        return self.collection.act(mref, p)

    def refs(self):
        return self.collection.refs()

    def out_colors(self):
        return tuple(sorted({s[1] for s in self.collection.ops}))


def right_module_from(M):
    if isinstance(M, RightModule):
        return M
    if isinstance(M, Bimodule):
        return RightModule(over=M.right, collection=M.collection,
                           table=M.right_table, name=M.name)
    mod = module_from_multicategory(M)
    return RightModule(over=M, collection=M.collection,
                       table=mod.right_table, name=M.name)


def restrict_module(N, psi):
    """Reindex a right module along a multifunctor into its acting
    multicategory: same elements, inputs recolored through the object map,
    action through the operation maps."""
    R = psi.source
    S = psi.target
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
    for s in ops:
        for m in ops[s]:
            for slot, color in enumerate(s[0]):
                for qs in R.signatures():
                    if qs[1] != color:
                        continue
                    for q in R.ops_at(qs):
                        base = N.try_act1((origin[s], m), slot,
                                          psi.map_ref((qs, q)))
                        if base is None:
                            continue
                        rsig = composed_sig(s, slot, qs)
                        table[((s, m), slot, (qs, q))] = (rsig, base[1])
    return RightModule(over=R, collection=coll, table=table,
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


def tensor_act_sigma(N, elem, p):
    return ("tens", tuple(
        (S, mref if rho == perms.identity(len(rho)) else N.act(mref, rho))
        for S, rho, mref in renumber_blocks(elem[1], p)))


def tensor_act_right(N, elem, slot, qref):
    _, blocks = elem
    k = len(qref[0][0])
    new_blocks = []
    for S, mref in blocks:
        if slot in S:
            local = sorted(S).index(slot)
            acted = N.try_act1(mref, local, qref)
            if acted is None:
                return None
            newS = []
            for pos in sorted(S):
                if pos < slot:
                    newS.append(pos)
                elif pos == slot:
                    newS.extend(range(slot, slot + k))
                else:
                    newS.append(pos + k - 1)
            new_blocks.append((tuple(newS), acted))
        else:
            newS = tuple(pos if pos < slot else pos + k - 1 for pos in S)
            new_blocks.append((newS, mref))
    return ("tens", tuple(new_blocks))


def enumerate_module_homs(N, factors, target, max_arity, budget=200000):
    """Right-module homomorphisms from an ordered tensor of slices into
    the slice at `target`, in depth-first order: a `core.backtrack` that
    derives images along the symmetric actions and the right action."""
    elems = tensor_elements(N, factors, max_arity)
    elem_sets = {s: set(v) for s, v in elems.items()}
    order = [(s, e)
             for s in sorted(elems, key=lambda s: (len(s[0]), str(s)))
             for e in elems[s]]
    target_ops = {s: [((s[0], target), m)
                      for m in N.collection.ops_at((s[0], target))]
                  for s in elems}

    def derive(key, value, assign):
        s, e = key
        for p in perms.all_perms(len(s[0])):
            e2 = tensor_act_sigma(N, e, p)
            s2 = (perms.permute(s[0], p), s[1])
            if e2 in elem_sets.get(s2, ()):
                yield (s2, e2), N.act(value, p)
        for slot, color in enumerate(s[0]):
            for qs in N.over.signatures():
                if qs[1] != color or len(s[0]) + len(qs[0]) - 1 > max_arity:
                    continue
                for q in N.over.ops_at(qs):
                    e2 = tensor_act_right(N, e, slot, (qs, q))
                    if e2 is None:
                        continue
                    v2 = N.try_act1(value, slot, (qs, q))
                    if v2 is None:
                        continue
                    s2 = (composed_sig((s[0], "*"), slot, qs)[0], s[1])
                    if e2 in elem_sets.get(s2, ()):
                        yield (s2, e2), v2

    return list(backtrack(
        order, lambda key: target_ops[key[0]], derive, {}, budget,
        "module homomorphism search exceeded budget"))


def _tens_id(e):
    _, blocks = e
    return "+".join(
        f"({','.join(str(x) for x in S)}:{m[1]})" for S, m in blocks)


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
    out_colors = N.out_colors()
    max_arity = max((len(s[0]) for s in N.collection.ops), default=0)
    if arity_cap is None:
        arity_cap = max_arity

    elements = {}
    for k in range(arity_cap + 1):
        for factors in product(out_colors, repeat=k):
            for b in out_colors:
                elements[tuple(factors), b] = enumerate_module_homs(
                    N, list(factors), b, max_arity, budget=budget)

    def act_hom(sig, h, p):
        new_factors = perms.permute(sig[0], p)
        out = {}
        for (s, e), v in h.items():
            _, blocks = e
            new_blocks = tuple(blocks[j] for j in p)
            out[(s[0], new_factors), ("tens", new_blocks)] = v
        return out

    units = {}
    for b in out_colors:
        h = {}
        for s, es in tensor_elements(N, [b], max_arity).items():
            for e in es:
                (_, ((_, mref),)) = e
                h[s, e] = mref
        units[b] = h

    def compose_homs(sig, h, slot, qsig, g):
        l = len(qsig[0])
        new_factors = sig[0][:slot] + qsig[0] + sig[0][slot + 1:]
        out = {}
        for s, es in tensor_elements(N, list(new_factors),
                                     max_arity).items():
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
        return out

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

    def keeps_color(mref, qref):
        img = M.try_act_right1(mref, 0, qref)
        return img is not None and img[0][1] == mref[0][1]

    # a unary element at a is a basepoint component when every q with
    # output a acts on it in slot 0 and keeps its output color
    pools = []
    for a in colors:
        qrefs = [(qs, q) for qs in Q.signatures() if qs[1] == a
                 for q in Q.ops_at(qs)]
        pools.append([(s, m) for s in M.collection.ops if s[0] == (a,)
                      for m in M.collection.ops_at(s)
                      if all(keeps_color((s, m), qref) for qref in qrefs)])
    basepoints = [dict(zip(colors, combo)) for combo in product(*pools)]
    pointed = bool(basepoints)

    quasi_free = None
    witness = None
    if pointed and M.left is M.right:
        N = right_module_from(M)
        max_arity = max((len(s[0]) for s in N.collection.ops), default=0)
        if arity_cap is None:
            arity_cap = max(max_arity, Q.max_arity())
        table, _homs = end_right_module(M, arity_cap=arity_cap,
                                        budget=budget)
        op_maps = {}
        ok = True
        for qs in Q.signatures():
            if len(qs[0]) > arity_cap:
                continue
            table_q = {}
            for q in Q.ops_at(qs):
                h = {}
                factors = tuple(qs[0])
                for s, es in tensor_elements(N, list(factors),
                                             max_arity).items():
                    for e in es:
                        _, blocks = e
                        val = M.try_act_left((qs, q),
                                             tuple(m for _, m in blocks))
                        if val is None:
                            ok = False
                            break
                        h[s, e] = perms.unshuffle(M.act, val,
                                                  _block_order(blocks))
                    if not ok:
                        break
                if not ok:
                    break
                table_q[q] = _hom_id(h)
            if not ok:
                break
            op_maps[qs] = table_q
        if ok:
            chi = Multifunctor(source=Q, target=table,
                               object_map={a: a for a in Q.colors},
                               op_maps=op_maps)
            from .core import is_equivalence

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
