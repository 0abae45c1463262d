"""Planar rooted trees: grafting, the tree multicategory on arities, free
multicategories, and the circle product of collections.

Three tree encodings live here, all as nested tuples so that structural
equality is tuple equality:

* generator terms (for free constructions):
  ``('L', color, index)`` is a leaf edge carrying its input position,
  ``('N', gen_signature, gen_id, children)`` a vertex labeled by a
  generator.  A planar rooted tree has no nontrivial planar automorphism,
  so the encoding is a complete invariant of the numbered tree; symmetric
  equality (identifying per-vertex twists by the generator actions) is
  handled by :func:`canonical_term`.  A :class:`TermPool` keeps each term
  also as its root over its children's numbers, to enumerate, renumber
  and graft on numbers; it writes out each nested term once.

* arity trees (operations of the tree multicategory):
  ``('L', index)`` a numbered input edge, ``('V', vnum, children)`` a
  vertex carrying its number.  The bare edge ``('L', 0)`` is the unique
  operation with no vertices and one input.

* circle elements (elements of circle products and bar levels):
  ``('op', signature, op_id)`` an operation of a base collection,
  ``('circ', root, blocks)`` a root operation with one block
  ``(positions, element)`` per input, the positions being the sorted
  input numbers the block's element feeds; :func:`canonical_circle`
  picks one representative per simultaneous block permutation.  They
  live in numbered layers (:class:`Layer`): a layer numbers its elements
  in sorted order, and a block names its element by its number in the
  layer below, so that each element is stored once and the nested form
  is written out only where it is read.

Both symmetric quotients are orbit minima of tuples that begin with an
operation's ``(signature, id)``, so the minimum carries the least image
of that operation (the generator at a vertex, the root of a circle
element).  :func:`least_image` keeps, once per operation, that image and
the permutations giving it, a coset of the operation's stabilizer; the
minima compare only those permutations, and the symmetric enumerations
draw only the operations that are their own least image
(:func:`orbit_least`) at the root, since every class has a member whose
root is one.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice, product

from . import perms
from .core import FiniteCollection, composed_sig, sig_key, tabulate
from .errors import (CompositionError, DomainError, StructuralError,
                     SubstitutionError, TruncationError)


# ---------------------------------------------------------------------------
# generator terms


def identity_term(color):
    return ("L", color, 0)


def corolla(gsig, gid):
    children = tuple(("L", c, i) for i, c in enumerate(gsig[0]))
    return ("N", gsig, gid, children)


def term_leaves(t):
    if t[0] == "L":
        yield t
    else:
        for child in t[3]:
            yield from term_leaves(child)


def term_arity(t):
    return sum(1 for _ in term_leaves(t))


def term_signature(t):
    leaves = list(term_leaves(t))
    inputs = [None] * len(leaves)
    for _, color, idx in leaves:
        if inputs[idx] is not None:
            raise StructuralError(f"duplicate leaf index {idx}")
        inputs[idx] = color
    if any(c is None for c in inputs):
        raise StructuralError("leaf indices are not 0..n-1")
    out = t[1] if t[0] == "L" else t[1][1]
    return (tuple(inputs), out)


def term_out_color(t):
    return t[1] if t[0] == "L" else t[1][1]


def graft(t, index, s):
    """Replace the leaf numbered `index` of t by the term s.

    Leaves of t keep their numbers below `index`, shift up by arity(s)-1
    above it; leaves of s land at index..index+arity(s)-1.
    """
    m = term_arity(s)

    def go(node):
        if node[0] == "L":
            _, color, idx = node
            if idx == index:
                if term_out_color(s) != color:
                    raise SubstitutionError(
                        f"cannot graft output {term_out_color(s)} onto a "
                        f"{color} leaf")
                return shift_leaves(s, index)
            if idx > index:
                return ("L", color, idx + m - 1)
            return node
        return ("N", node[1], node[2], tuple(go(c) for c in node[3]))

    if not any(idx == index for _, _, idx in term_leaves(t)):
        raise SubstitutionError(f"no leaf numbered {index}")
    return go(t)


def shift_leaves(t, offset):
    if t[0] == "L":
        return ("L", t[1], t[2] + offset)
    return ("N", t[1], t[2], tuple(shift_leaves(c, offset) for c in t[3]))


def relabel_leaves(t, index):
    """t with the input number i of each leaf replaced by index[i]."""
    if t[0] == "L":
        return ("L", t[1], index[t[2]])
    return ("N", t[1], t[2], tuple(relabel_leaves(c, index) for c in t[3]))


def extract_standalone(node):
    """Rank-normalize the leaf numbers of a subtree; returns the standalone
    term and the rank -> original index mapping."""
    indices = sorted(idx for _, _, idx in term_leaves(node))
    rank = {g: r for r, g in enumerate(indices)}
    return relabel_leaves(node, rank), indices


def renumber_term(t, sigma):
    """The symmetric action: input t of the result reads input sigma[t]."""
    return relabel_leaves(t, perms.inverse(sigma))


def canonical_term(t, gens):
    """Minimal representative modulo the per-vertex generator actions.

    At each vertex the generator may be replaced by any of its symmetric
    images with the children permuted accordingly; minimizing bottom-up
    over these local moves picks one representative per equivalence class.
    Each step compares only the permutations that give the generator its
    least image (:func:`vertex_minimum`)."""
    if t[0] == "L":
        return t
    return vertex_minimum(t[1], t[2], tuple(
        [c if c[0] == "L" else canonical_term(c, gens) for c in t[3]]), gens)


def least_image(coll, ref):
    """``(signature, id, coset)``: the least symmetric image of the
    operation ref of the collection coll, as a ``(signature, id)`` pair,
    and the permutations that give it, in ``perms.all_perms`` order; they
    form a coset of ref's stabilizer.  The coset is None when it is the
    identity alone, so that ref is its own least image and moves nothing.
    Read once per operation from :meth:`FiniteCollection.images`, raising
    as it does, and kept in ``coll.numbering.least``."""
    table = coll.numbering.least
    got = table.get(ref)
    if got is None:
        images = coll.images(ref)
        s, op = min([image[1:] for image in images])
        coset = tuple([p for p, s2, op2 in images if s2 == s and op2 == op])
        if coset == (perms.identity(len(ref[0][0])),):
            coset = None
        got = table[ref] = (s, op, coset)
    return got


def orbit_least(coll, s):
    """The operations at s that are their own least image, in ``ops_at``
    order: one for each orbit whose least image lies at s."""
    return [op for op in coll.ops_at(s) if least_image(coll, (s, op))[:2]
            == (s, op)]


def vertex_minimum(gsig, gid, children, gens):
    """The least image of the vertex ``(gsig, gid)`` over canonical
    children: the one local step of :func:`canonical_term`.

    Terms compare as tuples ``('N', signature, id, children)``, so the
    minimum carries the generator's least image (:func:`least_image`), and
    only the permutations of its coset are compared; for a free action
    that is one permutation, and the children are gathered by it.

    Terms compare as nested tuples, a leaf before a vertex (``'L' < 'N'``),
    leaves by color, then input number.  So a strictly increasing map on
    the leaf numbers keeps every comparison, and a canonical term stays
    canonical.  Put a canonical term in place of a leaf or subtree of a
    canonical term, moving the other leaves by such a map: every subtree
    off that path stays canonical, and this minimum taken again along the
    path, bottom up, gives :func:`canonical_term` of the result; that is
    how :meth:`TermPool.graft` and :meth:`TermPool.rewrite` work."""
    ref = (gsig, gid)
    s, g, coset = gens.numbering.least.get(ref) or least_image(gens, ref)
    if coset is None:
        return ("N", gsig, gid, children)
    pick = children.__getitem__
    if len(coset) == 1:
        return ("N", s, g, tuple(map(pick, coset[0])))
    return ("N", s, g, min([tuple(map(pick, p)) for p in coset]))


def term_text(t):
    """Deterministic bracketed encoding, also used in DSL literals."""
    if t[0] == "L":
        return f"${t[2] + 1}"
    if not t[3]:
        return t[2] + "()"
    return t[2] + "(" + ",".join(term_text(c) for c in t[3]) + ")"


# ---------------------------------------------------------------------------
# arity trees (operations of the tree multicategory)


def op_identity(n):
    return ("V", 0, tuple(("L", i) for i in range(n)))


BARE_EDGE = ("L", 0)


def op_vertex_count(t):
    if t[0] == "L":
        return 0
    return 1 + sum(op_vertex_count(c) for c in t[2])


def op_valences(t):
    """Valence of each vertex, listed by vertex number."""
    out = {}

    def go(node):
        if node[0] == "L":
            return
        _, vnum, children = node
        if vnum in out:
            raise StructuralError(f"duplicate vertex number {vnum}")
        out[vnum] = len(children)
        for c in children:
            go(c)

    go(t)
    if sorted(out) != list(range(len(out))):
        raise StructuralError("vertex numbers are not 0..k-1")
    return tuple(out[i] for i in range(len(out)))


def op_leaf_count(t):
    if t[0] == "L":
        return 1
    return sum(op_leaf_count(c) for c in t[2])


def op_signature(t):
    """Signature in the tree multicategory: inputs are the vertex valences
    in vertex-number order, the output is the leaf count; all as strings."""
    vals = op_valences(t)
    leaves = []

    def go(node):
        if node[0] == "L":
            leaves.append(node[1])
        else:
            for c in node[2]:
                go(c)

    go(t)
    if sorted(leaves) != list(range(len(leaves))):
        raise StructuralError("leaf numbers are not 0..n-1")
    return (tuple(str(v) for v in vals), str(len(leaves)))


def op_compose(outer, inners):
    """Substitute inners[i] for the vertex numbered i of the outer tree.

    Vertex numbers of the result are blockwise: the vertices of inners[0]
    keep their order first, then inners[1], and so on; input numbering is
    carried through the leaf matchings of the inner trees.
    """
    vals = op_valences(outer)
    if len(inners) != len(vals):
        raise CompositionError(
            f"need {len(vals)} arguments, got {len(inners)}")
    offsets = []
    total = 0
    for i, inner in enumerate(inners):
        if op_leaf_count(inner) != vals[i]:
            raise CompositionError(
                f"argument {i} has {op_leaf_count(inner)} inputs, vertex "
                f"{i} has valence {vals[i]}")
        offsets.append(total)
        total += op_vertex_count(inner)

    def plug(inner_node, children, offset):
        # replace leaf l of the inner tree by children[l], shifting vnums
        if inner_node[0] == "L":
            return children[inner_node[1]]
        return ("V", inner_node[1] + offset,
                tuple(plug(c, children, offset) for c in inner_node[2]))

    def go(node):
        if node[0] == "L":
            return node
        _, vnum, children = node
        done = tuple(go(c) for c in children)
        return plug(inners[vnum], done, offsets[vnum])

    return go(outer)


def op_act(t, alpha):
    """Vertex renumbering action: the vertex numbered alpha[i] becomes i."""
    inv = perms.inverse(alpha)

    def go(node):
        if node[0] == "L":
            return node
        return ("V", inv[node[1]], tuple(go(c) for c in node[2]))

    return go(t)


def op_text(t):
    if t[0] == "L":
        return f"*{t[1] + 1}"
    return f"v{t[1] + 1}(" + ",".join(op_text(c) for c in t[2]) + ")"


def op_hom_set(valences, n_inputs, cap=20000):
    """All numbered trees with the given vertex valences and input count.

    Empty when no tree shape fits (the leaf count of a tree is determined
    by its valences).  Raises TruncationError when more than `cap` trees
    would be produced.
    """
    k = len(valences)
    if k == 0:
        return [BARE_EDGE] if n_inputs == 1 else []
    if n_inputs != sum(valences) - k + 1 or n_inputs < 0:
        return []

    def splits(items, bins):
        # ordered partitions of a set of vertex numbers into `bins` subsets
        if bins == 0:
            if not items:
                yield ()
            return
        if bins == 1:
            yield (frozenset(items),)
            return
        items = list(items)
        for assign in product(range(bins), repeat=len(items)):
            yield tuple(frozenset(x for x, b in zip(items, assign) if b == j)
                        for j in range(bins))

    def shapes(root, others):
        # trees over vertex set {root} | others; leaves unnumbered (None)
        val = valences[root]
        for parts in splits(others, val):
            child_lists = []
            for part in parts:
                if not part:
                    child_lists.append([("L", None)])
                else:
                    subs = []
                    for sub_root in part:
                        subs.extend(shapes(sub_root, part - {sub_root}))
                    child_lists.append(subs)
            for combo in product(*child_lists):
                yield ("V", root, combo)

    out = []
    all_vs = frozenset(range(k))
    for root in range(k):
        for shape in shapes(root, all_vs - {root}):
            # number the leaves in every possible way
            slots = []

            def walk(node):
                if node[0] == "L":
                    slots.append(None)
                else:
                    for c in node[2]:
                        walk(c)

            walk(shape)

            def fill(node, numbering, pos):
                if node[0] == "L":
                    v = ("L", numbering[pos[0]])
                    pos[0] += 1
                    return v
                return ("V", node[1],
                        tuple(fill(c, numbering, pos) for c in node[2]))

            for numbering in perms.all_perms(len(slots)):
                out.append(fill(shape, numbering, [0]))
                if len(out) > cap:
                    raise TruncationError(
                        f"tree enumeration exceeded cap {cap}",
                        partial=len(out))
    return sorted(set(out))


def build_tree_multicategory(max_arity=3, max_vertices=2, cap=200000):
    """The multicategory on arities whose operations are numbered trees.

    Colors are the arities 0..max_arity as strings; operations at
    (n_1..n_k; n) are the numbered trees with k vertices of the given
    valences and n inputs, for k <= max_vertices.  Compositions whose
    vertex count escapes the cap are omitted and the table is marked
    partial (the full structure is infinite).
    """
    elements = {}
    for k in range(max_vertices + 1):
        for vals in product(range(max_arity + 1), repeat=k):
            n = (sum(vals) - k + 1) if k else 1
            if 0 <= n <= max_arity:
                s = (tuple(str(v) for v in vals), str(n))
                elements[s] = op_hom_set(list(vals), n, cap=cap)

    def compose(s, t, slot, qs, q):
        if not elements.get(composed_sig(s, slot, qs)):
            return None
        inners = [op_identity(int(v)) for v in s[0]]
        inners[slot] = q
        return op_compose(t, inners)

    table, structure, _ = tabulate(
        tuple(str(n) for n in range(max_arity + 1)), elements,
        {str(n): op_identity(n) for n in range(max_arity + 1)}, op_text,
        lambda s, t, p: op_act(t, p), compose, name="trees")
    return table, structure


# ---------------------------------------------------------------------------
# free multicategories


@dataclass
class FreeReport:
    complete: bool
    escapes: int
    term_count: int


class TermPool(list):
    """The symmetric terms within the caps, built on term numbers by
    :func:`enumerate_terms`, sorted and numbered by position (``number``),
    with each term's ``arity``, ``signature`` and ``vertices`` (its vertex
    count); ``moves[x][k]`` is the position of ``canonical_term(renumber_term(
    self[x], perms.adjacent_transpositions(arity of x)[k]), gens)``.

    ``parts[x]``, the root decomposition of term x, is None for an
    identity term, else its root generator ``(signature, id)`` and one
    ``(s, leaves)`` per child: s numbers the child's standalone subtree
    (its leaves renumbered 0, 1, ... in order) and ``leaves`` is the
    increasing map from those leaves to x's; ``numbered`` inverts it.  The
    standalone subtree is a pool term: a subtree of a canonical term is
    canonical, an increasing leaf map keeps every comparison
    (:func:`vertex_minimum`), and it fits the caps.  :meth:`graft` and
    :meth:`rewrite` change the child on the changed path and minimize the
    root again over its coset, on numbers.  Two children of a vertex have
    disjoint leaves, so in preorder they first differ at or before the
    first leaf of either: they compare by the rank of their preorder up to
    that leaf, less its number, then by its image (``keys``)."""

    def __init__(self, gens, max_arity, max_vertices):
        super().__init__()
        self.parts, self.arity, self.signature, self.vertices = [], [], [], []
        self.moves, self.keys, self.numbered = [], [], {}
        self.cosets, self.grafts = {}, {}
        seeds = {}  # (vertices, output color) -> first term of each orbit
        for c in gens.colors:
            seeds[0, c] = [self._add(None, ((c,), c), 0)]
            self.append(identity_term(c))
        for v in range(1, max_vertices + 1):
            for s in gens.signatures():
                refs = [(s, gid) for gid in orbit_least(gens, s)]
                for split in product(range(v), repeat=len(s[0])):
                    if sum(split) != v - 1:
                        continue
                    for combo in product(*[seeds.get(shape, ())
                                           for shape in zip(split, s[0])]):
                        inputs = sum([self.signature[c][0] for c in combo], ())
                        if len(inputs) > max_arity:
                            continue
                        # the children's leaves in contiguous blocks
                        leaf = iter(range(len(inputs)))
                        kids = [(c, tuple(islice(leaf, self.arity[c])))
                                for c in combo]
                        for ref in refs:
                            self.cosets[ref] = least_image(gens, ref)[2]
                            part = self._part(ref, kids)
                            if part not in self.numbered:
                                x = self._add(part, (inputs, s[1]), v)
                                seeds.setdefault((v, s[1]), []).append(x)
                                self._orbit(x)
        # write each term out once, then sort and carry every field along
        write = cache(lambda s, leaves: relabel_leaves(self[s], leaves))
        for ref, kids in self.parts[len(self):]:
            self.append(("N",) + ref + (tuple([write(*kid) for kid in kids]),))
        order = sorted(range(len(self)), key=self.__getitem__)
        where = {d: x for x, d in enumerate(order)}
        rank = {h: r for r, h in enumerate(sorted({h for h, _ in self.keys}))}
        self.keys = [(rank[h], first) for h, first in self.keys]
        self[:] = map(self.__getitem__, order)
        self.parts = [p and (p[0], tuple([(where[s], ls) for s, ls in p[1]]))
                      for p in map(self.parts.__getitem__, order)]
        self.moves = [tuple([where[z] for z in self.moves[d]]) for d in order]
        self.arity, self.signature, self.vertices, self.keys = (
            list(map(field.__getitem__, order)) for field in (
                self.arity, self.signature, self.vertices, self.keys))
        self.numbered = {p: x for x, p in enumerate(self.parts) if p}
        self.number = {t: x for x, t in enumerate(self)}

    def _add(self, part, signature, v):
        """Number a new term; its head, unranked in ``keys``, is read off
        its children's."""
        key = ((("L", signature[1]),), 0)
        if part is not None:
            self.numbered[part] = len(self.parts)
            key = ((("N",) + part[0],), -1)
            for s, leaves in part[1]:  # the preorder up to the first leaf
                key = (key[0] + self.keys[s][0],
                       leaves[self.keys[s][1]] if leaves else -1)
                if leaves:
                    break
        self.parts.append(part)
        self.arity.append(len(signature[0]))
        self.signature.append(signature)
        self.vertices.append(v)
        self.keys.append(key)
        self.moves.append(())
        return len(self.parts) - 1

    def _orbit(self, x):
        """Number the renumbering orbit of the new term x, walked along the
        adjacent transpositions, and fill in the moves of its members."""
        frontier = [x]
        while frontier:
            y = frontier.pop()
            ref, kids = self.parts[y]
            # leaf number -> (child, position among the child's leaves)
            at = {i: (j, q) for j, (_, leaves) in enumerate(kids)
                  for q, i in enumerate(leaves)}
            row = []
            for k in range(self.arity[y] - 1):
                (a, q), (b, r) = at[k], at[k + 1]
                (s, la), (t, lb), new = kids[a], kids[b], list(kids)
                if a == b:  # the child's own transposition (q q+1)
                    new[a] = (self.moves[s][q], la)
                else:  # the two children trade the leaf numbers
                    new[a] = (s, la[:q] + (k + 1,) + la[q + 1:])
                    new[b] = (t, lb[:r] + (k,) + lb[r + 1:])
                part = self._part(ref, new)
                z = self.numbered.get(part)
                if z is None:
                    ins, out = self.signature[y]
                    z = self._add(part, (ins[:k] + (ins[k + 1], ins[k])
                                         + ins[k + 2:], out), self.vertices[y])
                    frontier.append(z)
                row.append(z)
            self.moves[y] = tuple(row)

    def graft(self, x, i, r):
        """The number of ``canonical_term(graft(self[x], i, self[r]))``,
        or -1 outside the caps, for r of the color of x's leaf i."""
        key = (x, i, r)
        got = self.grafts.get(key)
        if got is None:
            got = self.grafts[key] = self._graft(x, i, r)
        return got

    def _graft(self, x, i, r):
        if self.parts[x] is None:
            return r
        ref, kids = self.parts[x]
        m = self.arity[r] - 1  # how far the leaves past i move
        out = []
        for s, leaves in kids:
            if i in leaves:
                q = leaves.index(i)
                s = self.graft(s, q, r)
                if s < 0:
                    return -1
                leaves = (leaves[:q] + tuple(range(i, i + m + 1))
                          + tuple([j + m for j in leaves[q + 1:]]))
            elif m and leaves and leaves[-1] > i:
                leaves = tuple([j + m if j > i else j for j in leaves])
            out.append((s, leaves))
        return self.numbered.get(self._part(ref, out), -1)

    def rewrite(self, x, path, r):
        """The number of ``canonical_term`` of ``self[x]`` with the subtree
        at ``path`` (child indices from the root) replaced by ``self[r]``
        on the subtree's leaves, in order, or -1 outside the caps."""
        if not path:
            return r
        ref, kids = self.parts[x]
        j = path[0]
        s = self.rewrite(kids[j][0], path[1:], r)
        if s < 0:
            return -1
        return self.numbered.get(
            self._part(ref, kids[:j] + ((s, kids[j][1]),) + kids[j + 1:]), -1)

    def sites(self, x):
        """The proper vertex subtrees of term x in preorder, as (path,
        number of the standalone subtree) pairs."""
        for j, (s, _) in enumerate(self.parts[x][1] if self.parts[x] else ()):
            if self.parts[s] is not None:
                yield (j,), s
                yield from (((j,) + path, c) for path, c in self.sites(s))

    def _part(self, ref, kids):
        """The vertex ref over the children kids, minimized as by
        :func:`vertex_minimum` over ref's coset, its stabilizer (or None)."""
        coset = self.cosets[ref]
        if coset is not None:
            keys = [(self.keys[s][0], leaves[self.keys[s][1]] if leaves
                     else -1) for s, leaves in kids]
            best = min(coset, key=lambda p: [keys[k] for k in p])
            kids = [kids[k] for k in best]
        return ref, tuple(kids)


def enumerate_terms(gens, max_arity, max_vertices, symmetric):
    """All well-typed generator terms within the caps, canonical forms.

    Non-symmetric terms carry the planar leaf numbering, over every
    generator.  Symmetric terms are closed under renumbering and reduced
    modulo per-vertex actions, and come as a :class:`TermPool`, built by
    vertex count on term numbers: each new orbit is drawn from a seed, a
    generator that is its own least image (:func:`orbit_least`) over the
    first-found members of orbits of fewer vertices, leaves dealt in
    contiguous blocks, root minimized over its coset.  No class is lost:
    every class has a member whose root is a least image over canonical
    children, and renumbering its leaves into contiguous blocks gives a
    seed (up to each child's own renumbering) whose orbit holds the class.
    The orbit is walked along the adjacent transpositions (k k+1), with no
    tree built.  Leaf maps are increasing, so a transposition touches at
    most one child: if k and k+1 feed one child they are adjacent in its
    map and it takes its own ``moves`` entry; else two children trade the
    two leaf numbers and keep their terms.  The root is minimized again.
    """
    if min(max_arity, max_vertices) < 0:
        raise DomainError("the arity and vertex caps must be >= 0")
    if symmetric:
        return TermPool(gens, max_arity, max_vertices)
    # (vertices, out_color) -> {planar-numbered term: arity}
    by_shape = {(0, c): {identity_term(c): 1} for c in gens.colors}
    for v in range(1, max_vertices + 1):
        for s in gens.signatures():
            k = len(s[0])
            for gid in gens.ops_at(s):
                for split in product(range(v), repeat=k):
                    if sum(split) != v - 1:
                        continue
                    pools = [by_shape.get((childv, color), {}).items()
                             for childv, color in zip(split, s[0])]
                    for combo in product(*pools):
                        if sum([m for _, m in combo]) > max_arity:
                            continue
                        # re-offset the children's leaves left to right
                        offset = 0
                        fixed = []
                        for ch, m in combo:
                            fixed.append(shift_leaves(ch, offset))
                            offset += m
                        by_shape.setdefault((v, s[1]), {})[
                            ("N", s, gid, tuple(fixed))] = offset

    return sorted({t for pool in by_shape.values() for t in pool})


def renumbering(pool):
    """The symmetric action on a :class:`TermPool`, by position:
    ``image(x, p)`` is the position of ``canonical_term(renumber_term(
    pool[x], p), gens)``; ``row(x)`` lists them in ``perms.all_perms``
    order.  A permutation p past the identity, with first descent k, is
    ``compose(s, tau)`` for tau = (k k+1) and the earlier s = p with k and
    k + 1 swapped, and ``renumber_term(t, compose(s, tau))`` is
    ``renumber_term(renumber_term(t, s), tau)``; renumbering commutes with
    the per-vertex actions, so each image is one table step from an earlier
    one.  A term with k table steps has arity k + 1 (or 0, with one image)."""
    moves = pool.moves
    walks = {}  # arity -> ({p: slot}, [(slot of s, k)])
    rows = {}  # position -> its images, by slot

    def walk(n):
        got = walks.get(n)
        if got is None:
            order = perms.all_perms(n)
            slot = {p: i for i, p in enumerate(order)}
            steps = []
            for p in order[1:]:
                k = next(k for k in range(n - 1) if p[k] > p[k + 1])
                steps.append((slot[p[:k] + (p[k + 1], p[k]) + p[k + 2:]], k))
            got = walks[n] = (slot, steps)
        return got

    def row(x):
        got = rows.get(x)
        if got is None:
            got = rows[x] = [x]
            for src, k in walk(len(moves[x]) + 1)[1]:
                got.append(moves[got[src]][k])
        return got

    def image(x, p):
        return row(x)[walk(len(p))[0][p]]

    return image, row


def free_multicategory(gens, symmetric, max_arity=3, max_vertices=4,
                       require_complete=False):
    """The free (symmetric) multicategory on a finite collection, within
    caps: terms as operations, grafting as composition, leaf renumbering
    as the symmetric action.  With require_complete, a composition that
    escapes the vertex cap raises instead of marking the table partial.

    The symmetric one is the quotient by no relations: the saturation of
    the empty presentation (:func:`presents.saturate`), whose classes are
    single terms, so a composite over the vertex cap escapes without being
    grafted.  The planar one tabulates the planar terms directly."""
    if symmetric:
        from .presents import Presentation, saturate

        sat = saturate(Presentation(gens, (), name="free"), max_arity,
                       max_vertices)
        table, escapes = sat.table, sat.report.comp_escapes
        term_count = sat.report.term_count
    else:
        terms = enumerate_terms(gens, max_arity, max_vertices, False)
        term_set = set(terms)
        elements = {}
        for t in terms:
            elements.setdefault(term_signature(t), []).append(t)

        def compose(s, t, slot, qs, q):
            w = graft(t, slot, q)
            return w if w in term_set else None

        table, _, escapes = tabulate(
            sorted(gens.colors), elements,
            {c: identity_term(c) for c in gens.colors}, term_text,
            lambda s, t, p: t, compose, arity_cap=max_arity,
            symmetric=False, name="free")
        term_count = len(terms)
    if escapes and require_complete:
        raise TruncationError(
            f"{escapes} compositions escape the vertex cap {max_vertices}")
    return table, FreeReport(escapes == 0, escapes, term_count)


# ---------------------------------------------------------------------------
# circle product of collections


class Layer:
    """The elements of a base collection or of a circle product, numbered
    in sorted order.

    A base element is ``('op', signature, op_id)``; a circle element is
    ``('circ', root, blocks)`` whose blocks ``(positions, child)`` name the
    child by its number in the layer ``below``.  Numbers follow the order
    of the nested elements, so comparing two encoded elements compares
    their nested forms: sorting a layer and the orbit minimum of
    :func:`canonical_circle` are the same on either form.  ``sigs[i]`` is
    the signature of element i, ``number`` maps an element to its number
    and ``shapes`` an (output color, arity) pair to the numbers there;
    ``nested`` writes the children out, sharing their tuples.
    """

    def __init__(self, sig_of, below=None):
        self.below = below
        self.elems = sorted(sig_of)
        self.number = {e: i for i, e in enumerate(self.elems)}
        self.sigs = [sig_of[e] for e in self.elems]
        self.shapes = {}
        for i, (inputs, out) in enumerate(self.sigs):
            self.shapes.setdefault((out, len(inputs)), []).append(i)

    @cached_property
    def nested(self):
        if self.below is None:
            return self.elems
        kids = self.below.nested
        return [("circ", root, tuple((S, kids[c]) for S, c in blocks))
                for _, root, blocks in self.elems]


def base_layer(coll):
    """The operations of a FiniteCollection as ('op', sig, id)."""
    return Layer({("op", s, op): s for s, op in coll.refs()})


def canonical_circle(root_elem, blocks, coll):
    """Orbit-minimal form of (root, blocks) under permuting blocks
    simultaneously with the action on the root, an operation of the
    collection ``coll``.  The minimum carries the root's least image, so
    only the permutations of its coset are compared (:func:`least_image`),
    as in :func:`vertex_minimum`."""
    ref = root_elem[1:]
    s, op, coset = coll.numbering.least.get(ref) or least_image(coll, ref)
    if coset is None:
        return ("circ", root_elem, blocks)
    pick = blocks.__getitem__
    if len(coset) == 1:
        bs = tuple(map(pick, coset[0]))
    else:
        bs = min([tuple(map(pick, p)) for p in coset])
    # elements with an unmoved root share its tuple, as the levels are many
    root = root_elem if (s, op) == ref else ("op", s, op)
    return ("circ", root, bs)


def shuffles(n, k):
    """The ways to deal the input positions 0..n-1 into k ordered blocks,
    each a sorted tuple of positions, in product order."""
    assigns = product(range(k), repeat=n) if k else ([()] if n == 0 else [])
    for assign in assigns:
        yield tuple(tuple(p for p in range(n) if assign[p] == j)
                    for j in range(k))


def renumber_blocks(blocks, p):
    """Move (positions, item) blocks along the permutation p of their
    inputs: yields (new positions, rho, item), where local position t of
    the new block reads the old local position rho[t]."""
    inv = perms.inverse(p)
    for S, item in blocks:
        new_s = tuple(sorted(inv[x] for x in S))
        old_sorted = sorted(S)
        yield new_s, tuple(old_sorted.index(p[x]) for x in new_s), item


def circle_layer(m_coll, below, max_arity):
    """The circle product: one operation of the collection m_coll at the
    root, elements of the layer ``below`` on its inputs, modulo the
    simultaneous block permutation; a :class:`Layer` over ``below``.

    Only roots that are their own least image are drawn
    (:func:`orbit_least`).  No class is lost: a permutation of its coset
    takes any element to one with the least root, permuting its blocks,
    and the blocks of every dealing of the positions are drawn."""
    sig_of = {}
    for ms in m_coll.signatures():
        roots = orbit_least(m_coll, ms)
        for n in range(max_arity + 1):
            for blocks_pos in shuffles(n, len(ms[0])):
                pools = [below.shapes.get((out, len(S)), ())
                         for S, out in zip(blocks_pos, ms[0])]
                for op in roots:
                    root = ("op", ms, op)
                    for combo in product(*pools):
                        e = canonical_circle(
                            root, tuple(zip(blocks_pos, combo)), m_coll)
                        if e not in sig_of:
                            inputs = [None] * n
                            for S, c in e[2]:
                                for pos, color in zip(S, below.sigs[c][0]):
                                    inputs[pos] = color
                            sig_of[e] = (tuple(inputs), e[1][1][1])
    return Layer(sig_of, below)


def elem_text(e):
    if e[0] == "op":
        return f"{sig_key(e[1])}:{e[2]}"
    _, root, blocks = e
    parts = []
    for S, child in blocks:
        positions = "+".join(str(x + 1) for x in S)
        parts.append("{" + positions + "}" + elem_text(child))
    return "(" + elem_text(root) + ")[" + ";".join(parts) + "]"


def circle_product(m_coll, n_coll, max_arity=3):
    """Circle product of two finite collections, as a collection whose
    operation ids encode the canonical two-level trees, and the map from
    each ``(signature, id)`` to its nested element."""
    if max_arity < 0:
        raise DomainError("the arity cap must be >= 0")
    below = base_layer(n_coll)
    layer = circle_layer(m_coll, below, max_arity)
    text = [elem_text(e) for e in layer.nested]
    members = {}
    for i, s in enumerate(layer.sigs):
        members.setdefault(s, []).append(i)

    def act(i, p):
        _, root, blocks = layer.elems[i]
        moved = tuple(
            (S, below.number[("op",) + n_coll.act(below.elems[c][1:], rho)])
            for S, rho, c in renumber_blocks(blocks, p))
        return text[layer.number[canonical_circle(root, moved, m_coll)]]

    ops, decode, action = {}, {}, {}
    for s in sorted(members, key=sig_key):
        for i in members[s]:
            decode[s, text[i]] = layer.nested[i]
        ops[s] = tuple(sorted(text[i] for i in members[s]))
    for s in ops:
        by_text = sorted(members[s], key=text.__getitem__)
        for p in perms.all_perms(len(s[0])):
            action[s, p] = {text[i]: act(i, p) for i in by_text}
    colors = {c for s in ops for c in s[0] + (s[1],)}
    return FiniteCollection(tuple(sorted(colors)), ops, action), decode
