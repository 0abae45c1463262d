"""Multicategories by generators and relations, and the constructions that
produce them: bounded congruence-closure saturation, coproducts, the
Boardman-Vogt tensor product, the arrow family, and pushouts.

Saturation enumerates all well-typed terms within explicit caps (arity and
vertex count), seeds a union-find with the relation pairs, and closes under
three inference moves until a full round adds no merges:

* rewriting any subtree to its class representative,
* substituting a representative into a leaf of both members of a merged
  pair,
* the leaf-renumbering symmetric actions.

Representatives are minimal in (vertex count, encoding), so rewriting
never escapes the caps.  The terms are numbered once, in sorted order, and
the closure runs on those numbers.  Each instance of a move runs once: a
rewrite per (term, subtree, representative of the subtree), a
substitution per (term, slot, argument), and the symmetric move per
term; the term images under grafting and renumbering are computed once
and kept.  Since a union is never undone, a repeated instance could only
repeat a union that is already made, so every round's merges, the round
count and the quotient are those of re-running every move over every
term.

The substitution move reads its arguments from buckets of the round's
representatives keyed by (output color, arity, vertex count), only those
whose graft fits the caps.  Each instance reads the representatives fixed
at the round's start, so the set of pairs a round unions, and with it the
partition, the merged flag and the round count, does not depend on the
order of the unions.  Grafts, rewrites and the rewrite sites are read
on term numbers off each pool term's root decomposition
(:class:`trees.TermPool`), so no tree is built or hashed for them.

The table is filled from the classes.  A composite over the vertex cap
is reduced by rewriting its subtrees to representatives, unless no class
holds a term with fewer vertices than another member: then reduction
never changes a vertex count, and the composite escapes without being
built.  The free symmetric multicategory is the saturation of the
presentation with no relations, where every class is a single term
(:func:`trees.free_multicategory`).

The computed quotient is a sound lower bound for the presented
congruence.  The closure always reaches a merge-free round, a fixpoint
of the moves on the terms within the caps: a round that merges removes
a class, so there are fewer such rounds than terms.  ``stabilized``
means that every relation seed fits inside the caps as well.  It does
not mean that the quotient is the presented operad cut to the caps,
since a consequence may need a detour through larger terms.  The tensor
Com2(x)Com2 at caps (4, 3) is stabilized with 115 classes at arity 4,
where Eckmann-Hilton forces one (caps (4, 4) give one).
"""

from dataclasses import dataclass, field
from functools import partial

from . import perms
from .core import (FiniteCollection, TableMulticategory, restrict_objects,
                   sig_key, tabulate)
from .errors import DomainError, PartialInputError, StructuralError
from .trees import (canonical_term, corolla, enumerate_terms,
                    extract_standalone, graft, identity_term, relabel_leaves,
                    renumber_term, renumbering, term_signature, term_text,
                    term_vertices)


@dataclass(frozen=True)
class Presentation:
    generators: FiniteCollection
    relations: tuple  # pairs of terms with equal signatures
    name: str = ""

    def __post_init__(self):
        for left, right in self.relations:
            ls, rs = term_signature(left), term_signature(right)
            if ls != rs:
                raise StructuralError(
                    f"relation sides have different signatures: "
                    f"{sig_key(ls)} vs {sig_key(rs)}")


@dataclass
class SaturationReport:
    stabilized: bool
    rounds: int
    term_count: int
    class_counts: dict
    seed_escapes: int
    comp_escapes: int
    caps: tuple

    def to_json(self):
        return {
            "stabilized": self.stabilized,
            "rounds": self.rounds,
            "terms": self.term_count,
            "classes": {k: v for k, v in sorted(self.class_counts.items())},
            "seed_escapes": self.seed_escapes,
            "comp_escapes": self.comp_escapes,
            "caps": {"max_arity": self.caps[0], "max_vertices": self.caps[1]},
        }


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def classes(self):
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


@dataclass
class Saturation:
    """A saturated presentation: the quotient table plus class lookup."""

    table: TableMulticategory
    report: SaturationReport
    presentation: Presentation
    rep_of: dict = field(repr=False, default_factory=dict)
    # (signature, op id) -> the representative term of that class
    structure: dict = field(repr=False, default_factory=dict)
    max_arity: int = 3
    max_vertices: int = 4
    # canonical term outside rep_of -> its class_of result; exact because
    # rep_of does not change once the saturation is built
    reduced: dict = field(repr=False, default_factory=dict, init=False)

    def class_of(self, term):
        """Representative of a term's congruence class, reducing oversized
        terms by rewriting subtrees to representatives; None when the term
        cannot be brought inside the caps."""
        gens = self.presentation.generators
        t = canonical_term(term, gens)
        got = self.rep_of.get(t)
        if got is not None:
            return got
        if t in self.reduced:
            return self.reduced[t]
        if t[0] == "L":
            return t
        children = []
        for child in t[3]:
            if child[0] == "L":
                children.append(child)
                continue
            std, mapping = extract_standalone(child)
            red = self.class_of(std)
            if red is None:
                break
            children.append(relabel_leaves(red, mapping))
        else:
            red = self.rep_of.get(
                canonical_term(("N", t[1], t[2], tuple(children)), gens))
        self.reduced[t] = red
        return red


def saturate(presentation, max_arity=3, max_vertices=4):
    """Bounded congruence closure of a presentation, run until a round
    adds no merges; ``stabilized`` reports that every relation seed fits
    the caps.  See the module docstring."""
    gens = presentation.generators
    terms = enumerate_terms(gens, max_arity, max_vertices, symmetric=True)
    index = terms.number
    n_terms = len(terms)
    sig = [term_signature(t) for t in terms]
    vert = [term_vertices(t) for t in terms]
    # terms are sorted, so ranking by (vertices, id) ranks by (vertices, term)
    by_rank = sorted(range(n_terms), key=lambda i: (vert[i], i))
    rank = [0] * n_terms
    for r, i in enumerate(by_rank):
        rank[i] = r

    def canon_id(t):
        return index.get(canonical_term(t, gens), -1)

    uf = UnionFind(range(n_terms))
    seed_escapes = 0
    for left, right in presentation.relations:
        l, r = canon_id(left), canon_id(right)
        if l >= 0 and r >= 0:
            uf.union(l, r)
        else:
            seed_escapes += 1

    def class_reps():
        roots = [uf.find(i) for i in range(n_terms)]
        best = {}
        for i, root in enumerate(roots):
            b = best.get(root)
            if b is None or rank[i] < rank[b]:
                best[root] = i
        return [best[root] for root in roots]

    image, image_row = renumbering(terms)

    # the rewrite sites of every term, indexed by their standalone subtree
    sites_of = {}
    for u in range(n_terms):
        for path, c in terms.sites(u):
            sites_of.setdefault(c, []).append((u, path))

    # Each move instance runs once: a term whose representative did not
    # change since the last round would only repeat its unions.  Classes
    # only grow, so representatives only fall in rank and a term that is
    # not a representative never becomes one again.
    rounds = 0
    reps = list(range(n_terms))  # before the seeds, every term is its own
    while True:
        rounds += 1
        prev, reps = reps, class_reps()
        moved = [u for u in range(n_terms) if reps[u] != prev[u]]
        merged = False

        # rewrite subtrees to their representatives, per (u, site, rep)
        for c in moved:
            for u, path in sites_of.get(c, ()):
                u2 = terms.rewrite(u, path, reps[c])
                if u2 >= 0:
                    merged |= uf.union(u, u2)

        # substitute representatives into the leaves of merged pairs and
        # close under the symmetric actions, both when a term first stops
        # being a representative: later rounds' representatives are among
        # this round's, and when u's representative moves on from a to b,
        # a moves to b in the same round, so a's unions carry u's
        buckets = {}  # (output color, arity, vertices) -> representatives
        for r in range(n_terms):
            if reps[r] == r:
                buckets.setdefault((sig[r][1], len(sig[r][0]), vert[r]),
                                   []).append(r)
        for u in moved:
            if prev[u] != u:
                continue
            ru = reps[u]
            inputs = sig[u][0]
            room = [(a, v) for a in range(max_arity - len(inputs) + 2)
                    for v in range(max_vertices - vert[u] + 1)]
            for i, color in enumerate(inputs):
                for a, v in room:
                    for r in buckets.get((color, a, v), ()):
                        w1, w2 = terms.graft(u, i, r), terms.graft(ru, i, r)
                        if w1 >= 0 and w2 >= 0:
                            merged |= uf.union(w1, w2)
            for a, b in zip(image_row(u), image_row(ru)):
                merged |= uf.union(a, b)

        if not merged:
            break

    reps = class_reps()
    rep_of = {t: terms[reps[i]] for i, t in enumerate(terms)}
    sat = Saturation(
        table=None, report=None, presentation=presentation,
        rep_of=rep_of, max_arity=max_arity, max_vertices=max_vertices)
    # the table is filled on term numbers; the op id of each class is
    # written once
    elements = {}
    text = {}
    for i in by_rank:
        if reps[i] == i:
            elements.setdefault(sig[i], []).append(i)
            text[i] = term_text(terms[i])

    # when no class holds a term smaller than its others, reducing a
    # subtree never changes its vertex count, so a composite over the
    # vertex cap stays over it and escapes
    shrinks = any(vert[reps[i]] != vert[i] for i in range(n_terms))

    def compose(s, x, slot, qs, r):
        if vert[x] + vert[r] <= max_vertices:
            w = terms.graft(x, slot, r)
            if w >= 0:
                return reps[w]
        elif not shrinks:
            return None
        got = sat.class_of(graft(terms[x], slot, terms[r]))
        return None if got is None else index[got]

    table, structure, comp_escapes = tabulate(
        sorted(gens.colors), elements,
        {c: reps[index[identity_term(c)]] for c in gens.colors},
        text.__getitem__, lambda s, x, p: reps[image(x, p)], compose,
        arity_cap=max_arity,
        name=presentation.name or "saturated")
    sat.structure = {k: terms[i] for k, i in structure.items()}
    report = SaturationReport(
        stabilized=seed_escapes == 0,
        rounds=rounds,
        term_count=n_terms,
        class_counts={sig_key(s): len(v) for s, v in table.ops.items()},
        seed_escapes=seed_escapes,
        comp_escapes=comp_escapes,
        caps=(max_arity, max_vertices))
    sat.table = table
    sat.report = report
    return sat


# ---------------------------------------------------------------------------
# coproduct and tensor presentations


def pair_color(a, b):
    return f"{a}.{b}"


def tensor_generator(s, op, c, left):
    """Signature and id of the tensor generator for the operation ``op`` at
    ``s`` of the left factor (or the right one) at the other's color c."""
    if left:
        return ((tuple(pair_color(x, c) for x in s[0]), pair_color(s[1], c)),
                f"p:{op}:{c}")
    return ((tuple(pair_color(c, x) for x in s[0]), pair_color(c, s[1])),
            f"q:{c}:{op}")


def _require_complete(M):
    if not M.complete:
        raise PartialInputError(
            f"{M.name or 'input'} is marked partial; refusing")


def _present(M, gen, ops, action):
    """Present the table M by generators and relations: add its non-unit
    operations, renamed by ``gen(s, op) -> (signature, id)``, with their
    action tables to the generator tables ``ops`` and ``action``, and
    return its composition table as pairs of planar terms, a unit written
    as the identity term of its color.  The caller canonicalizes the pairs
    once the generator collection is built."""
    for s in M.signatures():
        ids = [op for op in M.ops_at(s) if not M.is_unit((s, op))]
        if not ids:
            continue
        gsig = gen(s, ids[0])[0]
        ops.setdefault(gsig, []).extend(gen(s, op)[1] for op in ids)
        for p in perms.all_perms(len(s[0])):
            action.setdefault((gsig, p), {}).update(
                (gen(s, op)[1], gen(s, im)[1])
                for op, im in M.collection.action[s, p].items()
                if not M.is_unit((s, op)))
    return [(graft(_term(M, gen, p), slot, _term(M, gen, q)),
             _term(M, gen, r))
            for p, slot, q, r in M.cells()
            if not (M.is_unit(p) or M.is_unit(q))]


def _term(M, gen, ref):
    """The generator corolla of an operation of M, or the identity term of
    its color for a unit."""
    gsig, gid = gen(*ref)
    return identity_term(gsig[1]) if M.is_unit(ref) else corolla(gsig, gid)


def coproduct(P, Q):
    """The presentation whose saturation is the coproduct: slices of P and
    Q at each other's colors, with no interchange relations.  The
    composition table of each slice is its multifunctoriality."""
    _require_complete(P)
    _require_complete(Q)
    ops, action, rels = {}, {}, []
    for M, others, left in ((P, Q.colors, True), (Q, P.colors, False)):
        for c in others:
            rels += _present(M, partial(tensor_generator, c=c, left=left),
                             ops, action)
    gens = FiniteCollection(
        tuple(sorted(pair_color(a, b) for a in P.colors for b in Q.colors)),
        {s: tuple(sorted(v)) for s, v in ops.items()}, action)
    return Presentation(gens, _canonical(rels, gens),
                        name=f"{P.name or 'P'}+{Q.name or 'Q'}")


def _canonical(rels, gens):
    """Relation pairs of planar terms as pairs of canonical terms."""
    return tuple((canonical_term(left, gens), canonical_term(right, gens))
                 for left, right in rels)


def interchange_relations(P, Q, gens):
    """For every pair of non-unit operations, the two composites around the
    bilinearity square agree up to the block transposition."""
    rels = []
    for ps in P.signatures():
        m = len(ps[0])
        for phi in P.ops_at(ps):
            if P.is_unit((ps, phi)):
                continue
            for qs in Q.signatures():
                n = len(qs[0])
                for psi in Q.ops_at(qs):
                    if Q.is_unit((qs, psi)):
                        continue
                    # root a x psi with phi x b_j grafted on each slot
                    left = corolla(*tensor_generator(qs, psi, ps[1], False))
                    for j in reversed(range(n)):
                        left = graft(left, j, corolla(
                            *tensor_generator(ps, phi, qs[0][j], True)))
                    # root phi x b with a_i x psi grafted on each slot
                    right = corolla(*tensor_generator(ps, phi, qs[1], True))
                    for i in reversed(range(m)):
                        right = graft(right, i, corolla(
                            *tensor_generator(qs, psi, ps[0][i], False)))
                    shuffled = renumber_term(
                        right, perms.transpose_shuffle(n, m))
                    rels.append((left, shuffled))
    return _canonical(rels, gens)


def bv_tensor(P, Q, max_arity=3, max_vertices=4):
    """The universal bilinear target: the coproduct presentation extended
    by the interchange relations, saturated within caps."""
    pres = coproduct(P, Q)
    rels = pres.relations + interchange_relations(P, Q, pres.generators)
    full = Presentation(pres.generators, rels,
                        name=f"{P.name or 'P'}(x){Q.name or 'Q'}")
    return saturate(full, max_arity=max_arity, max_vertices=max_vertices)


# ---------------------------------------------------------------------------
# the arrow family


def arrow_multicategory(P, n):
    """Colors 0..n; a k-ary operation from x_1..x_k to x exists for every
    k-ary operation of the single-colored P whenever max(x_i) <= x, with
    composition and actions read off P: the restriction of P along the
    constant color map, cut to those signatures."""
    if len(P.colors) != 1:
        raise DomainError("the arrow construction needs a single color")
    if n < 0:
        raise DomainError("level must be >= 0")
    if n == 0:
        return P
    colors = tuple(str(i) for i in range(n + 1))
    full = restrict_objects(P, {c: P.colors[0] for c in colors})

    def allowed(s):
        return all(int(c) <= int(s[1]) for c in s[0])

    action = {(s, p): t for (s, p), t in full.collection.action.items()
              if allowed(s)}
    comp = {(*pref, slot, *qref): rref[1]
            for pref, slot, qref, rref in full.cells()
            if allowed(pref[0]) and allowed(qref[0])}
    return TableMulticategory(
        collection=FiniteCollection(
            colors, {s: v for s, v in full.ops.items() if allowed(s)},
            action),
        units=full.units, comp=comp, complete=P.complete,
        name=f"{P.name or 'P'}^{n}")


# ---------------------------------------------------------------------------
# pushouts of multifunctor spans


def pushout(F, G):
    """Presentation of the pushout of B <- A -> C along multifunctors F, G:
    generators from B and C, their composition relations, and one relation
    identifying the two images of every operation of A."""
    A, B, C = F.source, F.target, G.target
    if G.source is not A:
        raise DomainError("the span must share its source")
    for M in (A, B, C):
        _require_complete(M)

    # colors: quotient of the disjoint union by F(a) ~ G(a)
    items = [("b", c) for c in B.colors] + [("c", c) for c in C.colors]
    uf = UnionFind(items)
    for a in A.colors:
        uf.union(("b", F.object_map[a]), ("c", G.object_map[a]))
    color_name = {}
    for item in items:
        root = uf.find(item)
        cls = sorted(x for x in items if uf.find(x) == root)
        color_name[item] = ".".join(f"{side}_{c}" for side, c in cls)

    def gen(side):
        return lambda s, op: ((tuple(color_name[side, c] for c in s[0]),
                               color_name[side, s[1]]), f"{side}:{op}")

    ops, action = {}, {}
    rels = (_present(B, gen("b"), ops, action)
            + _present(C, gen("c"), ops, action))
    rels += [(_term(B, gen("b"), F.map_ref(ref)),
              _term(C, gen("c"), G.map_ref(ref)))
             for ref in A.refs() if not A.is_unit(ref)]
    gens = FiniteCollection(tuple(sorted(set(color_name.values()))),
                            {s: tuple(sorted(v)) for s, v in ops.items()},
                            action)
    return Presentation(gens, _canonical(rels, gens), name="pushout")
