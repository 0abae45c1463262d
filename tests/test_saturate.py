"""Integer-coded saturation against the loops it replaced.

`ref_saturate` is the earlier closure of `presents.saturate`: terms as
nested tuples, all three moves re-run over every term in every round, and
no memo in `class_of` (`RefSaturation`).  `ref_symmetric_terms` is the
earlier symmetric branch of `trees.enumerate_terms` (every planar term
under every permutation) and `ref_canonical_term` the earlier
canonicalization that asks `FiniteCollection.act` per permutation and
vertex.  Every field of the result is compared: the report with its
`rounds`, `rep_of`, `structure` and the table's JSON.

`ref_term_pool` is the symmetric branch of `trees.enumerate_terms` before
the pool was built on term numbers: planar seeds, each orbit walked by
`canonical_term` of `renumber_term`, and the sorted terms split again
into their root decompositions.  Every field of the pool is compared
with it, and the symmetric enumeration must call neither function.

`ref_free_multicategory` is the earlier symmetric branch of
`trees.free_multicategory`, which tabulated the symmetric terms itself
and grafted and canonicalized every composite; the free symmetric
multicategory is now the saturation of the empty presentation.
`ref_renumbering` is the earlier `trees.renumbering`, which canonicalized
every transposition image again, `replace_path` the earlier rewrite
step, canonicalized whole afterwards, and `subtree_sites` the earlier
walk over a term's rewrite sites.  The kernel pieces that work on term
numbers through each pool term's root decomposition (`TermPool.graft`,
`TermPool.rewrite` and `TermPool.sites`) and the transposition table
kept by the enumeration are checked against full canonicalization of
the trees on the symmetric pools of `GENERATORS`, and the graft on every
fitting triple of two pools.  `SATURATION_DIGESTS` pins the table JSON
and report of five saturations, taken before the graft and rewrite moved
onto term numbers.

`ref_tensor_generators` with `ref_side_relations`, and `ref_pushout`, are
the earlier coproduct and pushout presentations, which each wrote out
the generators and composition relations of their input tables by hand;
both now go through `presents._present`.  The generator collections must
be equal and the relations equal as multisets of canonical terms (the
coproduct's relations now come per fixed color, then per cell).
"""

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicat import jsonio, perms
from multicat.core import FiniteCollection, sig_key, tabulate
from multicat.dsl import elaborate, parse
from multicat.errors import DomainError, StructuralError, TruncationError
from multicat.homcalc import Multifunctor, identity_multifunctor
from multicat.presents import (Presentation, SaturationReport, UnionFind,
                               arrow_multicategory, coproduct,
                               interchange_relations, pair_color, pushout,
                               saturate, tensor_generator)
from multicat.standard import (assoc_multicategory, comm_multicategory,
                               unit_multicategory)
from multicat import trees
from multicat.trees import (FreeReport, canonical_term, corolla,
                            enumerate_terms, extract_standalone,
                            free_multicategory, graft, identity_term,
                            least_image, relabel_leaves, renumber_term,
                            renumbering, term_arity, term_out_color,
                            term_signature, term_text)
from test_trees import COLLECTIONS

I = unit_multicategory()
AS2 = assoc_multicategory(2)
AS3 = assoc_multicategory(3)
COM2 = comm_multicategory(2)


# ---------------------------------------------------------------------------
# reference copies


def ref_canonical_term(t, gens):
    if t[0] == "L":
        return t
    children = tuple(ref_canonical_term(c, gens) for c in t[3])
    gsig, gid = t[1], t[2]
    best = None
    for p in perms.all_perms(len(children)):
        new_sig, new_id = gens.act((gsig, gid), p)
        cand = ("N", new_sig, new_id,
                tuple(children[p[i]] for i in range(len(children))))
        if best is None or cand < best:
            best = cand
    return best


def term_vertices(t):
    if t[0] == "L":
        return 0
    return 1 + sum(term_vertices(c) for c in t[3])


def ref_symmetric_terms(gens, max_arity, max_vertices):
    planar = enumerate_terms(gens, max_arity, max_vertices, symmetric=False)
    out = set()
    for t in planar:
        n = term_arity(t)
        for p in perms.all_perms(n):
            out.add(ref_canonical_term(renumber_term(t, p), gens))
    return sorted(out)


def subtree_sites(t, path=()):
    """Proper vertex subtrees of t, as (path, node) pairs, in preorder."""
    if t[0] == "L":
        return
    for i, child in enumerate(t[3]):
        if child[0] == "N":
            yield path + (i,), child
            yield from subtree_sites(child, path + (i,))


def replace_path(t, path, new_node):
    """The earlier rewrite step of `presents.saturate`, which canonicalized
    the whole rewritten term afterwards."""
    if not path:
        return new_node
    i = path[0]
    children = list(t[3])
    children[i] = replace_path(children[i], path[1:], new_node)
    return ("N", t[1], t[2], tuple(children))


def _term_key(t):
    return (term_vertices(t), t)


@dataclass
class RefSaturation:
    table: object
    report: SaturationReport
    presentation: Presentation
    rep_of: dict = field(repr=False, default_factory=dict)
    structure: dict = field(repr=False, default_factory=dict)
    max_arity: int = 3
    max_vertices: int = 4

    def class_of(self, term):
        gens = self.presentation.generators
        t = ref_canonical_term(term, gens)
        if t in self.rep_of:
            return self.rep_of[t]
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
                return None
            children.append(relabel_leaves(red, mapping))
        t2 = ref_canonical_term(("N", t[1], t[2], tuple(children)), gens)
        return self.rep_of.get(t2)


def ref_saturate(presentation, max_arity=3, max_vertices=4, max_rounds=200):
    gens = presentation.generators
    terms = ref_symmetric_terms(gens, max_arity, max_vertices)
    term_set = set(terms)
    uf = UnionFind(terms)

    canon_cache = {}

    def canon(t):
        got = canon_cache.get(t)
        if got is None:
            got = ref_canonical_term(t, gens)
            canon_cache[t] = got
        return got

    vert = {t: term_vertices(t) for t in terms}
    sig_of = {t: term_signature(t) for t in terms}

    seed_escapes = 0
    for left, right in presentation.relations:
        l, r = canon(left), canon(right)
        if l in term_set and r in term_set:
            uf.union(l, r)
        else:
            seed_escapes += 1

    def rep_map():
        reps = {}
        for root, members in uf.classes().items():
            rep = min(members, key=_term_key)
            for m in members:
                reps[m] = rep
        return reps

    rounds = 0
    stabilized = False
    graft_done = set()
    sites = {t: tuple(subtree_sites(t)) for t in terms}
    extracted = {}
    for t in terms:
        ex = []
        for path, node in sites[t]:
            std, mapping = extract_standalone(node)
            ex.append((path, canon(std), tuple(mapping)))
        extracted[t] = tuple(ex)

    while rounds < max_rounds:
        rounds += 1
        reps = rep_map()
        merged = False

        for u in terms:
            for path, std_c, mapping in extracted[u]:
                rep = reps.get(std_c)
                if rep is None or rep == std_c:
                    continue
                u2 = canon(replace_path(u, path,
                                        relabel_leaves(rep, list(mapping))))
                if u2 in term_set:
                    merged |= uf.union(u, u2)

        by_color = {}
        for rep in set(reps.values()):
            by_color.setdefault(sig_of[rep][1], []).append(rep)
        for u in terms:
            ru = reps[u]
            if ru == u:
                continue
            s = sig_of[u]
            for i, color in enumerate(s[0]):
                for r in by_color.get(color, ()):
                    key = (u, i, r)
                    if key in graft_done:
                        continue
                    if (len(s[0]) + len(sig_of[r][0]) - 1 > max_arity
                            or vert[u] + vert[r] > max_vertices):
                        continue
                    graft_done.add(key)
                    w1 = canon(graft(u, i, r))
                    w2 = canon(graft(ru, i, r))
                    if w1 in term_set and w2 in term_set:
                        merged |= uf.union(w1, w2)

        for u in terms:
            ru = reps[u]
            if ru == u:
                continue
            n = term_arity(u)
            for p in perms.all_perms(n):
                merged |= uf.union(canon(renumber_term(u, p)),
                                   canon(renumber_term(ru, p)))

        if not merged:
            stabilized = True
            break

    reps = rep_map()
    sat = RefSaturation(
        table=None, report=None, presentation=presentation,
        rep_of=reps, max_arity=max_arity, max_vertices=max_vertices)
    elements = {}
    for rep in sorted(set(reps.values()), key=_term_key):
        elements.setdefault(term_signature(rep), []).append(rep)
    table, sat.structure, comp_escapes = tabulate(
        sorted(gens.colors), elements,
        {c: reps[identity_term(c)] for c in gens.colors}, term_text,
        lambda s, t, p: reps[canon(renumber_term(t, p))],
        lambda s, t, slot, qs, q: sat.class_of(graft(t, slot, q)),
        arity_cap=max_arity, name=presentation.name or "saturated")
    sat.report = SaturationReport(
        stabilized=stabilized and seed_escapes == 0,
        rounds=rounds,
        term_count=len(terms),
        class_counts={sig_key(s): len(v) for s, v in table.ops.items()},
        seed_escapes=seed_escapes,
        comp_escapes=comp_escapes,
        caps=(max_arity, max_vertices))
    sat.table = table
    return sat


def ref_renumbering(terms, index, gens):
    """The earlier `trees.renumbering`: each image canonicalized again,
    by walking from the identity along adjacent transpositions."""
    walks = {}  # arity -> (transpositions, {p: slot}, [(slot of s, k)])
    moves = {}  # (position, k) -> position of the k-th transposition image
    rows = {}  # position -> its images, by slot

    def walk(n):
        got = walks.get(n)
        if got is None:
            taus = perms.adjacent_transpositions(n)
            order = [perms.identity(n)]
            slot = {order[0]: 0}
            steps = []
            for s in order:
                for k, tau in enumerate(taus):
                    p = perms.compose(s, tau)
                    if p not in slot:
                        slot[p] = len(order)
                        order.append(p)
                        steps.append((slot[s], k))
            got = walks[n] = (taus, slot, steps)
        return got

    def image(x, p):
        taus, slot, steps = walk(len(p))
        row = rows.get(x)
        if row is None:
            row = rows[x] = [x]
            for src, k in steps:
                y = row[src]
                z = moves.get((y, k))
                if z is None:
                    z = moves[y, k] = -1 if y < 0 else index.get(
                        canonical_term(renumber_term(terms[y], taus[k]),
                                       gens), -1)
                row.append(z)
        return row[slot[p]]

    return image


def _least_at_every_vertex(t, gens):
    return t[0] == "L" or (least_image(gens, t[1:3])[:2] == t[1:3] and all(
        _least_at_every_vertex(c, gens) for c in t[3]))


def _ref_head(t):
    """The preorder of t up to its first leaf, that leaf without its
    number, and the leaf's number (-1 for a term without leaves)."""
    head, stack = [], [t]
    while stack:
        node = stack.pop()
        if node[0] == "L":
            head.append(node[:2])
            return tuple(head), node[2]
        head.append(node[:3])
        stack.extend(reversed(node[3]))
    return tuple(head), -1


def ref_term_pool(gens, max_arity, max_vertices):
    """The earlier symmetric branch of `trees.enumerate_terms`: planar
    seeds with a least image at every vertex, each new canonical form's
    orbit walked along the adjacent transpositions by `canonical_term` of
    `renumber_term`, and the sorted terms split again into their root
    decompositions, as the earlier `TermPool` constructor did."""
    found, steps = {}, {}  # canonical term -> discovery number; its images
    for t in enumerate_terms(gens, max_arity, max_vertices, False):
        if not _least_at_every_vertex(t, gens):
            continue
        c = canonical_term(t, gens)
        if c in found:
            continue
        found[c] = len(found)
        taus = perms.adjacent_transpositions(term_arity(t))
        frontier = [c]
        while frontier:
            x = frontier.pop()
            row = steps[found[x]] = []
            for tau in taus:
                y = canonical_term(renumber_term(x, tau), gens)
                if y not in found:
                    found[y] = len(found)
                    frontier.append(y)
                row.append(found[y])
    terms = sorted(found)
    number = {t: i for i, t in enumerate(terms)}
    where = {found[t]: i for i, t in enumerate(terms)}
    pool = SimpleNamespace(
        terms=terms, number=number, parts=[], arity=[], numbered={},
        cosets={}, moves=[tuple([where[j] for j in steps[found[t]]])
                          for t in terms])
    split = {}  # subtree -> (standalone number, leaves)
    for x, t in enumerate(terms):
        if t[0] == "L":
            pool.parts.append(None)
            pool.arity.append(1)
            continue
        kids = []
        for child in t[3]:
            got = split.get(child)
            if got is None:
                std, leaves = extract_standalone(child)
                got = split[child] = (number[std], tuple(leaves))
            kids.append(got)
        ref, kids = (t[1], t[2]), tuple(kids)
        pool.parts.append((ref, kids))
        pool.arity.append(sum([len(leaves) for _, leaves in kids]))
        pool.numbered[ref, kids] = x
        pool.cosets[ref] = least_image(gens, ref)[2]
    heads = [_ref_head(t) for t in terms]
    rank = {h: r for r, h in enumerate(sorted({h for h, _ in heads}))}
    pool.keys = [(rank[h], first) for h, first in heads]
    return pool


def ref_free_multicategory(gens, max_arity, max_vertices):
    terms = enumerate_terms(gens, max_arity, max_vertices, symmetric=True)
    term_set = set(terms)
    elements = {}
    for t in terms:
        elements.setdefault(term_signature(t), []).append(t)
    index = {t: i for i, t in enumerate(terms)}
    image = ref_renumbering(terms, index, gens)

    def act(s, t, p):
        acted = image(index[t], p)
        if acted < 0:
            raise StructuralError("renumbering left the term pool")
        return terms[acted]

    def compose(s, t, slot, qs, q):
        w = canonical_term(graft(t, slot, q), gens)
        return w if w in term_set else None

    table, _, escapes = tabulate(
        sorted(gens.colors), elements,
        {c: identity_term(c) for c in gens.colors}, term_text, act, compose,
        arity_cap=max_arity, name="free")
    return table, FreeReport(escapes == 0, escapes, len(terms))


# ---------------------------------------------------------------------------
# inputs


def magma():
    text = (Path(__file__).parent.parent / "fixtures" / "magma.mcat")
    objs, diags = elaborate(parse(text.read_text())[0])
    assert not diags
    return objs["Magma"]


def tensor_presentation(P, Q):
    """The presentation that `bv_tensor` saturates."""
    pres = coproduct(P, Q)
    rels = pres.relations + tuple(
        interchange_relations(P, Q, pres.generators))
    return Presentation(pres.generators, rels,
                        name=f"{P.name or 'P'}(x){Q.name or 'Q'}")


def arrow_span():
    """The level-1 arrows of Com2 along the endpoint inclusions."""
    A1 = arrow_multicategory(COM2, 1)
    return [Multifunctor(source=COM2, target=A1, object_map={"x": c},
                         op_maps={s: {op: op for op in COM2.ops_at(s)}
                                  for s in COM2.signatures()})
            for c in ("1", "0")]


def arrow_pushout():
    """The pushout of the span of level-1 arrows of Com2."""
    return pushout(*arrow_span())


CASES = {
    "magma-4-4": (magma, (4, 4)),
    "magma-5-4": (magma, (5, 4)),
    "com2-com2-4-3": (lambda: tensor_presentation(COM2, COM2), (4, 3)),
    "com2-com2-4-4": (lambda: tensor_presentation(COM2, COM2), (4, 4)),
    "i-as3-4-3": (lambda: tensor_presentation(I, AS3), (4, 3)),
    "com2-as2-3-3": (lambda: tensor_presentation(COM2, AS2), (3, 3)),
    "coproduct-as3-i": (lambda: coproduct(AS3, I), (3, 3)),
    "pushout-identity": (
        lambda: pushout(identity_multifunctor(COM2),
                        identity_multifunctor(COM2)), (2, 3)),
    "pushout-arrows": (arrow_pushout, (2, 3)),
    "empty-com2-as2-3-3": (
        lambda: Presentation(coproduct(COM2, AS2).generators, ()), (3, 3)),
}


def assert_same(sat, ref):
    assert sat.report.to_json() == ref.report.to_json()
    assert sat.rep_of == ref.rep_of
    assert sat.structure == ref.structure
    assert jsonio.dumps(sat.table) == jsonio.dumps(ref.table)


# ---------------------------------------------------------------------------
# differential tests


@pytest.mark.parametrize("name", sorted(CASES))
def test_saturate_matches_reference(name):
    build, caps = CASES[name]
    pres = build()
    sat, ref = saturate(pres, *caps), ref_saturate(pres, *caps)
    assert_same(sat, ref)
    if name == "com2-as2-3-3":
        assert ref.report.seed_escapes and not ref.report.stabilized
    if name.startswith("empty"):
        assert ref.report.comp_escapes


def free_binary():
    return Presentation(magma().generators, (), name="free")


# sha256 of the table JSON and the report JSON of a saturation, taken
# before the graft and rewrite moves ran on term numbers
SATURATION_DIGESTS = {
    "com2-com2-4-4": (
        lambda: tensor_presentation(COM2, COM2), (4, 4),
        "92e7c20c6af45b402d864c51a40369e321ec0ef283fd00a319ca00cceb7a87e5"),
    "i-as3-4-3": (
        lambda: tensor_presentation(I, AS3), (4, 3),
        "e35d76f11a514e85ed6e616ed2908c5700e3b3189010656b58d880921ad2637e"),
    "magma-5-4": (
        magma, (5, 4),
        "37febab0387b7abfdf3bbb4695b43c843015d186facc6180c103fcfed9fed72f"),
    "free-binary-5-4": (
        free_binary, (5, 4),
        "5571984c16ead9059f583d32728ba8deb1a36ab55072ade4ddf1e3b116895f03"),
    "free-binary-4-4": (
        free_binary, (4, 4),
        "fbe982e2c30f495adcafbf897651a1eb38b91aa3bbc68e5bc535ed00f23fe66f"),
}


@pytest.mark.parametrize("name", sorted(SATURATION_DIGESTS))
def test_saturation_outputs_unchanged(name):
    build, caps, digest = SATURATION_DIGESTS[name]
    sat = saturate(build(), *caps)
    text = jsonio.dumps(sat.table) + jsonio.dumps(sat.report)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_tensor_stabilizes_below_eckmann_hilton():
    # stabilized means the bounded closure reached a fixpoint, not that
    # the quotient is the presented operad: Com2(x)Com2 has one class per
    # arity, yet at caps (4, 3) the closure stops with 115 at arity 4
    sat = saturate(tensor_presentation(COM2, COM2), 4, 3)
    assert sat.report.stabilized
    assert sat.report.class_counts["x.x,x.x,x.x,x.x;x.x"] == 115


def test_class_of_memo_matches_unmemoized():
    # With no relations no class shrinks, so an escaping composite is never
    # reduced and the memo stays empty; the coproduct's relations shrink
    # terms and fill it
    empty = Presentation(coproduct(COM2, AS2).generators, ())
    for pres, memo in [(empty, False), (coproduct(COM2, AS2), True)]:
        sat = saturate(pres, 3, 3)
        ref = RefSaturation(table=None, report=None, presentation=pres,
                            rep_of=sat.rep_of, max_arity=3, max_vertices=3)
        T = sat.table
        cells = []
        for (s, tid), t in sat.structure.items():
            for slot, color in enumerate(s[0]):
                for qs in T.signatures():
                    if qs[1] != color or len(s[0]) + len(qs[0]) - 1 > 3:
                        continue
                    for qid in T.ops_at(qs):
                        term = graft(t, slot, sat.structure[qs, qid])
                        cells.append(((s, tid, slot, qs, qid), term))
        want = [ref.class_of(term) for _, term in cells]
        assert sum(w is None for w in want) == sat.report.comp_escapes > 0
        # the table was filled through the memo; every cell agrees with the
        # unmemoized reduction, and so does a second lookup that reads it
        assert bool(sat.reduced) == memo
        for (key, term), w in zip(cells, want):
            assert T.comp.get(key) == (None if w is None else term_text(w))
            assert sat.class_of(term) == w


GENERATORS = {
    "binary": lambda: magma().generators,
    "com2-as2": lambda: coproduct(COM2, AS2).generators,
    "i-as3": lambda: coproduct(I, AS3).generators,
    "com2-com2": lambda: coproduct(COM2, COM2).generators,
}


@pytest.mark.parametrize("name,caps", [
    (name, caps) for name in sorted(GENERATORS)
    for caps in [(3, 3), (4, 3), (5, 3)]
    if (name, caps) != ("i-as3", (5, 3))] + [
        ("binary", (5, 4)), ("com2-com2", (4, 4))])
def test_symmetric_terms_match_reference(name, caps):
    gens = GENERATORS[name]()
    assert enumerate_terms(gens, *caps, symmetric=True) == (
        ref_symmetric_terms(gens, *caps))


# the benchmark's saturations, and the two-color and proper-stabilizer
# collections of tests/test_trees.py
POOL_CASES = {
    **{f"{name}-{caps[0]}-{caps[1]}": (GENERATORS[name], caps)
       for name, caps in [("binary", (5, 4)), ("binary", (4, 4)),
                          ("com2-com2", (4, 4)), ("i-as3", (4, 3)),
                          ("com2-as2", (4, 4))]},
    **{f"{name}-{caps[0]}-{caps[1]}": (COLLECTIONS[name], caps)
       for name in ("Pair", "Sym12") for caps in [(3, 3), (4, 3)]},
}


@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_term_pool_matches_reference(case):
    build, caps = POOL_CASES[case]
    gens = build()
    pool = enumerate_terms(gens, *caps, symmetric=True)
    ref = ref_term_pool(gens, *caps)
    assert list(pool) == ref.terms
    assert pool.number == ref.number
    assert pool.parts == ref.parts
    assert pool.arity == ref.arity
    assert pool.numbered == ref.numbered
    assert pool.cosets == ref.cosets
    assert pool.keys == ref.keys
    assert pool.moves == ref.moves
    assert pool.signature == [term_signature(t) for t in ref.terms]
    assert pool.vertices == [term_vertices(t) for t in ref.terms]


@pytest.mark.parametrize("symmetric", [True, False])
def test_symmetric_enumeration_canonicalizes_no_tree(symmetric, monkeypatch):
    # the symmetric pool is built on numbers alone; the planar branch is
    # the control that shows the counters see the module's calls
    calls = Counter()

    def counted(name):
        kernel = getattr(trees, name)

        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    cases = [(GENERATORS[name](), caps) for name, caps in [
        ("binary", (5, 4)), ("com2-com2", (4, 4)), ("i-as3", (4, 3)),
        ("com2-as2", (4, 4))]]
    for name in ("canonical_term", "renumber_term", "shift_leaves"):
        monkeypatch.setattr(trees, name, counted(name))
    for gens, caps in cases:
        enumerate_terms(gens, *caps, symmetric=symmetric)
    assert calls["canonical_term"] == calls["renumber_term"] == 0
    assert (calls["shift_leaves"] > 0) == (not symmetric)


@pytest.mark.parametrize("name,caps", [
    pytest.param(name, caps, id=f"{name}-{caps[0]}-{caps[1]}")
    for name, caps in [("binary", (5, 4)), ("binary", (4, 4)),
                       ("binary", (4, 2))] + [
        (name, caps) for name in ("com2-as2", "i-as3", "com2-com2")
        for caps in [(3, 3), (4, 3)]]])
def test_free_multicategory_matches_reference(name, caps):
    gens = GENERATORS[name]()
    table, report = free_multicategory(gens, True, *caps)
    ref_table, ref_report = ref_free_multicategory(gens, *caps)
    assert jsonio.dumps(table) == jsonio.dumps(ref_table)
    assert report == ref_report
    if ref_report.escapes:
        with pytest.raises(TruncationError):
            free_multicategory(gens, True, *caps, require_complete=True)
    if name == "binary" and caps == (4, 2):
        assert ref_report.escapes == 15


POOLS = {}


def symmetric_pool(name, caps):
    """The generators, symmetric term pool and its index, built once."""
    key = (name, caps)
    if key not in POOLS:
        gens = GENERATORS[name]()
        terms = enumerate_terms(gens, *caps, symmetric=True)
        POOLS[key] = gens, terms, {t: i for i, t in enumerate(terms)}
    return POOLS[key]


# (4, 4) holds vertices with two vertex children below the root, where a
# rewrite can reorder children away from the root
POOL_KEYS = st.tuples(st.sampled_from(sorted(GENERATORS)),
                      st.sampled_from([(3, 3), (4, 3), (4, 4)]))


def full_graft(pool, x, i, r):
    """The number of the whole graft canonicalized, or -1."""
    gens, terms, index = pool
    return index.get(canonical_term(graft(terms[x], i, terms[r]), gens), -1)


@settings(max_examples=300, deadline=None)
@given(POOL_KEYS, st.integers(0), st.integers(0))
def test_path_graft_matches_full_canonicalization(key, a, b):
    # the graft on numbers, in every slot of its color, must number the
    # canonical form of the whole graft, or give -1 outside the caps
    pool = symmetric_pool(*key)
    terms = pool[1]
    x, r = a % len(terms), b % len(terms)
    for i, color in enumerate(term_signature(terms[x])[0]):
        if color == term_out_color(terms[r]):
            assert terms.graft(x, i, r) == full_graft(pool, x, i, r)


@pytest.mark.parametrize("name,caps", [
    pytest.param("com2-com2", (4, 4), id="com2-com2-4-4"),
    pytest.param("i-as3", (4, 3), id="i-as3-4-3")])
def test_every_fitting_graft_matches_full_canonicalization(name, caps):
    # every (x, i, r) whose graft fits the caps, as the substitution move
    # and the table fill draw them
    pool = symmetric_pool(name, caps)
    terms = pool[1]
    sig = [term_signature(t) for t in terms]
    vert = [term_vertices(t) for t in terms]
    fitting = [(x, i, r) for x in range(len(terms))
               for i, color in enumerate(sig[x][0])
               for r in range(len(terms))
               if sig[r][1] == color and vert[x] + vert[r] <= caps[1]
               and len(sig[x][0]) + len(sig[r][0]) - 1 <= caps[0]]
    assert len(fitting) == {"com2-com2": 3479, "i-as3": 4653}[name]
    for x, i, r in fitting:
        want = full_graft(pool, x, i, r)
        assert want >= 0
        assert terms.graft(x, i, r) == want


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_standalone_subtrees_are_pool_terms(name):
    # the root decomposition names each child by its standalone subtree,
    # which must be a pool member, and gives the term back
    _, terms, index = symmetric_pool(name, (4, 4))
    for x, t in enumerate(terms):
        for _, node in subtree_sites(t):
            assert extract_standalone(node)[0] in index
        if t[0] == "L":
            assert terms.parts[x] is None
            continue
        ref, kids = terms.parts[x]
        assert ref == t[1:3] and terms.numbered[ref, kids] == x
        assert tuple(relabel_leaves(terms[s], leaves) for s, leaves in kids
                     ) == t[3]


@settings(max_examples=300, deadline=None)
@given(POOL_KEYS, st.integers(0), st.integers(0))
def test_path_rewrite_matches_full_canonicalization(key, a, b):
    # the rewrite move: a subtree replaced by a pool term of its standalone
    # signature, relabeled onto the subtree's leaves
    gens, terms, index = symmetric_pool(*key)
    x = a % len(terms)
    sites = list(subtree_sites(terms[x]))
    assert [path for path, _ in terms.sites(x)] == [p for p, _ in sites]
    for (path, node), (_, c) in zip(sites, terms.sites(x)):
        std, mapping = extract_standalone(node)
        assert c == index[canonical_term(std, gens)]
        same = [i for i, t in enumerate(terms)
                if term_signature(t) == term_signature(std)]
        r = same[b % len(same)]
        new = relabel_leaves(terms[r], mapping)
        assert terms.rewrite(x, path, r) == index.get(
            canonical_term(replace_path(terms[x], path, new), gens), -1)


@settings(max_examples=300, deadline=None)
@given(POOL_KEYS, st.integers(0))
def test_transposition_table_matches_canonicalization(key, a):
    gens, terms, index = symmetric_pool(*key)
    x = a % len(terms)
    n = term_arity(terms[x])
    assert [terms[y] for y in terms.moves[x]] == [
        canonical_term(renumber_term(terms[x], tau), gens)
        for tau in perms.adjacent_transpositions(n)]
    image, row = renumbering(terms)
    ref = ref_renumbering(terms, index, gens)
    want = [ref(x, p) for p in perms.all_perms(n)]
    assert [image(x, p) for p in perms.all_perms(n)] == row(x) == want


@pytest.mark.parametrize("caps", [(-1, 3), (3, -1)])
def test_negative_cap_is_a_domain_error(caps):
    gens = GENERATORS["binary"]()
    for build in (lambda: saturate(magma(), *caps),
                  lambda: free_multicategory(gens, True, *caps),
                  lambda: free_multicategory(gens, False, *caps),
                  lambda: enumerate_terms(gens, *caps, symmetric=True)):
        with pytest.raises(DomainError, match="caps must be >= 0"):
            build()


def test_canonical_term_matches_reference():
    gens = coproduct(COM2, AS2).generators
    for t in enumerate_terms(gens, 4, 3, symmetric=False):
        for p in perms.all_perms(term_arity(t)):
            moved = renumber_term(t, p)
            assert canonical_term(moved, gens) == (
                ref_canonical_term(moved, gens))


def test_unknown_generator_raises_as_act_does():
    s = (("x", "x"), "x")
    gens = FiniteCollection(("x",), {s: ("m",)},
                            {(s, p): {"m": "m"} for p in perms.all_perms(2)})
    term = graft(corolla(s, "m"), 0, corolla(s, "k"))
    with pytest.raises(StructuralError) as ref_err:
        ref_canonical_term(term, gens)
    for _ in range(2):  # a failed fill leaves no table entry behind
        with pytest.raises(StructuralError) as err:
            canonical_term(term, gens)
        assert str(err.value) == str(ref_err.value)
    # unary and nullary generators have only the identity image
    u = (("x",), "x")
    assert canonical_term(corolla(u, "k"), gens) == corolla(u, "k")


# ---------------------------------------------------------------------------
# fuzz: random relation sets


MAGMA = magma()
MAGMA_TERMS = [t for t in enumerate_terms(MAGMA.generators, 4, 3, True)
               if t[0] == "N"]
COMCOM = tensor_presentation(COM2, COM2)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(MAGMA_TERMS),
                          st.sampled_from(MAGMA_TERMS)), max_size=4),
       st.booleans(), st.sampled_from([(3, 3), (4, 3), (4, 2)]))
def test_fuzz_magma_relations(pairs, with_assoc, caps):
    rels = tuple((a, b) for a, b in pairs
                 if term_signature(a) == term_signature(b))
    rels += MAGMA.relations if with_assoc else ()
    pres = Presentation(MAGMA.generators, rels, name="fuzz")
    assert_same(saturate(pres, *caps), ref_saturate(pres, *caps))


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(0, len(COMCOM.relations) - 1)),
       st.sampled_from([(3, 3), (4, 2), (3, 2)]))
def test_fuzz_com2_com2_relations(chosen, caps):
    rels = tuple(COMCOM.relations[i] for i in sorted(chosen))
    pres = Presentation(COMCOM.generators, rels, name="fuzz")
    assert_same(saturate(pres, *caps), ref_saturate(pres, *caps))


# ---------------------------------------------------------------------------
# presentations: one helper against the loops it replaced


def ref_tensor_generators(P, Q):
    ops, action = {}, {}
    for M, others, left in ((P, Q.colors, True), (Q, P.colors, False)):
        for s in M.signatures():
            ids = [op for op in M.ops_at(s) if not M.is_unit((s, op))]
            if not ids:
                continue
            for c in others:
                gsig = tensor_generator(s, ids[0], c, left)[0]
                ops.setdefault(gsig, []).extend(
                    tensor_generator(s, op, c, left)[1] for op in ids)
                for p in perms.all_perms(len(s[0])):
                    action.setdefault((gsig, p), {}).update(
                        (tensor_generator(s, op, c, left)[1],
                         tensor_generator(s, im, c, left)[1])
                        for op, im in M.collection.action[s, p].items()
                        if not M.is_unit((s, op)))
    colors = tuple(sorted(
        pair_color(a, b) for a in P.colors for b in Q.colors))
    return FiniteCollection(
        colors, {s: tuple(sorted(v)) for s, v in ops.items()}, action)


def ref_side_relations(M, other_colors, fixed_right, gens):
    rels = []

    def gref(s, op, c):
        if M.is_unit((s, op)):
            color = (pair_color(s[1], c) if fixed_right
                     else pair_color(c, s[1]))
            return identity_term(color)
        return corolla(*tensor_generator(s, op, c, fixed_right))

    for pref, slot, qref, rref in M.cells():
        if M.is_unit(pref) or M.is_unit(qref):
            continue
        for c in other_colors:
            left = graft(gref(*pref, c), slot, gref(*qref, c))
            right = gref(*rref, c)
            rels.append((canonical_term(left, gens),
                         canonical_term(right, gens)))
    return rels


def ref_coproduct(P, Q):
    gens = ref_tensor_generators(P, Q)
    return gens, (ref_side_relations(P, Q.colors, True, gens)
                  + ref_side_relations(Q, P.colors, False, gens))


def ref_pushout(F, G):
    A, B, C = F.source, F.target, G.target
    items = [("b", c) for c in B.colors] + [("c", c) for c in C.colors]
    uf = UnionFind(items)
    for a in A.colors:
        uf.union(("b", F.object_map[a]), ("c", G.object_map[a]))
    color_name = {}
    for item in items:
        root = uf.find(item)
        cls = sorted(x for x in items if uf.find(x) == root)
        color_name[item] = ".".join(f"{side}_{c}" for side, c in cls)

    def side_sig(side, s):
        return (tuple(color_name[side, c] for c in s[0]),
                color_name[side, s[1]])

    def gid(side, op):
        return f"{side}:{op}"

    ops, action = {}, {}
    for side, M in (("b", B), ("c", C)):
        for s in M.signatures():
            ids = [gid(side, op) for op in M.ops_at(s)
                   if not M.is_unit((s, op))]
            if ids:
                ops.setdefault(side_sig(side, s), []).extend(ids)
        for s in M.ops:
            for p in perms.all_perms(len(s[0])):
                table = {gid(side, op): gid(side, im)
                         for op, im in M.collection.action[s, p].items()
                         if not M.is_unit((s, op))}
                if table:
                    action.setdefault((side_sig(side, s), p), {}).update(
                        table)
    gens = FiniteCollection(tuple(sorted(set(color_name.values()))),
                            {s: tuple(sorted(v)) for s, v in ops.items()},
                            action)

    def gref(side, M, s, op):
        if M.is_unit((s, op)):
            return identity_term(color_name[side, s[1]])
        return corolla(side_sig(side, s), gid(side, op))

    rels = []
    for side, M in (("b", B), ("c", C)):
        for pref, slot, qref, rref in M.cells():
            if M.is_unit(pref) or M.is_unit(qref):
                continue
            left = graft(gref(side, M, *pref), slot, gref(side, M, *qref))
            rels.append((canonical_term(left, gens),
                         canonical_term(gref(side, M, *rref), gens)))
    for s in A.signatures():
        for op in A.ops_at(s):
            fs = (tuple(F.object_map[c] for c in s[0]), F.object_map[s[1]])
            gs = (tuple(G.object_map[c] for c in s[0]), G.object_map[s[1]])
            if not A.is_unit((s, op)):
                rels.append((
                    canonical_term(gref("b", B, fs, F.op_maps[s][op]), gens),
                    canonical_term(gref("c", C, gs, G.op_maps[s][op]), gens)))
    return gens, rels


def twocolor():
    text = Path(__file__).parent.parent / "fixtures" / "twocolor.mcat"
    objs, diags = elaborate(parse(text.read_text())[0])
    assert not diags
    return objs


FACTORS = {"I": lambda: I, "As2": lambda: AS2, "Com2": lambda: COM2,
           "As3": lambda: AS3, "Pair": lambda: twocolor()["Pair"]}
SPANS = {
    "skel": lambda: [twocolor()["Skel"]] * 2,
    "collapse": lambda: [twocolor()["Collapse"]] * 2,
    "arrows": arrow_span,
    "identity": lambda: [identity_multifunctor(COM2)] * 2,
}


def assert_same_presentation(pres, ref):
    gens, rels = ref
    got = pres.generators
    assert (got.colors, got.ops, got.action) == (
        gens.colors, gens.ops, gens.action)
    assert sorted(pres.relations) == sorted(rels)


@pytest.mark.parametrize("p,q", [(p, q) for p in sorted(FACTORS)
                                 for q in sorted(FACTORS)])
def test_coproduct_matches_reference(p, q):
    P, Q = FACTORS[p](), FACTORS[q]()
    assert_same_presentation(coproduct(P, Q), ref_coproduct(P, Q))
    assert coproduct(P, Q).generators == ref_tensor_generators(P, Q)


@pytest.mark.parametrize("name", sorted(SPANS))
def test_pushout_matches_reference(name):
    F, G = SPANS[name]()
    assert_same_presentation(pushout(F, G), ref_pushout(F, G))
