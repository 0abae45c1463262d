"""Multifunctors, multilinear transformations, and the internal hom.

A k-ary transformation between multifunctors F_1..F_k -> G assigns to
every color a component in the target; it is natural when, for every
source operation, composing the components into the image of the
operation under G agrees (through the block transposition that regroups
m blocks of k inputs into k blocks of m) with composing the images under
the F_j into the component at the output color.  These transformations
are the operations of the hom multicategory, with composition and
symmetric actions inherited from the target.
"""

from dataclasses import dataclass, field
from itertools import product

from . import perms
from .core import (LawReport, TableMulticategory, _ref_str, backtrack,
                   composed_sig, sig_key, tabulate)
from .errors import DomainError, PartialInputError, StructuralError
from .presents import bv_tensor, pair_color, tensor_generator


@dataclass
class Multifunctor:
    source: object
    target: object
    object_map: dict
    op_maps: dict  # source signature -> {op id: target op id}
    name: str = ""

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
        op_maps[s] = {op: G.op_maps[ms][im] for op, im in table.items()}
    return Multifunctor(
        source=F.source, target=G.target,
        object_map={c: G.object_map[F.object_map[c]]
                    for c in F.object_map},
        op_maps=op_maps, name=f"{G.name}.{F.name}")


def check_multifunctor(F):
    """Totality, unit preservation, equivariance, and compatibility with
    every tabulated composition of the source."""
    P, Q = F.source, F.target
    report = LawReport()
    for s in P.signatures():
        table = F.op_maps.get(s, {})
        ms = F.map_sig(s)
        for op in P.ops_at(s):
            report.note("total")
            if op not in table:
                report.fail("total", f"{sig_key(s)}:{op}")
            elif table[op] not in Q.ops_at(ms):
                report.fail("lands-in-target", f"{sig_key(s)}:{op}")
    if report.violations:
        return report
    for c in P.colors:
        report.note("units")
        if F.map_ref(P.unit_ref(c)) != Q.unit_ref(F.object_map[c]):
            report.fail("units", f"color {c}")
    if P.symmetric:
        for s in P.signatures():
            n = len(s[0])
            for p in perms.all_perms(n):
                for op in P.ops_at(s):
                    report.note("equivariance")
                    if F.map_ref(P.act((s, op), p)) != Q.act(
                            F.map_ref((s, op)), p):
                        report.fail("equivariance",
                                    f"{sig_key(s)}:{op} perm {p}")
    for pref, slot, qref, rref in P.cells():
        report.note("compositions")
        got = Q.compose1(F.map_ref(pref), slot, F.map_ref(qref))
        if got != F.map_ref(rref):
            report.fail(
                "compositions",
                f"({_ref_str(pref)}) o_{slot} ({_ref_str(qref)})")
    return report


def enumerate_multifunctors(P, Q, budget=10 ** 6, fix_objects=None):
    """All multifunctors P -> Q, sorted by key: one `core.backtrack` per
    object map, with units fixed and the images forced by the symmetric
    actions and the tabulated compositions derived eagerly.  `budget`
    bounds the candidate images tried over all object maps before
    BudgetExceededError.

    The symmetric images are derived along adjacent transpositions only:
    the closure derives again from every image it assigns, so the whole
    orbit is reached.  A composite of images that Q lacks prunes the
    branch when its signature lies outside Q's support, as the composite
    P-operation then has no candidate; inside the support it cannot be
    checked, and PartialInputError names Q.
    """
    if not P.complete:
        raise PartialInputError("source must be complete")
    # op -> the compositions it takes part in, as (p, slot, q, result)
    comp_index = {}
    for entry in P.cells():
        comp_index.setdefault(entry[0], []).append(entry)
        comp_index.setdefault(entry[2], []).append(entry)

    op_order = [(s, op) for s in P.signatures() for op in P.ops_at(s)]
    op_order.sort(key=lambda ref: (len(ref[0][0]), sig_key(ref[0]), ref[1]))
    ops_of = getattr(Q, "iter_ops", Q.ops_at)

    def derive(ref, image, assign):
        if P.symmetric:
            for t in perms.adjacent_transpositions(len(ref[0][0])):
                yield P.act(ref, t), Q.act(image, t)
        for pref, slot, qref, rref in comp_index.get(ref, ()):
            if pref in assign and qref in assign:
                got = Q.try_compose1(assign[pref], slot, assign[qref])
                if got is not None:
                    yield rref, got
                elif Q.has_sig(composed_sig(assign[pref][0], slot,
                                            assign[qref][0])):
                    raise PartialInputError(
                        f"{Q.name or 'the target'} lacks the composite "
                        f"({_ref_str(assign[pref])}) o_{slot} "
                        f"({_ref_str(assign[qref])}) inside its support")
                else:
                    # two values on one key: the branch dies
                    yield ("outside", rref), False
                    yield ("outside", rref), True

    if fix_objects is not None:
        object_maps = [dict(fix_objects)]
    else:
        object_maps = [dict(zip(P.colors, combo))
                       for combo in product(Q.colors, repeat=len(P.colors))]
    counts = {"tried": 0, "found": 0}
    results = []
    for object_map in object_maps:
        def candidates(ref):
            ms = (tuple(object_map[c] for c in ref[0][0]),
                  object_map[ref[0][1]])
            return ((ms, cand) for cand in ops_of(ms))

        start = {P.unit_ref(c): Q.unit_ref(object_map[c]) for c in P.colors}
        for assign in backtrack(
                op_order, candidates, derive, start, budget,
                f"multifunctor search exceeded {budget} candidates", counts):
            op_maps = {}
            for (s, op), (ms, im) in assign.items():
                op_maps.setdefault(s, {})[op] = im
            results.append(Multifunctor(source=P, target=Q,
                                        object_map=dict(object_map),
                                        op_maps=op_maps))
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
        s = (tuple(F.object_map[a] for F in self.sources),
             self.target.object_map[a])
        return (s, self.components[a])


def _naturality_square(Q, sources, G, component_ref, pref):
    """Both routes of the naturality square at a source operation, where
    ``component_ref(a)`` is the component at color a, or None when the
    composites fall outside the target's declared support (a truncated
    target leaves such instances undefined)."""
    (inputs, out), _ = pref
    try:
        left = Q.gamma(G.map_ref(pref), [component_ref(a) for a in inputs])
        right_pre = Q.gamma(component_ref(out),
                            [F.map_ref(pref) for F in sources])
    except StructuralError:
        return None
    right = Q.act(right_pre, perms.transpose_shuffle(len(inputs),
                                                      len(sources)))
    return left, right


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
    witnesses = []
    refs = ops if ops is not None else list(P.refs())
    for pref in refs:
        square = _naturality_square(Q, xi.sources, xi.target,
                                    xi.component_ref, pref)
        if square is None:
            continue
        left, right = square
        if left != right:
            witnesses.append(f"{sig_key(pref[0])}:{pref[1]}")
    return not witnesses, witnesses


def generated_ops(P, gen_refs):
    """Closure of a set of operations under units, slot composition, and
    the symmetric actions: the sub-multicategory they generate."""
    have = set(gen_refs)
    for c in P.colors:
        have.add(P.unit_ref(c))
    changed = True
    while changed:
        changed = False
        for ref in list(have):
            s = ref[0]
            for p in perms.all_perms(len(s[0])):
                acted = P.act(ref, p)
                if acted not in have:
                    have.add(acted)
                    changed = True
        for ref in list(have):
            s = ref[0]
            for slot, color in enumerate(s[0]):
                for other in list(have):
                    if other[0][1] != color:
                        continue
                    got = P.try_compose1(ref, slot, other)
                    if got is not None and got not in have:
                        have.add(got)
                        changed = True
    return have


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
    assignments included, over all signatures together.
    """
    functors = enumerate_multifunctors(P, Q, budget=budget)
    ids = {i: F for i, F in enumerate(functors)}
    color_of = {i: f"F{i}" for i in ids}

    colors_sorted = sorted(P.colors)
    # color -> the source operations it takes part in, with their colors
    touching = {a: [] for a in colors_sorted}
    for pref in P.refs():
        (inputs, out), _ = pref
        colors = {*inputs, out}
        for a in colors:
            touching[a].append((pref, colors))
    counts = {"tried": 0, "found": 0}
    elements = {}
    for k in range(arity_cap + 1):
        for combo in product(range(len(functors)), repeat=k):
            for gi in range(len(functors)):
                sources = tuple(ids[i] for i in combo)
                G = ids[gi]
                comp_sig = {a: (tuple(F.object_map[a] for F in sources),
                                G.object_map[a]) for a in colors_sorted}

                def candidates(a):
                    return Q.ops_at(comp_sig[a])

                def derive(key, value, assign):
                    # a square with every component chosen must commute:
                    # both routes are forced onto one key
                    for pref, colors in touching.get(key, ()):
                        if not colors <= assign.keys():
                            continue
                        square = _naturality_square(
                            Q, sources, G,
                            lambda a: (comp_sig[a], assign[a]), pref)
                        if square is not None:
                            yield ("square", pref), square[0]
                            yield ("square", pref), square[1]

                sig = (tuple(color_of[i] for i in combo), color_of[gi])
                for assign in backtrack(
                        colors_sorted, candidates, derive, {}, budget,
                        "transformation search exceeded budget", counts):
                    elements.setdefault(sig, []).append(KNatTransformation(
                        sources=sources, target=G,
                        components={a: assign[a] for a in colors_sorted}))

    def oid_of(xi):
        return "{" + ",".join(
            f"{a}:{xi.components[a]}" for a in colors_sorted) + "}"

    def act(s, xi, p):
        return KNatTransformation(
            sources=tuple(xi.sources[i] for i in p), target=xi.target,
            components={a: Q.act(xi.component_ref(a), p)[1]
                        for a in colors_sorted})

    def compose(s, xi, slot, qs, eta):
        return KNatTransformation(
            xi.sources[:slot] + eta.sources + xi.sources[slot + 1:],
            xi.target,
            {a: Q.compose1(xi.component_ref(a), slot,
                           eta.component_ref(a))[1] for a in colors_sorted})

    units = {color_of[i]: KNatTransformation(
        (F,), F, {a: Q.unit_ref(F.object_map[a])[1] for a in colors_sorted})
        for i, F in ids.items()}
    table, knats, _ = tabulate(
        [color_of[i] for i in sorted(ids)], elements, units, oid_of, act,
        compose, arity_cap=arity_cap, name=f"Hom({P.name},{Q.name})")
    return HomResult(table=table,
                     functors={color_of[i]: ids[i] for i in ids},
                     knats=knats)


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
    operation of R, leaves go to units, and the leaf numbering is applied
    as a symmetric action at the end."""

    def planar(node):
        # returns (R op, list of leaf indices in planar order)
        if node[0] == "L":
            color = gen_image_color(node[1])
            return R.unit_ref(color), [node[2]]
        root = gen_image(node[1], node[2])
        idxs = []
        args = []
        for child in node[3]:
            cref, cidx = planar(child)
            args.append(cref)
            idxs.extend(cidx)
        return R.gamma(root, args), idxs

    def gen_image_color(color):
        return gen_image(None, color)

    return perms.unshuffle(R.act, *planar(term))


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
            oid = "{" + ",".join(
                f"{b}:{comps[b]}" for b in sorted(Q.colors)) + "}"
            table[pid] = oid
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
