"""The workloads: seeded inputs, the operations of one pass, and the
checks of their outputs against values computed apart from the program.

Operations come in four groups (end-census, tensor-saturate,
hom-adjunction, bar-modules); a workload runs two of them.  A group gives
fixture loads and tasks.  A task is a chain of operations, each tagged
with the end-to-end part it is timed in (`build`, `check` or `io`), and a
check of the chain's outputs that runs after it, outside the timing.
Operations call only the public functions of the package layers, looked
up on their modules at call time so that a traced run sees them.
"""

import random
from dataclasses import dataclass
from math import factorial

import plain

NAME_POOL = tuple(a + b for a in "abcdefghjkmnpqrstuvwxyz"
                  for b in "abcdefghjkmnpqrstuvwxyz")

SIZES = {
    "full": {
        "census_carrier": 3, "census_as_carrier": 2, "triple_carrier": 2,
        "arrow_level": 2, "end_cap": 3, "end_law_cap": 2,
        "tensor_caps": (4, 4), "unit_tensor_caps": (4, 3),
        "magma_caps": (5, 4), "free_caps": (5, 4), "free_law_caps": (4, 4),
        "adj_triples": (("Com2", "Com2", 4), ("I", "As2", 3)),
        "hom_view_cap": 3, "hom_arity_cap": 2, "nat_view_cap": 4,
        "as2pos_levels": 6, "as3pos_levels": 7,
    },
    "tiny": {
        "census_carrier": 2, "census_as_carrier": 1, "triple_carrier": 1,
        "arrow_level": 1, "end_cap": 2, "end_law_cap": 1,
        "tensor_caps": (4, 4), "unit_tensor_caps": (3, 3),
        "magma_caps": (4, 4), "free_caps": (4, 3), "free_law_caps": (3, 3),
        "adj_triples": (("Com2", "Com2", 4), ("I", "As2", 3)),
        "hom_view_cap": 3, "hom_arity_cap": 1, "nat_view_cap": 3,
        "as2pos_levels": 2, "as3pos_levels": 2,
    },
}


@dataclass
class Op:
    label: str
    kind: str  # build, check or io
    run: object  # callable taking the pass context
    fails_with: str = ""  # error text of a known fault


@dataclass
class Task:
    ops: list
    check: object  # callable (ctx, expected, checks), run untimed


@dataclass
class Inputs:
    """What a seed draws: carrier element names, the bijection used for
    End(f), and (in `plan`) the order of a pass's operations."""

    seed: int
    carriers: dict  # size -> element names
    codomain: tuple
    bijection: dict


def make_inputs(seed):
    rng = random.Random(seed)
    names = rng.sample(NAME_POOL, 5)
    carriers = {n: tuple(names[:n]) for n in (1, 2, 3)}
    codomain = tuple(rng.sample(NAME_POOL, 2))
    images = list(codomain)
    rng.shuffle(images)
    return Inputs(seed=seed, carriers=carriers, codomain=codomain,
                  bijection=dict(zip(carriers[2], images)))


class Checks:
    """Verdicts of the output checks of one pass."""

    def __init__(self):
        self.verdicts = []  # (name, ok, detail)

    def equal(self, name, got, want):
        self.verdicts.append((name, got == want, f"got {got}, want {want}"))

    def true(self, name, ok, detail=""):
        self.verdicts.append((name, bool(ok), detail))


# ---------------------------------------------------------------------------
# helpers shared by the groups


def _load(root, fname):
    def run(ctx):
        from multicat import dsl

        ast, diags = dsl.parse((root / "fixtures" / fname).read_text())
        if ast is None or diags:
            raise RuntimeError(f"{fname}: {[str(d) for d in diags]}")
        objects, diags = dsl.elaborate(ast)
        if diags:
            raise RuntimeError(f"{fname}: {[str(d) for d in diags]}")
        ctx.update(objects)
    return Op(f"load {fname}", "io", run)


def _export(key, get_table):
    def run(ctx):
        from multicat import jsonio

        ctx["exported"][key] = len(jsonio.dumps(get_table(ctx)).encode())
    return Op(f"export {key}", "io", run)


def _laws(key, get_table):
    def run(ctx):
        from multicat import core

        ctx[key + ".laws"] = core.check_multicategory_laws(get_table(ctx))
    return Op(f"laws {key}", "check", run)


def _law_verdict(c, ctx, key):
    rep = ctx[key + ".laws"]
    c.true(f"{key}: law check passes", rep.ok, str(rep.violations[:2]))


def _family(carrier, colors=("x",)):
    from multicat.algebras import ObjectFamily

    return ObjectFamily({c: carrier for c in colors})


def _by_arity(table):
    out = {}
    for s in table.signatures():
        out[len(s[0])] = out.get(len(s[0]), 0) + len(table.ops_at(s))
    return out


# ---------------------------------------------------------------------------
# end-census


def end_census(root, inp, size):
    from multicat import algebras, presents

    level = size["arrow_level"]
    arrow_family = _family(inp.carriers[2],
                           tuple(str(i) for i in range(level + 1)))
    dom, cod = _family(inp.carriers[2]), _family(inp.codomain)
    f = {"x": inp.bijection}

    def census_task(key, name, n, op_unit, op_bin, commutative):
        carrier = inp.carriers[n]
        family = _family(carrier)

        def census(ctx):
            ctx[key] = algebras.enumerate_algebras(ctx[name], family)

        def verdicts(ctx):
            ctx[key + ".verdicts"] = [algebras.check_algebra(a).ok
                                      for a in ctx[key]]

        def check(ctx, expected, c):
            idx = {v: i for i, v in enumerate(carrier)}
            tables = [
                (idx[a.action[((), "x")][op_unit][0]],
                 tuple(idx[v] for v in a.action[(("x", "x"), "x")][op_bin]))
                for a in ctx[key]]
            c.equal(f"{key}: count equals the table-search oracle",
                    len(tables), expected[key])
            c.true(f"{key}: every table is unital and associative",
                   all(plain.is_unital(t, n, e) and plain.is_associative(t, n)
                       for e, t in tables))
            if commutative:
                c.true(f"{key}: every table is commutative",
                       all(plain.is_commutative(t, n) for _, t in tables))
            c.equal(f"{key}: tables are distinct", len(set(tables)),
                    len(tables))
            c.true(f"{key}: check_algebra accepts every result",
                   all(ctx[key + ".verdicts"]))

        return Task([Op(f"census {name} on {n} elements", "build", census),
                     Op(f"check_algebra {key}", "check", verdicts)], check)

    def triples(ctx):
        a = _family(inp.carriers[size["triple_carrier"]])
        ctx["triples"] = algebras.p1_algebras_as_triples(ctx["As3"], a, a)

    def check_triples(ctx, expected, c):
        rep = ctx["triples"]
        c.true("triples: arrow algebras biject with triples",
               rep["bijective"])
        c.equal("triples: count equals the homomorphism oracle",
                (rep["arrow_count"], rep["triple_count"]),
                (expected["triples"], expected["triples"]))

    def arrow(ctx):
        ctx["arrow"] = presents.arrow_multicategory(ctx["Com2"], level)
        ctx["arrow_census"] = algebras.enumerate_algebras(ctx["arrow"],
                                                          arrow_family)

    def arrow_verdicts(ctx):
        ctx["arrow.verdicts"] = [algebras.check_algebra(a).ok
                                 for a in ctx["arrow_census"]]

    def check_arrow(ctx, expected, c):
        c.equal("arrow census: count equals the plain string count",
                len(ctx["arrow_census"]), expected["arrow_census"])
        c.true("arrow census: check_algebra accepts every result",
               all(ctx["arrow.verdicts"]))

    def end_f(key, cap):
        def run(ctx):
            ctx[key] = algebras.end_of_map(f, dom, cod, arity_cap=cap)[0]
        return Op(f"end_of_map at cap {cap}", "build", run)

    def check_end_f(ctx, expected, c):
        table = ctx["end_f"]
        conj = True
        for s in table.signatures():
            for pid in table.ops_at(s):
                phi, psi = pid[1:-1].split(",")  # <f:..|..,f:..|..>
                conj &= plain.conjugates(
                    phi[2:].split("|"), psi[2:].split("|"), inp.bijection,
                    len(s[0]), inp.carriers[2], inp.codomain)
        c.equal("End(f): 2^(2^k) operations at arity k", _by_arity(table),
                expected["end_f"])
        c.true("End(f): every pair is conjugate under the bijection", conj)

    loads = [_load(root, "as3.mcat"), _load(root, "com3.mcat"),
             _load(root, "com2.mcat")]
    tasks = [
        census_task("com_census", "Com3", size["census_carrier"], "m0", "m2",
                    True),
        census_task("as_census", "As3", size["census_as_carrier"], "w", "w01",
                    False),
        Task([Op("arrow level-1 triples of As3", "build", triples)],
             check_triples),
        Task([Op(f"arrow level-{level} census of Com2", "build", arrow),
              Op("check_algebra arrow census", "check", arrow_verdicts),
              _export("arrow", lambda ctx: ctx["arrow"])], check_arrow),
        Task([end_f("end_f", size["end_cap"]),
              _export("end_f", lambda ctx: ctx["end_f"])], check_end_f),
        Task([end_f("end_f_small", size["end_law_cap"]),
              _laws("end_f_small", lambda ctx: ctx["end_f_small"]),
              _export("end_f_small", lambda ctx: ctx["end_f_small"])],
             lambda ctx, expected, c: _law_verdict(c, ctx, "end_f_small")),
    ]
    return loads, tasks


def end_census_expected(oracles, size):
    n_tri = size["triple_carrier"]
    return {
        "com_census": oracles.count_monoids(size["census_carrier"],
                                            commutative=True),
        "as_census": oracles.count_monoids(size["census_as_carrier"]),
        "triples": oracles.monoid_triple_census(n_tri, n_tri),
        "arrow_census": plain.hom_strings(2, True, size["arrow_level"]),
        "end_f": {k: plain.end_of_bijection_size(2, k)
                  for k in range(size["end_cap"] + 1)},
    }


# ---------------------------------------------------------------------------
# tensor-saturate


def tensor_saturate(root, inp, size):
    from multicat import presents, trees

    def saturation_task(key, label, build, check):
        def run(ctx):
            ctx[key] = build(ctx)

        def full_check(ctx, expected, c):
            sat = ctx[key]
            c.true(f"{key}: stabilized", sat.report.stabilized)
            check(sat.table, expected, c)
            _law_verdict(c, ctx, key)

        def table(ctx):
            return ctx[key].table

        return Task([Op(label, "build", run), _laws(key, table),
                     _export(key, table)], full_check)

    def check_comcom(table, expected, c):
        c.true("comcom: one class at every signature (Eckmann-Hilton)",
               all(len(table.ops_at(s)) == 1 for s in table.signatures()))
        c.equal("comcom: classes by arity", _by_arity(table),
                expected["comcom"])

    def check_unit_as(table, expected, c):
        c.equal("unit_as: n! classes at arity n", _by_arity(table),
                expected["unit_as"])

    def check_magma(table, expected, c):
        c.equal("magma: one class per arity (commutative semigroup)",
                _by_arity(table), expected["magma"])

    def free_task(key, caps, with_laws):
        def run(ctx):
            ctx[key] = trees.free_multicategory(ctx["Binary"], True, *caps)

        def check(ctx, expected, c):
            table, rep = ctx[key]
            c.true(f"{key}: complete within the caps", rep.complete)
            c.equal(f"{key}: (2n-3)!! terms at arity n", _by_arity(table),
                    expected[key])
            if with_laws:
                _law_verdict(c, ctx, key)

        def table(ctx):
            return ctx[key][0]

        ops = [Op(f"free_multicategory Binary at {caps}", "build", run)]
        ops += [_laws(key, table)] if with_laws else []
        return Task(ops + [_export(key, table)], check)

    tcaps, ucaps, mcaps = (size["tensor_caps"], size["unit_tensor_caps"],
                           size["magma_caps"])
    loads = [_load(root, "com2.mcat"), _load(root, "i.mcat"),
             _load(root, "as3.mcat"), _load(root, "magma.mcat")]
    tasks = [
        saturation_task(
            "comcom", f"bv_tensor Com2(x)Com2 at {tcaps}",
            lambda ctx: presents.bv_tensor(ctx["Com2"], ctx["Com2"], *tcaps),
            check_comcom),
        saturation_task(
            "unit_as", f"bv_tensor I(x)As3 at {ucaps}",
            lambda ctx: presents.bv_tensor(ctx["I"], ctx["As3"], *ucaps),
            check_unit_as),
        saturation_task(
            "magma", f"saturate Magma at {mcaps}",
            lambda ctx: presents.saturate(ctx["Magma"], *mcaps), check_magma),
        # the law check of the larger free table alone takes 40 s, so the
        # laws are checked on a smaller one
        free_task("free", size["free_caps"], False),
        free_task("free_small", size["free_law_caps"], True),
    ]
    return loads, tasks


def tensor_saturate_expected(oracles, size):
    return {
        "comcom": {n: 1 for n in range(size["tensor_caps"][0] + 1)},
        "unit_as": {n: factorial(n)
                    for n in range(size["unit_tensor_caps"][0] + 1)},
        "magma": {n: 1 for n in range(1, size["magma_caps"][0] + 1)},
        "free": {n: plain.binary_tree_terms(n)
                 for n in range(1, size["free_caps"][0] + 1)},
        "free_small": {n: plain.binary_tree_terms(n)
                       for n in range(1, size["free_law_caps"][0] + 1)},
    }


# ---------------------------------------------------------------------------
# hom-adjunction


def hom_adjunction(root, inp, size):
    from multicat import homcalc
    from multicat.algebras import EndView

    family = _family(inp.carriers[2])

    def adjunction_task(left, right, cap):
        # the tensor, the view and the search share one cap; binary
        # interchange instances need arity 4 and 3 vertices a side, so a
        # pair with interchange stabilizes from caps (4, 4) on
        key = ("adj", left, right)

        def run(ctx):
            view = EndView(family, arity_cap=cap)
            ctx[key] = homcalc.adjunction_check(
                ctx[left], ctx[right], view, max_arity=cap, max_vertices=cap)

        def check(ctx, expected, c):
            rep = ctx[key]
            c.true(f"{left},{right}: adjunction bijective with both round "
                   "trips", rep.ok, str(rep.witnesses[:2]))
            c.equal(f"{left},{right}: multifunctors off the tensor equal "
                    "interchanging pairs", (rep.tensor_side, rep.hom_side),
                    (expected[key], expected[key]))

        return Task([Op(f"adjunction_check {left},{right} into End_{cap}",
                        "build", run)], check)

    def hom_task(key, name):
        # check_multicategory_laws is not run on these tables: it raises on
        # every seed (see CHANGES.md)
        def run(ctx):
            view = EndView(family, arity_cap=size["hom_view_cap"])
            ctx[key] = homcalc.internal_hom(ctx[name], view,
                                            arity_cap=size["hom_arity_cap"])

        def check(ctx, expected, c):
            c.equal(f"{key}: objects are the algebras on the carrier",
                    len(ctx[key].table.colors), expected[key])

        return Task([Op(f"internal_hom {name} into End_{size['hom_view_cap']}",
                        "build", run),
                     _export(key, lambda ctx: ctx[key].table)], check)

    def candidates(ctx):
        as3, com3 = ctx["As3"], ctx["Com3"]
        view = EndView(family, arity_cap=size["nat_view_cap"])
        s_as = [(((), "x"), "w")] + [((("x", "x"), "x"), w)
                                     for w in as3.ops_at((("x", "x"), "x"))]
        s_com = [(((), "x"), "m0"), ((("x", "x"), "x"), "m2")]
        found = []
        for P, Q, S, fix in [(as3, view, s_as, {"x": "x"}),
                             (com3, view, s_com, {"x": "x"}),
                             (com3, com3, s_com, None)]:
            fs = homcalc.enumerate_multifunctors(P, Q, fix_objects=fix)
            for F in fs:
                for G in fs:
                    for k in (1, 2):
                        sig = ((F.object_map["x"],) * k, G.object_map["x"])
                        for comp in Q.ops_at(sig):
                            found.append((homcalc.KNatTransformation(
                                (F,) * k, G, {"x": comp}), S))
        ctx["candidates"] = found

    def naturality(ctx):
        ctx["naturality"] = [
            (homcalc.is_k_natural(xi)[0],
             homcalc.naturality_on_generators(xi, S)[0])
            for xi, S in ctx["candidates"]]

    def check_naturality(ctx, expected, c):
        verdicts = ctx["naturality"]
        c.true("naturality: generator verdicts equal full verdicts",
               verdicts and all(full == gen for full, gen in verdicts),
               f"{len(verdicts)} candidates")

    loads = [_load(root, "com2.mcat"), _load(root, "as2.mcat"),
             _load(root, "as3.mcat"), _load(root, "com3.mcat"),
             _load(root, "i.mcat")]
    tasks = [adjunction_task(*triple) for triple in size["adj_triples"]]
    tasks += [
        hom_task("hom_as", "As3"),
        hom_task("hom_com", "Com3"),
        Task([Op("naturality candidates", "build", candidates),
              Op("naturality: full vs generators", "check", naturality)],
             check_naturality),
    ]
    return loads, tasks


def hom_adjunction_expected(oracles, size):
    kinds = {"I": "unit", "Com2": "commutative", "As2": "associative"}
    out = {("adj", left, right): plain.interchanging_pairs(
        2, kinds[left], kinds[right])
        for left, right, _ in size["adj_triples"]}
    out["hom_as"] = oracles.count_monoids(2)
    out["hom_com"] = oracles.count_monoids(2, commutative=True)
    return out


# ---------------------------------------------------------------------------
# bar-modules


def bar_modules(root, inp, size):
    from multicat import bimodules
    from multicat.standard import assoc_multicategory

    def hoch(key, get_p, levels, cap):
        def run(ctx):
            ctx[key] = bimodules.hochschild(get_p(ctx), n_max=levels,
                                            max_arity=cap)
        return Op(f"hochschild {key} levels 0-{levels}", "build", run)

    def identities(key):
        def run(ctx):
            ctx[key + ".identities"] = ctx[key].check_identities()
        return Op(f"check_identities {key}", "check", run)

    def check_levels(c, ctx, expected, key):
        c.equal(f"{key}: level sizes equal iterated circle products",
                [len(level) for level in ctx[key].simplicial.levels],
                expected[key])

    def check_hoch(key):
        def check(ctx, expected, c):
            check_levels(c, ctx, expected, key)
            c.true(f"{key}: simplicial identities hold",
                   ctx[key + ".identities"].ok)
        return check

    def module_end(key, get_module):
        def run(ctx):
            mod = get_module(ctx)
            ctx[key] = bimodules.end_right_module(mod)[0]
            ctx[key + ".pointed"] = bimodules.analyze_pointed(mod)
        return Op(f"end_right_module and analyze_pointed {key}", "build",
                  run)

    def check_module_end(c, ctx, expected, key):
        c.equal(f"{key}: k! module endomorphisms at arity k",
                _by_arity(ctx[key]), expected[key])
        rep = ctx[key + ".pointed"]
        c.true(f"{key}: pointed and quasi-free",
               rep["pointed"] and rep["quasi_free"])

    def regular(ctx):
        ctx["As3pos"] = assoc_multicategory(3, include_nullary=False)
        ctx["reg"] = bimodules.module_from_multicategory(ctx["As3pos"])

    def bimodule_laws(ctx):
        ctx["reg.laws"] = bimodules.check_bimodule(ctx["reg"])

    def check_regular(ctx, expected, c):
        check_hoch("as3pos")(ctx, expected, c)
        check_module_end(c, ctx, expected, "end_reg")
        c.true("regular module: bimodule laws hold", ctx["reg.laws"].ok)

    def as2_level1(ctx):
        ctx["as2_hoch"] = bimodules.hochschild(ctx["As2"], n_max=1,
                                               max_arity=2)

    def check_as2(ctx, expected, c):
        if "as2_hoch" in ctx:  # only once the known fault is mended
            check_levels(c, ctx, expected, "as2_hoch")

    loads = [_load(root, "as2pos.mcat"), _load(root, "bimod.mcat"),
             _load(root, "as2.mcat")]
    tasks = [
        Task([hoch("as2pos", lambda ctx: ctx["As2pos"],
                   size["as2pos_levels"], 2),
              identities("as2pos")], check_hoch("as2pos")),
        Task([Op("regular module of As3pos", "build", regular),
              hoch("as3pos", lambda ctx: ctx["As3pos"],
                   size["as3pos_levels"], 3),
              identities("as3pos"),
              module_end("end_reg", lambda ctx: ctx["reg"]),
              Op("check_bimodule regular module", "check", bimodule_laws),
              _export("As3pos", lambda ctx: ctx["As3pos"]),
              _export("end_reg", lambda ctx: ctx["end_reg"])], check_regular),
        Task([module_end("end_Reg", lambda ctx: ctx["Reg"]),
              _export("end_Reg", lambda ctx: ctx["end_Reg"])],
             lambda ctx, expected, c: check_module_end(c, ctx, expected,
                                                       "end_Reg")),
        Task([Op("hochschild As2 level 1", "build", as2_level1,
                 fails_with="missing right action")], check_as2),
    ]
    return loads, tasks


def bar_modules_expected(oracles, size):
    def levels(op_sizes, n_levels, cap):
        # level n is the circle product of n + 2 copies of the operad
        out = []
        power = oracles.circle_sizes_regular(op_sizes, op_sizes, cap)
        for _ in range(n_levels + 1):
            out.append(sum(power))
            power = oracles.circle_sizes_regular(op_sizes, power, cap)
        return out

    return {
        "as2pos": levels([0, 1, 2], size["as2pos_levels"], 2),
        "as3pos": levels([0, 1, 2, 6], size["as3pos_levels"], 3),
        "end_reg": {k: factorial(k) for k in range(1, 4)},
        "end_Reg": {k: factorial(k) for k in range(1, 3)},
        "as2_hoch": levels([1, 1, 2], 1, 2),
    }


GROUPS = {
    "end-census": (end_census, end_census_expected),
    "tensor-saturate": (tensor_saturate, tensor_saturate_expected),
    "hom-adjunction": (hom_adjunction, hom_adjunction_expected),
    "bar-modules": (bar_modules, bar_modules_expected),
}

# A workload runs two groups in one pass.  Each pairs a group that leans
# on one kernel with a group that uses it lightly or not at all: the End
# kernel with the hom side, the term engine with the bar side.
WORKLOADS = {
    "end-hom": ("end-census", "hom-adjunction"),
    "tensor-bar": ("tensor-saturate", "bar-modules"),
}


def plan(workload, root, inp, scale):
    """The loads and the tasks of one pass, each list in the seeded
    order."""
    loads, tasks = {}, []
    for group in WORKLOADS[workload]:
        group_loads, group_tasks = GROUPS[group][0](root, inp, SIZES[scale])
        loads.update((op.label, op) for op in group_loads)
        tasks += group_tasks
    loads = list(loads.values())
    order = random.Random(inp.seed)
    order.shuffle(loads)
    order.shuffle(tasks)
    return loads, tasks


def expected_values(workload, oracles, scale):
    out = {}
    for group in WORKLOADS[workload]:
        out.update(GROUPS[group][1](oracles, SIZES[scale]))
    return out
