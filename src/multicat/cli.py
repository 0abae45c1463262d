"""Command-line driver: every operation of the package is reachable from
exactly one subcommand (see COMMAND_TABLE), documents are read in the
line-oriented format, and artifacts are written as deterministic JSON.

Exit status: 0 on success, 1 when a law check or verification fails,
2 on usage errors.
"""

import argparse
import sys
from contextlib import contextmanager

from . import dsl, jsonio
from .core import (check_multicategory_laws, is_equivalence, nerve,
                   restrict_objects, extend_objects_injective,
                   FiniteCollection, TableMulticategory)
from .errors import DomainError, MulticatError
from .homcalc import Multifunctor

# operation -> owning subcommand; the coverage test keys off this table
COMMAND_TABLE = {
    "parse": "check",
    "elaborate": "check",
    "check_multicategory_laws": "check",
    "check_multifunctor": "check",
    "check_bimodule": "check",
    "compose": "compose",
    "graft": "compose",
    "op_compose": "compose",
    "free_multicategory": "free",
    "op_hom_set": "free",
    "saturate": "saturate",
    "coproduct": "saturate",
    "pushout": "saturate",
    "bv_tensor": "tensor",
    "arrow_multicategory": "tensor",
    "internal_hom": "hom",
    "enumerate_multifunctors": "hom",
    "is_k_natural": "hom",
    "naturality_on_generators": "hom",
    "adjunction_check": "adjunction",
    "enumerate_algebras": "algebras",
    "free_algebra": "algebras",
    "op_algebra_to_operad": "algebras",
    "p1_algebras_as_triples": "algebras",
    "end_multicategory": "end",
    "end_module": "end",
    "end_of_map": "end",
    "end_right_module": "end",
    "analyze_pointed": "end",
    "bar_complex": "bar",
    "circle_product": "bar",
    "restrict_module": "bar",
    "hochschild": "hochschild",
    "is_equivalence": "equiv",
    "nerve": "nerve",
    "restrict_objects": "export",
    "extend_objects_injective": "export",
    "export": "export",
}

SUBCOMMANDS = ("check", "compose", "free", "saturate", "tensor", "hom",
               "adjunction", "algebras", "end", "bar", "hochschild",
               "equiv", "nerve", "export")


class _Usage(Exception):
    pass


class _Failed(Exception):
    """The document's diagnostics are printed; exit 1."""


def _load(path):
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise _Usage(str(exc))
    ast, diags = dsl.parse(text)
    if ast is None:
        return None, None, diags
    objects, ediags = dsl.elaborate(ast)
    return ast, objects, diags + ediags


@contextmanager
def _parsing(option, value):
    """Report a missing value of ``option``, or one that does not parse
    (a ``ValueError`` inside the block), as a usage error."""
    if value is None:
        raise _Usage(f"{option} is required here")
    try:
        yield
    except ValueError:
        raise _Usage(f"malformed {option} value {value!r}") from None


def _mapping(spec):
    """``a:b,c:d`` as ``{"a": "b", "c": "d"}``."""
    return dict(pair.split(":") for pair in spec.split(","))


def _need(objects, name, kinds=None, option="--name"):
    if name is None:
        raise _Usage(f"{option} is required here")
    if name not in objects:
        raise _Usage(f"no block named {name!r} in the document")
    obj = objects[name]
    if obj is None:
        raise _Usage(f"block {name!r} did not elaborate; see the diagnostics "
                     "above")
    if kinds is not None and not isinstance(obj, kinds):
        raise _Usage(f"block {name!r} has the wrong kind")
    return obj


def _emit(args, doc):
    text = jsonio.encode(doc)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_diags(diags):
    hard = False
    for d in diags:
        print(str(d), file=sys.stderr)
        hard = hard or d.code in ("LAW",)
    return hard


def _objects(args):
    """The elaborated blocks of ``args.file`` by name, None for a block
    that did not elaborate, its diagnostics printed; exits 1 when the
    document does not parse or a law is violated."""
    ast, objects, diags = _load(args.file)
    if _print_diags(diags) or ast is None:
        raise _Failed
    return {block.name: objects.get(block.name) for block in ast.blocks}


def _saturation(args, sat):
    """Emit a saturated table with its report."""
    doc = jsonio.multicategory_json(sat.table)
    doc["saturation"] = sat.report.to_json()
    _emit(args, doc)
    return 0 if sat.report.stabilized else 1


def _simplicial(args, S):
    """Emit a truncated simplicial set with its identities verdict."""
    ok = S.check_identities().ok
    doc = jsonio.simplicial_json(S)
    doc["identities_ok"] = ok
    _emit(args, doc)
    return 0 if ok else 1


def _sizes(args, kind, sigs, size):
    """Emit ``size(s)``, the number of operations, at each signature."""
    _emit(args, {"schema": jsonio.SCHEMA, "kind": kind,
                 "sizes": {jsonio.sig_key(s): size(s) for s in sigs}})
    return 0


def cmd_check(args):
    ast, objects, diags = _load(args.file)
    if ast is None:
        _print_diags(diags)
        return 1
    law_fail = _print_diags(diags)
    for d in diags:
        if d.code in ("SYNTAX", "RESOLVE", "STRUCT"):
            return 1
    print(f"{args.file}: {len(objects)} blocks elaborated")
    return 1 if law_fail else 0


def cmd_compose(args):
    objects = _objects(args)
    M = _need(objects, args.name, TableMulticategory)
    psig = dsl.parse_sig_token(args.op_sig, 0, [])
    qsig = dsl.parse_sig_token(args.arg_sig, 0, [])
    if psig is None or qsig is None:
        raise _Usage("bad signature token")
    pref, qref, slot = (psig, args.op), (qsig, args.arg), args.slot
    key = jsonio.sig_key
    for s, op in (pref, qref):
        if op not in M.ops_at(s):
            raise DomainError(f"no operation {op} at {key(s)}")
    if not 1 <= slot <= len(psig[0]):
        raise DomainError(
            f"--slot {slot} out of range for arity {len(psig[0])}")
    if psig[0][slot - 1] != qsig[1]:
        raise DomainError(
            f"--slot {slot} of {key(psig)} takes {psig[0][slot - 1]}, "
            f"--arg outputs {qsig[1]}")
    got = M.cell(M.value(pref), slot - 1, M.value(qref))
    if got is None:
        raise DomainError(f"no composite of {key(psig)}:{args.op} and "
                          f"{key(qsig)}:{args.arg} at --slot {slot}")
    _emit(args, {"schema": jsonio.SCHEMA, "kind": "composite",
                 "at": key(M.sig_of(got)), "result": M.ref_of(got)[1]})
    return 0


def cmd_free(args):
    from .trees import free_multicategory, op_hom_set, op_text

    if args.tree_homs:
        with _parsing("--tree-homs", args.tree_homs):
            vals, _, n = args.tree_homs.partition(";")
            valences = [int(v) for v in vals.split(",") if v]
            n = int(n)
        trees = op_hom_set(valences, n, cap=args.budget)
        _emit(args, {"schema": jsonio.SCHEMA, "kind": "tree-homs",
                     "count": len(trees),
                     "trees": [op_text(t) for t in trees]})
        return 0
    objects = _objects(args)
    G = _need(objects, args.name, (FiniteCollection, TableMulticategory))
    table, report = free_multicategory(
        getattr(G, "collection", G), symmetric=not args.planar,
        max_arity=args.cap_arity, max_vertices=args.cap_vertices)
    doc = jsonio.multicategory_json(table)
    doc["free_report"] = {"complete": report.complete,
                          "escapes": report.escapes,
                          "terms": report.term_count}
    _emit(args, doc)
    return 0


def cmd_saturate(args):
    from .presents import Presentation, coproduct, pushout, saturate

    objects = _objects(args)
    if args.coproduct:
        with _parsing("--coproduct", args.coproduct):
            a, b = args.coproduct.split(",")
        pres = coproduct(_need(objects, a, TableMulticategory),
                         _need(objects, b, TableMulticategory))
    elif args.pushout:
        with _parsing("--pushout", args.pushout):
            f, g = args.pushout.split(",")
        pres = pushout(_need(objects, f, Multifunctor),
                       _need(objects, g, Multifunctor))
    else:
        pres = _need(objects, args.name, Presentation)
    return _saturation(args, saturate(pres, max_arity=args.cap_arity,
                                      max_vertices=args.cap_vertices))


def cmd_tensor(args):
    from .presents import arrow_multicategory, bv_tensor

    objects = _objects(args)
    if args.arrow is not None:
        P = _need(objects, args.left, TableMulticategory)
        table = arrow_multicategory(P, args.arrow)
        _emit(args, jsonio.multicategory_json(table))
        return 0
    P = _need(objects, args.left, TableMulticategory)
    Q = _need(objects, args.right, TableMulticategory)
    return _saturation(args, bv_tensor(P, Q, max_arity=args.cap_arity,
                                       max_vertices=args.cap_vertices))


def cmd_hom(args):
    from .homcalc import enumerate_multifunctors, internal_hom

    objects = _objects(args)
    P = _need(objects, args.source, TableMulticategory)
    Q = _need(objects, args.target, TableMulticategory)
    if args.objects_only:
        fs = enumerate_multifunctors(P, Q, budget=args.budget)
        _emit(args, {"schema": jsonio.SCHEMA, "kind": "multifunctors",
                     "count": len(fs)})
        return 0
    hom = internal_hom(P, Q, arity_cap=args.cap_arity, budget=args.budget)
    _emit(args, jsonio.multicategory_json(hom.table))
    return 0


def cmd_adjunction(args):
    from .homcalc import adjunction_check

    objects = _objects(args)
    P = _need(objects, args.p, TableMulticategory)
    Q = _need(objects, args.q, TableMulticategory)
    R = _need(objects, args.r, TableMulticategory)
    rep = adjunction_check(P, Q, R, max_arity=args.cap_arity,
                           max_vertices=args.cap_vertices,
                           budget=args.budget)
    _emit(args, jsonio.report_json(rep))
    return 0 if rep.ok else 1


def _carrier_from(spec, option="--carrier"):
    from .algebras import ObjectFamily

    carriers = {}
    with _parsing(option, spec):
        for part in spec.split(";"):
            color, _, elems = part.partition("=")
            carriers[color] = tuple(elems.split(",")) if elems else ()
    return ObjectFamily(carriers)


def cmd_algebras(args):
    from .algebras import (AlgebraStructure, enumerate_algebras,
                           free_algebra, op_algebra_to_operad,
                           p1_algebras_as_triples)

    objects = _objects(args)
    if min(args.cap_arity, args.cap_vertices) < 0:  # though no mode reads them
        raise DomainError("the arity and vertex caps must be >= 0")
    P = _need(objects, args.name, TableMulticategory)
    if args.p1:
        with _parsing("--p1", args.p1):
            a0, a1 = args.p1.split("|")
        a0, a1 = _carrier_from(a0, "--p1"), _carrier_from(a1, "--p1")
        rep = p1_algebras_as_triples(P, a0, a1, budget=args.budget)
        _emit(args, {"schema": jsonio.SCHEMA, "kind": "arrow-algebras", **rep})
        return 0 if rep["bijective"] else 1
    if args.roundtrip:
        alg = _need(objects, args.roundtrip, AlgebraStructure)
        table, report = op_algebra_to_operad(alg)
        doc = jsonio.multicategory_json(table)
        doc["laws"] = report.to_json()
        _emit(args, doc)
        return 0 if report.ok else 1
    family = _carrier_from(args.carrier)
    if args.free:
        fa = free_algebra(P, family)
        _emit(args, {
            "schema": jsonio.SCHEMA, "kind": "free-algebra",
            "carriers": {c: list(v) for c, v in sorted(fa.carriers.items())},
        })
        return 0
    algs = enumerate_algebras(P, family, budget=args.budget)
    _emit(args, {"schema": jsonio.SCHEMA, "kind": "algebra-census",
                 "count": len(algs)})
    return 0


def cmd_end(args):
    from .algebras import end_multicategory, end_module, end_of_map
    from .bimodules import Bimodule, analyze_pointed, end_right_module

    if args.analyze or args.module:
        objects = _objects(args)
        M = _need(objects, args.module, Bimodule)
        if args.analyze:
            res = analyze_pointed(M, budget=args.budget)
            _emit(args, {
                "schema": jsonio.SCHEMA, "kind": "pointed-analysis",
                "pointed": res["pointed"],
                "quasi_free": res["quasi_free"],
                "witness": res["witness"],
            })
            return 0
        table, _ = end_right_module(M, budget=args.budget)
        _emit(args, jsonio.multicategory_json(table))
        return 0
    family = _carrier_from(args.carrier)
    if args.map:
        target = _carrier_from(args.target_carrier, "--target-carrier")
        fmap = {}
        with _parsing("--map", args.map):
            for part in args.map.split(";"):
                color, _, pairs = part.partition("=")
                fmap[color] = _mapping(pairs)
        table, _, _ = end_of_map(fmap, family, target,
                                 arity_cap=args.cap_arity, limit=args.budget)
        _emit(args, jsonio.multicategory_json(table))
        return 0
    if args.pair_target:
        target = _carrier_from(args.pair_target, "--pair-target")
        mod = end_module(family, target, arity_cap=args.cap_arity)
        return _sizes(args, "end-module", mod.signatures(), mod.size_at)
    table = end_multicategory(family, arity_cap=args.cap_arity,
                              limit=args.budget)
    _emit(args, jsonio.multicategory_json(table))
    return 0


def cmd_bar(args):
    from .bimodules import (Bimodule, bar_complex, module_from_multicategory,
                            restrict_module, right_module_from)
    from .trees import circle_product

    objects = _objects(args)
    modules = (Bimodule, TableMulticategory)
    if args.circle:
        with _parsing("--circle", args.circle):
            a, b = args.circle.split(",")
        A = _need(objects, a, TableMulticategory)
        B = _need(objects, b, TableMulticategory)
        coll, _ = circle_product(A.collection, B.collection,
                                 max_arity=args.cap_arity)
        return _sizes(args, "circle-product", coll.signatures(),
                      lambda s: len(coll.ops_at(s)))
    if args.restrict:
        with _parsing("--restrict", args.restrict):
            module_name, functor = args.restrict.split(",")
        N = right_module_from(_need(objects, module_name, modules))
        psi = _need(objects, functor, Multifunctor)
        coll = restrict_module(N, psi).collection
        return _sizes(args, "right-module", coll.signatures(),
                      lambda s: len(coll.ops_at(s)))
    X = _need(objects, args.x, modules, option="--x")
    P = _need(objects, args.p, TableMulticategory, option="--p")
    Y = _need(objects, args.y, modules, option="--y")
    if isinstance(X, TableMulticategory):
        X = module_from_multicategory(X, max_arity=args.cap_arity)
    if isinstance(Y, TableMulticategory):
        Y = module_from_multicategory(Y, max_arity=args.cap_arity)
    bar = bar_complex(X, P, Y, n_max=args.levels, max_arity=args.cap_arity)
    return _simplicial(args, bar.simplicial)


def cmd_hochschild(args):
    from .bimodules import hochschild

    objects = _objects(args)
    P = _need(objects, args.name, TableMulticategory)
    bar = hochschild(P, n_max=args.levels, max_arity=args.cap_arity)
    return _simplicial(args, bar.simplicial)


def cmd_equiv(args):
    objects = _objects(args)
    F = _need(objects, args.name, Multifunctor)
    rep = is_equivalence(F)
    _emit(args, jsonio.report_json(rep))
    return 0 if rep.is_equivalence else 1


def cmd_nerve(args):
    objects = _objects(args)
    M = _need(objects, args.name, TableMulticategory)
    if args.category_only:
        _emit(args, jsonio.category_json(M))
        return 0
    return _simplicial(args, nerve(M, args.depth))


def cmd_export(args):
    objects = _objects(args)
    M = _need(objects, args.name, TableMulticategory)
    if args.restrict_map:
        with _parsing("--restrict-map", args.restrict_map):
            mapping = _mapping(args.restrict_map)
        M = restrict_objects(M, mapping)
    if args.extend_map:
        spec, _, colors = args.extend_map.partition("|")
        with _parsing("--extend-map", args.extend_map):
            mapping = _mapping(spec)
        M = extend_objects_injective(M, mapping, colors.split(","))
    _emit(args, jsonio.multicategory_json(M))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="multicat",
        description="finite colored operads: build, quotient, enumerate")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="document in the line format")
        p.add_argument("--out", help="write the JSON artifact here")
        p.add_argument("--cap-arity", type=int, default=3)
        p.add_argument("--cap-vertices", type=int, default=4)
        p.add_argument("--budget", type=int, default=10 ** 6)

    p = sub.add_parser("check", help="parse, elaborate, run all law checks")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compose", help="one slot composition in a table")
    common(p)
    p.add_argument("--name", required=True)
    p.add_argument("--op-sig", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--slot", type=int, required=True)
    p.add_argument("--arg-sig", required=True)
    p.add_argument("--arg", required=True)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("free", help="free multicategory / tree hom sets")
    common(p)
    p.add_argument("--name")
    p.add_argument("--planar", action="store_true")
    p.add_argument("--tree-homs", help="valences;inputs e.g. 2,2;3")
    p.set_defaults(fn=cmd_free)

    p = sub.add_parser("saturate", help="saturate a presentation")
    common(p)
    p.add_argument("--name")
    p.add_argument("--coproduct", help="A,B block names")
    p.add_argument("--pushout", help="F,G multifunctor block names")
    p.set_defaults(fn=cmd_saturate)

    p = sub.add_parser("tensor", help="tensor product / arrow family")
    common(p)
    p.add_argument("left")
    p.add_argument("right", nargs="?")
    p.add_argument("--arrow", type=int, help="build the arrow level instead")
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("hom", help="hom multicategory, multifunctor counts")
    common(p)
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--objects-only", action="store_true")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("adjunction", help="tensor-hom adjunction check")
    common(p)
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("r")
    p.set_defaults(fn=cmd_adjunction)

    p = sub.add_parser("algebras", help="enumerate/verify algebras")
    common(p)
    p.add_argument("--name", required=True)
    p.add_argument("--carrier", help="x=a,b;y=c")
    p.add_argument("--free", action="store_true")
    p.add_argument("--roundtrip", help="algebra block to read an operad off")
    p.add_argument("--p1", help="carrier|carrier for the arrow census")
    p.set_defaults(fn=cmd_algebras)

    p = sub.add_parser("end", help="endomorphism structures")
    common(p)
    p.add_argument("--carrier")
    p.add_argument("--pair-target")
    p.add_argument("--map", help="x=a:b,b:a;...")
    p.add_argument("--target-carrier")
    p.add_argument("--module", help="bimodule block name")
    p.add_argument("--analyze", action="store_true")
    p.set_defaults(fn=cmd_end)

    p = sub.add_parser("bar", help="bar truncations, circle products")
    common(p)
    p.add_argument("--x")
    p.add_argument("--p")
    p.add_argument("--y")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--circle", help="A,B block names")
    p.add_argument("--restrict", help="module,functor block names")
    p.set_defaults(fn=cmd_bar)

    p = sub.add_parser("hochschild", help="bar construction of P on itself")
    common(p)
    p.add_argument("--name", required=True)
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(fn=cmd_hochschild)

    p = sub.add_parser("equiv", help="equivalence report for a multifunctor")
    common(p)
    p.add_argument("--name", required=True)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("nerve", help="underlying category and its nerve")
    common(p)
    p.add_argument("--name", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--category-only", action="store_true")
    p.set_defaults(fn=cmd_nerve)

    p = sub.add_parser("export", help="deterministic JSON, object maps")
    common(p)
    p.add_argument("--name", required=True)
    p.add_argument("--restrict-map", help="newcolor:oldcolor,...")
    p.add_argument("--extend-map", help="old:new,...|all,new,colors")
    p.set_defaults(fn=cmd_export)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _Failed:
        return 1
    except MulticatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
