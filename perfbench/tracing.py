"""Spans and counts at the layer boundaries of multicat, from outside it.

`Tracer.install` wraps the functions and methods listed in `SPANS` and
`COUNTS` and rebinds each name in every loaded `multicat` module that
holds it (methods are rebound on their class); `uninstall` puts the
originals back.  No file of the package changes.

A span wrapper records (name, parent span, operation, start, end) into
flat arrays, so spans stay in memory until `write` saves them when the
run ends.  A count wrapper only counts calls: it is used for small
functions called so often that a span would cost more than their work,
and for those whose calls alone are reported.  Self time is a span's duration minus the durations of its
direct child spans; time in count-only functions therefore stays in the
caller's self time.  Inclusive time (`s`) sums only the outermost span
of each name, so recursion is not counted twice.
"""

import gzip
import sys
import time
from array import array

# (module, qualified name, stats reported); a qualified name with a dot
# is a method of a class defined in that module.
SPANS = [
    ("algebras", "EndView.compose1", ("calls", "self_s")),
    ("algebras", "EndView.act", ("calls", "self_s")),
    ("algebras", "end_of_map", ("s",)),
    ("algebras", "end_multicategory", ("s",)),
    ("homcalc", "enumerate_multifunctors", ("calls", "s", "self_s")),
    ("homcalc", "internal_hom", ("s",)),
    ("homcalc", "is_k_natural", ("calls", "self_s")),
    ("homcalc", "sat_structure_term", ("calls", "self_s")),
    ("homcalc", "check_multifunctor", ("s",)),
    ("presents", "saturate", ("s", "self_s")),
    ("presents", "Saturation.class_of", ("calls", "self_s")),
    ("trees", "enumerate_terms", ("s",)),
    ("trees", "canonical_term", ("calls", "self_s")),
    ("trees", "graft", ("calls", "self_s")),
    ("trees", "free_multicategory", ("s",)),
    ("trees", "circle_layer", ("s",)),
    ("trees", "canonical_circle", ("calls", "self_s")),
    ("bimodules", "module_from_multicategory", ("s",)),
    ("bimodules", "bar_complex", ("s",)),
    ("bimodules", "end_right_module", ("s",)),
    ("bimodules", "enumerate_module_homs", ("calls", "s")),
    ("bimodules", "tensor_elements", ("calls", "self_s")),
    ("bimodules", "check_bimodule", ("s",)),
    ("core", "check_multicategory_laws", ("s",)),
    ("core", "TruncatedSimplicialSet.check_identities", ("s",)),
    ("perms", "all_perms", ("calls", "self_s")),
    ("perms", "act_on_function", ("calls", "self_s")),
    ("dsl", "parse", ("s",)),
    ("dsl", "elaborate", ("s",)),
    ("jsonio", "multicategory_json", ("s",)),
]

COUNTS = [
    ("algebras", "EndView.apply"),
    ("algebras", "EndView.iter_ops"),
    ("homcalc", "evaluate_term"),
    ("trees", "renumber_term"),
    ("core", "FiniteCollection.act"),
    ("core", "TableMulticategory.compose1"),
]

# figures read off return values: layer -> {figure: function of result}
RESULT_FIGURES = {
    "core.check_multicategory_laws": {
        "instances": lambda rep: sum(rep.checked.values())},
    "core.TruncatedSimplicialSet.check_identities": {
        "instances": lambda rep: sum(rep.checked.values())},
    "presents.saturate": {
        "rounds": lambda sat: sat.report.rounds,
        "terms": lambda sat: sat.report.term_count},
}

def _owner(module, qual):
    mod = sys.modules[f"multicat.{module}"]
    if "." in qual:
        cls_name, attr = qual.split(".")
        return getattr(mod, cls_name), attr
    return mod, qual


class Tracer:
    """Span and count recorder; one per traced run."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.ops = []  # operation labels; a span's op indexes this list
        self.op = -1
        self.calls = {}
        self.figures = {}
        self._stack = []
        self._active = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, label):
        """Open a root span for one benchmark operation; every span until
        `end_op` shares its identifier."""
        self.ops.append(label)
        self.op = len(self.ops) - 1
        return self._open(self._name_id("bench." + label))

    def end_op(self, span):
        self._close(span)
        self.op = -1

    def reset_counts(self):
        """Start the call counts and result figures of a new pass."""
        self.calls.clear()
        self.figures.clear()

    def add(self, name, value):
        self.figures[name] = self.figures.get(name, 0) + value

    def _name_id(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            self._active.append(0)
            return len(self.names) - 1

    def _open(self, nid):
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(i)
        self.span_end.append(0.0)
        self.span_start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.span_end[i] = time.perf_counter()
        self._stack.pop()
        self._active[self.span_name[i]] -= 1

    def _span_wrapper(self, fn, name):
        nid = self._name_id(name)
        figures = RESULT_FIGURES.get(name)
        open_, close = self._open, self._close
        add = self.add

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if figures:
                for fig, read in figures.items():
                    add(f"{name}.{fig}", read(result))
            return result

        return traced

    def _count_wrapper(self, fn, name):
        calls = self.calls
        calls.setdefault(name, 0)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every listed layer function and rebind it wherever a
        multicat module refers to it."""
        targets = [(m, q, self._span_wrapper) for m, q, _ in SPANS]
        targets += [(m, q, self._count_wrapper) for m, q in COUNTS]
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "multicat" or key.startswith("multicat.")]
        for module, qual, make in targets:
            owner, attr = _owner(module, qual)
            original = owner.__dict__[attr]
            wrapped = make(original, f"{module}.{qual}")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if owner is sys.modules[f"multicat.{module}"]:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def span_count(self):
        return len(self.span_name)

    def layer_stats(self, first_span=0):
        """calls, inclusive s and self_s per span name, over the spans
        recorded from `first_span` on."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends, outer = self.span_start, self.span_end, self.span_outer
        child = [0.0] * (n - first_span)
        for i in range(first_span, n):
            p = parents[i]
            if p >= first_span:
                child[p - first_span] += ends[i] - starts[i]
        stats = {}
        for i in range(first_span, n):
            dur = ends[i] - starts[i]
            entry = stats.setdefault(self.names[names[i]], [0, 0.0, 0.0])
            entry[0] += 1
            if outer[i]:
                entry[1] += dur
            entry[2] += dur - child[i - first_span]
        return stats

    def pass_metrics(self, first_span, exported_bytes):
        """Every per-layer metric of the pass whose spans start at
        `first_span`, as name -> (value, unit)."""
        stats = self.layer_stats(first_span)
        out = {}
        for module, qual, wanted in SPANS:
            name = f"{module}.{qual}"
            calls, incl, self_s = stats.get(name, (0, 0.0, 0.0))
            values = {"calls": (calls, "count"), "s": (incl, "s"),
                      "self_s": (self_s, "s")}
            for stat in wanted:
                out[f"{name}.{stat}"] = values[stat]
            for fig in RESULT_FIGURES.get(name, ()):
                out[f"{name}.{fig}"] = (self.figures.get(f"{name}.{fig}", 0),
                                        "count")
        for module, qual in COUNTS:
            name = f"{module}.{qual}"
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
        out["jsonio.bytes"] = (exported_bytes, "B")
        return out

    def write(self, path):
        """Save every span as one tab-separated line: id, parent, operation
        label, layer name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                op = self.span_op[i]
                out.write(f"{i}\t{self.span_parent[i]}\t"
                          f"{self.ops[op] if op >= 0 else ''}\t"
                          f"{self.names[self.span_name[i]]}\t"
                          f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
