"""Benchmark for multicat: two workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload end-hom --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each in its own process
    python3 perfbench/run.py --selftest                   # tiny sizes

A run sets up, then repeats whole passes over the workload's operations
until the next pass would end after `--seconds`, and reports medians over
its passes.  End-to-end times are given at a fixed reference speed: each
operation's seconds are divided by the time of a fixed reference loop
run next to it, and multiplied by `REF_S`, so that the host running
faster or slower from one minute to the next cancels out.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
untraced and traced passes alternate, and the metrics are the per-layer
ones plus the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

import argparse
import gc
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
# Nominal seconds of one `reference_loop`: about its fastest time on the
# 2-core host the reference figures come from (see README).
REF_S = 0.016
PROBE_REF_SAMPLES = 5
END_TO_END = {"wall_s": "s", "build_s": "s", "check_s": "s", "io_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def require_checkout():
    """Refuse to run anywhere but the root of a multicat checkout, and
    import the package from that checkout only."""
    needed = [ROOT / "src" / "multicat" / "__init__.py",
              ROOT / "tests" / "oracles.py", ROOT / "fixtures" / "as3.mcat"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: not a multicat checkout, missing {missing}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import multicat

    if Path(multicat.__file__).resolve().parent != ROOT / "src" / "multicat":
        sys.exit(f"perfbench: imported multicat from {multicat.__file__}")


def set_up(workload, seed, scale):
    """Everything a run does before its first timed operation: import the
    layers and build the seeded inputs and the list of operations."""
    import multicat.bimodules  # noqa: F401  (loads every layer it uses)
    import multicat.dsl  # noqa: F401
    import multicat.jsonio  # noqa: F401
    import multicat.standard  # noqa: F401
    import workloads

    return workloads.plan(workload, ROOT, workloads.make_inputs(seed), scale)


def reference_loop():
    """Seconds taken by a fixed piece of interpreter-bound work (tuple keys,
    dict lookups and stores), with the garbage collector off so that the
    program's heap does not change it.  Only the speed the host gives
    this process at the moment changes it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    d = {}
    for i in range(80000):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + i
    took = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return took


def measure_setup(workload, seed, scale, probes):
    """Median set-up time of fresh processes that start the interpreter,
    set up, and report that they are ready, at the reference speed.  Each
    process then times the reference loop, and its wall time until ready
    is scaled by REF_S over that loop's mean.  Returns the scaled and the
    measured median."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--scale", scale]
    raw, scaled = [], []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            took = time.perf_counter() - t0
            rest = proc.stdout.read().split()
        if proc.returncode != 0 or line.strip() != "ready" or len(rest) != 1:
            raise RuntimeError(f"setup probe failed: {line!r} {rest!r}")
        raw.append(took)
        scaled.append(took * REF_S / float(rest[0]))
    return statistics.median(scaled), statistics.median(raw)


def load_oracles():
    spec = importlib.util.spec_from_file_location(
        "oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_pass(loads, tasks, expected, tracer=None):
    """One pass: the fixture loads, then every task followed by the check
    of its outputs.  The checks, dropping a task's outputs and collecting
    garbage happen between tasks and outside the timing, so every task
    starts from the same heap whatever the order.

    The reference loop runs once before the first operation and once
    after every operation, outside the timing.

    Returns, at the reference speed, the seconds of each operation, the
    seconds per kind and the wall time of the pass (the sum of its
    operations); then the measured wall time, the failures as (label,
    message, known fault), the check verdicts and the exported bytes."""
    import workloads

    ctx = {"exported": {}}
    checks = workloads.Checks()
    op_log = []  # (label, kind, measured seconds)
    failures = []
    ref = [reference_loop()]

    def run_ops(ops):
        task_failures = []
        for op in ops:
            span = tracer.begin_op(op.label) if tracer else None
            t0 = time.perf_counter()
            try:
                op.run(ctx)
            except Exception as exc:  # noqa: BLE001  (reported, run goes on)
                known = bool(op.fails_with) and op.fails_with in str(exc)
                task_failures.append(
                    (op.label, f"{type(exc).__name__}: {exc}", known))
            finally:
                took = time.perf_counter() - t0
                if tracer:
                    tracer.end_op(span)
            op_log.append((op.label, op.kind, took))
            ref.append(reference_loop())
        failures.extend(task_failures)
        return all(known for _, _, known in task_failures)

    gc.collect()
    run_ops(loads)
    fixtures = set(ctx)
    for task in tasks:
        ok = run_ops(task.ops)
        if ok:
            try:
                task.check(ctx, expected, checks)
            except Exception as exc:  # noqa: BLE001  (a failed check)
                checks.true(f"check after {task.ops[0].label} runs", False,
                            f"{type(exc).__name__}: {exc}")
        for key in set(ctx) - fixtures:
            del ctx[key]
        gc.collect()
    measured = [took for _, _, took in op_log]
    scaled = at_reference_speed(measured, ref)
    op_times = {label: t for (label, _, _), t in zip(op_log, scaled)}
    kinds = {"build": 0.0, "check": 0.0, "io": 0.0}
    for (_, kind, _), t in zip(op_log, scaled):
        kinds[kind] += t
    return (op_times, kinds, sum(scaled), sum(measured), failures,
            checks.verdicts, sum(ctx["exported"].values()))


def at_reference_speed(times, ref):
    """Scale the measured seconds of a pass's operations to the reference
    speed.  ref[i] and ref[i + 1] are the times of the reference loop just
    before and just after operation i.  The loop's time during an
    operation is taken as the mean of two estimates: the two samples next
    to it, which follow quick changes of the host's speed, and the mean of
    all samples of the pass, each weighted by half the time of each
    operation next to it, which is steadier for long operations."""
    weights = [0.0] * len(ref)
    for i, t in enumerate(times):
        weights[i] += t / 2
        weights[i + 1] += t / 2
    total = sum(weights)
    whole = (sum(w * r for w, r in zip(weights, ref)) / total if total
             else statistics.fmean(ref))
    return [t * REF_S / ((whole + (ref[i] + ref[i + 1]) / 2) / 2)
            for i, t in enumerate(times)]


def run_workload(workload, seed, seconds, trace, scale="full",
                 probes=SETUP_PROBES, expected_override=None):
    """Measure one workload.  Returns the result object and the report
    lines printed before it."""
    import workloads

    setup_s, setup_raw = measure_setup(workload, seed, scale, probes)
    loads, tasks = set_up(workload, seed, scale)
    ops = loads + [op for task in tasks for op in task.ops]
    expected = workloads.expected_values(workload, load_oracles(), scale)
    expected.update(expected_override or {})

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    passes = []  # (wall, seconds per kind, seconds per op, measured wall)
    traced = []  # (wall, per-layer metrics)
    verdicts = {}  # check name -> (ok in every pass, first failing detail)
    failure_log = {}  # op label -> (message, known fault)
    attempted = failed = 0
    longest = 0.0
    t_start = time.perf_counter()
    while True:
        with_trace = trace and len(traced) < len(passes)
        if with_trace:
            tracer.reset_counts()
            first = tracer.span_count()
            tracer.install()
        t_before = time.perf_counter()
        try:
            (op_times, kinds, wall, measured, failures, checks,
             exported) = run_pass(loads, tasks, expected,
                                  tracer if with_trace else None)
        finally:
            if with_trace:
                tracer.uninstall()
        if with_trace:
            traced.append((measured, tracer.pass_metrics(first, exported)))
        else:
            passes.append((wall, kinds, op_times, measured))
        attempted += len(ops)
        failed += len(failures)
        for label, message, known in failures:
            failure_log[label] = (message, known)
        for name, ok, detail in checks:
            was_ok, was_detail = verdicts.get(name, (True, ""))
            verdicts[name] = (was_ok and ok,
                              was_detail if not was_ok else detail)
        now = time.perf_counter()
        longest = max(longest, now - t_before)  # checks included
        elapsed = now - t_start
        if passes and (traced or not trace) and elapsed + longest > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    walls = [measured for _, _, _, measured in passes]
    lines = [f"workload {workload}, seed {seed}, scale {scale}: "
             f"{len(passes)} untraced and {len(traced)} traced passes",
             "pass walls (measured s): " + " ".join(f"{w:.3f}" for w in walls)
             + (" | traced: " + " ".join(f"{w:.3f}" for w, _ in traced)
                if traced else "")
             + " | at the reference speed: "
             + " ".join(f"{w:.3f}" for w, _, _, _ in passes)]
    if trace:
        metrics = {}
        for name in traced[0][1]:
            values = [layer[name][0] for _, layer in traced]
            metrics[name] = {"value": statistics.median(values),
                             "unit": traced[0][1][name][1]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(w for w, _ in traced)
            - statistics.median(walls), "unit": "s"}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.tsv.gz"
        tracer.write(path)
        lines.append(f"{tracer.span_count()} spans written to "
                     f"{path.relative_to(ROOT)}")
    else:
        values = {
            "wall_s": statistics.median(w for w, _, _, _ in passes),
            "build_s": statistics.median(k["build"] for _, k, _, _ in passes),
            "check_s": statistics.median(k["check"] for _, k, _, _ in passes),
            "io_s": statistics.median(k["io"] for _, k, _, _ in passes),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
        lines.append(f"measured medians: wall {statistics.median(walls):.3f}"
                     f" s, set-up {setup_raw:.3f} s")
        lines.append("share of wall_s per operation (median seconds "
                     "at the reference speed):")
        for op in ops:
            t = statistics.median(times[op.label] for _, _, times, _ in passes)
            lines.append(f"  {t:9.4f} s {100 * t / values['wall_s']:5.1f}%  "
                         f"[{op.kind}] {op.label}")
    for name, m in metrics.items():
        lines.append(f"metric {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"operations attempted {attempted}, failed {failed}")
    for label, (message, known) in failure_log.items():
        lines.append(f"  failed{' (known fault)' if known else ''}: "
                     f"{label}: {message}")
    for name, (ok, detail) in verdicts.items():
        lines.append(f"check {'PASS' if ok else 'FAIL'}: {name}"
                     + ("" if ok else f" ({detail})"))
    correct = (all(known for _, known in failure_log.values())
               and bool(verdicts) and all(ok for ok, _ in verdicts.values()))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        result = json.loads(out[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def selftest():
    """Every workload once at tiny sizes, untraced and traced, then one
    deliberately wrong expected value that a check must catch.  The
    metrics reported must be the ones BENCHMARK.json declares."""
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS:
        result, lines = run_workload(workload, 1, 0, True, scale="tiny",
                                     probes=1)
        mismatch = ({m["name"] for m in declared["per_layer"]}
                    ^ set(result["metrics"]))
        good = result["correct"] and not mismatch
        if workload == "tensor-bar":
            good &= result["failed"] == 2  # the known fault, once a pass
        print(f"{'PASS' if good else 'FAIL'}: {workload} at tiny sizes, "
              f"traced" + (f" (metrics not as declared: {sorted(mismatch)})"
                           if mismatch else ""))
        if not good:
            print("\n".join(lines))
        ok &= good
    result, lines = run_workload(
        "end-hom", 1, 0, False, scale="tiny", probes=1,
        expected_override={"com_census": -1})
    caught = not result["correct"] and any(
        "FAIL: com_census: count" in line for line in lines)
    caught &= ({m["name"] for m in declared["end_to_end"]}
               == set(result["metrics"]))
    print(f"{'PASS' if caught else 'FAIL'}: a wrong expected census count "
          "makes its check fail")
    return ok and caught


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_checkout()
    from workloads import WORKLOADS

    if args.workload not in (*WORKLOADS, "all", None):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        set_up(args.workload, args.seed, args.scale)
        print("ready", flush=True)
        reference_loop()  # the first call in a fresh process warms up
        samples = [reference_loop() for _ in range(PROBE_REF_SAMPLES)]
        print(statistics.fmean(samples), flush=True)
        return 0
    if args.selftest:
        return 0 if selftest() else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result = run_all(args)
    else:
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
        print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
