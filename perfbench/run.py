"""kernelineq benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The last line of standard output is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1);
the lines before it print every metric by name with its unit, and list
every failing task.  perfbench/README.md defines the metrics.

    python3 perfbench/run.py --workload wide --record   # rewrite references
"""

from __future__ import annotations

import os
import sys

# Cap BLAS/OpenMP threads at the cores this process may use, before
# anything imports numpy.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")
if not os.path.isdir(os.path.join(SRC, "kernelineq")):
    sys.exit(f"error: no package source in {SRC}; run from a source checkout")
sys.path[:0] = [SRC, HERE]

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from typing import Dict, List  # noqa: E402

import instances  # noqa: E402
import pipelines  # noqa: E402
from tracing import (CALIBRATION_REF_S, MODULES, Recorder,  # noqa: E402
                     calibration, clock)

SETUP_SAMPLES = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (
    ("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"), ("evals_per_s", "1/s"), ("search_gap", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: (name, span, unit).  A metric with a span is the
# median time per call of that span.
PER_LAYER = (
    [("cli.parse_instance_ms", "cli.parse_instance", "ms"),
     ("kernels.Kernel_ms", "kernels.Kernel", "ms"),
     ("cli.run_command_ms", "cli.run_command", "ms")]
    + [(f"kernels.{f}_ms", f"kernels.{f}", "ms") for f in
       ("monotonicity_check", "regularity_constant", "chain_alpha_check", "reversed")]
    + [("constants.characterize_ms", "constants.characterize", "ms")]
    + [(f"constants.A{k}_ms", f"constants.A{k}", "ms") for k in range(1, 14)]
    + [(f"constants.D{k}_ms", f"constants.D{k}", "ms") for k in range(1, 7)]
    + [(f"discretize.{f}_ms", f"discretize.{f}", "ms") for f in
       ("covering_sequence", "verify_covering", "weighted_sum_bounds", "l24_decompose")]
    + [(f"oracle.functional_lhs.{f}_us", f"oracle.functional_lhs.{f}", "us")
       for f in pipelines.CANONICAL_FORMS]
    + [("oracle.rhs_norm_us", "oracle.rhs_norm", "us")]
    + [(f"oracle.best_constant.{s}_evals_per_s", None, "1/s")
       for s in ("vertex", "support_grid", "multistart_ascent")]
    + [("oracle.best_constant.evaluations", None, "count")]
    + [(f"oracle.equivalence_suite.{s}_ms", f"oracle.equivalence_suite.{s}", "ms")
       for s in pipelines.SUITES]
    + [(f"bridge.bridge_check.{f}_ms", f"bridge.bridge_check.{f}", "ms")
       for f in ("GOP_DUAL", "SUP_ITER", "discrete_side")]
    + [(f"bridge.continuous_constant.{n}_ms", f"bridge.continuous_constant.{n}", "ms")
       for n in pipelines.CONTINUOUS]
    + [(f"bridge.lemma_decompose.{x}_ms", f"bridge.lemma_decompose.{x}", "ms")
       for x in pipelines.LEMMAS]
    + [("bridge.dyadic_covering_ms", "bridge.dyadic_covering", "ms"),
       ("bridge.tail_invert_us", "bridge.tail_invert", "us")]
    + [(f"{m}.{stat}", None, unit) for m in MODULES
       for stat, unit in (("calls", "count"), ("errors", "count"), ("busy_s", "s"))]
    + [("trace.overhead_ratio", None, "ratio")]
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(instances.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up in this fresh interpreter and exit")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the workload's reference outputs")
    return ap.parse_args(argv)


def pass_variants(args) -> List[int]:
    """Variant of each pass of the timed phase: as many passes as
    --seconds holds at the workload's nominal pass time.  The traced run
    makes each of half as many variants twice, traced and untraced."""
    n = max(1, round(args.seconds / instances.PASS_SECONDS[args.workload]))
    order = instances.pass_order(args.seed)
    if args.trace:
        return [v for v in order[:(n + 1) // 2] for _ in (0, 1)]
    return order[:n]


def versions() -> Dict[str, str]:
    return {"python": sys.version.split()[0], "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def setup(args, variants: List[int]):
    """Generate, write and parse the instances of the given passes and
    make one warm-up call per entry point.  Returns the passes, the
    set-up's Recorder and the factor that scales its times."""
    cal = calibration()
    rec = Recorder(traced=False)
    out_dir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    passes = pipelines.prepare(args.workload, instances.WORKLOADS[args.workload],
                               variants, rec, out_dir)
    return passes, rec, 2 * CALIBRATION_REF_S / (cal + calibration())


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup(args) -> List[float]:
    """Scaled CPU time of fresh interpreters that only set up, SETUP_SAMPLES
    times."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    times, cal = [], calibration()
    for _ in range(SETUP_SAMPLES):
        start = _children_cpu()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                       timeout=120)
        cpu = _children_cpu() - start
        cal_after = calibration()
        times.append(cpu * 2 * CALIBRATION_REF_S / (cal + cal_after))
        cal = cal_after
    return times


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE, f"{workload}.json")


def instance_key(t) -> str:
    return f"{t.slot_index}:{t.variant}"


def run_task(task_fn, rec, t):
    """One task: returns (CPU seconds, TaskResult).  Its queued checks
    are left to TaskResult.run_checks."""
    start = clock()
    try:
        res = task_fn(rec, t)
        err = None
    except Exception as e:  # a raising layer fails the task, the run goes on
        res, err = pipelines.TaskResult(), f"raised {type(e).__name__}: {e}"
    latency = clock() - start
    if err is not None:
        res.failures.append(err)
    return latency, res


def record(args) -> None:
    """Run every (slot, variant) once and store outputs and failed checks."""
    passes, _, _ = setup(args, list(range(instances.VARIANTS)))
    rec = Recorder(traced=False)
    entries = {}
    for row in passes:
        for t in row:
            _, res = run_task(pipelines.TASKS[args.workload], rec, t)
            res.run_checks()
            entries[instance_key(t)] = {
                "slot": t.slot.label,
                "outputs": pipelines.jsonable(res.outputs),
                "known_failures": sorted(set(res.failures)),
            }
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         capture_output=True).stdout.strip()
    environment = {"git_sha": sha, **versions(), "nproc": NPROC,
                   "blas_threads": NPROC}
    os.makedirs(REFERENCE, exist_ok=True)
    with open(reference_path(args.workload), "w") as fh:
        json.dump({"workload": args.workload, "environment": environment,
                   "variants": instances.VARIANTS, "entries": entries},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def tail(latencies: List[float]):
    """Highest ladder percentile with at least 10 samples beyond it:
    (value, percentile, samples beyond)."""
    n = len(latencies)
    for pct in TAIL_LADDER:
        beyond = math.floor(n * (1 - pct / 100.0) + 1e-9)
        if beyond >= 10:
            break
    else:
        pct, beyond = 50.0, n // 2
    if n < 2:
        return latencies[0], pct, beyond
    cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
    return cuts[int(round(pct * 10)) - 1], pct, beyond


def timed_phase(args, passes, reference):
    """Closed loop over the passes set up.  With --trace 1 the passes
    come in pairs of one variant, one traced and one not, for the
    overhead figure; the traced one goes first in every other pair.
    Each task records the factor that scales its CPU times: the reference
    over the median of the four calibration loops nearest to it.
    The tasks' checks run after the loop, once its peak memory is read.
    Returns the tasks, the Recorders, the wall time and the peak RSS."""
    task_fn = pipelines.TASKS[args.workload]
    recs = {False: Recorder(traced=False), True: Recorder(traced=True)}
    tasks, cals = [], []
    wall = time.perf_counter()
    for k, row in enumerate(passes):
        traced = bool(args.trace) and k % 2 == (k // 2) % 2
        rec = recs[traced]
        for t in row:
            cals.append(calibration())
            rec.task_id = len(tasks)
            if traced:
                latency, res = rec.call("task", run_task, task_fn, rec, t)
            else:
                latency, res = run_task(task_fn, rec, t)
            tasks.append({"id": len(tasks), "pass": k, "traced": traced, "t": t,
                          "latency": latency, "res": res})
    cals.append(calibration())
    wall = time.perf_counter() - wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i, x in enumerate(tasks):
        x["scale"] = CALIBRATION_REF_S / statistics.median(cals[max(i - 1, 0):i + 3])
        res = x["res"]
        res.run_checks()
        ref = reference["entries"].get(instance_key(x["t"])) if reference else None
        x["mismatches"] = (pipelines.reference_mismatches(res.outputs, ref)
                           if ref else ["no reference recorded"])
        known = set(ref["known_failures"]) if ref else set()
        x["new_failures"] = sorted(set(res.failures) - known)
    return tasks, recs, wall, peak_rss_mb


def end_to_end(tasks, setup_times, peak_rss_mb):
    passed = [x for x in tasks if not x["res"].failures and not x["mismatches"]]
    lat = [x["latency"] * x["scale"] for x in tasks]
    searches = [(s, x["scale"]) for x in tasks for s in x["res"].searches]
    gaps = [s.gap for s, _ in searches if s.gap is not None]
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "tasks_per_s": len(passed) / sum(lat),
        "task_p50_ms": statistics.median(lat) * 1e3,
        "task_tail_ms": tail_s * 1e3,
        "evals_per_s": (sum(s.evaluations for s, _ in searches)
                        / sum(s.seconds * f for s, f in searches)),
        "search_gap": max(gaps),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{x:.3f}" for x in setup_times),
        "task_tail_ms": f"p{pct:g}, {beyond} of {len(lat)} tasks beyond it",
        "evals_per_s": f"{len(searches)} direct best_constant calls",
        "search_gap": f"max over {len(gaps)} p = q = 2 GOP_DUAL searches",
    }
    return metrics, notes


def per_layer(tasks, recs, setup_rec, setup_scale) -> Dict[str, float]:
    rec = recs[True]
    traced = [x for x in tasks if x["traced"]]
    plain = [x for x in tasks if not x["traced"]]
    n_passes = len({x["pass"] for x in traced})
    scale = {x["id"]: x["scale"] for x in tasks}
    scale[None] = setup_scale
    durations = dict(rec.durations)
    for name in ("cli.parse_instance", "kernels.Kernel"):
        durations[name] = setup_rec.durations[name]
    searches = [(s, x["scale"]) for x in traced for s in x["res"].searches]
    stats = rec.module_stats(scale.get)
    out = {}
    for name, span, unit in PER_LAYER:
        if span is not None:
            ds = durations.get(span, [])
            unit_scale = 1e6 if unit == "us" else 1e3
            out[name] = (statistics.median(d * scale[t] for t, d in ds) * unit_scale
                         if ds else 0.0)
        elif name.endswith("_evals_per_s"):
            strategy = name.split(".")[2][:-len("_evals_per_s")]
            sel = [(s, f) for s, f in searches if s.strategy == strategy]
            secs = sum(s.seconds * f for s, f in sel)
            out[name] = sum(s.evaluations for s, _ in sel) / secs if secs else 0.0
        elif name == "oracle.best_constant.evaluations":
            out[name] = sum(s.evaluations for x in traced if x["pass"] == 0
                            for s in x["res"].searches)
        elif name == "trace.overhead_ratio":
            untraced = {instance_key(x["t"]): x["latency"] * x["scale"] for x in plain}
            pairs = [(x["latency"] * x["scale"], untraced[instance_key(x["t"])])
                     for x in traced if instance_key(x["t"]) in untraced]
            out[name] = (sum(a for a, _ in pairs) / sum(b for _, b in pairs)
                         if pairs else 1.0)
        else:
            module, stat = name.split(".")
            out[name] = stats[module][stat] / n_passes
    return out


def report(args, tasks, wall, metrics, notes, units) -> None:
    scales = [x["scale"] for x in tasks]
    print(f"workload {args.workload}, seed {args.seed}: {len(tasks)} tasks in "
          f"{len({x['pass'] for x in tasks})} passes, one closed-loop client; "
          f"{sum(x['latency'] for x in tasks):.2f} s task CPU time in "
          f"{wall:.2f} s wall time.  Times below are CPU times scaled to the "
          f"calibration loop by {min(scales):.3f}..{max(scales):.3f} "
          f"(median {statistics.median(scales):.3f})")
    print("python {python}, numpy {numpy}, scipy {scipy}, ".format(**versions())
          + f"{NPROC} cores, BLAS/OpenMP threads capped at {NPROC}")
    by_slot: Dict[str, List[float]] = {}
    for x in tasks:
        by_slot.setdefault(x["t"].slot.label, []).append(x["latency"] * x["scale"])
    print("median task time by slot: " + ", ".join(
        f"{label} {statistics.median(v) * 1e3:.0f} ms" for label, v in by_slot.items()))
    failed = [x for x in tasks if x["res"].failures or x["mismatches"]]
    for x in failed:
        t = x["t"]
        known = "" if x["mismatches"] or x["new_failures"] else " [known failure]"
        print(f"FAILED task {x['id']} instance {args.workload}:{t.slot_index}:"
              f"{t.variant} ({t.slot.label}){known}: "
              + "; ".join(x["res"].failures + x["mismatches"][:5]))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {value:.6g} {units[name]}{note}")
    if not args.trace:
        print(f"{'failed_ratio':<40} {len(failed) / len(tasks):.6g} ratio  "
              f"({len(failed)} of {len(tasks)} tasks)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup(args, pass_variants(args))
        return 0
    if args.record:
        record(args)
        return 0

    setup_times = [] if args.trace else measure_setup(args)
    passes, setup_rec, setup_scale = setup(args, pass_variants(args))
    reference = None
    if os.path.exists(reference_path(args.workload)):
        with open(reference_path(args.workload)) as fh:
            reference = json.load(fh)
    tasks, recs, wall, peak_rss_mb = timed_phase(args, passes, reference)

    if args.trace:
        metrics = per_layer(tasks, recs, setup_rec, setup_scale)
        units = {name: unit for name, _span, unit in PER_LAYER}
        span_file = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        recs[True].write_spans(span_file)
        notes = {"trace.overhead_ratio": "traced / untraced time of the same tasks, "
                 f"{len(recs[True].spans)} spans in "
                 f"{os.path.relpath(span_file, ROOT)}"}
        notes.update({f"{m}.busy_s": "self time per traced pass" for m in MODULES})
    else:
        metrics, notes = end_to_end(tasks, setup_times, peak_rss_mb)
        units = dict(END_TO_END)
    report(args, tasks, wall, metrics, notes, units)

    failed = [x for x in tasks if x["res"].failures or x["mismatches"]]
    print(json.dumps({
        "correct": not any(x["mismatches"] or x["new_failures"] for x in tasks),
        "attempted": len(tasks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
