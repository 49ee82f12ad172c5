"""pumplab benchmark: one workload, timed, its outputs checked.

    python3 perfbench/run.py --workload two-stage --seed 0 --seconds 30 --trace 0

Run from the root of a pumplab source tree. The package is imported from
src/ and byte-compiled before any clock starts.

--trace 0 times whole passes over the workload's operations and prints
the end-to-end metrics. --trace 1 alternates untraced passes with traced
ones (spans around each pumplab layer, from tracing.py) and prints the
per-layer metrics with the tracing overhead. Either way an untimed first
pass has its memo tables checked as it goes, the outputs are checked
after the timed region (checks.py), and the last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("two-stage", "traps", "decomp-walk")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one pumplab benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def setup(workload: str, seed: int, tracer_cls=None):
    """Import pumplab and build the workload's instances.

    Returns (seconds, configs, generator seconds); the last is measured
    only when the generators are traced."""
    start = time.perf_counter()
    import pumplab  # noqa: F401  (the import is what is timed)
    import workloads

    gen_s = 0.0
    if tracer_cls is None:
        configs = workloads.build(workload, seed)
    else:
        tracer = tracer_cls()
        tracer.install_generators()
        try:
            configs = workloads.build(workload, seed)
        finally:
            tracer.uninstall()
        gen_s = tracer.layers["gen"].total_s
    return time.perf_counter() - start, configs, gen_s


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def repeat(step, seconds):
    """Call step() at least once, and again while the next call is
    expected to end within `seconds` (at the mean time per call so far)."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def check(workload, first, passes):
    """(failed runs over all passes, problems that make the result incorrect).

    `first` is the inspected pass; an operation fails in every pass when
    its own result fails, or when the inspection or HiGHS found a wrong
    projection or certificate in its pass-0 run."""
    import checks
    import workloads

    problems = []
    reference = workloads.fingerprint(first.runs)
    for i, p in enumerate(passes):
        if workloads.fingerprint(p.runs) != reference:
            problems.append(f"timed pass {i} differs from the inspected pass (timing-stripped rows)")
    n_highs, op_problems = checks.highs_problems(first.runs)
    for i, run in enumerate(first.runs):
        whys = [checks.run_problem(run)] + run.inspected.problems + [op_problems.get(i, "")]
        op_problems[i] = "; ".join(why for why in whys if why)
    failed = 0
    for p in [first] + passes:
        failed += sum(1 for i, run in enumerate(p.runs) if op_problems[i] or checks.run_problem(run))
    for i, why in sorted(op_problems.items()):
        if why:
            row = first.runs[i].row
            print(f"failed: {row.instance} {row.algorithm} seed {row.seed}: {why}")
    trap = checks.trap_problems(first.runs, workloads.TRAP_CAP) if workload == "traps" else []
    problems += trap
    found = sum(1 for run in first.runs if run.row.outcome == "found")
    n_proj = sum(run.inspected.projections for run in first.runs)
    n_cert = sum(run.inspected.certificates for run in first.runs)
    print(f"checks: {found} found points re-checked on the original rows; {n_proj} projections "
          f"checked against the rows, {n_highs} of them against HiGHS; {n_cert} certificates recomputed"
          + (f"; trap properties of criteria 1-3: {len(trap)} broken" if workload == "traps" else ""))
    for why in problems:
        print(f"problem: {why}")
    return failed, problems


def end_to_end(first, passes, setup_samples, peak_rss_mb) -> dict:
    import checks
    from pumplab.bench import shifted_geomean

    n = len(first.runs)
    runs_per_s = statistics.median(len(p.runs) / p.wall_s for p in passes)
    per_run = [statistics.median(p.runs[i].row.wall_time_s for p in passes) for i in range(n)]
    ok = [run for run in first.runs if run.row.outcome == "found" and not checks.run_problem(run)]
    return {
        "runs_per_s": (runs_per_s, "1/s"),
        "run_s_sgm": (shifted_geomean(per_run), "s"),
        "iter_sgm": (shifted_geomean(run.row.iterations for run in first.runs), "count"),
        "found_runs": (len(ok), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def per_layer(snapshots, gen_s, pairs, problems) -> dict:
    """Per-layer metrics of the traced passes, with the layer split printed.

    Times are medians over the traced passes; counts must agree between
    them, else a problem is added. The overhead is the median over
    (untraced, traced) pairs of the traced pass's extra time."""
    counts = [{k: v for k, (v, unit) in snap.items() if unit == "count"} for snap in snapshots]
    if any(c != counts[0] for c in counts):
        problems.append("traced passes disagree on a per-layer count")
    metrics = {}
    for name, (value, unit) in snapshots[0].items():
        if unit != "count":
            value = statistics.median(snap[name][0] for snap in snapshots)
        metrics[name] = (value, unit)
    metrics["gen.s"] = (gen_s, "s")
    overhead = statistics.median(t.wall_s / u.wall_s - 1.0 for u, t in pairs)
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    with_spans = statistics.median(t.wall_s for _, t in pairs)
    # self times partition the traced pass; these two are not self times
    inclusive = ("lp.lift_total_s", "gen.s")
    attributed = sum(v for k, (v, unit) in metrics.items() if unit == "s" and k not in inclusive)
    print(f"layer split of a traced pass ({with_spans:.3f} s, median of {len(pairs)}; "
          f"tracing overhead {100.0 * overhead:+.1f}% against the untraced pass beside each):")
    for name, (value, unit) in metrics.items():
        share = f"  {100.0 * value / with_spans:5.1f}%" if unit == "s" and name not in inclusive else ""
        print(f"  {name:28s} {value:14.6f} {unit}{share}")
    print(f"  {'(outside any span)':28s} {with_spans - attributed:14.6f} s")
    return metrics


def write_spans(tracer, workload, seed):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, run, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "run": run, "name": name,
                                 "start": start, "end": end}) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pumplab", "__init__.py")):
        print(f"error: no pumplab package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.setup_probe:
        print(repr(setup(args.workload, args.seed)[0]))
        return 0

    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    setup_samples = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    tracer_cls = None
    if args.trace:
        import tracing  # imports pumplab, so set-up is not timed in this mode
        tracer_cls = tracing.Tracer
    setup_s, configs, gen_s = setup(args.workload, args.seed, tracer_cls)
    setup_samples.append(setup_s)

    import workloads
    import checks

    recorder = workloads.Recorder()
    recorder.install()
    try:
        # pass 0 is not timed: it warms up, and its memo tables are checked
        # as each run returns
        recorder.inspect = checks.Inspector()
        first = workloads.run_pass(configs, recorder)
        recorder.inspect = None
        if not args.trace:
            passes = repeat(lambda: workloads.run_pass(configs, recorder), args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            tracer = tracer_cls()
            snapshots = []

            def pair():
                # an untraced pass next to each traced one, so the overhead
                # is measured under the same host conditions
                untraced = workloads.run_pass(configs, recorder)
                tracer.install()
                try:
                    traced = workloads.run_pass(configs, recorder, tracer.harness)
                finally:
                    tracer.uninstall()
                snapshots.append(tracer.snapshot())
                tracer.reset()
                return untraced, traced

            pairs = repeat(pair, args.seconds)
            passes = [p for both in pairs for p in both]
    finally:
        recorder.uninstall()

    failed, problems = check(args.workload, first, passes)
    print(f"fingerprint {args.workload} seed={args.seed} sha256={workloads.fingerprint(first.runs)}")
    print(f"{len(first.runs)} runs per pass; inspected pass {first.wall_s:.3f} s; timed passes "
          f"{', '.join(f'{p.wall_s:.3f}' for p in passes)} s")

    if not args.trace:
        print(f"set-up samples {', '.join(f'{v:.3f}' for v in setup_samples)} s (the last in this process)")
        metrics = end_to_end(first, passes, setup_samples, peak_rss_mb)
    else:
        metrics = per_layer(snapshots, gen_s, pairs, problems)
        print(f"spans written to {os.path.relpath(write_spans(tracer, args.workload, args.seed), ROOT)}")

    result = {
        "correct": not problems,
        "attempted": len(first.runs) * (1 + len(passes)),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
