"""Compare two pumplab source trees on the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload two-stage --seed 3 --pairs 10 --seconds 30 --out BENCH_1.json

Each pair runs `perfbench/run.py --trace 0` once in each tree, the parent
first in even pairs and the change first in odd ones, so a drift in the
host's speed falls on both sides alike. For every end-to-end metric the
summary records, per side, the median, the quartiles, the raw values and
the number of pairs that side won (by the direction in BENCHMARK.json;
a tie counts for neither), plus the ratio of the medians and a verdict
against the metric's bound in BENCHMARK.json:

- `gain`: the change won at least 9 pairs in 10 and its median is better
  than the parent's by more than the parent's interquartile range;
- `worse`: the change's median is worse than the parent's by more than
  bound times the parent's median;
- `unresolved`: the parent's interquartile range exceeds bound times its
  median, and not every change run beats every parent run, so the pairs
  cannot tell a change of the bound's size from the host's noise;
- `within bound` otherwise.

It also records whether every run was correct, the share of failed runs
and whether each pair's fingerprints were equal. `--workload` may be
given more than once; an existing `--out` file keeps its other
workloads' entries.

    python3 tools/bench_pairs.py --parent ../parent --main-sweep --pairs 5 --out BENCH_9.json

`--main-sweep` also runs the main sweep in alternating pairs: every fifth
instance of `two_stage_suite()` (acceptance criterion 10's grid) with
`orig` and `wfpbase`, run seeds 1-10, one worker and no time limit, in a
fresh interpreter per run whose `src/` is the tree's. It records, under
`main_sweep`, whether every run's timing-stripped CSV has the same
sha256, the error rows, and the median, quartiles, raw values and wins
of the sweep's wall time. It sets no bound and gives no verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def end_to_end() -> dict:
    """Each end-to-end metric of BENCHMARK.json: which way is better
    ("higher" or "lower") and its bound, a share of the parent's median."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: {"better": m["better"], "bound": m["bound"]}
                for m in json.load(fh)["end_to_end"]}


def _pair_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs for quartiles, got {value}")
    return value


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["fingerprint"] = next(line.rsplit("sha256=", 1)[1] for line in lines
                                 if line.startswith("fingerprint "))
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def paired(p: list[float], c: list[float], sign: float) -> dict:
    """Both sides' summaries with the pairs each won; sign is +1 where
    higher is better and -1 where lower is."""
    side = {"parent": summarize(p), "change": summarize(c)}
    side["parent"]["wins"] = sum(sign * (a - b) > 0 for a, b in zip(p, c))
    side["change"]["wins"] = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    return side


def verdict(side: dict, sign: float, bound: float) -> str:
    """The verdict of one metric (see the module docstring) from its two
    summaries; sign is +1 where higher is better and -1 where lower is."""
    p, c = side["parent"], side["change"]
    spread = p["q3"] - p["q1"]
    margin = bound * abs(p["median"])
    gain = sign * (c["median"] - p["median"])
    if 10 * c["wins"] >= 9 * len(p["values"]) and gain > spread:
        return "gain"
    if -gain > margin:
        return "worse"
    every = min(sign * v for v in c["values"]) > max(sign * v for v in p["values"])
    if spread > margin and not every:
        return "unresolved"
    return "within bound"


def compare(parent: list[dict], change: list[dict], metrics: dict) -> dict:
    out = {}
    for name, rule in metrics.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if rule["better"] == "higher" else -1.0
        side = paired(p, c, sign)
        pm = side["parent"]["median"]
        out[name] = {"better": rule["better"], "bound": rule["bound"],
                     "unit": parent[0]["metrics"][name]["unit"], **side,
                     "ratio": side["change"]["median"] / pm if pm else None,
                     "verdict": verdict(side, sign, rule["bound"])}
    return out


def sweep_config():
    """The main sweep's BenchConfig, from the pumplab on sys.path."""
    from pumplab.bench import BenchConfig, two_stage_suite

    return BenchConfig(two_stage_suite()[::5], algorithms=("orig", "wfpbase"), seeds=tuple(range(1, 11)),
                       max_iter=400, time_limit=math.inf, workers=1)


def sweep_once() -> dict:
    """Run the main sweep once: its wall time, the sha256 of its
    timing-stripped CSV, and its row and error counts."""
    from pumplab.bench import run_benchmark, write_csv

    cfg = sweep_config()
    start = time.perf_counter()
    rows = run_benchmark(cfg).rows
    wall = time.perf_counter() - start
    text = write_csv(rows, include_timing=False)
    return {"wall_s": wall, "sha256": hashlib.sha256(text.encode()).hexdigest(), "rows": len(rows),
            "errors": sum(r.outcome == "error" for r in rows)}


def run_sweep(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--sweep-once"], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def sweep_summary(parent: list[dict], change: list[dict]) -> dict:
    """The main sweep's pairs: hash equality, error rows and wall time."""
    side = paired([r["wall_s"] for r in parent], [r["wall_s"] for r in change], -1.0)
    hashes = sorted({r["sha256"] for r in parent + change})
    return {"pairs": len(parent), "rows": parent[0]["rows"], "sha256_equal": len(hashes) == 1, "sha256": hashes,
            "errors": {name: sorted({r["errors"] for r in rs}) for name, rs in (("parent", parent), ("change", change))},
            "wall_s": {**side, "ratio": side["change"]["median"] / side["parent"]["median"]}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="source tree of the parent commit")
    ap.add_argument("--change", default=ROOT, help="source tree of the change")
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--main-sweep", action="store_true", help="also run the main sweep in pairs")
    ap.add_argument("--sweep-once", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=_pair_count, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.sweep_once:
        print(json.dumps(sweep_once()))
        return 0
    if not args.parent or not args.out:
        ap.error("--parent and --out are required")
    if not args.workload and not args.main_sweep:
        ap.error("give --workload, --main-sweep or both")

    metrics = end_to_end()
    report = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
    report["host"] = f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}"
    report["command"] = (f"perfbench/run.py --seconds {args.seconds:g} --trace 0, "
                         "alternating parent/change pairs")
    workloads = report.setdefault("workloads", {})
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[side].append(run_once(tree, workload, args.seed, args.seconds))
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} runs_per_s {runs[side][-1]['metrics']['runs_per_s']['value']:.3f}"
                for side in ("parent", "change")), file=sys.stderr)
        workloads[workload] = {
            "seed": args.seed,
            "pairs": args.pairs,
            "correct": all(r["correct"] for side in runs.values() for r in side),
            "failed_share": {side: sorted({round(r["failed"] / r["attempted"], 4) for r in rs})
                             for side, rs in runs.items()},
            "fingerprints_equal": all(p["fingerprint"] == c["fingerprint"]
                                      for p, c in zip(runs["parent"], runs["change"])),
            "fingerprint": runs["change"][0]["fingerprint"],
            "metrics": compare(runs["parent"], runs["change"], metrics),
        }
        print(f"{workload}: " + ", ".join(f"{name} {m['verdict']}" for name, m in
                                          workloads[workload]["metrics"].items()), file=sys.stderr)
        _write(args.out, report)
    if args.main_sweep:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_sweep(args.parent if side == "parent" else args.change))
            print(f"main sweep pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {runs[side][-1]['wall_s']:.1f} s" for side in ("parent", "change")), file=sys.stderr)
        report["main_sweep"] = sweep_summary(runs["parent"], runs["change"])
        _write(args.out, report)
    return 0


def _write(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
