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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

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
        side = {"parent": summarize(p), "change": summarize(c)}
        side["parent"]["wins"] = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        side["change"]["wins"] = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        pm = side["parent"]["median"]
        out[name] = {"better": rule["better"], "bound": rule["bound"],
                     "unit": parent[0]["metrics"][name]["unit"], **side,
                     "ratio": side["change"]["median"] / pm if pm else None,
                     "verdict": verdict(side, sign, rule["bound"])}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="source tree of the parent commit")
    ap.add_argument("--change", default=ROOT, help="source tree of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=_pair_count, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

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
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
