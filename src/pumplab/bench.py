"""Benchmark harness: run pump variants over instance sets and tabulate.

Each (instance, algorithm, seed) triple is one pump.run call. Run RNGs
are derived from the seed plus the instance and algorithm positions in
the config, so results do not depend on execution order and the worker
pool (if any) produces the same rows as a serial sweep; its workers get
the config once, as the pool forks, and each task is those three
numbers. Rows are sorted by (instance, algorithm, seed) before reporting.

Wall time is recorded per run. Runs are never interrupted mid-flight; a
run whose wall time exceeds the time limit gets outcome "timeout" after
the fact. Everything except the wall_time_s column is deterministic for
a fixed config (assuming no run straddles the time limit).

Tasks run instance by instance, so the runs on one instance share its
compiled view and the prefix chain of its projection LP (see
`pumplab.lp`): all but the first resolve nothing before their first
random draw. A chain hit gives the answer the resolve would give, so
neither the order of the tasks nor their split among workers changes a
row.

CSV columns, in order: instance, algorithm, seed, outcome, iterations,
perturbations, restarts, wall_time_s. Header row, UTF-8, LF endings.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .certificate import cert_supp_bound
from .errors import PumpLabError
from .gen import gen_subset_sum, gen_two_stage
from .model import MixedBinaryInstance
from .perturb import DEFAULT_TT_RANGE, make_rng
from . import pump

CSV_COLUMNS = (
    "instance",
    "algorithm",
    "seed",
    "outcome",
    "iterations",
    "perturbations",
    "restarts",
    "wall_time_s",
)

# shift of the table's shifted geometric means, times and iterations alike
SGM_SHIFT = 1.0


def shifted_geomean(values, shift: float = 1.0) -> float:
    """Shifted geometric mean exp(mean(log(v + s))) - s.

    Standard aggregate for run times and iteration counts; the shift
    keeps zeros from collapsing the mean. Values must be nonnegative and
    the shift positive. Empty input gives 0.
    """
    if shift <= 0:
        raise ValueError("shift must be positive")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 0.0
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite and nonnegative")
    return float(np.exp(np.mean(np.log(arr + shift))) - shift)


def _default_workers() -> int:
    raw = os.environ.get("PUMPLAB_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"PUMPLAB_WORKERS must be a positive integer, got {raw!r}")
    return workers


@dataclass
class BenchConfig:
    instances: Sequence[MixedBinaryInstance]
    algorithms: Sequence[str] = ("orig", "wfpbase")
    seeds: Sequence[int] = tuple(range(1, 11))
    max_iter: int = 400
    tt_range: tuple = DEFAULT_TT_RANGE
    flips: int = 2
    time_limit: float = 60.0
    workers: int = field(default_factory=_default_workers)

    def __post_init__(self):
        if not self.algorithms or not self.seeds:
            raise ValueError("need at least one algorithm and one seed")
        for alg in self.algorithms:
            if alg not in pump.ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")
        lo, hi = self.tt_range
        if not 0 <= lo <= hi:
            raise ValueError(f"bad TT range {self.tt_range!r}: need 0 <= lo <= hi")
        if self.flips < 1:
            raise ValueError(f"flips must be at least 1, got {self.flips}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be at least 0, got {self.max_iter}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        names = [inst.name for inst in self.instances]
        if len(set(names)) != len(names):
            raise ValueError("instance names must be unique within a benchmark")


@dataclass(frozen=True)
class BenchRow:
    instance: str
    algorithm: str
    seed: int
    outcome: str
    iterations: int
    perturbations: int
    restarts: int
    wall_time_s: float


def _run_one(cfg: BenchConfig, task) -> BenchRow:
    inst_idx, alg_idx, seed = task
    instance = cfg.instances[inst_idx]
    alg = cfg.algorithms[alg_idx]
    rng = make_rng(seed, inst_idx, alg_idx)
    start = time.perf_counter()
    try:
        trace = pump.run(alg, instance, rng, max_iter=cfg.max_iter, flips=cfg.flips,
                         tt_range=cfg.tt_range, record=False)
        outcome = trace.outcome
        iters, perts, restarts = trace.iterations, trace.perturbations, trace.restarts
    except PumpLabError:
        outcome, iters, perts, restarts = "error", 0, 0, 0
    wall = time.perf_counter() - start
    if wall > cfg.time_limit:
        outcome = "timeout"
    return BenchRow(
        instance=instance.name,
        algorithm=alg,
        seed=seed,
        outcome=outcome,
        iterations=iters,
        perturbations=perts,
        restarts=restarts,
        wall_time_s=wall,
    )


# the table's statistics, in column order: header label, by_seed key, seed-line format
_STATS = (("# found", "found", "{:d}"), ("time sgm", "time_sgm", "{:.3f}"), ("itr sgm", "iter_sgm", "{:.2f}"))


@dataclass(frozen=True)
class BenchTable:
    """Aggregates in the found-count / time-sgm / iteration-sgm layout.

    by_seed maps (algorithm, seed) to a dict with keys runs, found,
    time_sgm, iter_sgm. Iteration sgm runs over all runs of the group,
    capped runs included, which is what makes the numbers comparable
    between a variant that solves much and one that mostly hits the cap.
    means are cross-seed averages per algorithm; ratios divide each
    algorithm's means by the first algorithm's.
    """

    algorithms: tuple
    seeds: tuple
    by_seed: dict
    means: dict
    ratios: dict

    def render(self) -> str:
        algs = self.algorithms
        if not algs or not self.seeds or not self.by_seed:
            return "(no runs)\n"
        width = max(9, max(len(a) for a in algs) + 2)

        def line(head: str, cell) -> str:
            """head, then per statistic cell(alg, key, fmt) for each algorithm, right-aligned."""
            text = head.ljust(6)
            for _, key, fmt in _STATS:
                text += " " + "".join(cell(alg, key, fmt).rjust(width) for alg in algs)
            return text.rstrip()

        labels = "".join(" " + label.center(width * len(algs)) for label, _, _ in _STATS)
        out = [
            f"sgm shifts: time {SGM_SHIFT:g}, iterations {SGM_SHIFT:g}",
            ("seed".ljust(6) + labels).rstrip(),
            line("", lambda alg, key, fmt: alg),
        ]
        for seed in self.seeds:
            out.append(line(str(seed), lambda alg, key, fmt: fmt.format(self.by_seed[alg, seed][key])))
        out.append(line("mean", lambda alg, key, fmt: f"{self.means[alg, key]:.2f}"))
        if len(algs) > 1:
            ratio = line("ratio", lambda alg, key, fmt: f"{self.ratios[alg, key]:.2f}")
            out.append(ratio + f"   (vs {algs[0]})")
        return "\n".join(out) + "\n"


def make_table(rows: Sequence[BenchRow]) -> BenchTable:
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.algorithm, r.seed), []).append(r)
    algs = tuple(sorted({alg for alg, _ in groups}))
    seeds = tuple(sorted({seed for _, seed in groups}))
    by_seed = {}
    for alg in algs:
        for seed in seeds:
            group = groups.get((alg, seed), [])
            by_seed[alg, seed] = {
                "runs": len(group),
                "found": sum(r.outcome == "found" for r in group),
                "time_sgm": shifted_geomean([r.wall_time_s for r in group], SGM_SHIFT),
                "iter_sgm": shifted_geomean([r.iterations for r in group], SGM_SHIFT),
            }
    means = {(alg, key): float(np.mean([by_seed[alg, s][key] for s in seeds]))
             for alg in algs for _, key, _ in _STATS}
    ratios = {(alg, key): mean / means[algs[0], key] if means[algs[0], key] else math.nan
              for (alg, key), mean in means.items()}
    return BenchTable(algorithms=algs, seeds=seeds, by_seed=by_seed, means=means, ratios=ratios)


@dataclass(frozen=True)
class BenchResult:
    rows: list

    @property
    def table(self) -> BenchTable:
        """The sweep table, built from the rows each time it is read."""
        return make_table(self.rows)

    @property
    def text(self) -> str:
        return self.table.render()


# the config of the pool a worker process belongs to, set as the worker starts
_worker_cfg: BenchConfig


def _start_worker(cfg: BenchConfig) -> None:
    global _worker_cfg
    _worker_cfg = cfg


def _run_in_worker(task) -> BenchRow:
    return _run_one(_worker_cfg, task)


def run_benchmark(cfg: BenchConfig) -> BenchResult:
    tasks = [
        (i, a, seed)
        for i in range(len(cfg.instances))
        for a in range(len(cfg.algorithms))
        for seed in cfg.seeds
    ]
    if cfg.workers > 1 and len(tasks) > 1:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(cfg.workers, initializer=_start_worker, initargs=(cfg,)) as pool:
            rows = pool.map(_run_in_worker, tasks, chunksize=1)
    else:
        rows = [_run_one(cfg, t) for t in tasks]
    rows.sort(key=lambda r: (r.instance, r.algorithm, r.seed))
    return BenchResult(rows=rows)


def write_csv(rows: Sequence[BenchRow], path=None, include_timing: bool = True) -> str:
    cols = CSV_COLUMNS if include_timing else CSV_COLUMNS[:-1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        rec = [getattr(row, c) for c in cols]
        if include_timing:
            rec[-1] = f"{row.wall_time_s:.6f}"
        writer.writerow(rec)
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Monte Carlo checks of the high-probability iteration bounds


@dataclass(frozen=True)
class BoundSuiteResult:
    theorem: str
    runs: int
    failures: int
    delta: float
    threshold: float
    caps: tuple
    details: tuple

    @property
    def rate(self) -> float:
        return self.failures / self.runs if self.runs else 0.0

    @property
    def passed(self) -> bool:
        return self.rate <= self.threshold

    def render(self) -> str:
        lines = [
            f"theorem {self.theorem}: {self.runs} runs, delta {self.delta:g}",
            f"iteration caps used: {', '.join(str(c) for c in self.caps)}",
            f"failures beyond cap: {self.failures} (rate {self.rate:.4f})",
            f"allowed rate delta + 3 sigma: {self.threshold:.4f}",
            "PASS" if self.passed else "FAIL",
        ]
        return "\n".join(lines) + "\n"


# theorem -> (variant, flips, default (ks, ns) grid, bound(instance, k, n, delta)):
# theorem 1 walks by single certificate flips, 2 and 5 pump with pair flips
BOUND_SUITES = {
    "1": ("mbwalksat", 1, ((2, 3), (3, 4, 5, 6)), lambda inst, k, n, delta: pump.theorem_bound(
        "T1", block_sizes=[n] * k, cert_bounds=cert_supp_bound(inst), delta=delta)),
    "2": ("wfp", 2, ((1, 2, 3), (3, 4, 5)),
          lambda inst, k, n, delta: pump.theorem_bound("T2", block_sizes=[n] * k, delta=delta)),
    "5": ("wfp", 2, ((1, 2, 3), (3, 4, 5)),
          lambda inst, k, n, delta: pump.theorem_bound("T5", n=inst.n, delta=delta)),
}


def run_bound_suite(
    theorem: str,
    runs: int = 200,
    delta: float = 0.1,
    ks=None,
    ns=None,
    base_seed: int = 0,
    coeff_max: int = 10,
    cap_limit: int = 1_000_000,
) -> BoundSuiteResult:
    """Empirical check that the stated success probability holds.

    Spreads `runs` round-robin over the (k, n) grid; ks or ns left None
    take the theorem's own from BOUND_SUITES. Each run generates a fresh
    k-block subset-sum instance and drives the theorem's variant up to
    min(bound, cap_limit) iterations. A failure is a run that does not
    finish within its cap; with caps at the theoretical bound the failure
    rate should stay near or below delta. runs and cap_limit below 1, or
    a delta outside (0, 1), raise ValueError before any run.
    """
    name = theorem.upper().lstrip("T")
    if name not in BOUND_SUITES:
        raise ValueError("theorem must be one of 1, 2, 5")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if cap_limit < 1:
        raise ValueError(f"cap_limit must be at least 1, got {cap_limit}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly between 0 and 1, got {delta!r}")
    variant, flips, (default_ks, default_ns), bound = BOUND_SUITES[name]
    configs = list(itertools.product(default_ks if ks is None else ks, default_ns if ns is None else ns))
    if not configs:
        raise ValueError("empty (k, n) grid")
    details = []
    for r in range(runs):
        k, n = configs[r % len(configs)]
        inst = gen_subset_sum(k, n, make_rng(base_seed, 0, r), coeff_max=coeff_max).instance
        cap = min(bound(inst, k, n, delta).iterations, cap_limit)
        trace = pump.run(variant, inst, make_rng(base_seed, 1, r), max_iter=cap, flips=flips, record=False)
        details.append((k, n, cap, trace.outcome, trace.iterations))
    failures = sum(outcome != "found" for _, _, _, outcome, _ in details)
    sigma = math.sqrt(delta * (1.0 - delta) / runs)
    return BoundSuiteResult(
        theorem=f"T{name}",
        runs=runs,
        failures=failures,
        delta=delta,
        threshold=delta + 3.0 * sigma,
        caps=tuple(sorted({cap for _, _, cap, _, _ in details})),
        details=tuple(details),
    )


# ---------------------------------------------------------------------------
# Instance suites


def _grid(base_seed: int, cells, per_config: int, build):
    """per_config instances per cell, cell by cell: the idx-th overall is
    build(*cell, make_rng(base_seed, idx)), renamed with its repetition.

    The suites' builders name the generators, so `bench.gen_two_stage` and
    `bench.gen_subset_sum` are looked up at each call and a wrapper put on
    them sees every instance."""
    instances = []
    for cell in cells:
        for rep in range(per_config):
            res = build(*cell, make_rng(base_seed, len(instances)))
            instances.append(replace(res.instance, name=f"{res.instance.name}-r{rep}"))
    return instances


def two_stage_suite(base_seed: int = 12345, ks=(5, 15, 25, 35, 45), ps=(10, 20), q: int = 10,
                    per_config: int = 5, rows_per_scenario: int = 5):
    """Two-stage grid: len(ks) * len(ps) * per_config instances.

    Defaults give the 50-instance sweep: scenario counts 5 through 45 in
    steps of 10, first-stage sizes 10 and 20, 10 second-stage columns
    per scenario, five repetitions per cell.
    """
    return _grid(base_seed, itertools.product(ks, ps), per_config,
                 lambda k, p, rng: gen_two_stage(k, p, q, rng, rows_per_scenario=rows_per_scenario))


def subset_sum_suite(base_seed: int = 12345, ks=(1, 2, 3), ns=(3, 4, 5), per_config: int = 1,
                     coeff_max: int = 20):
    """Subset-sum grid: len(ks) * len(ns) * per_config instances of k
    blocks of n binaries, coefficients up to coeff_max."""
    return _grid(base_seed, itertools.product(ks, ns), per_config,
                 lambda k, n, rng: gen_subset_sum(k, n, rng, coeff_max=coeff_max))
