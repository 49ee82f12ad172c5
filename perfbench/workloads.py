"""The three benchmark workloads and the pass that runs one of them.

One operation is one (instance, algorithm, seed) pump run. A pass runs
every operation of a workload once, through `pumplab.bench.run_benchmark`
with one worker, which is the serial path of `pumplab bench`. Passes of
one workload and seed are identical, so every count a pass yields repeats
exactly.

Inputs come from the benchmark seed alone:

- two-stage: fixed instances and run seed (a slice of criterion 10);
  the seed is not used, for the reason given in _two_stage.
- traps and decomp-walk: fixed instances; the seed picks the run seeds.

This module imports pumplab, so import it only after the set-up clock
has started.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from pumplab import bench, certificate, gen, projection, pump
from pumplab.perturb import DEFAULT_TT_RANGE
from pumplab.errors import PumpLabError

# Runs are never relabelled "timeout" after the fact, so the fingerprint
# does not depend on the host's speed.
NO_TIME_LIMIT = float("inf")

PUMP_RUNS = (
    "run_naive_fp",
    "run_original_fp",
    "run_mb_walksat",
    "run_wfp",
    "run_wfp_compressed",
    "run_wfpbase_fp",
)

TRAP_DEPTHS = (2, 3, 4, 5, 6)
DECOMP_INSTANCE_SEED = 12345
TRAP_CAP = 10_000


def run_seeds(seed: int, per_pass: int) -> tuple:
    """Seeds of the pump runs: seed 0 gives 1..per_pass, as in the tests."""
    return tuple(range(per_pass * seed + 1, per_pass * seed + per_pass + 1))


def _rng(seed: int, idx: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(idx,))))


def _two_stage(seed: int) -> list:
    # The seed is not used: on k = 45 the simplex's drifting tableau makes
    # some wfpbase runs return projections that violate a row, on some run
    # seeds and not others (see CHANGES.md). With fixed inputs the failing
    # runs are the same in every run of the benchmark, where they count as
    # failed. The slice is the criterion-10 grid (base seed 12345) at both
    # ends of its scenario range, k = 5 and k = 45, with run seed 1 as in
    # criterion 10. k = 45 with p = 20 is left out because single runs
    # there take up to 16 s, which would leave one or two passes a run.
    grid = {inst.name: inst for inst in bench.two_stage_suite()}
    names = [f"two-stage-k{k}-p{p}-r{r}" for k, p in ((45, 10), (5, 10), (5, 20)) for r in range(5)]
    return [bench.BenchConfig([grid[name] for name in names], algorithms=("orig", "wfpbase"),
                              seeds=(1,), max_iter=400, time_limit=NO_TIME_LIMIT, workers=1)]


def _traps(seed: int) -> list:
    # The fractionality rules run 10^4 iterations per run on every seed;
    # the certificate rules escape in a few, so they get more seeds, which
    # keeps their share of iter_sgm from following the seed.
    trapped, escaping = run_seeds(seed, 8), run_seeds(seed, 64)
    configs = []
    for inst, alg, tt_range in [(gen.fractional_stall_instance(), "orig", DEFAULT_TT_RANGE)] + [
        (gen.zero_frac_stall_instance(depth), "origzf", (1, depth)) for depth in TRAP_DEPTHS
    ]:
        for algs, seeds in (((alg,), trapped), (("wfp", "wfpbase"), escaping)):
            configs.append(bench.BenchConfig([inst], algorithms=algs, seeds=seeds, max_iter=TRAP_CAP,
                                             tt_range=tt_range, time_limit=NO_TIME_LIMIT, workers=1))
    return configs


def _decomp_walk(seed: int) -> list:
    # Fixed instances, generated from DECOMP_INSTANCE_SEED; the seed picks
    # the run seeds. Drawing the instances from the seed too made iter_sgm
    # spread 14% between seeds (4.6% with fixed instances), more than the
    # bound a later change is held to.
    instances = []
    for k in (10, 25, 50):
        for n in (3, 4):
            rng = _rng(DECOMP_INSTANCE_SEED, len(instances))
            instances.append(gen.gen_subset_sum(k, n, rng, coeff_max=10).instance)
    specs = [
        (20, gen.BlockSpec(n=5, d=0, rows=2, s=3)),
        (40, gen.BlockSpec(n=5, d=0, rows=2, s=3)),
        (10, gen.BlockSpec(n=4, d=1, rows=3, s=2)),
        (30, gen.BlockSpec(n=4, d=1, rows=3, s=2)),
        (15, gen.BlockSpec(n=4, d=2, rows=3, s=2)),
        (45, gen.BlockSpec(n=4, d=2, rows=3, s=2)),
    ]
    for k, spec in specs:
        instances.append(gen.gen_decomposable(k, spec, _rng(DECOMP_INSTANCE_SEED, len(instances))).instance)
    return [bench.BenchConfig(instances, algorithms=("wfp", "mbwalksat", "wfpc"), seeds=run_seeds(seed, 3),
                              max_iter=5000, time_limit=NO_TIME_LIMIT, workers=1)]


def build(workload: str, seed: int) -> list:
    """The BenchConfigs of one workload; the same seed gives the same ones."""
    if workload == "two-stage":
        return _two_stage(seed)
    if workload == "traps":
        return _traps(seed)
    if workload == "decomp-walk":
        return _decomp_walk(seed)
    raise ValueError(f"unknown workload {workload!r}")


class Raised(NamedTuple):
    """An exception a run raised, kept without its traceback so the
    frames of the run, and its oracles, are freed."""

    name: str
    message: str


@dataclass
class Run:
    """One operation: its bench row and what the pump returned."""

    instance: object
    row: object
    result: object            # PumpTrace, or Raised
    inspected: object = None  # what Recorder.inspect returned for the run


@dataclass
class Pass:
    runs: list
    wall_s: float


class Patcher:
    """Replaces attributes of pumplab's modules and classes; uninstall puts
    the originals back, the last replaced first."""

    def __init__(self):
        self._saved: list = []

    def _patch(self, owner, name, replacement):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Recorder(Patcher):
    """Keeps what every pump run returns.

    run_benchmark keeps only the counts of a run. The recorder wraps the
    `pump.run_*` functions that bench dispatches to, so the point of each
    run reaches the checks. While `inspect` is set, it is called with the
    instance and the oracles a run built as soon as the run returns, so
    their memo tables can be checked before they are freed. An exception
    that is not a PumpLabError is re-raised as one, so the sweep goes on
    and the run counts as failed.
    """

    def __init__(self):
        super().__init__()
        self.inspect = None
        self.results: list = []
        self._oracles: list = []

    def install(self):
        for name in PUMP_RUNS:
            self._patch(pump, name, self._wrap_run(getattr(pump, name)))
        for cls in (projection.ProjectionOracle, certificate.CertificateOracle):
            self._patch(cls, "__init__", self._wrap_init(cls.__init__))

    def _wrap_init(self, init):
        recorder = self

        @functools.wraps(init)
        def wrapper(oracle, *args, **kwargs):
            init(oracle, *args, **kwargs)
            if recorder.inspect is not None:
                recorder._oracles.append(oracle)

        return wrapper

    def _wrap_run(self, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(instance, *args, **kwargs):
            recorder._oracles = []
            try:
                result = fn(instance, *args, **kwargs)
            except PumpLabError as exc:
                recorder._keep(instance, Raised(type(exc).__name__, str(exc)))
                raise
            except Exception as exc:
                recorder._keep(instance, Raised(type(exc).__name__, str(exc)))
                raise PumpLabError(f"{type(exc).__name__}: {exc}") from exc
            recorder._keep(instance, result)
            return result

        return wrapper

    def _keep(self, instance, result):
        inspected = self.inspect(instance, self._oracles) if self.inspect is not None else None
        self._oracles = []
        self.results.append((result, inspected))


def run_pass(configs, recorder: Recorder, harness=None) -> Pass:
    """Run every operation of the workload once, serially.

    `harness` calls run_benchmark; the traced run passes one that records
    a span around it. Everything between the two clock reads is timed.
    """
    call = harness or (lambda fn, cfg: fn(cfg))
    recorder.results = []
    results = []
    start = time.perf_counter()
    for cfg in configs:
        before = len(recorder.results)
        rows = call(bench.run_benchmark, cfg).rows
        results.append((cfg, rows, recorder.results[before:]))
    wall = time.perf_counter() - start
    runs = []
    for cfg, rows, recorded in results:
        runs.extend(_match(cfg, rows, recorded))
    return Pass(runs, wall)


def _match(cfg, rows, recorded) -> list:
    # run_benchmark runs its tasks in (instance, algorithm, seed) order and
    # then sorts the rows by name; the recorder saw them in task order.
    tasks = [(inst, alg, seed) for inst in cfg.instances for alg in cfg.algorithms for seed in cfg.seeds]
    if len(recorded) != len(tasks):
        raise RuntimeError(f"recorded {len(recorded)} pump runs for {len(tasks)} bench tasks")
    by_key = {(r.instance, r.algorithm, r.seed): r for r in rows}
    return [Run(inst, by_key[(inst.name, alg, seed)], result, inspected)
            for (inst, alg, seed), (result, inspected) in zip(tasks, recorded)]


def fingerprint(runs) -> str:
    """sha256 over (instance, algorithm, seed, outcome, iterations,
    perturbations, restarts) of every run, in run order; no timing."""
    h = hashlib.sha256()
    for run in runs:
        r = run.row
        h.update(f"{r.instance},{r.algorithm},{r.seed},{r.outcome},{r.iterations},"
                 f"{r.perturbations},{r.restarts}\n".encode())
    return h.hexdigest()

