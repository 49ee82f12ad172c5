"""End-to-end checks, one test per claim.

Each test prints a single summary line so a `pytest -v` log reads as a
checklist. Tolerances are pinned here and nowhere else: exact equality
for idempotence, 1e-7 for LP objective agreement, delta + 3 sigma for
the Monte Carlo bound checks.
"""

import hashlib

import numpy as np
import pytest

from oracles import enum_box_lp, verify_minimal
from pumplab.bench import (
    BenchConfig,
    run_benchmark,
    run_bound_suite,
    shifted_geomean,
    subset_sum_suite,
    two_stage_suite,
    write_csv,
)
from pumplab.certificate import CertificateOracle
from pumplab.errors import NotACertificate
from pumplab.gen import (
    BlockSpec,
    fractional_stall_instance,
    gen_decomposable,
    gen_subset_sum,
    gen_two_stage,
    zero_frac_stall_instance,
)
from pumplab.lp import CompiledInstance, LpProblem, SimplexSolver
from pumplab.model import Sense, check_feasible
from pumplab.perturb import make_rng
from pumplab.projection import ProjectionOracle
from pumplab.pump import run_naive_fp, run_original_fp, run_wfp, theorem_bound


def report(num, text):
    print(f"[criterion {num:2d}] {text}")


def test_criterion_01_original_rule_never_escapes_single_frac_trap():
    inst = fractional_stall_instance()
    found = 0
    for seed in range(100):
        trace = run_original_fp(inst, 10_000, make_rng(seed), record=False)
        found += trace.found
    assert found == 0
    report(1, "original rule: 0/100 seeds escape the single-equation trap in 1e4 iterations")


def test_criterion_02_zero_frac_rule_never_escapes_deep_traps():
    total = 0
    for t in range(2, 7):
        inst = zero_frac_stall_instance(t)
        for seed in range(50):
            trace = run_original_fp(
                inst, 10_000, make_rng(seed), zero_frac_flips=True,
                tt_range=(1, t), record=False,
            )
            total += trace.found
    assert total == 0
    report(2, "zero-frac rule: 0/250 runs escape the depth-2..6 traps in 1e4 iterations")


def test_criterion_03_certificate_flips_escape_both_traps():
    for inst in (fractional_stall_instance(), zero_frac_stall_instance(3)):
        iters = []
        for seed in range(100):
            trace = run_wfp(inst, 2, 10_000, make_rng(seed), record=False)
            assert trace.found
            assert check_feasible(inst, trace.point, tol=1e-7)
            iters.append(trace.iterations)
        bound = theorem_bound("T5", n=inst.n, delta=0.1).iterations
        assert float(np.median(iters)) <= bound
    report(3, "pair flips: 100/100 seeds found on both trap families, median iterations within the n-only bound")


def test_criterion_04_walk_bound_holds_on_block_grid():
    res = run_bound_suite("1", runs=200, delta=0.1, ks=(2, 3), ns=(3, 4, 5, 6))
    assert res.rate <= res.threshold
    report(4, f"single-flip walk: {res.failures}/200 runs missed their caps "
              f"(rate {res.rate:.3f} vs allowed {res.threshold:.3f})")


def test_criterion_05_pump_bound_holds_on_separable_grid():
    res = run_bound_suite("5", runs=200, delta=0.1, ks=(1, 2, 3), ns=(3, 4, 5))
    assert res.rate <= res.threshold
    report(5, f"pair-flip pump: {res.failures}/200 runs missed their caps "
              f"(rate {res.rate:.3f} vs allowed {res.threshold:.3f})")


def test_criterion_06_projection_round_map_is_idempotent():
    rng = make_rng(600)
    violations = 0
    for trial in range(1000):
        k = int(rng.integers(1, 3))
        per = int(rng.integers(2, 11 if k == 1 else 6))
        inst = gen_subset_sum(k, per, rng).instance
        oracle = ProjectionOracle(CompiledInstance(inst))
        for _ in range(100):
            xt = rng.integers(0, 2, inst.n).astype(np.int8)
            z = oracle.entry(xt).rounded
            z2 = oracle.entry(z).rounded
            if not np.array_equal(z2, z):
                violations += 1
    assert violations == 0
    report(6, "project-round map: idempotent on 1000 instances x 100 points, 0 violations")


def test_criterion_07_minimal_certificates_on_block_instances():
    rng = make_rng(700)
    produced = 0
    for trial in range(500):
        k = int(rng.integers(1, 4))
        rows = int(rng.integers(1, min(3, 8 // k) + 1))
        spec = BlockSpec(n=int(rng.integers(2, 5)), d=int(rng.integers(0, 3)),
                         rows=rows, s=2)
        inst = gen_decomposable(k, spec, rng).instance
        oracle = CertificateOracle(CompiledInstance(inst))
        # directed candidates maximize one row's lhs each; random ones follow
        candidates = []
        for row in inst.rows:
            x = np.zeros(inst.n)
            for j, coef in row.bin_coeffs.items():
                x[j] = 1.0 if coef > 0 else 0.0
            candidates.append(x)
        candidates.extend(rng.integers(0, 2, inst.n).astype(float) for _ in range(20))
        cert = None
        for x in candidates:
            try:
                cert = oracle.min_certificate(x)
                break
            except NotACertificate:
                continue
        if cert is None:
            continue
        produced += 1
        assert len(cert.support_rows) <= spec.d + 1
        owners = set()
        for src, _ in cert.original_support:
            owners.add(next(i for i, blk in enumerate(inst.blocks) if src in blk.row_idx))
        assert len(owners) == 1
        assert verify_minimal(inst, cert)
    # blocks with a single row and d >= 1 can never certify (one nonzero
    # continuous coefficient cannot cancel), so well under 500 is expected
    assert produced >= 250
    report(7, f"certificates: {produced}/500 instances yielded one; all supports "
              "within d+1, one block, and subset-minimal")


def test_criterion_08_unperturbed_pump_never_long_cycles():
    rng = make_rng(800)
    long_cycles = 0
    for trial in range(500):
        pick = trial % 3
        if pick == 0:
            inst = gen_subset_sum(int(rng.integers(1, 3)), int(rng.integers(2, 6)), rng).instance
        elif pick == 1:
            spec = BlockSpec(n=int(rng.integers(2, 5)), d=int(rng.integers(0, 3)),
                             rows=int(rng.integers(1, 3)), s=2)
            inst = gen_decomposable(int(rng.integers(1, 3)), spec, rng).instance
        else:
            inst = gen_two_stage(int(rng.integers(1, 4)), int(rng.integers(2, 5)),
                                 int(rng.integers(1, 4)), rng).instance
        trace = run_naive_fp(inst, max_iter=200, record=False)
        if trace.cycle is not None and trace.cycle[0] == "long":
            long_cycles += 1
    assert long_cycles == 0
    report(8, "plain pump: 0 long cycles in 500 runs of 200 iterations")


def test_criterion_09_projections_are_near_integral_vertices():
    rng = make_rng(900)
    projections = 0
    compared = 0
    while projections < 500:
        n = int(rng.integers(2, 11))
        res = gen_subset_sum(1, n, rng)
        inst = res.instance
        row = inst.rows[0]
        a = np.array([row.bin_coeffs[j] for j in range(n)])
        oracle = ProjectionOracle(CompiledInstance(inst))
        for _ in range(2):
            xt = rng.integers(0, 2, n)
            c = 1.0 - 2.0 * xt
            prob = LpProblem([a], [Sense.EQ], [row.rhs], upper=np.ones(n))
            sol = SimplexSolver(prob).resolve(c)
            frac = np.sum((sol.x > 1e-6) & (sol.x < 1 - 1e-6))
            assert frac <= 1
            e = oracle.entry(xt.astype(np.int8))
            assert np.sum((e.x_bar > 1e-6) & (e.x_bar < 1 - 1e-6)) <= 1
            projections += 1
            if n <= 6:
                status, value, _ = enum_box_lp([a], ["="], [row.rhs],
                                               np.zeros(n), np.ones(n), c)
                assert status == "optimal"
                assert sol.objective == pytest.approx(value, abs=1e-7)
                compared += 1
    assert compared >= 100
    report(9, f"l1 projections: {projections} solved with <= 1 fractional coordinate; "
              f"{compared} matched the vertex enumerator within 1e-7")


# sha256 of the grid's timing-stripped CSV below: a speed change keeps it,
# and a change of answers re-pins it as a declared change
CRITERION_10_CSV_SHA256 = "08fdf6b6ab0755f00f973ee84d59922ab9639af66ff40606917025165c5d1dc0"


def test_criterion_10_hybrid_rule_beats_original_on_two_stage_grid():
    instances = two_stage_suite()
    assert len(instances) == 50
    cfg = BenchConfig(instances, algorithms=("orig", "wfpbase"),
                      seeds=tuple(range(1, 11)), max_iter=400, workers=1)
    rows = run_benchmark(cfg).rows
    assert hashlib.sha256(write_csv(rows, include_timing=False).encode()).hexdigest() == CRITERION_10_CSV_SHA256
    seeds = sorted({r.seed for r in rows})
    wins = 0
    for seed in seeds:
        orig_found = sum(r.outcome == "found" for r in rows
                         if r.algorithm == "orig" and r.seed == seed)
        base_found = sum(r.outcome == "found" for r in rows
                         if r.algorithm == "wfpbase" and r.seed == seed)
        wins += base_found >= orig_found
    sgm_orig = shifted_geomean([r.iterations for r in rows if r.algorithm == "orig"])
    sgm_base = shifted_geomean([r.iterations for r in rows if r.algorithm == "wfpbase"])
    ratio = sgm_base / sgm_orig
    assert wins >= 9
    assert ratio < 1.0
    report(10, f"two-stage grid: hybrid found-count wins {wins}/10 seeds, "
               f"iteration sgm ratio {ratio:.3f}")


def test_criterion_11_repeat_runs_are_byte_identical():
    def sweep():
        instances = subset_sum_suite(base_seed=7, ks=(1, 2), ns=(3, 4)) + two_stage_suite(
            base_seed=7, ks=(2,), ps=(3,), q=2, per_config=2, rows_per_scenario=2
        )
        cfg = BenchConfig(
            instances,
            algorithms=("naive", "orig", "origzf", "mbwalksat", "wfp", "wfpc", "wfpbase"),
            seeds=(1, 2, 3),
            max_iter=300,
            workers=1,
        )
        return run_benchmark(cfg).rows

    first = write_csv(sweep(), include_timing=False)
    second = write_csv(sweep(), include_timing=False)
    assert first == second

    parallel_cfg = BenchConfig(
        subset_sum_suite(base_seed=8, ks=(1,), ns=(3, 4)),
        algorithms=("wfp", "wfpbase"), seeds=(1, 2), max_iter=300, workers=2,
    )
    serial_cfg = BenchConfig(
        subset_sum_suite(base_seed=8, ks=(1,), ns=(3, 4)),
        algorithms=("wfp", "wfpbase"), seeds=(1, 2), max_iter=300, workers=1,
    )
    assert write_csv(run_benchmark(parallel_cfg).rows, include_timing=False) == write_csv(
        run_benchmark(serial_cfg).rows, include_timing=False
    )
    report(11, "repeat sweeps: timing-stripped CSVs byte-identical, serial == forked pool")
