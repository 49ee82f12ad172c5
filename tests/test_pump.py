import hashlib

import numpy as np
import pytest

from pumplab.certificate import CertificateOracle
from pumplab.errors import NonBinaryVector, NotACertificate
from pumplab.gen import (
    BlockSpec,
    fractional_stall_instance,
    gen_decomposable,
    gen_subset_sum,
    zero_frac_stall_instance,
)
from pumplab.lp import CompiledInstance, SimplexSolver
from pumplab.model import (
    LinearRow,
    MixedBinaryInstance,
    Objective,
    Sense,
    check_feasible,
)
from pumplab import pump
from pumplab.perturb import FRAC_TOL, make_rng
from pumplab.pump import (
    run_mb_walksat,
    run_naive_fp,
    run_original_fp,
    run_wfp,
    run_wfp_compressed,
    run_wfpbase_fp,
    theorem_bound,
)


def band_instance():
    # 0.6 <= x1 + x2 <= 1.5, objective max x1 + 0.4 x2: the relaxation
    # optimum (1, 0.5) rounds to the infeasible (1, 1)
    rows = (
        LinearRow({0: 1.0, 1: 1.0}, {}, Sense.GE, 0.6),
        LinearRow({0: 1.0, 1: 1.0}, {}, Sense.LE, 1.5),
    )
    return MixedBinaryInstance(name="band", n=2, d=0, rows=rows,
                               objective=Objective({0: 1.0, 1: 0.4}))


def test_naive_finds_integral_relaxation_immediately():
    rows = (LinearRow({0: 1.0, 1: 1.0}, {}, Sense.LE, 2.0),)
    inst = MixedBinaryInstance(name="loose", n=2, d=0, rows=rows,
                               objective=Objective({0: 1.0, 1: 1.0}))
    trace = run_naive_fp(inst)
    assert trace.found and trace.iterations == 0
    assert trace.algorithm == "naive"
    np.testing.assert_allclose(trace.point.x, [1.0, 1.0], atol=1e-9)


def test_naive_converges_after_one_projection():
    # max 0.6 x1 + 0.5 x2 s.t. x1 + x2 <= 1.4: optimum (1, 0.4) rounds to
    # the feasible (1, 0)
    rows = (LinearRow({0: 1.0, 1: 1.0}, {}, Sense.LE, 1.4),)
    inst = MixedBinaryInstance(name="near", n=2, d=0, rows=rows,
                               objective=Objective({0: 0.6, 1: 0.5}))
    trace = run_naive_fp(inst)
    assert trace.found and trace.iterations == 1
    np.testing.assert_allclose(trace.point.x, [1.0, 0.0], atol=1e-9)


def test_naive_cycles_of_length_one_on_stall_instance():
    trace = run_naive_fp(fractional_stall_instance(), max_iter=30)
    assert not trace.found
    assert trace.outcome == "iter_limit"
    assert trace.iterations == 30
    assert trace.cycle == ("one", 1)


def test_original_rule_trapped_forever_on_stall_instance():
    inst = fractional_stall_instance()
    for seed in (0, 1, 2):
        trace = run_original_fp(inst, 60, make_rng(seed))
        assert trace.outcome == "iter_limit"
        assert trace.algorithm == "orig"
        # stalls on every odd iteration: flip x1, bounce back, stall again
        assert trace.perturbations == 30


def test_zero_frac_rule_escapes_single_frac_trap():
    # ranking zero-fractionality coordinates lets TT = 2 flip both columns
    inst = fractional_stall_instance()
    trace = run_original_fp(inst, 50, make_rng(0), zero_frac_flips=True)
    assert trace.found
    assert trace.algorithm == "origzf"
    assert check_feasible(inst, trace.point, tol=1e-7)


def test_zero_frac_rule_trapped_when_tt_capped():
    inst = zero_frac_stall_instance(2)
    for seed in (0, 1, 2):
        trace = run_original_fp(inst, 150, make_rng(seed),
                                zero_frac_flips=True, tt_range=(1, 2))
        assert trace.outcome == "iter_limit"


# The first 16 hex digits of sha256("\n".join(trace.to_lines())) and the
# next rng.integers(2**62) draw after pump.run(alg, instance, make_rng(seed),
# max_iter=2000, record=True, tt_range=tt) for seeds 0, 1 and 2. Every run
# stalls 1,000 times on a few points and so revisits (point, TT) pairs.
LONG_STALL_TRACES = {
    ("orig", "fractional-stall", None): (
        ("6c17a60623f0b5d3", 375039330167198385),
        ("6c17a60623f0b5d3", 1944303230920893569),
        ("6c17a60623f0b5d3", 3193062919734938308),
    ),
    ("origzf", "zero-frac-stall-3", (1, 3)): (
        ("f9b49a774cd063a5", 375039330167198385),
        ("a403a31f76c8807f", 1944303230920893569),
        ("9d2ad149e0d9eaaf", 3193062919734938308),
    ),
    ("origzf", "zero-frac-stall-6", (1, 6)): (
        ("44761b2c3a31cd15", 375039330167198385),
        ("5804a69a1762844f", 1944303230920893569),
        ("3e72d865023efbd1", 3193062919734938308),
    ),
}


def trap(name):
    if name == "fractional-stall":
        return fractional_stall_instance()
    return zero_frac_stall_instance(int(name.rsplit("-", 1)[1]))


@pytest.mark.parametrize("alg,name,tt", sorted(LONG_STALL_TRACES, key=str))
def test_long_stalled_traces_are_pinned(alg, name, tt):
    inst = trap(name)
    kw = {} if tt is None else {"tt_range": tt}
    for seed, want in enumerate(LONG_STALL_TRACES[(alg, name, tt)]):
        rng = make_rng(seed)
        trace = pump.run(alg, inst, rng, max_iter=2000, record=True, **kw)
        assert trace.perturbations == 1000
        digest = hashlib.sha256("\n".join(trace.to_lines()).encode()).hexdigest()[:16]
        assert (digest, int(rng.integers(1 << 62))) == want, seed


WFPBASE_CASES = {
    "subset-sum-8x4": lambda: gen_subset_sum(8, 4, make_rng(1), coeff_max=10).instance,
    "subset-sum-5x6": lambda: gen_subset_sum(5, 6, make_rng(2), coeff_max=10).instance,
    "zero-frac-stall-6": lambda: zero_frac_stall_instance(6),
}

# As LONG_STALL_TRACES for wfpbase (digest and next draw), with the run's
# restarts and how many stalls each branch of the hybrid rule answered:
# TT <= |F| (the original rule) and TT > |F| (draws from violated rows).
# Computed while the rule still drew TT itself, so they show that moving
# the draw into the loop changed no trace and no draw.
WFPBASE_TRACES = {
    ("subset-sum-8x4", (1, 4)): (
        ("453e76d7e171fd92", 1964466799537700886, 519, 722, 29),
        ("d43688660c07b5b7", 2193817389245155391, 531, 725, 26),
        ("dd351d1c0b7927b9", 2647392940497661946, 526, 722, 28),
    ),
    ("subset-sum-5x6", (1, 4)): (
        ("899158de1bafbba1", 758732299345821340, 99, 96, 40),
        ("b02590b32bcc6c83", 4482114988984235227, 291, 309, 94),
        ("4b7c2b3c08215ac0", 2407559044518555909, 183, 198, 30),
    ),
    ("zero-frac-stall-6", (1, 2)): (
        ("fd0dd43f0ddd2500", 3762460428626562515, 1, 0, 2),
        ("e2aab19325a257dc", 3045351675539795041, 9, 3, 6),
        ("f04fbac1aca3cfcb", 4435842237767405847, 12, 7, 5),
    ),
}


@pytest.mark.parametrize("name,tt", sorted(WFPBASE_TRACES))
def test_long_wfpbase_traces_are_pinned(monkeypatch, name, tt):
    small_tt = []
    real = pump.wfpbase_perturb

    def spy(x_tilde, x_bar, y_bar, instance, rng, k):
        small_tt.append(k <= int((np.abs(x_bar - x_tilde) > FRAC_TOL).sum()))
        return real(x_tilde, x_bar, y_bar, instance, rng, k)

    monkeypatch.setattr(pump, "wfpbase_perturb", spy)
    inst = WFPBASE_CASES[name]()
    for seed, (digest, draw, restarts, narrow, wide) in enumerate(WFPBASE_TRACES[name, tt]):
        small_tt.clear()
        rng = make_rng(seed)
        trace = pump.run("wfpbase", inst, rng, max_iter=2000, record=True, tt_range=tt)
        got = hashlib.sha256("\n".join(trace.to_lines()).encode()).hexdigest()[:16]
        assert (got, int(rng.integers(1 << 62))) == (digest, draw), seed
        assert (trace.restarts, small_tt.count(True), small_tt.count(False)) == (restarts, narrow, wide), seed


@pytest.mark.parametrize("alg,rule,name,tt", [
    ("orig", "original_perturb", "fractional-stall", (10, 30)),
    ("origzf", "original_perturb_zero_frac", "zero-frac-stall-3", (1, 3)),
])
def test_fractionality_stalls_rank_each_point_and_tt_once(monkeypatch, alg, rule, name, tt):
    # a stall whose (point, TT) was seen before in the run is a memo hit
    # and calls no rule
    keys = []
    real = getattr(pump, rule)

    def spy(x_tilde, x_bar, tt):
        keys.append((x_tilde.tobytes(), tt))
        return real(x_tilde, x_bar, tt)

    monkeypatch.setattr(pump, rule, spy)
    trace = pump.run(alg, trap(name), make_rng(0), max_iter=2000, tt_range=tt, record=False)
    assert trace.perturbations == 1000
    assert len(set(keys)) == len(keys) < 100


@pytest.mark.parametrize("alg", ["orig", "origzf", "wfpbase"])
@pytest.mark.parametrize("tt_range", [(5, 1), (-1, 3)])
def test_bad_tt_range_raises_at_the_first_stall(alg, tt_range):
    inst = fractional_stall_instance()
    # fractional-stall first stalls at t = 1, so a run of 0 iterations draws nothing
    assert pump.run(alg, inst, make_rng(0), max_iter=0, tt_range=tt_range).perturbations == 0
    with pytest.raises(ValueError, match="bad TT range"):
        pump.run(alg, inst, make_rng(0), max_iter=1, tt_range=tt_range)


@pytest.mark.parametrize("alg", sorted(pump.ALGORITHMS))
def test_run_rejects_a_negative_iteration_cap(alg):
    # orig, wfp and mbwalksat used to return iter_limit with iterations == -5
    with pytest.raises(ValueError, match="max_iter"):
        pump.run(alg, fractional_stall_instance(), make_rng(0), max_iter=-5)
    assert pump.run(alg, fractional_stall_instance(), make_rng(0), max_iter=0).iterations == 0


def test_walksat_driver_reaches_feasibility():
    inst = fractional_stall_instance()
    for seed in range(5):
        trace = run_mb_walksat(inst, 1, start=np.array([1, 1], dtype=np.int8),
                               rng=make_rng(seed))
        assert trace.found
        assert trace.algorithm == "mbwalksat"
        assert trace.iterations == trace.perturbations
        assert check_feasible(inst, trace.point, tol=1e-7)


def test_walksat_random_start_is_reproducible():
    inst = gen_subset_sum(1, 5, make_rng(30)).instance
    t1 = run_mb_walksat(inst, 2, rng=make_rng(3), max_iter=5000)
    t2 = run_mb_walksat(inst, 2, rng=make_rng(3), max_iter=5000)
    assert t1.outcome == t2.outcome == "found"
    assert t1.iterations == t2.iterations
    np.testing.assert_array_equal(t1.point.x, t2.point.x)


def test_walksat_requires_rng_and_matching_start():
    inst = fractional_stall_instance()
    with pytest.raises(ValueError):
        run_mb_walksat(inst, 1)
    with pytest.raises(ValueError):
        run_mb_walksat(inst, 1, start=np.zeros(3, dtype=np.int8), rng=make_rng(0))


def test_walksat_start_must_be_binary():
    inst = fractional_stall_instance()
    for start in ([2, 0], [0.7, 0]):
        with pytest.raises(NonBinaryVector):
            run_mb_walksat(inst, 1, start=start, rng=make_rng(0))


def test_walk_lifts_a_point_just_inside_a_row():
    # x1 + x2 <= 1 - 5e-8: [1, 0] misses the row by 5e-8, more than the row
    # test allows, so it must get a certificate and not a failed lift
    rows = (LinearRow({0: 1.0, 1: 1.0}, {}, Sense.LE, 1.0 - 5e-8),)
    inst = MixedBinaryInstance(name="gap", n=2, d=0, rows=rows)
    trace = run_mb_walksat(inst, 1, start=[1, 0], rng=make_rng(0))
    assert trace.found
    np.testing.assert_array_equal(trace.point.x, [0, 0])
    assert check_feasible(inst, trace.point)


@pytest.mark.parametrize("d", [0, 1])
def test_zero_row_instances_are_found_by_every_variant(d):
    # no rows: no combination can certify anything, and every point lifts
    inst = MixedBinaryInstance(name="norows", n=2, d=d, rows=())
    with pytest.raises(NotACertificate):
        CertificateOracle(CompiledInstance(inst)).min_certificate([1.0, 0.0])
    for alg in pump.ALGORITHMS:
        trace = pump.run(alg, inst, make_rng(0), max_iter=50, record=False)
        assert trace.found, alg
        assert trace.point.y.size == d
        assert check_feasible(inst, trace.point, tol=1e-9)


def test_certificate_walks_run_phase1_once_per_lp(monkeypatch):
    # a found point takes its y from the warm projection oracle, so a run
    # solves phase 1 only for the projection and certificate LPs
    phase1 = SimplexSolver.ensure_phase1
    runs = []

    def counted(solver):
        if not solver._phase1_done:
            runs.append(solver)
        return phase1(solver)

    monkeypatch.setattr(SimplexSolver, "ensure_phase1", counted)
    for alg in ("mbwalksat", "wfpc"):
        # a new instance object, so its compiled view is built afresh
        inst = gen_decomposable(6, BlockSpec(n=4, d=1, rows=3, s=2), make_rng(7)).instance
        runs.clear()
        trace = pump.run(alg, inst, make_rng(1), max_iter=5000, record=False)
        assert trace.found, alg
        assert check_feasible(inst, trace.point, tol=1e-7)
        assert len(runs) <= 2, alg


def test_wfp_finds_and_pairs_stalls_with_perturbs():
    inst = fractional_stall_instance()
    for seed in range(20):
        trace = run_wfp(inst, 2, 200, make_rng(seed))
        assert trace.found
        assert trace.algorithm == "wfp"
        assert check_feasible(inst, trace.point, tol=1e-7)
        # on this instance every perturbation is answered by a projection,
        # so the iteration count is exactly twice the perturbation count
        assert trace.iterations == 2 * trace.perturbations
        stall_ts = {r.t for r in trace.records if r.event == "stall"}
        for r in trace.records:
            if r.event == "perturb":
                assert r.t in stall_ts


def test_wfp_on_random_subset_sums():
    rng = make_rng(31)
    for trial in range(6):
        inst = gen_subset_sum(1, int(rng.integers(3, 6)), rng).instance
        trace = run_wfp(inst, 2, 3000, make_rng(trial))
        assert trace.found
        assert check_feasible(inst, trace.point, tol=1e-7)


def test_wfp_escapes_deep_trap():
    inst = zero_frac_stall_instance(3)
    for seed in range(5):
        trace = run_wfp(inst, 2, 2000, make_rng(seed))
        assert trace.found
        assert check_feasible(inst, trace.point, tol=1e-7)


def test_compressed_driver_counts_one_perturb_per_round():
    inst = fractional_stall_instance()
    for seed in range(10):
        trace = run_wfp_compressed(inst, 2, 200, make_rng(seed))
        assert trace.found
        assert trace.algorithm == "wfpc"
        assert trace.perturbations == trace.iterations - 1
        assert check_feasible(inst, trace.point, tol=1e-7)


def test_compressed_driver_on_deep_trap():
    inst = zero_frac_stall_instance(2)
    trace = run_wfp_compressed(inst, 2, 500, make_rng(1))
    assert trace.found
    assert check_feasible(inst, trace.point, tol=1e-7)


def test_hybrid_trace_matches_original_under_small_tt():
    # TT fixed at 1 never exceeds |F| on this instance, so the hybrid rule
    # replays the original rule draw for draw until the first revisit
    inst = band_instance()
    a = run_original_fp(inst, 100, make_rng(5), tt_range=(1, 1))
    b = run_wfpbase_fp(inst, 100, make_rng(5), tt_range=(1, 1))
    assert a.found and b.found
    assert b.restarts == 0
    assert (a.iterations, a.perturbations) == (b.iterations, b.perturbations)
    np.testing.assert_array_equal(a.point.x, b.point.x)


def test_hybrid_restarts_rescue_the_original_rule():
    # with TT capped at 1 the original rule loops forever here; the hybrid
    # driver spots the two-cycle revisit and restarts out of it
    inst = fractional_stall_instance()
    stuck = run_original_fp(inst, 200, make_rng(0), tt_range=(1, 1))
    assert stuck.outcome == "iter_limit"
    for seed in range(5):
        trace = run_wfpbase_fp(inst, 200, make_rng(seed), tt_range=(1, 1))
        assert trace.found
        assert trace.algorithm == "wfpbase"
        assert trace.restarts >= 1
        assert check_feasible(inst, trace.point, tol=1e-7)


def test_bound_t1_worked_values():
    rep = theorem_bound("1", block_sizes=[2], cert_bounds=[2], delta=1 / np.e)
    assert rep.iterations == 8
    rep = theorem_bound("T1", block_sizes=[2, 3], cert_bounds=[2, 3], delta=0.1)
    assert rep.iterations == 3 * (2 * 2 ** 2 + 3 * 3 ** 3)
    assert rep.iterations == 267


def test_bound_t2_worked_values():
    rep = theorem_bound("2", block_sizes=[2], delta=1 / np.e)
    assert rep.iterations == 2 * 2 ** 4 == 32
    rep = theorem_bound("T2", block_sizes=[3], delta=0.1)
    assert rep.iterations == 3 * 3 * 3 ** 6 == 6561


def test_bound_t3_tail_values():
    rep = theorem_bound("3", n=2, cert_supp=2, T=8)
    assert rep.tail == pytest.approx(0.31640625, abs=1e-12)
    rep = theorem_bound("T3", n=2, cert_supp=2, delta=0.1)
    assert rep.iterations == 2 * 4 * 3 == 24
    assert rep.tail == pytest.approx(0.75 ** 12, abs=1e-12)


def test_bound_t5_worked_values():
    rep = theorem_bound("5", n=2, delta=0.1)
    assert rep.iterations == 192
    assert rep.tail == pytest.approx((15 / 16) ** 48, abs=1e-12)


def test_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        theorem_bound("7", n=2, delta=0.1)
    with pytest.raises(ValueError):
        theorem_bound("T1", block_sizes=[2], delta=0.1)    # cert_bounds missing
    with pytest.raises(ValueError):
        theorem_bound("T3", n=2, cert_supp=2)              # neither T nor delta
    with pytest.raises(ValueError):
        theorem_bound("T1", block_sizes=[2, 3], cert_bounds=[2], delta=0.1)


def test_found_points_lift_continuous_columns():
    # one continuous column tied to the binaries: found points carry a y
    # that satisfies every row
    rows = (
        LinearRow({0: 1.0, 1: 1.0}, {0: -1.0}, Sense.LE, 0.0),   # x1 + x2 <= y
        LinearRow({}, {0: 1.0}, Sense.LE, 1.5),                  # y <= 1.5
        LinearRow({0: -1.0, 1: -1.0}, {}, Sense.LE, -1.0),       # x1 + x2 >= 1
    )
    inst = MixedBinaryInstance(name="lifted", n=2, d=1, rows=rows)
    trace = run_wfp(inst, 2, 200, make_rng(0))
    assert trace.found
    assert trace.point.y.size == 1
    assert check_feasible(inst, trace.point, tol=1e-7)


def test_run_looks_up_entry_points_and_rules_on_the_module(monkeypatch):
    # wrappers installed on the pump module (as the benchmark's tracer
    # does) must see the runs the registry starts and the rules they call
    seen = []

    def spy(name):
        real = getattr(pump, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(pump, name, wrapper)

    for name in ("run_original_fp", "original_perturb", "run_wfp", "perturb_l"):
        spy(name)
    inst = fractional_stall_instance()
    assert pump.run("orig", inst, make_rng(0), max_iter=4, record=False).perturbations == 2
    assert pump.run("wfp", inst, make_rng(0), max_iter=50, record=False).found
    assert seen[:3] == ["run_original_fp", "original_perturb", "original_perturb"]
    assert seen[3] == "run_wfp" and "perturb_l" in seen[4:]


@pytest.mark.parametrize("theorem, kwargs", [
    ("T1", dict(block_sizes=[2], cert_bounds=[2], delta=0.0)),
    ("T1", dict(block_sizes=[2], cert_bounds=[2], delta=1.5)),
    ("T2", dict(block_sizes=[2], delta=1.0)),
    ("T3", dict(n=2, cert_supp=2, delta=-0.1)),
    ("T5", dict(n=2, delta=0.0)),
], ids=["t1-zero", "t1-above-one", "t2-one", "t3-negative", "t5-zero"])
def test_bound_rejects_delta_outside_unit_interval(theorem, kwargs):
    with pytest.raises(ValueError, match="delta"):
        theorem_bound(theorem, **kwargs)


@pytest.mark.parametrize("theorem, kwargs", [
    ("T1", dict(block_sizes=[0], cert_bounds=[2], delta=0.1)),
    ("T1", dict(block_sizes=[2, 3], cert_bounds=[2, 0], delta=0.1)),
    ("T2", dict(block_sizes=[3, 0], delta=0.1)),
    ("T3", dict(n=0, cert_supp=2, delta=0.1)),
    ("T3", dict(n=2, cert_supp=0, T=8)),
    ("T5", dict(n=0, delta=0.1)),
], ids=["t1-size", "t1-cap", "t2-size", "t3-n", "t3-cap", "t5-n"])
def test_bound_rejects_sizes_and_caps_below_one(theorem, kwargs):
    with pytest.raises(ValueError, match="at least 1"):
        theorem_bound(theorem, **kwargs)


def test_bound_rejects_negative_draw_count():
    with pytest.raises(ValueError, match="T must be at least 0"):
        theorem_bound("T3", n=2, cert_supp=2, T=-4)    # gave a tail above 1
    assert theorem_bound("T3", n=2, cert_supp=2, T=0).tail == 1.0
