from dataclasses import replace

import numpy as np
import pytest

from oracles import is_stalling, norm1, subset_sum_l1_value
from pumplab.errors import InstanceInfeasible, NonBinaryVector
from pumplab.gen import (
    BlockSpec,
    fractional_stall_instance,
    gen_decomposable,
    gen_subset_sum,
    zero_frac_stall_instance,
)
from pumplab.model import LinearRow, MixedBinaryInstance, Sense
from pumplab.perturb import make_rng
from pumplab.projection import ProjectionOracle, alt_proj_star, as_binary, round_binary


def test_round_binary_examples():
    np.testing.assert_array_equal(round_binary([0.5, 0.49999]), [1, 0])
    np.testing.assert_array_equal(round_binary([2 / 3, 1.0]), [1, 1])
    np.testing.assert_array_equal(round_binary([0.0, 1.0, 0.25]), [0, 1, 0])
    # solver noise just under one half still rounds up via the snap window
    np.testing.assert_array_equal(round_binary([0.5 - 1e-12]), [1])


def test_round_binary_rejects_out_of_box():
    with pytest.raises(NonBinaryVector):
        round_binary([1.5])
    with pytest.raises(NonBinaryVector):
        round_binary([-0.1])


def test_as_binary_rejects_fractions():
    with pytest.raises(NonBinaryVector):
        as_binary([0.0, 0.5])
    np.testing.assert_array_equal(as_binary([1.0, 0.0]), [1, 0])


@pytest.mark.parametrize("point", [[np.nan, 1.0], [np.inf, 0.0], [300, 1]], ids=["nan", "inf", "300"])
def test_as_binary_checks_values_before_casting(point):
    # casting first raised numpy's ValueError or OverflowError
    with pytest.raises(NonBinaryVector):
        as_binary(point)


@pytest.mark.parametrize("point", [
    [2, 1],
    [0.7, 1.0],
    [np.nan, 1.0],
    np.array([2, 1], dtype=np.int8),
    np.array([-1, 1], dtype=np.int8),
], ids=["int-2", "fraction", "nan", "int8-2", "int8-minus-1"])
def test_entry_rejects_a_point_that_is_not_binary(point):
    # [2, 1] used to project with distance 0.0, [0.7, 1.0] as (0, 1), and
    # a NaN raised numpy's ValueError; an int8 point is checked on a miss,
    # also once the memo holds other points
    oracle = ProjectionOracle(fractional_stall_instance())
    for warm in ([1, 1], [0, 1]):
        oracle.entry(warm)
    solves = oracle.lp_solves
    with pytest.raises(NonBinaryVector):
        oracle.entry(point)
    assert oracle.lp_solves == solves
    assert len(oracle.cache) == 2


def test_l1_proj_worked_values():
    inst = fractional_stall_instance()
    oracle = ProjectionOracle(inst)
    e = oracle.entry([1, 1])
    assert e.distance == pytest.approx(1 / 3, abs=1e-9)
    np.testing.assert_allclose(e.x_bar, [2 / 3, 1.0], atol=1e-9)
    assert oracle.entry([0, 1]).distance == pytest.approx(2 / 3, abs=1e-9)
    e = oracle.entry([1, 0])
    assert e.distance == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(e.x_bar, [1.0, 0.0], atol=1e-9)


def test_projection_memo_skips_repeat_solves():
    inst = fractional_stall_instance()
    oracle = ProjectionOracle(inst)
    oracle.entry([1, 1])
    solves = oracle.lp_solves
    oracle.entry([1, 1])
    oracle.entry(np.ones(2, dtype=np.int8))
    assert oracle.lp_solves == solves


def test_alt_proj_fixpoint_of_deep_trap():
    # 5(x1+..+x4) + 2 x5 = 20: projecting all-ones moves one heavy
    # coordinate to 3/5, which rounds straight back up
    inst = zero_frac_stall_instance(3)
    ones = np.ones(5, dtype=np.int8)
    oracle = ProjectionOracle(inst)
    np.testing.assert_array_equal(oracle.entry(ones).rounded, ones)
    assert is_stalling(oracle, ones)


def test_is_stalling_cases():
    inst = fractional_stall_instance()
    oracle = ProjectionOracle(inst)
    assert not is_stalling(oracle, [1, 0])   # feasible, not a stall
    assert is_stalling(oracle, [1, 1])       # fixpoint at distance 1/3
    assert not is_stalling(oracle, [0, 0])   # moves to another point


def test_alt_proj_star_lands_on_fixpoint():
    rng = make_rng(10)
    for trial in range(25):
        inst = gen_subset_sum(1, int(rng.integers(2, 7)), rng).instance
        start = rng.integers(0, 2, inst.n).astype(np.int8)
        oracle = ProjectionOracle(inst)
        z, e = alt_proj_star(oracle, start)
        assert e is oracle.entry(z)
        np.testing.assert_array_equal(oracle.entry(z).rounded, z)


def test_alt_proj_distance_never_increases():
    rng = make_rng(11)
    for trial in range(25):
        inst = gen_subset_sum(1, int(rng.integers(2, 7)), rng).instance
        oracle = ProjectionOracle(inst)
        z = rng.integers(0, 2, inst.n).astype(np.int8)
        prev = np.inf
        for _ in range(2 * inst.n + 10):
            e = oracle.entry(z)
            assert e.distance <= prev + 1e-9
            prev = e.distance
            if e.rounded_key == z.tobytes():
                break
            z = e.rounded
        else:
            pytest.fail("no fixpoint within the cap")


def test_projection_distance_matches_enumeration():
    rng = make_rng(12)
    for trial in range(30):
        n = int(rng.integers(2, 7))
        res = gen_subset_sum(1, n, rng, coeff_max=12)
        inst = res.instance
        row = inst.rows[0]
        a = np.array([row.bin_coeffs.get(j, 0.0) for j in range(n)])
        oracle = ProjectionOracle(inst)
        for _ in range(4):
            xt = rng.integers(0, 2, n)
            want = subset_sum_l1_value(a, row.rhs, xt)
            assert oracle.entry(xt).distance == pytest.approx(want, abs=1e-7)


def test_projection_of_feasible_point_is_itself():
    rng = make_rng(13)
    for trial in range(10):
        res = gen_subset_sum(2, int(rng.integers(2, 5)), rng)
        oracle = ProjectionOracle(res.instance)
        e = oracle.entry(res.witness.x.astype(np.int8))
        assert e.distance == pytest.approx(0.0, abs=1e-9)
        assert e.integral
        np.testing.assert_allclose(e.x_bar, res.witness.x, atol=1e-9)


def test_empty_relaxation_raises():
    rows = (
        LinearRow({0: 1.0}, {}, Sense.GE, 1.0),
        LinearRow({0: 1.0}, {}, Sense.LE, 0.0),
    )
    inst = MixedBinaryInstance(name="empty", n=1, d=0, rows=rows)
    with pytest.raises(InstanceInfeasible):
        ProjectionOracle(inst)


def test_distance_is_l1_between_binary_and_projection():
    # the reported distance equals norm1(x~ - x_bar) whenever d = 0
    rng = make_rng(14)
    res = gen_subset_sum(2, 4, rng)
    oracle = ProjectionOracle(res.instance)
    for _ in range(12):
        xt = rng.integers(0, 2, res.instance.n)
        e = oracle.entry(xt)
        assert e.distance == pytest.approx(norm1(xt - e.x_bar), abs=1e-9)


def gen_decomposable_mixed(rng):
    return gen_decomposable(3, BlockSpec(n=4, d=1, rows=3, s=2), rng).instance


def _entries(oracle, points):
    out = [tuple(v.tobytes() for v in oracle.relaxation())]
    for xt in points:
        e = oracle.entry(xt)
        out.append((e.x_bar.tobytes(), e.y_bar.tobytes(), e.distance, e.rounded_key))
    return out


def test_oracles_share_no_memo_or_solver_state():
    inst = gen_subset_sum(3, 4, make_rng(15)).instance
    a, b = ProjectionOracle(inst), ProjectionOracle(inst)
    assert a.cache is not b.cache
    for name in ("T", "rhs_col", "val", "vstat", "basis", "lower", "upper", "phase1_cost"):
        assert not np.shares_memory(getattr(a.solver, name), getattr(b.solver, name)), name
    a.entry(np.ones(inst.n, dtype=np.int8))
    assert len(a.cache) == 1 and not b.cache


def test_alternating_instances_give_fresh_oracle_entries():
    rng = make_rng(16)
    insts = [gen_subset_sum(3, 4, rng).instance, gen_decomposable_mixed(rng)]
    points = [[rng.integers(0, 2, inst.n) for _ in range(8)] for inst in insts]
    # a copy is another object, so its oracle starts from a newly compiled view
    want = [_entries(ProjectionOracle(replace(inst)), pts) for inst, pts in zip(insts, points)]
    for i in (0, 1, 0, 0, 1):
        assert _entries(ProjectionOracle(insts[i]), points[i]) == want[i]


def test_infeasible_instance_raises_on_every_construction():
    rows = (
        LinearRow({0: 1.0, 1: 1.0}, {}, Sense.GE, 3.0),
        LinearRow({1: 1.0}, {}, Sense.LE, 1.0),
    )
    inst = MixedBinaryInstance(name="empty2", n=2, d=0, rows=rows)
    for _ in range(3):
        with pytest.raises(InstanceInfeasible):
            ProjectionOracle(inst)
