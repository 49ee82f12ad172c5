import hashlib

import numpy as np
import pytest

from pumplab.bench import two_stage_suite
from pumplab.formats import write_native
from pumplab.gen import (
    BlockSpec,
    fractional_stall_instance,
    gen_decomposable,
    gen_subset_sum,
    gen_two_stage,
    zero_frac_stall_instance,
)
from pumplab.model import Sense, check_feasible, detect_blocks
from pumplab.perturb import make_rng


def test_subset_sum_draw_order_contract():
    # per block: coefficients first, then the witness bits
    k, n, seed = 3, 4, 17
    res = gen_subset_sum(k, n, make_rng(seed))
    rng = make_rng(seed)
    for i, row in enumerate(res.instance.rows):
        a = rng.integers(1, 21, size=n)
        xs = rng.integers(0, 2, size=n)
        want = {i * n + j: float(a[j]) for j in range(n)}
        assert dict(row.bin_coeffs) == want
        assert row.rhs == float(a @ xs)
        assert row.sense is Sense.EQ
        np.testing.assert_array_equal(res.witness.x[i * n : (i + 1) * n], xs)


def test_witnesses_are_feasible():
    rng = make_rng(40)
    res = gen_subset_sum(2, 5, rng)
    assert check_feasible(res.instance, res.witness)
    res = gen_decomposable(3, BlockSpec(n=4, d=2, rows=3, s=2), rng)
    assert check_feasible(res.instance, res.witness)
    res = gen_two_stage(3, 4, 2, rng)
    assert check_feasible(res.instance, res.witness)


def test_subset_sum_blocks_recoverable():
    inst = gen_subset_sum(4, 3, make_rng(41)).instance
    assert len(inst.blocks) == 4
    assert detect_blocks(inst) == inst.blocks
    assert inst.n == 12 and inst.d == 0


def test_decomposable_shape_and_support():
    spec = BlockSpec(n=5, d=2, rows=3, s=3, coeff_max=7)
    res = gen_decomposable(2, spec, make_rng(42))
    inst = res.instance
    assert inst.n == 10 and inst.d == 4
    assert len(inst.rows) == 6
    assert len(inst.blocks) == 2
    for bi, blk in enumerate(inst.blocks):
        for r in blk.row_idx:
            row = inst.rows[r]
            assert len(row.bin_coeffs) == spec.s
            assert set(row.bin_coeffs) <= set(blk.bin_idx)
            assert set(row.cont_coeffs) <= set(blk.cont_idx)
            assert all(1 <= abs(c) <= spec.coeff_max for c in row.bin_coeffs.values())
            # rhs is the row value at (witness, y = 0), so the witness is tight
            val = sum(c * res.witness.x[j] for j, c in row.bin_coeffs.items())
            assert row.rhs == pytest.approx(val)


def test_two_stage_shares_first_stage_rows():
    k, p, q, r = 3, 4, 2, 2
    res = gen_two_stage(k, p, q, make_rng(43), rows_per_scenario=r)
    inst = res.instance
    assert inst.n == p + k * q and inst.d == 0
    assert len(inst.rows) == k * r
    for t in range(r):
        first_stage = {j: c for j, c in inst.rows[t].bin_coeffs.items() if j < p}
        for i in range(1, k):
            row = inst.rows[i * r + t]
            assert {j: c for j, c in row.bin_coeffs.items() if j < p} == first_stage
            # scenario columns stay inside the scenario's own slice
            scen = {j for j in row.bin_coeffs if j >= p}
            assert scen <= set(range(p + i * q, p + (i + 1) * q))


def test_two_stage_draw_order_contract():
    k, p, q, r, seed = 2, 3, 2, 2, 44
    res = gen_two_stage(k, p, q, make_rng(seed), rows_per_scenario=r)
    rng = make_rng(seed)
    A = rng.integers(-10, 11, size=(r, p))
    D = [rng.integers(-10, 11, size=(r, q)) for _ in range(k)]
    z = rng.integers(0, 2, size=p + k * q)
    np.testing.assert_array_equal(res.witness.x, z.astype(float))
    row = res.instance.rows[0]
    want = {j: float(A[0, j]) for j in range(p) if A[0, j]}
    want.update({p + j: float(D[0][0, j]) for j in range(q) if D[0][0, j]})
    assert dict(row.bin_coeffs) == want


def test_fixed_instances_are_as_documented():
    inst = fractional_stall_instance()
    assert inst.n == 2 and inst.d == 0 and len(inst.rows) == 1
    assert dict(inst.rows[0].bin_coeffs) == {0: 3.0, 1: 1.0}
    assert inst.rows[0].rhs == 3.0 and inst.rows[0].sense is Sense.EQ
    assert dict(inst.objective.bin_coeffs) == {1: 1.0}

    inst = zero_frac_stall_instance(3)
    assert inst.n == 5
    assert dict(inst.rows[0].bin_coeffs) == {0: 5.0, 1: 5.0, 2: 5.0, 3: 5.0, 4: 2.0}
    assert inst.rows[0].rhs == 20.0
    assert dict(inst.objective.bin_coeffs) == {4: 1.0}


def test_generator_validation():
    with pytest.raises(ValueError):
        gen_subset_sum(0, 3, make_rng(0))
    with pytest.raises(ValueError):
        BlockSpec(n=2, s=3)
    with pytest.raises(ValueError):
        gen_two_stage(0, 2, 2, make_rng(0))
    with pytest.raises(ValueError):
        zero_frac_stall_instance(0)


def test_distinct_seeds_give_distinct_instances():
    a = gen_subset_sum(1, 6, make_rng(0)).instance
    b = gen_subset_sum(1, 6, make_rng(1)).instance
    assert write_native(a) != write_native(b)


def _decomp_walk_results() -> list:
    # the instances of perfbench's decomp-walk workload (same generator
    # streams), with their witnesses
    out = []
    for k in (10, 25, 50):
        for n in (3, 4):
            out.append(gen_subset_sum(k, n, make_rng(12345, len(out)), coeff_max=10))
    for k, spec in [(20, BlockSpec(n=5, d=0, rows=2, s=3)), (40, BlockSpec(n=5, d=0, rows=2, s=3)),
                    (10, BlockSpec(n=4, d=1, rows=3, s=2)), (30, BlockSpec(n=4, d=1, rows=3, s=2)),
                    (15, BlockSpec(n=4, d=2, rows=3, s=2)), (45, BlockSpec(n=4, d=2, rows=3, s=2))]:
        out.append(gen_decomposable(k, spec, make_rng(12345, len(out))))
    return out


def _typed(coeffs) -> list:
    return [(type(j).__name__, j, type(v).__name__, v) for j, v in coeffs.items()]


def _instances_digest(instances, witnesses=()) -> str:
    h = hashlib.sha256()
    for inst in instances:
        obj = None if inst.objective is None else (_typed(inst.objective.bin_coeffs),
                                                   _typed(inst.objective.cont_coeffs))
        rows = [(_typed(row.bin_coeffs), _typed(row.cont_coeffs), row.sense.value,
                 type(row.rhs).__name__, row.rhs) for row in inst.rows]
        h.update(repr((inst.name, inst.n, inst.d, rows, obj, inst.blocks, inst.row_origin)).encode())
    for w in witnesses:
        h.update(w.x.tobytes() + b"|" + w.y.tobytes())
    return h.hexdigest()


# _instances_digest per group, as the generators gave them when they built
# the rows from numpy scalars
PINNED_INSTANCES = {
    "two-stage": "c90cd3b032a13250ba9cd5f772d4dbaa4dea7e0519ff87265f0c84ce8747ac10",
    "decomp-walk": "1eab7e8956aa857a0faf8a08a7baa0bcaec72578e1f1b321f91548f5e2468015",
    "traps": "f425c46cdcc834ec9fa2f7491553079bbf6e6f9b4414a20ad4c034b83376de85",
}


def test_benchmark_instances_are_pinned():
    # the two-stage grid, the decomp-walk instances (with their witnesses)
    # and the traps instances, bit for bit: names, rows with the types of
    # their keys and values, blocks and row origins
    decomp = _decomp_walk_results()
    traps = [fractional_stall_instance()] + [zero_frac_stall_instance(t) for t in (2, 3, 4, 5, 6)]
    got = {
        "two-stage": _instances_digest(two_stage_suite()),
        "decomp-walk": _instances_digest([r.instance for r in decomp], [r.witness for r in decomp]),
        "traps": _instances_digest(traps),
    }
    assert got == PINNED_INSTANCES
