import numpy as np
import pytest

from pumplab.errors import DimensionMismatch, InvalidInstance
from pumplab.gen import fractional_stall_instance, gen_subset_sum, gen_two_stage
from pumplab.model import (
    Block,
    LinearRow,
    MixedBinaryInstance,
    MixedPoint,
    Objective,
    Sense,
    check_feasible,
    detect_blocks,
    normalize,
)
from pumplab.perturb import make_rng


def single_eq_instance():
    # 3 x1 + x2 = 3 over two binaries, objective max x2
    return fractional_stall_instance()


def test_linear_row_drops_zeros_and_sorts():
    row = LinearRow({3: 1.0, 1: 0.0, 0: 2.0}, {}, Sense.LE, 4.0)
    assert tuple(row.bin_coeffs) == (0, 3)
    assert 1 not in row.bin_coeffs


def test_linear_row_rejects_nonfinite():
    with pytest.raises(InvalidInstance):
        LinearRow({0: np.inf}, {}, Sense.LE, 0.0)
    with pytest.raises(InvalidInstance):
        LinearRow({0: 1.0}, {}, Sense.LE, np.nan)


def test_instance_rejects_out_of_range_columns():
    row = LinearRow({5: 1.0}, {}, Sense.LE, 1.0)
    with pytest.raises(InvalidInstance):
        MixedBinaryInstance(name="bad", n=2, d=0, rows=(row,))
    row = LinearRow({}, {1: 1.0}, Sense.LE, 1.0)
    with pytest.raises(InvalidInstance):
        MixedBinaryInstance(name="bad", n=0, d=1, rows=(row,))


def test_instance_rejects_bad_block_partition():
    rows = (LinearRow({0: 1.0}, {}, Sense.LE, 1.0), LinearRow({1: 1.0}, {}, Sense.LE, 1.0))
    with pytest.raises(InvalidInstance):
        MixedBinaryInstance(
            name="bad", n=2, d=0, rows=rows,
            blocks=(Block((0,), (), (0,)), Block((0, 1), (), (1,))),
        )


def test_normalize_flips_ge_row():
    inst = MixedBinaryInstance(
        name="ge", n=2, d=0,
        rows=(LinearRow({0: 1.0, 1: 1.0}, {}, Sense.GE, 1.0),),
    )
    norm = normalize(inst)
    assert len(norm.rows) == 1
    row = norm.rows[0]
    assert row.sense == Sense.LE
    assert row.bin_coeffs == {0: -1.0, 1: -1.0}
    assert row.rhs == -1.0


def test_normalize_splits_eq_row_into_two_directions():
    norm = normalize(single_eq_instance())
    assert [r.sense for r in norm.rows] == [Sense.LE, Sense.LE]
    assert norm.rows[0].bin_coeffs == {0: 3.0, 1: 1.0} and norm.rows[0].rhs == 3.0
    assert norm.rows[1].bin_coeffs == {0: -3.0, 1: -1.0} and norm.rows[1].rhs == -3.0
    # origin map points both rows at the single source row with its direction
    assert norm.row_origin == ((0, 1), (0, -1))


def test_normalize_identity_on_le_instance():
    inst = MixedBinaryInstance(
        name="le", n=1, d=0, rows=(LinearRow({0: 1.0}, {}, Sense.LE, 1.0),)
    )
    norm = normalize(inst)
    assert norm.rows == inst.rows
    assert normalize(norm) == norm  # idempotent, origin map kept


def test_normalize_idempotent_on_generated_instances():
    for seed in range(10):
        inst = gen_subset_sum(2, 3, make_rng(seed)).instance
        once = normalize(inst)
        assert normalize(once) == once


def test_check_feasible_on_eq_instance():
    inst = single_eq_instance()
    assert check_feasible(inst, MixedPoint(np.array([1.0, 0.0]), np.zeros(0)))
    assert not check_feasible(inst, MixedPoint(np.array([1.0, 1.0]), np.zeros(0)))


def test_check_feasible_empty_rows_and_mismatch():
    inst = MixedBinaryInstance(name="empty", n=2, d=0, rows=())
    assert check_feasible(inst, MixedPoint(np.array([0.0, 1.0]), np.zeros(0)))
    with pytest.raises(DimensionMismatch):
        check_feasible(inst, MixedPoint(np.array([0.0]), np.zeros(0)))


def test_check_feasible_agrees_after_normalize():
    rng = make_rng(11)
    for seed in range(20):
        inst = gen_subset_sum(2, 4, make_rng(seed)).instance
        norm = normalize(inst)
        for _ in range(10):
            x = rng.integers(0, 2, inst.n).astype(float)
            pt = MixedPoint(x, np.zeros(0))
            assert check_feasible(inst, pt) == check_feasible(norm, pt)


def test_detect_blocks_on_separable_rows():
    inst = gen_subset_sum(3, 4, make_rng(5)).instance
    blocks = detect_blocks(MixedBinaryInstance(
        name=inst.name, n=inst.n, d=inst.d, rows=inst.rows))  # strip metadata
    assert len(blocks) == 3
    allb = sorted(j for blk in blocks for j in blk.bin_idx)
    allr = sorted(r for blk in blocks for r in blk.row_idx)
    assert allb == list(range(inst.n))
    assert allr == list(range(len(inst.rows)))


def test_detect_blocks_recovers_generator_metadata():
    res = gen_subset_sum(4, 3, make_rng(9))
    inst = res.instance
    assert detect_blocks(inst) == inst.blocks


def test_detect_blocks_dense_row_is_one_block():
    inst = MixedBinaryInstance(
        name="dense", n=4, d=0,
        rows=(LinearRow({j: 1.0 for j in range(4)}, {}, Sense.LE, 2.0),),
    )
    assert len(detect_blocks(inst)) == 1


def test_detect_blocks_two_stage_is_coupled():
    inst = gen_two_stage(3, 4, 2, make_rng(3)).instance
    assert len(detect_blocks(inst)) == 1
