import hashlib

import numpy as np
import pytest

from pumplab.errors import DimensionMismatch, InvalidInstance
from pumplab.gen import (
    BlockSpec,
    fractional_stall_instance,
    gen_decomposable,
    gen_subset_sum,
    gen_two_stage,
    zero_frac_stall_instance,
)
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


def test_normalize_sorts_block_rows_of_an_all_le_instance():
    # as on instances with >= or = rows, each block's rows come out sorted
    rows = (LinearRow({0: 1.0}, {}, Sense.LE, 1.0), LinearRow({1: 1.0}, {}, Sense.LE, 1.0))
    inst = MixedBinaryInstance(name="le2", n=2, d=0, rows=rows, blocks=(Block((0, 1), (), (1, 0)),))
    norm = normalize(inst)
    assert norm.rows == rows and norm.row_origin == ((0, 1), (1, 1))
    assert norm.blocks == (Block((0, 1), (), (0, 1)),)


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


def _mixed_sense_instance(rng, i):
    # rows of random senses over n binaries and d continuous columns, in
    # blocks of up to three rows whose row tuples are sorted
    n, d, m = int(rng.integers(1, 6)), int(rng.integers(0, 3)), int(rng.integers(0, 7))
    rows = []
    for _ in range(m):
        cb = {j: float(v) for j, v in enumerate(rng.integers(-4, 5, size=n).tolist())}
        cc = {j: float(v) / 2 for j, v in enumerate(rng.integers(-4, 5, size=d).tolist())}
        sense = (Sense.LE, Sense.GE, Sense.EQ)[int(rng.integers(0, 3))]
        rows.append(LinearRow(cb, cc, sense, float(rng.integers(-6, 7)) / 4))
    blocks = None
    if i % 2 and m:
        blocks = (Block(tuple(range(n)), tuple(range(d)), tuple(range(m))),)
    return MixedBinaryInstance(name=f"mixed{i}", n=n, d=d, rows=tuple(rows), blocks=blocks)


def _normal_form(inst):
    # every field of a normalized instance, floats as hex
    def row(r):
        return (sorted((j, v.hex()) for j, v in r.bin_coeffs.items()),
                sorted((j, v.hex()) for j, v in r.cont_coeffs.items()), r.sense.value, r.rhs.hex())

    return repr((inst.name, inst.n, inst.d, [row(r) for r in inst.rows], inst.objective,
                 inst.blocks, inst.row_origin))


def test_normalize_digest():
    # generated and mixed-sense instances, normalized once and twice; the
    # digest was taken from the code before normalize became one loop
    rng = make_rng(2024)
    insts = [gen_subset_sum(k, n, make_rng(k, n)).instance for k in (1, 2, 3) for n in (3, 5)]
    insts += [gen_two_stage(k, 4, 3, make_rng(k)).instance for k in (1, 2, 4)]
    insts += [gen_decomposable(k, BlockSpec(n=4, d=d, rows=3, s=2), make_rng(k, d)).instance
              for k in (1, 3) for d in (0, 2)]
    insts += [fractional_stall_instance(), zero_frac_stall_instance(4)]
    insts += [_mixed_sense_instance(rng, i) for i in range(120)]
    digest = hashlib.sha256()
    for inst in insts:
        once = normalize(inst)
        assert normalize(once) is once
        digest.update(_normal_form(once).encode())
    assert digest.hexdigest() == "0b770f01aba36df1d4cb5f331651b8f93b1d4147d0f35f94fd6f3d7a142391b9"
