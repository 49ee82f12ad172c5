import dataclasses
import hashlib
import pickle
import tracemalloc

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
from pumplab.bench import two_stage_suite
from pumplab.model import (
    EMPTY_COEFFS,
    Block,
    CoeffMap,
    LinearRow,
    MixedBinaryInstance,
    MixedPoint,
    Objective,
    Sense,
    check_feasible,
    coeff_rows,
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


def test_coeff_map_reads_and_compares_like_its_dict():
    source = {7: -2.5, 2: 1.0, 4: 3.0}
    row = LinearRow(source, {}, Sense.LE, 1.0)
    coeffs = row.bin_coeffs
    assert isinstance(coeffs, CoeffMap)
    assert coeffs == source and source == coeffs
    assert coeffs != {2: 1.0, 4: 3.0} and {2: 1.0, 4: 3.0} != coeffs
    assert list(coeffs) == [2, 4, 7] and len(coeffs) == 3
    assert repr(coeffs) == repr(dict(sorted(source.items()))) == "{2: 1.0, 4: 3.0, 7: -2.5}"
    assert [(type(j), type(v)) for j, v in coeffs.items()] == [(int, float)] * 3
    assert coeffs[4] == 3.0 and coeffs[np.int64(7)] == -2.5 and 7 in coeffs
    assert coeffs.get(3) is None and 3 not in coeffs and "a" not in coeffs
    with pytest.raises(KeyError):
        coeffs[3]
    assert pickle.loads(pickle.dumps(row)) == row


def test_coeff_map_is_read_only():
    coeffs = LinearRow({0: 1.0, 3: 2.0}, {}, Sense.LE, 1.0).bin_coeffs
    assert coeffs.idx.dtype == np.int64 and coeffs.val.dtype == np.float64
    for arr in (coeffs.idx, coeffs.val):
        with pytest.raises(ValueError):
            arr[0] = 5
    with pytest.raises(AttributeError):
        coeffs.val = np.zeros(2)
    copied = pickle.loads(pickle.dumps(coeffs))
    assert copied == coeffs and not copied.val.flags.writeable


def test_empty_coeff_maps_are_shared():
    row = LinearRow({0: 0.0}, {}, Sense.LE, 1.0)
    assert row.bin_coeffs is EMPTY_COEFFS and row.cont_coeffs is EMPTY_COEFFS
    assert Objective({1: 1.0}).cont_coeffs is EMPTY_COEFFS
    assert gen_two_stage(2, 3, 2, make_rng(1)).instance.rows[0].cont_coeffs is EMPTY_COEFFS
    assert pickle.loads(pickle.dumps(row)).bin_coeffs is EMPTY_COEFFS
    assert EMPTY_COEFFS == {} and len(EMPTY_COEFFS) == 0


def test_replace_reuses_rows_and_maps():
    inst = gen_decomposable(2, BlockSpec(n=3, d=1, rows=2, s=2), make_rng(4)).instance
    renamed = dataclasses.replace(inst, name="renamed")
    assert all(a is b for a, b in zip(renamed.rows, inst.rows))
    row = inst.rows[0]
    moved = dataclasses.replace(row, rhs=row.rhs + 1.0)
    assert moved.bin_coeffs is row.bin_coeffs and moved.cont_coeffs is row.cont_coeffs


def test_coeff_rows_checks_its_arrays():
    rows = coeff_rows(np.array([0, 2, 1, 3]), np.array([1.0, 0.0, 2.0, 5.0]), [2, 0, 2], "binary")
    assert rows == [{0: 1.0}, {}, {1: 2.0, 3: 5.0}] and rows[1] is EMPTY_COEFFS
    assert rows[2].idx.base is rows[0].idx.base    # views into one array
    for idx, val, counts, msg in [
        ([0, -1], [1.0, 1.0], [2], "index -1 is not a nonnegative int"),
        ([0.5], [1.0], [1], "is not a nonnegative int"),
        ([2, 1], [1.0, 1.0], [2], "not strictly increasing"),
        ([1, 1], [1.0, 1.0], [2], "not strictly increasing"),
        ([0, 1], [1.0, np.inf], [2], "coefficient at 1 is not finite"),
        ([0, 1], [1.0, 1.0], [1], "do not match the row counts"),
    ]:
        with pytest.raises(InvalidInstance, match=msg):
            coeff_rows(np.array(idx), np.array(val), counts, "binary")


def test_two_stage_suite_memory_is_at_most_half_the_dict_rows():
    # rows kept as dicts of Python ints and floats held 11.7 MB here
    two_stage_suite(ks=(5,), ps=(10,), per_config=1)    # imports made on first use
    tracemalloc.start()
    try:
        suite = two_stage_suite()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(inst.m for inst in suite) == 6250
    assert held <= 11.7e6 / 2


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
    # an index past int64 is refused with the row, not with numpy's OverflowError
    with pytest.raises(InvalidInstance, match="does not fit in int64"):
        LinearRow({2**64: 1.0}, {}, Sense.LE, 1.0)


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


def _blocks_by_search(inst):
    # reference for detect_blocks: grow each component from its first
    # unseen node, binary columns first, then continuous ones, then rows
    n, d = inst.n, inst.d
    row_cols = [[j for j in row.bin_coeffs] + [n + j for j in row.cont_coeffs] for row in inst.rows]
    col_rows = {}
    for r, cols in enumerate(row_cols):
        for c in cols:
            col_rows.setdefault(c, []).append(r)
    seen_cols, seen_rows, blocks = set(), set(), []
    for start in [("c", c) for c in range(n + d)] + [("r", r) for r in range(inst.m)]:
        if start[1] in (seen_cols if start[0] == "c" else seen_rows):
            continue
        cols, rows, todo = set(), set(), [start]
        while todo:
            kind, v = todo.pop()
            if kind == "c" and v not in cols:
                cols.add(v)
                todo += [("r", r) for r in col_rows.get(v, ())]
            elif kind == "r" and v not in rows:
                rows.add(v)
                todo += [("c", c) for c in row_cols[v]]
        seen_cols |= cols
        seen_rows |= rows
        blocks.append(Block(tuple(sorted(c for c in cols if c < n)),
                            tuple(sorted(c - n for c in cols if c >= n)), tuple(sorted(rows))))
    return tuple(blocks)


def _feasible_by_rows(inst, x, y, tol):
    # reference for check_feasible: one row at a time
    if np.any(x < -tol) or np.any(x > 1.0 + tol):
        return False
    for row in inst.rows:
        lhs = sum(v * x[j] for j, v in row.bin_coeffs.items())
        lhs += sum(v * y[j] for j, v in row.cont_coeffs.items())
        if {Sense.LE: lhs > row.rhs + tol, Sense.GE: lhs < row.rhs - tol,
                Sense.EQ: abs(lhs - row.rhs) > tol}[row.sense]:
            return False
    return True


def test_detect_blocks_and_check_feasible_match_row_loops():
    rng = make_rng(77)
    insts = [_mixed_sense_instance(rng, i) for i in range(60)]
    insts += [gen_decomposable(k, BlockSpec(n=3, d=d, rows=2, s=2), make_rng(k, d)).instance
              for k in (1, 4) for d in (0, 1)]
    for inst in insts:
        bare = MixedBinaryInstance(name=inst.name, n=inst.n, d=inst.d, rows=inst.rows)
        assert detect_blocks(bare) == _blocks_by_search(bare)
        for _ in range(6):
            x = rng.integers(0, 2, inst.n).astype(float)
            y = rng.integers(-2, 3, inst.d) / 2
            for tol in (0.0, 1e-9):
                assert check_feasible(inst, MixedPoint(x, y), tol) == _feasible_by_rows(inst, x, y, tol)


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
