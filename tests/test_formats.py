import hashlib
from pathlib import Path

import numpy as np
import pytest

from pumplab import pump
from pumplab.errors import FormatError
from pumplab.formats import parse_mps, read_native, write_mps, write_native
from pumplab.gen import (
    BlockSpec,
    fractional_stall_instance,
    gen_decomposable,
    gen_subset_sum,
    gen_two_stage,
    zero_frac_stall_instance,
)
from pumplab.model import Sense
from pumplab.perturb import make_rng

DATA = Path(__file__).parent / "data"


def random_instances(count, seed):
    rng = make_rng(seed)
    for trial in range(count):
        pick = trial % 3
        if pick == 0:
            yield gen_subset_sum(int(rng.integers(1, 4)), int(rng.integers(2, 6)), rng).instance
        elif pick == 1:
            spec = BlockSpec(n=int(rng.integers(2, 5)), d=int(rng.integers(0, 3)),
                             rows=int(rng.integers(1, 4)), s=2)
            yield gen_decomposable(int(rng.integers(1, 4)), spec, rng).instance
        else:
            yield gen_two_stage(int(rng.integers(1, 4)), int(rng.integers(2, 5)),
                                int(rng.integers(1, 4)), rng).instance


def assert_same_instance(a, b, check_blocks=True):
    assert a.n == b.n and a.d == b.d
    assert a.name == b.name
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert dict(ra.bin_coeffs) == pytest.approx(dict(rb.bin_coeffs))
        assert dict(ra.cont_coeffs) == pytest.approx(dict(rb.cont_coeffs))
        assert ra.sense is rb.sense
        assert ra.rhs == pytest.approx(rb.rhs)
    if check_blocks:
        assert a.blocks == b.blocks
    if a.objective is None:
        assert b.objective is None
    else:
        assert dict(a.objective.bin_coeffs) == pytest.approx(dict(b.objective.bin_coeffs))
        assert dict(a.objective.cont_coeffs) == pytest.approx(dict(b.objective.cont_coeffs))


def test_native_round_trip_many():
    for inst in random_instances(100, 50):
        back = read_native(write_native(inst))
        assert_same_instance(inst, back)
        assert write_native(back) == write_native(inst)


def test_native_golden_files_stay_stable():
    golden = (DATA / "fractional_stall.pl").read_text()
    assert write_native(fractional_stall_instance()) == golden
    inst = gen_decomposable(2, BlockSpec(n=2, d=1, rows=1, s=2), make_rng(8)).instance
    assert write_native(inst) == (DATA / "decomp_two_blocks.pl").read_text()
    assert_same_instance(read_native(golden), fractional_stall_instance())


def test_native_accepts_comments_and_blanks():
    text = (
        "pumplab 1\n# a comment\nname c\n\ncols 2 0\n"
        "row <= 1.0 b0:1.0 b1:1.0\nend\n"
    )
    inst = read_native(text)
    assert inst.name == "c" and inst.n == 2 and len(inst.rows) == 1


def test_native_error_positions():
    with pytest.raises(FormatError) as e:
        read_native("pumplab 2\n")
    assert e.value.line_no == 1
    with pytest.raises(FormatError) as e:
        read_native("pumplab 1\nname x\ncols 1 0\nwat 3\nend\n")
    assert e.value.line_no == 4
    with pytest.raises(FormatError) as e:
        read_native("pumplab 1\nname x\ncols 1 0\nrow <= 1.0 b0:oops\nend\n")
    assert e.value.line_no == 4
    with pytest.raises(FormatError) as e:
        read_native("pumplab 1\nname x\ncols 1 0\nend\nrow <= 1.0 b0:1.0\n")
    assert e.value.line_no == 5
    with pytest.raises(FormatError):
        read_native("pumplab 1\nname x\ncols 1 0\n")        # no end
    with pytest.raises(FormatError):
        read_native("pumplab 1\ncols 1 0\nend\n")           # no name


@pytest.mark.parametrize("text, line_no", [
    ("pumplab 1\nname x\ncols a 0\nend\n", 3),
    ("pumplab 1\nname x\ncols 1 0\nrow <= abc b0:1\nend\n", 4),
], ids=["cols", "rhs"])
def test_native_bad_numbers_name_their_line(text, line_no):
    # `cols a 0` and a non-numeric rhs used to raise a bare ValueError
    with pytest.raises(FormatError) as e:
        read_native(text)
    assert e.value.line_no == line_no


_MPS_HEAD = "NAME m\nROWS\n N  OBJ\n L  R0\nCOLUMNS\n"


@pytest.mark.parametrize("text, line_no", [
    (_MPS_HEAD + "    x0 R0 abc\nENDATA\n", 6),
    (_MPS_HEAD + "    x0 R0 1.0\nRHS\n    RHS R0 1e\nENDATA\n", 8),
    (_MPS_HEAD + "    x0 R0 1.0\nBOUNDS\n UP BND x0 zz\nENDATA\n", 8),
    (_MPS_HEAD + "    x0 R0 1.0\nBOUNDS\n UP BND x0\nENDATA\n", 8),
], ids=["columns", "rhs", "bounds", "bounds-missing-value"])
def test_mps_bad_numbers_name_their_line(text, line_no):
    # a non-numeric COLUMNS, RHS or BOUNDS value used to raise a bare ValueError
    with pytest.raises(FormatError) as e:
        parse_mps(text)
    assert e.value.line_no == line_no


def test_mps_round_trip_drops_only_blocks():
    for inst in random_instances(60, 51):
        back = parse_mps(write_mps(inst))
        assert_same_instance(inst, back, check_blocks=False)


def test_hand_written_mps_matches_builtin_instance():
    inst = parse_mps((DATA / "stall_freeform.mps").read_text())
    ref = fractional_stall_instance()
    assert inst.name == "STALL"
    assert inst.n == ref.n and inst.d == ref.d
    assert len(inst.rows) == 1
    assert dict(inst.rows[0].bin_coeffs) == dict(ref.rows[0].bin_coeffs)
    assert inst.rows[0].sense is Sense.EQ
    assert inst.rows[0].rhs == 3.0
    assert dict(inst.objective.bin_coeffs) == {1: 1.0}


def test_mps_min_objective_is_negated():
    text = (
        "NAME m\nROWS\n N obj\n L r1\nCOLUMNS\n"
        "    MARKER 'MARKER' 'INTORG'\n"
        "    x r1 1.0 obj 2.0\n"
        "    MARKER 'MARKER' 'INTEND'\n"
        "RHS\n    rhs r1 1.0\nENDATA\n"
    )
    inst = parse_mps(text)
    assert dict(inst.objective.bin_coeffs) == {0: -2.0}


def test_mps_continuous_bounds_become_rows():
    text = (
        "NAME b\nROWS\n L r1\nCOLUMNS\n"
        "    y r1 1.0\n"
        "RHS\n    rhs r1 4.0\nBOUNDS\n"
        " LO bnd y -2.0\n UP bnd y 3.0\nENDATA\n"
    )
    inst = parse_mps(text)
    assert inst.n == 0 and inst.d == 1
    assert len(inst.rows) == 3
    lo, up = inst.rows[1], inst.rows[2]
    assert dict(lo.cont_coeffs) == {0: -1.0} and lo.rhs == 2.0
    assert dict(up.cont_coeffs) == {0: 1.0} and up.rhs == 3.0

    free = parse_mps(text.replace(" LO bnd y -2.0\n UP bnd y 3.0\n", " FR bnd y\n"))
    assert len(free.rows) == 1

    # default bounds for a continuous column are [0, inf): one fold row
    plain = parse_mps(text.replace("BOUNDS\n LO bnd y -2.0\n UP bnd y 3.0\n", ""))
    assert len(plain.rows) == 2
    assert dict(plain.rows[1].cont_coeffs) == {0: -1.0} and plain.rows[1].rhs == 0.0


def test_mps_duplicate_entries_accumulate():
    text = (
        "NAME dup\nROWS\n L r1\nCOLUMNS\n"
        "    MARKER 'MARKER' 'INTORG'\n"
        "    x r1 1.0\n"
        "    x r1 2.5\n"
        "    MARKER 'MARKER' 'INTEND'\n"
        "RHS\n    rhs r1 5.0\nENDATA\n"
    )
    inst = parse_mps(text)
    assert dict(inst.rows[0].bin_coeffs) == {0: 3.5}


def test_mps_rejections():
    with pytest.raises(FormatError):
        parse_mps("NAME r\nROWS\n L r1\nRANGES\nENDATA\n")
    with pytest.raises(FormatError):
        parse_mps("NAME e\nROWS\n L r1\nCOLUMNS\nRHS\n    rhs r1 1.0\nENDATA\n")
    with pytest.raises(FormatError) as e:
        parse_mps("NAME u\nROWS\n L r1\nCOLUMNS\n    x r2 1.0\nENDATA\n")
    assert e.value.line_no == 5
    with pytest.raises(FormatError) as e:
        parse_mps(
            "NAME i\nROWS\n L r1\nCOLUMNS\n"
            "    MARKER 'MARKER' 'INTORG'\n    x r1 1.0\n    MARKER 'MARKER' 'INTEND'\n"
            "RHS\n    rhs r1 1.0\nBOUNDS\n UP bnd x 2.0\nENDATA\n"
        )  # integer column with an upper bound of 2 is not binary
    assert e.value.line_no == 11
    with pytest.raises(FormatError) as e:
        parse_mps("NAME b\nROWS\n L r1\nCOLUMNS\n    y r1 1.0\nBOUNDS\n UP bnd y 1.0\n FR bnd z\nENDATA\n")
    assert e.value.line_no == 8     # bounds for a column COLUMNS never named
    with pytest.raises(FormatError) as e:
        parse_mps("NAME b\nROWS\n L r1\nCOLUMNS\n    y r1 1.0\nBOUNDS\n LO bnd y 1.0\n BV bnd y\nENDATA\n")
    assert e.value.line_no == 8     # BV on a continuous column


@pytest.mark.parametrize("text, line_no", [
    ("NAME d\nROWS\n L r1\n G r2\n L r1\nCOLUMNS\n    x r1 1.0\nENDATA\n", 5),
    ("NAME s\nOBJSENSE FOO\nROWS\n L r1\nCOLUMNS\n    x r1 1.0\nENDATA\n", 2),
    ("NAME s\nOBJSENSE\n    MAXIMUM\nROWS\n L r1\nCOLUMNS\n    x r1 1.0\nENDATA\n", 3),
    ("NAME e\nROWS\n L r1\nCOLUMNS\nRHS\n    rhs r1 1.0\nENDATA\n", 7),
    ("NAME b\nROWS\n L r1\nBOUNDS\n UP bnd y 3.0\nCOLUMNS\n    y r1 1.0\nENDATA\n", 5),
], ids=["repeated-row", "objsense-header", "objsense-line", "empty-columns", "bounds-before-columns"])
def test_mps_declared_rejections(text, line_no):
    # a repeated row name used to give two rows, an unknown OBJSENSE to mean
    # minimize, an empty COLUMNS section to report line 0, and a BOUNDS
    # section ahead of COLUMNS to be applied after it
    with pytest.raises(FormatError) as e:
        parse_mps(text)
    assert e.value.line_no == line_no


@pytest.mark.parametrize("head, sign", [
    ("OBJSENSE MAXIMIZE\n", 1.0), ("OBJSENSE\n    MAX\n", 1.0),
    ("OBJSENSE MIN\n", -1.0), ("OBJSENSE\n    minimize\n", -1.0), ("", -1.0),
])
def test_mps_objsense_values(head, sign):
    text = "NAME s\n" + head + "ROWS\n N obj\n L r1\nCOLUMNS\n    x r1 1.0 obj 2.0\nENDATA\n"
    assert dict(parse_mps(text).objective.cont_coeffs) == {0: sign * 2.0}


def test_write_mps_emits_dummy_entry_for_empty_columns():
    # a column appearing in no row must still be declared in COLUMNS
    inst = gen_subset_sum(1, 2, make_rng(52)).instance
    from pumplab.model import MixedBinaryInstance

    wider = MixedBinaryInstance(name=inst.name, n=3, d=0, rows=inst.rows)
    text = write_mps(wider)
    back = parse_mps(text)
    assert back.n == 3
    assert_same_instance(wider, back, check_blocks=False)


def _pinned_mps_instances():
    yield from random_instances(60, 51)
    yield fractional_stall_instance()
    yield zero_frac_stall_instance(3)
    yield read_native((DATA / "fractional_stall.pl").read_text())
    yield read_native((DATA / "decomp_two_blocks.pl").read_text())
    yield parse_mps((DATA / "stall_freeform.mps").read_text())


# sha256 of every write_mps text of _pinned_mps_instances, in order
PINNED_MPS = "10ea7f4efc83bbf28cee90947e210ca3710bfa0762c935025e22a4b8cc0e420d"


def test_write_mps_bytes_are_pinned():
    h = hashlib.sha256()
    for inst in _pinned_mps_instances():
        h.update(write_mps(inst).encode())
    assert h.hexdigest() == PINNED_MPS


@pytest.mark.parametrize("alg", sorted(pump.ALGORITHMS))
def test_mps_round_trip_runs_the_same_trace(alg):
    inst = gen_decomposable(3, BlockSpec(n=4, d=1, rows=2, s=2), make_rng(53)).instance
    back = parse_mps(write_mps(inst))
    want = pump.run(alg, inst, make_rng(7), max_iter=300).to_lines()
    assert pump.run(alg, back, make_rng(7), max_iter=300).to_lines() == want


def test_mps_extra_n_rows_are_free_rows():
    # N rows after the first are free rows: their COLUMNS and RHS entries are dropped
    text = (
        "NAME f\nROWS\n N cost\n N other\n L r1\nCOLUMNS\n"
        "    x r1 1.0 other 2.0\n    x cost 3.0\n    y other 5.0\n"
        "RHS\n    rhs r1 4.0 other 7.0\nBOUNDS\n FR bnd x\n FR bnd y\nENDATA\n"
    )
    inst = parse_mps(text)
    assert inst.n == 0 and inst.d == 2
    assert len(inst.rows) == 1
    assert dict(inst.rows[0].cont_coeffs) == {0: 1.0} and inst.rows[0].rhs == 4.0
    assert dict(inst.objective.cont_coeffs) == {0: -3.0}
    # a repeated name is still rejected, for a free row too
    for rows in (" N cost\n N other\n N other\n", " N cost\n N other\n L other\n", " N cost\n N cost\n"):
        with pytest.raises(FormatError, match="declared twice"):
            parse_mps("NAME f\nROWS\n" + rows + " L r1\nCOLUMNS\n    x r1 1.0\nENDATA\n")


def test_mps_negative_upper_bound_frees_an_unset_lower_bound():
    base = "NAME u\nROWS\n L r1\nCOLUMNS\n    y r1 1.0\nRHS\n    rhs r1 4.0\nBOUNDS\n"
    inst = parse_mps(base + " UP bnd y -2.0\nENDATA\n")
    assert len(inst.rows) == 2            # y <= -2 only, with no lower-bound row
    assert dict(inst.rows[1].cont_coeffs) == {0: 1.0} and inst.rows[1].rhs == -2.0
    # a lower bound set by a BOUNDS line, before or after, is kept
    for bounds in (" LO bnd y -5.0\n UP bnd y -2.0\n", " UP bnd y -2.0\n LO bnd y -5.0\n"):
        rows = parse_mps(base + bounds + "ENDATA\n").rows
        assert [(dict(r.cont_coeffs), r.rhs) for r in rows[1:]] == [({0: -1.0}, 5.0), ({0: 1.0}, -2.0)]
    # an explicit LO 0 stays, infeasible as the file states it
    rows = parse_mps(base + " LO bnd y 0.0\n UP bnd y -2.0\nENDATA\n").rows
    assert [(dict(r.cont_coeffs), r.rhs) for r in rows[1:]] == [({0: -1.0}, -0.0), ({0: 1.0}, -2.0)]
    # a nonnegative UP keeps the default lower bound 0
    rows = parse_mps(base + " UP bnd y 2.0\nENDATA\n").rows
    assert [(dict(r.cont_coeffs), r.rhs) for r in rows[1:]] == [({0: -1.0}, -0.0), ({0: 1.0}, 2.0)]
