"""Instance model for mixed-binary linear programs.

An instance describes a polytope

    P = { (x, y) in [0,1]^n x R^d : rows hold },

where the n leading columns are binary decision columns (relaxed to [0,1])
and the d trailing columns are continuous. Rows are sparse linear
constraints with sense <=, >= or =. Everything downstream (projection,
certificates, pumps) works on the normalized all-<= form produced by
:func:`normalize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Mapping
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, InvalidInstance


class Sense(str, Enum):
    LE = "<="
    GE = ">="
    EQ = "="

    def __str__(self) -> str:
        return self.value


class CoeffMap(Mapping):
    """The coefficients of one row or objective, read-only.

    `idx` holds the sorted int64 column indices and `val` their float64
    coefficients, none of them zero; both arrays are read-only. The map
    reads and compares like the dict {idx[i]: val[i]} in index order, with
    Python ints and floats as its keys and values. Maps are built by
    LinearRow and Objective from a dict, or by coeff_rows from arrays,
    which check their input; all empty maps are EMPTY_COEFFS.
    """

    __slots__ = ("idx", "val")

    def __init__(self, idx: np.ndarray, val: np.ndarray):
        idx.flags.writeable = False
        val.flags.writeable = False
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "val", val)

    def __setattr__(self, name, value):
        raise AttributeError("CoeffMap is read-only")

    def __reduce__(self):
        return (_coeff_map, (self.idx, self.val))

    def __getitem__(self, j) -> float:
        if isinstance(j, (int, np.integer)):
            pos = int(self.idx.searchsorted(j))
            if pos < len(self.idx) and self.idx[pos] == j:
                return float(self.val[pos])
        raise KeyError(j)

    def __iter__(self):
        return iter(self.idx.tolist())

    def __len__(self) -> int:
        return len(self.idx)

    def _dict(self) -> dict[int, float]:
        return dict(zip(self.idx.tolist(), self.val.tolist()))

    def items(self):
        return self._dict().items()

    def __repr__(self) -> str:
        return repr(self._dict())


def _coeff_map(idx: np.ndarray, val: np.ndarray) -> CoeffMap:
    # unpickling: empty maps are the shared one again
    return CoeffMap(idx, val) if len(idx) else EMPTY_COEFFS


EMPTY_COEFFS = CoeffMap(np.zeros(0, dtype=np.int64), np.zeros(0))


def coeff_rows(idx, val, counts, what: str) -> list[CoeffMap]:
    """One CoeffMap per row of a flat listing: row r is the next counts[r]
    (index, value) pairs of idx and val.

    Indices must be nonnegative integers, strictly increasing within each
    row, and values finite; zero values are dropped. The maps are views
    into one read-only copy of the arrays.
    """
    idx = np.asarray(idx)
    val = np.asarray(val, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    if idx.shape != val.shape or idx.ndim != 1 or (counts < 0).any() or total != len(idx):
        raise InvalidInstance(f"{what} index and value arrays do not match the row counts")
    if len(idx):
        if idx.dtype.kind not in "iu":
            raise InvalidInstance(f"{what} index {idx[0]!r} is not a nonnegative int")
        idx = idx.astype(np.int64, copy=False)
        if idx.min() < 0:
            raise InvalidInstance(f"{what} index {int(idx.min())!r} is not a nonnegative int")
        step = np.ones(len(idx), dtype=bool)
        step[1:] = idx[1:] > idx[:-1]
        step[ends[:-1][counts[1:] > 0]] = True    # a row's first entry follows nothing
        if not step.all():
            raise InvalidInstance(f"{what} indices of a row are not strictly increasing")
        bad = np.flatnonzero(~np.isfinite(val))
        if len(bad):
            raise InvalidInstance(f"{what} coefficient at {int(idx[bad[0]])} is not finite")
    keep = val != 0.0
    kept = np.concatenate(([0], np.cumsum(keep)))
    bounds = kept[np.concatenate(([0], ends))].tolist()
    idx = idx[keep].astype(np.int64, copy=False)
    val = val[keep]
    idx.flags.writeable = False
    val.flags.writeable = False
    return [CoeffMap(idx[lo:hi], val[lo:hi]) if hi > lo else EMPTY_COEFFS
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _clean_coeffs(coeffs: Mapping[int, float], what: str) -> CoeffMap:
    # sorted support, no explicit zeros, finite floats only
    if isinstance(coeffs, CoeffMap):
        return coeffs    # checked when it was built
    idxs: list[int] = []
    vals: list[float] = []
    for idx in sorted(coeffs):
        if not isinstance(idx, (int, np.integer)) or idx < 0:
            raise InvalidInstance(f"{what} index {idx!r} is not a nonnegative int")
        val = float(coeffs[idx])
        if not math.isfinite(val):
            raise InvalidInstance(f"{what} coefficient at {idx} is not finite")
        if val != 0.0:
            idxs.append(int(idx))
            vals.append(val)
    if not idxs:
        return EMPTY_COEFFS
    try:
        return CoeffMap(np.array(idxs, dtype=np.int64), np.array(vals))
    except OverflowError:
        raise InvalidInstance(f"{what} index {idxs[-1]} does not fit in int64") from None


@dataclass(frozen=True)
class LinearRow:
    """One sparse constraint: sum_j a_j x_j + sum_j g_j y_j  <sense>  rhs.

    The coefficients may be given as {column index: coeff} dicts; each is
    checked and kept as a CoeffMap.
    """

    bin_coeffs: CoeffMap
    cont_coeffs: CoeffMap
    sense: Sense
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "bin_coeffs", _clean_coeffs(self.bin_coeffs, "binary"))
        object.__setattr__(self, "cont_coeffs", _clean_coeffs(self.cont_coeffs, "continuous"))
        object.__setattr__(self, "sense", Sense(self.sense))
        rhs = float(self.rhs)
        if not math.isfinite(rhs):
            raise InvalidInstance("rhs is not finite")
        object.__setattr__(self, "rhs", rhs)


@dataclass(frozen=True)
class Objective:
    """Linear objective over all columns, always read as a maximization."""

    bin_coeffs: CoeffMap
    cont_coeffs: CoeffMap = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "bin_coeffs", _clean_coeffs(self.bin_coeffs, "objective binary"))
        object.__setattr__(self, "cont_coeffs", _clean_coeffs(self.cont_coeffs, "objective continuous"))


class Block(NamedTuple):
    """One decomposable block: column and row index sets (sorted tuples)."""

    bin_idx: tuple[int, ...]
    cont_idx: tuple[int, ...]
    row_idx: tuple[int, ...]


class MixedPoint(NamedTuple):
    """A candidate point (x over binary columns, y over continuous ones)."""

    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class MixedBinaryInstance:
    name: str
    n: int
    d: int
    rows: tuple[LinearRow, ...]
    objective: Optional[Objective] = None
    blocks: Optional[tuple[Block, ...]] = None
    # (source_row, sign) per normalized row; None on hand-built instances
    row_origin: Optional[tuple[tuple[int, int], ...]] = None

    def __post_init__(self):
        if self.n < 0 or self.d < 0:
            raise InvalidInstance("column counts must be nonnegative")
        object.__setattr__(self, "rows", tuple(self.rows))
        for r, row in enumerate(self.rows):
            if not isinstance(row, LinearRow):
                raise InvalidInstance(f"row {r} is not a LinearRow")
            # a map's largest index is its last
            if row.bin_coeffs and row.bin_coeffs.idx[-1] >= self.n:
                raise InvalidInstance(f"row {r} references binary column >= n={self.n}")
            if row.cont_coeffs and row.cont_coeffs.idx[-1] >= self.d:
                raise InvalidInstance(f"row {r} references continuous column >= d={self.d}")
        if self.objective is not None:
            if self.objective.bin_coeffs and self.objective.bin_coeffs.idx[-1] >= self.n:
                raise InvalidInstance("objective references binary column out of range")
            if self.objective.cont_coeffs and self.objective.cont_coeffs.idx[-1] >= self.d:
                raise InvalidInstance("objective references continuous column out of range")
        if self.blocks is not None:
            object.__setattr__(self, "blocks", tuple(self.blocks))
            self._check_blocks()
        if self.row_origin is not None:
            origin = tuple((int(i), int(s)) for i, s in self.row_origin)
            if len(origin) != len(self.rows):
                raise InvalidInstance("row_origin length differs from row count")
            for i, s in origin:
                if s not in (-1, 1) or i < 0:
                    raise InvalidInstance("row_origin entries must be (row, +-1)")
            object.__setattr__(self, "row_origin", origin)

    def _check_blocks(self):
        bin_seen: set[int] = set()
        cont_seen: set[int] = set()
        row_seen: set[int] = set()
        for blk in self.blocks:
            for j in blk.bin_idx:
                if j in bin_seen or j >= self.n:
                    raise InvalidInstance("blocks must partition binary columns")
                bin_seen.add(j)
            for j in blk.cont_idx:
                if j in cont_seen or j >= self.d:
                    raise InvalidInstance("blocks must partition continuous columns")
                cont_seen.add(j)
            for r in blk.row_idx:
                if r in row_seen or r >= len(self.rows):
                    raise InvalidInstance("blocks must partition rows")
                row_seen.add(r)
        if len(bin_seen) != self.n or len(cont_seen) != self.d or len(row_seen) != len(self.rows):
            raise InvalidInstance("blocks must cover all columns and rows")

    @property
    def m(self) -> int:
        return len(self.rows)

    def is_normalized(self) -> bool:
        return all(row.sense is Sense.LE for row in self.rows)


def dense_rows(instance: MixedBinaryInstance):
    """Dense (A, B, senses, b) for the instance's rows, in row order."""
    rows = instance.rows
    A = np.zeros((instance.m, instance.n))
    B = np.zeros((instance.m, instance.d))
    for M, maps in ((A, [row.bin_coeffs for row in rows]), (B, [row.cont_coeffs for row in rows])):
        if maps:
            at = np.repeat(np.arange(len(maps)), [len(c) for c in maps])
            M[at, np.concatenate([c.idx for c in maps])] = np.concatenate([c.val for c in maps])
    b = np.array([row.rhs for row in rows], dtype=float)
    return A, B, [row.sense for row in rows], b


def dense_objective(instance: MixedBinaryInstance):
    """Dense (c_bin, c_cont) of the maximization objective; zeros if absent."""
    cb = np.zeros(instance.n)
    cc = np.zeros(instance.d)
    if instance.objective is not None:
        cb[instance.objective.bin_coeffs.idx] = instance.objective.bin_coeffs.val
        cc[instance.objective.cont_coeffs.idx] = instance.objective.cont_coeffs.val
    return cb, cc


# the signs of each sense's <= halves: a >= row flips, an = row splits into both
_HALF_SIGNS = {Sense.LE: (1,), Sense.GE: (-1,), Sense.EQ: (1, -1)}


def _times(coeffs: CoeffMap, sign: int) -> CoeffMap:
    # sign * coeffs; a checked map stays checked, and the indices are shared
    return coeffs if sign > 0 or not coeffs else CoeffMap(coeffs.idx, -coeffs.val)


def _le_half(row: LinearRow, sign: int) -> LinearRow:
    # sign * row in <= form; a <= row's + half is the row itself
    if sign > 0 and row.sense is Sense.LE:
        return row
    return LinearRow(_times(row.bin_coeffs, sign), _times(row.cont_coeffs, sign), Sense.LE, sign * row.rhs)


def normalize(instance: MixedBinaryInstance) -> MixedBinaryInstance:
    """Rewrite every row in <= form.

    >= rows flip sign, = rows split into a <=/>= pair (the >= half flipped).
    The result carries a row-origin map (source row index, +1 or -1) so
    certificate supports can be reported against the original rows, and
    each block's rows are the sorted indices of its rows' halves. Calling
    normalize on an already-normalized instance is the identity.
    """
    if instance.is_normalized() and instance.row_origin is not None:
        return instance
    rows: list[LinearRow] = []
    origin: list[tuple[int, int]] = []
    halves: list[range] = []
    for r, row in enumerate(instance.rows):
        signs = _HALF_SIGNS[row.sense]
        halves.append(range(len(rows), len(rows) + len(signs)))
        for sign in signs:
            rows.append(_le_half(row, sign))
            origin.append((r, sign))
    blocks = None
    if instance.blocks is not None:
        blocks = tuple(
            Block(
                blk.bin_idx,
                blk.cont_idx,
                tuple(sorted(nr for r in blk.row_idx for nr in halves[r])),
            )
            for blk in instance.blocks
        )
    return MixedBinaryInstance(
        name=instance.name,
        n=instance.n,
        d=instance.d,
        rows=tuple(rows),
        objective=instance.objective,
        blocks=blocks,
        row_origin=tuple(origin),
    )


def check_feasible(instance: MixedBinaryInstance, point: MixedPoint, tol: float = 1e-9) -> bool:
    """Row and bound satisfaction within tol. Does not require integrality."""
    x = np.asarray(point.x, dtype=float)
    y = np.asarray(point.y, dtype=float)
    if x.shape != (instance.n,) or y.shape != (instance.d,):
        raise DimensionMismatch(
            f"point has shape ({x.shape}, {y.shape}), instance wants ({instance.n},), ({instance.d},)"
        )
    if np.any(x < -tol) or np.any(x > 1.0 + tol):
        return False
    A, B, senses, b = dense_rows(instance)
    lhs = A @ x + B @ y
    ge = np.array([s is Sense.GE for s in senses], dtype=bool)
    eq = np.array([s is Sense.EQ for s in senses], dtype=bool)
    ok = np.where(ge, lhs >= b - tol, lhs <= b + tol)
    return bool(np.all(np.where(eq, np.abs(lhs - b) <= tol, ok)))


def detect_blocks(instance: MixedBinaryInstance) -> tuple[Block, ...]:
    """Connected components of the column-row incidence graph.

    Columns not touched by any row become singleton blocks. Blocks are
    ordered by their smallest column (binary first, then continuous-only
    blocks by continuous index), matching how generators lay columns out.
    """
    # nodes: binary j -> j, continuous j -> n + j, row r -> n + d + r; each
    # node's label ends as the smallest node of its component, so ordering
    # blocks by label is the order above
    n, d, m = instance.n, instance.d, instance.m
    rows = instance.rows
    lens = [len(row.bin_coeffs) + len(row.cont_coeffs) for row in rows]
    row_node = np.repeat(n + d + np.arange(m), lens)
    col_node = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [c for row in rows for c in (row.bin_coeffs.idx, n + row.cont_coeffs.idx)]
    )
    label = np.arange(n + d + m)
    while True:
        at_row, at_col = label[row_node], label[col_node]
        if np.array_equal(at_row, at_col):
            break
        # hook each edge's larger root under its smaller one, then flatten
        np.minimum.at(label, np.maximum(at_row, at_col), np.minimum(at_row, at_col))
        while not np.array_equal(label[label], label):
            label = label[label]
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    blocks = []
    for nodes in np.split(order, starts)[1:]:
        cut = np.searchsorted(nodes, (n, n + d))
        bins, conts, rws = np.split(nodes, cut)
        blocks.append(Block(tuple(bins.tolist()), tuple((conts - n).tolist()), tuple((rws - n - d).tolist())))
    return tuple(blocks)
