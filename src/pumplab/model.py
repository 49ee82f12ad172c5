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
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, InvalidInstance


class Sense(str, Enum):
    LE = "<="
    GE = ">="
    EQ = "="

    def __str__(self) -> str:
        return self.value


def _clean_coeffs(coeffs: Mapping[int, float], what: str) -> dict[int, float]:
    # sorted support, no explicit zeros, finite floats only
    out: dict[int, float] = {}
    for idx in sorted(coeffs):
        if not isinstance(idx, (int, np.integer)) or idx < 0:
            raise InvalidInstance(f"{what} index {idx!r} is not a nonnegative int")
        val = float(coeffs[idx])
        if not math.isfinite(val):
            raise InvalidInstance(f"{what} coefficient at {idx} is not finite")
        if val != 0.0:
            out[int(idx)] = val
    return out


@dataclass(frozen=True)
class LinearRow:
    """One sparse constraint: sum_j a_j x_j + sum_j g_j y_j  <sense>  rhs."""

    bin_coeffs: Mapping[int, float]
    cont_coeffs: Mapping[int, float]
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

    bin_coeffs: Mapping[int, float]
    cont_coeffs: Mapping[int, float] = field(default_factory=dict)

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
            if row.bin_coeffs and max(row.bin_coeffs) >= self.n:
                raise InvalidInstance(f"row {r} references binary column >= n={self.n}")
            if row.cont_coeffs and max(row.cont_coeffs) >= self.d:
                raise InvalidInstance(f"row {r} references continuous column >= d={self.d}")
        if self.objective is not None:
            if self.objective.bin_coeffs and max(self.objective.bin_coeffs) >= self.n:
                raise InvalidInstance("objective references binary column out of range")
            if self.objective.cont_coeffs and max(self.objective.cont_coeffs) >= self.d:
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
    m = instance.m
    A = np.zeros((m, instance.n))
    B = np.zeros((m, instance.d))
    b = np.zeros(m)
    senses = []
    for r, row in enumerate(instance.rows):
        for j, v in row.bin_coeffs.items():
            A[r, j] = v
        for j, v in row.cont_coeffs.items():
            B[r, j] = v
        b[r] = row.rhs
        senses.append(row.sense)
    return A, B, senses, b


def dense_objective(instance: MixedBinaryInstance):
    """Dense (c_bin, c_cont) of the maximization objective; zeros if absent."""
    cb = np.zeros(instance.n)
    cc = np.zeros(instance.d)
    if instance.objective is not None:
        for j, v in instance.objective.bin_coeffs.items():
            cb[j] = v
        for j, v in instance.objective.cont_coeffs.items():
            cc[j] = v
    return cb, cc


# the signs of each sense's <= halves: a >= row flips, an = row splits into both
_HALF_SIGNS = {Sense.LE: (1,), Sense.GE: (-1,), Sense.EQ: (1, -1)}


def _le_half(row: LinearRow, sign: int) -> LinearRow:
    # sign * row in <= form; a <= row's + half is the row itself
    if sign > 0 and row.sense is Sense.LE:
        return row
    return LinearRow(
        {j: sign * v for j, v in row.bin_coeffs.items()},
        {j: sign * v for j, v in row.cont_coeffs.items()},
        Sense.LE,
        sign * row.rhs,
    )


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
    for row in instance.rows:
        lhs = sum(v * x[j] for j, v in row.bin_coeffs.items())
        lhs += sum(v * y[j] for j, v in row.cont_coeffs.items())
        if row.sense is Sense.LE and lhs > row.rhs + tol:
            return False
        if row.sense is Sense.GE and lhs < row.rhs - tol:
            return False
        if row.sense is Sense.EQ and abs(lhs - row.rhs) > tol:
            return False
    return True


def detect_blocks(instance: MixedBinaryInstance) -> tuple[Block, ...]:
    """Connected components of the column-row incidence graph.

    Columns not touched by any row become singleton blocks. Blocks are
    ordered by their smallest column (binary first, then continuous-only
    blocks by continuous index), matching how generators lay columns out.
    """
    # union-find over nodes: binary j -> j, continuous j -> n + j, row r -> n + d + r
    n, d, m = instance.n, instance.d, instance.m
    parent = list(range(n + d + m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for r, row in enumerate(instance.rows):
        node = n + d + r
        for j in row.bin_coeffs:
            union(node, j)
        for j in row.cont_coeffs:
            union(node, n + j)

    groups: dict[int, dict[str, list[int]]] = {}
    for j in range(n):
        groups.setdefault(find(j), {"b": [], "c": [], "r": []})["b"].append(j)
    for j in range(d):
        groups.setdefault(find(n + j), {"b": [], "c": [], "r": []})["c"].append(j)
    for r in range(m):
        groups.setdefault(find(n + d + r), {"b": [], "c": [], "r": []})["r"].append(r)

    def sort_key(g: dict[str, list[int]]):
        if g["b"]:
            return (0, min(g["b"]))
        if g["c"]:
            return (1, min(g["c"]))
        return (2, min(g["r"]))

    blocks = [
        Block(tuple(g["b"]), tuple(g["c"]), tuple(g["r"]))
        for g in sorted(groups.values(), key=sort_key)
    ]
    return tuple(blocks)
