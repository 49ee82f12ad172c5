"""Seeded instance generators plus the two fixed counterexample instances.

Every random generator returns a GenResult pairing the instance with the
construction witness (a feasible point used only by tests and never handed
to solvers). Draw order is part of the contract so a (generator, seed)
pair always reproduces the same instance:

- gen_subset_sum: per block, coefficients then the witness bits
- gen_decomposable: per block, witness bits then per row support, binary
  coefficients, continuous coefficients
- gen_two_stage: A, then D^1..D^k, then the witness

The right-hand sides are derived from the witness, which keeps every
generated instance feasible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .model import (
    Block,
    LinearRow,
    MixedBinaryInstance,
    MixedPoint,
    Objective,
    Sense,
    coeff_rows,
)


class GenResult(NamedTuple):
    instance: MixedBinaryInstance
    witness: MixedPoint


def gen_subset_sum(
    k: int,
    n: int,
    rng: np.random.Generator,
    coeff_max: int = 20,
    name: Optional[str] = None,
) -> GenResult:
    """k independent subset-sum equations over n binaries each.

    Coefficients are integers in [1, coeff_max]; the right-hand side is the
    row value at a random 0/1 witness, so full binary support and
    feasibility both hold by construction.
    """
    if k < 1 or n < 1 or coeff_max < 1:
        raise ValueError("k, n and coeff_max must be positive")
    coeffs = []
    rhs = []
    blocks = []
    witness = np.zeros(k * n, dtype=np.int8)
    for i in range(k):
        a = rng.integers(1, coeff_max + 1, size=n)
        xs = rng.integers(0, 2, size=n)
        witness[i * n : (i + 1) * n] = xs
        coeffs.append(a)
        rhs.append(float(a @ xs))
        blocks.append(Block(tuple(range(i * n, (i + 1) * n)), (), (i,)))
    # row i covers columns i*n .. i*n + n - 1
    maps = coeff_rows(np.arange(k * n), np.concatenate(coeffs), [n] * k, "binary")
    inst = MixedBinaryInstance(
        name=name or f"subset-sum-k{k}-n{n}",
        n=k * n,
        d=0,
        rows=tuple(LinearRow(c, {}, Sense.EQ, b) for c, b in zip(maps, rhs)),
        blocks=tuple(blocks),
    )
    return GenResult(inst, MixedPoint(witness.astype(float), np.zeros(0)))


@dataclass(frozen=True)
class BlockSpec:
    """Shape of one decomposable block: n binaries, d continuous columns,
    `rows` constraints with binary support exactly `s`."""

    n: int
    d: int = 0
    rows: int = 2
    s: int = 2
    coeff_max: int = 10

    def __post_init__(self):
        if self.n < 1 or self.rows < 1 or self.d < 0:
            raise ValueError("block spec needs n >= 1, rows >= 1, d >= 0")
        if not (1 <= self.s <= self.n):
            raise ValueError("binary support s must lie in [1, n]")
        if self.coeff_max < 1:
            raise ValueError("coeff_max must be positive")


def gen_decomposable(
    k: int,
    block_spec: BlockSpec,
    rng: np.random.Generator,
    name: Optional[str] = None,
) -> GenResult:
    """k structurally identical blocks of <= rows sharing no columns.

    Right-hand sides equal each row's value at (witness, y=0), so the
    witness lifts with all continuous columns at zero.
    """
    if k < 1:
        raise ValueError("k must be positive")
    spec = block_spec
    supports, bin_val, cont_val = [], [], []
    blocks: list[Block] = []
    witness = np.zeros(k * spec.n, dtype=np.int8)
    for i in range(k):
        bin_base, cont_base = i * spec.n, i * spec.d
        xs = rng.integers(0, 2, size=spec.n)
        witness[bin_base : bin_base + spec.n] = xs
        for _ in range(spec.rows):
            supports.append(np.sort(rng.choice(spec.n, size=spec.s, replace=False)))
            mags = rng.integers(1, spec.coeff_max + 1, size=spec.s)
            signs = rng.integers(0, 2, size=spec.s) * 2 - 1
            bin_val.append(mags * signs)
            cont_val.append(rng.integers(-spec.coeff_max, spec.coeff_max + 1, size=spec.d))
        blocks.append(
            Block(
                tuple(range(bin_base, bin_base + spec.n)),
                tuple(range(cont_base, cont_base + spec.d)),
                tuple(range(i * spec.rows, (i + 1) * spec.rows)),
            )
        )
    m = k * spec.rows
    block_of_row = np.repeat(np.arange(k), spec.rows)[:, None]
    bin_idx = block_of_row * spec.n + np.array(supports)
    bin_val = np.array(bin_val)
    rhs = (bin_val * witness[bin_idx]).sum(axis=1).tolist()
    # a block's rows list all its d continuous columns; coeff_rows drops the zeros
    cont_idx = block_of_row * spec.d + np.arange(spec.d)
    bins = coeff_rows(bin_idx.ravel(), bin_val.ravel(), [spec.s] * m, "binary")
    conts = coeff_rows(cont_idx.ravel(), np.array(cont_val).ravel(), [spec.d] * m, "continuous")
    inst = MixedBinaryInstance(
        name=name or f"decomp-k{k}-n{spec.n}-d{spec.d}",
        n=k * spec.n,
        d=k * spec.d,
        rows=tuple(LinearRow(c, g, Sense.LE, b) for c, g, b in zip(bins, conts, rhs)),
        blocks=tuple(blocks),
    )
    return GenResult(inst, MixedPoint(witness.astype(float), np.zeros(k * spec.d)))


def gen_two_stage(
    k: int,
    p: int,
    q: int,
    rng: np.random.Generator,
    rows_per_scenario: int = 5,
    name: Optional[str] = None,
) -> GenResult:
    """Two-stage structure: p shared first-stage binaries, k scenarios of q
    binaries each, rows A x + D^i y^i <= b^i with integer entries in
    [-10, 10]. One A is drawn and shared across scenarios; b^i is the row
    value at a random witness (the tightest rhs keeping it feasible).
    """
    if min(k, p, q, rows_per_scenario) < 1:
        raise ValueError("k, p, q and rows_per_scenario must be positive")
    r = rows_per_scenario
    A = rng.integers(-10, 11, size=(r, p))
    D = np.stack([rng.integers(-10, 11, size=(r, q)) for _ in range(k)])
    z = rng.integers(0, 2, size=p + k * q)
    # row i*r + t lists A[t] over columns 0..p-1, then D^i[t] over columns p+i*q ..
    second = p + np.arange(k)[:, None] * q + np.arange(q)
    idx = np.concatenate((np.broadcast_to(np.arange(p), (k, r, p)),
                          np.broadcast_to(second[:, None, :], (k, r, q))), axis=2)
    val = np.concatenate((np.broadcast_to(A, (k, r, p)), D), axis=2)
    rhs = (A @ z[:p] + np.einsum("itj,ij->it", D, z[p:].reshape(k, q))).ravel().tolist()
    maps = coeff_rows(idx.ravel(), val.ravel(), [p + q] * (k * r), "binary")
    inst = MixedBinaryInstance(
        name=name or f"two-stage-k{k}-p{p}",
        n=p + k * q,
        d=0,
        rows=tuple(LinearRow(c, {}, Sense.LE, b) for c, b in zip(maps, rhs)),
    )
    return GenResult(inst, MixedPoint(z.astype(float), np.zeros(0)))


def fractional_stall_instance() -> MixedBinaryInstance:
    """Two binaries, one equation 3x1 + x2 = 3, objective max x2.

    The relaxation optimum is (2/3, 1); rounding and reprojecting cycle
    between (1,1) and (0,1) forever under fractionality-guided flips, since
    only x1 is ever fractional.
    """
    return MixedBinaryInstance(
        name="fractional-stall",
        n=2,
        d=0,
        rows=(LinearRow({0: 3.0, 1: 1.0}, {}, Sense.EQ, 3.0),),
        objective=Objective({1: 1.0}),
    )


def zero_frac_stall_instance(t_max: int) -> MixedBinaryInstance:
    """One equation 5(x1+..+x_{T+1}) + 2x_{T+2} = 5T+5 with T = t_max,
    objective max x_{T+2}.

    Projections of the all-ones point lower a single coefficient-5 column
    to 3/5, so rounding returns all-ones: a stall. Any flip set of size at
    most t_max keeps the pump inside a trap region whose projections never
    turn integral, even when zero-fractionality columns are flipped too.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    n = t_max + 2
    coeffs = {j: 5.0 for j in range(t_max + 1)}
    coeffs[t_max + 1] = 2.0
    return MixedBinaryInstance(
        name=f"zero-frac-stall-{t_max}",
        n=n,
        d=0,
        rows=(LinearRow(coeffs, {}, Sense.EQ, float(5 * t_max + 5)),),
        objective=Objective({t_max + 1: 1.0}),
    )
