"""Randomized flip rules used on stalls and restarts.

All randomness flows through numpy Generators passed in by the caller
(make_rng for a single seed), so every run is replayable from its seed.
Each rule documents exactly how many draws it consumes; the hybrid rule
deliberately consumes the same draws as the original rule whenever
TT <= |F| so traces of the two coincide on such runs.

The two fractionality rules draw TT themselves (one draw, _draw_tt)
unless the caller passes it as tt, in which case they draw nothing. The
pump loop draws TT itself at each "original" or "original-zf" stall, in
the same place in the draw order, and memoizes the rule's outcome per
(stalled point, TT): given both, the outcome is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificate import ProjectedCertificate
from .errors import DimensionMismatch, EmptyCertificateSupport
from .lp import CompiledInstance
from .model import MixedBinaryInstance
# perfbench/tracing.py wraps these two names in this module's namespace
from .model import dense_rows, normalize  # noqa: F401

DEFAULT_TT_RANGE = (10, 30)
FRAC_TOL = 1e-9


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class PerturbOutcome:
    x_new: np.ndarray
    flipped: tuple[int, ...]
    kind: str
    tt: Optional[int] = None


def _flip(x_tilde: np.ndarray, idx) -> np.ndarray:
    out = np.array(x_tilde, dtype=np.int8)
    out[idx] = 1 - out[idx]
    return out


def perturb_l(x_tilde, cert: ProjectedCertificate, l: int, rng: np.random.Generator) -> PerturbOutcome:
    """Flip the distinct outcomes of l uniform draws from the certificate's
    binary support (draws are independent, so 1 <= |flipped| <= l)."""
    if l < 1:
        raise ValueError("l must be at least 1")
    support = np.array(sorted(cert.a), dtype=np.int64)
    if support.size == 0:
        raise EmptyCertificateSupport("certificate has no binary support to flip")
    draws = rng.integers(0, support.size, size=l)
    idx = sorted(set(support[draws].tolist()))
    return PerturbOutcome(_flip(x_tilde, idx), tuple(idx), "walksat")


def _fractionality(x_tilde, x_bar) -> np.ndarray:
    xt = np.asarray(x_tilde, dtype=float).reshape(-1)
    xb = np.asarray(x_bar, dtype=float).reshape(-1)
    if xt.shape != xb.shape:
        raise DimensionMismatch("fractionality needs equal-length vectors")
    return np.abs(xb - xt)


def _draw_tt(rng: np.random.Generator, tt_range) -> int:
    lo, hi = int(tt_range[0]), int(tt_range[1])
    if lo > hi or lo < 0:
        raise ValueError(f"bad TT range {tt_range!r}")
    return int(rng.integers(lo, hi + 1))


def _by_fractionality(f: np.ndarray) -> np.ndarray:
    # descending fractionality, ties to the smaller index
    return np.argsort(-f, kind="stable")


def original_perturb(x_tilde, x_bar, rng, tt_range=DEFAULT_TT_RANGE,
                     tt: Optional[int] = None) -> PerturbOutcome:
    """Flip the min(TT, NN) most fractional coordinates, TT uniform in the
    range (or tt when given, with no draw), NN the number of strictly
    fractional ones."""
    f = _fractionality(x_tilde, x_bar)
    if tt is None:
        tt = _draw_tt(rng, tt_range)
    order = _by_fractionality(f)
    positive = order[f[order] > FRAC_TOL]
    idx = positive[: min(tt, positive.size)]
    return PerturbOutcome(_flip(x_tilde, idx), tuple(int(j) for j in sorted(idx)), "original", tt)


def original_perturb_zero_frac(x_tilde, x_bar, rng, tt_range=DEFAULT_TT_RANGE,
                               tt: Optional[int] = None) -> PerturbOutcome:
    """Variant that ranks all coordinates, zero fractionality included: flips
    exactly min(TT, n) of them in (fractionality desc, index asc) order;
    TT as in original_perturb."""
    f = _fractionality(x_tilde, x_bar)
    if tt is None:
        tt = _draw_tt(rng, tt_range)
    order = _by_fractionality(f)
    idx = order[: min(tt, order.size)]
    return PerturbOutcome(_flip(x_tilde, idx), tuple(int(j) for j in sorted(idx)), "original-zf", tt)


def wfpbase_perturb(
    x_tilde,
    x_bar,
    y_bar,
    instance: MixedBinaryInstance,
    rng: np.random.Generator,
    tt_range=DEFAULT_TT_RANGE,
) -> PerturbOutcome:
    """Original rule while TT <= |F|; otherwise flip all of F plus
    min(|S|, TT - |F|) indices drawn without replacement from S, the union
    of binary supports of rows violated at (x~, y) among the normalized rows.
    """
    f = _fractionality(x_tilde, x_bar)
    tt = _draw_tt(rng, tt_range)
    order = _by_fractionality(f)
    positive = order[f[order] > FRAC_TOL]
    if tt <= positive.size:
        idx = positive[:tt]
        return PerturbOutcome(_flip(x_tilde, idx), tuple(int(j) for j in sorted(idx)), "wfpbase", tt)
    view = CompiledInstance.of(instance)
    x = np.asarray(x_tilde, dtype=float).reshape(-1)
    y = np.asarray(y_bar, dtype=float).reshape(-1)
    s_union = np.flatnonzero(view.A[view.violated_rows(x, y)].any(axis=0))
    k = min(s_union.size, tt - positive.size)
    extra = rng.choice(s_union, size=k, replace=False) if k else np.zeros(0, dtype=np.int64)
    chosen = sorted(set(int(j) for j in positive) | set(int(j) for j in extra))
    return PerturbOutcome(_flip(x_tilde, chosen), tuple(chosen), "wfpbase", tt)


def restart_mask(f: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Flip rule for restarts: coordinate j flips iff f_j + max(r_j - 0.3, 0) > 0.5."""
    return f + np.maximum(r - 0.3, 0.0) > 0.5


def restart_perturb(x_tilde, x_bar, rng: np.random.Generator) -> PerturbOutcome:
    """Randomized restart: one uniform draw per coordinate, flip where the
    fractionality-plus-noise score clears 0.5."""
    f = _fractionality(x_tilde, x_bar)
    r = rng.random(f.size)
    mask = restart_mask(f, r)
    idx = np.flatnonzero(mask)
    return PerturbOutcome(_flip(x_tilde, idx), tuple(int(j) for j in idx), "restart")
