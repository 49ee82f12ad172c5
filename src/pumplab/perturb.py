"""Randomized flip rules used on stalls and restarts.

All randomness flows through numpy Generators passed in by the caller
(make_rng builds them from a seed), so every run is replayable from its
seed. Each rule documents exactly how many draws it consumes.

TT, the flip count of the fractionality rules, is not drawn here: the
pump loop draws it (_draw_tt, one draw, first at each stall of orig,
origzf and wfpbase) and passes it in. original_perturb and
original_perturb_zero_frac are then pure functions of their arguments.
wfpbase_perturb with TT <= |F| flips what original_perturb flips, by the
same ranking code and with no draw, so traces of the two coincide on
such runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import ProjectedCertificate
from .errors import DimensionMismatch, EmptyCertificateSupport
from .lp import CompiledInstance
from .model import MixedBinaryInstance
# perfbench/tracing.py wraps these two names in this module's namespace
from .model import dense_rows, normalize  # noqa: F401

DEFAULT_TT_RANGE = (10, 30)
FRAC_TOL = 1e-9


def make_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """The PCG64 generator of seed, or of its child spawn_key; with no
    spawn key it draws the stream of PCG64(seed)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)))


@dataclass(frozen=True)
class PerturbOutcome:
    x_new: np.ndarray
    flipped: tuple[int, ...]
    kind: str


def _flip(x_tilde: np.ndarray, idx) -> np.ndarray:
    out = np.array(x_tilde, dtype=np.int8)
    out[idx] = 1 - out[idx]
    return out


def _outcome(x_tilde, idx, kind: str) -> PerturbOutcome:
    # x~ with the coordinates idx flipped, listed in ascending order
    return PerturbOutcome(_flip(x_tilde, idx), tuple(sorted(int(j) for j in idx)), kind)


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


def _fractional(x_tilde, x_bar) -> np.ndarray:
    # F, the strictly fractional coordinates, most fractional first
    f = _fractionality(x_tilde, x_bar)
    order = _by_fractionality(f)
    return order[f[order] > FRAC_TOL]


def original_perturb(x_tilde, x_bar, tt: int) -> PerturbOutcome:
    """Flip the min(TT, |F|) most fractional coordinates, F the strictly
    fractional ones. Draws nothing."""
    return _outcome(x_tilde, _fractional(x_tilde, x_bar)[:tt], "original")


def original_perturb_zero_frac(x_tilde, x_bar, tt: int) -> PerturbOutcome:
    """Variant that ranks all coordinates, zero fractionality included: flips
    exactly min(TT, n) of them in (fractionality desc, index asc) order.
    Draws nothing."""
    return _outcome(x_tilde, _by_fractionality(_fractionality(x_tilde, x_bar))[:tt], "original-zf")


def wfpbase_perturb(
    x_tilde,
    x_bar,
    y_bar,
    instance: MixedBinaryInstance,
    rng: np.random.Generator,
    tt: int,
) -> PerturbOutcome:
    """The original rule while TT <= |F|, drawing nothing; otherwise flip
    all of F plus min(|S|, TT - |F|) indices drawn without replacement from
    S (one rng.choice draw), the union of binary supports of rows violated
    at (x~, y) among the normalized rows.
    """
    positive = _fractional(x_tilde, x_bar)
    if tt <= positive.size:
        return _outcome(x_tilde, positive[:tt], "wfpbase")
    view = CompiledInstance.of(instance)
    x = np.asarray(x_tilde, dtype=float).reshape(-1)
    y = np.asarray(y_bar, dtype=float).reshape(-1)
    s_union = np.flatnonzero(view.A[view.violated_rows(x, y)].any(axis=0))
    k = min(s_union.size, tt - positive.size)
    extra = rng.choice(s_union, size=k, replace=False).tolist() if k else []
    return _outcome(x_tilde, sorted({*positive.tolist(), *extra}), "wfpbase")


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
