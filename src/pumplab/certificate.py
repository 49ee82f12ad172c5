"""Minimal projected certificates of binary infeasibility.

A point x~ lies outside the binary projection of P exactly when some
nonnegative combination lambda of the normalized rows cancels every
continuous column (lambda @ B = 0) yet is violated by x~:
lambda @ A x~ > lambda @ b. Normalizing lambda to sum 1 gives the LP

    max  (A x~ - b) @ lambda
    s.t. B.T @ lambda = 0,  sum(lambda) = 1,  lambda >= 0,

whose optimal basic solutions have at most d+1 positive weights and are
support-minimal: a certificate supported on a strict subset would give a
nontrivial null combination of the basis columns.

By Farkas' lemma the converse holds too: when this LP has no solution of
value above VIOLATION_TOL (or no solution at all, as when no combination cancels
the continuous columns or there are no rows), some y satisfies
B y <= b - A x~, so x~ lifts to a point of P. NotACertificate is thus
the test of whether a binary point lifts; the pump drivers take y from
the projection of such a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import NotACertificate, ScaleGuard
from .lp import CompiledInstance, LpProblem, LpStatus, SimplexSolver
from .model import MixedBinaryInstance, Sense, dense_rows, normalize

VIOLATION_TOL = 1e-7
_SUPP_EPS = 1e-12


@dataclass(frozen=True)
class ProjectedCertificate:
    point: np.ndarray                        # the x~ the certificate refutes
    lam: dict[int, float]                    # normalized row -> weight, sums to 1
    a: dict[int, float]                      # combined binary coefficients
    beta: float                              # combined rhs
    support_rows: tuple[int, ...]            # normalized row indices
    original_support: tuple[tuple[int, int], ...]  # (source row, +-1) pairs
    violation: float                         # a @ x~ - beta > 0

    @property
    def bin_support(self) -> tuple[int, ...]:
        return tuple(self.a)


def _lambda_problem(view: CompiledInstance) -> LpProblem:
    # B.T @ lambda = 0, sum(lambda) = 1, lambda >= 0; the cost row is set
    # by each resolve
    m, d = view.norm.m, view.instance.d
    return LpProblem(
        coeffs=np.vstack([view.B.T, np.ones((1, m))]),
        senses=[Sense.EQ] * (d + 1),
        rhs=np.concatenate([np.zeros(d), [1.0]]),
        lower=np.zeros(m),
        upper=np.full(m, np.inf),
    )


class CertificateOracle:
    """Warm lambda-LP for one instance; cost row changes with the point."""

    def __init__(self, instance: MixedBinaryInstance):
        self.instance = instance
        view = CompiledInstance.of(instance)
        self.norm = view.norm
        self.A, self.B, self.b = view.A, view.B, view.b
        self.m = self.norm.m
        self.solver = view.solver(_lambda_problem)
        # infeasible lambda-LP means no certificate can exist for any point
        self.possible = self.solver.ensure_phase1()
        self.cache: dict[bytes, ProjectedCertificate] = {}

    def min_certificate(self, x_bar) -> ProjectedCertificate:
        x = np.asarray(x_bar, dtype=float).reshape(-1)
        key = x.tobytes()
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        if not self.possible:
            raise NotACertificate("no row combination cancels the continuous columns")
        v = self.A @ x - self.b
        sol = self.solver.resolve(v, maximize=True)
        if sol.status is not LpStatus.OPTIMAL or sol.objective <= VIOLATION_TOL:
            raise NotACertificate("the point lies in the binary projection")
        lam_vec = sol.x
        support = tuple(int(r) for r in np.flatnonzero(lam_vec > _SUPP_EPS))
        lam = {r: float(lam_vec[r]) for r in support}
        a_vec = lam_vec @ self.A
        a = {int(j): float(a_vec[j]) for j in np.flatnonzero(np.abs(a_vec) > _SUPP_EPS)}
        beta = float(lam_vec @ self.b)
        origin = self.norm.row_origin
        cert = ProjectedCertificate(
            point=x.copy(),
            lam=lam,
            a=a,
            beta=beta,
            support_rows=support,
            original_support=tuple(origin[r] for r in support),
            violation=float(sol.objective),
        )
        self.cache[key] = cert
        return cert


def min_certificate(instance: MixedBinaryInstance, x_bar) -> ProjectedCertificate:
    """Support-minimal projected certificate refuting x_bar, or NotACertificate."""
    return CertificateOracle(instance).min_certificate(x_bar)


def cert_supp_bound(instance: MixedBinaryInstance) -> tuple[int, ...]:
    """Per-block cap min(s_i * (d_i + 1), n_i) on certificate binary support.

    s_i is the largest binary support of any row in the block. Blocks come
    from the instance metadata when present, else from detect_blocks.
    """
    from .model import detect_blocks

    blocks = instance.blocks if instance.blocks is not None else detect_blocks(instance)
    out = []
    for blk in blocks:
        s = max((len(instance.rows[r].bin_coeffs) for r in blk.row_idx), default=0)
        d_i = len(blk.cont_idx)
        n_i = len(blk.bin_idx)
        out.append(int(min(s * (d_i + 1), n_i)) if n_i else 0)
    return tuple(out)


def verify_minimal(instance: MixedBinaryInstance, cert: ProjectedCertificate, tol: float = VIOLATION_TOL) -> bool:
    """Brute-force check that no strict support subset certifies the point.

    Solves the restricted combination LP for every proper nonempty subset of
    the support. Guarded to small instances.
    """
    norm = normalize(instance)
    if norm.m > 12:
        raise ScaleGuard(f"brute-force minimality check capped at 12 rows, got {norm.m}")
    A, B, _, b = dense_rows(norm)
    x = cert.point
    v = A @ x - b
    d = instance.d
    rows = cert.support_rows
    for size in range(1, len(rows)):
        for subset in combinations(rows, size):
            idx = list(subset)
            coeffs = np.vstack([B[idx].T, np.ones((1, len(idx)))])
            problem = LpProblem(
                coeffs=coeffs,
                senses=[Sense.EQ] * (d + 1),
                rhs=np.concatenate([np.zeros(d), [1.0]]),
                lower=np.zeros(len(idx)),
                upper=np.full(len(idx), np.inf),
            )
            sol = SimplexSolver(problem).resolve(v[idx], maximize=True)
            if sol.status is LpStatus.OPTIMAL and sol.objective > tol:
                return False
    return True
