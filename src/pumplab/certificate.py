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
value above ROW_TOL (or no solution at all, as when no combination cancels
the continuous columns or there are no rows), some y satisfies
B y <= b - A x~ + ROW_TOL, so x~ lifts to a point of P. NotACertificate is
thus the test of whether a binary point lifts, at the tolerance of the row
test `CompiledInstance.violated_rows`; the pump drivers take y from the
projection of such a point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotACertificate
from .lp import ROW_TOL, CompiledInstance, LpProblem, LpStatus
from .model import MixedBinaryInstance, Sense
# perfbench/tracing.py wraps these two names in this module's namespace
from .model import dense_rows, normalize  # noqa: F401

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
        self.view = CompiledInstance.of(instance)
        self.solver = self.view.solver(_lambda_problem)
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
        view = self.view
        v = view.A @ x - view.b
        sol = self.solver.resolve(v, maximize=True)
        if sol.status is not LpStatus.OPTIMAL or sol.objective <= ROW_TOL:
            raise NotACertificate("the point lies in the binary projection")
        lam_vec = sol.x
        support = tuple(int(r) for r in np.flatnonzero(lam_vec > _SUPP_EPS))
        lam = {r: float(lam_vec[r]) for r in support}
        a_vec = lam_vec @ view.A
        a = {int(j): float(a_vec[j]) for j in np.flatnonzero(np.abs(a_vec) > _SUPP_EPS)}
        beta = float(lam_vec @ view.b)
        origin = view.norm.row_origin
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
