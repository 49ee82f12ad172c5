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

With no continuous columns (d = 0) the LP is max v @ lambda over the
simplex {lambda >= 0, sum(lambda) = 1}, with v = A x~ - b. Its optimum is
a vertex e_r: the most violated row, WalkSAT's unsatisfied clause. The
oracle builds no LP for it and gets the warm simplex's answer, bit for
bit, in closed form:

- The tableau has one row, and every entry of it is 1.0. Phase 1 enters
  lambda_0, so row 0 is basic after it.
- From basic row r the reduced cost of lambda_j is (-v_j) - (-v_r), whose
  negation is v_j - v_r exactly (rounding is symmetric under negation).
  The simplex enters the first j of largest v_j - v_r, and only when that
  exceeds COST_TOL.
- That takes one pivot, with t = 1 on the entry 1.0, so lambda = e_j
  exactly and the objective is v_j. No v_i - v_j is positive after it, so
  no second pivot follows.
- The oracle keeps r and moves it exactly where the simplex would pivot,
  before the ROW_TOL test, as the LP's basis moves before its objective
  is read. The answer is lambda = e_r, a = A[r], beta = b[r] and
  violation = v_r; the LP's beta is the dot product lambda @ b, which
  gives 0.0 where b[r] is -0.0.
- No continuous column needs cancelling, so a certificate can exist
  whenever there is a row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonBinaryVector, NotACertificate
from .lp import COST_TOL, ROW_TOL, CompiledInstance, LpProblem, LpStatus
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


def _lambda_problem(view: CompiledInstance) -> LpProblem:
    # B.T @ lambda = 0, sum(lambda) = 1, lambda >= 0 (built only when d > 0);
    # the cost row is set by each resolve
    m, d = view.norm.m, view.instance.d
    return LpProblem(
        coeffs=np.vstack([view.B.T, np.ones((1, m))]),
        senses=[Sense.EQ] * (d + 1),
        rhs=np.concatenate([np.zeros(d), [1.0]]),
        lower=np.zeros(m),
        upper=np.full(m, np.inf),
    )


class CertificateOracle:
    """Minimal certificates of one instance's points, memoized per point.

    With continuous columns, a warm lambda-LP whose cost row changes with
    the point; without, the most violated row, tracked as `row` the way
    the lambda-LP's basis would move (see the module docstring).
    """

    def __init__(self, view: CompiledInstance):
        self.view = view
        if view.instance.d:
            self.solver = self.view.solver(_lambda_problem).clone()
            # infeasible lambda-LP means no certificate can exist for any point
            self.possible = self.solver.ensure_phase1()
        else:
            self.solver = None
            self.row = 0
            self.possible = self.view.norm.m > 0
        self.cache: dict[bytes, ProjectedCertificate] = {}

    def min_certificate(self, x_bar) -> ProjectedCertificate:
        x = np.asarray(x_bar, dtype=float).reshape(-1)
        key = x.tobytes()
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        if x.shape != (self.view.instance.n,):
            raise DimensionMismatch(f"point has {x.size} entries, instance has {self.view.instance.n} binaries")
        if not np.isfinite(x).all():
            raise NonBinaryVector("a certificate needs a finite point")
        if not self.possible:
            raise NotACertificate("no row combination cancels the continuous columns")
        view = self.view
        v = view.A @ x - view.b
        if self.solver is None:
            score = v - v[self.row]
            j = int(score.argmax())
            if score[j] > COST_TOL:
                self.row = j
            r = self.row
            if v[r] <= ROW_TOL:
                raise NotACertificate("the point lies in the binary projection")
            support = (r,)
            lam = {r: 1.0}
            a_vec = view.A[r]
            # + 0.0 turns the -0.0 rhs of a flipped zero row into 0.0, as
            # the LP's dot product lambda @ b does
            beta = float(view.b[r]) + 0.0
            violation = float(v[r])
        else:
            sol = self.solver.resolve(v, maximize=True)
            if sol.status is not LpStatus.OPTIMAL or sol.objective <= ROW_TOL:
                raise NotACertificate("the point lies in the binary projection")
            lam_vec = sol.x
            support = tuple(int(r) for r in np.flatnonzero(lam_vec > _SUPP_EPS))
            lam = {r: float(lam_vec[r]) for r in support}
            a_vec = lam_vec @ view.A
            beta = float(lam_vec @ view.b)
            violation = float(sol.objective)
        a = {int(j): float(a_vec[j]) for j in np.flatnonzero(np.abs(a_vec) > _SUPP_EPS)}
        origin = view.norm.row_origin
        cert = ProjectedCertificate(
            point=x.copy(),
            lam=lam,
            a=a,
            beta=beta,
            support_rows=support,
            original_support=tuple(origin[r] for r in support),
            violation=violation,
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
