"""Bounded-variable two-phase simplex on a dense tableau.

Layout: for m rows and n structural columns the variables are the n
structural columns, m slacks and m artificials, in that order. Every row
is an equality a@x + s = b where the slack's bounds encode the sense (<=
gives s >= 0, >= gives s <= 0, = pins s to 0). Phase 1 minimizes the
signed sum of the artificial columns that were needed to complete the
initial basis. When it succeeds, the nonbasic artificials are dropped:
the variables are the n structural columns and m slacks, then any
artificial still basic (at zero, on a redundant row), pinned to zero, all
in their old order. Phase 2 runs the caller's objective on them.

The tableau is condensed: T stores only the columns that can enter, the
nonbasic columns that are not fixed at zero. `nonbasic` gives the
variable in each slot of T and `slot` maps each variable back to its slot
(-1 when its column is not stored). The other columns are implicit: a
basic column of the full tableau is always an exact unit vector, and a
column fixed at zero never enters nor moves a basic value. So phase 1
never stores the fixed artificials of rows whose slack absorbed the
residual, and phase 2 updates m x n entries instead of m x (n + m). The
reduced costs d stay in variable order, so pricing ties still go to the
smallest variable index. The refresh of the basic values and reduced
costs scatters T into a new full-width matrix of zeros and multiplies
there, so BLAS sums the same terms in the same order as on the full tableau.

An LpProblem is only the constraint system; it carries no objective.
Every objective is posed through `resolve`, which runs phase 1 once on
first use and then phase 2 with the cost vector it is given, from the
basis the previous call left. That state is all a solver holds: the
arrays of `_STATE_ARRAYS`, the sizes m, nstruct and N and the phase-1
flags; no scratch or pivot-rule mode outlives a solve. `clone` copies
every state array, so clones share no memory. The projection oracle and, on
instances with continuous columns, the certificate oracle depend on
both: the constraint system never changes inside a pump run, only the
cost vector does, and each oracle starts from a clone of a solver that
ran phase 1 once for the instance.

CompiledInstance holds that per-instance state: the normalized instance,
its dense rows, and the solvers of the LPs built on them, after phase 1.
The caller builds the view and hands it to the oracles and runs on the
instance; the state lives as long as the caller keeps the view. Memo
tables stay with each oracle. The view also keeps `chain`, the projection
LP's prefix chain, which `pumplab.projection` owns: its rules and its
nodes are described there.

Pivot update: when j enters at row r and k leaves, k's unit column e_r
is written into j's slot before the divide and the rank-1 update, which
then give it the values the full tableau would hold in k's column (when k
is fixed at zero its slot is given up instead). Every stored entry thus
gets the same float operations as on the full tableau, and with the
refresh above the answers are bit for bit those of the full tableau. The
rank-1 update touches only the rows where the pivot column is nonzero
when fewer than a quarter of the rows are, and the whole matrix
otherwise, where gathering and scattering most rows costs more than
updating all of them. Each side carries one
workload: in a seed-0 benchmark pass, two-stage makes 14,111 dense and
145 sparse updates, and decomp-walk 153 dense and 4,535 sparse.

Pricing state: the solver keeps, beside vstat, what pricing and the
ratio test read, so no round re-derives it. `price_up` is -1 where a
variable may increase (at its lower bound or free) and `price_dn` is +1
where it may decrease (at its upper bound or free), both 0 for basic
variables and for fixed ones (equal bounds, read from the bounds); and
`basic_lower`/`basic_upper` are the bounds of the basic variables, row
by row. They are computed from vstat, the bounds and the basis when the
solver is built and when the artificials are dropped; afterwards a pivot
updates only the entries of the entering and leaving variables and of
the pivot row, and a bound flip only the entry of the flipped variable.
`clone` copies them with the other state arrays. The score of a column
is max(price_up * d, price_dn * d): the violation -d or d where the
column may move that way, +-0 elsewhere.

Determinism: entering column is the most violating reduced cost with ties
to the smallest index (plain argmax; a score is a positive violation or
+-0, and the two zeros compare equal), leaving row is the smallest basis
index among minimum-ratio rows with an acceptable pivot magnitude, and a
Bland fallback holds from a long run of degenerate steps to the end of
that solve.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidInstance, SolverFailure
from .model import MixedBinaryInstance, Sense, dense_rows, normalize

FEAS_TOL = 1e-9      # phase-1 acceptance threshold
COST_TOL = 1e-9      # reduced-cost optimality threshold
ROW_TOL = 1e-9       # row slack of feasibility; certificates must violate by more
PIVOT_TOL = 1e-8     # preferred minimum pivot magnitude
DEGEN_TOL = 1e-12    # steps at or below this count as degenerate
ABSORB_TOL = 1e-12   # a slack absorbs a residual this far outside its bounds
RATIO_TOL = 1e-11    # the ratio test skips rows whose |pivot column entry| is at most this
SNAP_TOL = 1e-9      # a value this close to a bound is returned as the bound
_REFRESH_EVERY = 200


class LpStatus(IntEnum):
    OPTIMAL = 0
    INFEASIBLE = 1
    UNBOUNDED = 2


# column status codes of SimplexSolver.vstat
BASIC, AT_LOWER, AT_UPPER, FREE = 0, 1, 2, 3

_STATE_ARRAYS = ("T", "nonbasic", "slot", "rhs_col", "val", "vstat", "basis", "lower", "upper",
                 "price_up", "price_dn", "basic_lower", "basic_upper")


@dataclass
class LpProblem:
    """The constraint system {lower <= x <= upper, rows}; no objective.

    coeffs is 2-D, one row per constraint, and its shape gives the row and
    column counts (a zero-row system is an array of shape (0, n)). Every
    objective is posed by `SimplexSolver.resolve`.
    """

    coeffs: np.ndarray
    senses: Sequence[Sense]
    rhs: np.ndarray
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        m, n = self.coeffs.shape
        self.rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        self.senses = tuple(Sense(s) for s in self.senses)
        self.lower = np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float).reshape(-1)
        self.upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float).reshape(-1)
        if self.rhs.shape != (m,) or len(self.senses) != m:
            raise DimensionMismatch("rhs/senses length does not match row count")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise DimensionMismatch("bounds length does not match column count")
        if not (np.all(np.isfinite(self.coeffs)) and np.all(np.isfinite(self.rhs))):
            raise InvalidInstance("coefficients and rhs must be finite")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise InvalidInstance("bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise InvalidInstance("lower bound above upper bound")


@dataclass
class LpSolution:
    status: LpStatus
    x: Optional[np.ndarray]
    objective: Optional[float]


class SimplexSolver:
    def __init__(self, problem: LpProblem):
        m, n = problem.coeffs.shape
        N = n + 2 * m
        self.m, self.nstruct, self.N = m, n, N

        # the full initial tableau [A | I | I] (structural, slack and
        # artificial columns)
        wide = np.zeros((m, N))
        if m:
            wide[:, :n] = problem.coeffs
            idx = np.arange(m)
            wide[idx, n + idx] = 1.0
            wide[idx, n + m + idx] = 1.0

        lower = np.full(N, 0.0)
        upper = np.full(N, 0.0)
        lower[:n] = problem.lower
        upper[:n] = problem.upper
        lower[n : n + m] = [-np.inf if s is Sense.GE else 0.0 for s in problem.senses]
        upper[n : n + m] = [np.inf if s is Sense.LE else 0.0 for s in problem.senses]
        self.lower, self.upper = lower, upper

        self.rhs_col = problem.rhs.astype(float).copy()
        self.val = np.zeros(N)
        self.vstat = np.full(N, AT_LOWER, dtype=np.int8)
        self.basis = np.zeros(m, dtype=np.int64)
        self._phase1_done = False
        self._feasible = False
        self._init_basis(wide)
        # the initial basis is the identity, so T holds the columns that
        # can enter as they are; no artificial is among them, as each is
        # basic or fixed at zero
        self.nonbasic = np.flatnonzero((self.vstat != BASIC) & ((lower != 0.0) | (upper != 0.0)))
        self.slot = np.full(N, -1, dtype=np.int64)
        self.slot[self.nonbasic] = np.arange(self.nonbasic.size)
        self.T = np.ascontiguousarray(wide[:, self.nonbasic])
        self._price_state()

    def clone(self) -> "SimplexSolver":
        """An independent solver in this one's state: every state array
        copied, nothing shared."""
        twin = copy.copy(self)
        for name in _STATE_ARRAYS:
            setattr(twin, name, getattr(self, name).copy())
        return twin

    # -- setup ---------------------------------------------------------------

    def _init_basis(self, wide: np.ndarray):
        # structural columns sit at a finite bound (0 when free); a row's
        # slack absorbs the residual when its bounds allow, otherwise it
        # parks at the violated (finite) bound and the row's artificial is
        # basic with the rest, signed so phase 1 drives it to zero
        n, m = self.nstruct, self.m
        val, vstat, lower, upper = self.val, self.vstat, self.lower, self.upper
        lo, up = lower[:n], upper[:n]
        fin_lo, fin_up = np.isfinite(lo), np.isfinite(up)
        val[:n] = np.where(fin_lo, lo, np.where(fin_up, up, 0.0))
        vstat[:n] = np.where(fin_lo, AT_LOWER, np.where(fin_up, AT_UPPER, FREE))
        if not m:
            return
        resid = self.rhs_col - wide[:, :n] @ val[:n]
        s_cols = np.arange(n, n + m)
        a_cols = s_cols + m
        lo_s, up_s = lower[s_cols], upper[s_cols]
        absorb = (lo_s - ABSORB_TOL <= resid) & (resid <= up_s + ABSORB_TOL)
        clipped = np.where(np.isfinite(lo_s) & np.isfinite(up_s),
                           np.minimum(np.maximum(resid, lo_s), up_s), resid)
        parked = np.where(resid > up_s, up_s, lo_s)
        val[s_cols] = np.where(absorb, clipped, parked)
        vstat[s_cols] = np.where(absorb, BASIC, np.where(parked == up_s, AT_UPPER, AT_LOWER))
        self.basis[:] = np.where(absorb, s_cols, a_cols)
        art = a_cols[~absorb]
        a_val = (resid - parked)[~absorb]
        pos = a_val >= 0
        val[art] = a_val
        vstat[art] = BASIC
        lower[art] = np.where(pos, 0.0, -np.inf)
        upper[art] = np.where(pos, np.inf, 0.0)

    def _price_state(self):
        # the pricing state, rebuilt from vstat, the bounds and the basis;
        # _optimize keeps it up to date at each pivot and bound flip
        vstat = self.vstat
        priced = (vstat != BASIC) & (self.lower != self.upper)
        self.price_up = np.where(priced & ((vstat == AT_LOWER) | (vstat == FREE)), -1.0, 0.0)
        self.price_dn = np.where(priced & ((vstat == AT_UPPER) | (vstat == FREE)), 1.0, 0.0)
        self.basic_lower = self.lower[self.basis]
        self.basic_upper = self.upper[self.basis]

    # -- core ----------------------------------------------------------------

    def _refresh(self, cost: np.ndarray) -> np.ndarray:
        if self.m:
            # both products run at full width (see the module docstring);
            # a column not stored is zero in wide and meets only a zero value
            nb, basis = self.nonbasic, self.basis
            wide = np.zeros((self.m, self.N))
            wide[:, nb] = self.T
            vnb = self.val.copy()
            vnb[basis] = 0.0
            self.val[basis] = self.rhs_col - wide @ vnb
            d = cost - cost[basis] @ wide
            d[basis] = 0.0
        else:
            d = cost.copy()
        return d

    def _optimize(self, cost: np.ndarray, phase1: bool) -> LpStatus:
        m, n = self.m, self.nstruct
        T, val, vstat, basis = self.T, self.val, self.vstat, self.basis
        nonbasic, slot = self.nonbasic, self.slot
        lower, upper, rhs_col = self.lower, self.upper, self.rhs_col
        up, dn = self.price_up, self.price_dn
        blo, bup = self.basic_lower, self.basic_upper
        d = self._refresh(cost)
        max_pivots = 10000 + 200 * (m + n)
        pivots = 0
        degen_run, bland = 0, False    # Bland's rule, once on, holds to the end of this solve
        limits = np.empty(m)
        while True:
            if pivots and pivots % _REFRESH_EVERY == 0:
                d = self._refresh(cost)
            # -d where j may increase, d where it may decrease, and +-0
            # where it may not move
            score = np.maximum(up * d, dn * d)
            if bland:
                viol = (score > COST_TOL).nonzero()[0]
                if viol.size == 0:
                    return LpStatus.OPTIMAL
                j = int(viol[0])
            else:
                j = int(score.argmax())
                if score[j] <= COST_TOL:
                    return LpStatus.OPTIMAL
            st = int(vstat[j])
            if st == AT_LOWER:
                sigma = 1.0
            elif st == AT_UPPER:
                sigma = -1.0
            else:
                sigma = 1.0 if d[j] < 0 else -1.0

            p = int(slot[j])
            col = T[:, p].copy()
            delta = sigma * col
            if m:
                vb = val[basis]
                size = np.abs(delta)
                limits.fill(np.inf)
                np.divide(np.where(delta > 0, vb - blo, bup - vb), size, out=limits, where=size > RATIO_TOL)
                np.maximum(limits, 0.0, out=limits)
                t_row = float(limits.min())
            else:
                t_row = np.inf
            rng_j = upper[j] - lower[j]
            t_bnd = rng_j if math.isfinite(rng_j) else math.inf
            t = min(t_row, t_bnd)
            if not math.isfinite(t):
                if phase1:
                    raise SolverFailure("phase 1 claims an unbounded direction")
                return LpStatus.UNBOUNDED

            if t <= DEGEN_TOL:
                degen_run += 1
                if degen_run > 10 * (m + n):
                    bland = True
            else:
                degen_run = 0

            if t_bnd <= t_row:
                # bound flip: no basis change
                if m:
                    val[basis] = vb - t_bnd * delta
                if st == AT_LOWER:
                    val[j], vstat[j], up[j], dn[j] = upper[j], AT_UPPER, 0.0, 1.0
                else:
                    val[j], vstat[j], up[j], dn[j] = lower[j], AT_LOWER, -1.0, 0.0
            else:
                cands = (limits <= t + DEGEN_TOL).nonzero()[0]
                good = cands[size[cands] >= PIVOT_TOL]
                if good.size:
                    r = int(good[basis[good].argmin()])
                else:
                    r = int(cands[size[cands].argmax()])
                step = sigma * t
                val[basis] = vb - step * col
                val[j] += step
                k = int(basis[r])
                fixed = lower[k] == upper[k]
                if delta[r] > 0:
                    val[k], vstat[k] = lower[k], AT_LOWER
                    up[k], dn[k] = (0.0, 0.0) if fixed else (-1.0, 0.0)
                else:
                    val[k], vstat[k] = upper[k], AT_UPPER
                    up[k], dn[k] = (0.0, 0.0) if fixed else (0.0, 1.0)
                piv = col[r]
                if lower[k] == 0.0 == upper[k]:
                    # k never enters again: move the last slot into j's
                    last = nonbasic.size - 1
                    T[:, p] = T[:, last]
                    nonbasic[p] = nonbasic[last]
                    slot[nonbasic[p]] = p
                    T = self.T = T[:, :last]
                    nonbasic = self.nonbasic = nonbasic[:last]
                else:
                    # j's slot takes k's column, the unit column e_r
                    T[:, p] = 0.0
                    T[r, p] = 1.0
                    nonbasic[p] = k
                    slot[k] = p
                slot[j] = -1
                col[r] = 0.0
                T[r] /= piv
                rhs_col[r] /= piv
                rows = col.nonzero()[0]
                if 4 * rows.size < m:
                    T[rows] -= col[rows, None] * T[r]
                else:
                    T -= col[:, None] * T[r]
                rhs_col -= col * rhs_col[r]
                dj = d[j]
                d[nonbasic] -= dj * T[r]
                d[j] = 0.0
                basis[r] = j
                vstat[j] = BASIC
                up[j] = dn[j] = 0.0
                blo[r], bup[r] = lower[j], upper[j]

            pivots += 1
            if pivots > max_pivots:
                raise SolverFailure(f"pivot limit exceeded ({max_pivots})")

    def ensure_phase1(self) -> bool:
        """Run phase 1 once; True when the constraint system is feasible.

        On success the nonbasic artificial columns are dropped from the
        tableau (see the module docstring)."""
        if self._phase1_done:
            return self._feasible
        # the signed sum of the artificials: +1 where upper is inf, -1 where
        # lower is -inf, 0 on those fixed at zero
        arts, cost = slice(self.nstruct + self.m, self.N), np.zeros(self.N)
        cost[arts] = np.where(self.upper[arts] == np.inf, 1.0, np.where(self.lower[arts] == -np.inf, -1.0, 0.0))
        status = self._optimize(cost, phase1=True)
        if status is not LpStatus.OPTIMAL:
            raise SolverFailure("phase 1 ended in a non-optimal state")
        self._refresh(cost)
        obj1 = float(cost @ self.val)
        self._phase1_done = True
        self._feasible = obj1 <= FEAS_TOL
        if self._feasible:
            self._drop_artificials()
        return self._feasible

    def _drop_artificials(self):
        first = self.nstruct + self.m
        kept_arts = first + np.flatnonzero(self.vstat[first:] == BASIC)
        keep = np.concatenate([np.arange(first), kept_arts])
        # variables keep their order, so every index-based tie-break picks
        # the same column as it would without the drop
        renumber = np.empty(self.N, dtype=np.int64)
        renumber[keep] = np.arange(keep.size)
        self.basis = renumber[self.basis]
        stored = self.nonbasic < first
        self.T = np.ascontiguousarray(self.T[:, stored])
        self.nonbasic = renumber[self.nonbasic[stored]]
        self.val, self.vstat = self.val[keep], self.vstat[keep]
        self.lower, self.upper = self.lower[keep], self.upper[keep]
        self.N = keep.size
        self.slot = np.full(self.N, -1, dtype=np.int64)
        self.slot[self.nonbasic] = np.arange(self.nonbasic.size)
        # an artificial still basic sits at zero on a redundant row; pin it there
        arts = slice(first, self.N)
        self.lower[arts] = 0.0
        self.upper[arts] = 0.0
        self.val[arts] = 0.0
        self._price_state()

    def resolve(self, objective: np.ndarray, maximize: bool = False) -> LpSolution:
        """Phase 2 with a fresh objective over the structural columns."""
        if not self.ensure_phase1():
            return LpSolution(LpStatus.INFEASIBLE, None, None)
        c_user = np.asarray(objective, dtype=float).reshape(-1)
        if c_user.shape != (self.nstruct,):
            raise DimensionMismatch("objective length does not match column count")
        cost = np.zeros(self.N)
        cost[: self.nstruct] = -c_user if maximize else c_user
        status = self._optimize(cost, phase1=False)
        x = self._snapped_x()
        if status is LpStatus.OPTIMAL:
            return LpSolution(LpStatus.OPTIMAL, x, float(c_user @ x))
        return LpSolution(LpStatus.UNBOUNDED, x, None)

    def _snapped_x(self) -> np.ndarray:
        # an infinite bound is never within SNAP_TOL of x
        lo, up = self.lower[: self.nstruct], self.upper[: self.nstruct]
        x = self.val[: self.nstruct]
        x = np.where(np.abs(x - lo) <= SNAP_TOL, lo, x)
        return np.where(np.abs(x - up) <= SNAP_TOL, up, x)


class CompiledInstance:
    """One instance compiled for the LPs built on it.

    norm is the normalized instance and A (binary columns), B (continuous
    columns) and b its dense rows, read-only; `violated_rows` is the one
    test of a point against them. solver(build) returns the solver of the
    LpProblem build(view) describes, after phase 1, which runs when it is
    first asked for; it is shared, so callers resolve only clones of it.
    The caller owns the view and passes it to whatever runs on the instance.
    """

    def __init__(self, instance: MixedBinaryInstance):
        self.instance = instance
        self.norm = normalize(instance)
        A, B, _, b = dense_rows(self.norm)
        for arr in (A, B, b):
            arr.flags.writeable = False
        self.A, self.B, self.b = A, B, b
        self._solvers: dict = {}
        self.chain: list = []      # the projection LP's prefix chain; pumplab.projection owns it

    def violated_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mask of the normalized rows that (x, y) violates by more than ROW_TOL."""
        lhs = self.A @ x
        if self.B.shape[1]:
            lhs = lhs + self.B @ y
        return lhs > self.b + ROW_TOL

    def solver(self, build) -> SimplexSolver:
        base = self._solvers.get(build)
        if base is None:
            base = SimplexSolver(build(self))
            base.ensure_phase1()
            self._solvers[build] = base
        return base
