"""Rounding, l1 projection, and the alternating-projection operator.

The projection of a binary point x~ is the LP

    min ||x~ - x||_1  over  (x, y) in P,

whose objective is linear on [0,1]^n: coefficient (1 - 2*x~_j) on x_j plus
the constant sum(x~). Each :class:`ProjectionOracle` keeps a single warm
simplex (the constraint system never changes, only the cost row), cloned
from the instance's compiled solver after phase 1, and memoizes every
distinct x~ it has projected, so pump loops that revisit a rounded point
pay a dict lookup instead of an LP solve.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InstanceInfeasible, NoFixpoint, NonBinaryVector
from .lp import CompiledInstance, LpProblem, LpStatus
from .model import MixedBinaryInstance, Sense, dense_objective
# perfbench/tracing.py wraps these two names in this module's namespace
from .model import dense_rows, normalize  # noqa: F401

ROUND_SNAP = 1e-9
INT_TOL = 1e-6
_INT8 = np.dtype(np.int8)


def round_binary(v) -> np.ndarray:
    """Componentwise nearest 0/1 with ties at 0.5 going up.

    Values within ROUND_SNAP of 0.5 are treated as exactly 0.5 first, so
    solver noise cannot flip the tie direction.
    """
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size and (arr.min() < -1e-6 or arr.max() > 1.0 + 1e-6):
        raise NonBinaryVector("rounding expects values in [0, 1]")
    arr = arr.copy()
    arr[np.abs(arr - 0.5) <= ROUND_SNAP] = 0.5
    return (arr >= 0.5).astype(np.int8)


def is_integral(x_bar: np.ndarray, rounded: np.ndarray) -> bool:
    """x_bar is within INT_TOL of its rounding round_binary(x_bar)."""
    return bool(x_bar.size == 0 or np.max(np.abs(x_bar - rounded)) <= INT_TOL)


def as_binary(v) -> np.ndarray:
    """v as a new int8 vector; NonBinaryVector unless every entry is 0 or 1."""
    src = np.asarray(v, dtype=float).reshape(-1)
    if not ((src == 0.0) | (src == 1.0)).all():
        raise NonBinaryVector("expected an exact 0/1 vector")
    return src.astype(np.int8)


class ProjectionEntry(NamedTuple):
    x_bar: np.ndarray      # projected binary part (floats in [0,1])
    y_bar: np.ndarray      # continuous part of the projection
    distance: float        # ||x~ - x_bar||_1
    rounded: np.ndarray    # round_binary(x_bar), int8
    rounded_key: bytes
    integral: bool         # x_bar within INT_TOL of rounded


def _projection_problem(view: CompiledInstance) -> LpProblem:
    # the relaxation x in [0, 1]^n, y free, normalized rows; the cost row
    # is set by each resolve
    n, d, m = view.instance.n, view.instance.d, view.norm.m
    return LpProblem(
        coeffs=np.hstack([view.A, view.B]),
        senses=[Sense.LE] * m,
        rhs=view.b,
        lower=np.concatenate([np.zeros(n), np.full(d, -np.inf)]),
        upper=np.concatenate([np.ones(n), np.full(d, np.inf)]),
    )


class ProjectionOracle:
    """Warm LP engine + memo table for one instance's l1 projections."""

    def __init__(self, instance: MixedBinaryInstance):
        self.instance = instance
        self.view = CompiledInstance.of(instance)
        self.n, self.d = instance.n, instance.d
        self.solver = self.view.solver(_projection_problem)
        if not self.solver.ensure_phase1():
            raise InstanceInfeasible(f"instance {instance.name!r} has an empty relaxation")
        self.cache: dict[bytes, ProjectionEntry] = {}
        self.lp_solves = 0

    def relaxation(self) -> tuple[np.ndarray, np.ndarray]:
        """An optimal vertex of the relaxation (zero objective when absent).

        Falls back to a zero-objective vertex if the stated objective is
        unbounded over the relaxation.
        """
        cb, cc = dense_objective(self.instance)
        c = np.concatenate([cb, cc])
        sol = self.solver.resolve(c, maximize=True)
        if sol.status is not LpStatus.OPTIMAL:
            sol = self.solver.resolve(np.zeros(self.n + self.d), maximize=False)
        self.lp_solves += 1
        return sol.x[: self.n].copy(), sol.x[self.n :].copy()

    def entry(self, x_tilde) -> ProjectionEntry:
        """The memoized projection of x_tilde; NonBinaryVector unless it is
        an exact 0/1 vector. Only 0/1 keys are stored, so an int8 point is
        checked on a miss alone and a hit pays for no check."""
        if getattr(x_tilde, "dtype", None) is not _INT8:
            x_tilde = as_binary(x_tilde)
        key = x_tilde.tobytes()
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        # one byte per entry: deleting the bytes 0 and 1 leaves nothing
        if key.translate(None, b"\x00\x01"):
            raise NonBinaryVector("expected an exact 0/1 vector")
        return self._solve(np.ascontiguousarray(x_tilde).reshape(-1), key)

    def _solve(self, arr: np.ndarray, key: bytes) -> ProjectionEntry:
        c = np.concatenate([1.0 - 2.0 * arr, np.zeros(self.d)])
        sol = self.solver.resolve(c, maximize=False)
        # bounded objective over [0,1]^n, so OPTIMAL is the only possibility
        x_bar = sol.x[: self.n]
        y_bar = sol.x[self.n :]
        distance = float(sol.objective + int(arr.sum()))
        rounded = round_binary(x_bar)
        entry = ProjectionEntry(x_bar, y_bar, distance, rounded, rounded.tobytes(), is_integral(x_bar, rounded))
        self.cache[key] = entry
        self.lp_solves += 1
        return entry

    def pair_feasible(self, x, y) -> bool:
        """(x, y) violates no normalized row (CompiledInstance.violated_rows)."""
        return not self.view.violated_rows(x, y).any()


def alt_proj_star(oracle: ProjectionOracle, x_tilde) -> tuple[np.ndarray, ProjectionEntry]:
    """The fixpoint z of x -> round_binary(projection of x) from x_tilde,
    with the projection entry of z itself.

    Running out of 2n + 10 applications raises NoFixpoint.
    """
    cap = 2 * oracle.n + 10
    z = as_binary(x_tilde)
    key = z.tobytes()
    for _ in range(cap):
        e = oracle.entry(z)
        if e.rounded_key == key:
            return z.copy(), e
        z, key = e.rounded, e.rounded_key
    raise NoFixpoint(f"no alternating-projection fixpoint within {cap} applications")
