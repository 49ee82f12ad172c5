"""Rounding, l1 projection, and the alternating-projection operator.

The projection of a binary point x~ is the LP

    min ||x~ - x||_1  over  (x, y) in P,

whose objective is linear on [0,1]^n: coefficient (1 - 2*x~_j) on x_j plus
the constant sum(x~). Each :class:`ProjectionOracle` keeps a single warm
simplex (the constraint system never changes, only the cost row), cloned
from the instance's compiled solver after phase 1, and memoizes every
distinct x~ it has projected, so pump loops that revisit a rounded point
pay a dict lookup instead of an LP solve.

The runs handed one view share their resolves before their first random
draw through its prefix chain, `CompiledInstance.chain`, which this module
alone reads and extends, and which lives as long as the caller keeps the
view. Each run starts on the instance's deterministic trajectory: node 0
is the relaxation, and node i+1 is the projection of the rounding of node
i's answer. A ChainNode holds the answer, a clone of the solver after it,
and the key its successor must have: the rounding's bytes (the
relaxation's own key is a marker). A resolve's answer and the state it
leaves depend only on the base solver and the costs resolved since, so a
resolve whose key is the trajectory's i-th takes node i's answer without
resolving, the node being added first when the chain ends at i. Any other
resolve leaves the chain for good and goes on from a clone of the last
node taken. No driver says when it draws: before its first draw a run
resolves only trajectory points, each the rounding of the last projection
(a memo hit means it cycles and will resolve nothing until it draws), and
that next key is then in its memo, so no later miss matches it. A node is
added only once its resolve and answer have succeeded, so no answer
depends on the order of runs, and a run that raises raises again on the
next run. A chain hit still enters the memo and counts in `lp_solves`,
which counts resolves and chain hits alike. The chain holds at most
CHAIN_CAP resolves: the runs of the three benchmark workloads and of
criterion 10's grid make 0 to 5 resolves before their first draw, and
naive, which never draws, stops at the cap. Answers the chain hands out
are shared between runs, so their arrays are read-only.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import InstanceInfeasible, NoFixpoint, NonBinaryVector
from .lp import CompiledInstance, LpProblem, LpStatus, SimplexSolver
from .model import Sense, dense_objective
# perfbench/tracing.py wraps these two names in this module's namespace
from .model import dense_rows, normalize  # noqa: F401

ROUND_SNAP = 1e-9
INT_TOL = 1e-6
CHAIN_CAP = 8              # the most resolves a view's prefix chain holds
_RELAXATION = "relaxation"  # the trajectory key of the relaxation; a projection's is its point's bytes
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


class ChainNode(NamedTuple):
    """One resolve on the instance's trajectory: the oracle's answer, the
    solver state it left (only ever cloned, never resolved again) and the
    key the next node must have."""

    answer: object
    solver: SimplexSolver
    next_key: bytes


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
    """Warm LP engine + memo table for the l1 projections of the view's
    instance, following its prefix chain (see the module docstring)."""

    def __init__(self, view: CompiledInstance):
        self.view = view
        self.n, self.d = view.instance.n, view.instance.d
        # the state the next resolve starts from: shared (the base or a
        # chain node's, only ever cloned) while on the trajectory, and the
        # oracle's own clone once off it
        self.solver: SimplexSolver = self.view.solver(_projection_problem)
        if not self.solver.ensure_phase1():
            raise InstanceInfeasible(f"instance {view.instance.name!r} has an empty relaxation")
        self.cache: dict[bytes, ProjectionEntry] = {}
        self.lp_solves = 0         # resolves and chain hits alike
        self._depth = 0            # chain nodes taken
        self._next: Optional[object] = _RELAXATION     # the trajectory's next key; None once off it

    def _resolve(self, key, compute, successor):
        # compute(solver) for the next resolve, keyed by key, successor(answer)
        # being the key after it: node depth's answer while key is the
        # trajectory's next, the node added first at the chain's tip;
        # otherwise, for good, computed on the oracle's own clone
        depth, chain = self._depth, self.view.chain
        if key == self._next and depth < CHAIN_CAP:
            if depth == len(chain):
                # a raise leaves the chain and the oracle as they were
                solver = self.solver.clone()
                answer = compute(solver)
                chain.append(ChainNode(answer, solver, successor(answer)))
            node = chain[depth]
            self._depth, self.solver, self._next = depth + 1, node.solver, node.next_key
            out = node.answer
        else:
            if self._next is not None:     # leaving: go on from a clone of the last node taken
                self.solver = self.solver.clone()
            self._next = None
            out = compute(self.solver)
        self.lp_solves += 1
        return out

    def relaxation(self) -> tuple[np.ndarray, np.ndarray]:
        """An optimal vertex of the relaxation (zero objective when absent),
        as read-only arrays that other runs on the instance may share.

        Falls back to a zero-objective vertex if the stated objective is
        unbounded over the relaxation.
        """
        return self._resolve(_RELAXATION, self._relax, lambda xy: round_binary(xy[0]).tobytes())

    def _relax(self, solver: SimplexSolver) -> tuple[np.ndarray, np.ndarray]:
        cb, cc = dense_objective(self.view.instance)
        sol = solver.resolve(np.concatenate([cb, cc]), maximize=True)
        if sol.status is not LpStatus.OPTIMAL:
            sol = solver.resolve(np.zeros(self.n + self.d), maximize=False)
        sol.x.flags.writeable = False
        return sol.x[: self.n], sol.x[self.n :]

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
        arr = np.ascontiguousarray(x_tilde).reshape(-1)
        entry = self.cache[key] = self._resolve(key, lambda solver: self._project(solver, arr),
                                                lambda e: e.rounded_key)
        return entry

    def _project(self, solver: SimplexSolver, arr: np.ndarray) -> ProjectionEntry:
        c = np.concatenate([1.0 - 2.0 * arr, np.zeros(self.d)])
        sol = solver.resolve(c, maximize=False)
        # bounded objective over [0,1]^n, so OPTIMAL is the only possibility
        sol.x.flags.writeable = False
        x_bar = sol.x[: self.n]
        distance = float(sol.objective + int(arr.sum()))
        rounded = round_binary(x_bar)
        rounded.flags.writeable = False
        return ProjectionEntry(x_bar, sol.x[self.n :], distance, rounded, rounded.tobytes(),
                               is_integral(x_bar, rounded))


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
