"""Checks of the program's outputs, computed apart from the program.

Everything here reads the instance's own LinearRow data and builds its
dense rows itself; nothing goes through pumplab's check_feasible,
normalize, dense_rows or LP code. scipy's HiGHS is used only here, after
the timed region.
"""

from __future__ import annotations

import math

import numpy as np

INTEGRALITY_TOL = 1e-9
ROW_TOL = 1e-7
DISTANCE_TOL = 1e-6
CANCEL_TOL = 1e-9
MAX_SAMPLES = 40


def _sense(row) -> str:
    return row.sense.value


def dense(instance):
    """(A, B, b, senses) of the instance's original rows."""
    m = len(instance.rows)
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
        senses.append(_sense(row))
    return A, B, b, senses


def point_problem(instance, point) -> str:
    """Why a `found` point is not a solution, or "" when it is one."""
    if point is None:
        return "found without a point"
    x = np.asarray(point.x, dtype=float).reshape(-1)
    y = np.asarray(point.y, dtype=float).reshape(-1)
    if x.shape != (instance.n,) or y.shape != (instance.d,):
        return f"point has {x.size}+{y.size} columns, instance has {instance.n}+{instance.d}"
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return "point is not finite"
    off = np.minimum(np.abs(x), np.abs(x - 1.0))
    if off.size and off.max() > INTEGRALITY_TOL:
        j = int(np.argmax(off))
        return f"x[{j}] = {float(x[j])!r} is not within {INTEGRALITY_TOL:g} of 0/1"
    for r, row in enumerate(instance.rows):
        lhs = sum(v * x[j] for j, v in row.bin_coeffs.items())
        lhs += sum(v * y[j] for j, v in row.cont_coeffs.items())
        sense = _sense(row)
        if sense == "<=":
            excess = lhs - row.rhs
        elif sense == ">=":
            excess = row.rhs - lhs
        else:
            excess = abs(lhs - row.rhs)
        if excess > ROW_TOL:
            return f"row {r} ({sense}) is violated by {excess:.3g}"
    return ""


def run_problem(run) -> str:
    """Why an operation failed on its own evidence, or "" when it did not.

    A run fails when it raises, ends in `error`, or returns `found` with a
    point that fails point_problem. `iter_limit` is a completed run.
    """
    if not hasattr(run.result, "outcome"):
        return f"raised {run.result.name}: {run.result.message}"
    if run.row.outcome == "error":
        return "outcome error"
    trace = run.result
    if (trace.outcome, trace.iterations, trace.perturbations, trace.restarts) != (
        run.row.outcome, run.row.iterations, run.row.perturbations, run.row.restarts
    ):
        return "bench row differs from the trace the pump returned"
    if run.row.outcome == "found":
        return point_problem(run.instance, trace.point)
    return ""


def excess(rows, X, Y) -> np.ndarray:
    """Largest row violation of each point (X[e], Y[e]), 0 when none."""
    A, B, b, senses = rows
    lhs = X @ A.T + Y @ B.T
    senses = np.array(senses)
    out = np.where(senses == "<=", lhs - b, np.where(senses == ">=", b - lhs, np.abs(lhs - b)))
    return np.maximum(out.max(axis=1, initial=0.0), 0.0)


def certificate_problem(rows, cert) -> str:
    """Check lambda >= 0, lambda B = 0 and lambda (A x~ - b) > 0 on the
    original rows, each normalized row read as (source row, sign)."""
    A, B, b, senses = rows
    x = np.asarray(cert.point, dtype=float).reshape(-1)
    if not cert.support_rows:
        return "empty support"
    w = np.zeros(len(b))
    for r, (src, sign) in zip(cert.support_rows, cert.original_support):
        lam = cert.lam[r]
        if not lam >= 0.0:
            return f"lambda[{r}] = {lam!r} is negative"
        allowed = {"<=": (1,), ">=": (-1,), "=": (1, -1)}[senses[src]]
        if sign not in allowed:
            return f"row {src} ({senses[src]}) cannot enter with sign {sign}"
        w[src] += sign * lam
    cancel = w @ B
    if cancel.size and np.abs(cancel).max() > CANCEL_TOL:
        return f"lambda B is {np.abs(cancel).max():.3g} away from 0"
    violation = float(w @ (A @ x - b))
    if not violation > 0.0:
        return f"lambda (A x~ - b) = {violation!r} is not positive"
    return ""


class Inspection:
    """What the memo tables of one run showed: problems, and a few
    projections kept for the HiGHS comparison."""

    def __init__(self):
        self.problems: list = []
        self.samples: list = []     # (instance, x~ bytes, ProjectionEntry)
        self.projections = 0
        self.certificates = 0


class Inspector:
    """Checks every projection and certificate a run's oracles memoized.

    Called as each run returns, while its oracles are alive; keeps only
    the last SAMPLE_PER_RUN projections of each run, which come after the
    most warm pivots, for highs_problems.
    """

    SAMPLE_PER_RUN = 2

    def __init__(self):
        self._rows: dict = {}

    def rows(self, instance):
        # the instance is kept with its rows, so its id is not reused
        rows = self._rows.get(id(instance))
        if rows is None:
            rows = self._rows[id(instance)] = (instance, dense(instance))
        return rows[1]

    def __call__(self, instance, oracles) -> Inspection:
        out = Inspection()
        rows = self.rows(instance)
        for oracle in oracles:
            entries = list(oracle.cache.items())
            projections = [(key, e) for key, e in entries if hasattr(e, "x_bar")]
            if projections:
                out.projections += len(projections)
                X = np.array([e.x_bar for _, e in projections])
                Y = np.array([e.y_bar for _, e in projections]).reshape(len(projections), instance.d)
                worst = excess(rows, X, Y)
                off_box = np.maximum(-X, X - 1.0).max(axis=1, initial=0.0)
                bad = (worst > ROW_TOL) | (off_box > ROW_TOL)
                if bad.any():
                    out.problems.append(f"{int(bad.sum())} of {len(projections)} projections leave the "
                                        f"relaxation (worst row excess {worst.max():.3g})")
                out.samples += [(instance, key, e) for key, e in projections[-self.SAMPLE_PER_RUN:]]
            for _, cert in entries:
                if hasattr(cert, "lam"):
                    out.certificates += 1
                    why = certificate_problem(rows, cert)
                    if why:
                        out.problems.append(f"certificate: {why}")
        return out


def _sample(items, limit=MAX_SAMPLES):
    # evenly spaced and deterministic, so every workload's sample repeats
    if len(items) <= limit:
        return list(items)
    step = len(items) / limit
    return [items[int(i * step)] for i in range(limit)]


def highs_distance(instance, x_tilde) -> float:
    """min ||x~ - x||_1 over the relaxation, solved by HiGHS."""
    from scipy.optimize import linprog

    A, B, b, senses = dense(instance)
    n, d = instance.n, instance.d
    M = np.hstack([A, B])
    le = [r for r, s in enumerate(senses) if s == "<="]
    ge = [r for r, s in enumerate(senses) if s == ">="]
    eq = [r for r, s in enumerate(senses) if s == "="]
    A_ub = np.vstack([M[le], -M[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    c = np.concatenate([1.0 - 2.0 * x_tilde, np.zeros(d)])
    res = linprog(
        c,
        A_ub=A_ub if A_ub.shape[0] else None,
        b_ub=b_ub if A_ub.shape[0] else None,
        A_eq=M[eq] if eq else None,
        b_eq=b[eq] if eq else None,
        bounds=[(0.0, 1.0)] * n + [(None, None)] * d,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun + x_tilde.sum())


def highs_problems(runs) -> tuple[int, dict]:
    """Compare a sample of the inspected projections with HiGHS.

    Returns (projections compared, {run index: problem})."""
    samples = [(i, sample) for i, run in enumerate(runs) for sample in run.inspected.samples]
    chosen = _sample(samples)
    problems = {}
    for i, (instance, key, entry) in chosen:
        ref = highs_distance(instance, np.frombuffer(key, dtype=np.int8).astype(float))
        if abs(ref - entry.distance) > DISTANCE_TOL:
            problems[i] = f"projection distance {entry.distance!r}, HiGHS {ref!r}"
    return len(chosen), problems


def t5_bound(n: int, delta: float = 0.1) -> int:
    """Pump iterations 2 n n^(2n) ceil(ln(1/delta)) of the n-only bound."""
    return 2 * n * n ** (2 * n) * max(1, math.ceil(math.log(1.0 / delta) - 1e-12))


def trap_problems(runs, trapped_cap: int) -> list:
    """The properties of acceptance criteria 1 to 3 on the traps runs.

    1. `orig` never escapes fractional-stall within the cap.
    2. `origzf` never escapes zero-frac-stall-t within the cap.
    3. `wfp` finds a point on fractional-stall and zero-frac-stall-3 on
       every seed, with median iterations within the n-only bound.
    """
    problems = []
    for run in runs:
        row = run.row
        trapped = (row.algorithm == "orig" and row.instance == "fractional-stall") or (
            row.algorithm == "origzf" and row.instance.startswith("zero-frac-stall-")
        )
        if trapped and (row.outcome != "iter_limit" or row.iterations != trapped_cap):
            problems.append(f"{row.instance} {row.algorithm} seed {row.seed} left the trap: {row.outcome}")
    for name in ("fractional-stall", "zero-frac-stall-3"):
        wfp = [run for run in runs if run.row.instance == name and run.row.algorithm == "wfp"]
        if not wfp:
            problems.append(f"no wfp runs on {name}")
            continue
        stuck = [run.row.seed for run in wfp if run.row.outcome != "found"]
        if stuck:
            problems.append(f"wfp did not escape {name} on seeds {stuck}")
        median = float(np.median([run.row.iterations for run in wfp]))
        bound = t5_bound(wfp[0].instance.n)
        if median > bound:
            problems.append(f"wfp median iterations {median} on {name} exceed the bound {bound}")
    return problems
