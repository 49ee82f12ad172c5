"""Independent brute-force oracles the tests check the package against.

Everything here is deliberately naive: enumeration over binary
assignments, enumeration over basis subsets, Fourier-Motzkin
elimination, one LP per support subset of a certificate. Slow but
obviously correct at the sizes used. The last two helpers write out the
paper's definitions of the l1 norm and of a stalling point.
"""

import itertools

import numpy as np

from pumplab.lp import ROW_TOL, LpProblem, LpStatus, SimplexSolver
from pumplab.model import Sense, dense_rows, normalize

# 0.999 chi-square quantiles by degrees of freedom ("p > 0.001" tests)
CHI2_Q999 = {
    1: 10.828,
    2: 13.816,
    3: 16.266,
    4: 18.467,
    5: 20.515,
    6: 22.458,
    7: 24.322,
    8: 26.125,
    9: 27.877,
}

_MASK_CACHE = {}


def _masks(n):
    if n not in _MASK_CACHE:
        _MASK_CACHE[n] = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)
    return _MASK_CACHE[n]


def subset_sum_l1_value(a, b, x_tilde):
    """Exact optimum of sum_{j: xt=0} x_j + sum_{j: xt=1} (1 - x_j)
    over {x in [0,1]^n : a x = b}, by enumerating the LP's vertices.

    Vertices have at most one fractional coordinate (the line a x = b
    cut with the box), so it suffices to scan all-binary points plus
    points binary except in one coordinate. Returns inf when empty.
    """
    a = np.asarray(a, dtype=float)
    xt = np.asarray(x_tilde, dtype=float)
    n = a.size
    M = _masks(n)
    vals = M @ a
    best = np.inf
    exact = np.abs(vals - b) < 1e-9
    if exact.any():
        best = np.abs(M[exact] - xt).sum(axis=1).min()
    for k in range(n):
        if a[k] == 0:
            continue
        rest = vals - M[:, k] * a[k]          # contribution of the other coords
        xk = (b - rest) / a[k]
        ok = (xk > 1e-12) & (xk < 1.0 - 1e-12)
        if not ok.any():
            continue
        dist = np.abs(M - xt).sum(axis=1) - np.abs(M[:, k] - xt[k]) + np.abs(xk - xt[k])
        cand = dist[ok].min()
        best = min(best, cand)
    return float(best)


def enum_box_lp(coeffs, senses, rhs, lower, upper, objective, maximize=False):
    """Optimize over a polytope {l <= x <= u, rows} by enumerating basic
    points: every subset of n constraints (rows as equalities plus tight
    bounds) is solved and feasibility-checked. Bounds must be finite, so
    the region is a polytope and the optimum (if feasible) sits at one of
    these points. Returns (status, value, x) with status "optimal" or
    "infeasible".
    """
    A = np.asarray(coeffs, dtype=float)
    b = np.asarray(rhs, dtype=float)
    lo = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    c = np.asarray(objective, dtype=float)
    m, n = A.shape
    assert np.isfinite(lo).all() and np.isfinite(up).all()

    cands = [(A[i], b[i]) for i in range(m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cands.append((e.copy(), lo[j]))
        cands.append((e.copy(), up[j]))

    def feasible(x):
        if (x < lo - 1e-7).any() or (x > up + 1e-7).any():
            return False
        r = A @ x
        for i, s in enumerate(senses):
            if s == "<=" and r[i] > b[i] + 1e-7:
                return False
            if s == ">=" and r[i] < b[i] - 1e-7:
                return False
            if s == "=" and abs(r[i] - b[i]) > 1e-7:
                return False
        return True

    seen = set()
    best_val, best_x = None, None
    for subset in itertools.combinations(range(len(cands)), n):
        G = np.array([cands[i][0] for i in subset])
        h = np.array([cands[i][1] for i in subset])
        if abs(np.linalg.det(G)) < 1e-10:
            continue
        x = np.linalg.solve(G, h)
        key = tuple(np.round(x, 8))
        if key in seen:
            continue
        seen.add(key)
        if not feasible(x):
            continue
        v = float(c @ x)
        if best_val is None or (v > best_val if maximize else v < best_val):
            best_val, best_x = v, x
    if best_val is None:
        return "infeasible", None, None
    return "optimal", best_val, best_x


def fm_feasible(B, r, tol=1e-9):
    """Fourier-Motzkin test of whether {y : B y <= r} is nonempty."""
    B = [np.asarray(row, dtype=float) for row in np.atleast_2d(B)]
    r = list(np.asarray(r, dtype=float).ravel())
    d = B[0].size if B else 0
    rows = list(zip(B, r))
    for j in range(d):
        pos, neg, zero = [], [], []
        for coef, rhs in rows:
            if coef[j] > tol:
                pos.append((coef, rhs))
            elif coef[j] < -tol:
                neg.append((coef, rhs))
            else:
                zero.append((coef, rhs))
        new_rows = list(zero)
        for cp, rp in pos:
            for cn, rn in neg:
                # y_j <= (rp - rest_p)/cp_j and y_j >= (rest_n - rn)/(-cn_j)
                coef = cp / cp[j] - cn / cn[j]
                rhs = rp / cp[j] - rn / cn[j]
                new_rows.append((coef, rhs))
        rows = new_rows
    for coef, rhs in rows:
        if rhs < -1e-7:
            return False
    return True


def lift_exists(A, B, b, x_bar):
    """Is there y with B y <= b - A x_bar? Pure binary (no y columns)
    degenerates to a direct row check."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    resid = b - A @ np.asarray(x_bar, dtype=float)
    if B is None or np.asarray(B).size == 0:
        return bool((resid >= -1e-9).all())
    return fm_feasible(np.atleast_2d(B), resid)


def verify_minimal(instance, cert, tol=ROW_TOL):
    """Brute-force check that no strict support subset certifies the point.

    Solves the restricted combination LP for every proper nonempty subset
    of the support. Guarded to instances of at most 12 normalized rows.
    """
    norm = normalize(instance)
    if norm.m > 12:
        raise ValueError(f"brute-force minimality check capped at 12 rows, got {norm.m}")
    A, B, _, b = dense_rows(norm)
    v = A @ cert.point - b
    d = instance.d
    rows = cert.support_rows
    for size in range(1, len(rows)):
        for subset in itertools.combinations(rows, size):
            idx = list(subset)
            problem = LpProblem(
                coeffs=np.vstack([B[idx].T, np.ones((1, len(idx)))]),
                senses=[Sense.EQ] * (d + 1),
                rhs=np.concatenate([np.zeros(d), [1.0]]),
                lower=np.zeros(len(idx)),
                upper=np.full(len(idx), np.inf),
            )
            sol = SimplexSolver(problem).resolve(v[idx], maximize=True)
            if sol.status is LpStatus.OPTIMAL and sol.objective > tol:
                return False
    return True


def norm1(v):
    return float(np.abs(np.asarray(v, dtype=float)).sum())


def is_stalling(oracle, x_tilde):
    """x~ is a stalling point: a fixpoint of x -> round(l1 projection of x)
    that is not feasible itself. Feasible binary points project to
    themselves at distance 0, so they are fixpoints too."""
    z = np.ascontiguousarray(x_tilde, dtype=np.int8)
    e = oracle.entry(z)
    return e.rounded_key == z.tobytes() and e.distance > 1e-9
