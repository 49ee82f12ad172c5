import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enum_box_lp, lift_exists
from pumplab import pump
from pumplab.bench import BenchConfig, run_benchmark
from pumplab.certificate import CertificateOracle, _lambda_problem
from pumplab.errors import InstanceInfeasible, InvalidInstance, NotACertificate
from pumplab.gen import BlockSpec, fractional_stall_instance, gen_decomposable, gen_subset_sum, zero_frac_stall_instance
from pumplab.lp import (_STATE_ARRAYS, AT_LOWER, AT_UPPER, BASIC, FREE, CompiledInstance, LpProblem,
                        LpStatus, SimplexSolver)
from pumplab.projection import ProjectionOracle
from pumplab.pump import lift
from pumplab.model import LinearRow, MixedBinaryInstance, Sense
from pumplab.perturb import make_rng


def test_relaxation_of_single_eq_instance():
    # max x2 s.t. 3 x1 + x2 = 3, x in [0,1]^2: optimum 1 at (2/3, 1)
    prob = LpProblem([[3.0, 1.0]], [Sense.EQ], [3.0], upper=[1.0, 1.0])
    sol = SimplexSolver(prob).resolve([0.0, 1.0], maximize=True)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [2 / 3, 1.0], atol=1e-9)


def test_infeasible_detected():
    prob = LpProblem([[1.0]], [Sense.LE], [-1.0], upper=[1.0])
    assert SimplexSolver(prob).resolve([1.0], maximize=True).status == LpStatus.INFEASIBLE


def test_unbounded_detected():
    prob = LpProblem(np.zeros((0, 1)), [], [])
    assert SimplexSolver(prob).resolve([1.0], maximize=True).status == LpStatus.UNBOUNDED


def test_bounds_validation():
    with pytest.raises(InvalidInstance):
        LpProblem([[1.0]], [Sense.LE], [1.0], lower=[2.0], upper=[1.0])


def test_equality_with_free_column():
    # x + y = 2 with y free, minimize y: pushes y to 2 - upper(x)
    prob = LpProblem([[1.0, 1.0]], [Sense.EQ], [2.0],
                     upper=[1.0, np.inf], lower=[0.0, -np.inf])
    sol = SimplexSolver(prob).resolve([0.0, 1.0])
    assert sol.status == LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-9)


def test_vertex_rank_bound_on_random_problems():
    # basic solutions: strictly-between-bounds columns never exceed row count
    rng = make_rng(0)
    for trial in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        x0 = rng.random(n)
        b = A @ x0 + rng.random(m)          # keeps the box feasible
        senses = [Sense.LE] * m
        prob = LpProblem(A, senses, b, upper=np.ones(n))
        sol = SimplexSolver(prob).resolve(rng.integers(-3, 4, n).astype(float),
                                          maximize=bool(rng.integers(0, 2)))
        assert sol.status == LpStatus.OPTIMAL
        interior = np.sum((sol.x > prob.lower + 1e-7) & (sol.x < prob.upper - 1e-7))
        assert interior <= m


def test_matches_enumeration_oracle_small_boxes():
    rng = make_rng(1)
    checked = 0
    for trial in range(80):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        options = [(Sense.LE, "<="), (Sense.GE, ">="), (Sense.EQ, "=")]
        all_senses = [options[int(rng.integers(0, 3))] for _ in range(m)]
        x0 = rng.integers(0, 2, n).astype(float)
        b = A @ x0  # witness keeps EQ rows satisfiable
        c = rng.integers(-3, 4, n).astype(float)
        prob = LpProblem(A, [s for s, _ in all_senses], b, upper=np.ones(n))
        sol = SimplexSolver(prob).resolve(c, maximize=True)
        status, value, _ = enum_box_lp(A, [t for _, t in all_senses], b,
                                       np.zeros(n), np.ones(n), c, maximize=True)
        if status == "infeasible":
            assert sol.status == LpStatus.INFEASIBLE
        else:
            assert sol.status == LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(value, abs=1e-7)
            checked += 1
    assert checked > 30


def test_subset_sum_projection_matches_enumeration():
    # the l1-projection LP over {x in [0,1]^n : a x = b} is a plain LP here
    rng = make_rng(2)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        a = rng.integers(1, 10, n).astype(float)
        xs = rng.integers(0, 2, n).astype(float)
        b = float(a @ xs)
        xt = rng.integers(0, 2, n).astype(float)
        c = 1.0 - 2.0 * xt                   # sum_{xt=0} x + sum_{xt=1} (1-x), constant dropped
        prob = LpProblem([a], [Sense.EQ], [b], upper=np.ones(n))
        sol = SimplexSolver(prob).resolve(c)
        assert sol.status == LpStatus.OPTIMAL
        status, value, _ = enum_box_lp([a], ["="], [b], np.zeros(n), np.ones(n), c)
        assert status == "optimal"
        assert sol.objective == pytest.approx(value, abs=1e-7)
        frac = np.sum((sol.x > 1e-6) & (sol.x < 1 - 1e-6))
        assert frac <= 1


def test_resolve_reuses_feasible_basis():
    prob = LpProblem([[3.0, 1.0]], [Sense.EQ], [3.0], upper=[1.0, 1.0])
    solver = SimplexSolver(prob)
    s1 = solver.resolve(np.array([0.0, 1.0]), maximize=True)
    assert s1.objective == pytest.approx(1.0, abs=1e-9)
    s2 = solver.resolve(np.array([1.0, 0.0]), maximize=True)
    assert s2.objective == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(s2.x, [1.0, 0.0], atol=1e-9)
    s3 = solver.resolve(np.array([-1.0, 0.0]), maximize=True)
    np.testing.assert_allclose(s3.x, [2 / 3, 1.0], atol=1e-9)


def test_lift_pure_binary_checks_rows_directly():
    # with no continuous columns a point has no certificate exactly when it
    # meets every row, and it lifts with an empty y
    inst = fractional_stall_instance()
    certs = CertificateOracle(CompiledInstance(inst))
    with pytest.raises(NotACertificate):
        certs.min_certificate([1.0, 0.0])
    pt = lift(ProjectionOracle(CompiledInstance(inst)), np.array([1, 0], dtype=np.int8))
    assert pt.y.size == 0
    np.testing.assert_array_equal(pt.x, [1, 0])
    assert certs.min_certificate([1.0, 1.0]).violation > 0


def test_lift_solves_for_continuous_part():
    # y >= x1 and y <= 1: at x1 = 1 the only lift is y = 1
    rows = (
        LinearRow({0: 1.0}, {0: -1.0}, Sense.LE, 0.0),   # x1 - y <= 0
        LinearRow({}, {0: 1.0}, Sense.LE, 1.0),
    )
    inst = MixedBinaryInstance(name="lift", n=1, d=1, rows=rows)
    with pytest.raises(NotACertificate):
        CertificateOracle(CompiledInstance(inst)).min_certificate([1.0])
    pt = lift(ProjectionOracle(CompiledInstance(inst)), np.array([1], dtype=np.int8))
    assert pt.y[0] == pytest.approx(1.0, abs=1e-9)


def _pair_feasible(inst, x):
    # the projection oracle refuses an empty relaxation, where no point is feasible
    view = CompiledInstance(inst)
    try:
        ProjectionOracle(view)
    except InstanceInfeasible:
        return False
    return not view.violated_rows(x, np.zeros(inst.d)).any()


def test_lift_agrees_with_elimination_oracle():
    # Farkas: no certificate exactly when a lift exists, and then the
    # projection's y completes the point; the last 60 draws have no
    # continuous columns, and there the certificate is refused exactly
    # when the row test passes
    rng = make_rng(3)
    agree_yes = agree_no = 0
    for trial in range(180):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3)) if trial < 120 else 0
        m = int(rng.integers(1, 5))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        B = rng.integers(-3, 4, size=(m, d)).astype(float)
        b = rng.integers(-2, 6, m).astype(float)
        rows = tuple(
            LinearRow({j: A[i, j] for j in range(n)}, {j: B[i, j] for j in range(d)},
                      Sense.LE, float(b[i]))
            for i in range(m)
        )
        inst = MixedBinaryInstance(name=f"rand{trial}", n=n, d=d, rows=rows)
        xb = rng.integers(0, 2, n).astype(np.int8)
        want = lift_exists(A, B, b, xb.astype(float))
        try:
            CertificateOracle(CompiledInstance(inst)).min_certificate(xb.astype(float))
        except NotACertificate:
            assert want
            agree_yes += 1
            got = lift(ProjectionOracle(CompiledInstance(inst)), xb)
            resid = b - A @ xb - B @ got.y
            assert resid.min() > -1e-7
            refused = True
        else:
            assert not want
            agree_no += 1
            refused = False
        if d == 0:
            assert refused == _pair_feasible(inst, xb.astype(float))
    assert agree_yes > 10 and agree_no > 10


def test_relaxation_vertex_of_deep_trap_instance():
    # optimum puts the light column at 1, one heavy column at 3/5, rest at 1
    from pumplab.projection import ProjectionOracle

    for t in (2, 4):
        inst = zero_frac_stall_instance(t)
        x_bar, y_bar = ProjectionOracle(CompiledInstance(inst)).relaxation()
        assert y_bar.size == 0
        assert x_bar[-1] == pytest.approx(1.0, abs=1e-9)
        heavy = np.sort(x_bar[:-1])
        assert heavy[0] == pytest.approx(0.6, abs=1e-9)
        np.testing.assert_allclose(heavy[1:], 1.0, atol=1e-9)


def test_determinism_same_problem_same_solution():
    rng = make_rng(4)
    A = rng.integers(-3, 4, size=(4, 5)).astype(float)
    b = (A @ rng.random(5)) + 0.5
    c = rng.integers(-3, 4, 5).astype(float)
    solve = lambda: SimplexSolver(LpProblem(A, [Sense.LE] * 4, b, upper=np.ones(5))).resolve(c, maximize=True)
    s1, s2 = solve(), solve()
    np.testing.assert_array_equal(s1.x, s2.x)
    assert s1.objective == s2.objective


_SENSES = [Sense.LE, Sense.GE, Sense.EQ]
_TEXT = {Sense.LE: "<=", Sense.GE: ">=", Sense.EQ: "="}


@st.composite
def bounded_lps(draw):
    # rows over a box with a 0/1 witness, so every problem is feasible and
    # every objective bounded
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    coef = st.integers(-3, 3).map(float)
    A = np.array(draw(st.lists(st.lists(coef, min_size=n, max_size=n), min_size=m, max_size=m)))
    senses = draw(st.lists(st.sampled_from(_SENSES), min_size=m, max_size=m))
    witness = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    slack = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)), dtype=float)
    sign = np.array([{Sense.LE: 1.0, Sense.GE: -1.0, Sense.EQ: 0.0}[s] for s in senses])
    upper = np.array(draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n)))
    problem = LpProblem(A, senses, A @ witness + sign * slack, upper=upper)
    objectives = draw(st.lists(st.tuples(st.lists(coef, min_size=n, max_size=n), st.booleans()),
                               min_size=1, max_size=6))
    return problem, [(np.array(c), mx) for c, mx in objectives]


def _answers(solver, objectives):
    out = []
    for c, maximize in objectives:
        sol = solver.resolve(c, maximize=maximize)
        out.append((sol.status, sol.x.tobytes(), sol.objective, solver.vstat.tobytes()))
    return out


@settings(max_examples=150, deadline=None)
@given(bounded_lps())
def test_clone_after_phase1_replays_a_fresh_solver(case):
    problem, objectives = case
    base = SimplexSolver(problem)
    assert base.ensure_phase1()
    first = base.clone()
    want = _answers(SimplexSolver(problem), objectives)
    assert _answers(first, objectives) == want
    # resolving the first clone left the base untouched
    assert _answers(base.clone(), objectives) == want


def test_redundant_equality_keeps_its_artificial_basic():
    # the second row is twice the first: phase 1 cannot pivot its artificial
    # out, so it stays basic at zero after the nonbasic artificials are dropped
    A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 2.0, 1.0])
    senses = [Sense.EQ, Sense.EQ, Sense.LE]
    solver = SimplexSolver(LpProblem(A, senses, b, upper=np.ones(3)))
    n, m = 3, 3
    assert solver.N == n + 2 * m
    assert solver.ensure_phase1()
    kept = solver.basis[solver.basis >= n + m]
    assert kept.size == 1
    assert solver.N == n + m + 1
    # T stores the nonbasic columns not fixed at zero: neither the equality
    # slacks nor the kept artificial
    stored = [v for v in range(solver.N) if v not in solver.basis
              and not solver.lower[v] == solver.upper[v] == 0.0]
    assert solver.T.shape == (m, len(stored)) and sorted(solver.nonbasic) == stored
    assert solver.lower[kept[0]] == solver.upper[kept[0]] == 0.0
    for c in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -2.0, 1.0], [0.0, 1.0, 1.0]):
        c = np.array(c)
        for maximize in (True, False):
            sol = solver.resolve(c, maximize=maximize)
            status, value, _ = enum_box_lp(A, [_TEXT[s] for s in senses], b, np.zeros(3),
                                           np.ones(3), c, maximize=maximize)
            assert status == "optimal" and sol.status == LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(value, abs=1e-9)
            assert np.abs(A @ sol.x - b)[:2].max() <= 1e-9 and (A @ sol.x - b)[2] <= 1e-9


def test_the_caller_owns_each_view(monkeypatch):
    # runs that alternate instances on views their caller keeps run phase 1
    # once per (view, LP), however many oracles and runs share a view
    phase1_runs = []
    optimize = SimplexSolver._optimize

    def counted(solver, cost, phase1):
        if phase1:
            phase1_runs.append(solver)
        return optimize(solver, cost, phase1)

    monkeypatch.setattr(SimplexSolver, "_optimize", counted)
    a = gen_decomposable(3, BlockSpec(n=3, d=1, rows=2, s=2), make_rng(5)).instance
    b = gen_subset_sum(2, 3, make_rng(5)).instance
    view_a, view_b = CompiledInstance(a), CompiledInstance(b)
    assert not view_a.A.flags.writeable and not view_a.b.flags.writeable
    for view in (view_a, view_b, view_a):
        ProjectionOracle(view).relaxation()
        for alg in ("wfp", "mbwalksat"):
            pump.run(alg, view.instance, make_rng(1), max_iter=50, record=False, view=view)
    # the projection LP of both and the lambda-LP of a: with no continuous
    # columns the certificate oracle builds no LP at all
    assert len(phase1_runs) == 3
    assert _lambda_problem not in view_b._solvers and len(view_b._solvers) == 1
    with pytest.raises(ValueError, match="another instance"):
        pump.run("orig", a, make_rng(1), max_iter=5, view=view_b)
    # the views a sweep builds do not outlive it
    built = []
    init = CompiledInstance.__init__

    def kept(view, instance):
        init(view, instance)
        built.append(weakref.ref(view))

    monkeypatch.setattr(CompiledInstance, "__init__", kept)
    run_benchmark(BenchConfig([a, b], algorithms=("orig", "wfp"), seeds=(1, 2), max_iter=50, workers=1))
    gc.collect()
    assert len(built) == 2 and all(ref() is None for ref in built)


@st.composite
def warm_lps(draw):
    # LE, GE and EQ rows over bounded and free columns; a feasible case puts
    # a witness on the rows, most of them tight (degenerate right-hand sides)
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    coef = st.integers(-3, 3).map(float)
    A = np.array(draw(st.lists(st.lists(coef, min_size=n, max_size=n), min_size=m, max_size=m)))
    senses = draw(st.lists(st.sampled_from(_SENSES), min_size=m, max_size=m))
    free = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    upper = np.where(free, np.inf, draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n)))
    lower = np.where(free, -np.inf, 0.0)
    if draw(st.booleans()):
        witness = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
        witness[free] = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))[: free.sum()]
        slack = np.array(draw(st.lists(st.sampled_from([0, 0, 1]), min_size=m, max_size=m)), dtype=float)
        sign = np.array([{Sense.LE: 1.0, Sense.GE: -1.0, Sense.EQ: 0.0}[s] for s in senses])
        rhs = A @ witness + sign * slack
    else:
        rhs = np.array(draw(st.lists(coef, min_size=m, max_size=m)))
    problem = LpProblem(A, senses, rhs, lower=lower, upper=upper)
    objectives = draw(st.lists(st.tuples(st.lists(coef, min_size=n, max_size=n), st.booleans()),
                               min_size=1, max_size=6))
    return problem, [(np.array(c), mx) for c, mx in objectives]


def _phase1_kept_rows(solver):
    """Run phase 1; return feasibility and the rows whose artificial was kept."""
    first = solver.nstruct + solver.m
    drop, seen = solver._drop_artificials, {}

    def spy():
        seen["rows"] = np.sort(solver.basis[solver.basis >= first]) - first
        drop()

    solver._drop_artificials = spy
    try:
        return solver.ensure_phase1(), seen.get("rows")
    finally:
        del solver._drop_artificials


@settings(max_examples=150, deadline=None)
@given(warm_lps())
def test_condensed_tableau_is_the_basis_solve_of_the_stored_columns(case):
    problem, objectives = case
    solver = SimplexSolver(problem)
    feasible, art_rows = _phase1_kept_rows(solver)
    if not feasible:
        return
    A = problem.coeffs
    m = A.shape[0]
    M = np.hstack([A, np.eye(m), np.eye(m)[:, art_rows]])
    assert M.shape[1] == solver.N
    for c, maximize in objectives:
        solver.resolve(c, maximize=maximize)
        basis, nonbasic, slot = solver.basis, solver.nonbasic, solver.slot
        # nonbasic and slot are inverse maps
        np.testing.assert_array_equal(slot[nonbasic], np.arange(nonbasic.size))
        assert np.count_nonzero(slot >= 0) == nonbasic.size
        # exactly the nonbasic columns not fixed at zero are stored
        can_enter = ~((solver.lower == 0.0) & (solver.upper == 0.0))
        can_enter[basis] = False
        np.testing.assert_array_equal(np.sort(nonbasic), np.flatnonzero(can_enter))
        np.testing.assert_allclose(solver.T, np.linalg.solve(M[:, basis], M[:, nonbasic]),
                                   rtol=0, atol=1e-8)


def _assert_price_state(solver):
    # the kept pricing state equals its recomputation from vstat, the
    # bounds and the basis; a fixed variable is one with equal bounds, read
    # from them, not kept
    vstat, lower, upper = solver.vstat, solver.lower, solver.upper
    fixed = lower == upper
    priced = (vstat != BASIC) & ~fixed
    may_up = priced & ((vstat == AT_LOWER) | (vstat == FREE))
    may_dn = priced & ((vstat == AT_UPPER) | (vstat == FREE))
    want = {"price_up": np.where(may_up, -1.0, 0.0), "price_dn": np.where(may_dn, 1.0, 0.0),
            "basic_lower": lower[solver.basis], "basic_upper": upper[solver.basis]}
    assert set(want) <= set(_STATE_ARRAYS) and "fixed" not in _STATE_ARRAYS
    for name in _STATE_ARRAYS:
        if name in want:
            np.testing.assert_array_equal(getattr(solver, name), want[name], err_msg=name)


@settings(max_examples=200, deadline=None)
@given(warm_lps())
def test_kept_pricing_state_matches_a_recomputation(case):
    problem, objectives = case
    solver = SimplexSolver(problem)
    _assert_price_state(solver)
    feasible = solver.ensure_phase1()
    _assert_price_state(solver)
    if not feasible:
        return
    half = len(objectives) // 2
    for c, maximize in objectives[:half]:
        solver.resolve(c, maximize=maximize)
        _assert_price_state(solver)
    twin = solver.clone()
    for name in _STATE_ARRAYS:
        assert not np.shares_memory(getattr(twin, name), getattr(solver, name)), name
    _assert_price_state(twin)
    for c, maximize in objectives[half:]:
        for s in (twin, solver):
            s.resolve(c, maximize=maximize)
            _assert_price_state(s)


_SCALARS = {"m", "nstruct", "N", "_phase1_done", "_feasible"}


def _assert_state_is_explicit(solver):
    # the state arrays and five scalars are all a solver holds
    assert set(vars(solver)) == set(_STATE_ARRAYS) | _SCALARS
    for name in _STATE_ARRAYS:
        assert isinstance(getattr(solver, name), np.ndarray), name


def _assert_disjoint(a, b):
    for x in vars(a).values():
        for y in vars(b).values():
            if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
                assert not np.shares_memory(x, y)


def test_solver_state_is_the_state_arrays_and_clones_share_none():
    rng = make_rng(31)
    for case in range(24):
        m, n = (int(rng.integers(6, 12)), int(rng.integers(10, 20))) if case % 4 == 3 else (
            int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        solver = SimplexSolver(_seeded_lp(rng, m, n))
        _assert_state_is_explicit(solver)
        if not solver.ensure_phase1():
            _assert_state_is_explicit(solver)
            continue
        _assert_state_is_explicit(solver)
        twins = [solver.clone(), solver.clone()]
        for s in (solver, *twins):
            for _ in range(3):
                s.resolve(rng.integers(-3, 4, n).astype(float), maximize=bool(rng.integers(2)))
            _assert_state_is_explicit(s)
        grandchild = twins[0].clone()
        _assert_disjoint(twins[0], solver)
        _assert_disjoint(twins[1], solver)
        _assert_disjoint(twins[0], twins[1])
        _assert_disjoint(grandchild, twins[0])


def _highs(problem, c, maximize, linprog):
    # scipy status: 0 optimal, 2 infeasible, 3 unbounded
    A, b = problem.coeffs, problem.rhs
    le = np.array([s is Sense.LE for s in problem.senses])
    ge = np.array([s is Sense.GE for s in problem.senses])
    eq = ~(le | ge)
    res = linprog(
        -c if maximize else c,
        A_ub=np.vstack([A[le], -A[ge]]), b_ub=np.concatenate([b[le], -b[ge]]),
        A_eq=A[eq], b_eq=b[eq],
        bounds=[(None if np.isinf(lo) else lo, None if np.isinf(up) else up)
                for lo, up in zip(problem.lower, problem.upper)],
        method="highs", options={"presolve": False},
    )
    status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}[res.status]
    value = None if status is not LpStatus.OPTIMAL else (-res.fun if maximize else res.fun)
    return status, value


def test_warm_resolves_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog

    @settings(max_examples=150, deadline=None)
    @given(warm_lps())
    def check(case):
        problem, objectives = case
        solver = SimplexSolver(problem)
        for c, maximize in objectives:
            sol = solver.resolve(c, maximize=maximize)
            status, value = _highs(problem, c, maximize, linprog)
            assert sol.status == status
            if status is LpStatus.OPTIMAL:
                assert sol.objective == pytest.approx(value, rel=0, abs=1e-7)

    check()


def _seeded_lp(rng, m, n):
    # LE, GE and EQ rows over bounded and free columns; most right-hand
    # sides are tight at a 0/1 witness (degenerate), one case in five is
    # random (often infeasible)
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    A[rng.random((m, n)) < 0.3] = 0.0
    senses = [_SENSES[i] for i in rng.integers(0, 3, m)]
    free = rng.random(n) < 0.2
    upper = np.where(free, np.inf, rng.choice([1.0, 2.0], n))
    lower = np.where(free, -np.inf, 0.0)
    if rng.random() < 0.8:
        witness = rng.integers(0, 2, n).astype(float)
        witness[free] = rng.integers(-2, 3, int(free.sum()))
        slack = (rng.random(m) < 0.25).astype(float)
        sign = np.array([{Sense.LE: 1.0, Sense.GE: -1.0, Sense.EQ: 0.0}[s] for s in senses])
        rhs = A @ witness + sign * slack
    else:
        rhs = rng.integers(-3, 4, m).astype(float)
    return LpProblem(A, senses, rhs, lower=lower, upper=upper)


def _engine_digest(seed=2024, cases=80):
    """sha256 over every warm answer of a seeded batch of LPs: a fresh
    solver's resolves with both senses, then a clone and its parent
    resolving on their own."""
    rng = make_rng(seed)
    h = hashlib.sha256()

    def resolves(solver, n, count):
        for _ in range(count):
            c = rng.integers(-3, 4, n).astype(float)
            if rng.random() < 0.3:
                c = c + rng.normal(size=n)
            sol = solver.resolve(c, maximize=bool(rng.integers(2)))
            h.update(f"{int(sol.status)} {sol.objective!r} ".encode())
            if sol.x is not None:
                h.update(sol.x.tobytes())

    for case in range(cases):
        big = case % 8 == 7
        m = int(rng.integers(6, 16)) if big else int(rng.integers(1, 6))
        n = int(rng.integers(10, 30)) if big else int(rng.integers(1, 8))
        solver = SimplexSolver(_seeded_lp(rng, m, n))
        resolves(solver, n, 5)
        twin = solver.clone()
        resolves(twin, n, 4)
        resolves(solver, n, 4)
        resolves(twin.clone(), n, 2)
    return h.hexdigest()


# _engine_digest() pins every bit of those answers: a change to the engine
# that keeps each float operation and each pivot choice keeps the digest
ENGINE_DIGEST = "c1622cdf746706cd6a449d7ec8e34a88fc6a7987b031a974e90118af4dcff709"


def test_engine_answers_are_pinned():
    assert _engine_digest() == ENGINE_DIGEST


def _planted(rng, size):
    # finite doubles of many magnitudes with planted +0.0, -0.0, subnormal,
    # tiny (their products underflow) and huge (their products overflow) entries
    v = rng.normal(size=size) * 10.0 ** rng.integers(-30, 31, size)
    sign = rng.choice([-1.0, 1.0], size)
    kind = rng.integers(0, 9, size)
    v[kind == 0] = 0.0
    v[kind == 1] = -0.0
    v[kind == 2] = (sign * rng.integers(1, 2**40, size) * 5e-324)[kind == 2]
    v[kind == 3] = (sign * rng.uniform(1.0, 9.0, size) * 1e-160)[kind == 3]
    v[kind == 4] = (sign * rng.uniform(1.0, 1.7, size) * 1e300)[kind == 4]
    return v


def test_einsum_outer_product_is_the_broadcast_product_with_unsigned_zeros():
    # the dense pivot update's premise (see lp.py's module docstring): where
    # the product is nonzero, einsum's outer product has the broadcast
    # product's bytes, and where it is zero, it is +0.0
    rng = make_rng(8)
    met = {"-0.0": False, "subnormal": False, "inf": False}
    for m, n in [(1, 1), (2, 3), (7, 5), (16, 33), (63, 129), (225, 460)]:
        for _ in range(3):
            a, b = _planted(rng, m), _planted(rng, n)
            with np.errstate(over="ignore", under="ignore"):
                broadcast = a[:, None] * b
                outer = np.einsum("i,j->ij", a, b)
            assert outer.shape == broadcast.shape and outer.dtype == np.float64
            zero = broadcast == 0.0
            np.testing.assert_array_equal(outer[~zero].view(np.uint64), broadcast[~zero].view(np.uint64))
            assert np.all(outer[zero] == 0.0) and not np.signbit(outer[zero]).any()
            met["-0.0"] |= bool(np.signbit(broadcast[zero]).any())
            met["subnormal"] |= bool(np.any(~zero & (np.abs(broadcast) < np.finfo(float).tiny)))
            met["inf"] |= bool(np.isinf(broadcast).any())
    assert all(met.values()), met


def _negative_zeros(solver):
    return int(np.count_nonzero(np.signbit(solver.T) & (solver.T == 0.0)))


def test_the_tableau_never_holds_negative_zero():
    # explicit -0.0 coefficients on >= rows, then seeded LPs whose pivots are
    # often negative (+0.0 over a negative pivot is -0.0); T is checked after
    # construction, phase 1, the drop of the artificials, clone and resolves
    A = np.array([[-0.0, 2.0, -0.0, 1.0], [1.0, -0.0, -1.0, -0.0], [-0.0, -1.0, -0.0, -2.0]])
    problems = [LpProblem(A, [Sense.GE, Sense.GE, Sense.LE], np.array([1.0, -0.0, -1.0]), upper=np.full(4, 2.0))]
    rng = make_rng(57)
    for case in range(40):
        m, n = (int(rng.integers(6, 16)), int(rng.integers(10, 30))) if case % 4 == 3 else (
            int(rng.integers(1, 6)), int(rng.integers(1, 8)))
        problems.append(_seeded_lp(rng, m, n))
    for problem in problems:
        n = problem.coeffs.shape[1]
        solver = SimplexSolver(problem)
        assert _negative_zeros(solver) == 0, "construction"
        drop, seen = solver._drop_artificials, []

        def spy():
            seen.append(_negative_zeros(solver))
            drop()

        solver._drop_artificials = spy
        try:
            feasible = solver.ensure_phase1()
        finally:
            del solver._drop_artificials
        assert seen == ([0] if feasible else []), "phase 1"
        assert _negative_zeros(solver) == 0, "phase 1, artificials dropped"
        if not feasible:
            continue
        twin = solver.clone()
        assert _negative_zeros(twin) == 0, "clone"
        for s in (solver, twin, twin.clone()):
            for _ in range(4):
                s.resolve(rng.integers(-3, 4, n).astype(float), maximize=bool(rng.integers(2)))
                assert _negative_zeros(s) == 0, "resolve"
