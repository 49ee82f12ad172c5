"""The prefix chain: runs handed one view of an instance share the
resolves before their first random draw, and every answer is the one a
fresh view gives."""

import numpy as np
import pytest

from pumplab import projection, pump
from pumplab.bench import BenchConfig, run_benchmark, two_stage_suite, write_csv
from pumplab.errors import PumpLabError
from pumplab.gen import BlockSpec, gen_decomposable, gen_subset_sum, gen_two_stage
from pumplab.lp import _STATE_ARRAYS, CompiledInstance, SimplexSolver
from pumplab.model import LinearRow, MixedBinaryInstance, Sense
from pumplab.perturb import make_rng
from pumplab.projection import ProjectionOracle, _projection_problem, round_binary


@pytest.fixture
def resolves(monkeypatch):
    """A list that grows by one at every SimplexSolver.resolve call."""
    calls = []
    resolve = SimplexSolver.resolve

    def counted(solver, *args, **kwargs):
        calls.append(solver)
        return resolve(solver, *args, **kwargs)

    monkeypatch.setattr(SimplexSolver, "resolve", counted)
    return calls


def _lines(alg, view, rng):
    return pump.run(alg, view.instance, rng, max_iter=200, view=view).to_lines()


def _walk(view, steps, off=None):
    # a new oracle's relaxation and its first `steps` projections along the
    # instance's trajectory, then the projection of `off`, when given; the
    # x_bar bytes of each projection
    oracle = ProjectionOracle(view)
    x = round_binary(oracle.relaxation()[0])
    out = []
    for _ in range(steps):
        e = oracle.entry(x)
        out.append(e.x_bar.tobytes())
        x = e.rounded
    if off is not None:
        out.append(oracle.entry(off).x_bar.tobytes())
    return out


def _long_trajectory():
    # its trajectory is the relaxation and three projections, the last one integral
    return gen_two_stage(3, 8, 4, make_rng(12)).instance


def test_second_run_on_a_view_resolves_less_with_the_same_trace(resolves):
    inst = two_stage_suite(ks=(5,), ps=(10,), per_config=1)[0]
    view = CompiledInstance(inst)
    _lines("wfpbase", view, make_rng(1))
    made = len(resolves)
    second = _lines("wfpbase", view, make_rng(2))
    on_view = len(resolves) - made
    fresh = _lines("wfpbase", CompiledInstance(inst), make_rng(2))
    alone = len(resolves) - made - on_view
    assert second == fresh
    # the chain holds the resolves before the first draw, the relaxation
    # and at least one projection, and the second run makes none of them
    assert len(view.chain) >= 2
    assert alone - on_view == len(view.chain)


def test_rows_do_not_depend_on_the_order_of_runs():
    instances = two_stage_suite(ks=(5,), ps=(10, 20), per_config=1)

    def rows(seeds):
        cfg = BenchConfig(instances, algorithms=("orig", "wfpbase"), seeds=seeds, max_iter=200, workers=1)
        return write_csv(run_benchmark(cfg).rows, include_timing=False)

    # the sweep runs the seeds of each (instance, algorithm) in the given
    # order, and the rows are sorted
    assert rows((1, 2, 3)) == rows((3, 2, 1))


@pytest.mark.parametrize("rep", [0, 1])
def test_every_variant_traces_as_on_a_fresh_view(rep):
    inst = two_stage_suite(ks=(5,), ps=(10,), per_config=2)[rep]
    algs = list(pump.ALGORITHMS)
    fresh = {alg: _lines(alg, CompiledInstance(inst), make_rng(5, i)) for i, alg in enumerate(algs)}
    for order in (algs, algs[::-1], algs[1::2] + algs[::2]):
        shared = CompiledInstance(inst)
        for alg in order:
            assert _lines(alg, shared, make_rng(5, algs.index(alg))) == fresh[alg], alg


def test_known_error_repeats_along_the_chain():
    # every run on this instance raises: a pivot on a tiny ratio-test entry
    # sends a projection out of the box. The chain must not turn the error
    # into another one, or into an answer
    suite = two_stage_suite()
    i = next(i for i, inst in enumerate(suite) if inst.name == "two-stage-k45-p10-r4")

    def raised(view, a, alg):
        with pytest.raises(PumpLabError) as err:
            pump.run(alg, view.instance, make_rng(1, i, a), max_iter=400, record=False, view=view)
        return type(err.value).__name__, str(err.value)

    algs = ("orig", "wfpbase")
    view = CompiledInstance(suite[i])
    on_one_view = [raised(view, a, alg) for a, alg in enumerate(algs)]
    on_fresh_views = [raised(CompiledInstance(suite[i]), a, alg) for a, alg in enumerate(algs)]
    assert on_one_view == on_fresh_views
    assert on_one_view[0][0] == "NonBinaryVector"


def test_shared_answers_are_read_only():
    view = CompiledInstance(gen_decomposable(2, BlockSpec(n=3, d=1, rows=2, s=2), make_rng(8)).instance)
    a = ProjectionOracle(view)
    relaxed = a.relaxation()
    point = round_binary(relaxed[0])     # the trajectory's next point
    e = a.entry(point)
    b = ProjectionOracle(view)
    assert all(x is y for x, y in zip(b.relaxation(), relaxed)) and b.entry(point) is e
    # a hit enters the memo and counts as a solve, as a resolve does
    assert b.lp_solves == 2 and list(b.cache.values()) == [e]
    for arr in (*relaxed, e.x_bar, e.y_bar, e.rounded):
        assert arr.size and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_a_point_found_by_the_relaxation_is_the_runs_own():
    # no objective: the relaxation's vertex (0, 0) is integral
    rows = (LinearRow({0: 1.0, 1: 1.0}, {}, Sense.LE, 1.0),)
    inst = MixedBinaryInstance(name="corner", n=2, d=0, rows=rows)
    view = CompiledInstance(inst)
    relaxed = ProjectionOracle(view).relaxation()
    trace = pump.run("orig", inst, make_rng(0), max_iter=10, view=view)
    assert trace.found and trace.iterations == 0
    assert trace.point.x.flags.writeable
    assert not np.shares_memory(trace.point.x, relaxed[0])


def test_serial_and_forked_sweeps_agree():
    instances = two_stage_suite(ks=(5,), ps=(10,), per_config=2) + [
        gen_decomposable(3, BlockSpec(n=4, d=1, rows=3, s=2), make_rng(4)).instance]

    def csv(workers):
        cfg = BenchConfig(instances, algorithms=tuple(pump.ALGORITHMS), seeds=(1, 2, 3),
                          max_iter=150, workers=workers)
        return write_csv(run_benchmark(cfg).rows, include_timing=False)

    assert csv(1) == csv(2)


def test_chain_is_capped(resolves, monkeypatch):
    # a trajectory of four resolves on a chain capped at two
    monkeypatch.setattr(projection, "CHAIN_CAP", 2)
    view = CompiledInstance(_long_trajectory())
    first = _walk(view, 3)
    assert len(resolves) == 4 and len(set(first)) == 3
    assert len(view.chain) == 2
    made = len(resolves)
    assert _walk(view, 3) == first
    assert len(resolves) - made == 4 - 2


def test_shared_solver_states_never_change(resolves):
    view = CompiledInstance(_long_trajectory())

    def states(solvers):
        return [[getattr(s, name).tobytes() for name in _STATE_ARRAYS] for s in solvers]

    def shared():
        return [view.solver(_projection_problem)] + [node.solver for node in view.chain]

    first = _walk(view, 1)
    before = states(shared())
    # follow, then extend
    assert _walk(view, 3)[:1] == first
    assert len(view.chain) == 4 and states(shared())[: len(before)] == before
    before = states(shared())
    # follow, then leave off the trajectory: one resolve, on a clone
    on = round_binary(ProjectionOracle(view).relaxation()[0])
    made = len(resolves)
    _walk(view, 1, off=1 - on)
    assert len(resolves) - made == 1
    assert len(view.chain) == 4 and states(shared()) == before


def test_a_point_off_the_trajectory_is_not_chained():
    view = CompiledInstance(gen_subset_sum(2, 6, make_rng(3)).instance)
    oracle = ProjectionOracle(view)
    on = round_binary(oracle.relaxation()[0])
    oracle.entry(1 - on)
    assert len(view.chain) == 1
    # off it for good: the trajectory's point is not chained either
    oracle.entry(on)
    assert len(view.chain) == 1


def test_the_walk_leaves_the_chain_at_once():
    # mbwalksat draws its start, and lifts its point through a projection
    inst = gen_decomposable(3, BlockSpec(n=4, d=1, rows=3, s=2), make_rng(4)).instance
    view = CompiledInstance(inst)
    trace = pump.run("mbwalksat", inst, make_rng(3), max_iter=500, view=view)
    assert trace.found and view.chain == []
