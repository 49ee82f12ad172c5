import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumplab.bench import (
    CSV_COLUMNS,
    BenchConfig,
    BenchRow,
    make_table,
    run_benchmark,
    run_bound_suite,
    shifted_geomean,
    subset_sum_suite,
    two_stage_suite,
    write_csv,
)
from pumplab import pump
from pumplab.gen import fractional_stall_instance, gen_subset_sum
from pumplab.perturb import make_rng


def small_instances():
    return [
        fractional_stall_instance(),
        gen_subset_sum(1, 4, make_rng(60), name="ss-a").instance,
        gen_subset_sum(2, 3, make_rng(61), name="ss-b").instance,
    ]


def strip_timing(rows):
    return write_csv(rows, include_timing=False)


def test_shifted_geomean_worked_values():
    assert shifted_geomean([0.0, 0.0], 1.0) == pytest.approx(0.0)
    assert shifted_geomean([5.0]) == pytest.approx(5.0)
    assert shifted_geomean([1.0, 9.0]) == pytest.approx(math.sqrt(20.0) - 1.0)
    assert shifted_geomean([1.0, 9.0]) == pytest.approx(3.4721359549995805)
    assert shifted_geomean([]) == 0.0


def test_shifted_geomean_rejects_bad_input():
    with pytest.raises(ValueError):
        shifted_geomean([1.0], shift=0.0)
    with pytest.raises(ValueError):
        shifted_geomean([-1.0])
    with pytest.raises(ValueError):
        shifted_geomean([np.inf])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=8))
def test_shifted_geomean_bounded_by_extremes(vals):
    g = shifted_geomean(vals)
    assert min(vals) - 1e-6 <= g <= max(vals) + 1e-6


def test_shifted_geomean_small_shift_approaches_geomean():
    vals = [2.0, 8.0]
    got = shifted_geomean(vals, shift=1e-9)
    assert got == pytest.approx(4.0, abs=1e-6)


def test_config_validation():
    insts = small_instances()
    with pytest.raises(ValueError):
        BenchConfig(insts, algorithms=())
    with pytest.raises(ValueError):
        BenchConfig(insts, seeds=())
    with pytest.raises(ValueError):
        BenchConfig(insts, algorithms=("wfp", "mystery"))
    with pytest.raises(ValueError):
        BenchConfig(insts + [fractional_stall_instance()])
    with pytest.raises(ValueError, match="max_iter"):
        BenchConfig(insts, max_iter=-5)
    assert BenchConfig(insts, max_iter=0).max_iter == 0
    assert set(BenchConfig(insts).algorithms) <= set(pump.ALGORITHMS)


def test_config_rejects_bad_worker_counts(monkeypatch):
    # a zero worker count used to run serially, and a malformed or
    # non-positive PUMPLAB_WORKERS silently gave one worker
    insts = small_instances()
    for bad in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            BenchConfig(insts, workers=bad)
    for raw in ("abc", "-4", "0", ""):
        monkeypatch.setenv("PUMPLAB_WORKERS", raw)
        with pytest.raises(ValueError, match="PUMPLAB_WORKERS"):
            BenchConfig(insts)
        assert BenchConfig(insts, workers=2).workers == 2
    monkeypatch.setenv("PUMPLAB_WORKERS", "3")
    assert BenchConfig(insts).workers == 3
    monkeypatch.delenv("PUMPLAB_WORKERS")
    assert BenchConfig(insts).workers == 1


def test_config_rejects_bad_flip_settings():
    insts = small_instances()
    for bad in ({"tt_range": (5, 1)}, {"tt_range": (-1, 3)}, {"flips": 0}, {"flips": -2}):
        with pytest.raises(ValueError):
            BenchConfig(insts, **bad)
    cfg = BenchConfig(insts, tt_range=(0, 0), flips=1)
    assert cfg.tt_range == (0, 0) and cfg.flips == 1


def test_run_benchmark_shape_and_order():
    cfg = BenchConfig(small_instances(), algorithms=("orig", "wfp"), seeds=(1, 2),
                      max_iter=150, workers=1)
    res = run_benchmark(cfg)
    assert len(res.rows) == 3 * 2 * 2
    keys = [(r.instance, r.algorithm, r.seed) for r in res.rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for r in res.rows:
        assert r.outcome in ("found", "iter_limit", "timeout", "error")
        assert r.iterations >= 0 and r.wall_time_s >= 0.0
    # wfp cracks the trap instance that the original rule never leaves
    by = {(r.instance, r.algorithm): r for r in res.rows if r.seed == 1}
    assert by[("fractional-stall", "orig")].outcome == "iter_limit"
    assert by[("fractional-stall", "wfp")].outcome == "found"


def test_run_benchmark_is_deterministic_without_timing():
    cfg = lambda: BenchConfig(small_instances(), algorithms=("wfp", "wfpbase"),
                              seeds=(1, 2, 3), max_iter=150, workers=1)
    a = run_benchmark(cfg())
    b = run_benchmark(cfg())
    assert strip_timing(a.rows) == strip_timing(b.rows)


def test_parallel_rows_match_serial():
    serial = BenchConfig(small_instances(), algorithms=("wfp",), seeds=(1, 2),
                         max_iter=150, workers=1)
    forked = BenchConfig(small_instances(), algorithms=("wfp",), seeds=(1, 2),
                         max_iter=150, workers=2)
    assert strip_timing(run_benchmark(serial).rows) == strip_timing(run_benchmark(forked).rows)


def test_zero_time_limit_marks_all_rows_timeout():
    cfg = BenchConfig([fractional_stall_instance()], algorithms=("wfp",),
                      seeds=(1,), max_iter=50, time_limit=0.0, workers=1)
    rows = run_benchmark(cfg).rows
    assert [r.outcome for r in rows] == ["timeout"]


def test_csv_round_trip():
    cfg = BenchConfig(small_instances(), algorithms=("orig",), seeds=(1, 2),
                      max_iter=100, workers=1)
    res = run_benchmark(cfg)
    text = write_csv(res.rows)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    back = list(csv.DictReader(io.StringIO(text)))
    assert [
        (r["instance"], r["algorithm"], int(r["seed"]), r["outcome"], int(r["iterations"]),
         int(r["perturbations"]), int(r["restarts"]))
        for r in back
    ] == [
        (r.instance, r.algorithm, r.seed, r.outcome, r.iterations, r.perturbations, r.restarts)
        for r in res.rows
    ]
    for got, want in zip(back, res.rows):
        assert float(got["wall_time_s"]) == pytest.approx(want.wall_time_s, abs=1e-6)


def test_csv_file_output(tmp_path):
    rows = [BenchRow("i", "wfp", 1, "found", 3, 1, 0, 0.0125)]
    path = tmp_path / "out.csv"
    text = write_csv(rows, path=str(path))
    assert path.read_text(encoding="utf-8") == text
    assert "0.012500" in text
    bare = write_csv(rows, include_timing=False)
    assert "wall_time_s" not in bare and "0.012500" not in bare


def test_table_counts_capped_runs_in_iteration_sgm():
    rows = [
        BenchRow("a", "wfp", 1, "found", 10, 1, 0, 0.5),
        BenchRow("b", "wfp", 1, "iter_limit", 400, 99, 0, 2.0),
    ]
    table = make_table(rows)
    cell = table.by_seed[("wfp", 1)]
    assert cell["runs"] == 2 and cell["found"] == 1
    want = math.exp((math.log(11) + math.log(401)) / 2) - 1
    assert cell["iter_sgm"] == pytest.approx(want)
    assert cell["time_sgm"] == pytest.approx(math.exp((math.log(1.5) + math.log(3.0)) / 2) - 1)


def test_table_render_layout():
    rows = [
        BenchRow("a", "orig", 1, "iter_limit", 400, 200, 0, 1.0),
        BenchRow("a", "wfp", 1, "found", 20, 5, 0, 0.5),
        BenchRow("a", "orig", 2, "found", 30, 9, 0, 0.8),
        BenchRow("a", "wfp", 2, "found", 12, 2, 0, 0.4),
    ]
    text = make_table(rows).render()
    lines = text.splitlines()
    assert lines[0].startswith("sgm shifts:")
    assert "# found" in lines[1] and "time sgm" in lines[1] and "itr sgm" in lines[1]
    assert "orig" in lines[2] and "wfp" in lines[2]
    assert lines[3].startswith("1 ") and lines[4].startswith("2 ")
    assert lines[5].startswith("mean")
    assert lines[6].startswith("ratio") and lines[6].endswith("(vs orig)")
    assert make_table([]).render() == "(no runs)\n"


def test_bound_suite_small_run():
    res = run_bound_suite("1", runs=12, delta=0.1, ks=(1,), ns=(2, 3), base_seed=3)
    assert res.theorem == "T1"
    assert res.runs == 12
    assert res.threshold == pytest.approx(0.1 + 3 * math.sqrt(0.1 * 0.9 / 12))
    assert len(res.details) == 12
    assert res.caps and all(c > 0 for c in res.caps)
    text = res.render()
    assert ("PASS" in text) == res.passed
    with pytest.raises(ValueError):
        run_bound_suite("4", runs=4)
    with pytest.raises(ValueError):
        run_bound_suite("1", runs=4, ks=(), ns=())


def test_bound_suite_cap_limit_is_respected():
    res = run_bound_suite("5", runs=2, delta=0.1, ks=(1,), ns=(3,), cap_limit=500)
    assert all(c <= 500 for c in res.caps)


def test_suites_name_and_count():
    insts = two_stage_suite(base_seed=1, ks=(2,), ps=(3,), q=2, per_config=2,
                            rows_per_scenario=2)
    assert [i.name for i in insts] == ["two-stage-k2-p3-r0", "two-stage-k2-p3-r1"]
    assert all(i.n == 3 + 2 * 2 for i in insts)
    # repetitions differ, cells reproduce under the same base seed
    from pumplab.formats import write_native

    again = two_stage_suite(base_seed=1, ks=(2,), ps=(3,), q=2, per_config=2,
                            rows_per_scenario=2)
    assert [write_native(i) for i in insts] == [write_native(i) for i in again]
    assert write_native(insts[0]) != write_native(insts[1]).replace("-r1", "-r0")

    subs = subset_sum_suite(base_seed=2, ks=(1, 2), ns=(3,))
    assert [i.name for i in subs] == ["subset-sum-k1-n3-r0", "subset-sum-k2-n3-r0"]
    cfg = BenchConfig(subs, algorithms=("wfp",), seeds=(1,), max_iter=200, workers=1)
    rows = run_benchmark(cfg).rows
    assert all(r.outcome == "found" for r in rows)


def test_default_suite_sizes():
    assert len(two_stage_suite(ks=(5,), ps=(10, 20))) == 10
    names = [i.name for i in two_stage_suite(ks=(5,), ps=(10, 20))]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("kwargs, message", [
    (dict(runs=0), "runs"),
    (dict(delta=0.0), "delta"),
    (dict(delta=1.5), "delta"),
    (dict(delta=1.0), "delta"),
    (dict(cap_limit=0), "cap_limit"),
], ids=["no-runs", "delta-zero", "delta-above-one", "delta-one", "no-cap"])
def test_bound_suite_rejects_bad_inputs_before_running(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_bound_suite("1", **kwargs)


@pytest.mark.parametrize("theorem, ks, ns", [
    ("1", (2, 3), (3, 4, 5, 6)),
    ("2", (1, 2, 3), (3, 4, 5)),
    ("5", (1, 2, 3), (3, 4, 5)),
])
def test_bound_suite_defaults_to_the_theorems_grid(theorem, ks, ns):
    # theorems 2 and 5 used to default to theorem 1's grid
    runs = len(ks) * len(ns)
    res = run_bound_suite(theorem, runs=runs, cap_limit=2000)
    assert [(k, n) for k, n, *_ in res.details] == [(k, n) for k in ks for n in ns]
