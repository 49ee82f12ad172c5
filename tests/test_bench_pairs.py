"""tools/bench_pairs.py, loaded by path: the summary of paired runs."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(values):
    # one run per value of each metric, in the shape perfbench/run.py prints
    names = list(values)
    return [{"metrics": {name: {"value": values[name][i], "unit": "u"} for name in names}}
            for i in range(len(values[names[0]]))]


def test_compare_reads_direction_and_counts_ties_for_neither(tool):
    metrics = tool.end_to_end()
    assert metrics["runs_per_s"] == {"better": "higher", "bound": 0.25}
    assert metrics["run_s_sgm"] == {"better": "lower", "bound": 0.25}
    parent = _runs({"runs_per_s": [10.0, 12.0, 11.0, 9.0], "run_s_sgm": [2.0, 3.0, 3.0, 5.0]})
    change = _runs({"runs_per_s": [11.0, 12.0, 10.0, 13.0], "run_s_sgm": [1.0, 3.0, 4.0, 4.0]})
    out = tool.compare(parent, change, {k: metrics[k] for k in ("runs_per_s", "run_s_sgm")})

    rate = out["runs_per_s"]
    assert rate["better"] == "higher" and rate["unit"] == "u"
    # pairs: 10<11 change, 12=12 tie, 11>10 parent, 9<13 change
    assert (rate["parent"]["wins"], rate["change"]["wins"]) == (1, 2)
    assert rate["parent"]["median"] == 10.5 and rate["change"]["median"] == 11.5
    assert rate["ratio"] == pytest.approx(11.5 / 10.5)
    assert rate["parent"]["values"] == [10.0, 12.0, 11.0, 9.0]

    time = out["run_s_sgm"]
    # lower is better: 1<2 change, 3=3 tie, 4>3 parent, 4<5 change
    assert (time["parent"]["wins"], time["change"]["wins"]) == (1, 2)
    assert time["ratio"] == pytest.approx(3.5 / 3.0)


_STEADY = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]   # quartiles 9.925 and 10.075
_NOISY = [7.0, 13.0, 8.0, 12.0, 10.0, 9.0, 11.0, 6.0, 14.0, 10.0]     # quartiles 8.25 and 11.75


@pytest.mark.parametrize("better, parent, change, want", [
    # the change wins all 10 pairs, by 1.0 against an IQR of 0.2
    ("higher", _STEADY, [11.0] * 10, "gain"),
    ("lower", _STEADY, [9.0] * 10, "gain"),
    # 9 of 10 pairs are enough
    ("higher", _STEADY, [11.0] * 9 + [9.0], "gain"),
    # 8 of 10 are not, however far apart the medians
    ("higher", _STEADY, [11.0] * 8 + [9.0] * 2, "within bound"),
    # every pair won, but by less than the IQR
    ("higher", _STEADY, [v + 0.1 for v in _STEADY], "within bound"),
    # 30% worse against a bound of 25%
    ("higher", _STEADY, [7.0] * 10, "worse"),
    ("lower", _STEADY, [13.0] * 10, "worse"),
    # worse beats unresolved: the host's noise does not excuse it
    ("higher", _NOISY, [7.0] * 10, "worse"),
    # an IQR of 3.5 > 0.25 * 10 and the runs overlap
    ("higher", _NOISY, [v + 0.5 for v in _NOISY], "unresolved"),
    ("lower", _NOISY, _NOISY, "unresolved"),
    # a noisy parent (median 9.5, IQR 10), but every change run beats
    # every parent run, by less than the IQR
    ("higher", [0.0] * 4 + [9.0] + [10.0] * 5, [10.5] * 10, "within bound"),
    ("lower", _NOISY, [5.5] * 8 + [5.0] * 2, "gain"),
    # 20% worse is inside the bound
    ("higher", _STEADY, [8.0] * 10, "within bound"),
])
def test_verdict_against_the_bound(tool, better, parent, change, want):
    metrics = {"m": {"better": better, "bound": 0.25}}
    out = tool.compare(_runs({"m": parent}), _runs({"m": change}), metrics)["m"]
    assert out["verdict"] == want
    assert out["bound"] == 0.25


def test_a_single_pair_is_an_argument_error(tool, capsys, tmp_path):
    with pytest.raises(SystemExit) as e:
        tool.main(["--parent", str(tmp_path), "--workload", "traps", "--pairs", "1",
                   "--out", str(tmp_path / "out.json")])
    assert e.value.code == 2
    assert "--pairs" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _sweeps(walls, hashes, errors=31):
    return [{"wall_s": w, "sha256": h, "rows": 200, "errors": errors} for w, h in zip(walls, hashes)]


def test_main_sweep_summary_reads_hashes_and_wall_time(tool):
    parent = _sweeps([60.0, 62.0, 59.0, 61.0], ["a"] * 4)
    change = _sweeps([45.0, 47.0, 61.0, 40.0], ["a"] * 4)
    out = tool.sweep_summary(parent, change)
    assert out["pairs"] == 4 and out["rows"] == 200
    assert out["sha256_equal"] and out["sha256"] == ["a"]
    assert out["errors"] == {"parent": [31], "change": [31]}
    wall = out["wall_s"]
    # lower is better: the change wins three pairs, the parent one
    assert (wall["parent"]["wins"], wall["change"]["wins"]) == (1, 3)
    assert wall["parent"]["median"] == 60.5 and wall["change"]["median"] == 46.0
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (59.75, 61.25)
    assert wall["ratio"] == pytest.approx(46.0 / 60.5)
    assert "verdict" not in wall


def test_main_sweep_summary_reports_any_other_hash(tool):
    parent = _sweeps([60.0, 62.0], ["a", "a"])
    change = _sweeps([45.0, 47.0], ["a", "b"], errors=0)
    out = tool.sweep_summary(parent, change)
    assert not out["sha256_equal"] and out["sha256"] == ["a", "b"]
    assert out["errors"] == {"parent": [31], "change": [0]}


def test_main_sweep_is_every_fifth_grid_instance(tool):
    from pumplab.bench import two_stage_suite

    cfg = tool.sweep_config()
    assert [i.name for i in cfg.instances] == [i.name for i in two_stage_suite()[::5]]
    assert len(cfg.instances) == 10
    assert cfg.algorithms == ("orig", "wfpbase") and cfg.seeds == tuple(range(1, 11))
    assert cfg.workers == 1 and cfg.time_limit == float("inf") and cfg.max_iter == 400


def test_main_sweep_runs_each_tree_in_its_own_interpreter(tool, monkeypatch, tmp_path):
    calls = []

    def fake_run(cmd, cwd, env, **kwargs):
        calls.append((cmd, cwd, env["PYTHONPATH"]))
        wall = 60.0 if cwd == "parent-tree" else 45.0
        return type("Done", (), {"stdout": f'{{"wall_s": {wall}, "sha256": "a", "rows": 200, "errors": 31}}\n'})

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    out = tmp_path / "out.json"
    assert tool.main(["--parent", "parent-tree", "--change", "change-tree", "--main-sweep",
                      "--pairs", "2", "--out", str(out)]) == 0
    assert [cwd for _, cwd, _ in calls] == ["parent-tree", "change-tree", "change-tree", "parent-tree"]
    assert all(cmd[-1] == "--sweep-once" and path.endswith("src") for cmd, _, path in calls)
    report = json.loads(out.read_text())
    assert "workloads" not in report or not report["workloads"]
    assert report["main_sweep"]["sha256_equal"] and report["main_sweep"]["wall_s"]["change"]["wins"] == 2


def test_no_workload_and_no_sweep_is_an_argument_error(tool, capsys, tmp_path):
    with pytest.raises(SystemExit) as e:
        tool.main(["--parent", str(tmp_path), "--out", str(tmp_path / "out.json")])
    assert e.value.code == 2
    assert "--main-sweep" in capsys.readouterr().err
