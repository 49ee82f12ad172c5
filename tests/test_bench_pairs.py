"""tools/bench_pairs.py, loaded by path: the summary of paired runs."""

import importlib.util
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
    better = tool.directions()
    assert better["runs_per_s"] == "higher" and better["run_s_sgm"] == "lower"
    parent = _runs({"runs_per_s": [10.0, 12.0, 11.0, 9.0], "run_s_sgm": [2.0, 3.0, 3.0, 5.0]})
    change = _runs({"runs_per_s": [11.0, 12.0, 10.0, 13.0], "run_s_sgm": [1.0, 3.0, 4.0, 4.0]})
    out = tool.compare(parent, change, {k: better[k] for k in ("runs_per_s", "run_s_sgm")})

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


def test_a_single_pair_is_an_argument_error(tool, capsys, tmp_path):
    with pytest.raises(SystemExit) as e:
        tool.main(["--parent", str(tmp_path), "--workload", "traps", "--pairs", "1",
                   "--out", str(tmp_path / "out.json")])
    assert e.value.code == 2
    assert "--pairs" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
