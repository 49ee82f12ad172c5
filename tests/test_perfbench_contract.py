"""The names perfbench/ wraps in pumplab, checked from the tier-1 suite.

perfbench/tracing.py and perfbench/workloads.py replace pumplab functions
and methods by name (normalize and dense_rows in four modules, the pump
entry points, the flip rules, pump.lift, the oracle constructors). A
refactor that drops or renames one of them breaks the benchmark, and this
test with it.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

from pumplab import bench, gen, pump
from pumplab.perturb import make_rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # tracing.py imports workloads by its bare name
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _install(patcher):
    patcher.install()
    saved = list(patcher._saved)
    assert saved
    for owner, name, original in saved:
        assert getattr(owner, name) is not original, name
    return saved


def _restored(saved):
    return all(getattr(owner, name) is original for owner, name, original in saved)


def test_tracer_and_recorder_install_and_uninstall(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    tracing = _load(monkeypatch, "tracing")

    tracer = tracing.Tracer()
    tracer.install_generators()
    saved = _install(tracer)
    try:
        # every layer the pump reaches is seen through the wrapped names
        for alg in ("wfpbase", "wfp"):
            pump.run(alg, gen.fractional_stall_instance(), make_rng(0), max_iter=50, record=False)
        # a certificate walk with continuous columns ends in pump.lift
        inst = gen.gen_decomposable(4, gen.BlockSpec(n=4, d=1, rows=3, s=2), make_rng(3)).instance
        assert pump.run("mbwalksat", inst, make_rng(0), max_iter=5000, record=False).found
        seen = set(tracer.layers)
    finally:
        tracer.uninstall()
    assert _restored(saved)
    assert {"pump", "projection.init", "projection.entry", "lp.phase1", "lp.resolve",
            "model.rebuild", "certificate.init", "certificate", "perturb", "gen", "lp.lift"} <= seen

    recorder = workloads.Recorder()
    saved = _install(recorder)
    recorder.uninstall()
    assert _restored(saved)


def test_a_sweep_reaches_every_run_through_the_wrappers(monkeypatch):
    # bench hands each run a view; the recorder and the tracer wrap the
    # run_* functions it reaches, and must see every task
    workloads = _load(monkeypatch, "workloads")
    tracing = _load(monkeypatch, "tracing")
    instances = [gen.fractional_stall_instance(),
                 gen.gen_decomposable(3, gen.BlockSpec(n=4, d=1, rows=3, s=2), make_rng(3)).instance]
    cfg = bench.BenchConfig(instances, algorithms=("wfpbase", "wfpc"), seeds=(1, 2), max_iter=200, workers=1)
    recorder, tracer = workloads.Recorder(), tracing.Tracer()
    recorder.install()
    try:
        tracer.install()
        try:
            done = workloads.run_pass([cfg], recorder, tracer.harness)
        finally:
            tracer.uninstall()
    finally:
        recorder.uninstall()
    assert [(run.instance.name, run.row.algorithm, run.row.seed) for run in done.runs] == [
        (inst.name, alg, seed) for inst in instances for alg in cfg.algorithms for seed in cfg.seeds]
    assert not any(isinstance(run.result, workloads.Raised) for run in done.runs)
    assert tracer.layers["pump"].count == len(done.runs) == 8


def test_benchmark_selftest_passes():
    pytest.importorskip("scipy")
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout
