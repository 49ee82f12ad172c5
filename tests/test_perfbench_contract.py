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

from pumplab import gen, pump
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


def test_benchmark_selftest_passes():
    pytest.importorskip("scipy")
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout
