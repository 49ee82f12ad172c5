"""Self-test of the benchmark's checks at toy sizes.

    python3 perfbench/selftest.py

Runs a toy pass through the same recorder and checks as run.py, then
corrupts one returned `found` point at a time and shows that the
operation is counted as failed: a point with one bit flipped, a point
whose continuous part violates a row, and a point off 0/1 by 1e-7. Exits
with 1 and names the case when one is not caught.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pumplab import bench, gen  # noqa: E402


def toy_configs():
    rng = np.random.Generator(np.random.PCG64(5))
    mixed = gen.gen_decomposable(2, gen.BlockSpec(n=3, d=1, rows=2, s=2), rng).instance
    return [bench.BenchConfig([gen.fractional_stall_instance(), mixed], algorithms=("wfp", "mbwalksat"),
                              seeds=(1, 2), max_iter=500, time_limit=float("inf"), workers=1)]


def toy_pass():
    recorder = workloads.Recorder()
    recorder.inspect = checks.Inspector()
    recorder.install()
    try:
        return workloads.run_pass(toy_configs(), recorder)
    finally:
        recorder.uninstall()


def flip_bit(instance, point):
    # 3 x0 + x1 = 3 is broken by any single flip
    if instance.name != "fractional-stall":
        return False
    point.x[0] = 1.0 - point.x[0]
    return True


def break_row(instance, point):
    # push one continuous column far in the direction its <= row dislikes
    for row in instance.rows:
        for j, g in row.cont_coeffs.items():
            point.y[j] += 1e3 * np.sign(g)
            return True
    return False


def off_binary(instance, point):
    x0 = point.x[0]
    point.x[0] = x0 + 1e-7 if x0 == 0.0 else x0 - 1e-7
    return True


def failed_after(corrupt) -> tuple[int, int]:
    """(failed runs, found runs) of a toy pass with one found point corrupted."""
    p = toy_pass()
    for r in p.runs:
        if r.row.outcome == "found" and corrupt(r.instance, r.result.point):
            break
    else:
        raise SystemExit(f"selftest: no found run to corrupt with {corrupt.__name__}")
    failed, problems = run.check("toy", p, [])
    if problems:
        raise SystemExit(f"selftest: unexpected problems {problems}")
    return failed, sum(r.row.outcome == "found" for r in p.runs)


def main() -> int:
    clean = toy_pass()
    failed, problems = run.check("toy", clean, [])
    if failed or problems:
        print(f"selftest: the clean toy pass has {failed} failed runs, problems {problems}")
        return 1
    for corrupt in (flip_bit, break_row, off_binary):
        n_failed, n_found = failed_after(corrupt)
        print(f"selftest: {corrupt.__name__}: {n_failed} of {n_found} found runs counted as failed")
        if n_failed != 1:
            print(f"selftest: FAILED, {corrupt.__name__} should fail exactly one run")
            return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
