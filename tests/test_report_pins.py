"""Pins of the report layer: the sweep table's text, the iteration bounds
and the bound-suite results, as exact bytes and digests.

The expected values were taken from the code before the report layer was
folded into one bound formula and one bound-suite table, so these tests
check that the fold changed no number it reports.
"""

import hashlib
import math
import random

from pumplab.bench import BenchRow, make_table, run_bound_suite
from pumplab.pump import theorem_bound

R = BenchRow


def test_render_ties_and_missing_group():
    # seed 2 has no wfp row: its cell reads 0 runs, and two algorithms tie on seed 1
    rows = [
        R("a", "orig", 1, "found", 10, 1, 0, 0.5),
        R("b", "orig", 1, "found", 10, 1, 0, 0.5),
        R("a", "wfp", 1, "found", 10, 1, 0, 0.5),
        R("b", "wfp", 1, "found", 10, 1, 0, 0.5),
        R("a", "orig", 2, "iter_limit", 400, 9, 0, 2.0),
    ]
    assert make_table(rows).render() == (
        "sgm shifts: time 1, iterations 1\n"
        "seed        # found            time sgm           itr sgm\n"
        "            orig      wfp      orig      wfp      orig      wfp\n"
        "1              2        2     0.500    0.500     10.00    10.00\n"
        "2              0        0     2.000    0.000    400.00     0.00\n"
        "mean        1.00     1.00      1.25     0.25    205.00     5.00\n"
        "ratio       1.00     1.00      1.00     0.20      1.00     0.02   (vs orig)\n"
    )


def test_render_zero_mean_gives_nan_ratios():
    rows = [
        R("a", "naive", 1, "iter_limit", 0, 0, 0, 0.0),
        R("a", "wfpbase", 1, "found", 3, 1, 0, 0.25),
    ]
    assert make_table(rows).render() == (
        "sgm shifts: time 1, iterations 1\n"
        "seed        # found            time sgm           itr sgm\n"
        "           naive  wfpbase     naive  wfpbase     naive  wfpbase\n"
        "1              0        1     0.000    0.250      0.00     3.00\n"
        "mean        0.00     1.00      0.00     0.25      0.00     3.00\n"
        "ratio        nan      nan       nan      nan       nan      nan   (vs naive)\n"
    )


def test_render_one_algorithm_and_no_rows():
    rows = [
        R("a", "wfp", 3, "found", 7, 2, 0, 0.125),
        R("a", "wfp", 11, "error", 0, 0, 0, 0.0),
    ]
    assert make_table(rows).render() == (
        "sgm shifts: time 1, iterations 1\n"
        "seed    # found   time sgm  itr sgm\n"
        "             wfp       wfp       wfp\n"
        "3              1     0.125      7.00\n"
        "11             0     0.000      0.00\n"
        "mean        0.50      0.06      3.50\n"
    )
    assert make_table([]).render() == "(no runs)\n"


def test_render_digest_over_random_row_sets():
    h = hashlib.sha256()
    rng = random.Random(2024)
    outcomes = ("found", "iter_limit", "error", "timeout")
    for _ in range(300):
        algs = rng.sample(["orig", "wfpbase", "wfp", "naive", "mbwalksat"], rng.randint(1, 4))
        rows = [
            R(f"i{rng.randint(0, 3)}", rng.choice(algs), rng.randint(1, 4), rng.choice(outcomes),
              rng.choice((0, 0, 3, 17, 400)), 0, 0, rng.choice((0.0, 0.0, 0.125, 1.5, 2.25)))
            for _ in range(rng.randint(0, 12))
        ]
        h.update(make_table(rows).render().encode())
    assert h.hexdigest() == "c191aa97b567cf89be5589ca8b5f4d635bf0d691c66748bea1871aabbac68ad5"


def _bound_lines():
    out = []
    deltas = (0.5, 0.3, 1 / math.e, 0.1, 0.05, 0.01, 1e-3, 1e-6)
    sizes_lists = ([1], [2], [3, 1], [2, 3], [4, 4, 4], [5, 2, 1], [1, 1, 1, 1, 1], [6, 3])
    for delta in deltas:
        for sizes in sizes_lists:
            caps = [max(1, s - 1) for s in sizes]
            for name, kw in (("T1", dict(block_sizes=sizes, cert_bounds=caps)), ("T2", dict(block_sizes=sizes))):
                r = theorem_bound(name, delta=delta, **kw)
                out.append(f"{name} {sizes} {delta!r} {r.theorem} {r.iterations} {r.delta!r} {r.tail!r}")
    for n in range(1, 10):
        for delta in deltas:
            r = theorem_bound("T5", n=n, delta=delta)
            out.append(f"T5 {n} {delta!r} {r.theorem} {r.iterations} {r.delta!r} {r.tail.hex()}")
            for c in range(1, n + 1):
                r = theorem_bound("T3", n=n, cert_supp=c, delta=delta)
                out.append(f"T3 {n} {c} {delta!r} {r.theorem} {r.iterations} {r.delta!r} {r.tail.hex()}")
        for c in range(1, n + 1):
            for T in (0, 1, n, 7 * n + 3, 1000):
                r = theorem_bound("T3", n=n, cert_supp=c, T=T)
                out.append(f"T3 {n} {c} T={T} {r.theorem} {r.iterations} {r.delta!r} {r.tail.hex()}")
    return out


def test_theorem_bound_iterations_and_tails_over_a_grid():
    lines = _bound_lines()
    assert len(lines) == 785
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5b13aaa6740e08105cb814d6cb1af43e8ef07217dd67337c4e46c5ca54eb4bf4"


def test_bound_suite_results_digest():
    suites = [
        (("1",), dict(runs=60, delta=0.2, ks=(1, 2), ns=(2, 3, 4), base_seed=5),
         "036c794fab04e85b1d864f90e0377b79d83679e312aaa0a70239850a43dfe14f"),
        (("1",), dict(runs=40),
         "6694cd56b2cce4cabcda040524ad452c00d3e676250fbcdc16b43a00c17265cb"),
        (("2",), dict(runs=60, delta=0.1, ks=(1, 2), ns=(2, 3), base_seed=6),
         "58d39bfceff90459955ffde5dde010a33209bb0e23c09a4356d3fad205ba60b5"),
        (("5",), dict(runs=60, delta=0.05, ks=(1, 2), ns=(2, 3), base_seed=7, cap_limit=5000),
         "fa6153c6a2f1272f23645a1bf18c531c1ef48241bb06e0d7ca38d2a1922a22d7"),
    ]
    for args, kwargs, want in suites:
        res = run_bound_suite(*args, **kwargs)
        assert hashlib.sha256(repr(res).encode()).hexdigest() == want, (args, kwargs)
