import hashlib
import os

import numpy as np
import pytest

from pumplab.cli import _parse_seeds, _parse_tt, _point_lines, load_instance, main
from pumplab.formats import read_native
from pumplab.model import MixedPoint
from pumplab.pump import ALGORITHMS

DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parse_helpers():
    assert _parse_seeds("1..3") == [1, 2, 3]
    assert _parse_seeds("1:3") == [1, 2, 3]
    assert _parse_seeds("4,7") == [4, 7]
    assert _parse_tt("5:9") == (5, 9)
    assert _parse_tt("5,9") == (5, 9)


def test_builtin_instance_aliases():
    assert load_instance("fractional-stall").n == 2
    assert load_instance("zero-frac-stall").n == 5
    assert load_instance("zero-frac-stall:4").n == 6


def test_solve_reports_found_point(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--alg", "wfp", "--l", "2",
                         "--seed", "7", "fractional-stall")
    assert rc == 0
    assert "outcome: found" in out
    assert "x: 1 0" in out


def test_found_point_prints_its_rounding():
    # pumps return x_bar once it is within 1e-6 of binary, so a found
    # coordinate may sit just below 1
    point = MixedPoint(np.array([1 - 5e-7, 0.0, 1.0, 4e-7]), np.array([0.25]))
    assert _point_lines(point) == ["x: 1 0 1 0", "y: 0.25"]


def test_solve_exit_one_when_trapped(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--alg", "orig", "--max-iter", "80",
                         "fractional-stall")
    assert rc == 1
    assert "outcome: iter_limit" in out


def test_solve_rejects_unknown_algorithm():
    with pytest.raises(SystemExit) as e:
        main(["solve", "--alg", "mystery", "fractional-stall"])
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--alg", "orig", "--tt", "5:1", "fractional-stall"],
    ["solve", "--alg", "origzf", "--tt=-1:3", "fractional-stall"],
    ["solve", "--alg", "wfp", "--flips", "0", "fractional-stall"],
    ["trace", "--alg", "mbwalksat", "--l=-2", "fractional-stall"],
    ["bench", "--instances", os.path.join(DATA, "fractional_stall.pl"), "--algs", "orig",
     "--seeds", "1", "--max-iter", "50", "--tt", "5:1"],
    ["bench", "--instances", os.path.join(DATA, "fractional_stall.pl"), "--algs", "wfp",
     "--seeds", "1", "--max-iter", "50", "--flips", "0"],
])
def test_bad_flip_settings_are_argument_errors(capsys, argv):
    # without the check these ran until the first stall and ended in a traceback
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--alg", "naive", "zero-frac-stall:0"],
    ["solve", "--alg", "naive", "zero-frac-stall:abc"],
    ["solve", "--alg", "naive", "zero-frac-stall:-2"],
    ["solve", "--alg", "naive", "--max-iter", "-3", "fractional-stall"],
    ["solve", "--alg", "naive", "--seed", "-1", "fractional-stall"],
    ["solve", "--alg", "naive", "zero-frac-stallx"],
    ["gen", "--family", "zero-frac-stall", "--t-max", "0"],
    ["gen", "--family", "subset-sum", "--k", "0"],
    ["gen", "--family", "decomposable", "--n", "2", "--s", "3"],
    ["bench", "--instances", os.path.join(DATA, "fractional_stall.pl"), "--algs", "orig",
     "--seeds", "3..1"],
    ["bench", "--family", "subset-sum", "--ks", "0", "--seeds", "1"],
    ["bench", "--instances", os.path.join(DATA, "fractional_stall.pl"), "--algs", "orig",
     "--seeds=-2..-1"],
    ["verify-bounds", "--theorem", "1", "--runs", "0"],
    ["verify-bounds", "--theorem", "1", "--delta", "0"],
    ["verify-bounds", "--theorem", "1", "--delta", "1.5"],
    ["verify-bounds", "--theorem", "1", "--coeff-max", "0"],
    ["bench", "--instances", os.path.join(DATA, "fractional_stall.pl"), "--algs", "orig,bogus",
     "--seeds", "1"],
    ["bench", "--instances", os.path.join(DATA, "fractional_stall.pl"), "--algs", "orig",
     "--seeds", "1", "--time-limit", "-1"],
    ["bench", "--instances", os.path.join(DATA, "fractional_stall.pl"), "--algs", "orig",
     "--seeds", "1", "--workers", "-2"],
    ["verify-bounds", "--theorem", "1", "--runs", "2", "--cap-limit", "-5", "--ks", "1", "--ns", "2"],
    ["verify-bounds", "--theorem", "1", "--runs", "2", "--cap-limit", "0", "--ks", "1", "--ns", "2"],
])
def test_bad_inputs_fail_cleanly(capsys, argv):
    # without the checks these raised a traceback, printed "iterations: -3"
    # for a negative --max-iter, ran a misspelt alias as zero-frac-stall:3,
    # marked every run timeout for a negative --time-limit, ran a
    # negative --workers serially or ran every walk with a --cap-limit of
    # -5 and printed FAIL
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["abc", "-4", "0"])
def test_bad_worker_environment_fails_cleanly(capsys, monkeypatch, raw):
    # a malformed or non-positive PUMPLAB_WORKERS used to run one worker
    monkeypatch.setenv("PUMPLAB_WORKERS", raw)
    rc, out, err = run_cli(capsys, "bench", "--instances", os.path.join(DATA, "fractional_stall.pl"),
                           "--algs", "orig", "--seeds", "1", "--max-iter", "5")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "PUMPLAB_WORKERS" in err


def test_missing_file_is_a_clean_error(capsys):
    rc, _, err = run_cli(capsys, "solve", "--alg", "wfp", "no/such/file.pl")
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("kind", ["directory", "undecodable", "malformed"])
def test_unreadable_instance_files_are_clean_errors(capsys, tmp_path, kind):
    # a directory raised IsADirectoryError, a 0xFF byte UnicodeDecodeError
    # and a non-numeric column count a bare ValueError
    path = tmp_path / "inst.pl"
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":
        path.write_bytes(b"pumplab 1\nname \xff\ncols 1 0\nend\n")
    else:
        path.write_text("pumplab 1\nname x\ncols a 0\nend\n")
    rc, out, err = run_cli(capsys, "solve", "--alg", "wfp", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_gen_writes_loadable_file(tmp_path, capsys):
    path = tmp_path / "ss.pl"
    rc, out, err = run_cli(capsys, "gen", "--family", "subset-sum", "--k", "2",
                           "--n", "3", "--seed", "5", "-o", str(path), "--witness")
    assert rc == 0 and out == ""
    assert "witness x:" in err
    inst = load_instance(str(path))
    assert inst.n == 6 and len(inst.rows) == 2
    rc, _, _ = run_cli(capsys, "solve", "--alg", "wfp", "--seed", "1", str(path))
    assert rc == 0


def test_gen_stdout_and_mps_format(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "gen", "--family", "fractional-stall")
    assert rc == 0
    assert read_native(out).n == 2

    path = tmp_path / "stall.mps"
    rc, _, _ = run_cli(capsys, "gen", "--family", "zero-frac-stall", "--t-max", "2",
                       "--format", "mps", "-o", str(path))
    assert rc == 0
    assert load_instance(str(path)).n == 4


def test_trace_header_and_events(capsys):
    rc, out, _ = run_cli(capsys, "trace", "--alg", "wfp", "--seed", "5",
                         "fractional-stall")
    assert rc == 0
    head = out.splitlines()[0]
    assert head.startswith("# algorithm=wfp instance=fractional-stall seed=5 outcome=found")
    assert "event=project" in out
    assert "t=" in out


def test_bench_family_table_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    rc, out, err = run_cli(
        capsys, "bench", "--family", "subset-sum", "--ks", "1", "--ns", "3,4",
        "--per-config", "1", "--algs", "orig,wfp", "--seeds", "1..2",
        "--max-iter", "200", "--csv", str(csv_path),
    )
    assert rc == 0
    assert "sgm shifts:" in out and "# found" in out and "(vs orig)" in out
    assert "wrote 8 rows" in err
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "instance,algorithm,seed,outcome,iterations,perturbations,restarts,wall_time_s"
    assert len(lines) == 9


def test_bench_accepts_instance_files(tmp_path, capsys):
    path = tmp_path / "inst.pl"
    run_cli(capsys, "gen", "--family", "subset-sum", "--k", "1", "--n", "4",
            "--seed", "2", "-o", str(path))
    rc, out, _ = run_cli(capsys, "bench", "--instances", str(path),
                         "--algs", "wfp", "--seeds", "1,2", "--max-iter", "200")
    assert rc == 0
    assert "wfp" in out


def test_bench_without_inputs_fails(capsys):
    rc, _, err = run_cli(capsys, "bench")
    assert rc == 2
    assert "bench needs" in err


def test_verify_bounds_small_pass(capsys):
    rc, out, _ = run_cli(capsys, "verify-bounds", "--theorem", "1", "--runs", "10",
                         "--ks", "1", "--ns", "2,3", "--base-seed", "3")
    assert "theorem T1" in out
    assert rc == 0
    assert "PASS" in out


# The first 16 hex digits of sha256(f"{exit code}\n{stdout}") of
# `pumplab trace --alg ALG INSTANCE --seed S` at the default --max-iter 50,
# for seeds 0 and 1. They pin each variant's record order and RNG draws.
TRACE_DIGESTS = {
    ("naive", "fractional-stall"): ("8479e8ca3a465429", "4c15e4614cb407ed"),
    ("orig", "fractional-stall"): ("d6e6918e1897720e", "0d87f8f30fbba68e"),
    ("origzf", "fractional-stall"): ("5b089770bca34582", "328548413647c857"),
    ("mbwalksat", "fractional-stall"): ("aa8b677b4666dbea", "a3df44782fc0b031"),
    ("wfp", "fractional-stall"): ("364d24851c2816a2", "d03071796f78e99e"),
    ("wfpc", "fractional-stall"): ("5bcefc5ac0090a56", "36d72083ebb60849"),
    ("wfpbase", "fractional-stall"): ("0edb4d962953540b", "5f8baa9eae9ef6b4"),
    ("naive", "zero-frac-stall:3"): ("3e42a76c2677d439", "970c12c57235eef1"),
    ("orig", "zero-frac-stall:3"): ("2289930f533d35b8", "1851d5603e619bfa"),
    ("origzf", "zero-frac-stall:3"): ("35ffa2dddf86afeb", "920515b4af21907f"),
    ("mbwalksat", "zero-frac-stall:3"): ("58bc55495136d0a0", "c683f4f7ddc1b5c0"),
    ("wfp", "zero-frac-stall:3"): ("95c3b80ccf498bfb", "3406f2c979dae166"),
    ("wfpc", "zero-frac-stall:3"): ("e1f369d4ce253cf6", "962da4e854d08a96"),
    ("wfpbase", "zero-frac-stall:3"): ("b7368e7dfd44d5e7", "a281ab54d5f02432"),
    ("naive", "decomp_two_blocks.pl"): ("97c62b23261c1c5b", "6f391acb14cbcd67"),
    ("orig", "decomp_two_blocks.pl"): ("1ccf3c21a161f854", "293ba863ba7a53e9"),
    ("origzf", "decomp_two_blocks.pl"): ("a59190abc30c2d5d", "6a0483153d4a75ab"),
    ("mbwalksat", "decomp_two_blocks.pl"): ("4d8c4771f2d55bc3", "7ae364218afb5463"),
    ("wfp", "decomp_two_blocks.pl"): ("e304be718b7c7c55", "1dbf0f8f7fc784f9"),
    ("wfpc", "decomp_two_blocks.pl"): ("0b3b0a5b21725190", "0a6cbf4a6f851ca4"),
    ("wfpbase", "decomp_two_blocks.pl"): ("81cf309d8112fe1b", "e84dda054a19337d"),
}


def test_trace_digests_cover_every_algorithm():
    assert {alg for alg, _ in TRACE_DIGESTS} == set(ALGORITHMS)


@pytest.mark.parametrize("alg,instance", sorted(TRACE_DIGESTS))
def test_trace_output_is_pinned(capsys, alg, instance):
    spec = os.path.join(DATA, instance) if instance.endswith(".pl") else instance
    for seed, want in enumerate(TRACE_DIGESTS[(alg, instance)]):
        rc, out, _ = run_cli(capsys, "trace", "--alg", alg, "--seed", str(seed), spec)
        assert hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:16] == want, (alg, instance, seed)
