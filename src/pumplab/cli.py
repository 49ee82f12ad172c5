"""Command line front end.

Subcommands: gen (emit an instance file), solve (one algorithm on one
instance), bench (sweep a grid and tabulate), verify-bounds (Monte Carlo
check of the iteration bounds), trace (replay one run and dump its log).

Instances are named by a path (native format, or MPS when the name ends
in .mps) or by a builtin alias: "fractional-stall" and
"zero-frac-stall:T" give the two stalling counterexamples.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from . import bench as benchmod
from .errors import InvalidInstance, PumpLabError
from .formats import parse_mps, read_native, write_mps, write_native
from .gen import (
    BlockSpec,
    fractional_stall_instance,
    gen_decomposable,
    gen_subset_sum,
    gen_two_stage,
    zero_frac_stall_instance,
)
from .model import MixedBinaryInstance
from .perturb import DEFAULT_TT_RANGE, make_rng
from .projection import round_binary
from . import pump


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    sep = next((sep for sep in ("..", ":") if sep in text and "," not in text), None)
    if sep:
        lo, hi = text.split(sep, 1)
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(tok) for tok in text.split(",") if tok]
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"seed list {text!r} is empty or has a negative seed")
    return seeds


def _at_least(lo: int):
    """An argparse type: an integer no smaller than lo."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__ = "int"     # argparse names the type in its messages
    return parse


def _float_between(lo: float, hi: float):
    """An argparse type: a float strictly between lo and hi."""

    def parse(text: str) -> float:
        value = float(text)
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(f"must lie strictly between {lo:g} and {hi:g}, got {text}")
        return value

    parse.__name__ = "float"
    return parse


def _parse_algs(text: str) -> tuple[str, ...]:
    """An argparse type: a comma list of algorithm names."""
    algs = tuple(text.split(","))
    unknown = [a for a in algs if a not in pump.ALGORITHMS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown algorithm {unknown[0]!r}; choose from {', '.join(pump.ALGORITHMS)}")
    return algs


def _parse_counts(text: str) -> tuple[int, ...]:
    """An argparse type: a comma list of positive integers."""
    counts = tuple(_at_least(1)(tok) for tok in text.split(",") if tok)
    if not counts:
        raise argparse.ArgumentTypeError(f"list {text!r} is empty")
    return counts


def _parse_tt(text: str) -> tuple[int, int]:
    lo, hi = text.split(":" if ":" in text else ",", 1)
    lo, hi = int(lo), int(hi)
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"TT range {text!r} needs 0 <= LO <= HI")
    return (lo, hi)


def load_instance(spec: str) -> MixedBinaryInstance:
    if spec == "fractional-stall":
        return fractional_stall_instance()
    if spec == "zero-frac-stall" or spec.startswith("zero-frac-stall:"):
        _, _, arg = spec.partition(":")
        if not arg:
            return zero_frac_stall_instance(3)
        if not arg.isdigit() or int(arg) < 1:
            raise InvalidInstance(f"zero-frac-stall:T needs an integer T >= 1, got {arg!r}")
        return zero_frac_stall_instance(int(arg))
    with open(spec, "r", encoding="utf-8") as fh:
        text = fh.read()
    if spec.endswith(".mps"):
        return parse_mps(text)
    return read_native(text)


def _point_lines(point) -> list[str]:
    # found points are binary within INT_TOL, so print their rounding
    x = " ".join(str(v) for v in round_binary(point.x))
    lines = [f"x: {x}"]
    if point.y.size:
        lines.append("y: " + " ".join(repr(float(v)) for v in point.y))
    return lines


def cmd_gen(args) -> int:
    witness = None
    if args.family == "decomposable" and args.s > args.n:
        print(f"error: --s {args.s} exceeds --n {args.n}", file=sys.stderr)
        return 2
    if args.family == "subset-sum":
        res = gen_subset_sum(args.k, args.n, make_rng(args.seed), coeff_max=args.coeff_max)
        inst, witness = res.instance, res.witness
    elif args.family == "decomposable":
        block = BlockSpec(n=args.n, d=args.d, rows=args.rows, s=args.s, coeff_max=args.coeff_max)
        res = gen_decomposable(args.k, block, make_rng(args.seed))
        inst, witness = res.instance, res.witness
    elif args.family == "two-stage":
        res = gen_two_stage(
            args.k, args.p, args.q, make_rng(args.seed), rows_per_scenario=args.rows_per_scenario
        )
        inst, witness = res.instance, res.witness
    elif args.family == "fractional-stall":
        inst = fractional_stall_instance()
    elif args.family == "zero-frac-stall":
        inst = zero_frac_stall_instance(args.t_max)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    text = write_mps(inst) if args.format == "mps" else write_native(inst)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.witness and witness is not None:
        for line in _point_lines(witness):
            print(f"witness {line}", file=sys.stderr)
    return 0


def _run(args, record: bool):
    return pump.run(
        args.alg, load_instance(args.instance), make_rng(args.seed), max_iter=args.max_iter,
        flips=args.flips, tt_range=args.tt, record=record,
    )


def cmd_solve(args) -> int:
    trace = _run(args, record=False)
    print(f"outcome: {trace.outcome}")
    print(
        f"iterations: {trace.iterations} perturbations: {trace.perturbations} "
        f"restarts: {trace.restarts}"
    )
    if trace.found and trace.point is not None:
        for line in _point_lines(trace.point):
            print(line)
    return 0 if trace.found else 1


def cmd_trace(args) -> int:
    trace = _run(args, record=True)
    trace.seed = args.seed
    sys.stdout.write("\n".join(trace.to_lines()) + "\n")
    return 0


def cmd_bench(args) -> int:
    if args.instances:
        instances = [load_instance(p) for p in args.instances]
    elif args.family == "two-stage":
        instances = benchmod.two_stage_suite(
            base_seed=args.base_seed,
            ks=args.ks or (5, 15, 25, 35, 45),
            ps=args.ps or (10, 20),
            q=args.q,
            per_config=args.per_config,
            rows_per_scenario=args.rows_per_scenario,
        )
    elif args.family == "subset-sum":
        instances = benchmod.subset_sum_suite(
            base_seed=args.base_seed,
            ks=args.ks or (1, 2, 3),
            ns=args.ns or (3, 4, 5),
            per_config=args.per_config,
            coeff_max=args.coeff_max,
        )
    else:
        print("bench needs --instances or --family", file=sys.stderr)
        return 2
    try:
        cfg = benchmod.BenchConfig(
            instances=instances,
            algorithms=args.algs,
            seeds=args.seeds,
            max_iter=args.max_iter,
            tt_range=args.tt,
            flips=args.flips,
            time_limit=args.time_limit,
            **({"workers": args.workers} if args.workers else {}),
        )
    except ValueError as exc:
        # PUMPLAB_WORKERS is read here, when --workers is not given
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = benchmod.run_benchmark(cfg)
    sys.stdout.write(result.text)
    if args.csv:
        benchmod.write_csv(result.rows, args.csv)
        print(f"wrote {len(result.rows)} rows to {args.csv}", file=sys.stderr)
    return 0


def cmd_verify_bounds(args) -> int:
    if args.ks is None:
        args.ks = (2, 3) if args.theorem == "1" else (1, 2, 3)
    if args.ns is None:
        args.ns = (3, 4, 5, 6) if args.theorem == "1" else (3, 4, 5)
    res = benchmod.run_bound_suite(
        str(args.theorem),
        runs=args.runs,
        delta=args.delta,
        ks=args.ks,
        ns=args.ns,
        base_seed=args.base_seed,
        coeff_max=args.coeff_max,
        cap_limit=args.cap_limit,
    )
    sys.stdout.write(res.render())
    return 0 if res.passed else 1


def _add_run_flags(p, max_iter_default: int):
    p.add_argument("--alg", required=True, choices=list(pump.ALGORITHMS))
    p.add_argument("instance")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--flips", "--l", dest="flips", type=_at_least(1), default=2,
                   help="certificate flips per perturbation")
    p.add_argument("--max-iter", type=_at_least(0), default=max_iter_default)
    p.add_argument("--tt", type=_parse_tt, default=DEFAULT_TT_RANGE, metavar="LO:HI",
                   help="flip-count range for the fractionality rules")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pumplab", description=__doc__)
    positive = _at_least(1)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", required=True,
                   choices=["subset-sum", "decomposable", "two-stage",
                            "fractional-stall", "zero-frac-stall"])
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--k", type=positive, default=1, help="block or scenario count")
    p.add_argument("--n", type=positive, default=4, help="binaries per block")
    p.add_argument("--d", type=_at_least(0), default=0, help="continuous columns per block")
    p.add_argument("--rows", type=positive, default=2, help="rows per block")
    p.add_argument("--s", type=positive, default=2, help="binary support per row")
    p.add_argument("--p", type=positive, default=10, help="first-stage binaries")
    p.add_argument("--q", type=positive, default=10, help="second-stage columns per scenario")
    p.add_argument("--rows-per-scenario", type=positive, default=5)
    p.add_argument("--coeff-max", type=positive, default=20)
    p.add_argument("--t-max", type=positive, default=3, help="trap depth for zero-frac-stall")
    p.add_argument("--format", choices=["native", "mps"], default="native")
    p.add_argument("-o", "--output")
    p.add_argument("--witness", action="store_true",
                   help="print the planted feasible point to stderr")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run one algorithm on one instance")
    _add_run_flags(p, 10_000)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("trace", help="replay one run and dump its event log")
    _add_run_flags(p, 50)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("bench", help="sweep instances x algorithms x seeds")
    p.add_argument("--instances", nargs="*", help="instance files (overrides --family)")
    p.add_argument("--family", choices=["two-stage", "subset-sum"])
    p.add_argument("--algs", type=_parse_algs, default="orig,wfpbase", help="comma list")
    p.add_argument("--seeds", type=_parse_seeds, default="1..10", help="list 1,2,3 or range 1..10")
    p.add_argument("--max-iter", type=_at_least(0), default=400)
    p.add_argument("--flips", "--l", dest="flips", type=_at_least(1), default=2)
    p.add_argument("--tt", type=_parse_tt, default=DEFAULT_TT_RANGE, metavar="LO:HI")
    p.add_argument("--time-limit", type=_float_between(0.0, math.inf), default=60.0)
    p.add_argument("--base-seed", type=_at_least(0), default=12345, help="instance generation seed")
    p.add_argument("--ks", type=_parse_counts, help="comma list of block or scenario counts")
    p.add_argument("--ps", type=_parse_counts, help="comma list of first-stage sizes (two-stage)")
    p.add_argument("--ns", type=_parse_counts, help="comma list of block sizes (subset-sum)")
    p.add_argument("--q", type=positive, default=10)
    p.add_argument("--per-config", type=positive, default=5)
    p.add_argument("--rows-per-scenario", type=positive, default=5)
    p.add_argument("--coeff-max", type=positive, default=20)
    p.add_argument("--csv", help="also write per-run rows to this path")
    p.add_argument("--workers", type=positive, help="worker processes (default: PUMPLAB_WORKERS or 1)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify-bounds", help="Monte Carlo check of the iteration bounds")
    p.add_argument("--theorem", required=True, choices=["1", "2", "5"])
    p.add_argument("--runs", type=_at_least(1), default=200)
    p.add_argument("--delta", type=_float_between(0.0, 1.0), default=0.1)
    p.add_argument("--ks", "--k", dest="ks", type=_parse_counts, help="comma list of block counts")
    p.add_argument("--ns", "--n", dest="ns", type=_parse_counts, help="comma list of block sizes")
    p.add_argument("--base-seed", type=_at_least(0), default=0)
    p.add_argument("--coeff-max", type=positive, default=10)
    p.add_argument("--cap-limit", type=positive, default=1_000_000)
    p.set_defaults(func=cmd_verify_bounds)

    return ap


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, PumpLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
