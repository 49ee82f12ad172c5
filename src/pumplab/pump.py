"""Pump drivers: the alternating-projection loop and its randomized escapes.

The pump variants share one loop, _pump (relaxation, round, then project,
test for acceptance and compare the rounded point with the previous one),
and differ only in what they do on a stall, on a revisit and on
acceptance, which _pump reads from the variant's name.
run_mb_walksat walks by certificate flips alone, and run_wfp_compressed
collapses each projection sequence to its fixpoint before perturbing.

The certificate variants (wfp's stall rule, run_mb_walksat and
run_wfp_compressed) ask the certificate oracle about their binary point
first and perturb on the certificate it returns. NotACertificate means,
by Farkas' lemma, that the point lies in the binary projection of P, so
the two walks return lift(oracle, x): the point with the y of its own
projection (an empty y, with no projection, when there are no continuous
columns). No other test of whether a point lifts is made. wfp's stalled
point has just failed the row test with that same y, so it always has a
certificate, and NotACertificate there propagates as an error.

run() starts a variant by its name in ALGORITHMS. The run_* functions,
the flip rules and lift are looked up in this module's namespace when
they are called, so a wrapper installed on the module sees every call
(a fractionality stall answered from the run's flip memo makes none).

Every driver returns a PumpTrace; `iterations` counts projection steps
(perturbation rounds for the walk driver), and Found outcomes carry a
point that satisfies the instance rows at LP tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .certificate import CertificateOracle
from .errors import NotACertificate, SolverFailure
from .model import MixedBinaryInstance, MixedPoint
from .perturb import (
    DEFAULT_TT_RANGE,
    PerturbOutcome,
    _draw_tt,
    original_perturb,
    original_perturb_zero_frac,
    perturb_l,
    restart_perturb,
    wfpbase_perturb,
)
from .projection import ProjectionOracle, alt_proj_star, as_binary, is_integral, round_binary

# rounded points wfpbase remembers for its revisit test; the oldest goes first
HISTORY_CAP = 10_000


@dataclass
class TraceRecord:
    t: int
    event: str
    kind: str = ""
    flipped: tuple[int, ...] = ()
    distance: Optional[float] = None


@dataclass
class PumpTrace:
    algorithm: str
    instance: str
    seed: Optional[int]
    outcome: str = "iter_limit"          # found | iter_limit
    point: Optional[MixedPoint] = None
    iterations: int = 0
    perturbations: int = 0
    restarts: int = 0
    records: list[TraceRecord] = field(default_factory=list)
    cycle: Optional[tuple[str, int]] = None

    @property
    def found(self) -> bool:
        return self.outcome == "found"

    def to_lines(self) -> list[str]:
        head = (
            f"# algorithm={self.algorithm} instance={self.instance} seed={self.seed}"
            f" outcome={self.outcome} iterations={self.iterations}"
            f" perturbations={self.perturbations} restarts={self.restarts}"
        )
        lines = [head]
        for r in self.records:
            parts = [f"t={r.t}", f"event={r.event}"]
            if r.kind:
                parts.append(f"kind={r.kind}")
            if r.flipped:
                parts.append("flipped=" + ",".join(str(j) for j in r.flipped))
            if r.distance is not None:
                parts.append(f"distance={r.distance!r}")
            lines.append(" ".join(parts))
        return lines


def _found(trace: PumpTrace, t: int, point: MixedPoint, record: bool) -> PumpTrace:
    trace.outcome = "found"
    trace.point = point
    trace.iterations = t
    if record:
        trace.records.append(TraceRecord(t, "return"))
    return trace


def lift(oracle: ProjectionOracle, x: np.ndarray) -> MixedPoint:
    """The point (x, y) of a binary x that has no certificate, y taken from
    the projection of x. Such an x projects onto itself, so the pair meets
    every row; SolverFailure when it does not. With no continuous columns
    y is empty and nothing is projected: the row test on x alone decides."""
    xf = x.astype(float)
    y = oracle.entry(x).y_bar.copy() if oracle.d else np.zeros(0)
    if not oracle.pair_feasible(xf, y):
        raise SolverFailure("a point without a certificate did not lift")
    return MixedPoint(xf, y)


def _pump(algorithm: str, instance: MixedBinaryInstance, max_iter: int, rng, record: bool, *,
          tt_range=DEFAULT_TT_RANGE, l: int = 0) -> PumpTrace:
    """The project -> round -> compare loop behind the pump variants; the
    variant's name in ALGORITHMS is its only policy.

    On a stall (a repeat of the previous rounded point) naive does
    nothing, wfp flips l coordinates of a minimal certificate's support,
    and orig, origzf and wfpbase draw TT (one _draw_tt draw, before any
    draw of the rule) and flip by the fractionality, zero-fractionality
    or hybrid rule. orig and origzf memoize the rule's outcome per run,
    keyed by (stalled point, TT): the stalled point is the rounding of its
    own memoized projection, so the outcome is a pure function of that
    key, and a hit calls no rule.
    On a revisit (a repeat of an older rounded point) naive files the
    first one into trace.cycle and wfpbase restarts from it with a fresh
    visited set; the others do nothing.
    wfp returns the rounded point once it is feasible with the
    projection's y, testing nothing at t = 0; the others return an
    integral projection, the t = 0 relaxation included.
    """
    naive = algorithm == "naive"
    wfp = algorithm == "wfp"
    wfpbase = algorithm == "wfpbase"
    oracle = ProjectionOracle(instance)
    trace = PumpTrace(algorithm, instance.name, None)
    records = trace.records
    x_bar, y_bar = oracle.relaxation()
    cur = round_binary(x_bar)
    if not wfp and is_integral(x_bar, cur):
        return _found(trace, 0, MixedPoint(x_bar.copy(), y_bar.copy()), record)
    if record:
        records.append(TraceRecord(0, "round"))
    prev_key = cur.tobytes()
    visited = {prev_key: 0}
    certs: Optional[CertificateOracle] = None
    flips: dict[tuple[bytes, int], PerturbOutcome] = {}
    for t in range(1, max_iter + 1):
        e = oracle.entry(cur)
        if record:
            records.append(TraceRecord(t, "project", distance=e.distance))
        nxt, new_key = e.rounded, e.rounded_key
        if wfp:
            if record:
                records.append(TraceRecord(t, "round"))
            if oracle.pair_feasible(nxt.astype(float), e.y_bar):
                return _found(trace, t, MixedPoint(nxt.astype(float), e.y_bar.copy()), record)
        elif e.integral:
            return _found(trace, t, MixedPoint(e.x_bar.copy(), e.y_bar.copy()), record)
        elif record:
            records.append(TraceRecord(t, "round"))
        if new_key == prev_key:
            if record:
                records.append(TraceRecord(t, "stall"))
            if not naive:
                oracle.leave_chain()
                if wfp:
                    if certs is None:
                        certs = CertificateOracle(instance)
                    out = perturb_l(nxt, certs.min_certificate(nxt), l, rng)
                else:
                    tt = _draw_tt(rng, tt_range)
                    if wfpbase:
                        out = wfpbase_perturb(nxt, e.x_bar, e.y_bar, instance, rng, tt)
                    else:
                        out = flips.get((new_key, tt))
                        if out is None:
                            rule = original_perturb if algorithm == "orig" else original_perturb_zero_frac
                            out = flips[new_key, tt] = rule(nxt, e.x_bar, tt)
                trace.perturbations += 1
                if record:
                    records.append(TraceRecord(t, "perturb", out.kind, out.flipped))
                nxt, new_key = out.x_new, out.x_new.tobytes()
        elif wfpbase and new_key in visited:
            oracle.leave_chain()
            out = restart_perturb(nxt, e.x_bar, rng)
            trace.restarts += 1
            if record:
                records.append(TraceRecord(t, "restart", out.kind, out.flipped))
            visited = {}
            nxt, new_key = out.x_new, out.x_new.tobytes()
        if wfpbase:
            if len(visited) >= HISTORY_CAP:
                visited.pop(next(iter(visited)))
            visited[new_key] = t
        elif naive and trace.cycle is None:
            seen = visited.get(new_key)
            if seen is not None:
                gap = t - seen
                trace.cycle = ("one" if gap == 1 else "long", gap)
            else:
                visited[new_key] = t
        cur, prev_key = nxt, new_key
    trace.iterations = max_iter
    return trace


def run_naive_fp(instance: MixedBinaryInstance, max_iter: int = 10_000, record: bool = True) -> PumpTrace:
    """Project and round until the projection is integral; no escapes.

    The first revisited rounded point is classified into trace.cycle as
    ("one", 1) or ("long", gap).
    """
    return _pump("naive", instance, max_iter, None, record)


def run_original_fp(
    instance: MixedBinaryInstance,
    max_iter: int,
    rng: np.random.Generator,
    zero_frac_flips: bool = False,
    tt_range=DEFAULT_TT_RANGE,
    record: bool = True,
) -> PumpTrace:
    """Naive loop plus fractionality-guided flips whenever the rounded point
    repeats the previous iterate."""
    return _pump("origzf" if zero_frac_flips else "orig", instance, max_iter, rng, record, tt_range=tt_range)


def run_wfp(
    instance: MixedBinaryInstance,
    l: int,
    max_iter: int,
    rng: np.random.Generator,
    record: bool = True,
) -> PumpTrace:
    """Pump whose stalls are escaped by certificate-support flips."""
    return _pump("wfp", instance, max_iter, rng, record, l=l)


def run_wfpbase_fp(
    instance: MixedBinaryInstance,
    max_iter: int,
    rng: np.random.Generator,
    tt_range=DEFAULT_TT_RANGE,
    record: bool = True,
) -> PumpTrace:
    """Hybrid pump: fractionality flips widened into violated-row supports
    on stalls, randomized restarts when an older rounded point recurs."""
    return _pump("wfpbase", instance, max_iter, rng, record, tt_range=tt_range)


def run_mb_walksat(
    instance: MixedBinaryInstance,
    l: int,
    start=None,
    max_iter: int = 10_000,
    rng: Optional[np.random.Generator] = None,
    record: bool = True,
) -> PumpTrace:
    """Pure certificate walk: while the point has a certificate, flip
    within its support; a point without one is lifted and returned.
    iterations == perturbations. start=None draws a uniform 0/1 point from
    rng; a start that is not an exact 0/1 vector raises NonBinaryVector."""
    if rng is None:
        raise ValueError("rng is required")
    oracle = ProjectionOracle(instance)  # validates feasibility, lifts the found point
    oracle.leave_chain()                  # the walk's points are drawn
    certs = CertificateOracle(instance)
    trace = PumpTrace("mbwalksat", instance.name, None)
    if start is None:
        x = rng.integers(0, 2, size=instance.n).astype(np.int8)
    else:
        x = as_binary(start)
    if x.shape != (instance.n,):
        raise ValueError("start point length does not match instance")
    for t in range(max_iter + 1):
        try:
            cert = certs.min_certificate(x)
        except NotACertificate:
            trace.perturbations = t
            return _found(trace, t, lift(oracle, x), record)
        if t == max_iter:
            break
        out = perturb_l(x, cert, l, rng)
        if record:
            trace.records.append(TraceRecord(t + 1, "perturb", out.kind, out.flipped))
        x = out.x_new
    trace.perturbations = trace.iterations = max_iter
    return trace


def run_wfp_compressed(
    instance: MixedBinaryInstance,
    l: int,
    max_iter: int,
    rng: np.random.Generator,
    record: bool = True,
) -> PumpTrace:
    """Collapse each projection sequence to its fixpoint, then perturb on
    its certificate; a fixpoint without one is lifted and returned.

    Raises NoFixpoint when the alternating projection fails to settle
    within alt_proj_star's cap (cannot happen on single-row subset-sum
    instances).
    """
    oracle = ProjectionOracle(instance)
    certs = CertificateOracle(instance)
    trace = PumpTrace("wfpc", instance.name, None)
    x_bar, _ = oracle.relaxation()
    z = round_binary(x_bar)
    if record:
        trace.records.append(TraceRecord(0, "round"))
    for t in range(1, max_iter + 1):
        z, e = alt_proj_star(oracle, z)
        if record:
            trace.records.append(TraceRecord(t, "altproj", distance=e.distance))
        try:
            cert = certs.min_certificate(z)
        except NotACertificate:
            return _found(trace, t, lift(oracle, z), record)
        oracle.leave_chain()
        out = perturb_l(z, cert, l, rng)
        trace.perturbations += 1
        if record:
            trace.records.append(TraceRecord(t, "perturb", out.kind, out.flipped))
        z = out.x_new
    trace.iterations = max_iter
    return trace


# name -> call(instance, rng, max_iter, flips, tt_range, record) of its run_* function
ALGORITHMS = {
    "naive": lambda inst, rng, it, l, tt, rec: run_naive_fp(inst, it, rec),
    "orig": lambda inst, rng, it, l, tt, rec: run_original_fp(inst, it, rng, False, tt, rec),
    "origzf": lambda inst, rng, it, l, tt, rec: run_original_fp(inst, it, rng, True, tt, rec),
    "mbwalksat": lambda inst, rng, it, l, tt, rec: run_mb_walksat(inst, l, None, it, rng, rec),
    "wfp": lambda inst, rng, it, l, tt, rec: run_wfp(inst, l, it, rng, rec),
    "wfpc": lambda inst, rng, it, l, tt, rec: run_wfp_compressed(inst, l, it, rng, rec),
    "wfpbase": lambda inst, rng, it, l, tt, rec: run_wfpbase_fp(inst, it, rng, tt, rec),
}


def run(alg: str, instance: MixedBinaryInstance, rng: np.random.Generator, *, max_iter: int,
        flips: int = 2, tt_range=DEFAULT_TT_RANGE, record: bool = True) -> PumpTrace:
    """Run the variant named alg. flips is l for the certificate variants;
    tt_range is the flip-count range of the fractionality rules. naive
    draws nothing from rng. A negative max_iter raises ValueError."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")
    return ALGORITHMS[alg](instance, rng, max_iter, flips, tt_range, record)


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    iterations: int
    delta: Optional[float]
    tail: Optional[float]


def _at_least_one(what: str, values) -> list[int]:
    ints = [int(v) for v in values]
    if min(ints) < 1:
        raise ValueError(f"{what} must be at least 1, got {min(ints)}")
    return ints


def _draws(sizes: Sequence[int], caps: Sequence[int], delta: float) -> int:
    # the one count behind every bound: ceil(ln(k/delta)) * sum_i n_i * c_i^{n_i}
    if len(sizes) != len(caps):
        raise ValueError("block_sizes and cert_bounds must align")
    sizes, caps = _at_least_one("block sizes", sizes), _at_least_one("certificate caps", caps)
    # the ceiling is guarded against 1.0000000000000002-style float noise at integer points
    rounds = max(1, math.ceil(math.log(len(sizes) / delta) - 1e-12))
    return rounds * sum(n * c ** n for n, c in zip(sizes, caps))


def theorem_bound(
    theorem: str,
    *,
    block_sizes: Optional[Sequence[int]] = None,
    cert_bounds: Optional[Sequence[int]] = None,
    n: Optional[int] = None,
    cert_supp: Optional[int] = None,
    T: Optional[int] = None,
    delta: Optional[float] = None,
) -> BoundReport:
    """High-probability iteration bounds for the certificate-walk drivers.

    Every bound is one count: ceil(ln(k/delta)) * sum_i n_i * c_i^{n_i}
    draws over k blocks of n_i binaries whose certificate support is
    capped at c_i.
    T1: the caps c_i are given (cert_bounds).
    T2: c_i = n_i^2 (separable subset-sum).
    T3: one block with c = cert_supp, and the failure tail
        (1 - c^-n)^floor(T/n) after T draws; T is the count unless given.
    T5: pump iterations 2T, with T and the tail those of T3 at c = n^2.
    delta must lie in (0, 1), n, block sizes and caps must be at least 1,
    and T at least 0; ValueError otherwise.
    """
    name = "T" + theorem.upper().lstrip("T")
    if name not in ("T1", "T2", "T3", "T5"):
        raise ValueError(f"unknown theorem id {theorem!r}")
    if delta is not None and not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly between 0 and 1, got {delta!r}")
    if name == "T5":
        if n is None or delta is None:
            raise ValueError("T5 needs n and delta")
        half = theorem_bound("T3", n=n, cert_supp=int(n) ** 2, delta=delta)
        return BoundReport("T5", 2 * half.iterations, delta, half.tail)
    if name == "T3":
        if n is None or cert_supp is None or (T is None and delta is None):
            raise ValueError("T3 needs n, cert_supp, and T or delta")
        n, c = _at_least_one("n and cert_supp", (n, cert_supp))
        T = _draws([n], [c], delta) if T is None else int(T)
        if T < 0:
            raise ValueError(f"T must be at least 0, got {T}")
        return BoundReport("T3", T, delta, (1.0 - float(c) ** -n) ** (T // n))
    if name == "T2" and block_sizes:
        cert_bounds = [int(ni) ** 2 for ni in block_sizes]
    if not block_sizes or not cert_bounds or delta is None:
        raise ValueError(f"{name} needs block_sizes, {'cert_bounds, ' if name == 'T1' else ''}delta")
    return BoundReport(name, _draws(block_sizes, cert_bounds, delta), delta, None)
