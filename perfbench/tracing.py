"""Spans around the calls into each pumplab layer, from outside the package.

The tracer replaces public functions and methods of pumplab's modules
with wrappers that time each call. Each span records its name, start,
end, parent span and the pump run it belongs to; a layer's self time is
its spans' time minus the time of their child spans. Per-layer totals are
kept as calls end, and the first MAX_SPANS spans are kept for writing out.

Layers and what is wrapped:

    lp.phase1           SimplexSolver.ensure_phase1, calls that run phase 1
    lp.resolve          SimplexSolver.resolve
    lp.lift             lift, as the pump.run_* functions call it
    model.rebuild       normalize + dense_rows, as the oracles, lift and
                        wfpbase_perturb call them (counted once per rebuild)
    projection.init     ProjectionOracle.__init__
    projection.entry    ProjectionOracle.entry (a hit adds no LP solve)
    certificate.init    CertificateOracle.__init__
    certificate         CertificateOracle.min_certificate
    perturb             the flip rules the pump.run_* functions call
    pump                the pump.run_* functions
    bench.harness       run_benchmark
    gen                 the instance generators
"""

from __future__ import annotations

import functools
import time

from pumplab import bench, certificate, gen, lp, perturb, projection, pump

from workloads import PUMP_RUNS, Patcher

MAX_SPANS = 20_000

PERTURB_RULES = ("original_perturb", "original_perturb_zero_frac", "perturb_l",
                 "wfpbase_perturb", "restart_perturb")
GENERATORS = ("gen_subset_sum", "gen_decomposable", "gen_two_stage",
              "fractional_stall_instance", "zero_frac_stall_instance")


class Layer:
    __slots__ = ("count", "self_s", "total_s")

    def __init__(self):
        self.count = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer(Patcher):
    def __init__(self):
        super().__init__()
        self.layers: dict[str, Layer] = {}
        self.counters: dict[str, int] = {}
        self.spans: list = []
        self._stack: list = []     # [span id, child time] per open span
        self._next_id = 0
        self._run = -1

    def reset(self):
        self.layers = {}
        self.counters = {}

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn, *args, counted=True, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            layer = self.layers.get(name)
            if layer is None:
                layer = self.layers[name] = Layer()
            layer.count += counted
            layer.self_s += dur - frame[1]
            layer.total_s += dur
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, self._run, name, start, end))

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def _span(self, name, fn, counted=True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, counted=counted, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install_generators(self):
        # the suites call the generators through bench's namespace, the
        # workloads through gen's
        for owner in (gen, bench):
            for name in GENERATORS:
                if hasattr(owner, name):
                    self._patch(owner, name, self._span("gen", getattr(owner, name)))

    def install(self):
        tracer = self
        solver = lp.SimplexSolver

        phase1 = solver.ensure_phase1

        @functools.wraps(phase1)
        def ensure_phase1(s):
            if s._phase1_done:
                return phase1(s)
            return tracer.call("lp.phase1", phase1, s)

        self._patch(solver, "ensure_phase1", ensure_phase1)
        self._patch(solver, "resolve", self._span("lp.resolve", solver.resolve))
        self._patch(pump, "lift", self._span("lp.lift", pump.lift))

        for owner in (projection, certificate, lp, perturb):
            self._patch(owner, "normalize", self._span("model.rebuild", owner.normalize, counted=False))
            self._patch(owner, "dense_rows", self._span("model.rebuild", owner.dense_rows))

        proj = projection.ProjectionOracle
        self._patch(proj, "__init__", self._span("projection.init", proj.__init__))
        entry = proj.entry

        @functools.wraps(entry)
        def proj_entry(oracle, x_tilde):
            solves = oracle.lp_solves
            out = tracer.call("projection.entry", entry, oracle, x_tilde)
            if oracle.lp_solves == solves:
                tracer.count("projection.memo_hits")
            return out

        self._patch(proj, "entry", proj_entry)

        cert = certificate.CertificateOracle
        self._patch(cert, "__init__", self._span("certificate.init", cert.__init__))
        min_cert = cert.min_certificate

        @functools.wraps(min_cert)
        def min_certificate(oracle, x_bar):
            size = len(oracle.cache)
            out = tracer.call("certificate", min_cert, oracle, x_bar)
            if len(oracle.cache) == size:
                tracer.count("certificate.memo_hits")
            return out

        self._patch(cert, "min_certificate", min_certificate)

        for name in PERTURB_RULES:
            self._patch(pump, name, self._span("perturb", getattr(pump, name)))

        for name in PUMP_RUNS:
            self._patch(pump, name, self._run_span(getattr(pump, name)))

    def _run_span(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._run += 1
            trace = tracer.call("pump", fn, *args, **kwargs)
            tracer.count("pump.iterations", trace.iterations)
            return trace

        return wrapper

    def harness(self, fn, cfg):
        """Call run_benchmark inside a bench.harness span."""
        return self.call("bench.harness", fn, cfg)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer metrics of what was traced since the last reset."""
        def layer(name):
            return self.layers.get(name, Layer())

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        p1, rs, lift = layer("lp.phase1"), layer("lp.resolve"), layer("lp.lift")
        entry, cert, pert, run = layer("projection.entry"), layer("certificate"), layer("perturb"), layer("pump")
        iterations = self.counters.get("pump.iterations", 0)
        hits = self.counters.get("projection.memo_hits", 0)
        return {
            "lp.phase1_s": (p1.self_s, "s"),
            "lp.phase1_count": (p1.count, "count"),
            "lp.resolve_s": (rs.self_s, "s"),
            "lp.resolve_count": (rs.count, "count"),
            "lp.resolve_ms": (ratio(rs.self_s, rs.count, 1e3), "ms"),
            "lp.lift_s": (lift.self_s, "s"),
            "lp.lift_total_s": (lift.total_s, "s"),
            "lp.lift_count": (lift.count, "count"),
            "model.rebuild_s": (layer("model.rebuild").self_s, "s"),
            "model.rebuild_count": (layer("model.rebuild").count, "count"),
            "projection.init_s": (layer("projection.init").self_s, "s"),
            "projection.entry_count": (entry.count, "count"),
            "projection.memo_hits": (hits, "count"),
            "projection.memo_hit_ratio": (ratio(hits, entry.count), "ratio"),
            "projection.entry_self_s": (entry.self_s, "s"),
            "certificate.init_s": (layer("certificate.init").self_s, "s"),
            "certificate.count": (cert.count, "count"),
            "certificate.memo_hits": (self.counters.get("certificate.memo_hits", 0), "count"),
            "certificate.self_s": (cert.self_s, "s"),
            "perturb.count": (pert.count, "count"),
            "perturb.s": (pert.self_s, "s"),
            "perturb.us_per_call": (ratio(pert.self_s, pert.count, 1e6), "us"),
            "pump.iterations": (iterations, "count"),
            "pump.self_s": (run.self_s, "s"),
            "pump.us_per_iteration": (ratio(run.self_s, iterations, 1e6), "us"),
            "bench.harness_s": (layer("bench.harness").self_s, "s"),
        }
