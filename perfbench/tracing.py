"""In-memory span tracing of flowdesign's public functions.

The tracer replaces each traced function at every module that binds it
(``flowdesign.harness.sample_packets``, ``flowdesign.design.solve_lp``,
...), so calls made inside the package are recorded without touching
its source. A span is (name, start_ns, end_ns, parent span id, run id);
the run id names the main call the span belongs to. Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from collections import defaultdict

# (defining module, function) -> flowdesign modules that bind and call it
TRACED = {
    ("network", "route_flows"): ("network",),
    ("network", "load_topology"): ("harness", "cli"),
    ("network", "build_measurement_model"): ("harness", "cli"),
    ("network", "remap_mu"): ("harness",),
    ("model", "validate_problem"): ("harness", "cli"),
    ("lp", "solve_lp"): ("lp", "design"),
    ("lp", "check_feasible"): ("design",),
    ("design", "solve_steady_state_E"): ("harness", "cli"),
    ("design", "solve_classical_E"): ("cli",),
    ("design", "solve_myopic"): ("harness", "cli"),
    ("design", "solve_naive"): ("harness", "cli"),
    ("design", "export_canonical_socp"): ("cli",),
    ("design", "serialize_socp"): ("cli",),
    ("simulate", "gen_random_walk_trace"): ("harness",),
    ("simulate", "sample_packets"): ("harness",),
    ("simulate", "fuse_gls"): ("harness",),
    ("filtering", "predict_update"): ("harness",),
    # entry points the benchmark itself calls through these modules
    ("harness", "run_idealized"): ("harness",),
    ("harness", "run_simulation"): ("harness",),
    ("harness", "write_metrics"): ("harness",),
    ("cli", "main"): ("cli",),
}


def _tableau_cells(lp) -> int:
    """Upper bound on the phase-1 tableau size of flowdesign's simplex:
    (constraint rows + 1) x (structural + slack + artificial columns + 1)."""
    span = lp.upper - lp.lower
    free = span > 0
    n = int(free.sum())
    capped = int((free & (span < math.inf)).sum())
    m_ub, m_eq = lp.A_ub.shape[0], lp.A_eq.shape[0]
    flipped = int((lp.b_ub - lp.A_ub @ lp.lower < 0).sum()) if m_ub else 0
    rows = m_ub + capped + m_eq
    cols = n + m_ub + capped + m_eq + flipped
    return (rows + 1) * (cols + 1)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.run_id = None
        self.counts: dict = defaultdict(float)
        self.samples: dict = defaultdict(list)
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.run_id)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def install(self) -> None:
        observers = {"lp.solve_lp": _observe_lp,
                     "simulate.sample_packets": _observe_sample,
                     "design.solve_steady_state_E": _observe_steady}
        for (home, fname), callers in TRACED.items():
            fn = getattr(importlib.import_module(f"flowdesign.{home}"), fname)
            name = f"{home}.{fname}"
            wrapped = self._wrap(name, fn, observers.get(name))
            for caller in callers:
                mod = importlib.import_module(f"flowdesign.{caller}")
                self._undo.append((mod, fname, getattr(mod, fname)))
                setattr(mod, fname, wrapped)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._undo):
            setattr(mod, fname, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "run": run}) + "\n")

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str) -> list:
        return [(e - s) * 1e-9 for n, s, e, _p, _r in self.spans if n == name]

    def self_times(self, name: str) -> list:
        child = defaultdict(int)
        for _n, s, e, parent, _r in self.spans:
            if parent >= 0:
                child[parent] += e - s
        return [(e - s - child[sid]) * 1e-9
                for sid, (n, s, e, _p, _r) in enumerate(self.spans) if n == name]


def _observe_lp(tracer, args, sol):
    tracer.counts["lp.pivots"] += sol.iterations
    tracer.counts["lp.pivot_cells"] += sol.iterations * _tableau_cells(args[0])
    tracer.counts["lp.perturbed"] += bool(sol.perturbed)
    # infeasible is a valid answer to a bisection probe; numerical is not
    tracer.counts["lp.infeasible"] += sol.status == "infeasible"
    tracer.counts["lp.numerical"] += sol.status == "numerical"


def _observe_sample(tracer, args, _raw):
    tracer.counts["simulate.binomial_draws"] += args[1].n_g


def _observe_steady(tracer, _args, res):
    tracer.samples["bisection_iterations"].append(
        res.diagnostics["bisection_iterations"])
    tracer.samples["lp_pivots"].append(res.diagnostics["lp_pivots"])


_HI_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def high_percentile(n: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it;
    the median when there are too few samples for any of them."""
    for p in _HI_CANDIDATES:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0 for an empty list (function not called)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, main_calls: int, model_bytes: int) -> tuple:
    """Per-layer metrics in benchmark units, plus the percentile behind
    each ``_p_hi`` entry. Counts are per main call."""
    def per_call(value):
        return value / main_calls

    def calls(name):
        return per_call(len(tracer.durations(name)))

    hi_used = {}

    def hi(name, scale):
        d = tracer.durations(name)
        hi_used[name] = high_percentile(len(d))
        return percentile(d, hi_used[name]) * scale

    d = tracer.durations
    out = {
        "network.build_measurement_model.s": median(d("network.build_measurement_model")),
        "network.route_flows.s": median(d("network.route_flows")),
        "network.model_bytes": model_bytes,
        "network.remap_mu.calls": calls("network.remap_mu"),
        "network.remap_mu.us_p50": median(d("network.remap_mu")) * 1e6,
        "model.validate_problem.s": median(d("model.validate_problem")),
        "lp.solve_lp.calls": calls("lp.solve_lp"),
        "lp.solve_lp.ms_p50": median(d("lp.solve_lp")) * 1e3,
        "lp.solve_lp.ms_p_hi": hi("lp.solve_lp", 1e3),
        "lp.pivots": per_call(tracer.counts["lp.pivots"]),
        "lp.pivot_cells": per_call(tracer.counts["lp.pivot_cells"]),
        "lp.perturbed": per_call(tracer.counts["lp.perturbed"]),
        "lp.infeasible": per_call(tracer.counts["lp.infeasible"]),
        "lp.numerical": per_call(tracer.counts["lp.numerical"]),
        "design.solve_steady_state_E.calls": calls("design.solve_steady_state_E"),
        "design.solve_steady_state_E.s_p50": median(d("design.solve_steady_state_E")),
        "design.solve_steady_state_E.bisection_iterations":
            median(tracer.samples["bisection_iterations"]),
        "design.solve_steady_state_E.lp_pivots": median(tracer.samples["lp_pivots"]),
        "design.solve_classical_E.s": median(d("design.solve_classical_E")),
        "design.export_canonical_socp.s": median(d("design.export_canonical_socp")),
        "design.solve_myopic.calls": calls("design.solve_myopic"),
        "design.solve_myopic.ms_p50": median(d("design.solve_myopic")) * 1e3,
        "design.solve_naive.calls": calls("design.solve_naive"),
        "design.solve_naive.ms_p50": median(d("design.solve_naive")) * 1e3,
        "simulate.sample_packets.us_p50": median(d("simulate.sample_packets")) * 1e6,
        "simulate.sample_packets.us_p_hi": hi("simulate.sample_packets", 1e6),
        "simulate.binomial_draws": per_call(tracer.counts["simulate.binomial_draws"]),
        "simulate.fuse_gls.us_p50": median(d("simulate.fuse_gls")) * 1e6,
        "simulate.gen_random_walk_trace.s": median(d("simulate.gen_random_walk_trace")),
        "filtering.predict_update.us_p50": median(d("filtering.predict_update")) * 1e6,
        "filtering.predict_update.us_p_hi": hi("filtering.predict_update", 1e6),
        "harness.run_simulation.self_s": median(tracer.self_times("harness.run_simulation")),
        "harness.run_idealized.self_s": median(tracer.self_times("harness.run_idealized")),
        "harness.write_metrics.s": median(d("harness.write_metrics")),
    }
    return out, hi_used
