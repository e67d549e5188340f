"""Experiment orchestration: configs, the batch sequential loop, metrics.

Two runners share the ExperimentConfig. Its scheme is one of
design.SCHEMES other than classical, and both runners get their designs
from design.solve_scheme:

* run_idealized propagates filter variances analytically (no sampling
  noise), with the myopic scheme re-solving its LP every period and the
  fixed schemes keeping one design from t = 1 (block_size and
  warmup_scheme do not apply).
* run_simulation runs the full closed loop of every replication: design
  at block boundaries (plug-in means from the filter when
  mu_mode=plugin), sample, fuse, filter, and report squared errors
  averaged over replications. Replications advance block by block in
  lockstep on one (R, n_r) filter state; the packet draws of W of them
  (one per usable core) run at once, on the caller and W - 1 threads.
  plugin fuses each period, true_mu once per block; the outputs are
  byte-identical for every W.

Config files are flat `key = value` text; see _CONFIG_KEYS for the
vocabulary (keys mirror ExperimentConfig fields). CSV outputs carry a
versioned `#` comment header so downstream scripts can pin schemas; like
every file the package writes, they go through model.write_lines (UTF-8,
lines ended by "\n") with floats from model.floats_text.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .design import SCHEMES, solve_scheme
from .filtering import _check_posterior, _update, predicted_info
from .model import (FlowDesignError, FlowModel, ValidationError, floats_text,
                    read_text, validate_problem, write_lines)
from .network import (CONSTRAINT_MODES, TOPOLOGY_KINDS, ParameterError,
                      build_measurement_model, design_problem, flow_model,
                      load_topology, remap_mu, synth_topology)
from .simulate import (Trace, _count_fault, _fuse, gen_random_walk_trace,
                       load_trace, sample_packets)
# unused here, but perfbench/tracing.py patches these bindings (TRACED);
# fuse_gls/predict_update are the one-period forms of _fuse/_update
from .design import solve_myopic, solve_naive, solve_steady_state_E  # noqa: F401
from .filtering import predict_update  # noqa: F401
from .simulate import fuse_gls  # noqa: F401

_MU_MODES = ("true_mu", "plugin")
_WARMUP = ("naive", "scheme")
_MU_FLOOR = 1.0  # plug-in means are clamped here to keep weights positive


class ConfigError(FlowDesignError):
    """Bad experiment configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    # topology: a CSV bundle directory, or a synthetic generator spec
    topology_dir: str | None = None
    topology_kind: str | None = None
    topology_seed: int = 0
    n_nodes: int | None = None
    rows: int | None = None
    cols: int | None = None
    n_links: int | None = None
    n_flows: int | None = None
    flow_fraction: float = 0.25
    mu_scale: float = 1000.0
    sigma_rel: float = 0.05
    budget: float = 0.01
    # trace: replay file, or a seeded synthetic walk
    trace_file: str | None = None
    trace_seed: int = 1
    trace_floor: float = 1.0
    # experiment
    scheme: str = "steady_state"
    horizon: int = 200
    block_size: int = 40
    warmup_scheme: str = "naive"   # block 1: naive | scheme
    replications: int = 10
    seed: int = 0
    mu_mode: str = "plugin"
    constraint_mode: str = "inequality"
    median_window_start: int | None = None  # default: floor(0.2 T) + 1
    cap: float = 1.0
    tol_theta: float = 1e-9
    flows_dump: bool = False

    def __post_init__(self):
        for name, convert in _CONFIG_KEYS.items():
            value = getattr(self, name)
            if convert is int and value is not None and (
                    isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ConfigError(name, "must be an integer")
        runnable = [s for s in SCHEMES if s != "classical"]  # design-only
        for name, allowed in (("scheme", runnable), ("mu_mode", _MU_MODES),
                              ("constraint_mode", CONSTRAINT_MODES),
                              ("warmup_scheme", _WARMUP)):
            if getattr(self, name) not in allowed:
                raise ConfigError(name, f"must be one of {', '.join(allowed)}")
        if self.horizon < 1:
            raise ConfigError("horizon", "must be >= 1")
        if self.block_size < 1:
            raise ConfigError("block_size", "must be >= 1")
        if self.replications < 1:
            raise ConfigError("replications", "must be >= 1")
        if not (0 < self.cap <= 1):
            raise ConfigError("cap", "must lie in (0, 1]")
        if not (math.isfinite(self.tol_theta) and self.tol_theta > 0):
            raise ConfigError("tol_theta", "must be finite and > 0")
        for name in ("seed", "trace_seed", "topology_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be >= 0")
        if fault := _count_fault(self.trace_floor):  # the walk clamps at it
            raise ConfigError("trace_floor", f"must be {fault}")
        if (self.topology_dir is None) == (self.topology_kind is None):
            raise ConfigError(
                "topology_dir", "give exactly one of topology_dir or topology_kind")
        if self.topology_kind not in (None,) + TOPOLOGY_KINDS:
            raise ConfigError("topology_kind",
                              f"must be one of {', '.join(TOPOLOGY_KINDS)}")
        if self.median_window_start is not None and not (
                1 <= self.median_window_start <= self.horizon):
            raise ConfigError("median_window_start",
                              "must lie in [1, horizon]")


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _to_bool(tok: str) -> bool:
    try:
        return _BOOL_WORDS[tok.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {tok!r}") from None


def _config_converters():
    out = {}
    for f in fields(ExperimentConfig):
        base = f.type.replace(" | None", "")
        out[f.name] = {"int": int, "float": float, "bool": _to_bool,
                       "str": str}[base]
    return out


_CONFIG_KEYS = _config_converters()


def parse_config(path: str) -> ExperimentConfig:
    """Flat `key = value` file, `#` comments, one key per line."""
    if not os.path.exists(path):
        raise ConfigError("config", f"file {path!r} not found")
    try:
        text = read_text(path)
    except ValidationError as exc:
        raise ConfigError("config", str(exc)) from None
    values = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(key, "unknown key")
        if key in values:
            raise ConfigError(key, "duplicate key")
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None
    return ExperimentConfig(**values)


@dataclass(frozen=True)
class MetricsSeries:
    """Per-period max MSE plus the rates behind it and a window median."""

    t: np.ndarray              # (T,) periods 1..T
    max_mse: np.ndarray        # (T,)
    per_flow_mse: np.ndarray   # (T, n_r)
    block_starts: np.ndarray   # period at which each logged rate row begins
    rates: np.ndarray          # (n_blocks, n_o)
    median: float
    window: tuple              # (first, last) period of the median window
    scheme: str
    meta: dict = field(default_factory=dict)


def _series(cfg: ExperimentConfig, per_flow: np.ndarray,
            block_starts: np.ndarray, rates: np.ndarray,
            meta: dict) -> MetricsSeries:
    """Series over t = 1..horizon; the median of max MSE is taken over
    [median_window_start (default floor(0.2 T) + 1), T]."""
    T = cfg.horizon
    start = cfg.median_window_start
    if start is None:
        start = math.floor(0.2 * T) + 1
    max_mse = per_flow.max(axis=1)
    return MetricsSeries(
        t=np.arange(1, T + 1), max_mse=max_mse, per_flow_mse=per_flow,
        block_starts=block_starts, rates=rates,
        median=float(np.median(max_mse[start - 1:])), window=(start, T),
        scheme=cfg.scheme, meta=meta)


def load_instance(cfg: ExperimentConfig):
    """Topology, measurement model, flow model and validated design
    problem for ``cfg``: returns (mm, fm, p, warnings)."""
    if cfg.topology_dir is not None:
        spec = load_topology(cfg.topology_dir)
    else:
        try:
            spec = synth_topology(
                cfg.topology_kind, n_nodes=cfg.n_nodes, rows=cfg.rows,
                cols=cfg.cols, n_links=cfg.n_links, n_flows=cfg.n_flows,
                flow_fraction=cfg.flow_fraction, mu_scale=cfg.mu_scale,
                sigma_rel=cfg.sigma_rel, budget=cfg.budget,
                seed=cfg.topology_seed)
        except ParameterError as exc:  # its keyword is the config key
            raise ConfigError(exc.param, exc.detail) from None
    mm = build_measurement_model(spec)
    fm = flow_model(mm)
    p = design_problem(mm, cap=cfg.cap, constraint_mode=cfg.constraint_mode)
    return mm, fm, p, validate_problem(p, fm)


def _get_trace(cfg: ExperimentConfig, fm: FlowModel) -> Trace:
    if cfg.trace_file is not None:
        trace = load_trace(cfg.trace_file)
        if trace.n_r != fm.n_r:
            raise ConfigError("trace_file",
                              f"trace has {trace.n_r} flows, topology has {fm.n_r}")
        if cfg.horizon > trace.T:
            raise ConfigError("horizon",
                              f"exceeds trace length {trace.T}")
        return Trace(x=trace.x[:cfg.horizon], source=trace.source)
    return gen_random_walk_trace(fm, cfg.horizon, seed=cfg.trace_seed,
                                 floor=cfg.trace_floor)


def _mse_from_info(info: np.ndarray) -> np.ndarray:
    out = np.full(info.shape, np.inf)
    np.divide(1.0, info, out=out, where=info > 0)
    return out


def run_idealized(cfg: ExperimentConfig) -> MetricsSeries:
    """Analytic variance propagation under the configured scheme.

    No sampling noise is simulated; per-flow MSE at t is the filter
    variance s_i(t) given the scheme's rates. Requires mu_mode=true_mu
    (there are no estimates to plug in). One loop steps the information
    recursion info = predicted_info(info) + J xi over the periods. Myopic
    re-solves its LP every period from the accumulated information,
    warm-started from the previous period's optimal basis (only the
    offsets move, so most periods need no pivot); naive and steady_state
    solve once, at t = 1, and keep that design.

    block_size and warmup_scheme are ignored: with the true means known
    there is nothing to wait for, so the fixed schemes hold from t = 1
    with no warm-up block, and myopic tracks the exact information
    recursion, one design (and one logged rate row) per period.
    """
    if cfg.mu_mode != "true_mu":
        raise ConfigError("mu_mode", "run_idealized requires true_mu")
    mm, fm, p, warnings = load_instance(cfg)
    T = cfg.horizon
    meta = {"mode": "idealized", "scheme": cfg.scheme,
            "constraint_mode": cfg.constraint_mode, "warnings": warnings}

    myopic = cfg.scheme == "myopic"
    rates = np.empty((T if myopic else 1, mm.n_o))
    per_flow = np.empty((T, fm.n_r))
    info = np.zeros(fm.n_r)
    res = None
    for t in range(T):
        if res is None or myopic:
            res = solve_scheme(cfg.scheme, p, fm, info, cfg.tol_theta, start=res)
            rates[t] = res.xi
            m = p.J @ res.xi
        info = predicted_info(info, fm.sigma2) + m  # myopic: res.info, bit for bit
        per_flow[t] = _mse_from_info(info)
    if myopic:
        meta["theta_final"] = float(np.min(info))
    else:
        meta["theta"] = res.theta
        meta["design_diagnostics"] = dict(res.diagnostics)
    block_starts = np.arange(1, rates.shape[0] + 1)
    return _series(cfg, per_flow, block_starts, rates, meta)


def _draw(x, mm, xi, rng, present):
    """One replication's block draw: sample_packets on the (B, n_r)
    volumes ``x``, kept only as the (B, n) estimates z = n / xi_k of the
    ``present`` measurements, so the counts are freed here."""
    n, rate = sample_packets(x, mm, xi, rng), xi[mm.k_of]
    return n / rate if present.all() else n[:, present] / rate[present]


def _draw_group(pool, arg_lists):
    """_draw(*args) for each of ``arg_lists``, in order: the first on the
    caller, the others on ``pool`` at the same time."""
    futures = [pool.submit(_draw, *args) for args in arg_lists[1:]]
    return [_draw(*arg_lists[0])] + [f.result() for f in futures]


def _draw_threads(replications: int) -> int:
    """W, the number of replications whose packets are drawn at once: one
    per usable core, at most one per replication."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cores = os.cpu_count() or 1
    return min(replications, cores)


def run_simulation(cfg: ExperimentConfig) -> MetricsSeries:
    """Closed-loop sampling simulation, averaged over replications.

    Every replication shares one ground-truth trace but draws its own
    sampling noise. Rates are redesigned at block boundaries
    (t = 1, B+1, ...); block 1 follows warmup_scheme because no
    estimates exist yet, and the naive design is solved once per run.
    Replications advance in lockstep on one (R, n_r) filter state. A
    block is one sample_packets call per replication on its (B, n_r)
    slice of the trace (the same values as B one-period calls), W at a
    time (W = usable cores, at most R): one on the caller and W - 1 on
    a thread pool.

    Under plugin each replication designs its own rates from its filter
    means clamped at 1 (the logged rates are replication 0's) and fuses
    each period with weights from them. Under true_mu, m = J xi does not
    depend on the draw: one design from mu serves every replication
    (steady_state's is solved once per run), each block is fused in one
    call, and one update per period steps all R rows. The block-end
    state is validated, and squared errors are added in replication
    order, so every output is byte-identical for every W.
    """
    mm, fm, p, warnings = load_instance(cfg)
    trace = _get_trace(cfg, fm)
    T = cfg.horizon
    B = cfg.block_size
    R = cfg.replications
    plugin = cfg.mu_mode == "plugin"
    block_starts = np.arange(1, T + 1, B)
    rngs = [np.random.default_rng(stream)
            for stream in np.random.SeedSequence(cfg.seed).spawn(R)]
    info = np.zeros((R, fm.n_r))
    mean = np.tile(fm.mu, (R, 1))
    W = _draw_threads(R)
    groups = [range(g0, min(g0 + W, R)) for g0 in range(0, R, W)]

    sq_sum = np.zeros((T, fm.n_r))
    rates = np.zeros((block_starts.size, mm.n_o))
    # true_mu: one design per block; naive and steady_state once per run
    fixed = {}

    def design(scheme, mu_hat, prior_info):
        res = fixed.get(scheme)
        if res is None:
            q = p
            if plugin and scheme != "naive":  # naive does not depend on mu
                q = design_problem(remap_mu(mm, mu_hat), cap=cfg.cap,
                                   constraint_mode=cfg.constraint_mode)
            res = solve_scheme(scheme, q, fm, prior_info, cfg.tol_theta)
            if scheme == "naive" or (scheme == "steady_state" and not plugin):
                fixed[scheme] = res
        return res.xi

    # imported here so design and idealized runs do not load its logging
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max(W - 1, 1)) as pool:
        for bi, t0 in enumerate(block_starts - 1):
            scheme = cfg.scheme
            if t0 == 0 and cfg.warmup_scheme == "naive":
                scheme = "naive"
            x = trace.x[t0:t0 + B]
            xis = ([design(scheme, np.maximum(mean[r], _MU_FLOOR), info[r])
                    for r in range(R)] if plugin
                   else [design(scheme, fm.mu, info[0])] * R)
            rates[bi] = xis[0]
            present = [xi[mm.k_of] > 0.0 for xi in xis]
            out = np.empty((R,) + x.shape)  # fused y, then posterior means
            for group in groups:
                zs = _draw_group(pool, [(x, mm, xis[r], rngs[r], present[r])
                                        for r in group])
                for r in group:
                    z = zs.pop(0)  # pop, so each draw is freed once fused
                    flow = mm.l_of[present[r]]
                    rate = xis[r][mm.k_of][present[r]]
                    if not plugin:
                        out[r], m = _fuse(flow, rate / fm.mu[flow], z, fm.n_r)
                        continue
                    for b, z_b in enumerate(z):
                        w = rate / np.maximum(mean[r], _MU_FLOOR)[flow]
                        y, m = _fuse(flow, w, z_b, fm.n_r)
                        info[r], mean[r] = _update(info[r], mean[r], fm.sigma2, m, y)
                        out[r, b] = mean[r]
            if not plugin:  # m is every replication's: one update per period
                for b in range(x.shape[0]):
                    info, mean = _update(info, mean, fm.sigma2, m, out[:, b])
                    out[:, b] = mean  # the posterior means replace the inputs
            _check_posterior(info, mean)
            for r in range(R):
                sq_sum[t0:t0 + B] += (out[r] - x) ** 2
    meta = {"mode": "simulation", "scheme": cfg.scheme,
            "constraint_mode": cfg.constraint_mode,
            "mu_mode": cfg.mu_mode, "replications": cfg.replications,
            "block_size": B, "warmup_scheme": cfg.warmup_scheme,
            "trace_source": trace.source, "seed": cfg.seed,
            "warnings": warnings,
            "rates_replication": 0}
    return _series(cfg, sq_sum / cfg.replications, block_starts, rates, meta)


def write_metrics(ms: MetricsSeries, outdir: str,
                  flows_dump: bool = False) -> None:
    """Write metrics.csv and rates.csv (and optionally flows.csv), one
    line at a time. metrics.csv and rates.csv keep one float memo each,
    flows.csv one per period, so its memo holds at most one row."""
    os.makedirs(outdir, exist_ok=True)
    texts: dict = {}
    (median,) = floats_text(ms.median, texts)
    write_lines(os.path.join(outdir, "metrics.csv"), chain(
        ["# flowdesign metrics.csv v1",
         f"# median_max_mse {median} window {ms.window[0]}..{ms.window[1]}",
         "t,max_mse,scheme"],
        (f"{int(t)},{v},{ms.scheme}"
         for t, v in zip(ms.t, floats_text(ms.max_mse, texts)))))
    texts = {}
    write_lines(os.path.join(outdir, "rates.csv"), chain(
        ["# flowdesign rates.csv v1",
         "# block_starts " + " ".join(str(int(t)) for t in ms.block_starts),
         "block,op_id,xi"],
        (f"{bi},{k},{v}" for bi, row in enumerate(ms.rates, 1)
         for k, v in enumerate(floats_text(row, texts), 1))))
    if flows_dump:
        write_lines(os.path.join(outdir, "flows.csv"), chain(
            ["# flowdesign flows.csv v1", "t,flow,mse"],
            (f"{int(t)},{i},{v}" for t, row in zip(ms.t, ms.per_flow_mse)
             for i, v in enumerate(floats_text(row, {}), 1))))
