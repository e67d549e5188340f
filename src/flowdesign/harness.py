"""Experiment orchestration: configs, the batch sequential loop, metrics.

Two runners share the ExperimentConfig:

* run_idealized propagates filter variances analytically (no sampling
  noise), with the myopic scheme re-solving its LP every period and the
  fixed schemes keeping one design throughout.
* run_simulation runs the full closed loop per replication: design at
  block boundaries (plug-in means from the filter when mu_mode=plugin),
  sample, fuse, filter, and report squared errors averaged over
  replications.

Config files are flat `key = value` text; see _CONFIG_KEYS for the
vocabulary (keys mirror ExperimentConfig fields). CSV outputs carry a
versioned `#` comment header so downstream scripts can pin schemas.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .design import (DesignResult, solve_myopic, solve_naive,
                     solve_steady_state_E)
from .filtering import FilterState, predict_update
from .model import FlowDesignError, FlowModel, validate_problem
from .network import (CONSTRAINT_MODES, build_measurement_model,
                      design_problem, flow_model, load_topology, remap_mu,
                      synth_topology)
from .simulate import Trace, fuse_gls, gen_random_walk_trace, load_trace, sample_packets

_SCHEMES = ("naive", "myopic", "steady_state")
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
    use_prediction: bool = True
    flows_dump: bool = False

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigError("scheme", f"must be one of {', '.join(_SCHEMES)}")
        if self.mu_mode not in _MU_MODES:
            raise ConfigError("mu_mode", f"must be one of {', '.join(_MU_MODES)}")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ConfigError("constraint_mode",
                              f"must be one of {', '.join(CONSTRAINT_MODES)}")
        if self.warmup_scheme not in _WARMUP:
            raise ConfigError("warmup_scheme",
                              f"must be one of {', '.join(_WARMUP)}")
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
        if self.trace_floor < 0:
            raise ConfigError("trace_floor", "must be >= 0")
        if (self.topology_dir is None) == (self.topology_kind is None):
            raise ConfigError(
                "topology_dir", "give exactly one of topology_dir or topology_kind")
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
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    start = min(start, T)
    max_mse = per_flow.max(axis=1)
    return MetricsSeries(
        t=np.arange(1, T + 1), max_mse=max_mse, per_flow_mse=per_flow,
        block_starts=block_starts, rates=rates,
        median=float(np.median(max_mse[start - 1:])), window=(start, T),
        scheme=cfg.scheme, meta=meta)


def load_instance(cfg: ExperimentConfig):
    """Topology, measurement model, flow model and validated design
    problem for ``cfg``: returns (mm, fm, p, report)."""
    if cfg.topology_dir is not None:
        spec = load_topology(cfg.topology_dir)
    else:
        spec = synth_topology(
            cfg.topology_kind, n_nodes=cfg.n_nodes, rows=cfg.rows,
            cols=cfg.cols, n_links=cfg.n_links, n_flows=cfg.n_flows,
            flow_fraction=cfg.flow_fraction, mu_scale=cfg.mu_scale,
            sigma_rel=cfg.sigma_rel, budget=cfg.budget,
            seed=cfg.topology_seed)
    mm = build_measurement_model(spec)
    fm = flow_model(mm)
    p = design_problem(mm, cap=cfg.cap, constraint_mode=cfg.constraint_mode)
    report = validate_problem(p, fm)
    return mm, fm, p, report


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
    return gen_random_walk_trace(fm, cfg.horizon, x0=fm.mu,
                                 seed=cfg.trace_seed, floor=cfg.trace_floor)


def _mse_from_info(info: np.ndarray) -> np.ndarray:
    out = np.full(info.shape, np.inf)
    np.divide(1.0, info, out=out, where=info > 0)
    return out


def run_idealized(cfg: ExperimentConfig) -> MetricsSeries:
    """Analytic variance propagation under the configured scheme.

    No sampling noise is simulated; per-flow MSE at t is the filter
    variance s_i(t) given the scheme's rates. Requires mu_mode=true_mu
    (there are no estimates to plug in). Myopic re-solves its LP every
    period from the accumulated information; naive and steady_state keep
    one fixed design.
    """
    if cfg.mu_mode != "true_mu":
        raise ConfigError("mu_mode", "run_idealized requires true_mu")
    mm, fm, p, report = load_instance(cfg)
    T = cfg.horizon
    meta = {"mode": "idealized", "scheme": cfg.scheme,
            "constraint_mode": cfg.constraint_mode,
            "warnings": list(report.warnings)}

    per_flow = np.empty((T, fm.n_r))
    if cfg.scheme == "myopic":
        rates = np.empty((T, mm.n_o))
        block_starts = np.arange(1, T + 1)
        info = np.zeros(fm.n_r)
        for t in range(T):
            res = solve_myopic(p, fm, info, use_prediction=cfg.use_prediction)
            rates[t] = res.xi
            info = res.info  # predicted prior + J xi, the new posterior info
            per_flow[t] = _mse_from_info(info)
        meta["theta_final"] = float(np.min(info))
    else:
        res = _design_for_block(cfg, mm, fm, p, cfg.scheme, fm.mu,
                                np.zeros(fm.n_r))
        rates = res.xi[None, :]
        block_starts = np.array([1])
        meta["theta"] = res.theta
        meta["design_diagnostics"] = dict(res.diagnostics)
        m = mm.J @ res.xi
        info = np.zeros(fm.n_r)
        for t in range(T):
            info = info / (1.0 + fm.sigma2 * info) + m
            per_flow[t] = _mse_from_info(info)
    return _series(cfg, per_flow, block_starts, rates, meta)


def _design_for_block(cfg: ExperimentConfig, mm, fm, p, scheme: str,
                      mu_hat: np.ndarray, prior_info: np.ndarray) -> DesignResult:
    if cfg.mu_mode == "plugin":
        mm = remap_mu(mm, mu_hat)
        p = design_problem(mm, cap=cfg.cap, constraint_mode=cfg.constraint_mode)
    if scheme == "naive":
        return solve_naive(p, mm.traversal)
    if scheme == "steady_state":
        return solve_steady_state_E(p, fm, tol_theta=cfg.tol_theta)
    return solve_myopic(p, fm, prior_info, use_prediction=cfg.use_prediction)


def run_simulation(cfg: ExperimentConfig) -> MetricsSeries:
    """Closed-loop sampling simulation, averaged over replications.

    Every replication shares one ground-truth trace but draws its own
    sampling noise. Rates are redesigned at block boundaries
    (t = 1, B+1, ...); block 1 follows warmup_scheme because no
    estimates exist yet. In plugin mode the design and the GLS weights
    use the latest filter means clamped at 1; filter means start at the
    model mu, so the diffuse first update is unaffected. Under true_mu
    the naive and steady_state designs depend on neither the block nor
    the replication, so each is solved once per run, at its first block,
    and reused; myopic designs and every plugin design are solved per
    block. The logged rates come from replication 0 (plug-in designs
    differ across replications).
    """
    mm, fm, p, report = load_instance(cfg)
    trace = _get_trace(cfg, fm)
    T = cfg.horizon
    B = cfg.block_size
    block_starts = np.arange(1, T + 1, B)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)

    sq_sum = np.zeros((T, fm.n_r))
    rates = np.zeros((block_starts.size, mm.n_o))
    fixed = {}  # scheme -> its true_mu design, shared by every block
    for r, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        state = FilterState(info=np.zeros(fm.n_r), mean=fm.mu.copy(), t=0)
        xi = None
        for t in range(1, T + 1):
            if cfg.mu_mode == "plugin":
                mu_hat = np.maximum(state.mean, _MU_FLOOR)
            else:
                mu_hat = fm.mu
            if (t - 1) % B == 0:
                scheme = cfg.scheme
                if t == 1 and cfg.warmup_scheme == "naive":
                    scheme = "naive"
                if scheme in fixed:
                    res = fixed[scheme]
                else:
                    res = _design_for_block(cfg, mm, fm, p, scheme, mu_hat,
                                            state.info)
                    if cfg.mu_mode == "true_mu" and scheme != "myopic":
                        fixed[scheme] = res
                xi = res.xi
                if r == 0:
                    rates[(t - 1) // B] = xi
            x_t = trace.x[t - 1]
            raw = sample_packets(x_t, mm, xi, rng)
            y, m = fuse_gls(raw, mm, xi, mu_hat)
            state = predict_update(state, fm, m, y)
            sq_sum[t - 1] += (state.mean - x_t) ** 2
    meta = {"mode": "simulation", "scheme": cfg.scheme,
            "constraint_mode": cfg.constraint_mode,
            "mu_mode": cfg.mu_mode, "replications": cfg.replications,
            "block_size": B, "warmup_scheme": cfg.warmup_scheme,
            "trace_source": trace.source, "seed": cfg.seed,
            "warnings": list(report.warnings),
            "rates_replication": 0}
    return _series(cfg, sq_sum / cfg.replications, block_starts, rates, meta)


# ---------------------------------------------------------------------------
# output files (all floats as %.17g so reruns are bit-identical)


def _g(v: float) -> str:
    return format(float(v), ".17g")


def write_metrics(ms: MetricsSeries, outdir: str,
                  flows_dump: bool = False) -> None:
    """Write metrics.csv and rates.csv (and optionally flows.csv)."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "metrics.csv"), "w", newline="") as fh:
        fh.write("# flowdesign metrics.csv v1\n")
        fh.write(f"# median_max_mse {_g(ms.median)} "
                 f"window {ms.window[0]}..{ms.window[1]}\n")
        w = csv.writer(fh)
        w.writerow(["t", "max_mse", "scheme"])
        for t, v in zip(ms.t, ms.max_mse):
            w.writerow([int(t), _g(v), ms.scheme])
    with open(os.path.join(outdir, "rates.csv"), "w", newline="") as fh:
        fh.write("# flowdesign rates.csv v1\n")
        fh.write("# block_starts " + " ".join(str(int(t)) for t in ms.block_starts)
                 + "\n")
        w = csv.writer(fh)
        w.writerow(["block", "op_id", "xi"])
        for bi in range(ms.rates.shape[0]):
            for k in range(ms.rates.shape[1]):
                w.writerow([bi + 1, k + 1, _g(ms.rates[bi, k])])
    if flows_dump:
        with open(os.path.join(outdir, "flows.csv"), "w", newline="") as fh:
            fh.write("# flowdesign flows.csv v1\n")
            w = csv.writer(fh)
            w.writerow(["t", "flow", "mse"])
            for ti, t in enumerate(ms.t):
                for i in range(ms.per_flow_mse.shape[1]):
                    w.writerow([int(t), i + 1, _g(ms.per_flow_mse[ti, i])])
