"""Experiment orchestration: configs, the batch sequential loop, metrics.

Two runners share the ExperimentConfig:

* run_idealized propagates filter variances analytically (no sampling
  noise), with the myopic scheme re-solving its LP every period and the
  fixed schemes keeping one design throughout.
* run_simulation runs the full closed loop of every replication: design
  at block boundaries (plug-in means from the filter when
  mu_mode=plugin), sample, fuse, filter, and report squared errors
  averaged over replications. Replications advance block by block in
  lockstep, and the packet draws of W replications (one per usable core)
  run at once, on the caller and a thread pool of W - 1 workers; the
  outputs are byte-identical for every W. Under true_mu the draw tasks
  also fuse, and one filter step per period advances all replications.

Config files are flat `key = value` text; see _CONFIG_KEYS for the
vocabulary (keys mirror ExperimentConfig fields). CSV outputs carry a
versioned `#` comment header so downstream scripts can pin schemas.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .design import (DesignResult, solve_myopic, solve_naive,
                     solve_steady_state_E)
# fuse_gls and predict_update are the one-period public forms of the
# _fuse/_update steps run_simulation calls; they stay bound here because
# perfbench/tracing.py patches them as harness attributes.
from .filtering import FilterState, _update, predict_update, predicted_info
from .model import (FlowDesignError, FlowModel, ValidationError,
                    validate_problem)
from .network import (CONSTRAINT_MODES, TOPOLOGY_KINDS, ParameterError,
                      build_measurement_model, design_problem, flow_model,
                      load_topology, remap_mu, synth_topology)
from .simulate import (Trace, _fuse, fuse_gls, gen_random_walk_trace,
                       load_trace, sample_packets)

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
        for name in ("seed", "trace_seed", "topology_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be >= 0")
        if self.trace_floor < 0:
            raise ConfigError("trace_floor", "must be >= 0")
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
        except ValidationError as exc:  # a topology the generator cannot build
            raise ConfigError("topology_kind", str(exc)) from None
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
    period from the accumulated information, warm-started from the
    previous period's optimal basis (only the offsets move, so most
    periods need no pivot); naive and steady_state keep one fixed design.
    """
    if cfg.mu_mode != "true_mu":
        raise ConfigError("mu_mode", "run_idealized requires true_mu")
    mm, fm, p, warnings = load_instance(cfg)
    T = cfg.horizon
    meta = {"mode": "idealized", "scheme": cfg.scheme,
            "constraint_mode": cfg.constraint_mode, "warnings": warnings}

    per_flow = np.empty((T, fm.n_r))
    if cfg.scheme == "myopic":
        rates = np.empty((T, mm.n_o))
        block_starts = np.arange(1, T + 1)
        info = np.zeros(fm.n_r)
        res = None
        for t in range(T):
            res = solve_myopic(p, fm, info, start=res)
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
            info = predicted_info(info, fm.sigma2) + m
            per_flow[t] = _mse_from_info(info)
    return _series(cfg, per_flow, block_starts, rates, meta)


def _design_for_block(cfg: ExperimentConfig, mm, fm, p, scheme: str,
                      mu_hat: np.ndarray, prior_info: np.ndarray) -> DesignResult:
    if scheme == "naive":
        # R, b and the traversal pattern do not depend on mu
        return solve_naive(p)
    if cfg.mu_mode == "plugin":
        mm = remap_mu(mm, mu_hat)
        p = design_problem(mm, cap=cfg.cap, constraint_mode=cfg.constraint_mode)
    if scheme == "steady_state":
        return solve_steady_state_E(p, fm, tol_theta=cfg.tol_theta)
    return solve_myopic(p, fm, prior_info)


def _filter_block(raw, mm, fm, xi, state: FilterState):
    """Fuse and filter one plug-in block's sampled periods, in order.

    Each period is fuse_gls, with the filter's mean at the start of the
    period as the fusion mean, then predict_update; only the block-end
    state is validated. Returns it and the (B, n_r) posterior means.
    """
    flow = mm.l_of[raw.present]
    rate = xi[mm.k_of][raw.present]
    info, mean = state.info, state.mean
    means = np.empty((raw.z.shape[0], fm.n_r))
    z_present = raw.z if raw.present.all() else raw.z[:, raw.present]
    for b, z in enumerate(z_present):
        w = rate / np.maximum(mean, _MU_FLOOR)[flow]
        y, m = _fuse(flow, w, z, fm.n_r)
        info, mean = _update(info, mean, fm.sigma2, m, y)
        means[b] = mean
    return FilterState(info=info, mean=mean), means


def _fused_draw(x, mm, xi, rng, present, flow, w, m):
    """One block's draw, fused under the fixed weights ``w`` (with sums
    ``m``): the (B, n_r) fuse_gls observations, bit for bit, since one
    bincount over b * n_r + flow sums each bin in the same order."""
    raw = sample_packets(x, mm, xi, rng)
    z = raw.z if present.all() else raw.z[:, present]
    B, n_r = z.shape[0], m.size
    idx = (np.arange(B)[:, None] * n_r + flow).ravel()
    wz = np.bincount(idx, weights=(w * z).ravel(), minlength=B * n_r)
    y = np.full((B, n_r), np.nan)
    np.divide(wz.reshape(B, n_r), m, out=y, where=m > 0)
    return y


def _draw_group(pool, fn, arg_lists):
    """fn(*args) for each of ``arg_lists``, in order: the first on the
    caller, the others on ``pool`` at the same time."""
    futures = [pool.submit(fn, *args) for args in arg_lists[1:]]
    return [fn(*arg_lists[0])] + [f.result() for f in futures]


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
    estimates exist yet. Each block's packets are drawn in one
    sample_packets call on its (B, n_r) slice of the trace, which takes
    the same values from the replication's generator as B one-period
    calls. The naive design is solved once per run.

    In plugin mode the design and the GLS weights use the latest filter
    means clamped at 1 (they start at the model mu), so each replication
    designs its own rates per block (the logged rates are replication
    0's), and fusion and filtering step period by period through each
    replication in turn. Under true_mu, m = J xi does not depend on the
    draw, so all replications share each block's design (steady_state's
    is solved once per run); each draw is fused over its whole block,
    and one update per period then filters the (R, n_r) means of all
    replications at once.

    Replications advance in lockstep, block by block, with their packets
    drawn W at a time (W = usable cores, at most R): one on the caller
    and W - 1 on a thread pool, each with its replication's own
    generator. Squared errors are added in replication order, so every
    output is byte-identical for every W.
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
    states = [FilterState(info=np.zeros(fm.n_r), mean=fm.mu.copy())
              for _ in range(R)]
    W = _draw_threads(R)
    groups = [range(g0, min(g0 + W, R)) for g0 in range(0, R, W)]

    sq_sum = np.zeros((T, fm.n_r))
    rates = np.zeros((block_starts.size, mm.n_o))
    # true_mu: one design per block; naive and steady_state once per run
    fixed = {}

    def design(scheme, mu_hat, prior_info):
        res = fixed.get(scheme)
        if res is None:
            res = _design_for_block(cfg, mm, fm, p, scheme, mu_hat, prior_info)
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
            if plugin:
                xis = [design(scheme, np.maximum(s.mean, _MU_FLOOR), s.info)
                       for s in states]
                rates[bi] = xis[0]
                for group in groups:
                    raws = _draw_group(pool, sample_packets,
                                       [(x, mm, xis[r], rngs[r]) for r in group])
                    for r in group:
                        # pop, so each block's draw is freed once it is filtered
                        states[r], means = _filter_block(
                            raws.pop(0), mm, fm, xis[r], states[r])
                        sq_sum[t0:t0 + B] += (means - x) ** 2
                continue
            xi = rates[bi] = design(scheme, fm.mu, states[0].info)
            present = xi[mm.k_of] > 0.0
            flow = mm.l_of[present]
            w = xi[mm.k_of][present] / fm.mu[flow]
            m = np.bincount(flow, weights=w, minlength=fm.n_r)
            ys = np.stack([y for group in groups for y in _draw_group(
                pool, _fused_draw,
                [(x, mm, xi, rngs[r], present, flow, w, m) for r in group])])
            # one info vector serves every replication: m is shared
            info, mean = states[0].info, np.array([s.mean for s in states])
            for b in range(ys.shape[1]):
                info, mean = _update(info, mean, fm.sigma2, m, ys[:, b])
                ys[:, b] = mean  # the posterior means replace the inputs
            states = [FilterState(info=info, mean=row) for row in mean]
            for r in range(R):
                sq_sum[t0:t0 + B] += (ys[r] - x) ** 2
    meta = {"mode": "simulation", "scheme": cfg.scheme,
            "constraint_mode": cfg.constraint_mode,
            "mu_mode": cfg.mu_mode, "replications": cfg.replications,
            "block_size": B, "warmup_scheme": cfg.warmup_scheme,
            "trace_source": trace.source, "seed": cfg.seed,
            "warnings": warnings,
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
