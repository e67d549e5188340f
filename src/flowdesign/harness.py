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
  lockstep on one (R, n_r) filter state; each block's packet draws run
  on a pool of W threads (one per usable core), one task per
  replication, and each is fused there. The mu modes differ only in the
  designs and in the mean that the information m divides by; the
  outputs are byte-identical for every W.

Config files are flat `key = value` text; see _CONFIG_KEYS for the
vocabulary (keys mirror ExperimentConfig fields). CSV outputs carry a
versioned `#` comment header so downstream scripts can pin schemas; like
every file the package writes, they are UTF-8 with "\n" line ends, and
their floats come from one or a few large model.floats_text calls.
"""

from __future__ import annotations

import math
import numbers
import os
import re
from dataclasses import dataclass, field, fields, replace
from itertools import chain, repeat

import numpy as np

from .design import SCHEMES, solve_scheme
from .filtering import _check_posterior, _update, predicted_info
from .model import (FlowDesignError, FlowModel, ValidationError, floats_text,
                    read_text, validate_problem, write_lines)
from .network import (CONSTRAINT_MODES, TOPOLOGY_KINDS, ParameterError,
                      build_measurement_model, design_problem, flow_model,
                      load_topology, remap_mu, synth_topology)
from .simulate import (Trace, _count_fault, _draw_plan, _flow_sums, _fuse,
                       _sample_flow_sums, gen_random_walk_trace, load_trace)
# unused here, but perfbench/tracing.py patches these bindings (TRACED);
# fuse_gls/predict_update are the one-period forms of _fuse/_update, and
# sample_packets the per-measurement form of _sample_flow_sums
from .design import solve_myopic, solve_naive, solve_steady_state_E  # noqa: F401
from .filtering import predict_update  # noqa: F401
from .simulate import fuse_gls, sample_packets  # noqa: F401

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
    # topology: a CSV bundle directory, or a synthetic generator spec whose
    # unset keys take synth_topology's defaults
    topology_dir: str | None = None
    topology_kind: str | None = None
    topology_seed: int | None = None
    n_nodes: int | None = None
    rows: int | None = None
    cols: int | None = None
    n_links: int | None = None
    n_flows: int | None = None
    flow_fraction: float | None = None
    mu_scale: float | None = None
    sigma_rel: float | None = None
    budget: float | None = None
    # trace: replay file, or a seeded synthetic walk (unset: seed 1, floor 1)
    trace_file: str | None = None
    trace_seed: int | None = None
    trace_floor: float | None = None
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
        for f in fields(self):  # None only where it is the default
            value = getattr(self, f.name)
            kind, what = _KINDS[_CONFIG_KEYS[f.name]]
            if (value is not None or f.default is not None) and (
                    not isinstance(value, kind)
                    or (isinstance(value, bool) and kind is not bool)):
                raise ConfigError(f.name, f"must be {what}")
        runnable = [s for s in SCHEMES if s != "classical"]  # design-only
        for name, allowed in (("scheme", runnable), ("mu_mode", _MU_MODES),
                              ("constraint_mode", CONSTRAINT_MODES),
                              ("warmup_scheme", _WARMUP)):
            if getattr(self, name) not in allowed:
                raise ConfigError(name, f"must be one of {', '.join(allowed)}")
        for name in ("horizon", "block_size", "replications"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        if not (0 < self.cap <= 1):
            raise ConfigError("cap", "must lie in (0, 1]")
        if not (math.isfinite(self.tol_theta) and self.tol_theta > 0):
            raise ConfigError("tol_theta", "must be finite and > 0")
        for name in ("seed", "trace_seed", "topology_seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(name, "must be >= 0")
        if self.trace_floor is not None and (  # the walk clamps at it
                fault := _count_fault(self.trace_floor)):
            raise ConfigError("trace_floor", f"must be {fault}")
        for name in ("topology_dir", "trace_file"):
            if getattr(self, name) == "":
                raise ConfigError(name, "must not be empty")
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
        # a bundle leaves the synth keys unread, a replayed file the walk's
        for source, keys, only in (
                (self.topology_dir, _SYNTH_KEYS, "with topology_kind"),
                (self.trace_file, ("trace_seed", "trace_floor"), "without trace_file")):
            for key in keys if source is not None else ():
                if getattr(self, key) is not None:
                    raise ConfigError(key, f"applies only {only}")


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _to_bool(tok: str) -> bool:
    try:
        return _BOOL_WORDS[tok.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {tok!r}") from None


# per key converter: the type a value set in code must have (bools are
# not numbers here), and how its message names it
_KINDS = {int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a real number"),
          _to_bool: (bool, "a boolean"), str: (str, "a string")}


# each config key's converter, from its annotated type
_CONFIG_KEYS = {f.name: {"int": int, "float": float, "bool": _to_bool, "str": str}[
    f.type.replace(" | None", "")] for f in fields(ExperimentConfig)}
# the synthetic generator's inputs: with topology_dir they would go unread
_SYNTH_KEYS = ("topology_seed", "n_nodes", "rows", "cols", "n_links", "n_flows",
               "flow_fraction", "mu_scale", "sigma_rel", "budget")


def parse_config(path: str) -> ExperimentConfig:
    """Flat `key = value` file, one key per line. A `#` at the start of a
    line or after a space or tab starts a comment; any other `#` is part
    of the value, as in `topology_dir = run#1/topo`."""
    if not os.path.exists(path):
        raise ConfigError("config", f"file {path!r} not found")
    try:
        text = read_text(path)
    except ValidationError as exc:
        raise ConfigError("config", str(exc)) from None
    values = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?:^|[ \t])#", raw, maxsplit=1)[0].strip()
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


@dataclass(frozen=True, eq=False)
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


def _median(a: np.ndarray) -> float:
    """np.median of the 1-D ``a``, bit for bit, without importing numpy.ma
    as np.median does (12 ms, 2 MB): as np.median, the mean of the sorted
    middle value or pair, and NaN if any value is (np.sort puts it last)."""
    s = np.sort(a)
    if np.isnan(s[-1]):
        return math.nan
    return float(s[(s.size - 1) // 2:s.size // 2 + 1].mean())


def _series(cfg: ExperimentConfig, per_flow: np.ndarray,
            block_starts: np.ndarray, rates: np.ndarray,
            meta: dict) -> MetricsSeries:
    """Series over t = 1..horizon; the median of max MSE is taken over
    [median_window_start (default floor(0.2 T) + 1), T]."""
    T = cfg.horizon
    start = cfg.median_window_start or math.floor(0.2 * T) + 1
    max_mse = per_flow.max(axis=1)
    return MetricsSeries(
        t=np.arange(1, T + 1), max_mse=max_mse, per_flow_mse=per_flow,
        block_starts=block_starts, rates=rates,
        median=_median(max_mse[start - 1:]), window=(start, T),
        scheme=cfg.scheme, meta=meta)


def load_instance(cfg: ExperimentConfig):
    """Topology, measurement model, flow model and validated design
    problem for ``cfg``: returns (mm, fm, p, warnings)."""
    if cfg.topology_dir is not None:
        spec = load_topology(cfg.topology_dir)
    else:
        given = {"seed" if key == "topology_seed" else key: getattr(cfg, key)
                 for key in _SYNTH_KEYS if getattr(cfg, key) is not None}
        try:
            spec = synth_topology(cfg.topology_kind, **given)
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
        return trace  # read in place: the run reads rows 1..horizon
    return gen_random_walk_trace(
        fm, cfg.horizon, seed=1 if cfg.trace_seed is None else cfg.trace_seed,
        floor=1.0 if cfg.trace_floor is None else cfg.trace_floor)


def _mse_from_info(info: np.ndarray) -> np.ndarray:
    return np.divide(1.0, info, out=np.full(info.shape, np.inf), where=info > 0)


def run_idealized(cfg: ExperimentConfig) -> MetricsSeries:
    """Analytic variance propagation under the configured scheme.

    No sampling noise is simulated; per-flow MSE at t is the filter
    variance s_i(t) given the scheme's rates. Requires mu_mode=true_mu
    (there are no estimates to plug in). One loop steps the information
    recursion info = predicted_info(info) + J xi over the periods. Myopic
    re-solves its LP every period from the accumulated information,
    warm-started from the previous period's optimal basis (only the
    offsets move, so most periods need no pivot). Its LP is built and
    validated once: a later period re-solves the previous period's
    program with its own offsets (lp.resolve_lp) and reuses that
    matrix's assembled rows, so every rate and MSE has the bits of
    periods solved from programs built afresh. Naive and steady_state
    solve once, at t = 1, and keep that design. Each period's information
    is kept, and all of it is turned into MSE at once, after the loop.

    block_size and warmup_scheme are ignored: with the true means known
    there is nothing to wait for, so the fixed schemes hold from t = 1
    with no warm-up block, and myopic tracks the exact information
    recursion, one design (and one logged rate row) per period. With no
    draws, seed, replications and the trace keys are ignored too (a
    trace_file is not even opened).
    """
    if cfg.mu_mode != "true_mu":
        raise ConfigError("mu_mode", "run_idealized requires true_mu")
    mm, fm, p, warnings = load_instance(cfg)
    T = cfg.horizon
    meta = {"mode": "idealized", "scheme": cfg.scheme,
            "constraint_mode": cfg.constraint_mode, "warnings": warnings}

    myopic = cfg.scheme == "myopic"
    rates = np.empty((T if myopic else 1, mm.n_o))
    infos = np.empty((T, fm.n_r))  # each period's information
    info = np.zeros(fm.n_r)
    res = None
    for t in range(T):
        if res is None or myopic:
            res = solve_scheme(cfg.scheme, p, fm, info, cfg.tol_theta, start=res)
            rates[t] = res.xi
            m = None if myopic else p.J @ res.xi  # fixed schemes: one m
        # myopic's res.info is predicted_info(info) + J xi, bit for bit
        info = infos[t] = res.info if myopic else predicted_info(info, fm.sigma2) + m
    if myopic:
        meta["theta_final"] = float(np.min(info))
    else:
        meta["theta"] = res.theta
        meta["design_diagnostics"] = dict(res.diagnostics)
    block_starts = np.arange(1, rates.shape[0] + 1)
    return _series(cfg, _mse_from_info(infos), block_starts, rates, meta)


def _draw(counts, rng, rate_sum, plan):
    """One replication's block draw on the (B, n_r) int64 ``counts``: one
    binomial per (flow, K, rate) group of ``plan`` and period, returned
    as the (B, n_r) fused observations y = sum n / rate_sum per flow."""
    return _fuse(_sample_flow_sums(counts, rng, plan, rate_sum.size), rate_sum)


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
    block is one draw per replication on its (B, n_r) slice of the
    trace (the same values as B one-period draws), each a task on a pool
    of W threads (W = usable cores, at most R) that writes its fused
    block into the replication's row. A draw takes one Binomial(K x, r)
    per flow and distinct rate r on its path, K the flow's measurements
    at r: the law of their summed counts, which is all the fusion reads.
    Each design result carries its per-flow rate sums and this draw
    plan, built once with it. The draws check nothing again (the Trace
    checked the volumes, check_design_output the rates): they read each
    block's int64 counts, converted once per block, and that K x fits in
    int64 is checked once per run.

    Under plugin each replication solves the run's problem with J from
    its clamped filter means (the logged rates are replication 0's). Under
    true_mu one design from mu serves every replication (steady_state's
    is solved once per run). Either way each draw is fused where it was
    drawn, into y = sum n / sum xi_k per flow, which no mean enters, and
    one update per period steps all R rows with the information
    m = sum xi_k / mu_hat, where mu_hat is mu under true_mu and the
    clamped filter means under plugin. The block-end state is validated,
    and squared errors are added in replication order, so every output
    is byte-identical for every W.
    """
    mm, fm, p, warnings = load_instance(cfg)
    trace = _get_trace(cfg, fm)
    T = cfg.horizon
    volumes = trace.x[:T]  # a replayed file may run past the horizon
    # a plan's K for a flow is at most its measurement count k
    most = zip(volumes.max(axis=0).tolist(), np.bincount(mm.l_of, minlength=fm.n_r))
    if any(round(x) * int(k) >= 2 ** 63 for x, k in most):
        raise ValidationError("volumes times measurements per rate exceed int64")
    B = cfg.block_size
    R = cfg.replications
    plugin = cfg.mu_mode == "plugin"
    block_starts = np.arange(1, T + 1, B)
    rngs = [np.random.default_rng(stream)
            for stream in np.random.SeedSequence(cfg.seed).spawn(R)]
    info = np.zeros((R, fm.n_r))
    mean = np.tile(fm.mu, (R, 1))

    sq_sum = np.zeros((T, fm.n_r))
    rates = np.zeros((block_starts.size, mm.n_o))
    # true_mu: one design per block; naive and steady_state once per run
    fixed = {}

    def design(scheme, mu_hat, prior_info):
        """(xi, per-flow rate sums, draw plan) of the block's design."""
        got = fixed.get(scheme)
        if got is None:
            q = p
            if plugin and scheme != "naive":  # naive does not depend on mu
                # J's zeros do not move with mu, so p's bounds and rows hold
                q = replace(p, J=remap_mu(mm, mu_hat).J)
            xi = solve_scheme(scheme, q, fm, prior_info, cfg.tol_theta).xi
            got = xi, _flow_sums(xi[mm.k_of], mm.l_of, mm.n_r), _draw_plan(mm, xi)
            if scheme == "naive" or (scheme == "steady_state" and not plugin):
                fixed[scheme] = got
        return got

    # imported here so design and idealized runs do not load its logging
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(_draw_threads(R)) as pool:
        for bi, t0 in enumerate(block_starts - 1):
            scheme = cfg.scheme
            if t0 == 0 and cfg.warmup_scheme == "naive":
                scheme = "naive"
            x = volumes[t0:t0 + B]
            counts = np.rint(x).astype(np.int64)
            designs = ([design(scheme, np.maximum(mean[r], _MU_FLOOR), info[r])
                        for r in range(R)] if plugin
                       else [design(scheme, fm.mu, info[0])] * R)
            rates[bi] = designs[0][0]
            rate_sum = np.stack([s for _, s, _ in designs])
            out = np.empty((R,) + x.shape)  # fused y, then posterior means

            def draw(r):  # replication r's fused block, into its row of out
                _, s, plan = designs[r]
                out[r] = _draw(counts, rngs[r], s, plan)

            list(pool.map(draw, range(R)))  # re-raises the first failed draw
            for b in range(x.shape[0]):  # one update per period steps all R rows
                mu_hat = np.maximum(mean, _MU_FLOOR) if plugin else fm.mu
                info, mean = _update(info, mean, fm.sigma2, rate_sum / mu_hat,
                                     out[:, b])
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
    """Write metrics.csv and rates.csv (and optionally flows.csv). Each
    file's floats are formatted in one call, flows.csv's one per period,
    so it never holds more than one row's texts. A rates.csv line joins
    its block's number, its ",op_id," (made once per file) and its text."""
    os.makedirs(outdir, exist_ok=True)
    (median,) = floats_text(ms.median)
    write_lines(os.path.join(outdir, "metrics.csv"), chain(
        ["# flowdesign metrics.csv v1",
         f"# median_max_mse {median} window {ms.window[0]}..{ms.window[1]}",
         "t,max_mse,scheme"],
        (f"{int(t)},{v},{ms.scheme}"
         for t, v in zip(ms.t, floats_text(ms.max_mse)))))
    texts = floats_text(ms.rates)
    n_o = ms.rates.shape[1]
    ops = [f",{k}," for k in range(1, n_o + 1)]
    write_lines(os.path.join(outdir, "rates.csv"), chain(
        ["# flowdesign rates.csv v1",
         "# block_starts " + " ".join(str(int(t)) for t in ms.block_starts),
         "block,op_id,xi"],
        *(map("".join, zip(repeat(str(bi)), ops, texts[(bi - 1) * n_o:bi * n_o]))
          for bi in range(1, len(ms.rates) + 1))))
    if flows_dump:
        write_lines(os.path.join(outdir, "flows.csv"), chain(
            ["# flowdesign flows.csv v1", "t,flow,mse"],
            (f"{int(t)},{i},{v}" for t, row in zip(ms.t, ms.per_flow_mse)
             for i, v in enumerate(floats_text(row), 1))))
