"""The benchmark's workloads: input generation, set-up, main call, checks.

Every workload runs on synth_topology("grid", budget=0.02,
seed=<topology seed>), written out as a CSV bundle; the idealized and
simulation workloads also get a generated experiment config that points
at the bundle. The program sees only these generated files. The
topology seed is fixed per run (default 1, the instance the roadmap's
baseline numbers use), so every seed of one workload does the same
amount of design work; ``--seed`` sets the trace and replication seeds.

flowdesign is imported inside the functions, never at module level, so
the worker can time the package import as part of set-up.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

BUDGET = 0.02

WORKLOADS = {
    "design-grid5": {"kind": "design", "grid": 5},
    "idealized-myopic-grid5": {
        "kind": "idealized", "grid": 5, "scheme": "myopic",
        "mu_mode": "true_mu", "horizon": 200},
    "sim-steady-truemu-grid4": {
        "kind": "simulate", "grid": 4, "scheme": "steady_state",
        "mu_mode": "true_mu", "horizon": 200, "block_size": 40,
        "replications": 10, "warmup_scheme": "scheme"},
    "sim-naive-plugin-grid8": {
        "kind": "simulate", "grid": 8, "scheme": "naive",
        "mu_mode": "plugin", "horizon": 200, "block_size": 40,
        "replications": 10},
}

_CONFIG_KEYS = ("scheme", "mu_mode", "horizon", "block_size",
                "replications", "warmup_scheme")
_BUDGET_REL = 1e-6   # allowed budget overspend, relative to b
_REF_REL = 1e-6      # design optimum vs the HiGHS reference
_EXACT_REL = 1e-9    # quantities the checks recompute from the outputs


def _paths(wdir: str) -> dict:
    return {"bundle": os.path.join(wdir, "topology"),
            "config": os.path.join(wdir, "experiment.cfg"),
            "reference": os.path.join(wdir, "reference.json")}


def generate(name: str, wdir: str, seed: int, topology_seed: int) -> dict:
    """Write the workload's inputs (and, for design, its HiGHS reference)."""
    from flowdesign import (build_measurement_model, design_problem,
                            flow_model, save_topology, synth_topology)
    w = WORKLOADS[name]
    paths = _paths(wdir)
    spec = synth_topology("grid", rows=w["grid"], cols=w["grid"],
                          budget=BUDGET, seed=topology_seed)
    save_topology(spec, paths["bundle"])
    mm = build_measurement_model(spec)
    sizes = {"n_v": mm.n_v, "n_r": mm.n_r, "n_o": mm.n_o, "n_g": mm.n_g,
             "T": w.get("horizon"), "B": w.get("block_size"),
             "replications": w.get("replications"),
             "topology_seed": topology_seed}
    if w["kind"] == "design":
        import reference
        p = design_problem(mm)
        fm = flow_model(mm)
        ref = {"classical_theta": reference.classical_theta(
                   p.J, p.R, p.b, p.lower, p.upper),
               "steady_state_theta": reference.steady_state_theta(
                   p.J, p.R, p.b, p.lower, p.upper, fm.sigma2)}
        with open(paths["reference"], "w") as fh:
            json.dump(ref, fh)
    else:
        lines = [f"topology_dir = {os.path.abspath(paths['bundle'])}",
                 f"seed = {seed}", f"trace_seed = {seed}"]
        lines += [f"{k} = {w[k]}" for k in _CONFIG_KEYS if k in w]
        with open(paths["config"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return sizes


@dataclass
class Context:
    kind: str
    wdir: str
    cfg: object
    fm: object
    p: object
    model_bytes: int   # computed size of the dense L, psi_diag, J and R
    flow_periods: int  # replications x T x n_r of one main call (0 for design)
    expected: dict


def setup(name: str, wdir: str) -> Context:
    """The user-visible set-up: import, load inputs, build and validate."""
    from flowdesign import (build_measurement_model, design_problem,
                            flow_model, load_topology, parse_config,
                            validate_problem)
    w = WORKLOADS[name]
    paths = _paths(wdir)
    cfg = None if w["kind"] == "design" else parse_config(paths["config"])
    mm = build_measurement_model(load_topology(paths["bundle"]))
    fm = flow_model(mm)
    p = design_problem(mm)  # cap 1, inequality rows: the CLI and config defaults
    validate_problem(p, fm)
    # the model itself is dropped here, so it does not inflate the peak
    # memory of the main calls, which build their own
    nbytes = mm.L.nbytes + mm.psi_diag.nbytes + mm.J.nbytes + mm.R.nbytes
    periods = 0 if cfg is None else cfg.horizon * mm.n_r * (
        cfg.replications if w["kind"] == "simulate" else 1)
    return Context(w["kind"], wdir, cfg, fm, p, int(nbytes), periods, {})


def prepare_checks(ctx: Context) -> None:
    """Untimed reference values the output checks compare against."""
    if ctx.kind == "design":
        with open(_paths(ctx.wdir)["reference"]) as fh:
            ctx.expected.update(json.load(fh))
    elif ctx.cfg.scheme == "steady_state" and ctx.cfg.mu_mode == "true_mu":
        from flowdesign import solve_steady_state_E
        ctx.expected["xi"] = solve_steady_state_E(
            ctx.p, ctx.fm, tol_theta=ctx.cfg.tol_theta).xi


def main_call(ctx: Context, outdir: str):
    """One timed operation: the workload's main call(s) and output writes."""
    if ctx.kind == "design":
        from flowdesign import cli
        bundle = _paths(ctx.wdir)["bundle"]
        for scheme in ("steady-state", "classical"):
            rc = cli.main(["design", "--topology", bundle, "--scheme", scheme,
                           "--out", os.path.join(outdir, scheme)])
            if rc != 0:
                raise RuntimeError(f"flowdesign design --scheme {scheme} exited {rc}")
        return None
    from flowdesign import harness
    run = harness.run_idealized if ctx.kind == "idealized" else harness.run_simulation
    ms = run(ctx.cfg)
    harness.write_metrics(ms, outdir)
    return ms


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _rate_failures(p, xi, label: str) -> list:
    xi = np.asarray(xi, dtype=float)
    out = []
    if xi.shape != (p.n_o,) or not np.all(np.isfinite(xi)):
        return [f"{label}: rates are not {p.n_o} finite numbers"]
    if np.any(xi < p.lower - 1e-12) or np.any(xi > p.upper + 1e-12):
        out.append(f"{label}: rates leave their bounds")
    over = (p.R @ xi - p.b) / np.maximum(p.b, 1e-300)
    if np.max(over, initial=-np.inf) > _BUDGET_REL:
        out.append(f"{label}: budget overspent by {np.max(over):.3e} of b")
    return out


def _read_xi(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = [ln.strip().split(",") for ln in fh
                if ln.strip() and not ln.startswith("#")]
    return np.array([float(v) for _k, v in rows[1:]])


def _read_theta(path: str) -> float:
    with open(path) as fh:
        return float(fh.read().strip())


def _check_design(ctx: Context, outdir: str) -> list:
    import reference
    p, fm, exp = ctx.p, ctx.fm, ctx.expected
    fails = []
    for scheme, ref_key in (("steady-state", "steady_state_theta"),
                            ("classical", "classical_theta")):
        d = os.path.join(outdir, scheme)
        xi = _read_xi(os.path.join(d, "xi.csv"))
        theta = _read_theta(os.path.join(d, "theta.txt"))
        bad = _rate_failures(p, xi, scheme)
        fails += bad
        if bad:
            continue
        m = p.J @ xi
        achieved = float(np.min(reference.steady_info(m, fm.sigma2)
                                if scheme == "steady-state" else m))
        if _rel_err(theta, achieved) > _EXACT_REL:
            fails.append(f"{scheme}: theta.txt {theta!r} is not the design's "
                         f"minimum information {achieved!r}")
        if _rel_err(theta, exp[ref_key]) > _REF_REL:
            fails.append(f"{scheme}: theta {theta!r} differs from HiGHS "
                         f"{exp[ref_key]!r}")
    with open(os.path.join(outdir, "steady-state", "socp.txt")) as fh:
        head = fh.readline().strip(), fh.readline().split()
    if head[0] != "socp-canonical v1" or head[1][3] != str(p.n_r):
        fails.append("socp.txt: header does not describe one cone per flow")
    return fails


def _check_series(ctx: Context, ms, outdir: str) -> list:
    p, fm = ctx.p, ctx.fm
    fails = []
    for row, xi in enumerate(ms.rates):
        fails += _rate_failures(p, xi, f"rates row {row + 1}")
    with open(os.path.join(outdir, "metrics.csv")) as fh:
        fh.readline()
        written = fh.readline().split()
    if written[1:3] != ["median_max_mse", format(ms.median, ".17g")]:
        fails.append("metrics.csv: median line does not match the run")
    if ctx.kind == "idealized":
        info = np.zeros(fm.n_r)
        expect = np.empty_like(ms.per_flow_mse)
        for t, xi in enumerate(ms.rates):
            info = info / (1.0 + fm.sigma2 * info) + p.J @ xi
            with np.errstate(divide="ignore"):
                expect[t] = 1.0 / info
        if not np.allclose(ms.per_flow_mse, expect, rtol=_EXACT_REL, atol=0.0):
            fails.append("per-flow MSE differs from the information recursion "
                         "over the logged rates")
        return fails
    if not np.all(np.isfinite(ms.per_flow_mse)):
        fails.append("simulated MSE is not finite")
    if "xi" in ctx.expected and not np.allclose(
            ms.rates, ctx.expected["xi"][None, :], rtol=_EXACT_REL, atol=1e-15):
        fails.append("logged rates differ from the standalone steady-state design")
    return fails


def check(ctx: Context, result, outdir: str) -> list:
    if ctx.kind == "design":
        return _check_design(ctx, outdir)
    return _check_series(ctx, result, outdir)

