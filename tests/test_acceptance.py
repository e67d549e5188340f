"""Acceptance gate: one test per stated criterion, one PASS/FAIL line each.

Every test measures the quantity its criterion names, records a summary
line (printed in the terminal summary), and asserts. Random draws use
fixed seeds so the gate is deterministic.
"""

import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from flowdesign import (
    DesignProblem,
    ExperimentConfig,
    Flow,
    FlowModel,
    TopologySpec,
    build_measurement_model,
    design_problem,
    export_canonical_socp,
    fuse_gls,
    run_idealized,
    sample_packets,
    save_topology,
    solve_classical_E,
    solve_steady_state_E,
    steady_state_info,
    synth_topology,
)
from flowdesign.harness import load_instance

from conftest import record_acceptance
from oracles import (cone_residuals, dense_gls, grid_design_bounds,
                     riccati_iterate)


def _line(n, ok, detail):
    return f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}"


def test_acceptance_1_classical_worked_example():
    t0 = time.perf_counter()
    p = DesignProblem(J=[[40.0, 10.0], [10.0, 40.0]], R=[[1.0, 1.0]],
                      b=[1.0], upper=[np.inf, np.inf])
    res = solve_classical_E(p)
    ms = (time.perf_counter() - t0) * 1e3
    err = float(np.max(np.abs(res.xi - 0.5)))
    ok = err < 1e-6 and ms < 500.0
    record_acceptance(_line(
        1, ok, f"classical E-optimal J=[[40,10],[10,40]] gives "
               f"xi=({res.xi[0]:.6f},{res.xi[1]:.6f}), err {err:.1e} "
               f"(tol 1e-6), {ms:.1f} ms"))
    assert ok, (res.xi, err, ms)


def test_acceptance_2_closed_form_vs_iteration():
    rng = np.random.default_rng(20240)
    m = rng.uniform(0.0, 1e3, 1000)
    s2 = rng.uniform(1e-6, 1e3, 1000)
    t0 = time.perf_counter()
    closed = steady_state_info(m, s2)
    rel = np.empty(1000)
    for i in range(1000):
        rel[i] = abs(closed[i] - riccati_iterate(m[i], s2[i])) / closed[i]
    secs = time.perf_counter() - t0
    worst = float(rel.max())
    ok = worst < 1e-8 and secs < 1.0
    record_acceptance(_line(
        2, ok, f"closed form vs Riccati iteration on 1000 random (m, sigma2): "
               f"worst rel diff {worst:.2e} (tol 1e-8) in {secs:.2f} s"))
    assert ok, (worst, secs)


def _random_design_instance(rng, n_o):
    n_r = int(rng.integers(1, 5))
    J = rng.uniform(0.5, 5.0, (n_r, n_o))
    sigma2 = 10.0 ** rng.uniform(-2.0, 0.6, n_r)
    if n_o == 3:  # keep the 2-D oracle grid around 10^6 cells
        upper = rng.uniform(0.03, 0.12, n_o)
        b = float(rng.uniform(0.05, 0.2))
    else:
        upper = rng.uniform(0.05, 0.4, n_o)
        b = float(rng.uniform(0.1, 0.5))
    p = DesignProblem(J=J, R=np.ones((1, n_o)), b=[b], upper=upper)
    fm = FlowModel(sigma2=sigma2, mu=np.full(n_r, 100.0))
    return p, fm


def test_acceptance_3_steady_state_vs_grid_oracle():
    rng = np.random.default_rng(30303)
    t0 = time.perf_counter()
    worst_gap = 0.0
    n_checked = 0
    for n_o, count in ((1, 20), (2, 20), (3, 10)):
        for _ in range(count):
            p, fm = _random_design_instance(rng, n_o)
            res = solve_steady_state_E(p, fm)
            lo, hi, _ = grid_design_bounds(p.J, fm.sigma2, float(p.b[0]),
                                           p.upper, h=1e-4)
            slack = 2e-9 * max(1.0, float(np.max(p.upper)))
            assert lo - slack <= res.theta <= hi + slack, (n_o, res.theta, lo, hi)
            worst_gap = max(worst_gap,
                            max(lo - res.theta, res.theta - hi) / max(hi, 1e-30))
            n_checked += 1
    # the stated asymmetric pair: the noisier flow gets more budget
    p = DesignProblem(J=[[40.0, 10.0], [10.0, 40.0]], R=[[1.0, 1.0]], b=[1.0])
    fm = FlowModel(sigma2=[0.01, 0.04], mu=[100.0, 100.0])
    res = solve_steady_state_E(p, fm)
    asym_ok = res.xi[0] < res.xi[1]
    secs = time.perf_counter() - t0
    ok = n_checked == 50 and asym_ok and secs < 30.0
    record_acceptance(_line(
        3, ok, f"steady-state design within grid-oracle bracket on 50 "
               f"instances (worst signed gap {worst_gap:.1e}); asymmetric "
               f"pair xi=({res.xi[0]:.4f},{res.xi[1]:.4f}) has xi1 < xi2; "
               f"{secs:.1f} s"))
    assert ok, (n_checked, res.xi, secs)


def test_acceptance_4_socp_cone_round_trip():
    p = DesignProblem(J=[[40.0, 10.0], [10.0, 40.0]], R=[[1.0, 1.0]], b=[1.0])
    fm = FlowModel(sigma2=[0.01, 0.04], mu=[100.0, 100.0])
    socp = export_canonical_socp(p, fm)
    rng = np.random.default_rng(4444)
    J = np.asarray(p.J)
    n_feas = n_infeas = 0
    worst_feas = np.inf    # most negative residual over feasible points
    worst_infeas = -np.inf  # least negative violation over infeasible points
    for trial in range(1000):
        xi = rng.uniform(0.0, 1.0, 2)
        total = xi.sum()
        if total > 1.0:
            xi /= total * rng.uniform(1.0, 2.0)
        cap = float(np.min(steady_state_info(J @ xi, fm.sigma2)))
        if trial % 2 == 0:
            # every tenth feasible point sits exactly on the binding cone
            f = 1.0 if trial % 20 == 0 else rng.uniform(0.0, 1.0)
            theta = cap * f
            resid = cone_residuals(socp, np.concatenate([[theta], xi]))
            worst_feas = min(worst_feas, float(resid.min()))
            n_feas += 1
        else:
            if trial % 10 == 1:  # overspend the budget instead of theta
                xi = xi / max(xi.sum(), 1e-9) * rng.uniform(1.001, 1.5)
                theta = 0.5 * float(np.min(steady_state_info(J @ xi, fm.sigma2)))
            else:
                theta = cap * rng.uniform(1.000001, 1.5)
            resid = cone_residuals(socp, np.concatenate([[theta], xi]))
            worst_infeas = max(worst_infeas, float(resid.min()))
            n_infeas += 1
    ok = (n_feas + n_infeas == 1000 and worst_feas >= -1e-10
          and worst_infeas < -1e-10)
    record_acceptance(_line(
        4, ok, f"SOCP cones vs feasible set on 1000 points: {n_feas} feasible "
               f"all residuals >= {worst_feas:.1e} (tol -1e-10), {n_infeas} "
               f"infeasible all violated (closest {worst_infeas:.1e})"))
    assert ok, (worst_feas, worst_infeas)


def test_acceptance_5_gls_diagonality_and_fusion():
    rng = np.random.default_rng(5050)
    kinds = ("line", "star", "grid", "random")
    worst_diag = worst_off = worst_fuse = 0.0
    for i in range(50):
        kind = kinds[i % 4]
        kw = {"line": dict(n_nodes=int(rng.integers(3, 7))),
              "star": dict(n_nodes=int(rng.integers(4, 8))),
              "grid": dict(rows=2, cols=int(rng.integers(2, 4))),
              "random": dict(n_nodes=6, n_links=int(rng.integers(7, 11)))}[kind]
        spec = synth_topology(kind, n_flows=3, budget=0.02, seed=i, **kw)
        mm = build_measurement_model(spec)
        xi = rng.uniform(0.005, 0.05, mm.n_o)
        xi[rng.uniform(size=mm.n_o) < 0.2] = 0.0
        d_inv = mm.psi_diag.T @ xi
        M = mm.L.T @ (d_inv[:, None] * mm.L)
        off = M - np.diag(np.diag(M))
        worst_off = max(worst_off, float(np.max(np.abs(off))))
        worst_diag = max(worst_diag,
                         float(np.max(np.abs(np.diag(M) - mm.J @ xi))))
        x = np.rint(mm.mu * rng.uniform(0.5, 1.5, mm.n_r))
        n = sample_packets(x, mm, xi, rng)
        y, m = fuse_gls(n, mm, xi, mm.mu)
        rate = xi[mm.k_of]
        present = rate > 0
        weights = np.where(present, rate / mm.mu[mm.l_of], 0.0)
        z = np.divide(n, rate, out=np.zeros(mm.n_g), where=present)
        y_o, diag_o, _ = dense_gls(mm.L, weights, z)
        obs = m > 0
        assert np.array_equal(np.isnan(y), ~obs)
        if np.any(obs):
            worst_fuse = max(worst_fuse, float(np.max(
                np.abs(y[obs] - y_o[obs]) / np.abs(y_o[obs]))))
    ok = worst_diag < 1e-12 and worst_off < 1e-12 and worst_fuse < 1e-10
    record_acceptance(_line(
        5, ok, f"GLS on 50 random topologies: diag(L'D^-1 L) vs J xi worst "
               f"{worst_diag:.1e} (tol 1e-12), off-diagonal {worst_off:.1e}, "
               f"fusion vs dense GLS worst rel {worst_fuse:.1e} (tol 1e-10)"))
    assert ok, (worst_diag, worst_off, worst_fuse)


def test_acceptance_6_sampling_noise_model():
    spec = TopologySpec(
        nodes=("a", "b"), edges=(("a", "b"), ("b", "a")),
        flows=(Flow("a", "b", sigma2=1.0, mu=1e4),),
        budgets={"a": 1.0, "b": 1.0})
    mm = build_measurement_model(spec)
    k = int(np.flatnonzero(np.any(mm.J > 0, axis=0))[0])
    xi = np.zeros(mm.n_o)
    xi[k] = 0.01
    x = np.array([1e4])
    rng = np.random.default_rng(660)
    z = np.empty(10_000)
    g = np.flatnonzero(xi[mm.k_of] > 0)[0]  # the one present measurement
    for r in range(10_000):
        z[r] = sample_packets(x, mm, xi, rng)[g] / xi[mm.k_of[g]]
    target = 1e4 * (1 - 0.01) / 0.01
    var = float(z.var(ddof=1))
    rel = abs(var - target) / target
    ok = rel < 0.05
    record_acceptance(_line(
        6, ok, f"sampling noise X=1e4, xi=0.01, 10^4 replications: "
               f"Var(Z|X) = {var:.4g} vs X(1-xi)/xi = {target:.4g}, "
               f"rel {rel:.3f} (tol 0.05)"))
    assert ok, (var, target)


def _criterion7_instances(tmpdir):
    """16 synthetic topologies + 4 hub instances with competing flows."""
    out = []
    for i in range(16):
        kind = ("line", "star", "grid", "random")[i % 4]
        kw = dict(topology_kind=kind, topology_seed=i // 4, budget=0.02)
        if kind == "line":
            kw.update(n_nodes=5, n_flows=3)
        elif kind == "star":
            kw.update(n_nodes=6, n_flows=4)
        elif kind == "grid":
            kw.update(rows=2, cols=3, n_flows=4)
        else:
            kw.update(n_nodes=6, n_links=9, n_flows=4)
        out.append((kw, False))
    for i, ratio in enumerate((3.0, 6.0, 10.0, 20.0)):
        mu_light = 500.0
        mu_heavy = mu_light * ratio
        spec = TopologySpec(
            nodes=("hub", "p", "q", "r", "s"),
            edges=tuple(e for x in "pqrs" for e in (("hub", x), (x, "hub"))),
            flows=(Flow("p", "q", sigma2=(0.05 * mu_heavy) ** 2, mu=mu_heavy),
                   Flow("r", "s", sigma2=(0.05 * mu_light) ** 2, mu=mu_light)),
            budgets={n: 0.02 for n in ("hub", "p", "q", "r", "s")})
        d = f"{tmpdir}/asym{i}"
        save_topology(spec, d)
        out.append((dict(topology_dir=d), True))
    return out


def test_acceptance_7_dominance_and_convergence(tmp_path):
    worst_dom = -np.inf   # max over instances of ss_lim/naive_lim - 1
    asym_imps = []
    worst_dxi = 0.0
    worst_myopic_rel = 0.0
    for kw, is_asym in _criterion7_instances(str(tmp_path)):
        base = dict(mu_mode="true_mu", horizon=400, **kw)
        runs = {s: run_idealized(ExperimentConfig(scheme=s, **base))
                for s in ("naive", "steady_state", "myopic")}
        mm, fm, _, _ = load_instance(ExperimentConfig(**base))
        s2 = fm.sigma2

        def lim_mse(rates):
            return float(1.0 / np.min(steady_state_info(mm.J @ rates, s2)))

        naive_lim = lim_mse(runs["naive"].rates[0])
        ss_lim = 1.0 / runs["steady_state"].meta["theta"]
        worst_dom = max(worst_dom, ss_lim / naive_lim - 1.0)
        if is_asym:
            asym_imps.append(1.0 - ss_lim / naive_lim)
        my = runs["myopic"]
        dxi = float(np.max(np.abs(my.rates[-1] - my.rates[-2])))
        worst_dxi = max(worst_dxi, dxi)
        worst_myopic_rel = max(
            worst_myopic_rel, abs(lim_mse(my.rates[-1]) - ss_lim) / ss_lim)
    ok = (worst_dom <= 1e-9 and min(asym_imps) >= 0.01
          and worst_dxi < 1e-8 and worst_myopic_rel < 1e-4)
    record_acceptance(_line(
        7, ok, f"idealized on 20 instances: steady-state limiting max-MSE <= "
               f"naive (worst excess {max(worst_dom, 0.0):.1e}); asymmetric "
               f"improvements {', '.join(f'{v:.1%}' for v in asym_imps)} "
               f"(>= 1%); myopic rates converge (worst dxi {worst_dxi:.1e}) "
               f"and match steady state within {worst_myopic_rel:.1e} "
               f"(tol 1e-4)"))
    assert ok, (worst_dom, asym_imps, worst_dxi, worst_myopic_rel)


def test_acceptance_8_end_to_end_determinism(tmp_path):
    exe = shutil.which("flowdesign")
    base_cmd = [exe] if exe else [sys.executable, "-m", "flowdesign.cli"]
    topo = str(tmp_path / "topo")
    r = subprocess.run(base_cmd + ["synth", "--kind", "line", "--nodes", "5",
                                   "--flows", "3", "--budget", "0.02",
                                   "--out", topo],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"topology_dir = {topo}\nscheme = steady_state\n"
                   "horizon = 12\nblock_size = 6\nreplications = 2\n"
                   "seed = 9\nflows_dump = true\n")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        r = subprocess.run(base_cmd + ["simulate", "--config", str(cfg),
                                       "--out", str(out)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("metrics.csv", "rates.csv", "flows.csv"))
    ok = same
    record_acceptance(_line(
        8, ok, "simulate CLI with fixed seeds: metrics.csv, rates.csv, "
               "flows.csv byte-identical across two runs"
               if same else "simulate CLI output differed across runs"))
    assert ok
