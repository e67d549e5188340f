import collections
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from flowdesign import (
    ConfigError,
    ExperimentConfig,
    Flow,
    TopologySpec,
    ValidationError,
    build_measurement_model,
    design,
    design_problem,
    flow_model,
    gen_random_walk_trace,
    harness,
    parse_config,
    run_idealized,
    run_simulation,
    save_topology,
    save_trace,
    solve_naive,
    solve_steady_state_E,
    steady_state_info,
    synth_topology,
    write_metrics,
)
from flowdesign import cli, simulate

from oracles import float_texts, per_period_simulation, riccati_bisect


def synth_cfg(**kw):
    base = dict(topology_kind="line", n_nodes=5, n_flows=3, budget=0.02,
                topology_seed=2, mu_mode="true_mu")
    base.update(kw)
    return ExperimentConfig(**base)


def rebuild_problem(cfg):
    # same construction path the runners use, for checking their outputs
    mm, _, p, _ = harness.load_instance(cfg)
    return mm, p


# ------------------------------------------------------------------ config


def test_parse_config_full_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "# experiment\n"
        "topology_kind = line   # synthetic\n"
        "n_nodes = 6\n"
        "n_flows = 4\n"
        "\n"
        "scheme = myopic\n"
        "horizon = 120\n"
        "block_size = 10\n"
        "replications = 3\n"
        "mu_mode = true_mu\n"
        "budget = 0.05\n"
        "flows_dump = true\n"
        "median_window_start = 50\n",
    )
    cfg = parse_config(str(p))
    assert cfg.topology_kind == "line" and cfg.n_nodes == 6
    assert cfg.scheme == "myopic" and cfg.horizon == 120
    assert cfg.block_size == 10 and cfg.replications == 3
    assert cfg.budget == 0.05
    assert cfg.flows_dump is True
    assert cfg.median_window_start == 50
    # untouched keys keep their defaults; an unset trace seed walks as 1
    assert cfg.cap == 1.0
    fm = harness.load_instance(cfg)[1]
    assert np.array_equal(harness._get_trace(cfg, fm).x,
                          gen_random_walk_trace(fm, cfg.horizon, seed=1).x)


@pytest.mark.parametrize("line,key,value", [
    ("scheme = naive # note", "scheme", "naive"),
    ("scheme = naive\t# note", "scheme", "naive"),
    ("topology_dir = run#1/topo", "topology_dir", "run#1/topo"),
    ("topology_dir = run#1/topo  # a bundle", "topology_dir", "run#1/topo"),
])
def test_hash_starts_a_comment_only_after_blank_space(tmp_path, line, key, value):
    p = tmp_path / "exp.cfg"
    p.write_text("  # indented comment\n#comment\n"
                 + ("topology_kind = line\n" if key != "topology_dir" else "")
                 + line + "\n")
    assert getattr(parse_config(str(p)), key) == value


_SYNTH_VALUES = {"topology_seed": 3, "n_nodes": 5, "rows": 4, "cols": 4,
                 "n_links": 4, "n_flows": 2, "flow_fraction": 0.5,
                 "mu_scale": 500.0, "sigma_rel": 0.1, "budget": -1.0}


@pytest.mark.parametrize("key", sorted(_SYNTH_VALUES))
def test_config_rejects_synth_key_next_to_topology_dir(tmp_path, key):
    # built in Python as from a file: the bundle would leave the key unread
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(topology_dir=str(tmp_path), **{key: _SYNTH_VALUES[key]})
    assert exc.value.field == key
    assert str(exc.value) == f"config field '{key}': applies only with topology_kind"


@pytest.mark.parametrize("key,value", [("trace_seed", 77), ("trace_floor", 3.0)])
def test_config_rejects_walk_key_next_to_trace_file(key, value):
    # built in Python as from a file: the replayed trace would leave it unread
    with pytest.raises(ConfigError) as exc:
        synth_cfg(trace_file="walk.csv", **{key: value})
    assert str(exc.value) == f"config field '{key}': applies only without trace_file"


def test_load_instance_passes_only_set_synth_keys(monkeypatch):
    # unset generator keys take synth_topology's own defaults
    calls = []

    def recording(kind, **kw):
        calls.append((kind, kw))
        return synth_topology(kind, **kw)

    monkeypatch.setattr(harness, "synth_topology", recording)
    mm, fm, p, _ = harness.load_instance(
        ExperimentConfig(topology_kind="grid", rows=4, cols=4))
    assert calls == [("grid", {"rows": 4, "cols": 4})]
    want = build_measurement_model(synth_topology("grid", rows=4, cols=4))
    assert mm.J.tobytes() == want.J.tobytes()
    assert fm.sigma2.tobytes() == flow_model(want).sigma2.tobytes()
    assert p.b.tobytes() == design_problem(want).b.tobytes()


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_parse_config_line_ends(tmp_path, end):
    p = tmp_path / "exp.cfg"
    p.write_bytes(end.join(["topology_kind = line", "n_nodes = 6", "",
                            "horizon = 12", "horizon 5"]).encode())
    with pytest.raises(ConfigError, match="line 5: expected key = value"):
        parse_config(str(p))
    p.write_bytes(end.join(["topology_kind = line", "n_nodes = 6", "",
                            "horizon = 12"]).encode() + end.encode())
    cfg = parse_config(str(p))
    assert (cfg.n_nodes, cfg.horizon) == (6, 12)


@pytest.mark.parametrize("text,field", [
    ("topology_kind = line\nfrobnicate = 3\n", "frobnicate"),
    ("topology_kind = line\nhorizon = 5\nhorizon = 6\n", "horizon"),
    ("topology_kind = line\nhorizon = soon\n", "horizon"),
    ("topology_kind = line\nflows_dump = maybe\n", "flows_dump"),
    ("topology_kind = line\nuse_prediction = no\n", "use_prediction"),  # removed key
    ("topology_kind = line\nhorizon 5\n", "config"),
    ("topology_kind = line\nscheme = classical\n", "scheme"),  # design only
    ("topology_kind = line\nscheme = steady-state\n", "scheme"),
])
def test_parse_config_rejects(tmp_path, text, field):
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    with pytest.raises(ConfigError) as exc:
        parse_config(str(p))
    assert exc.value.field == field


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(str(tmp_path / "nope.cfg"))
    assert exc.value.field == "config"


def test_config_requires_one_topology_source(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig()
    with pytest.raises(ConfigError):
        ExperimentConfig(topology_dir=str(tmp_path), topology_kind="line")


@pytest.mark.parametrize("kw", [
    {"scheme": "greedy"},
    {"mu_mode": "oracle"},
    {"constraint_mode": "soft"},
    {"warmup_scheme": "idle"},
    {"horizon": 0},
    {"block_size": 0},
    {"replications": 0},
    {"cap": 0.0},
    {"cap": 1.5},
    {"tol_theta": 0.0},
    {"trace_floor": -1.0},
    {"trace_floor": float("nan")},
    {"trace_floor": float("inf")},
    {"trace_floor": 0.5},  # the walk clamps at it, so it is a packet count
    {"median_window_start": 0},
    {"median_window_start": 500},
    {"tol_theta": float("nan")},
    {"tol_theta": float("inf")},
    {"topology_kind": "hypercube"},
    {"block_size": 1.5},
    {"horizon": 10.0},
    {"horizon": True},
    {"median_window_start": 2.5},
    {"replications": 2.5},
    {"seed": 1.5},
    {"trace_seed": 1.5},
    {"n_nodes": 5.0},
    # every key is checked by its annotated type, not only the integers
    {"budget": True},
    {"flows_dump": "no"},
    {"flows_dump": 1},
    {"cap": "0.5"},
    {"tol_theta": "1e-9"},
    {"mu_scale": "10"},
    {"trace_file": 5},
    # None only where it is the default
    {"cap": None},
    {"seed": None},
])
def test_config_validation(kw):
    with pytest.raises(ConfigError) as exc:
        synth_cfg(**{"horizon": 200, **kw})
    assert exc.value.field == next(iter(kw))  # the message names the key


def test_median_window_default_and_override():
    ms = run_idealized(synth_cfg(horizon=200))
    assert ms.window == (41, 200)  # floor(0.2 * 200) + 1
    ms = run_idealized(synth_cfg(horizon=200, median_window_start=100))
    assert ms.window == (100, 200)
    ms = run_idealized(synth_cfg(horizon=3))
    assert ms.window == (1, 3)


# ------------------------------------------------------------------ idealized


def test_idealized_steady_state_reaches_design_limit():
    cfg = synth_cfg(horizon=1500, scheme="steady_state")
    ms = run_idealized(cfg)
    assert ms.t[0] == 1 and ms.t[-1] == 1500
    assert ms.rates.shape[0] == 1 and ms.block_starts.tolist() == [1]
    # variance recursion must have converged to the designed limit
    mm, p = rebuild_problem(cfg)
    fm = flow_model(mm)
    m = mm.J @ ms.rates[0]
    limit = riccati_bisect(m, fm.sigma2)
    np.testing.assert_allclose(ms.per_flow_mse[-1], 1.0 / limit, rtol=1e-8)
    assert ms.meta["theta"] == pytest.approx(float(limit.min()), rel=1e-6)
    # max_mse is nonincreasing (information only accumulates)
    assert np.all(np.diff(ms.max_mse) <= 1e-12)
    lo, hi = ms.window
    assert ms.median == float(np.median(ms.max_mse[lo - 1:hi]))


def test_idealized_naive_matches_its_limit():
    cfg = synth_cfg(horizon=1500, scheme="naive")
    ms = run_idealized(cfg)
    mm, p = rebuild_problem(cfg)
    m = mm.J @ ms.rates[0]
    # naive theta is the one-step information floor, not the filter limit
    assert ms.meta["theta"] == pytest.approx(float(m.min()), rel=1e-12)
    limit = riccati_bisect(m, flow_model(mm).sigma2)
    assert ms.max_mse[-1] == pytest.approx(float(1.0 / limit.min()), rel=1e-8)


def test_idealized_myopic_rates_converge():
    cfg = synth_cfg(horizon=400, scheme="myopic")
    ms = run_idealized(cfg)
    assert ms.rates.shape[0] == 400
    assert ms.block_starts.tolist() == list(range(1, 401))
    assert np.max(np.abs(ms.rates[-1] - ms.rates[-2])) < 1e-8
    # the converged myopic design attains the steady-state optimum
    ss = run_idealized(synth_cfg(horizon=400, scheme="steady_state"))
    assert ms.meta["theta_final"] == pytest.approx(ss.meta["theta"], rel=1e-3)
    assert ms.max_mse[-1] == pytest.approx(ss.max_mse[-1], rel=1e-3)


def test_idealized_requires_true_mu():
    with pytest.raises(ConfigError) as exc:
        run_idealized(synth_cfg(mu_mode="plugin"))
    assert exc.value.field == "mu_mode"


# ------------------------------------------------------------------ simulation


def test_simulation_block_discipline_and_budget():
    cfg = synth_cfg(horizon=12, block_size=5, replications=2, seed=3,
                    scheme="steady_state")
    ms = run_simulation(cfg)
    assert ms.block_starts.tolist() == [1, 6, 11]
    mm, p = rebuild_problem(cfg)
    assert ms.rates.shape == (3, mm.n_o)
    for xi in ms.rates:
        assert np.all(p.R @ xi <= p.b + 1e-8)
        assert np.all(xi <= p.upper + 1e-12) and np.all(xi >= -1e-12)


def test_simulation_equality_mode_budget():
    cfg = synth_cfg(horizon=8, block_size=4, replications=1, seed=3,
                    scheme="steady_state", constraint_mode="equality_with_zeroing")
    ms = run_simulation(cfg)
    mm, p = rebuild_problem(cfg)
    resid = p.R @ ms.rates.T - p.b[:, None]
    eq = np.asarray(p.row_is_equality)
    assert np.all(np.abs(resid[eq]) <= 1e-8)
    assert np.all(resid[~eq] <= 1e-8)


def test_simulation_warmup_block():
    # block 1 follows warmup_scheme; later blocks use the real scheme
    cfg = synth_cfg(horizon=8, block_size=4, replications=1,
                    scheme="steady_state")
    ms = run_simulation(cfg)
    mm, p = rebuild_problem(cfg)
    fm = flow_model(mm)
    naive = solve_naive(p)
    ss = solve_steady_state_E(p, fm)
    assert np.array_equal(ms.rates[0], naive.xi)
    assert np.array_equal(ms.rates[1], ss.xi)
    ms2 = run_simulation(synth_cfg(horizon=8, block_size=4, replications=1,
                                   scheme="steady_state", warmup_scheme="scheme"))
    assert np.array_equal(ms2.rates[0], ss.xi)


@pytest.mark.parametrize("scheme,warmup", [("steady_state", "naive"),
                                           ("steady_state", "scheme"),
                                           ("naive", "naive"),
                                           ("myopic", "naive"),
                                           ("myopic", "scheme")])
def test_simulation_solves_fixed_true_mu_designs_once(tmp_path, monkeypatch,
                                                      scheme, warmup):
    calls = collections.Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # solve_scheme looks the solvers up in flowdesign.design at call time
    for name in ("solve_naive", "solve_steady_state_E", "solve_myopic"):
        counting(design, name)
    counting(harness, "design_problem")
    cfg = synth_cfg(horizon=20, block_size=5, replications=3, seed=4,
                    scheme=scheme, warmup_scheme=warmup)
    ms = run_simulation(cfg)
    solver = {"naive": "solve_naive", "steady_state": "solve_steady_state_E",
              "myopic": "solve_myopic"}
    # myopic follows the filter's information, which every replication
    # shares under true_mu: one solve per block (4 blocks), not per replication
    expect = collections.Counter(
        {solver[scheme]: 4 - (warmup == "naive") if scheme == "myopic" else 1,
         "design_problem": 1})
    if warmup == "naive":
        expect["solve_naive"] = 1
    assert calls == expect
    # the same files as solving every block of every replication
    write_metrics(ms, str(tmp_path / "once"))
    write_metrics(per_period_simulation(cfg), str(tmp_path / "per_block"))
    for name in ("metrics.csv", "rates.csv"):
        assert ((tmp_path / "once" / name).read_bytes()
                == (tmp_path / "per_block" / name).read_bytes())
    # plug-in steady-state designs still follow the filter means, block by
    # block (3 replications x 4 blocks, less a naive warm-up block); the
    # naive design does not depend on mu, so it is still solved once.
    # Every design solves the run's one problem, with J replaced.
    calls.clear()
    run_simulation(replace(cfg, mu_mode="plugin"))
    assert calls.pop("design_problem") == 1
    plugin_solves = {("steady_state", "naive"): 10,
                     ("steady_state", "scheme"): 12,
                     ("naive", "naive"): 1,
                     ("myopic", "naive"): 10,
                     ("myopic", "scheme"): 12}[scheme, warmup]
    assert sum(calls.values()) == plugin_solves


@pytest.mark.parametrize("constraint_mode", ["inequality",
                                             "equality_with_zeroing"])
@pytest.mark.parametrize("scheme", ["myopic", "steady_state"])
def test_plugin_designs_share_the_run_problem(monkeypatch, scheme,
                                              constraint_mode):
    # the run builds one problem; a plug-in design swaps only its J
    runs, remapped, solved = [], [], []
    real_load, real_remap, real_solve = (
        harness.load_instance, harness.remap_mu, harness.solve_scheme)

    def load(cfg):
        runs.append(real_load(cfg))
        return runs[-1]

    def remap(mm, mu_hat):
        remapped.append(np.array(mu_hat))
        return real_remap(mm, mu_hat)

    def solve(scheme, q, *args, **kwargs):
        solved.append((scheme, q))
        return real_solve(scheme, q, *args, **kwargs)

    monkeypatch.setattr(harness, "load_instance", load)
    monkeypatch.setattr(harness, "remap_mu", remap)
    monkeypatch.setattr(harness, "solve_scheme", solve)
    run_simulation(synth_cfg(horizon=12, block_size=4, replications=2,
                             seed=5, scheme=scheme, mu_mode="plugin",
                             constraint_mode=constraint_mode))
    ((mm, _, p, _),) = runs
    plugin = [q for name, q in solved if name != "naive"]
    assert [q for name, q in solved if name == "naive"] == [p]
    assert len(plugin) == len(remapped) == 4  # 2 replications x 2 blocks
    for q, mu_hat in zip(plugin, remapped):
        assert q is not p
        assert q.upper is p.upper and q.row_is_equality is p.row_is_equality
        assert q.R is p.R and q.b is p.b
        assert q.J.tobytes() == real_remap(mm, mu_hat).J.tobytes()


@pytest.mark.parametrize("horizon,block_size", [(11, 4), (6, 1), (5, 8)],
                         ids=["partial-last-block", "B=1", "B>=T"])
@pytest.mark.parametrize("warmup", ["naive", "scheme"])
# inequality rows are the default mode, so only equality ids name it
@pytest.mark.parametrize("mu_mode,constraint_mode", [
    ("true_mu", "inequality"), ("plugin", "inequality"),
    ("true_mu", "equality_with_zeroing"), ("plugin", "equality_with_zeroing"),
], ids=["true_mu", "plugin", "true_mu-equality", "plugin-equality"])
@pytest.mark.parametrize("scheme", ["naive", "myopic", "steady_state"])
def test_simulation_matches_per_period_oracle(scheme, mu_mode,
                                              constraint_mode, warmup,
                                              horizon, block_size):
    # small means and a fast walk, so some plug-in means fall below the floor
    cfg = synth_cfg(horizon=horizon, block_size=block_size, replications=2,
                    seed=6, scheme=scheme, mu_mode=mu_mode,
                    warmup_scheme=warmup, mu_scale=10.0, sigma_rel=0.5,
                    constraint_mode=constraint_mode)
    ms = run_simulation(cfg)
    ref = per_period_simulation(cfg)
    assert np.array_equal(ms.per_flow_mse, ref.per_flow_mse)
    assert np.array_equal(ms.rates, ref.rates)
    assert ms.median == ref.median


@pytest.mark.parametrize("replications", [1, 4])
@pytest.mark.parametrize("scheme", ["naive", "myopic", "steady_state"])
def test_stacked_true_mu_filter_matches_per_period_oracle(scheme,
                                                          replications):
    cfg = ExperimentConfig(topology_kind="grid", rows=3, cols=3,
                           topology_seed=1, budget=0.02, scheme=scheme,
                           mu_mode="true_mu", horizon=30, block_size=10,
                           replications=replications, seed=5)
    ms = run_simulation(cfg)
    ref = per_period_simulation(cfg)
    assert np.array_equal(ms.per_flow_mse, ref.per_flow_mse)
    assert np.array_equal(ms.rates, ref.rates)
    assert ms.median == ref.median
    mm, _ = rebuild_problem(cfg)
    # every block draws fewer binomials than n_g, and the naive warm-up
    # merges present measurements (equal rates along a path), so the
    # oracle compares the grouped draw where it groups
    plans = [simulate._draw_plan(mm, xi) for xi in ms.rates]
    assert all(flow.size < mm.n_g for flow, _, _ in plans)
    assert plans[0][0].size < np.count_nonzero(ms.rates[0][mm.k_of])
    if scheme == "myopic":
        # some flows get no information in a block: their fused
        # observations are NaN and the stacked update only predicts them
        assert np.any(ms.rates @ mm.J.T == 0)


@pytest.mark.parametrize("mu_mode", ["true_mu", "plugin"])
@pytest.mark.parametrize("scheme", ["myopic", "steady_state"])
def test_simulation_independent_of_draw_threads(monkeypatch, scheme, mu_mode):
    # 5 replications: more tasks than workers for every W, and for W > 1
    # not a multiple of W
    cfg = synth_cfg(horizon=11, block_size=4, replications=5, seed=8,
                    scheme=scheme, mu_mode=mu_mode, mu_scale=10.0,
                    sigma_rel=0.5)
    ref = per_period_simulation(cfg)
    real = harness._draw
    draws = []  # (on the main thread, live threads) per block draw

    def sample(*args):
        draws.append((threading.current_thread() is threading.main_thread(),
                      threading.active_count()))
        return real(*args)

    monkeypatch.setattr(harness, "_draw", sample)
    before = threading.active_count()
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers with the caller often
    try:
        for w in (1, 2, 3):  # W = 3 is more threads than this test may have cores
            monkeypatch.setattr(harness, "_draw_threads", lambda replications: w)
            draws.clear()
            runs.append(run_simulation(cfg))
            # every draw runs on the run's pool of at most W workers,
            # W = 1 included, and the pool is joined when the run ends
            assert max(live for _, live in draws) <= before + w
            assert not any(on_main for on_main, _ in draws)
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
    for ms in runs:
        assert np.array_equal(ms.per_flow_mse, ref.per_flow_mse)
        assert np.array_equal(ms.rates, ref.rates)
        assert ms.median == ref.median
        assert ms.per_flow_mse.tobytes() == runs[0].per_flow_mse.tobytes()


@pytest.mark.parametrize("affinity,cpu_count,replications,w", [
    ({0, 1, 2, 3}, 8, 10, 4),
    ({0, 1, 2, 3}, 8, 3, 3),
    (None, 3, 10, 3),  # no affinity masks: os.cpu_count()
    (None, 3, 2, 2),
    (None, None, 10, 1),  # core count unknown
])
def test_draw_threads_counts_usable_cores(monkeypatch, affinity, cpu_count,
                                          replications, w):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert harness._draw_threads(replications) == w


def _failing_draw(monkeypatch, fails):
    """Patch harness._draw, the closed loop's block draw, to raise
    ValidationError on the call ``fails(call_number)`` picks; calls are
    numbered from 1."""
    real = harness._draw
    lock = threading.Lock()
    count = [0]

    def sample(*args):
        with lock:
            count[0] += 1
            n = count[0]
        if fails(n):
            raise ValidationError(f"injected failure on draw {n}")
        return real(*args)

    monkeypatch.setattr(harness, "_draw", sample)


@pytest.mark.parametrize("where,w", [("third-call", 1), ("third-call", 2),
                                     ("third-call", 3), ("helper-thread", 2),
                                     ("helper-thread", 3)])
def test_simulation_draw_failure_reraises_and_joins(monkeypatch, where, w):
    monkeypatch.setattr(harness, "_draw_threads", lambda replications: w)
    if where == "third-call":
        _failing_draw(monkeypatch, lambda n: n == 3)
    else:
        _failing_draw(
            monkeypatch,
            lambda n: threading.current_thread() is not threading.main_thread())
    before = threading.active_count()
    with pytest.raises(ValidationError, match="injected failure"):
        run_simulation(synth_cfg(horizon=12, block_size=4, replications=5,
                                 seed=3, mu_mode="plugin"))
    assert threading.active_count() == before


@pytest.mark.parametrize("where,w", [("third-call", 1), ("third-call", 2),
                                     ("helper-thread", 2)])
def test_true_mu_fused_draw_failure_reraises_and_joins(monkeypatch, where, w):
    monkeypatch.setattr(harness, "_draw_threads", lambda replications: w)
    if where == "third-call":
        _failing_draw(monkeypatch, lambda n: n == 3)
    else:
        _failing_draw(
            monkeypatch,
            lambda n: threading.current_thread() is not threading.main_thread())
    before = threading.active_count()
    with pytest.raises(ValidationError, match="injected failure"):
        run_simulation(synth_cfg(horizon=12, block_size=4, replications=5,
                                 seed=3, mu_mode="true_mu"))
    assert threading.active_count() == before


def test_simulate_cli_exits_1_on_draw_failure(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "_draw_threads", lambda replications: 2)
    _failing_draw(monkeypatch, lambda n: n == 3)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("topology_kind = line\nn_nodes = 5\nn_flows = 3\n"
                   "budget = 0.02\nhorizon = 12\nblock_size = 4\n"
                   "replications = 5\n")
    before = threading.active_count()
    rc = cli.main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "injected failure" in capsys.readouterr().err
    assert threading.active_count() == before


def test_plugin_simulation_steps_all_replications_in_one_update(monkeypatch):
    # the fused blocks do not depend on the plug-in mean, so plugin
    # filters like true_mu: one stacked update per period, not one per
    # replication and period
    real = harness._update
    shapes = []

    def update(info, *args):
        shapes.append(info.shape)
        return real(info, *args)

    monkeypatch.setattr(harness, "_update", update)
    run_simulation(synth_cfg(horizon=12, block_size=4, replications=3,
                             n_flows=4, seed=3, mu_mode="plugin"))
    assert shapes == [(3, 4)] * 12


@pytest.mark.parametrize("bad", ["negative-info", "nan-info", "nan-mean"])
@pytest.mark.parametrize("mu_mode", ["true_mu", "plugin"])
def test_simulation_rejects_bad_block_end_state(monkeypatch, mu_mode, bad):
    # update 4 ends block 1: in both mu modes one update per period
    # steps every replication
    real = harness._update
    calls = [0]

    def update(*args):
        info, mean = real(*args)
        calls[0] += 1
        if calls[0] == 4:
            info, mean = info.copy(), mean.copy()
            if bad == "nan-mean":
                mean[...] = np.nan
            else:
                info[0] = -1.0 if bad == "negative-info" else np.nan
        return info, mean

    monkeypatch.setattr(harness, "_update", update)
    match = "mean must be finite" if bad == "nan-mean" else "information"
    with pytest.raises(ValidationError, match=match):
        run_simulation(synth_cfg(horizon=8, block_size=4, replications=2,
                                 seed=3, mu_mode=mu_mode))
    assert calls[0] >= 4


def test_simulation_deterministic(tmp_path):
    cfg = synth_cfg(horizon=10, block_size=5, replications=3, seed=11,
                    mu_mode="plugin")
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert np.array_equal(a.per_flow_mse, b.per_flow_mse)
    assert np.array_equal(a.rates, b.rates)
    write_metrics(a, str(tmp_path / "a"))
    write_metrics(b, str(tmp_path / "b"))
    for name in ("metrics.csv", "rates.csv"):
        fa = (tmp_path / "a" / name).read_bytes()
        fb = (tmp_path / "b" / name).read_bytes()
        assert fa == fb


def test_simulation_seed_matters():
    a = run_simulation(synth_cfg(horizon=10, replications=2, seed=1))
    b = run_simulation(synth_cfg(horizon=10, replications=2, seed=2))
    assert not np.array_equal(a.per_flow_mse, b.per_flow_mse)


def test_simulation_trace_replay(tmp_path):
    cfg = synth_cfg(horizon=20, replications=1)
    mm, _ = rebuild_problem(cfg)
    fm = flow_model(mm)
    tr = gen_random_walk_trace(fm, T=20, seed=9)
    path = str(tmp_path / "trace.csv")
    save_trace(tr, path)
    ms = run_simulation(synth_cfg(horizon=20, replications=1, trace_file=path))
    assert ms.meta["trace_source"] == "file-replay"
    with pytest.raises(ConfigError) as exc:
        run_simulation(synth_cfg(horizon=21, replications=1, trace_file=path))
    assert exc.value.field == "horizon"
    short = gen_random_walk_trace(
        flow_model(build_measurement_model(TopologySpec(
            nodes=("a", "b"), edges=(("a", "b"), ("b", "a")),
            flows=(Flow("a", "b", sigma2=1.0, mu=100.0),),
            budgets={"a": 0.1, "b": 0.1}))), T=20, seed=9)
    save_trace(short, str(tmp_path / "short.csv"))
    with pytest.raises(ConfigError) as exc:
        run_simulation(synth_cfg(horizon=20, replications=1,
                                 trace_file=str(tmp_path / "short.csv")))
    assert exc.value.field == "trace_file"


def test_replayed_trace_is_checked_once_and_read_in_place(tmp_path, monkeypatch):
    # a file longer than the horizon: the run reads rows 1..horizon of the
    # Trace that load_trace built, after that Trace's one count check
    cfg = synth_cfg(horizon=20, block_size=5, replications=2, mu_mode="plugin")
    fm = flow_model(rebuild_problem(cfg)[0])
    long, cut = str(tmp_path / "long.csv"), str(tmp_path / "cut.csv")
    trace = gen_random_walk_trace(fm, T=30, seed=9)
    save_trace(trace, long)
    save_trace(simulate.Trace(x=trace.x[:20], source="file-replay"), cut)
    loaded, checked = [], []
    load_trace, count_fault = simulate.load_trace, simulate._count_fault
    monkeypatch.setattr(harness, "load_trace",
                        lambda path: loaded.append(load_trace(path)) or loaded[-1])
    monkeypatch.setattr(simulate, "_count_fault",
                        lambda x: checked.append(np.shape(x)) or count_fault(x))
    assert harness._get_trace(replace(cfg, trace_file=long), fm) is loaded[0]
    checked.clear()
    ms = run_simulation(replace(cfg, trace_file=long))
    assert checked == [(30, fm.n_r)]
    ref = run_simulation(replace(cfg, trace_file=cut))
    assert np.array_equal(ms.per_flow_mse, ref.per_flow_mse)
    assert np.array_equal(ms.rates, ref.rates)


def test_simulation_noiseless_full_rate_tracks_analytic_variance(tmp_path):
    # With the whole budget on one flow the design saturates xi = 1 and
    # sampling returns the exact volumes. The squared tracking error then
    # obeys e' = g (e - w), so its stationary variance is
    # g^2 sigma^2 / (1 - g^2) with g the steady-state complement gain --
    # a factor g/(1+g) BELOW the filter's own believed variance 1/info.
    spec = TopologySpec(
        nodes=("a", "b"),
        edges=(("a", "b"), ("b", "a")),
        flows=(Flow("a", "b", sigma2=1.0e6, mu=1.0e6),),
        budgets={"a": 1.0, "b": 1.0})
    d = str(tmp_path / "topo")
    save_topology(spec, d)
    cfg = ExperimentConfig(topology_dir=d, scheme="steady_state",
                           mu_mode="true_mu", horizon=4000, block_size=4000,
                           warmup_scheme="scheme", replications=1, seed=5,
                           trace_seed=3)
    ms = run_simulation(cfg)
    mm = build_measurement_model(spec)
    k = int(np.flatnonzero(np.any(mm.J > 0, axis=0))[0])
    assert ms.rates[0, k] == pytest.approx(1.0, abs=1e-9)

    m = float((mm.J @ ms.rates[0])[0])
    mt = float(steady_state_info(m, 1.0e6))
    g = 1.0 - m / mt
    v_inf = g * g * (1.0e6 + 1.0 / 12.0) / (1.0 - g * g)  # walk var + rounding
    emp = float(ms.per_flow_mse[1000:, 0].mean())
    assert emp == pytest.approx(v_inf, rel=0.1)
    assert emp < 0.5 / mt  # far below the believed variance, as predicted


# ------------------------------------------------------------------ files


def _float_bits(texts) -> bytes:
    return np.array([float(v) for v in texts]).tobytes()


def test_write_metrics_formats(tmp_path, monkeypatch):
    """Every file the package writes: `#` headers as pinned, every float
    read back to its bits, every line ended by "\n" alone."""
    # a signed zero, an unobservable flow's inf and the least subnormal
    odd = np.array([-0.0, np.inf, 5e-324])
    ms = run_simulation(synth_cfg(horizon=9, block_size=4, replications=2, seed=7))
    per_flow, rates = ms.per_flow_mse.copy(), ms.rates.copy()
    per_flow[1, :3] = rates[1, :3] = odd
    ms = replace(ms, max_mse=per_flow.max(axis=1), per_flow_mse=per_flow,
                 rates=rates, median=-0.0)
    out = str(tmp_path / "out")
    write_metrics(ms, out, flows_dump=True)

    lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert lines[:3] == ["# flowdesign metrics.csv v1",
                         "# median_max_mse -0 window 2..9", "t,max_mse,scheme"]
    rows = [ln.split(",") for ln in lines[3:]]
    assert [int(r[0]) for r in rows] == list(range(1, 10))
    assert _float_bits(r[1] for r in rows) == ms.max_mse.tobytes()
    assert {r[2] for r in rows} == {ms.scheme}

    lines = open(os.path.join(out, "rates.csv")).read().splitlines()
    assert lines[:3] == ["# flowdesign rates.csv v1", "# block_starts 1 5 9",
                         "block,op_id,xi"]
    body = [ln.split(",") for ln in lines[3:]]
    n_o = ms.rates.shape[1]
    assert [(int(b), int(k)) for b, k, _ in body] == [
        (bi, k) for bi in (1, 2, 3) for k in range(1, n_o + 1)]
    assert _float_bits(v for _, _, v in body) == ms.rates.tobytes()

    lines = open(os.path.join(out, "flows.csv")).read().splitlines()
    assert lines[:2] == ["# flowdesign flows.csv v1", "t,flow,mse"]
    body = [ln.split(",") for ln in lines[2:]]
    n_r = ms.per_flow_mse.shape[1]
    assert [(int(t), int(i)) for t, i, _ in body] == [
        (t, i) for t in range(1, 10) for i in range(1, n_r + 1)]
    assert _float_bits(v for _, _, v in body) == ms.per_flow_mse.tobytes()

    # design writes xi.csv, theta.txt and socp.txt from the same floats
    solve = cli.solve_scheme

    def odd_design(*args, **kw):
        res = solve(*args, **kw)
        return replace(res, xi=np.r_[odd, res.xi[3:]], theta=5e-324)

    monkeypatch.setattr(cli, "solve_scheme", odd_design)
    bundle, trace = str(tmp_path / "bundle"), str(tmp_path / "trace.csv")
    spec = synth_topology("grid", rows=3, cols=3, budget=0.02, seed=1)
    save_topology(spec, bundle)
    mm = build_measurement_model(spec)
    save_trace(gen_random_walk_trace(flow_model(mm), 5, seed=1), trace)
    xi = solve_steady_state_E(design_problem(mm), flow_model(mm)).xi
    assert cli.main(["design", "--topology", bundle, "--out", out]) == 0
    lines = open(os.path.join(out, "xi.csv")).read().splitlines()
    assert lines[:2] == ["# flowdesign xi.csv v1", "op_id,xi"]
    body = [ln.split(",") for ln in lines[2:]]
    assert [int(k) for k, _ in body] == list(range(1, xi.size + 1))
    assert _float_bits(v for _, v in body) == np.r_[odd, xi[3:]].tobytes()
    assert open(os.path.join(out, "theta.txt")).read() == "4.9406564584124654e-324\n"

    written = [os.path.join(d, f) for d, _, fs in os.walk(tmp_path) for f in fs]
    assert len(written) == 11  # six outputs, four bundle files, one trace
    for path in written:
        with open(path, "rb") as fh:
            assert b"\r" not in fh.read(), path


def _per_value_metrics(ms) -> dict:
    """write_metrics' three files, line by line, with every float
    formatted on its own."""
    (median,) = float_texts(ms.median)
    return {
        "metrics.csv": [
            "# flowdesign metrics.csv v1",
            f"# median_max_mse {median} window {ms.window[0]}..{ms.window[1]}",
            "t,max_mse,scheme",
            *(f"{t},{format(v, '.17g')},{ms.scheme}"
              for t, v in zip(ms.t.tolist(), ms.max_mse.tolist()))],
        "rates.csv": [
            "# flowdesign rates.csv v1",
            "# block_starts " + " ".join(map(str, ms.block_starts.tolist())),
            "block,op_id,xi",
            *(f"{b},{k},{format(v, '.17g')}"
              for b, row in enumerate(ms.rates.tolist(), 1)
              for k, v in enumerate(row, 1))],
        "flows.csv": [
            "# flowdesign flows.csv v1", "t,flow,mse",
            *(f"{t},{i},{format(v, '.17g')}"
              for t, row in zip(ms.t.tolist(), ms.per_flow_mse.tolist())
              for i, v in enumerate(row, 1))]}


def test_write_metrics_matches_per_value_oracle(tmp_path):
    # rows of rates repeat across blocks, and -0.0 sits next to +0.0
    rates = np.array([[0.25, -0.0, 1 / 3, 0.0], [0.25, -0.0, 1 / 3, 0.0],
                      [5e-324, 0.25, 0.25, 1 / 3]])
    per_flow = np.array([[1.5, np.inf, -0.0], [1 / 3, 1 / 3, 2.0],
                         [0.0, 1.5, 1e308], [2.0, 2.0, 2.0],
                         [-0.0, np.nan, 1 / 3]])
    ms = harness.MetricsSeries(
        t=np.arange(1, 6), max_mse=per_flow.max(axis=1),
        per_flow_mse=per_flow, block_starts=np.array([1, 3, 5]), rates=rates,
        median=-0.0, window=(2, 5), scheme="myopic")
    out = tmp_path / "out"
    write_metrics(ms, str(out), flows_dump=True)
    for name, lines in _per_value_metrics(ms).items():
        assert (out / name).read_bytes().decode().split("\n") == lines + [""]


def test_flows_dump_only_when_asked(tmp_path):
    ms = run_simulation(synth_cfg(horizon=4, replications=1))
    out = str(tmp_path / "out")
    write_metrics(ms, out)
    assert not os.path.exists(os.path.join(out, "flows.csv"))
