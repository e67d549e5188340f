from dataclasses import replace

import numpy as np
import pytest

from flowdesign import (
    ExperimentConfig,
    Flow,
    FlowModel,
    Trace,
    TopologySpec,
    ValidationError,
    build_measurement_model,
    fuse_gls,
    gen_random_walk_trace,
    load_trace,
    predict_update,
    run_simulation,
    sample_packets,
    save_trace,
    steady_state_info,
    synth_topology,
)
from flowdesign import harness, simulate

from oracles import dense_gls


def bidir(links):
    out = []
    for u, v in links:
        out.append((u, v))
        out.append((v, u))
    return tuple(out)


def two_flow_mm(mu=(100.0, 50.0), sigma2=(1.0, 1.0)):
    t = TopologySpec(
        nodes=("a", "b", "c"),
        edges=bidir([("a", "b"), ("b", "c")]),
        flows=(Flow("a", "c", sigma2=sigma2[0], mu=mu[0]),
               Flow("a", "b", sigma2=sigma2[1], mu=mu[1])),
        budgets={"a": 0.1, "b": 0.1, "c": 0.1},
    )
    return build_measurement_model(t)


# ------------------------------------------------------------------ traces


def test_trace_gen_deterministic_and_shaped():
    fm = FlowModel(sigma2=[25.0, 100.0], mu=[1000.0, 2000.0])
    a = gen_random_walk_trace(fm, T=50, seed=3)
    b = gen_random_walk_trace(fm, T=50, seed=3)
    assert np.array_equal(a.x, b.x)
    assert a.x.shape == (50, 2)
    assert a.source == "synthetic-random-walk"
    assert np.array_equal(a.x, np.rint(a.x))
    c = gen_random_walk_trace(fm, T=50, seed=4)
    assert not np.array_equal(a.x, c.x)


def test_trace_floor_clamps():
    fm = FlowModel(sigma2=[1e6], mu=[10.0])
    tr = gen_random_walk_trace(fm, T=200, seed=0, floor=1.0)
    assert np.min(tr.x) >= 1.0


@pytest.mark.parametrize("floor,rule", [(0.5, "integer packet counts"),
                                        (-1.0, "finite and >= 0"),
                                        (np.nan, "finite and >= 0"),
                                        (1e19, r"at most 2\*\*53")])
def test_trace_floor_must_be_a_packet_count(floor, rule):
    # a walk clamped at 0.5 would only fail later, in Trace, naming no floor
    fm = FlowModel(sigma2=[4.0 * 1e4], mu=[100.0])
    with pytest.raises(ValidationError, match=f"^floor must be {rule}$"):
        gen_random_walk_trace(fm, T=50, seed=1, floor=floor)


def test_trace_increment_variance():
    # far from the floor the increments are rounded Gaussians:
    # Var = sigma2 + 1/12 up to Monte Carlo error
    fm = FlowModel(sigma2=[400.0], mu=[1e6])
    tr = gen_random_walk_trace(fm, T=100_000, seed=7)
    inc = np.diff(tr.x[:, 0])
    se = 400.0 * np.sqrt(2.0 / inc.size)
    assert abs(np.var(inc) - (400.0 + 1.0 / 12.0)) < 3 * se


def test_trace_validation():
    fm = FlowModel(sigma2=[1.0], mu=[10.0])
    with pytest.raises(ValidationError):
        gen_random_walk_trace(fm, T=0)
    with pytest.raises(ValidationError, match="^seed must be >= 0$"):
        gen_random_walk_trace(fm, T=5, seed=-1)
    with pytest.raises(ValidationError):
        Trace(x=np.array([[1.0, -2.0]]), source="file-replay")
    with pytest.raises(ValidationError):
        Trace(x=np.zeros((0, 2)), source="file-replay")
    with pytest.raises(ValidationError, match="integer packet counts"):
        Trace(x=np.array([[1.5, 2.0]]), source="file-replay")


def test_trace_owns_a_read_only_copy_of_a_writeable_array():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    tr = Trace(x=x, source="file-replay")
    x[0, 0] = 9.0
    assert np.array_equal(tr.x, [[1.0, 2.0], [3.0, 4.0]])
    assert not tr.x.flags.writeable
    with pytest.raises(ValueError):
        tr.x[0, 0] = 9.0


@pytest.mark.parametrize("make", ["synthetic", "file"])
def test_trace_constructors_store_their_array_uncopied(make, tmp_path, monkeypatch):
    # a copy would double the trace's memory in every closed-loop run
    fm = FlowModel(sigma2=[25.0, 100.0], mu=[500.0, 700.0])
    tr = gen_random_walk_trace(fm, T=30, seed=1)
    path = str(tmp_path / "trace.csv")
    save_trace(tr, path)
    passed = []

    def recording(x, source):
        passed.append(x)
        return Trace(x=x, source=source)

    monkeypatch.setattr(simulate, "Trace", recording)
    tr = gen_random_walk_trace(fm, T=30, seed=1) if make == "synthetic" else load_trace(path)
    assert tr.x is passed[0]
    assert not tr.x.flags.writeable


# ------------------------------------------------------------------ sampling


def test_full_rate_sampling_is_exact():
    mm = two_flow_mm()
    x = np.array([120.0, 60.0])
    n = sample_packets(x, mm, np.ones(mm.n_o), np.random.default_rng(0))
    assert n.dtype == np.int64 and n.shape == (mm.n_g,)
    assert np.array_equal(n, np.rint(x)[mm.l_of].astype(int))


def test_zero_rate_measurements_absent():
    mm = two_flow_mm()
    xi = np.zeros(mm.n_o)
    n = sample_packets([120.0, 60.0], mm, xi, np.random.default_rng(0))
    assert np.all(n == 0)
    # nothing is present, so fusion sees no measurement at all
    y, m = fuse_gls(n, mm, xi, mm.mu)
    assert np.all(m == 0.0) and np.all(np.isnan(y))


def test_sampling_unbiased_and_variance():
    mm = two_flow_mm()
    xi = np.full(mm.n_o, 0.05)
    x = np.array([10_000.0, 5_000.0])
    rng = np.random.default_rng(123)
    reps = 3000
    zs = np.empty((reps, mm.n_g))
    for r in range(reps):
        zs[r] = sample_packets(x, mm, xi, rng) / xi[mm.k_of]
    true = x[mm.l_of]
    var_true = true * (1 - 0.05) / 0.05
    se_mean = np.sqrt(var_true / reps)
    assert np.all(np.abs(zs.mean(axis=0) - true) < 4 * se_mean)
    # sample variance within 4 standard errors of the binomial formula
    se_var = var_true * np.sqrt(2.0 / reps)
    assert np.all(np.abs(zs.var(axis=0, ddof=1) - var_true) < 4 * se_var)


def test_sampling_determinism_by_seed():
    mm = two_flow_mm()
    a = sample_packets([100.0, 50.0], mm, np.full(mm.n_o, 0.3),
                       np.random.default_rng(9))
    b = sample_packets([100.0, 50.0], mm, np.full(mm.n_o, 0.3),
                       np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_block_sampling_equals_one_period_calls():
    mm = two_flow_mm()
    xi = np.zeros(mm.n_o)
    xi[mm.k_of[0]] = 0.3  # flow 0's second observation point stays at rate 0
    absent = xi[mm.k_of] == 0
    assert absent.any() and not absent.all()
    x = np.array([[120.0, 60.0], [0.0, 7.0], [95.0, 0.0], [3.0, 41.0]])
    block_rng = np.random.default_rng(17)
    step_rng = np.random.default_rng(17)
    block = sample_packets(x, mm, xi, block_rng)
    rows = np.stack([sample_packets(row, mm, xi, step_rng) for row in x])
    assert block.shape == rows.shape == (4, mm.n_g)
    assert block.dtype == rows.dtype == np.int64
    assert block.tobytes() == rows.tobytes()
    assert block_rng.bit_generator.state == step_rng.bit_generator.state
    assert np.all(block[:, absent] == 0)


def test_sampling_validation():
    mm = two_flow_mm()
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        sample_packets([100.0], mm, np.zeros(mm.n_o), rng)
    with pytest.raises(ValidationError):
        sample_packets([100.0, 50.0], mm, np.full(mm.n_o, 1.5), rng)
    with pytest.raises(ValidationError):
        sample_packets([100.0, 50.0], mm, np.full(mm.n_o, -0.1), rng)
    with pytest.raises(ValidationError):
        sample_packets([100.5, 50.0], mm, np.zeros(mm.n_o), rng)
    # a block is checked in every row, not just the first
    with pytest.raises(ValidationError):
        sample_packets([[100.0, 50.0], [100.0, 50.5]], mm, np.zeros(mm.n_o), rng)
    with pytest.raises(ValidationError):
        sample_packets(np.ones((2, 3)), mm, np.zeros(mm.n_o), rng)
    with pytest.raises(ValidationError, match="one entry per observation point"):
        sample_packets([100.0, 50.0], mm, np.zeros(mm.n_o + 1), rng)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            sample_packets([100.0, bad], mm, np.zeros(mm.n_o), rng)
    with pytest.raises(TypeError):
        sample_packets([100.0, 50.0], mm, np.zeros(mm.n_o))


def test_counts_stop_at_two_to_the_53():
    # past 2**53 floats skip integers, and 1e19 would cast to a negative
    # int64; the one count rule stops both, and admits the ceiling itself
    with pytest.raises(ValidationError, match=r"^trace volumes must be at most 2\*\*53$"):
        Trace(x=np.array([[2.0 ** 53 + 2, 5.0]]), source="file-replay")
    mm = two_flow_mm()
    top = Trace(x=np.array([[2.0 ** 53, 5.0]]), source="file-replay")
    n = sample_packets(top.x[0], mm, np.ones(mm.n_o), np.random.default_rng(0))
    assert n.tolist() == [2 ** 53, 2 ** 53, 5]


# ------------------------------------------------------------------ grouped draw


_P_MIN = 1e-3  # a sound draw fails each fixed-seed test below with this chance


def chain_mm(hops):
    """One flow (mu 5) along a line of hops + 1 routers: it crosses hops
    observation points, one per router after the first."""
    nodes = tuple(f"n{i}" for i in range(hops + 1))
    t = TopologySpec(nodes=nodes, edges=bidir(zip(nodes, nodes[1:])),
                     flows=(Flow(nodes[0], nodes[-1], sigma2=1.0, mu=5.0),),
                     budgets={n: 0.3 for n in nodes})
    return build_measurement_model(t)


def pooled_tail(counts, expected):
    """``counts`` with every bin from the last one expecting >= 5 on
    pooled into that bin."""
    last = np.flatnonzero(expected >= 5)[-1]
    return np.append(counts[:last], counts[last:].sum())


def test_grouped_draw_follows_the_summed_binomial_law():
    stats = pytest.importorskip("scipy.stats")
    mm = chain_mm(3)
    xi = np.full(mm.n_o, 0.3)
    plan = simulate._draw_plan(mm, xi)
    assert [a.tolist() for a in plan] == [[0], [3], [0.3]]  # one group, K = 3
    periods = 20_000
    x = np.full((periods, 1), 5.0)
    grouped = simulate._sample_flow_sums(
        x.astype(np.int64), np.random.default_rng(11), plan, mm.n_r)[:, 0]
    assert np.array_equal(grouped, np.rint(grouped))
    # three Binomial(5, 0.3) draws sum to one Binomial(15, 0.3)
    expected = periods * stats.binom.pmf(np.arange(16), 15, 0.3)
    observed = np.bincount(grouped.astype(np.int64), minlength=16)
    assert stats.chisquare(pooled_tail(observed, expected),
                           pooled_tail(expected, expected)).pvalue > _P_MIN
    # and the same law as the summed counts of sample_packets
    summed = sample_packets(x, mm, xi, np.random.default_rng(12)).sum(axis=1)
    table = np.array([pooled_tail(observed, expected),
                      pooled_tail(np.bincount(summed, minlength=16), expected)])
    assert stats.chi2_contingency(table).pvalue > _P_MIN


def test_grouped_draw_plans_one_draw_per_flow_and_rate():
    mm = chain_mm(4)
    xi = np.zeros(mm.n_o)
    xi[mm.k_of] = [0.3, 0.0, 0.3, 0.5]  # along the path; other points unused
    flow, mult, rate = simulate._draw_plan(mm, xi)
    # the rate-0 point takes no draw; the two at 0.3 take one
    assert flow.tolist() == [0, 0] and mult.tolist() == [2, 1]
    assert rate.tolist() == [0.3, 0.5]
    # at full rate every packet survives: each group returns K x
    full = simulate._draw_plan(mm, np.ones(mm.n_o))
    sums = simulate._sample_flow_sums(np.array([7]), np.random.default_rng(0),
                                      full, mm.n_r)
    assert sums.tolist() == [28.0]
    # and with every rate 0 there is nothing to draw
    none = simulate._draw_plan(mm, np.zeros(mm.n_o))
    assert all(a.size == 0 for a in none)
    assert simulate._sample_flow_sums(np.array([[7], [3]]),
                                      np.random.default_rng(0), none,
                                      mm.n_r).tolist() == [[0.0], [0.0]]


def test_grouped_block_draw_equals_one_period_draws():
    mm = two_flow_mm()
    xi = np.full(mm.n_o, 0.3)
    xi[mm.k_of[1]] = 0.6  # flow 0 crosses one point at each rate
    plan = simulate._draw_plan(mm, xi)
    x = np.array([[120, 60], [0, 7], [95, 0], [3, 41]])
    block_rng = np.random.default_rng(17)
    step_rng = np.random.default_rng(17)
    block = simulate._sample_flow_sums(x, block_rng, plan, mm.n_r)
    rows = np.stack([simulate._sample_flow_sums(row, step_rng, plan, mm.n_r)
                     for row in x])
    assert block.shape == (4, mm.n_r)
    assert block.tobytes() == rows.tobytes()
    assert block_rng.bit_generator.state == step_rng.bit_generator.state


def test_grouped_draw_shares_the_input_check():
    # the closed loop's grouped draw checks nothing again: Trace checks
    # its volumes and check_design_output its rates where they enter;
    # the public per-measurement draw keeps every check of its own
    mm = two_flow_mm()
    rng = np.random.default_rng(0)
    xi = np.full(mm.n_o, 0.3)
    for x, rates, message in (
            ([100.0], xi, "one entry per flow"),
            ([100.0, 50.0], np.full(mm.n_o, 1.5), "must lie in"),
            ([100.0, 50.5], xi, "integer packet counts"),
            ([100.0, np.nan], xi, "finite and >= 0"),
            ([1e19, 50.0], xi, r"at most 2\*\*53")):
        with pytest.raises(ValidationError, match=message):
            sample_packets(x, mm, rates, rng)


def test_grouped_draw_rejects_products_past_int64(long_chain, monkeypatch):
    # K x is bounded once per run, from each flow's largest volume and
    # its measurement count: 2**53 packets at K = 1,024 would wrap, so
    # the run stops before it solves a design or draws a packet
    bundle, trace = long_chain
    calls = []
    for name in ("solve_scheme", "_draw"):
        monkeypatch.setattr(harness, name,
                            lambda *a, name=name, **kw: calls.append(name))
    cfg = ExperimentConfig(topology_dir=bundle, trace_file=trace(2 ** 53),
                           scheme="naive", horizon=1, replications=1)
    with pytest.raises(ValidationError,
                       match="^volumes times measurements per rate exceed int64$"):
        run_simulation(cfg)
    assert calls == []
    # one packet fewer fits, and the run draws it
    monkeypatch.undo()
    ms = run_simulation(replace(cfg, trace_file=trace(2 ** 53 - 1)))
    assert np.isfinite(ms.median)
    # at the count ceiling a plan of a one-hop model still draws
    mm = chain_mm(1)
    sums = simulate._sample_flow_sums(np.array([2 ** 53]),
                                      np.random.default_rng(0),
                                      simulate._draw_plan(mm, np.ones(mm.n_o)),
                                      mm.n_r)
    assert sums.tolist() == [2.0 ** 53]


# ------------------------------------------------------------------ fusion


def estimates(n, mm, xi):
    """z = n / xi_k for the present measurements, 0 for the absent ones
    (the dense oracle's input)."""
    rate = xi[mm.k_of]
    return np.divide(n, rate, out=np.zeros(mm.n_g), where=rate > 0)


def test_fusion_equal_weights_is_average():
    mm = two_flow_mm()
    xi = np.full(mm.n_o, 0.02)
    n = sample_packets([10_000.0, 5_000.0], mm, xi, np.random.default_rng(1))
    y, m = fuse_gls(n, mm, xi, mm.mu)
    z0 = estimates(n, mm, xi)[mm.l_of == 0]
    assert y[0] == pytest.approx(z0.mean(), rel=1e-12)
    assert m[0] == pytest.approx(2 * 0.02 / 100.0, rel=1e-12)
    assert m[1] == pytest.approx(0.02 / 50.0, rel=1e-12)


def test_fusion_weighted_mean_and_dense_oracle():
    mm = two_flow_mm()
    # unequal rates across flow 0's two observation points; the first is
    # shared with flow 1, which therefore gets observed at rate 0.02 too
    xi = np.zeros(mm.n_o)
    k0, k1 = mm.k_of[mm.l_of == 0]  # flow 0's OPs in path order
    xi[k0] = 0.02
    xi[k1] = 0.01
    n = sample_packets([10_000.0, 5_000.0], mm, xi, np.random.default_rng(5))
    y, m = fuse_gls(n, mm, xi, mm.mu)
    z = estimates(n, mm, xi)
    z0 = z[mm.l_of == 0]
    assert y[0] == pytest.approx((2 * z0[0] + z0[1]) / 3, rel=1e-12)
    w = xi[mm.k_of] / mm.mu[mm.l_of]
    y_ref, diag_ref, _ = dense_gls(mm.L, w, z)
    assert np.allclose(y, y_ref, rtol=1e-12)
    assert np.allclose(m, diag_ref, rtol=1e-12)
    assert np.allclose(m, mm.J @ xi, rtol=1e-12)


def test_fusion_partial_presence():
    mm = two_flow_mm()
    xi = np.zeros(mm.n_o)
    _k0, k1 = mm.k_of[mm.l_of == 0]
    xi[k1] = 0.05  # flow 0's second point only; flow 1's single point stays dark
    n = sample_packets([10_000.0, 5_000.0], mm, xi, np.random.default_rng(2))
    y, m = fuse_gls(n, mm, xi, mm.mu)
    assert m[0] == pytest.approx(0.05 / 100.0)
    assert y[0] == n[(mm.l_of == 0) & (mm.k_of == k1)][0] / 0.05
    assert m[1] == 0.0 and np.isnan(y[1])


def random_rates_and_counts(seed):
    """A grid 3x3 model, rates with some zeros (flow 0 sees none), and one
    period's counts."""
    mm = build_measurement_model(synth_topology("grid", rows=3, cols=3, seed=1))
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.001, 0.3, mm.n_o) * (rng.random(mm.n_o) > 0.2)
    xi[mm.k_of[mm.l_of == 0]] = 0.0
    return mm, xi, sample_packets(np.rint(mm.mu * 37.0), mm, xi, rng)


def test_fusion_mean_cancels_from_y():
    # y = sum n / sum xi: the plug-in mean scales every weight of a flow
    # alike, so two means give the same bits, not merely close values
    mm, xi, n = random_rates_and_counts(7)
    y_a, m_a = fuse_gls(n, mm, xi, mm.mu)
    y_b, m_b = fuse_gls(n, mm, xi, mm.mu * np.linspace(0.3, 7.7, mm.n_r))
    assert np.array_equal(y_a, y_b, equal_nan=True)
    assert not np.array_equal(m_a, m_b)
    assert np.isnan(y_a).any() and not np.isnan(y_a).all()


def test_fusion_information_is_rate_sum_over_mean():
    mm, xi, n = random_rates_and_counts(8)
    mu = mm.mu * np.linspace(0.3, 7.7, mm.n_r)
    _, m = fuse_gls(n, mm, xi, mu)
    assert np.array_equal(m, np.bincount(mm.l_of, xi[mm.k_of]) / mu)


def test_fusion_validation():
    mm = two_flow_mm()
    xi = np.full(mm.n_o, 0.1)
    n = sample_packets([100.0, 50.0], mm, xi, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        fuse_gls(n, mm, xi, [100.0])
    with pytest.raises(ValidationError):
        fuse_gls(n, mm, xi, [100.0, 0.0])
    with pytest.raises(ValidationError):
        fuse_gls(n, mm, xi[:-1], mm.mu)
    with pytest.raises(ValidationError, match="do not match the model"):
        fuse_gls(n[:-1], mm, xi, mm.mu)
    with pytest.raises(ValidationError, match="do not match the model"):
        fuse_gls(np.stack([n, n]), mm, xi, mm.mu)  # one period only
    for bad in (-1.0, np.inf, np.nan):
        counts = n.astype(float)
        counts[0] = bad
        with pytest.raises(ValidationError, match="finite and >= 0"):
            fuse_gls(counts, mm, xi, mm.mu)
    counts = n.astype(float)
    counts[0] = 1.5  # the one packet-count rule that sample_packets applies
    with pytest.raises(ValidationError, match="^packet counts must be integer packet counts$"):
        fuse_gls(counts, mm, xi, mm.mu)


def test_end_to_end_mse_approaches_steady_state():
    # constant rates, 200 sampling replications on a fixed trace: the
    # late-window MSE should sit near 1/steady_state_info per flow.
    # Volumes dwarf the walk noise so the trace stays near mu and the
    # plug-in measurement variance stays honest; m*sigma2 ~ 1 keeps the
    # gain around 0.6, so 40 warm periods flush the diffuse start and the
    # window average has ~90 effective samples of the trace-driven error.
    t = TopologySpec(
        nodes=("a", "b", "c", "d"),
        edges=bidir([("a", "b"), ("b", "c"), ("c", "d")]),
        flows=(Flow("a", "d", sigma2=1.67e7, mu=1.0e6),
               Flow("b", "d", sigma2=2.0e7, mu=8.0e5),
               Flow("a", "b", sigma2=6.0e7, mu=1.2e6)),
        budgets={n: 0.1 for n in "abcd"},
    )
    mm = build_measurement_model(t)
    fm = FlowModel(sigma2=mm.sigma2, mu=mm.mu)
    xi = np.full(mm.n_o, 0.02)
    m_const = mm.J @ xi
    target = 1.0 / steady_state_info(m_const, fm.sigma2)

    T, reps, warm = 160, 200, 40
    trace = gen_random_walk_trace(fm, T=T, seed=12)
    assert np.all(np.abs(trace.x / mm.mu - 1.0) < 0.1)
    sq = np.zeros((T, mm.n_r))
    root = np.random.default_rng(77)
    for _ in range(reps):
        rng = np.random.default_rng(root.integers(2**63))
        info, mean = np.zeros(mm.n_r), mm.mu.copy()
        for t_idx in range(T):
            n = sample_packets(trace.x[t_idx], mm, xi, rng)
            y, m = fuse_gls(n, mm, xi, mm.mu)
            info, mean = predict_update(info, mean, fm, m, y=y)
            sq[t_idx] += (mean - trace.x[t_idx]) ** 2
    mse = sq[warm:].mean(axis=0) / reps
    assert np.all(np.abs(mse - target) < 0.2 * target), (mse, target)


# ------------------------------------------------------------------ trace files


def test_trace_round_trip(tmp_path):
    fm = FlowModel(sigma2=[25.0, 100.0], mu=[500.0, 700.0])
    tr = gen_random_walk_trace(fm, T=30, seed=1)
    path = str(tmp_path / "trace.csv")
    save_trace(tr, path)
    back = load_trace(path)
    assert np.array_equal(back.x, tr.x)
    assert back.source == "file-replay"
    header = open(path).readline().strip()
    assert header == "t,flow_1,flow_2"


def test_trace_file_errors(tmp_path):
    p = tmp_path / "t.csv"
    with pytest.raises(ValidationError):
        load_trace(str(p))
    p.write_text("")
    with pytest.raises(ValidationError):
        load_trace(str(p))
    p.write_text("time,flow_1\n1,5\n")
    with pytest.raises(ValidationError):
        load_trace(str(p))
    p.write_text("t,flow_1\n2,5\n")  # periods must start at 1
    with pytest.raises(ValidationError):
        load_trace(str(p))
    p.write_text("t,flow_1\n1,5\n3,6\n")  # gap
    with pytest.raises(ValidationError):
        load_trace(str(p))
    # a bad number is named, in the t column or among the volumes
    for text, token in (("t,flow_1\n1,5\n2,abc\n", "'abc'"),
                        ("t,flow_1,flow_2\n1,5,6\n2.0,5,6\n", "'2.0'")):
        p.write_text(text)
        with pytest.raises(ValidationError,
                           match=f"^t.csv: line 3: bad number {token}$"):
            load_trace(str(p))
    p.write_text("t,flow_1\n")
    with pytest.raises(ValidationError):
        load_trace(str(p))


def test_save_trace_rejects_noninteger(tmp_path):
    # the check now sits in Trace itself, so a 1.5-packet trace never
    # reaches save_trace and no file is written
    path = tmp_path / "trace.csv"
    with pytest.raises(ValidationError, match="integer packet counts"):
        save_trace(Trace(x=np.array([[1.5]]), source="file-replay"), str(path))
    assert not path.exists()


def test_save_trace_rounds_volumes_within_the_integer_tolerance(tmp_path):
    # sample_packets accepts 1.0000005 as one packet, so the trace file must too
    path = str(tmp_path / "trace.csv")
    save_trace(Trace(x=np.array([[1.0000005, 2.0]]), source="file-replay"), path)
    assert load_trace(path).x.tolist() == [[1.0, 2.0]]
