import dataclasses

import numpy as np
import pytest

from flowdesign import (
    CanonicalSocp,
    DesignProblem,
    FlowDesignError,
    FlowModel,
    InfeasibleError,
    SCHEMES,
    SocpCone,
    ValidationError,
    check_design_output,
    build_measurement_model,
    design,
    design_problem,
    export_canonical_socp,
    flow_model,
    predicted_info,
    serialize_socp,
    solve_classical_E,
    solve_myopic,
    solve_naive,
    solve_lp,
    solve_scheme,
    solve_steady_state_E,
    steady_state_info,
    synth_topology,
)

from oracles import (bisect_steady_state, cone_residuals, float_texts,
                     grid_design_bounds, highs_classical_theta,
                     parse_socp_text)


def pair_problem():
    # two flows, two rates, one shared unit budget
    return DesignProblem(J=[[40.0, 10.0], [10.0, 40.0]],
                         R=[[1.0, 1.0]], b=[1.0])


def pair_fm(s1=0.01, s2=0.04):
    return FlowModel(sigma2=[s1, s2], mu=[100.0, 100.0])


# ------------------------------------------------------------------ classical


def test_classical_worked_example():
    res = solve_classical_E(pair_problem())
    assert res.scheme == "classical"
    assert res.theta == pytest.approx(25.0, rel=1e-9)
    assert np.allclose(res.xi, [0.5, 0.5], atol=1e-9)
    assert np.allclose(res.info, [25.0, 25.0], atol=1e-8)


def test_classical_identity():
    p = DesignProblem(J=np.eye(2), R=[[1.0, 1.0]], b=[1.0])
    res = solve_classical_E(p)
    assert res.theta == pytest.approx(0.5, rel=1e-9)
    assert np.allclose(res.xi, [0.5, 0.5], atol=1e-9)


def test_classical_unequal_gains():
    p = DesignProblem(J=[[1.0, 0.0], [0.0, 2.0]], R=[[1.0, 1.0]], b=[1.0])
    res = solve_classical_E(p)
    assert res.theta == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert np.allclose(res.xi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-9)


def test_classical_budget_scaling_is_linear():
    p = pair_problem()
    base = solve_classical_E(p).theta
    for c in [0.25, 0.5, 2.0]:
        scaled = DesignProblem(J=p.J, R=p.R, b=c * p.b,
                               upper=np.full(2, np.inf))
        assert solve_classical_E(scaled).theta == pytest.approx(c * base, rel=1e-9)


def test_classical_infeasible():
    # the caps let the equality row reach at most 0.8 < b
    p = DesignProblem(J=np.eye(2), R=[[1.0, 1.0]], b=[1.0],
                      row_is_equality=[True], upper=[0.4, 0.4])
    with pytest.raises(InfeasibleError):
        solve_classical_E(p)


def test_classical_unbounded():
    p = DesignProblem(J=[[1.0]], R=np.zeros((0, 1)), b=[],
                      upper=[np.inf])
    with pytest.raises(FlowDesignError):
        solve_classical_E(p)


@pytest.mark.parametrize("mode", ["inequality", "equality_with_zeroing"])
def test_classical_grid5_topology_seed4_matches_highs(mode):
    # roundoff residue of 1.6e-10 and 2.1e-10 in the tableau once passed
    # the pivot threshold here; the final basis was singular on the
    # original rows and the LP ended "numerical" (violation 1.35e-6)
    pytest.importorskip("scipy.optimize")
    mm = build_measurement_model(synth_topology(
        "grid", rows=5, cols=5, budget=0.02, seed=4))
    p = design_problem(mm, constraint_mode=mode)
    res = solve_classical_E(p)
    check_design_output(p, res.xi)
    ref = highs_classical_theta(p.J, p.R, p.b, p.upper, p.row_is_equality)
    assert res.theta == pytest.approx(ref, rel=1e-7)


# ------------------------------------------------------------------ myopic


def test_myopic_zero_prior_is_classical():
    p = pair_problem()
    res = solve_myopic(p, pair_fm(), prior_info=[0.0, 0.0])
    ref = solve_classical_E(p)
    assert res.theta == pytest.approx(ref.theta, rel=1e-9)
    assert np.allclose(res.xi, ref.xi, atol=1e-8)


def test_myopic_hand_example():
    # identity J, unit budget, prior information (100, 0), sigma2 = 1:
    # the predicted prior is (100/101, 0) and equalization gives
    # xi = (1/202, 201/202), theta = 201/202.
    p = DesignProblem(J=np.eye(2), R=[[1.0, 1.0]], b=[1.0])
    fm = FlowModel(sigma2=[1.0, 1.0], mu=[10.0, 10.0])
    res = solve_myopic(p, fm, prior_info=[100.0, 0.0])
    assert res.theta == pytest.approx(201.0 / 202.0, rel=1e-9)
    assert np.allclose(res.xi, [1.0 / 202.0, 201.0 / 202.0], atol=1e-9)


def test_myopic_favours_starved_flow():
    p = pair_problem()
    even = solve_myopic(p, pair_fm(), prior_info=[0.0, 0.0])
    skew = solve_myopic(p, pair_fm(), prior_info=[50.0, 0.0])
    assert skew.xi[1] > even.xi[1]


def test_myopic_validation():
    p = pair_problem()
    fm = pair_fm()
    with pytest.raises(ValidationError):
        solve_myopic(p, fm, prior_info=[1.0])
    with pytest.raises(ValidationError):
        solve_myopic(p, fm, prior_info=[-1.0, 0.0])
    with pytest.raises(ValidationError):
        solve_myopic(p, FlowModel(sigma2=[1.0], mu=[1.0]), prior_info=[0.0])


def test_myopic_warm_chain_matches_cold_solves():
    # a warm start that accepted bases infeasible by up to 1e-9 in the
    # equilibrated rows landed 2.1e-4 (relative) below the optimum at
    # period 16 on this instance, where theta is about 3.1e-6
    mm = build_measurement_model(synth_topology(
        "grid", rows=6, cols=6, budget=0.02, seed=4))
    p, fm = design_problem(mm, constraint_mode="inequality"), flow_model(mm)
    info = np.zeros(p.n_r)
    res, warm = None, 0
    for _ in range(20):
        cold = solve_myopic(p, fm, info)
        res = solve_myopic(p, fm, info, start=res)
        assert res.theta == pytest.approx(cold.theta, rel=1e-12, abs=0.0)
        warm += res.diagnostics["lp_iterations"] == 0
        info = res.info
    assert warm >= 10


# ------------------------------------------------------------------ steady state


def test_steady_state_single_flow_golden_ratio():
    p = DesignProblem(J=[[1.0]], R=[[1.0]], b=[1.0])
    fm = FlowModel(sigma2=[1.0], mu=[10.0])
    res = solve_steady_state_E(p, fm)
    assert res.xi[0] == pytest.approx(1.0, abs=1e-9)
    assert res.theta == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-9)


def test_steady_state_asymmetric_noise_exact():
    # with sigma2 = (0.01, 0.04) the optimum equalizes both flows'
    # steady-state information at exactly 50, at xi = (2/9, 7/9); the
    # noisier flow gets the larger rate even though J is symmetric.
    res = solve_steady_state_E(pair_problem(), pair_fm())
    assert res.theta == pytest.approx(50.0, rel=1e-6)
    assert np.allclose(res.xi, [2.0 / 9.0, 7.0 / 9.0], atol=1e-6)
    assert res.xi[0] < res.xi[1]
    # a certified bracket closed to tol_theta within a handful of cut LPs
    # ("bisection_iterations" counts them; the name is kept for the tracer)
    assert res.diagnostics["bisection_iterations"] <= 10
    lo, hi = res.diagnostics["theta_bracket"]
    assert 0.0 < lo and hi - lo <= res.diagnostics["tol_theta"] * hi
    # theta is recomputed from the witness, so allow roundoff around the bracket
    assert lo * (1 - 1e-12) - 1e-12 <= res.theta <= hi * (1 + 1e-12) + 1e-12


def test_steady_state_symmetric_noise_splits_evenly():
    res = solve_steady_state_E(pair_problem(), pair_fm(0.04, 0.04))
    assert np.allclose(res.xi, [0.5, 0.5], atol=1e-7)
    assert res.theta == pytest.approx(steady_state_info(25.0, 0.04), rel=1e-8)


def test_steady_state_equality_budget_row():
    p = pair_problem()
    peq = DesignProblem(J=p.J, R=p.R, b=p.b, row_is_equality=[True])
    res = solve_steady_state_E(peq, pair_fm())
    assert (p.R @ res.xi)[0] == pytest.approx(1.0, abs=1e-8)
    assert res.theta == pytest.approx(50.0, rel=1e-6)


def test_steady_state_conflicting_equalities():
    p = DesignProblem(J=np.eye(2), R=[[1.0, 1.0], [1.0, 1.0]],
                      b=[0.5, 0.8], row_is_equality=[True, True])
    with pytest.raises(InfeasibleError):
        solve_steady_state_E(p, pair_fm())


def test_steady_state_unobservable_flow_is_warned():
    p = DesignProblem(J=[[1.0, 0.0], [0.0, 0.0]], R=[[1.0, 1.0]], b=[1.0])
    res = solve_steady_state_E(p, pair_fm())
    assert res.theta == 0.0
    assert any("unobservable" in w for w in res.diagnostics["warnings"])


def test_steady_state_monotone_in_budget():
    p = pair_problem()
    fm = pair_fm()
    thetas = [
        solve_steady_state_E(
            DesignProblem(J=p.J, R=p.R, b=[c]), fm).theta
        for c in [0.25, 0.5, 1.0, 2.0]
    ]
    assert all(a < b for a, b in zip(thetas, thetas[1:]))


def test_steady_state_infinite_caps_use_lp_bracket(monkeypatch):
    # the first cut (theta - (J xi)_i <= 1/sigma_i^2) bounds theta without
    # any cap, so no per-flow LP is needed for the upper bracket
    lps = []

    def counting_solve_lp(lp, start=None):
        lps.append(lp)
        return solve_lp(lp, start=start)

    monkeypatch.setattr(design, "solve_lp", counting_solve_lp)
    p = DesignProblem(J=[[40.0, 10.0], [10.0, 40.0]], R=[[1.0, 1.0]],
                      b=[1.0], upper=[np.inf, np.inf])
    res = solve_steady_state_E(p, pair_fm())
    assert res.theta == pytest.approx(50.0, rel=1e-6)
    assert len(lps) == res.diagnostics["bisection_iterations"]
    assert all(lp.n == 1 + p.n_o and lp.c[0] == 1.0 for lp in lps)


def test_steady_state_zero_budget_is_certified_by_classical_lp(monkeypatch):
    # every flow observable but every budget 0: theta* = 0, which the
    # tangent cuts alone approach only by halving their upper bound
    lps = []

    def counting_solve_lp(lp, start=None):
        lps.append(lp)
        return solve_lp(lp, start=start)

    monkeypatch.setattr(design, "solve_lp", counting_solve_lp)
    p = DesignProblem(J=[[40.0, 10.0], [10.0, 40.0]], R=[[1.0, 1.0]], b=[0.0])
    res = solve_steady_state_E(p, pair_fm(1.0, 1.0))
    assert len(lps) <= 3
    assert res.theta == 0.0
    assert res.diagnostics["warnings"] == []
    assert res.diagnostics["theta_bracket"] == (0.0, 0.0)


@pytest.mark.parametrize("leak", [0.0, 1e-18])
def test_steady_state_zero_optimum_survives_roundoff_theta(monkeypatch, leak):
    # flow 0 is seen only at points 2 and 6 of router 0, whose budget is
    # 0, so theta* = 0. The warm-started classical LP certifies its basis
    # with theta ~2e-22 instead of 0.0, and with leak its design also
    # gives point 2 a rate of roundoff (within the zero row's eps slack),
    # so flow 0 gets ~1e-22 of information; the zero test must still fire
    # rather than run every cut round
    thetas = []
    theta_lp = design._theta_lp

    def recording(p, slopes, offsets, start=None):
        sol = theta_lp(p, slopes, offsets, start)
        if np.isscalar(slopes) and not np.any(offsets):
            thetas.append(sol.x[0])
            x = sol.x.copy()
            x[1 + 2] += leak
            sol = dataclasses.replace(sol, x=x)
        return sol

    monkeypatch.setattr(design, "_theta_lp", recording)
    J = [[0.0, 0.0, 0.000153455145503889, 0.0, 0.0, 0.0, 0.0008851341164710102],
         [0.0, 0.00018541000481459062, 0.0004728640607121764,
          0.00041595243364798105, 0.0, 0.0, 0.000742834499790502]]
    owner = np.array([1, 1, 0, 0, 1, 1, 0])
    p = DesignProblem(J=J, R=(owner == np.arange(2)[:, None]).astype(float),
                      b=[0.0, 0.007677977062560226],
                      row_is_equality=[False, True])
    mu = np.array([35629.71516301539, 82005.95691533308])
    res = solve_steady_state_E(p, FlowModel(sigma2=(0.05 * mu) ** 2, mu=mu))
    assert len(thetas) == 1 and 0.0 < thetas[0] < 1e-20
    assert (res.theta > 0.0) == (leak > 0.0)
    assert res.diagnostics["warnings"] == []
    lo, hi = res.diagnostics["theta_bracket"]
    assert lo == res.theta <= hi < 1e-13
    assert res.diagnostics["bisection_iterations"] == 3


def _grid4():
    mm = build_measurement_model(synth_topology(
        "grid", rows=4, cols=4, budget=0.02, seed=1))
    return design_problem(mm), flow_model(mm)


def _numerical_on_call(monkeypatch, bad_call):
    """Patch design.solve_lp so that its call number ``bad_call`` (from 1)
    ends ``numerical``, as a stalled simplex reports it."""
    calls = []

    def solve(lp, start=None):
        calls.append(lp)
        sol = solve_lp(lp, start=start)
        if len(calls) == bad_call:
            sol = dataclasses.replace(sol, status="numerical", x=None,
                                      objective=None, basis=None,
                                      max_violation=1.5e-6)
        return sol

    monkeypatch.setattr(design, "solve_lp", solve)
    return calls


def _assert_in_bracket(res):
    lo, hi = res.diagnostics["theta_bracket"]
    assert 0.0 <= lo == res.theta <= hi


def test_steady_state_keeps_the_bracket_when_a_later_cut_lp_fails(monkeypatch):
    p, fm = _grid4()
    full = solve_steady_state_E(p, fm)
    assert full.diagnostics["bisection_iterations"] > 2
    calls = _numerical_on_call(monkeypatch, 2)
    res = solve_steady_state_E(p, fm)
    assert len(calls) == 2
    assert res.diagnostics["warnings"] == ["cut LP 2 ended numerical; bracket kept"]
    assert res.diagnostics["bisection_iterations"] == 2
    _assert_in_bracket(res)
    # the bracket is round 1's, so it still holds the full solve's theta
    lo, hi = res.diagnostics["theta_bracket"]
    assert lo <= full.theta <= hi


def test_steady_state_warns_when_the_round_cap_leaves_a_gap(monkeypatch):
    p, fm = _grid4()
    monkeypatch.setattr(design, "_CUT_MAX_ROUNDS", 2)
    res = solve_steady_state_E(p, fm)
    assert res.diagnostics["bisection_iterations"] == 2
    (warning,) = res.diagnostics["warnings"]
    lo, hi = res.diagnostics["theta_bracket"]
    assert warning == f"gap {hi - lo!r} still open after 2 cut LPs"
    assert hi - lo > 1e-9 * hi
    _assert_in_bracket(res)


def _record_solutions(monkeypatch):
    """Wrap the current design.solve_lp and collect what each call returns."""
    sols = []
    inner = design.solve_lp

    def solve(lp, start=None):
        sols.append(inner(lp, start=start))
        return sols[-1]

    monkeypatch.setattr(design, "solve_lp", solve)
    return sols


@pytest.mark.parametrize("case,n_lps", [
    ("inequality", 5), ("equality_with_zeroing", 5),
    ("zero_budget", 3),     # cut, cut, then the classical probe
    ("numerical_cut", 2),   # the second LP ends numerical
])
def test_steady_state_diagnostics_count_every_lp(monkeypatch, case, n_lps):
    # the benchmark tracer reads bisection_iterations and lp_pivots
    if case == "zero_budget":
        p = DesignProblem(J=[[40.0, 10.0], [10.0, 40.0]], R=[[1.0, 1.0]], b=[0.0])
        fm = pair_fm(1.0, 1.0)
    else:
        mm = build_measurement_model(synth_topology(
            "grid", rows=4, cols=4, budget=0.02, seed=1))
        mode = "inequality" if case == "numerical_cut" else case
        p, fm = design_problem(mm, constraint_mode=mode), flow_model(mm)
    if case == "numerical_cut":
        _numerical_on_call(monkeypatch, 2)
    sols = _record_solutions(monkeypatch)
    d = solve_steady_state_E(p, fm).diagnostics
    assert d["bisection_iterations"] == len(sols) == n_lps
    assert d["lp_pivots"] == sum(s.iterations for s in sols) > 0
    assert d["lp_perturbed"] is any(s.perturbed for s in sols)
    assert sols[-1].ok == (case != "numerical_cut")


@pytest.mark.parametrize("solve", [solve_classical_E,
                                   lambda p: solve_steady_state_E(p, pair_fm())])
def test_numerical_first_lp_raises_naming_its_status(monkeypatch, solve):
    _numerical_on_call(monkeypatch, 1)
    with pytest.raises(FlowDesignError, match=(
            r": LP ended with status numerical \(max violation 1\.500e-06\)$")
            ) as exc:
        solve(pair_problem())
    assert not isinstance(exc.value, InfeasibleError)


def test_steady_state_tol_validation():
    with pytest.raises(ValidationError):
        solve_steady_state_E(pair_problem(), pair_fm(), tol_theta=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            solve_steady_state_E(pair_problem(), pair_fm(), tol_theta=bad)
    with pytest.raises(ValidationError):
        solve_steady_state_E(pair_problem(), FlowModel(sigma2=[1.0], mu=[1.0]))


def _random_design_instance(rng, n_o):
    n_r = int(rng.integers(1, 5))
    J = rng.uniform(0.5, 5.0, size=(n_r, n_o))
    sigma2 = 10.0 ** rng.uniform(-2.0, 0.6, size=n_r)
    cap = 0.25 if n_o == 3 else 0.4
    upper = rng.uniform(0.05, cap, size=n_o)
    b = float(rng.uniform(0.1, 0.5))
    p = DesignProblem(J=J, R=np.ones((1, n_o)), b=[b], upper=upper)
    fm = FlowModel(sigma2=sigma2, mu=np.full(n_r, 100.0))
    return p, fm


def test_steady_state_matches_grid_oracle():
    rng = np.random.default_rng(42)
    for n_o in [1, 2, 3]:
        for _ in range(3):
            p, fm = _random_design_instance(rng, n_o)
            res = solve_steady_state_E(p, fm)
            lower, upper, _ = grid_design_bounds(
                p.J, fm.sigma2, float(p.b[0]), p.upper)
            slack = 2e-9 * max(upper, 1.0)
            assert lower - slack <= res.theta <= upper + slack, (n_o, lower, upper, res.theta)


def _highs_bisection(p, fm):
    pytest.importorskip("scipy.optimize")
    return bisect_steady_state(p.J, fm.sigma2, p.R, p.b, p.upper,
                               row_is_equality=p.row_is_equality)


@pytest.mark.parametrize("mode", ["inequality", "equality_with_zeroing"])
@pytest.mark.parametrize("topology_seed", [1, 2, 3])
def test_steady_state_matches_highs_bisection_on_grid(topology_seed, mode):
    mm = build_measurement_model(synth_topology(
        "grid", rows=4, cols=4, budget=0.02, seed=topology_seed))
    p = design_problem(mm, constraint_mode=mode)
    fm = flow_model(mm)
    res = solve_steady_state_E(p, fm)
    assert res.theta == pytest.approx(_highs_bisection(p, fm), rel=1e-7)


def test_steady_state_matches_highs_bisection_on_random_instances():
    rng = np.random.default_rng(42)  # the instances of the grid-oracle test
    for n_o in [1, 2, 3]:
        for _ in range(3):
            p, fm = _random_design_instance(rng, n_o)
            res = solve_steady_state_E(p, fm)
            assert res.theta == pytest.approx(_highs_bisection(p, fm), rel=1e-7)


def test_steady_state_certificate_rejects_overstated_theta():
    # at network scale theta^2 ~ 1e-11, so a slack floor of 1 (instead of
    # a tolerance relative to theta^2) let a doubled theta through
    mm = build_measurement_model(synth_topology(
        "grid", rows=4, cols=4, budget=0.02, seed=1))
    p, fm = design_problem(mm), flow_model(mm)
    naive = solve_naive(p)
    m = p.J @ naive.xi
    theta = float(np.min(steady_state_info(m, fm.sigma2)))
    design._check_certificate(theta, m, fm.sigma2, (theta, theta))
    with pytest.raises(FlowDesignError, match="hyperbolic"):
        design._check_certificate(2 * theta, m, fm.sigma2,
                                  (2 * theta, 2 * theta))
    with pytest.raises(FlowDesignError, match="bracket"):
        design._check_certificate(theta, m, fm.sigma2,
                                  (0.5 * theta, theta * (1 - 1e-9)))


def test_steady_state_loose_tolerance_still_sandwiched():
    rng = np.random.default_rng(5)
    p, fm = _random_design_instance(rng, 2)
    res = solve_steady_state_E(p, fm, tol_theta=1e-3)
    lower, upper, _ = grid_design_bounds(p.J, fm.sigma2, float(p.b[0]), p.upper)
    assert lower - 1e-3 * upper - 1e-12 <= res.theta <= upper + 1e-12


# ------------------------------------------------------------------ naive


def naive_problem():
    # one router owning 5 interfaces; one flow crossing four of them,
    # so the fifth (zero J column) is untraversed
    J = np.array([[0.01, 0.01, 0.01, 0.01, 0.0]])
    R = np.ones((1, 5))
    return DesignProblem(J=J, R=R, b=[0.01])


def test_naive_equal_split():
    p = naive_problem()
    res = solve_naive(p)
    assert np.allclose(res.xi, [0.0025] * 4 + [0.0], atol=1e-15)
    assert res.theta == pytest.approx(0.01 * 0.0025 * 4, rel=1e-12)
    assert res.scheme == "naive"


def test_naive_single_interface_gets_whole_budget():
    p = DesignProblem(J=[[1.0]], R=[[1.0]], b=[0.01])
    res = solve_naive(p)
    assert res.xi[0] == pytest.approx(0.01)


def test_naive_untraversed_router_spends_nothing():
    p = DesignProblem(J=[[1.0, 0.0]], R=[[1.0, 0.0], [0.0, 1.0]],
                      b=[0.5, 0.5])
    res = solve_naive(p)  # nothing crosses op 1
    assert res.xi[1] == 0.0


def test_naive_budget_exceeds_cap():
    p = DesignProblem(J=[[1.0, 1.0]], R=[[1.0, 1.0]], b=[3.0])
    with pytest.raises(InfeasibleError):
        solve_naive(p)


def test_naive_ownership_validation():
    p = DesignProblem(J=[[1.0, 1.0]], R=[[1.0, 0.0], [1.0, 1.0]],
                      b=[0.5, 0.5])
    with pytest.raises(ValidationError):  # crossed op 0 owned by both rows
        solve_naive(p)
    # the same ownership is fine while nothing crosses op 0
    p_uncrossed = DesignProblem(J=[[0.0, 1.0]], R=p.R, b=p.b)
    assert np.array_equal(solve_naive(p_uncrossed).xi, [0.0, 0.5])


def test_steady_state_never_worse_than_naive():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n_r, n_o = 3, 4
        J = rng.uniform(0.0, 3.0, size=(n_r, n_o))
        J[:, 0] += 0.5  # keep every flow observable
        R = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        b = rng.uniform(0.1, 1.0, size=2)
        p = DesignProblem(J=J, R=R, b=b)
        fm = FlowModel(sigma2=10.0 ** rng.uniform(-2, 1, size=n_r),
                       mu=np.full(n_r, 50.0))
        naive = solve_naive(p)
        ss = solve_steady_state_E(p, fm)
        naive_limit = float(np.min(steady_state_info(naive.info, fm.sigma2)))
        assert ss.theta >= naive_limit * (1 - 1e-9)


# ------------------------------------------------------------------ scheme table


def grid_instance(mode="inequality"):
    mm = build_measurement_model(
        synth_topology("grid", rows=3, cols=3, budget=0.02, seed=1))
    return design_problem(mm, constraint_mode=mode), flow_model(mm)


def assert_same_design(a, b):
    assert a.scheme == b.scheme
    assert a.xi.tobytes() == b.xi.tobytes()
    assert a.info.tobytes() == b.info.tobytes()
    assert repr(a.theta) == repr(b.theta)
    assert a.diagnostics == b.diagnostics


@pytest.mark.parametrize("mode", ["inequality", "equality_with_zeroing"])
def test_solve_scheme_matches_each_solver_bit_for_bit(mode):
    p, fm = grid_instance(mode)
    prior = np.random.default_rng(3).uniform(0.0, 2e-6, fm.n_r)
    warm = solve_myopic(p, fm, prior)
    later = predicted_info(prior, fm.sigma2) + p.J @ warm.xi
    cases = [
        ("naive", {}, solve_naive(p)),
        ("classical", {}, solve_classical_E(p)),
        ("myopic", {}, solve_myopic(p, fm, np.zeros(fm.n_r))),
        ("myopic", {"prior_info": prior}, warm),
        ("myopic", {"prior_info": later, "start": warm},
         solve_myopic(p, fm, later, start=warm)),
        ("steady_state", {}, solve_steady_state_E(p, fm)),
        ("steady_state", {"tol_theta": 1e-4},
         solve_steady_state_E(p, fm, tol_theta=1e-4)),
    ]
    for scheme, kwargs, direct in cases:
        res = solve_scheme(scheme, p, fm, **kwargs)
        assert_same_design(res, direct)
        assert direct.scheme == scheme  # every solver labels with the table
    assert {c[0] for c in cases} == set(SCHEMES)
    assert SCHEMES == design.SCHEMES


def test_solve_scheme_rejects_unknown_names():
    p, fm = grid_instance()
    for name in ("steady-state", "classical_E", "steady_state_E", ""):
        with pytest.raises(ValidationError, match="naive, classical"):
            solve_scheme(name, p, fm)


# ------------------------------------------------------------------ cones


def test_socp_structure_exact():
    socp = export_canonical_socp(pair_problem(), pair_fm())
    assert socp.n == 3
    assert socp.n_flow_cones == 2 and socp.n_budget_cones == 1
    assert len(socp.cones) == 3
    assert np.array_equal(socp.f, [-1.0, 0.0, 0.0])
    c0 = socp.cones[0]
    assert np.array_equal(c0.P, [[2.0, 0.0, 0.0], [-1.0, 40.0, 10.0]])
    assert np.array_equal(c0.q, [0.0, -100.0])
    assert np.array_equal(c0.r, [1.0, 40.0, 10.0])
    assert c0.s == 100.0
    c2 = socp.cones[2]
    assert np.array_equal(c2.P, np.zeros((1, 3)))
    assert np.array_equal(c2.r, [0.0, -1.0, -1.0])
    assert c2.s == 1.0


def test_socp_tight_at_optimum():
    p = pair_problem()
    fm = pair_fm()
    socp = export_canonical_socp(p, fm)
    res = solve_steady_state_E(p, fm)
    resid = cone_residuals(socp, np.concatenate([[res.theta], res.xi]))
    assert np.all(resid >= -1e-6)
    # both flow cones and the budget bind at this optimum
    assert np.all(np.abs(resid) <= 1e-4)


def test_hyperbolic_soc_identity():
    rng = np.random.default_rng(17)
    w = rng.uniform(-3, 3, size=500)
    x = rng.uniform(0, 3, size=500)
    y = rng.uniform(0, 3, size=500)
    hyp = w * w <= x * y
    soc = np.hypot(2 * w, x - y) <= x + y
    assert np.array_equal(hyp, soc)


def test_cone_equivalence_on_random_points():
    p = pair_problem()
    fm = pair_fm()
    socp = export_canonical_socp(p, fm)
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(1000):
        theta = rng.uniform(0.0, 120.0)
        xi = rng.uniform(0.0, 1.2, size=2)
        x = np.concatenate([[theta], xi])
        resid = cone_residuals(socp, x)
        m = p.J @ xi
        hyp = m * (theta + 1.0 / fm.sigma2) - theta * theta >= 0
        bud = p.b - p.R @ xi >= 0
        truth = np.concatenate([hyp, bud])
        # skip knife-edge points where the indicator is tolerance-defined
        solid = np.abs(resid) > 1e-9
        assert np.array_equal(resid[solid] >= 0, truth[solid])
        checked += int(solid.all())
    assert checked > 900


def test_socp_round_trip_exact():
    socp = export_canonical_socp(pair_problem(), pair_fm())
    text = serialize_socp(socp)
    back = parse_socp_text(text)
    assert np.array_equal(back.f, socp.f)
    assert back.n_flow_cones == socp.n_flow_cones
    for a, b in zip(back.cones, socp.cones):
        assert np.array_equal(a.P, b.P) and np.array_equal(a.q, b.q)
        assert np.array_equal(a.r, b.r) and a.s == b.s


def _oracle_text(socp, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(design.model, "floats_text",
                  lambda values, texts: float_texts(values))
        return serialize_socp(socp)


def _assert_round_trip(socp, text):
    back = parse_socp_text(text)
    pairs = [(back.f, socp.f)] + [
        (getattr(a, k), getattr(b, k)) for a, b in zip(back.cones, socp.cones)
        for k in ("P", "q", "r", "s")]
    assert len(back.cones) == len(socp.cones)
    for x, y in pairs:  # same bits, so -0.0 stays -0.0
        assert np.asarray(x, float).tobytes() == np.asarray(y, float).tobytes()


@pytest.mark.parametrize("size", [3, 4, 5])
def test_socp_text_matches_per_value_oracle(size, monkeypatch):
    mm = build_measurement_model(synth_topology(
        "grid", rows=size, cols=size, budget=0.02, seed=1))
    socp = export_canonical_socp(design_problem(mm), flow_model(mm))
    text = serialize_socp(socp)
    assert text == _oracle_text(socp, monkeypatch)
    assert " -0 " in text  # budget cones negate zero entries of R
    _assert_round_trip(socp, text)


def test_socp_text_keeps_signed_zeros_apart(monkeypatch):
    socp = CanonicalSocp(
        f=np.array([-1.0, 0.0, -0.0]),
        cones=(SocpCone(P=np.array([[0.0, -0.0, 0.5], [-0.0, -0.0, 0.0]]),
                        q=np.array([-0.0, 0.0]), r=np.array([0.0, -0.0, 0.1]),
                        s=-0.0),),
        n_flow_cones=0, n_budget_cones=1)
    text = serialize_socp(socp)
    assert text == _oracle_text(socp, monkeypatch)
    assert text.splitlines()[3] == "-1 0 -0"
    assert text.splitlines()[6:] == ["0 -0 0.5", "-0 -0 0", "q", "-0 0", "r",
                                     "0 -0 0.10000000000000001", "s", "-0"]
    _assert_round_trip(socp, text)


def test_socp_round_trip_awkward_floats():
    p = DesignProblem(J=[[1 / 3, 2 / 9]], R=[[1.0, 1.0]], b=[np.pi / 10])
    fm = FlowModel(sigma2=[1 / 7], mu=[100.0])
    back = parse_socp_text(serialize_socp(export_canonical_socp(p, fm)))
    assert back.cones[0].r[1] == 1 / 3
    assert back.cones[0].r[2] == 2 / 9
    assert back.cones[1].s == np.pi / 10


def test_socp_mismatched_model():
    with pytest.raises(ValidationError):
        export_canonical_socp(pair_problem(), FlowModel(sigma2=[1.0], mu=[1.0]))
