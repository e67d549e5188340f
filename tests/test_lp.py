import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdesign import LinearProgram, ValidationError, check_feasible, solve_lp

from oracles import vertex_lp_max

scipy_opt = pytest.importorskip("scipy.optimize")


def design_lp():
    # max theta s.t. theta <= (J xi)_i, sum xi <= 1, 0 <= xi <= 1
    return LinearProgram(
        c=[1.0, 0.0, 0.0],
        A_ub=[[1.0, -40.0, -10.0], [1.0, -10.0, -40.0], [0.0, 1.0, 1.0]],
        b_ub=[0.0, 0.0, 1.0],
        lower=[0.0, 0.0, 0.0],
        upper=[np.inf, 1.0, 1.0],
    )


def test_design_example():
    sol = solve_lp(design_lp())
    assert sol.ok
    assert sol.objective == pytest.approx(25.0, rel=1e-9)
    assert np.allclose(sol.x, [25.0, 0.5, 0.5], atol=1e-9)
    assert sol.iterations > 0 and not sol.perturbed
    assert sol.max_violation <= 1e-8


def test_equality_row():
    lp = LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[0.7],
                       upper=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.ok
    assert sol.objective == pytest.approx(0.7, rel=1e-12)


def test_redundant_equality_rows_are_dropped():
    lp = LinearProgram(c=[1.0, 0.0],
                       A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0],
                       upper=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.ok
    assert sol.objective == pytest.approx(1.0)


def test_fixed_variable_eliminated():
    lp = LinearProgram(c=[1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
                       lower=[0.0, 0.3], upper=[1.0, 0.3])
    sol = solve_lp(lp)
    assert sol.ok
    assert sol.x[1] == 0.3
    assert sol.objective == pytest.approx(1.0)


def test_entirely_fixed_problem():
    lp = LinearProgram(c=[2.0], lower=[0.4], upper=[0.4])
    sol = solve_lp(lp)
    assert sol.ok and sol.x[0] == 0.4
    assert sol.objective == pytest.approx(0.8)


def test_infeasible_bounds_vs_row():
    lp = LinearProgram(c=[0.0, 0.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
                       lower=[0.8, 0.8], upper=[1.0, 1.0])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(c=[1.0])
    assert solve_lp(lp).status == "unbounded"


def test_check_feasible_empty_system():
    sol = check_feasible(2, upper=[1.0, 1.0])
    assert sol.ok
    assert np.all(sol.x >= 0) and np.all(sol.x <= 1)


def test_check_feasible_negative_b():
    sol = check_feasible(2, A_ub=[[1.0, 1.0]], b_ub=[-1.0], upper=[1.0, 1.0])
    assert sol.status == "infeasible"


def test_iteration_cap_falls_back_then_reports():
    sol = solve_lp(design_lp(), max_iter=1)
    assert sol.status == "numerical"
    assert sol.perturbed
    assert sol.x is None


def test_determinism_bit_identical():
    lp = design_lp()
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.iterations == b.iterations


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(c=[np.nan]),
        dict(c=[1.0], A_ub=[[1.0, 2.0]], b_ub=[1.0]),
        dict(c=[1.0], A_ub=[[1.0]], b_ub=[1.0, 2.0]),
        dict(c=[1.0], lower=[2.0], upper=[1.0]),
        dict(c=[1.0], lower=[-np.inf]),
        dict(c=[1.0], upper=[np.nan]),
        dict(c=[1.0], A_ub=[[np.inf]], b_ub=[1.0]),
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValidationError):
        LinearProgram(**kwargs)


def _random_instance(rng):
    n = int(rng.integers(1, 6))
    m_ub = int(rng.integers(0, 6))
    n_eq = int(rng.integers(0, 2))
    grid = np.arange(-4, 5) / 2.0
    c = rng.choice(grid, size=n)
    A_ub = rng.choice(grid, size=(m_ub, n)) if m_ub else None
    b_ub = rng.choice(np.arange(-2, 7) / 2.0, size=m_ub) if m_ub else None
    A_eq = rng.choice(grid, size=(n_eq, n)) if n_eq else None
    b_eq = rng.choice(np.arange(0, 5) / 2.0, size=n_eq) if n_eq else None
    upper = np.full(n, float(rng.choice([0.5, 1.0, 2.0])))
    return dict(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                lower=np.zeros(n), upper=upper)


def test_random_lps_against_vertex_oracle_and_scipy():
    rng = np.random.default_rng(20260819)
    n_feasible = 0
    for _ in range(150):
        kw = _random_instance(rng)
        sol = solve_lp(LinearProgram(**kw))
        status, _, best = vertex_lp_max(**{k: v for k, v in kw.items()})
        assert sol.status in ("optimal", "infeasible")
        assert sol.status == status, kw
        res = scipy_opt.linprog(
            -kw["c"], A_ub=kw["A_ub"], b_ub=kw["b_ub"],
            A_eq=kw["A_eq"], b_eq=kw["b_eq"],
            bounds=list(zip(kw["lower"], kw["upper"])), method="highs",
        )
        if sol.status == "optimal":
            n_feasible += 1
            scale = 1.0 + abs(best)
            assert abs(sol.objective - best) <= 1e-7 * scale, kw
            assert res.status == 0
            assert abs(-res.fun - best) <= 1e-7 * scale
            assert sol.max_violation <= 1e-8
        else:
            assert res.status == 2
    # the generator must actually exercise both outcomes
    assert 30 < n_feasible < 150


@st.composite
def _design_family_lp(draw):
    """max theta s.t. s_i theta - (J xi)_i <= r_i, unit budget rows
    R xi <= b (sometimes = b), 0 <= xi <= cap: the shape of every design
    LP (slope 1 for classical/myopic, tangent slopes for steady-state
    cuts), with information coefficients at network scale."""
    n_r = draw(st.integers(1, 5))
    n_o = draw(st.integers(1, 6))
    n_v = draw(st.integers(1, 3))
    unit = st.floats(0.0, 1.0)
    slopes = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n_r,
                                    max_size=n_r)))
    J = np.array(draw(st.lists(unit, min_size=n_r * n_o, max_size=n_r * n_o)))
    J = np.where(J < 0.3, 0.0, 1e-4 + 9e-4 * J).reshape(n_r, n_o)
    r = 2e-5 * (np.array(draw(st.lists(unit, min_size=n_r, max_size=n_r))) - 0.2)
    owner = np.array(draw(st.lists(st.integers(0, n_v - 1), min_size=n_o,
                                   max_size=n_o)))
    R = (owner[None, :] == np.arange(n_v)[:, None]).astype(float)
    b = np.array(draw(st.lists(st.floats(0.005, 0.05), min_size=n_v,
                               max_size=n_v)))
    eq = np.array(draw(st.lists(st.booleans(), min_size=n_v, max_size=n_v)))
    cap = draw(st.sampled_from([1.0, 0.01, 0.003]))
    A_ub = np.vstack([np.column_stack([slopes, -J]),
                      np.column_stack([np.zeros(int((~eq).sum())), R[~eq]])])
    A_eq = np.column_stack([np.zeros(int(eq.sum())), R[eq]])
    return dict(c=np.eye(1 + n_o)[0], A_ub=A_ub,
                b_ub=np.concatenate([r, b[~eq]]),
                A_eq=A_eq if eq.any() else None,
                b_eq=b[eq] if eq.any() else None,
                lower=np.zeros(1 + n_o),
                upper=np.concatenate([[np.inf], np.full(n_o, cap)]))


@settings(max_examples=200, deadline=None)
@given(_design_family_lp())
def test_design_family_lps_against_highs(kw):
    sol = solve_lp(LinearProgram(**kw))
    # HiGHS's feasibility tolerance is absolute, so hand it rows scaled
    # to unit coefficients, as the simplex does internally
    A_ub, b_ub = kw["A_ub"], kw["b_ub"]
    s = np.max(np.abs(A_ub), axis=1, initial=0.0)
    s = np.where(s > 0, s, 1.0)
    res = scipy_opt.linprog(
        -kw["c"], A_ub=A_ub / s[:, None], b_ub=b_ub / s,
        A_eq=kw["A_eq"], b_eq=kw["b_eq"],
        bounds=list(zip(kw["lower"], kw["upper"])), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    assert res.status in (0, 2), res.message
    assert sol.status == ("optimal" if res.status == 0 else "infeasible")
    if res.status == 0:
        assert sol.objective == pytest.approx(-res.fun, rel=1e-7)
