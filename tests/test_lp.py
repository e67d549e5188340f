from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdesign import (LinearProgram, ValidationError, build_measurement_model,
                        check_feasible, design, design_problem, flow_model,
                        solve_lp, synth_topology)

from flowdesign.lp import _assemble
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


def test_warm_start_reuses_optimal_basis():
    lp = design_lp()
    cold = solve_lp(lp)
    assert cold.basis is not None
    warm = solve_lp(lp, start=cold)
    assert (warm.status, warm.iterations, warm.perturbed) == ("optimal", 0, False)
    assert np.allclose(warm.x, cold.x, rtol=1e-12, atol=1e-15)
    assert np.array_equal(warm.basis, cold.basis)


_REDUNDANT_LP = dict(c=[1.0, 0.0, 0.5], A_ub=[[1.0, 0.0, 1.0]], b_ub=[1.5],
                     A_eq=[[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [1.0, 1.0, 0.0]],
                     b_eq=[1.0, 2.0, 1.0], upper=[1.0, 1.0, 1.0])


@pytest.mark.parametrize("hint", [
    # another LP's basis: one column and one row fewer
    lambda: solve_lp(LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[0.7],
                                   upper=[1.0, 1.0])),
    # a solve that ended numerical carries no basis
    lambda: solve_lp(design_lp(), max_iter=1),
    # phase 1 dropped redundant equality rows, so no basis either
    lambda: solve_lp(LinearProgram(**_REDUNDANT_LP)),
], ids=["wrong_shape", "not_optimal", "rows_dropped"])
@pytest.mark.parametrize("target", ["design", "redundant"])
def test_unusable_warm_start_falls_back_to_cold(hint, target):
    lp = design_lp() if target == "design" else LinearProgram(**_REDUNDANT_LP)
    cold = solve_lp(lp)
    warm = solve_lp(lp, start=hint())
    assert (warm.status, warm.iterations, warm.perturbed) == (
        cold.status, cold.iterations, cold.perturbed)
    assert warm.x.tobytes() == cold.x.tobytes()


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


# ------------------------------------------------------------ pivot sequence
#
# Bland's rule fixes every pivot, so the iteration count of each LP below
# pins the whole pivot sequence. The values were recorded from the
# row-by-row implementation; any rewrite of the tableau code must
# reproduce them exactly.


def _degenerate_lp(seed):
    # integer rows with mostly zero right-hand sides: many ratio ties
    rng = np.random.default_rng(seed)
    n, m = 4, 5
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    b = np.where(rng.random(m) < 0.7, 0.0, rng.integers(-1, 3, size=m))
    return LinearProgram(c=rng.integers(-2, 4, size=n), A_ub=A, b_ub=b,
                         A_eq=rng.integers(0, 3, size=(seed % 2, n)),
                         b_eq=np.ones(seed % 2), upper=np.full(n, 2.0))


def _grid_lp(mode, cut, size=4):
    mm = build_measurement_model(synth_topology(
        "grid", rows=size, cols=size, budget=0.02, seed=1))
    p, fm = design_problem(mm, constraint_mode=mode), flow_model(mm)
    c = 1.0 / fm.sigma2
    if cut == "classical":
        return design._theta_lp(p, 1.0, np.zeros(p.n_r))
    first = design._theta_lp(p, 1.0, c)
    if cut == "asymptote":
        return first
    t = float(first.x[0])
    return design._theta_lp(p, t * (t + 2.0 * c) / (t + c) ** 2,
                            c * t * t / (t + c) ** 2)


_LP_CORPUS = {
    "design": lambda: solve_lp(design_lp()),
    # Beale's cycling example (degenerate ties under the textbook rule)
    "beale": lambda: solve_lp(LinearProgram(
        c=[0.75, -20.0, 0.5, -6.0],
        A_ub=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
              [0.0, 0.0, 1.0, 0.0]],
        b_ub=[0.0, 0.0, 1.0])),
    "tie": lambda: solve_lp(LinearProgram(
        c=[1.0, 1.0, 1.0],
        A_ub=[[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
              [2.0, 1.0, 1.0]],
        b_ub=[1.0, 1.0, 1.0, 2.0])),
    "flipped": lambda: solve_lp(LinearProgram(
        c=[-1.0, -2.0, 1.0],
        A_ub=[[-1.0, -1.0, 0.0], [0.0, -1.0, -1.0], [1.0, 1.0, 1.0]],
        b_ub=[-0.5, -0.25, 2.0], upper=[1.0, 1.0, 1.0])),
    "equality": lambda: solve_lp(LinearProgram(
        c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[0.7], upper=[1.0, 1.0])),
    "redundant": lambda: solve_lp(LinearProgram(
        c=[1.0, 0.0, 0.5], A_ub=[[1.0, 0.0, 1.0]], b_ub=[1.5],
        A_eq=[[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [1.0, 1.0, 0.0]],
        b_eq=[1.0, 2.0, 1.0], upper=[1.0, 1.0, 1.0])),
    "pinned": lambda: solve_lp(LinearProgram(
        c=[1.0, 1.0, -1.0], A_ub=[[1.0, 1.0, 1.0]], b_ub=[1.0],
        A_eq=[[1.0, 0.0, -1.0]], b_eq=[0.1],
        lower=[0.0, 0.3, 0.2], upper=[1.0, 0.3, 0.2])),
    "all_fixed": lambda: solve_lp(LinearProgram(
        c=[2.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
        lower=[0.4, 0.1], upper=[0.4, 0.1])),
    "unbounded": lambda: solve_lp(LinearProgram(
        c=[1.0, 1.0], A_ub=[[1.0, -1.0]], b_ub=[1.0])),
    "infeasible": lambda: solve_lp(LinearProgram(
        c=[0.0, 0.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
        lower=[0.8, 0.8], upper=[1.0, 1.0])),
    "infeasible_eq": lambda: solve_lp(LinearProgram(
        c=[1.0, 1.0], A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[0.5, 0.8],
        upper=[1.0, 1.0])),
    "perturbed_cap": lambda: solve_lp(design_lp(), max_iter=1),
    "perturbed_optimal": lambda: solve_lp(_degenerate_lp(12), max_iter=4),
    "perturbed_infeasible": lambda: solve_lp(_degenerate_lp(16), max_iter=3),
    **{f"degenerate_{s}": (lambda s=s: solve_lp(_degenerate_lp(s)))
       for s in range(20)},
    **{f"grid4_{mode}_{cut}": (lambda mode=mode, cut=cut: _grid_lp(mode, cut))
       for mode in ("inequality", "equality_with_zeroing")
       for cut in ("classical", "asymptote", "tangent")},
}


# name: (status, iterations, perturbed, objective)
_LP_GOLDEN = {
    "design": ("optimal", 3, False, 25.0),
    "beale": ("optimal", 6, False, 1.2500000000000004),
    "tie": ("optimal", 3, False, 1.5),
    "flipped": ("optimal", 4, False, 0.5),
    "equality": ("optimal", 1, False, 0.7),
    "redundant": ("optimal", 3, False, 1.25),
    "pinned": ("optimal", 1, False, 0.4000000000000001),
    "all_fixed": ("optimal", 0, False, 0.7000000000000001),
    "unbounded": ("unbounded", 1, False, None),
    "infeasible": ("infeasible", 0, False, None),
    "infeasible_eq": ("infeasible", 1, False, None),
    "perturbed_cap": ("numerical", 2, True, None),
    "perturbed_optimal": ("optimal", 7, True, 4.274509803921567e-11),
    "perturbed_infeasible": ("infeasible", 5, True, None),
    "degenerate_0": ("infeasible", 1, False, None),
    "degenerate_1": ("infeasible", 3, False, None),
    "degenerate_2": ("optimal", 3, False, 0.0),
    "degenerate_3": ("optimal", 9, False, 9.166666666666659),
    "degenerate_4": ("optimal", 2, False, 3.0),
    "degenerate_5": ("optimal", 5, False, 1.0),
    "degenerate_6": ("optimal", 6, False, 6.0),
    "degenerate_7": ("infeasible", 2, False, None),
    "degenerate_8": ("optimal", 6, False, 4.0),
    "degenerate_9": ("infeasible", 1, False, None),
    "degenerate_10": ("optimal", 3, False, -2.0),
    "degenerate_11": ("infeasible", 3, False, None),
    "degenerate_12": ("optimal", 7, False, 0.0),
    "degenerate_13": ("infeasible", 1, False, None),
    "degenerate_14": ("infeasible", 1, False, None),
    "degenerate_15": ("infeasible", 4, False, None),
    "degenerate_16": ("infeasible", 3, False, None),
    "degenerate_17": ("optimal", 7, False, 1.9999999999999996),
    "degenerate_18": ("optimal", 6, False, 0.5),
    "degenerate_19": ("optimal", 4, False, 1.125),
    "grid4_inequality_classical": ("optimal", 43, False, 1.5649196143978e-06),
    "grid4_inequality_asymptote": ("optimal", 5, False, 4.3398542551003865e-06),
    "grid4_inequality_tangent": ("optimal", 23, False, 3.0633912297071984e-06),
    "grid4_equality_with_zeroing_classical": ("optimal", 34, False, 1.5649196143977976e-06),
    "grid4_equality_with_zeroing_asymptote": ("optimal", 19, False, 4.3398542551003865e-06),
    "grid4_equality_with_zeroing_tangent": ("optimal", 28, False, 3.063391229707202e-06),
}


@pytest.mark.parametrize("name", sorted(_LP_CORPUS))
def test_pivot_sequence_golden(name):
    status, iterations, perturbed, objective = _LP_GOLDEN[name]
    sol = _LP_CORPUS[name]()
    assert (sol.status, sol.iterations, sol.perturbed) == (status, iterations, perturbed)
    if objective is None:
        assert sol.objective is None
    else:
        assert sol.objective == pytest.approx(objective, rel=1e-12, abs=0.0)


# ------------------------------------------------------------ implied caps


def _implied_caps_to_inf(prog):
    """``prog`` with inf in place of every cap that an inequality row with
    coefficients >= 0 over the free columns and shifted rhs >= 0 bounds
    below half the span, found row by row; and the number replaced."""
    span = prog.upper - prog.lower
    free = span > 0
    b = prog.b_ub - prog.A_ub @ prog.lower
    rows = [i for i in range(b.size)
            if np.all(prog.A_ub[i, free] >= 0) and b[i] >= 0]
    upper = prog.upper.copy()
    for j in np.flatnonzero(free & np.isfinite(span)):
        if any(prog.A_ub[i, j] > 0 and b[i] / prog.A_ub[i, j] < span[j] / 2
               for i in rows):
            upper[j] = np.inf
    n_implied = int(np.sum(np.isinf(upper) & ~np.isinf(prog.upper)))
    return replace(prog, upper=upper), n_implied


def _assert_presolve_invisible(prog):
    """Solving ``prog`` equals solving it with its implied caps removed,
    bit for bit; returns the number of implied caps."""
    relaxed, n_implied = _implied_caps_to_inf(prog)
    a, b = solve_lp(prog), solve_lp(relaxed)
    assert (a.status, a.iterations, a.perturbed) == (b.status, b.iterations, b.perturbed)
    assert (a.x is None) == (b.x is None)
    if a.x is not None:
        assert a.x.tobytes() == b.x.tobytes()
    assert (a.basis is None) == (b.basis is None)
    if a.basis is not None:
        assert np.array_equal(a.basis, b.basis)
        # the basis spans the rows actually solved: implied caps are gone
        n_caps = np.count_nonzero(np.isfinite(prog.upper) & (prog.upper > prog.lower))
        assert a.basis.size == (prog.A_ub.shape[0] + prog.A_eq.shape[0]
                                + n_caps - n_implied)
    return n_implied


@pytest.mark.parametrize("size", [4, 5])
@pytest.mark.parametrize("mode", ["inequality", "equality_with_zeroing"])
@pytest.mark.parametrize("cut", ["classical", "asymptote", "tangent"])
def test_presolve_matches_grid_lp_without_implied_caps(size, mode, cut, monkeypatch):
    progs = []

    def recording(prog, start=None):
        progs.append(prog)
        return solve_lp(prog, start=start)

    monkeypatch.setattr(design, "solve_lp", recording)
    _grid_lp(mode, cut, size)
    n_implied = _assert_presolve_invisible(progs[-1])
    # budget 0.02 implies every unit cap under inequality budgets; equality
    # budgets imply none
    n_o = progs[-1].n - 1
    assert n_implied == (n_o if mode == "inequality" else 0)


@pytest.mark.parametrize("kw,kept", [
    # z_1 <= 0.3 from a row with a negative coefficient
    (dict(A_ub=[[1.0, -0.1]], b_ub=[0.3]), 2),
    # the implied bound 0.6 or 0.5 is not below half the cap 1
    (dict(A_ub=[[1.0, 1.0]], b_ub=[0.6]), 2),
    (dict(A_ub=[[2.0, 0.0]], b_ub=[1.0]), 2),
    # an equality row does not imply
    (dict(A_eq=[[1.0, 1.0]], b_eq=[0.1]), 2),
    # shifted rhs 0.1 - 0.2 < 0: the row cannot imply (and is infeasible)
    (dict(A_ub=[[1.0, 1.0]], b_ub=[0.1], lower=[0.2, 0.0]), 2),
    # the positive control: 0.49 < 0.5 drops both caps, 0.98 / 2 only z_0's
    (dict(A_ub=[[1.0, 1.0]], b_ub=[0.49]), 0),
    (dict(A_ub=[[2.0, 1.0]], b_ub=[0.98]), 1),
    # a zero coefficient implies nothing, and no division warns
    (dict(A_ub=[[1.0, 0.0]], b_ub=[0.1]), 1),
    # 0.5 * span * A_ij overflows to inf, which still compares right
    (dict(A_ub=[[10.0, 10.0]], b_ub=[1.0], upper=[1e308, 1e308]), 0),
])
def test_presolve_keeps_caps_it_cannot_prove(kw, kept):
    prog = LinearProgram(**{"c": [1.0, 1.0], "upper": [1.0, 1.0], **kw})
    A = _assemble(prog, perturb=False)[0]
    assert A.shape[0] == prog.A_ub.shape[0] + kept + prog.A_eq.shape[0]
    _assert_presolve_invisible(prog)


def test_perturbation_keeps_full_row_positions():
    # rows with every cap: ub, cap z_0, cap z_1, cap z_2, eq; the ub row
    # implies the caps of z_0 and z_1 (0.4 < 1/2)
    prog = LinearProgram(c=[1.0, 1.0, 1.0], A_ub=[[1.0, 1.0, 0.0]], b_ub=[0.4],
                         A_eq=[[0.0, 1.0, 1.0]], b_eq=[0.5], upper=[1.0] * 3)
    _, b, _, _ = _assemble(prog, perturb=False)
    _, b_perturbed, _, _ = _assemble(prog, perturb=True)
    assert np.array_equal(b, [0.4, 1.0, 0.5])
    assert np.allclose(b_perturbed - b, 1e-11 * np.array([1.0, 4.0, 5.0]),
                       rtol=1e-3, atol=0.0)


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
def test_presolve_matches_design_family_without_implied_caps(kw):
    _assert_presolve_invisible(LinearProgram(**kw))


@settings(max_examples=200, deadline=None)
@given(_design_family_lp(), st.data())
def test_design_family_lps_against_highs(kw, data):
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
    # warm starts from sol: a myopic period moves the theta rows' right-
    # hand side, a steady-state cut round their slopes (theta column)
    n_r = int(np.count_nonzero(kw["A_ub"][:, 0]))
    unit = st.floats(0.0, 1.0)
    r = 2e-5 * (np.array(data.draw(st.lists(unit, min_size=n_r,
                                            max_size=n_r))) - 0.2)
    slopes = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n_r,
                                         max_size=n_r)))
    moved_rhs = dict(kw, b_ub=np.concatenate([r, kw["b_ub"][n_r:]]))
    A_ub = kw["A_ub"].copy()
    A_ub[:n_r, 0] = slopes
    for moved in (moved_rhs, dict(kw, A_ub=A_ub)):
        cold = solve_lp(LinearProgram(**moved))
        warm = solve_lp(LinearProgram(**moved), start=sol)
        assert warm.status == cold.status
        if cold.ok:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=0.0)
