import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowdesign import (LinearProgram, ValidationError, build_measurement_model,
                        check_feasible, design, design_problem, flow_model,
                        predicted_info, solve_lp, synth_topology)

from flowdesign import lp as lp_module
from flowdesign.lp import _assemble, _rhs
from oracles import dense_pivot, vertex_lp_max

scipy_opt = pytest.importorskip("scipy.optimize")


def design_lp():
    # max theta s.t. theta <= (J xi)_i, sum xi <= 1, 0 <= xi <= 1
    return LinearProgram(
        c=[1.0, 0.0, 0.0],
        A_ub=[[1.0, -40.0, -10.0], [1.0, -10.0, -40.0], [0.0, 1.0, 1.0]],
        b_ub=[0.0, 0.0, 1.0],
        upper=[np.inf, 1.0, 1.0],
    )


def _shift(lower, **kw):
    """Keywords of the LP over lower <= x <= upper moved onto z = x - lower
    in [0, upper - lower]: b - A @ lower and upper - lower are the
    expressions the solver evaluated itself when it took lower bounds, so
    it sees the same bits and the recorded pivot counts still hold."""
    lower = np.asarray(lower, dtype=float)
    out = dict(kw, upper=np.asarray(kw["upper"], dtype=float) - lower)
    for A, b in (("A_ub", "b_ub"), ("A_eq", "b_eq")):
        if A in kw:
            out[b] = (np.atleast_1d(np.asarray(kw[b], dtype=float))
                      - np.asarray(kw[A], dtype=float) @ lower)
    return out


def _solve_shifted(lower, **kw):
    """solve_lp of the LP over lower <= x <= upper through _shift, with x
    and the objective moved back onto the original variables."""
    sol = solve_lp(LinearProgram(**_shift(lower, **kw)))
    if sol.x is None:
        return sol
    x = sol.x + np.asarray(lower, dtype=float)
    return replace(sol, x=x, objective=float(np.asarray(kw["c"], dtype=float) @ x))


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
    sol = _solve_shifted([0.0, 0.3], c=[1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
                         upper=[1.0, 0.3])
    assert sol.ok
    assert sol.x[1] == 0.3
    assert sol.objective == pytest.approx(1.0)


def test_entirely_fixed_problem():
    sol = _solve_shifted([0.4], c=[2.0], upper=[0.4])
    assert sol.ok and sol.x[0] == 0.4
    assert sol.objective == pytest.approx(0.8)


def test_infeasible_bounds_vs_row():
    sol = _solve_shifted([0.8, 0.8], c=[0.0, 0.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
                         upper=[1.0, 1.0])
    assert sol.status == "infeasible"


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


def _assert_solved_cold(prog, hint):
    cold = solve_lp(prog)
    warm = solve_lp(prog, start=hint)
    assert (warm.status, warm.iterations, warm.perturbed) == (
        cold.status, cold.iterations, cold.perturbed)
    assert warm.iterations > 0
    assert warm.x.tobytes() == cold.x.tobytes()
    assert np.array_equal(warm.basis, cold.basis)


def test_feasible_but_suboptimal_hint_is_solved_cold():
    # design_lp's optimal vertex (25, 0.5, 0.5) stays feasible under the
    # new objective, whose optimum is (10, 1, 0): only the dual half of
    # the certificate (reduced costs and dual signs) can reject the hint
    hint = solve_lp(design_lp())
    prog = replace(design_lp(), c=[1.0, 40.0, 0.0])
    assert np.array_equal(solve_lp(prog).x, [10.0, 1.0, 0.0])
    _assert_solved_cold(prog, hint)


@pytest.mark.parametrize("column", ["structural", "slack"])
def test_hint_with_a_repeated_basis_entry_is_solved_cold(column):
    # a repeated structural column makes B singular; a repeated slack
    # leaves more tight rows than basic columns, so B is not square
    sol = solve_lp(design_lp())
    basis = sol.basis.copy()
    n = design_lp().c.size
    pick = np.flatnonzero(basis < n if column == "structural" else basis >= n)
    assert pick.size >= 2
    basis[pick[1]] = basis[pick[0]]
    for start in (replace(sol, basis=basis), replace(sol, basis=basis, _rows=None)):
        _assert_solved_cold(design_lp(), start)


def _assert_as_without_record(sol, start):
    """``sol``, solved from ``start``, equals bit for bit the solve of its
    program from the same hint without start's reuse record."""
    bare = solve_lp(sol._lp, start=replace(start, _rows=None))
    assert (sol.status, sol.iterations, sol.perturbed, sol.max_violation) == (
        bare.status, bare.iterations, bare.perturbed, bare.max_violation)
    assert (sol.x is None) == (bare.x is None)
    if sol.x is not None:
        assert sol.x.tobytes() == bare.x.tobytes()
    assert (sol.basis is None) == (bare.basis is None)
    if sol.basis is not None:
        assert np.array_equal(sol.basis, bare.basis)


@pytest.mark.parametrize("size", [4, 5])
def test_reuse_on_myopic_chain_matches_solve_without_record(size):
    mm = build_measurement_model(synth_topology(
        "grid", rows=size, cols=size, budget=0.02, seed=1))
    p, fm = design_problem(mm), flow_model(mm)
    reused, pivoted = [], []
    info, res = np.zeros(p.n_r), None
    for _ in range(50):
        prev = res
        # a period after the first re-solves prev's program (resolve_lp)
        res = design.solve_myopic(p, fm, info, start=prev)
        info = predicted_info(info, fm.sigma2) + p.J @ res.xi
        if prev is not None:
            start, sol = prev.lp_solution, res.lp_solution
            _assert_as_without_record(sol, start)
            reused.append(sol._rows is start._rows)
            pivoted.append(sol.iterations > 0)
    # every period after the first shares the first one's matrix, and
    # some periods reject the hint and move to a new basis by pivoting
    assert reused == [True] * 49
    assert 0 < sum(pivoted) < 49


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
        dict(c=[1.0], upper=[-np.inf]),
        dict(c=[1.0, 1.0], upper=[1.0, -0.5]),
        dict(c=[1.0], upper=[np.nan]),
        dict(c=[1.0], A_ub=[[np.inf]], b_ub=[1.0]),
        dict(c=[1.0], A_eq=[[1.0]], b_eq=[1.0, 2.0]),
        dict(c=[1.0, 1.0], A_ub=[1.0, 1.0], b_ub=[1.0]),  # a row must be 2-D
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValidationError):
        LinearProgram(**kwargs)


@pytest.mark.parametrize("kwargs,message", [
    (dict(upper=[np.nan]), "upper bounds must not be NaN"),
    (dict(upper=[1.0, 1.0]), "bounds must have one entry per variable"),
    (dict(upper=[-1.0]), "upper bounds must be >= 0"),
])
def test_validation_names_the_bound(kwargs, message):
    with pytest.raises(ValidationError, match=f"^{message}"):
        LinearProgram(c=[1.0], **kwargs)


@pytest.mark.parametrize("b_ub", [[1.0, np.nan], [np.inf, 1.0], [1.0], [[1.0, 2.0]]])
def test_with_b_ub_checks_as_the_constructor(b_ub):
    # resolve_lp checks the b_ub it re-solves with as the constructor does
    base = LinearProgram(c=[1.0, 1.0], A_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[1.0, 1.0])
    with pytest.raises(ValidationError) as fresh:
        LinearProgram(c=base.c, A_ub=base.A_ub, b_ub=b_ub)
    with pytest.raises(ValidationError) as swapped:
        lp_module.resolve_lp(solve_lp(base), b_ub)
    assert str(swapped.value) == str(fresh.value) == (
        "b_ub must be finite with one entry per A_ub row")


def test_with_b_ub_shares_all_but_b_ub():
    # resolve_lp's program is start's with b_ub swapped in
    base = design_lp()
    start = solve_lp(base)
    b_ub = base.b_ub * 2.0
    sol = lp_module.resolve_lp(start, b_ub)
    lp = sol._lp
    for name in ("c", "A_ub", "A_eq", "b_eq", "upper"):
        assert getattr(lp, name) is getattr(base, name)
    # a writeable argument is copied, so a later write cannot reach lp
    assert lp.b_ub is not b_ub and not lp.b_ub.flags.writeable
    b_ub[0] = -1.0
    assert lp.b_ub.tobytes() == (base.b_ub * 2.0).tobytes()
    assert base.b_ub.tobytes() == design_lp().b_ub.tobytes()
    # the same answer as the program built from scratch, from the same hint
    built = LinearProgram(c=base.c, A_ub=base.A_ub, b_ub=lp.b_ub,
                          A_eq=base.A_eq, b_eq=base.b_eq, upper=base.upper)
    b = solve_lp(built, start=start)
    assert (sol.iterations, sol.x.tobytes()) == (b.iterations, b.x.tobytes())


def test_resolve_lp_keeps_starts_own_b_eq():
    # start reused the record of a program with another b_eq; the re-solve
    # keeps start's b_eq, not that of the program the record came from
    first = solve_lp(LinearProgram(c=[1.0, 1.0], A_ub=[[1.0, 0.0]], b_ub=[0.5],
                                   A_eq=[[1.0, 1.0]], b_eq=[0.7], upper=[1.0, 1.0]))
    start = solve_lp(replace(first._lp, b_eq=[0.9]), start=first)
    assert start._rows is first._rows
    sol = lp_module.resolve_lp(start, [0.6])
    assert sol._lp.b_eq is start._lp.b_eq
    assert sol.x.tolist() == pytest.approx([0.6, 0.3], abs=1e-15)


def test_lower_is_not_an_option():
    # every variable's lower bound is 0; the lower property is read-only
    # zeros, kept for the benchmark's tableau-size estimate
    with pytest.raises(TypeError):
        LinearProgram(c=[1.0], lower=[0.0])
    lower = LinearProgram(c=[1.0, 2.0, 3.0]).lower
    assert lower.shape == (3,) and np.all(lower == 0.0)
    with pytest.raises(ValueError):
        lower[0] = 1.0


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


def _grid_lp(mode, cut, size=4, cap=1.0):
    mm = build_measurement_model(synth_topology(
        "grid", rows=size, cols=size, budget=0.02, seed=1))
    p, fm = design_problem(mm, cap=cap, constraint_mode=mode), flow_model(mm)
    c = 1.0 / fm.sigma2
    first = design._theta_lp(p, 1.0, np.zeros(p.n_r) if cut in (
        "classical", "myopic") else c)
    if cut in ("classical", "asymptote") or not first.ok:
        return first
    if cut == "myopic":
        # the myopic LP one classical period in
        prior = p.J @ first.x[1:]
        return design._theta_lp(p, 1.0, predicted_info(prior, fm.sigma2))
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
    "pinned": lambda: _solve_shifted(
        [0.0, 0.3, 0.2], c=[1.0, 1.0, -1.0], A_ub=[[1.0, 1.0, 1.0]], b_ub=[1.0],
        A_eq=[[1.0, 0.0, -1.0]], b_eq=[0.1], upper=[1.0, 0.3, 0.2]),
    "all_fixed": lambda: _solve_shifted(
        [0.4, 0.1], c=[2.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], upper=[0.4, 0.1]),
    "unbounded": lambda: solve_lp(LinearProgram(
        c=[1.0, 1.0], A_ub=[[1.0, -1.0]], b_ub=[1.0])),
    "infeasible": lambda: _solve_shifted(
        [0.8, 0.8], c=[0.0, 0.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], upper=[1.0, 1.0]),
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


def _pivot_trace(monkeypatch, pivot, solve, expected=None):
    """solve()'s solution and, after every pivot, the basis and a digest
    of the tableau with each -0.0 made +0.0. With ``expected``, fail at
    the first pivot that departs from it."""
    trace = []

    def recording(T, basis, row, col):
        pivot(T, basis, row, col)
        trace.append((basis.tobytes(), T.shape,
                      hashlib.sha256((T + 0.0).tobytes()).hexdigest()))
        if expected is not None:
            k = len(trace) - 1
            assert k < len(expected) and trace[k] == expected[k], f"pivot {k}"

    monkeypatch.setattr(lp_module, "_pivot", recording)
    return solve(), trace


_ORACLE_CASES = {
    **_LP_CORPUS,
    **{f"grid{size}_cap{cap}_{mode}_{cut}":
       (lambda size=size, cap=cap, mode=mode, cut=cut: _grid_lp(mode, cut, size, cap))
       for size in (4, 5) for cap in (1.0, 0.012)
       for mode in ("inequality", "equality_with_zeroing")
       for cut in ("classical", "asymptote", "tangent", "myopic")},
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_pivot_matches_dense_oracle(name, monkeypatch):
    shipped_pivot = lp_module._pivot
    b, dense = _pivot_trace(monkeypatch, dense_pivot, _ORACLE_CASES[name])
    a, shipped = _pivot_trace(monkeypatch, shipped_pivot, _ORACLE_CASES[name], dense)
    assert len(shipped) == len(dense)
    assert (a.status, a.iterations, a.perturbed) == (b.status, b.iterations, b.perturbed)
    assert (a.basis is None) == (b.basis is None)
    if a.basis is not None:
        assert np.array_equal(a.basis, b.basis)
    assert (a.x is None) == (b.x is None)
    if a.x is not None:
        assert a.x.tobytes() == b.x.tobytes()


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_tableau_stays_column_major(name, monkeypatch):
    # a C-ordered tableau solves the same LPs, only slower, so the layout
    # is asserted at every pivot, phase 1's row and column drops included
    shipped_pivot = lp_module._pivot
    widths = []

    def recording(T, basis, row, col):
        assert T.flags.f_contiguous, f"pivot {len(widths)}"
        widths.append(T.shape[1])
        shipped_pivot(T, basis, row, col)

    monkeypatch.setattr(lp_module, "_pivot", recording)
    _ORACLE_CASES[name]()
    if name in ("redundant", "flipped"):
        # phase 2 pivots on the tableau left after the artificials went
        assert min(widths) < widths[0]


@pytest.mark.parametrize("name", ["design", "beale", "redundant", "grid4_inequality_classical"])
def test_pivot_is_layout_independent(name, monkeypatch):
    # replay each pivot of a solve on C- and F-ordered copies of its tableau
    shipped_pivot = lp_module._pivot
    steps = []

    def recording(T, basis, row, col):
        results = []
        for order in "CF":
            T2, basis2 = np.array(T, order=order), basis.copy()
            shipped_pivot(T2, basis2, row, col)
            # tobytes reads both in C order; zero signs are compared too
            results.append((basis2.tobytes(), T2.tobytes()))
        assert results[0] == results[1], f"pivot {len(steps)}"
        steps.append(results[0])
        shipped_pivot(T, basis, row, col)

    monkeypatch.setattr(lp_module, "_pivot", recording)
    _ORACLE_CASES[name]()
    assert steps


# ------------------------------------------------------------ implied caps


def _implied_caps_to_inf(prog):
    """``prog`` with inf in place of every cap that an inequality row with
    coefficients >= 0 over the free columns and rhs >= 0 bounds below half
    the cap, found row by row; and the number replaced."""
    free = prog.upper > 0
    b = prog.b_ub
    rows = [i for i in range(b.size)
            if np.all(prog.A_ub[i, free] >= 0) and b[i] >= 0]
    upper = prog.upper.copy()
    for j in np.flatnonzero(free & np.isfinite(prog.upper)):
        if any(prog.A_ub[i, j] > 0 and b[i] / prog.A_ub[i, j] < prog.upper[j] / 2
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
        n_caps = np.count_nonzero(np.isfinite(prog.upper) & (prog.upper > 0))
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
    # rhs 0.1 - 0.2 < 0 (x_0 >= 0.2 shifted out): the row cannot imply
    # (and is infeasible)
    (_shift([0.2, 0.0], A_ub=[[1.0, 1.0]], b_ub=[0.1], upper=[1.0, 1.0]), 2),
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
    A = _assemble(prog).A
    assert A.shape[0] == prog.A_ub.shape[0] + kept + prog.A_eq.shape[0]
    _assert_presolve_invisible(prog)


def test_perturbation_keeps_full_row_positions():
    # rows with every cap: ub, cap z_0, cap z_1, cap z_2, eq; the ub row
    # implies the caps of z_0 and z_1 (0.4 < 1/2)
    prog = LinearProgram(c=[1.0, 1.0, 1.0], A_ub=[[1.0, 1.0, 0.0]], b_ub=[0.4],
                         A_eq=[[0.0, 1.0, 1.0]], b_eq=[0.5], upper=[1.0] * 3)
    rows = _assemble(prog)
    b, b_perturbed = _rhs(prog, rows), _rhs(prog, rows, perturb=True)
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
    return dict(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, upper=upper)


def test_random_lps_against_vertex_oracle_and_scipy():
    rng = np.random.default_rng(20260819)
    n_feasible = 0
    for _ in range(150):
        kw = _random_instance(rng)
        sol = solve_lp(LinearProgram(**kw))
        status, _, best = vertex_lp_max(**kw)
        assert sol.status in ("optimal", "infeasible")
        assert sol.status == status, kw
        res = scipy_opt.linprog(
            -kw["c"], A_ub=kw["A_ub"], b_ub=kw["b_ub"],
            A_eq=kw["A_eq"], b_eq=kw["b_eq"],
            bounds=[(0.0, u) for u in kw["upper"]], method="highs",
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


def _design_family_kw(slopes, J, r, owner, b, eq, cap):
    """max theta s.t. s_i theta - (J xi)_i <= r_i, unit budget rows
    R xi <= b (= b where eq), 0 <= xi <= cap: the shape of every design
    LP (slope 1 for classical/myopic, tangent slopes for steady-state
    cuts). ``owner`` names each observation point's budget row."""
    n_o = J.shape[1]
    R = (owner[None, :] == np.arange(b.size)[:, None]).astype(float)
    A_ub = np.vstack([np.column_stack([slopes, -J]),
                      np.column_stack([np.zeros(int((~eq).sum())), R[~eq]])])
    A_eq = np.column_stack([np.zeros(int(eq.sum())), R[eq]])
    return dict(c=np.eye(1 + n_o)[0], A_ub=A_ub,
                b_ub=np.concatenate([r, b[~eq]]),
                A_eq=A_eq if eq.any() else None,
                b_eq=b[eq] if eq.any() else None,
                upper=np.concatenate([[np.inf], np.full(n_o, cap)]))


def _theta_offsets(draw, n_r):
    unit = st.floats(0.0, 1.0)
    return 2e-5 * (np.array(draw(st.lists(unit, min_size=n_r, max_size=n_r))) - 0.2)


def _theta_slopes(draw, n_r):
    return np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n_r,
                                  max_size=n_r)))


@st.composite
def _design_family_lp(draw):
    """A design-family LP with information coefficients at network scale."""
    n_r = draw(st.integers(1, 5))
    n_o = draw(st.integers(1, 6))
    n_v = draw(st.integers(1, 3))
    unit = st.floats(0.0, 1.0)
    slopes = _theta_slopes(draw, n_r)
    J = np.array(draw(st.lists(unit, min_size=n_r * n_o, max_size=n_r * n_o)))
    J = np.where(J < 0.3, 0.0, 1e-4 + 9e-4 * J).reshape(n_r, n_o)
    r = _theta_offsets(draw, n_r)
    owner = np.array(draw(st.lists(st.integers(0, n_v - 1), min_size=n_o,
                                   max_size=n_o)))
    b = _budgets(draw, n_v)
    eq = np.array(draw(st.lists(st.booleans(), min_size=n_v, max_size=n_v)))
    # a budget below 0.006 implies the cap 0.012, one above keeps it
    cap = draw(st.sampled_from([1.0, 0.012, 0.01, 0.003]))
    return _design_family_kw(slopes, J, r, owner, b, eq, cap)


def _budgets(draw, n_v):
    return np.array(draw(st.lists(st.floats(0.005, 0.05), min_size=n_v,
                                  max_size=n_v)))


@st.composite
def _design_family_chain(draw):
    """A design-family LP; the next LP's theta-row offsets and slopes (a
    myopic period moves the offsets, a steady-state cut round the slopes,
    which are the theta column); and, for a step after that, offsets
    and budgets again."""
    kw = draw(_design_family_lp())
    n_r = int(np.count_nonzero(kw["A_ub"][:, 0]))
    n_v = kw["b_ub"].size - n_r + (0 if kw["b_eq"] is None else kw["b_eq"].size)
    return (kw, _theta_offsets(draw, n_r), _theta_slopes(draw, n_r),
            _theta_offsets(draw, n_r), _budgets(draw, n_v))


@settings(max_examples=200, deadline=None)
@given(_design_family_lp())
def test_presolve_matches_design_family_without_implied_caps(kw):
    _assert_presolve_invisible(LinearProgram(**kw))


# theta* = 0 (row 1 caps theta at (4e-4 * 0.01 - 4e-6) / 0.725), and the
# warm start certifies the cold basis with theta 3.03e-22, not 0.0
_ZERO_OPTIMUM = _design_family_kw(
    slopes=np.array([0.515625, 0.7250297458921986, 1.0, 1.0]),
    J=np.array([[0.0, 0.0, 0.0, 0.0, 0.0004375],
                [0.0, 0.0, 0.0, 0.00039999999999999996, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.001],
                [0.0, 0.0, 0.0, 0.0, 0.001]]),
    r=np.full(4, -4.000000000000001e-06), owner=np.array([0, 0, 0, 1, 0]),
    b=np.array([0.03125, 0.01]), eq=np.array([False, False]), cap=1.0)


def _same_matrix(a, b) -> bool:
    """Whether LPs a and b share what solve_lp reuses: the c, A_ub, A_eq
    and upper arrays themselves, and b_ub by value on the rows >= 0 over
    the free columns, which the kept-cap test reads."""
    if any(getattr(a, f) is not getattr(b, f) for f in ("c", "A_ub", "A_eq", "upper")):
        return False
    rows = np.all(b.A_ub[:, b.upper > 0] >= 0, axis=1)
    return np.array_equal(a.b_ub[rows], b.b_ub[rows])


def _chain_step(prev, start, sol):
    """``sol``, solved from ``start``, a solution of LP ``prev``: it
    equals the solve without start's reuse record, and the record is
    reused exactly when the two LPs share their matrix."""
    _assert_as_without_record(sol, start)
    reused = start._rows is not None and sol._rows is start._rows
    assert reused == (start._rows is not None and _same_matrix(prev, sol._lp))
    return sol


# budgets 0.005 imply the caps 0.012 (0.005 < 0.012 / 2); the budget step
# to 0.0368 keeps them, so the rows change with the matrix untouched
_IMPLIED_CAP_TURNS_KEPT = (
    _design_family_kw(slopes=np.array([0.49612653506606963]),
                      J=np.array([[3.7931604864373199e-04]]),
                      r=np.array([-2.924124827216567e-06]), owner=np.array([0]),
                      b=np.array([0.005, 0.005]), eq=np.array([False, False]),
                      cap=0.012),
    np.array([-4.000000000000001e-06]), np.array([0.001]),
    np.array([-4.000000000000001e-06]),
    np.array([0.03684495966439133, 0.04821892547778172]))

# the moved offsets reject sol's basis, and the cold re-solve on sol's
# rows ends at a new basis, whose certificate the next step computes
_COLD_TO_NEW_BASIS = (
    _design_family_kw(slopes=np.array([0.67669241015016346, 0.44027661076815372]),
                      J=np.array([[7.5180852957614582e-04], [4.5915396958283287e-04]]),
                      r=np.array([-4.000000000000001e-06, 7.512339898446753e-06]),
                      owner=np.array([0]), b=np.array([0.025800679329398918]),
                      eq=np.array([True]), cap=1.0),
    np.array([-4.000000000000001e-06, -4.000000000000001e-06]),
    np.array([0.046802392993527966, 0.30339840751659264]),
    np.array([4.4662372454483159e-06, 1.3516166603112729e-05]),
    np.array([0.007695808941247228]))

# a zero budget, which implies both caps, turns -0.0 in the budget step:
# the kept-cap test cannot tell the two, so the step reuses the record
_BUDGET_ZERO_SIGN = (
    _design_family_kw(slopes=np.array([1.0, 1.0]),
                      J=np.array([[0.0, 5e-4], [4e-4, 0.0]]),
                      r=np.array([1e-6, 2e-6]), owner=np.array([0, 1]),
                      b=np.array([0.0, 0.02]), eq=np.array([False, False]),
                      cap=1.0),
    np.array([2e-6, 1e-6]), np.array([0.5, 0.8]), np.array([3e-6, 1e-6]),
    np.array([-0.0, 0.02]))


@settings(max_examples=200, deadline=None)
@given(_design_family_chain())
@example((_ZERO_OPTIMUM, np.full(4, -4.000000000000001e-06), np.ones(4),
          np.full(4, -4e-06), np.array([0.03125, 0.005])))
@example(_IMPLIED_CAP_TURNS_KEPT)
@example(_COLD_TO_NEW_BASIS)
@example(_BUDGET_ZERO_SIGN)
def test_design_family_lps_against_highs(chain):
    kw, r, slopes, r2, b2 = chain
    base = LinearProgram(**kw)
    sol = solve_lp(base)
    # HiGHS's feasibility tolerance is absolute, so hand it rows scaled
    # to unit coefficients, as the simplex does internally
    A_ub, b_ub = kw["A_ub"], kw["b_ub"]
    s = np.max(np.abs(A_ub), axis=1, initial=0.0)
    s = np.where(s > 0, s, 1.0)
    res = scipy_opt.linprog(
        -kw["c"], A_ub=A_ub / s[:, None], b_ub=b_ub / s,
        A_eq=kw["A_eq"], b_eq=kw["b_eq"],
        bounds=[(0.0, u) for u in kw["upper"]], method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    assert res.status in (0, 2), res.message
    assert sol.status == ("optimal" if res.status == 0 else "infeasible")
    if res.status == 0:
        assert sol.objective == pytest.approx(-res.fun, rel=1e-7)
    # warm starts from sol on the next LP of a chain, then from that warm
    # solution on a step after it. Steps that move only the offsets
    # re-solve start's program with resolve_lp, as the myopic chain does,
    # so they share its arrays and may reuse the record
    n_r, n_ub = r.size, kw["b_ub"].size - r.size
    A_ub = kw["A_ub"].copy()
    A_ub[:n_r, 0] = slopes
    for warm in (
            _chain_step(base, sol, lp_module.resolve_lp(
                sol, np.concatenate([r, base.b_ub[n_r:]]))),
            _chain_step(base, sol, solve_lp(LinearProgram(**dict(kw, A_ub=A_ub)),
                                            start=sol))):
        moved = warm._lp
        cold = solve_lp(moved)
        assert warm.status == cold.status
        if cold.ok:
            # at theta* = 0 no relative test can hold: theta is then the
            # roundoff of cancelling terms r_i/s_i and (J xi)_i/s_i of the
            # equilibrated theta rows, so floor the check at ulps of those
            # (targeted zero-optimum chains reached 39 ulps, cold side)
            rows = moved.A_ub[:n_r]
            terms = ((np.abs(moved.b_ub[:n_r]) + np.abs(rows[:, 1:]) @ cold.x[1:])
                     / np.max(np.abs(rows), axis=1))
            assert warm.objective == pytest.approx(
                cold.objective, rel=1e-9, abs=64 * np.spacing(np.max(terms)))
        # a myopic period: the offsets move
        _chain_step(moved, warm, lp_module.resolve_lp(
            warm, np.concatenate([r2, moved.b_ub[n_r:]])))
        for step in (
                # the budgets move, which under cap 0.012 can turn an
                # implied cap into a kept one or back; replace re-checks
                # the program but keeps its read-only arrays
                replace(moved, b_ub=np.concatenate([moved.b_ub[:n_r], b2[:n_ub]]),
                        b_eq=b2[n_ub:]),
                # every -0.0 of -J turns +0.0
                replace(moved, A_ub=moved.A_ub + 0.0)):
            # warm may have left sol's basis by a cold re-solve
            _chain_step(moved, warm, solve_lp(step, start=warm))
