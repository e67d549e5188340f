import numpy as np
import pytest

from flowdesign import (
    DesignProblem,
    FlowModel,
    LinearProgram,
    ValidationError,
    build_measurement_model,
    check_design_output,
    design_problem,
    remap_mu,
    synth_topology,
    validate_problem,
)


def test_flow_model_basic():
    fm = FlowModel(sigma2=[0.01, 0.04], mu=[100.0, 100.0])
    assert fm.n_r == 2
    assert fm.sigma2.dtype == float


@pytest.mark.parametrize(
    "sigma2,mu",
    [
        ([0.0, 1.0], [1.0, 1.0]),
        ([1.0], [0.0]),
        ([-1.0], [1.0]),
        ([np.nan], [1.0]),
        ([1.0, 1.0], [1.0]),
        ([], []),
    ],
)
def test_flow_model_rejects(sigma2, mu):
    with pytest.raises(ValidationError):
        FlowModel(sigma2=sigma2, mu=mu)


def test_design_problem_defaults():
    p = DesignProblem(J=[[1.0, 0.5]], R=[[1.0, 1.0]], b=[1.0])
    assert p.n_r == 1 and p.n_o == 2 and p.n_v == 1
    # probabilities by default
    assert np.array_equal(p.lower, [0.0, 0.0])
    assert np.array_equal(p.upper, [1.0, 1.0])
    assert not p.row_is_equality.any()


def test_design_problem_infinite_caps_allowed():
    p = DesignProblem(J=np.eye(2), R=np.ones((1, 2)), b=[1.0],
                      upper=[np.inf, np.inf])
    assert np.all(np.isinf(p.upper))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(J=[[-1.0]], R=[[1.0]], b=[1.0]),
        dict(J=[[np.inf]], R=[[1.0]], b=[1.0]),
        dict(J=[[1.0]], R=[[1.0, 1.0]], b=[1.0]),
        dict(J=[[1.0]], R=[[1.0]], b=[1.0, 2.0]),
        dict(J=[[1.0]], R=[[1.0]], b=[1.0], upper=[-1.0]),
        dict(J=[[1.0]], R=[[1.0]], b=[1.0], row_is_equality=[True, False]),
        dict(J=[[1.0]], R=[[1.0]], b=[1.0], upper=[np.nan]),
        dict(J=[[1.0]], R=[[np.inf]], b=[1.0]),
        dict(J=[[1.0]], R=[[np.nan]], b=[1.0]),
        dict(J=[[1.0]], R=[[1.0]], b=[np.inf]),
        dict(J=[[1.0]], R=[[1.0]], b=[np.nan]),
        dict(J=[[1.0]], R=[[1.0]], b=[[1.0]]),
        dict(J=[1.0], R=[[1.0]], b=[1.0]),
        dict(J=[[1.0]], R=[1.0], b=[1.0]),
    ],
)
def test_design_problem_rejects(kwargs):
    with pytest.raises(ValidationError):
        DesignProblem(**kwargs)


def test_rates_are_bounded_below_by_zero():
    with pytest.raises(TypeError):
        DesignProblem(J=np.eye(2), R=np.ones((1, 2)), b=[1.0], lower=[0.1, 0.1])
    lower = DesignProblem(J=np.eye(2), R=np.ones((1, 2)), b=[1.0]).lower
    assert lower.tolist() == [0.0, 0.0] and not lower.flags.writeable


@pytest.mark.parametrize("kwargs,message", [
    (dict(upper=[np.nan]), "upper bounds must not be NaN"),
    (dict(R=[[np.inf]]), "R must be finite"),
    (dict(b=[np.nan]), "b must be finite"),
    (dict(upper=[-1.0]), "upper bounds must be >= 0"),
    (dict(upper=[1.0, 1.0]), "bounds must have one entry per design variable"),
])
def test_design_problem_names_the_field(kwargs, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        DesignProblem(**{"J": [[1.0]], "R": [[1.0]], "b": [1.0], **kwargs})


def test_validate_problem_flags_unobservable_flow():
    p = DesignProblem(J=[[1.0, 0.0], [0.0, 0.0]], R=np.ones((1, 2)), b=[1.0])
    fm = FlowModel(sigma2=[1.0, 1.0], mu=[10.0, 10.0])
    assert validate_problem(p, fm) == ["flow 1 is unobservable (all-zero J row)"]


def test_validate_problem_clean():
    p = DesignProblem(J=np.eye(2), R=np.ones((1, 2)), b=[1.0])
    fm = FlowModel(sigma2=[1.0, 1.0], mu=[10.0, 10.0])
    assert validate_problem(p, fm) == []


def test_validate_problem_negative_budget():
    p = DesignProblem(J=np.eye(2), R=np.ones((1, 2)), b=[-0.5])
    fm = FlowModel(sigma2=[1.0, 1.0], mu=[10.0, 10.0])
    with pytest.raises(ValidationError):
        validate_problem(p, fm)


def test_validate_problem_dimension_mismatch():
    p = DesignProblem(J=np.eye(2), R=np.ones((1, 2)), b=[1.0])
    fm = FlowModel(sigma2=[1.0], mu=[10.0])
    with pytest.raises(ValidationError):
        validate_problem(p, fm)


def test_check_design_output_clips_jitter():
    p = DesignProblem(J=np.eye(2), R=np.ones((1, 2)), b=[1.0])
    out = check_design_output(p, np.array([-1e-12, 0.5]))
    assert out[0] == 0.0 and out[1] == 0.5


@pytest.mark.parametrize(
    "xi",
    [
        np.array([0.7, 0.7]),          # budget row
        np.array([1.5, 0.0]),          # cap
        np.array([-1e-3, 0.5]),        # lower bound
        np.array([0.5]),               # shape
        np.array([np.nan, 0.5]),       # not finite
    ],
)
def test_check_design_output_raises(xi):
    p = DesignProblem(J=np.eye(2), R=np.ones((1, 2)), b=[1.0])
    with pytest.raises(ValidationError):
        check_design_output(p, xi)


def test_check_design_output_equality_row():
    p = DesignProblem(J=np.eye(2), R=np.ones((1, 2)), b=[1.0],
                      row_is_equality=[True])
    check_design_output(p, np.array([0.25, 0.75]))
    with pytest.raises(ValidationError):
        check_design_output(p, np.array([0.25, 0.5]))


def test_check_design_output_budget_rows_are_relative_to_b():
    # at b = 0.02 an absolute 1e-8 allowed 5e-7 of the budget
    for eq in (False, True):
        p = DesignProblem(J=np.eye(2), R=np.eye(2), b=[0.02, 0.0],
                          row_is_equality=[eq, False])
        check_design_output(p, np.array([0.02 * (1 + 1e-12), 0.0]))
        with pytest.raises(ValidationError, match="budget row"):
            check_design_output(p, np.array([0.02 + 1e-9, 0.0]))
        with pytest.raises(ValidationError, match="budget row"):
            check_design_output(p, np.array([0.02, 1e-12]))  # b_j = 0 row
    with pytest.raises(ValidationError, match="equality"):
        check_design_output(p, np.array([0.02 - 1e-9, 0.0]))


@pytest.mark.parametrize("make,field", [
    (lambda a: DesignProblem(J=a, R=[[1.0, 1.0]], b=[1.0]), "J"),
    (lambda a: FlowModel(sigma2=a[0], mu=[100.0, 100.0]), "sigma2"),
    (lambda a: LinearProgram(c=[1.0, 1.0], A_ub=a, b_ub=[1.0, 1.0]), "A_ub"),
    (lambda a: remap_mu(build_measurement_model(synth_topology(
        "line", n_nodes=3, n_flows=2, seed=1)), a[0]), "mu"),
])
def test_value_types_store_arrays_no_one_else_can_write(make, field):
    a = np.array([[40.0, 10.0], [10.0, 40.0]])
    stored = getattr(make(a), field)
    before = stored.copy()
    a[0, 0] = -1.0
    assert np.array_equal(stored, before)
    with pytest.raises(ValueError):
        stored[0] = 0.0


def test_read_only_model_arrays_are_stored_without_a_copy():
    mm = build_measurement_model(synth_topology("grid", rows=3, cols=3, seed=1))
    for m in (mm, remap_mu(mm, 2.0 * mm.mu)):
        assert not any(getattr(m, f).flags.writeable
                       for f in ("l_of", "k_of", "J", "R", "b", "mu", "sigma2"))
        p = design_problem(m)
        assert p.J is m.J and p.R is m.R
