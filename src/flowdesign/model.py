"""Shared domain types for sampling-rate design problems.

Conventions used throughout the package:

* flow volumes are packet counts per period, so "information" (inverse
  measurement variance) carries units 1/packets^2;
* an information vector ``m`` and a design vector ``xi`` are plain 1-D
  numpy arrays of length ``n_r`` (flows) and ``n_o`` (observation
  points) respectively;
* the two are linked linearly, ``m = J @ xi``, with a nonnegative matrix
  ``J`` because information is additive across observation points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class FlowDesignError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(FlowDesignError):
    """A problem instance is structurally broken or trivially infeasible."""


def _vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class FlowModel:
    """Random-walk parameters of the tracked flows.

    ``sigma2[i]`` is the innovation variance of flow i (volume^2 per
    period) and ``mu[i]`` its mean volume (packets per period). Both must
    be strictly positive. Instances are immutable value objects; the
    arrays are not defensively copied, treat them as read-only.
    """

    sigma2: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma2", _vector(self.sigma2, "sigma2"))
        object.__setattr__(self, "mu", _vector(self.mu, "mu"))
        if self.sigma2.shape != self.mu.shape:
            raise ValidationError("sigma2 and mu must have the same length")
        if self.n_r < 1:
            raise ValidationError("need at least one flow")
        if not np.all(np.isfinite(self.sigma2)) or np.any(self.sigma2 <= 0):
            raise ValidationError("innovation variances must be finite and > 0")
        if not np.all(np.isfinite(self.mu)) or np.any(self.mu <= 0):
            raise ValidationError("mean volumes must be finite and > 0")

    @property
    def n_r(self) -> int:
        return self.sigma2.shape[0]


@dataclass(frozen=True)
class DesignProblem:
    """Everything a design solver needs.

    ``J`` (n_r x n_o) maps sampling rates to per-flow information,
    ``R xi <= b`` (or ``= b`` where ``row_is_equality`` is set) are the
    budget rows, and ``lower``/``upper`` are per-variable bounds. The
    default cap ``upper = 1`` reflects that design variables are sampling
    probabilities; pass ``upper=np.inf`` per variable to lift the cap for
    abstract problems.
    """

    J: np.ndarray
    R: np.ndarray
    b: np.ndarray
    row_is_equality: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        R = np.asarray(self.R, dtype=float)
        if J.ndim != 2:
            raise ValidationError(f"J must be a matrix, got shape {J.shape}")
        if R.ndim != 2:
            raise ValidationError(f"R must be a matrix, got shape {R.shape}")
        b = _vector(self.b, "b")
        n_o = J.shape[1]
        if R.shape[1] != n_o:
            raise ValidationError(
                f"R has {R.shape[1]} columns but J has {n_o}"
            )
        if R.shape[0] != b.shape[0]:
            raise ValidationError("R and b disagree on the number of budget rows")
        eq = self.row_is_equality
        eq = np.zeros(R.shape[0], dtype=bool) if eq is None else np.asarray(eq, dtype=bool)
        if eq.shape != (R.shape[0],):
            raise ValidationError("row_is_equality must have one flag per budget row")
        lower = np.zeros(n_o) if self.lower is None else _vector(self.lower, "lower")
        upper = np.ones(n_o) if self.upper is None else _vector(self.upper, "upper")
        if lower.shape != (n_o,) or upper.shape != (n_o,):
            raise ValidationError("bounds must have one entry per design variable")
        if not np.all(np.isfinite(J)) or np.any(J < 0):
            raise ValidationError("J must be finite with no negative entries")
        if np.any(lower > upper):
            raise ValidationError("lower bound exceeds upper bound")
        if not np.all(np.isfinite(lower)):
            raise ValidationError("lower bounds must be finite")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "row_is_equality", eq)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_r(self) -> int:
        return self.J.shape[0]

    @property
    def n_o(self) -> int:
        return self.J.shape[1]

    @property
    def n_v(self) -> int:
        return self.R.shape[0]


@dataclass
class ValidationReport:
    """Soft findings from :func:`validate_problem`; hard failures raise."""

    warnings: list = field(default_factory=list)
    unobservable: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.warnings


def validate_problem(p: DesignProblem, fm: FlowModel) -> ValidationReport:
    """Check a design problem against its flow model.

    Dimension mismatches and trivially infeasible budgets raise
    :class:`ValidationError`. Flows whose J row is all zero are only
    warned about: they are unobservable, so the min-information objective
    is pinned at zero for every feasible design.
    """
    if p.n_r != fm.n_r:
        raise ValidationError(
            f"J has {p.n_r} flow rows but the flow model has {fm.n_r} flows"
        )
    # A nonnegative row with xi >= lower >= 0 cannot reach a negative budget.
    if np.all(p.lower >= 0):
        for j in range(p.n_v):
            if p.b[j] < 0 and np.all(p.R[j] >= 0):
                raise ValidationError(
                    f"budget row {j} has b = {p.b[j]} < 0, infeasible with xi >= 0"
                )
    report = ValidationReport()
    zero_rows = np.where(~np.any(p.J > 0, axis=1))[0]
    for i in zero_rows:
        report.unobservable.append(int(i))
        report.warnings.append(f"flow {i} is unobservable (all-zero J row)")
    return report


def check_design_output(p: DesignProblem, xi: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Re-substitute a solver's design vector into the constraint system.

    Returns the (possibly tiny-negative-clipped) vector and raises if a
    bound is violated by more than ``tol``, or a budget or equality row
    by more than ``tol`` relative to its b_j (with a floor of one ulp of
    a unit rate per coefficient, for rows with b_j = 0).
    Solvers call this on every output, so downstream code can rely on
    the feasibility of the vector plus nonnegativity of ``J @ xi``.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (p.n_o,):
        raise ValidationError(f"design vector has shape {xi.shape}, expected ({p.n_o},)")
    if np.any(xi < p.lower - tol) or np.any(xi > p.upper + tol):
        raise ValidationError("design vector violates variable bounds")
    resid = p.R @ xi - p.b
    limit = np.maximum(tol * np.abs(p.b),
                       np.finfo(float).eps * np.abs(p.R).sum(axis=1))
    eq = p.row_is_equality
    if np.any(resid[~eq] > limit[~eq]):
        raise ValidationError("design vector violates a budget row")
    if np.any(np.abs(resid[eq]) > limit[eq]):
        raise ValidationError("design vector violates an equality budget row")
    xi = np.clip(xi, p.lower, p.upper)
    m = p.J @ xi
    if np.any(m < -tol):
        raise ValidationError("information vector J @ xi came out negative")
    return xi
