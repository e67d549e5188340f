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

import csv
import io
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

_OUTPUT_TOL = 1e-8   # check_design_output's violation tolerance


class FlowDesignError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(FlowDesignError):
    """A problem instance is structurally broken or trivially infeasible."""


def read_text(path: str) -> str:
    """The file's text as UTF-8, whatever the locale, without a leading
    byte-order mark; a ValidationError names the file and the line of the
    first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"{os.path.basename(path)}: line {line} is not UTF-8") from None


def read_csv(path: str, what: str):
    """The stripped header of the CSV file at ``path`` (empty for an
    empty file) and an iterator over its non-blank rows as (line number,
    stripped fields); fields may be quoted, lines may end in CRLF. The
    iterator raises on a row whose field count is not the header's, so
    the caller checks the header first. ``what`` names a missing file."""
    if not os.path.exists(path):
        raise ValidationError(f"{what} {path!r} not found")
    name = os.path.basename(path)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = [c.strip() for c in next(reader, [])]

    def rows():
        for row in reader:
            if not any(c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{name}: line {reader.line_num} has {len(row)} "
                    f"fields, expected {len(header)}")
            yield reader.line_num, [c.strip() for c in row]
    return header, rows()


def parse_number(token: str, name: str, line: int, kind=float):
    """``kind(token)``, or a ValidationError that names file ``name``,
    the line and the token."""
    try:
        return kind(token)
    except ValueError:
        raise ValidationError(f"{name}: line {line}: bad number {token!r}") from None


def write_lines(path: str, lines) -> None:
    """Write the strings of ``lines`` (any iterable, consumed as it goes)
    to ``path`` as UTF-8, each ended by "\\n" on every platform. Lines
    are joined 1024 at a time: one write per line costs 2-3x more."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        while block := list(islice(lines, 1024)):
            fh.write("\n".join(block) + "\n")


def floats_text(values) -> list:
    """Each of ``values`` (any shape, in C order) as %.17g text, which
    parses back to the same float64. One vectorized pass formats each
    distinct bit pattern once (-0.0 prints as -0); +0.0 skips the sort.
    A call has a fixed cost: pass a whole file's floats, not short rows."""
    bits = np.ravel(np.asarray(values, dtype=float)).view(np.int64)
    nonzero = np.flatnonzero(bits)
    distinct, inverse = np.unique(bits[nonzero], return_inverse=True)
    formatted = [format(v, ".17g") for v in distinct.view(float).tolist()]
    texts = np.empty(bits.size, dtype=object)
    texts[:] = "0"
    texts[nonzero] = np.array(formatted, dtype=object)[inverse]
    return texts.tolist()


def frozen(a: np.ndarray) -> np.ndarray:
    """``a`` if it is read-only and owns its data, else a read-only copy:
    no one else can write the array a value object stores. Those
    dataclasses are eq=False: a generated __eq__ on arrays would raise."""
    if a.flags.writeable or a.base is not None:
        a = a.copy()
        a.flags.writeable = False
    return a


def _vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class FlowModel:
    """Random-walk parameters of the tracked flows.

    ``sigma2[i]`` is the innovation variance of flow i (volume^2 per
    period) and ``mu[i]`` its mean volume (packets per period). Both must
    be strictly positive. Instances are immutable value objects: both
    arrays are stored read-only (see frozen).
    """

    sigma2: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma2", frozen(_vector(self.sigma2, "sigma2")))
        object.__setattr__(self, "mu", frozen(_vector(self.mu, "mu")))
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


@dataclass(frozen=True, eq=False)
class DesignProblem:
    """Everything a design solver needs.

    ``J`` (n_r x n_o) maps sampling rates to per-flow information,
    ``R xi <= b`` (or ``= b`` where ``row_is_equality`` is set) are the
    budget rows, and every rate lies in [0, ``upper``]: rates are
    sampling probabilities, hence the default cap ``upper = 1``; pass
    ``upper=np.inf`` per variable to lift the cap for abstract problems.
    Every array is stored read-only (see frozen).
    """

    J: np.ndarray
    R: np.ndarray
    b: np.ndarray
    row_is_equality: np.ndarray = None
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
        upper = np.ones(n_o) if self.upper is None else _vector(self.upper, "upper")
        if upper.shape != (n_o,):
            raise ValidationError("bounds must have one entry per design variable")
        if not np.all(np.isfinite(J)) or np.any(J < 0):
            raise ValidationError("J must be finite with no negative entries")
        if not np.all(np.isfinite(R)):
            raise ValidationError("R must be finite")
        if not np.all(np.isfinite(b)):
            raise ValidationError("b must be finite")
        if np.any(upper < 0):
            raise ValidationError("upper bounds must be >= 0")
        if np.any(np.isnan(upper)):
            raise ValidationError("upper bounds must not be NaN")
        for name, val in (("J", J), ("R", R), ("b", b), ("row_is_equality", eq),
                          ("upper", upper)):
            object.__setattr__(self, name, frozen(val))

    @property
    def lower(self) -> np.ndarray:
        """Read-only zeros, one per rate: only the benchmark reads them."""
        return np.broadcast_to(0.0, (self.n_o,))

    @cached_property
    def _checks(self) -> tuple:
        """The inequality rows' mask and b, the inequality and equality rows'
        limits and upper + _OUTPUT_TOL: check_design_output's and the myopic
        period's reads of this object alone, built once per object."""
        ineq = ~self.row_is_equality
        limit = np.maximum(_OUTPUT_TOL * np.abs(self.b),
                           np.finfo(float).eps * np.abs(self.R).sum(axis=1))
        return (ineq, self.b[ineq], limit[ineq], limit[self.row_is_equality],
                self.upper + _OUTPUT_TOL)

    @property
    def n_r(self) -> int:
        return self.J.shape[0]

    @property
    def n_o(self) -> int:
        return self.J.shape[1]

    @property
    def n_v(self) -> int:
        return self.R.shape[0]


def validate_problem(p: DesignProblem, fm: FlowModel) -> list:
    """Check a design problem against its flow model.

    Dimension mismatches and trivially infeasible budgets raise
    :class:`ValidationError`. Flows whose J row is all zero are only
    warned about: they are unobservable, so the min-information objective
    is pinned at zero for every feasible design. Returns the warning
    strings (empty when there are none).
    """
    if p.n_r != fm.n_r:
        raise ValidationError(
            f"J has {p.n_r} flow rows but the flow model has {fm.n_r} flows"
        )
    # A nonnegative row with xi >= 0 cannot reach a negative budget.
    for j in range(p.n_v):
        if p.b[j] < 0 and np.all(p.R[j] >= 0):
            raise ValidationError(
                f"budget row {j} has b = {p.b[j]} < 0, infeasible with xi >= 0"
            )
    return [f"flow {i} is unobservable (all-zero J row)"
            for i in np.flatnonzero(~np.any(p.J > 0, axis=1))]


def check_design_output(p: DesignProblem, xi: np.ndarray) -> np.ndarray:
    """Re-substitute a solver's design vector into the constraint system.

    Returns the vector clipped to [0, upper] and raises if it is not
    finite, if a bound is violated by more than _OUTPUT_TOL, or a budget
    or equality row by more than _OUTPUT_TOL relative to its b_j (with a
    floor of one ulp of a unit rate per coefficient, for rows with b_j = 0).
    Those limits are built once per DesignProblem object (its _checks).
    Solvers call this on every output, so downstream code can rely on
    the feasibility of the vector plus nonnegativity of ``J @ xi`` (J >= 0).
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (p.n_o,):
        raise ValidationError(f"design vector has shape {xi.shape}, expected ({p.n_o},)")
    if not np.isfinite(xi).all():
        raise ValidationError("design vector must be finite")
    ineq, _, limit_ub, limit_eq, upper_tol = p._checks
    if (xi < -_OUTPUT_TOL).any() or (xi > upper_tol).any():
        raise ValidationError("design vector violates variable bounds")
    resid = p.R @ xi - p.b
    if (resid[ineq] > limit_ub).any():
        raise ValidationError("design vector violates a budget row")
    if (np.abs(resid[p.row_is_equality]) > limit_eq).any():
        raise ValidationError("design vector violates an equality budget row")
    return xi.clip(0.0, p.upper)
