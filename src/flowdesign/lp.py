"""Dense two-phase simplex solver.

Deliberately plain: a dense tableau, Bland's anti-cycling rule for both
the entering and leaving choices; rows are equilibrated. The design
problems solved here have at most a few hundred variables, and what
matters is that repeated runs pivot identically (bit-identical output
files) and that failures are explicit.

Implied caps are presolved away (Brearley, Mitra & Williams 1975;
Andersen & Andersen 1995): the row z_j <= span_j is dropped when an
inequality row with coefficients >= 0 over the free columns and b_i >= 0
bounds z_j by b_i / A_ij < span_j / 2. That row has no artificial, so in
every tableau the cap's slack stays basic well above zero: it never
leaves, its unit column never enters, and no other row is updated from
the cap row. Bland's rule therefore pivots exactly as with the cap; only
LpSolution.basis is numbered over fewer columns.

Warm start: the design loops solve runs of LPs that differ only in a
right-hand side or the theta column, so solve_lp can take the previous
LpSolution and try its optimal basis first. The basis is accepted with
zero pivots only when it certifies itself on the new data: with S its
basic structural columns and T its tight rows (nonbasic slack, or
equality), the square systems A[T,S] x_S = b[T] and A[T,S]' u = c_S
are solved in the equilibrated rows, x_S and every other row's slack
are >= 0 exactly (no tolerance: a basis infeasible by roundoff can sit
at a measurably worse vertex), and the reduced costs and inequality
duals pass the cold solver's own stopping test. Anything else runs the
cold two-phase solve, so a hint never changes which answers are
possible, only how many pivots they take.

Convention: maximize c'x subject to A_ub x <= b_ub, A_eq x = b_eq and
lower <= x <= upper. Lower bounds must be finite (variables are shifted
onto z = x - lower >= 0 internally); upper bounds may be +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ValidationError

_PIVOT_TOL = 1e-9    # entries smaller than this never pivot
_FEAS_TOL = 1e-9     # phase-1 objective above this means infeasible
_CHECK_TOL = 1e-8    # re-substitution violations above this are reported


def _matrix(a, n, name):
    if a is None:
        return np.zeros((0, n))
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2 or a.shape[1] != n:
        raise ValidationError(f"{name} must be 2-D with {n} columns")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class LinearProgram:
    c: np.ndarray
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None  # default 0
    upper: np.ndarray | None = None  # default +inf

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ValidationError("c must be a finite 1-D array")
        n = c.size
        A_ub = _matrix(self.A_ub, n, "A_ub")
        A_eq = _matrix(self.A_eq, n, "A_eq")
        b_ub = np.zeros(0) if self.b_ub is None else np.atleast_1d(
            np.asarray(self.b_ub, dtype=float))
        b_eq = np.zeros(0) if self.b_eq is None else np.atleast_1d(
            np.asarray(self.b_eq, dtype=float))
        if b_ub.shape != (A_ub.shape[0],) or not np.all(np.isfinite(b_ub)):
            raise ValidationError("b_ub must be finite with one entry per A_ub row")
        if b_eq.shape != (A_eq.shape[0],) or not np.all(np.isfinite(b_eq)):
            raise ValidationError("b_eq must be finite with one entry per A_eq row")
        lower = np.zeros(n) if self.lower is None else np.atleast_1d(
            np.asarray(self.lower, dtype=float))
        upper = np.full(n, np.inf) if self.upper is None else np.atleast_1d(
            np.asarray(self.upper, dtype=float))
        if lower.shape != (n,) or not np.all(np.isfinite(lower)):
            raise ValidationError("lower bounds must be finite (shift unbounded variables)")
        if upper.shape != (n,) or np.any(np.isnan(upper)):
            raise ValidationError("upper bounds must have one entry per variable")
        if np.any(upper < lower):
            raise ValidationError("upper bound below lower bound")
        for name, val in (("c", c), ("A_ub", A_ub), ("b_ub", b_ub),
                          ("A_eq", A_eq), ("b_eq", b_eq),
                          ("lower", lower), ("upper", upper)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    status: str              # optimal | infeasible | unbounded | numerical
    x: np.ndarray | None
    objective: float | None
    iterations: int
    perturbed: bool          # True if the degeneracy fallback kicked in
    max_violation: float     # row-scaled; see _violation
    # final basis over the assembled columns (structural, then slack);
    # None unless optimal with no redundant rows dropped. A warm-start hint.
    basis: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(T, basis, row, col):
    T[row] = T[row] / T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _bland(T, basis, n_cols, cap):
    """Minimize the objective in the last tableau row. Returns (status, pivots).

    Bland's rule: the entering column is the first with a negative
    reduced cost; among the rows with the minimum ratio, the one whose
    basic variable has the smallest index leaves.
    """
    pivots = 0
    while pivots < cap:
        enter = np.flatnonzero(T[-1, :n_cols] < -_PIVOT_TOL)
        if enter.size == 0:
            return "optimal", pivots
        col = T[:-1, enter[0]]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            return "unbounded", pivots
        ratios = T[rows, -1] / col[rows]
        ties = rows[ratios == ratios.min()]
        _pivot(T, basis, ties[np.argmin(basis[ties])], enter[0])
        pivots += 1
    return "iteration_limit", pivots


def _assemble(lp: LinearProgram, perturb: bool):
    """Rows of the shifted problem in z = x - lower >= 0, rhs, equality mask.

    Variables pinned by upper == lower are eliminated up front (they sit
    at the bound exactly and only feed the tableau degenerate rows);
    ``free`` maps the reduced columns back to original indices. Rows are
    the inequalities, then the finite upper bounds that no inequality
    implies (module docstring), then the equalities; the perturbation
    shifts each row by its position among all rows, caps included.
    """
    span = lp.upper - lp.lower
    free = np.flatnonzero(span > 0)
    span = span[free]
    A_ub = lp.A_ub[:, free]
    b_ub = lp.b_ub - lp.A_ub @ lp.lower
    caps = np.flatnonzero(np.isfinite(span))
    rows = np.all(A_ub >= 0, axis=1) & (b_ub >= 0)
    A_imp = A_ub[rows][:, caps]
    # b_i / A_ij < cap / 2 multiplied out, as A_ij may be 0 (inf is right)
    with np.errstate(over="ignore"):
        implied = (A_imp > 0) & (b_ub[rows, None] < 0.5 * span[caps] * A_imp)
    kept = caps[~implied.any(axis=0)]
    A = np.vstack([A_ub, np.eye(free.size)[kept], lp.A_eq[:, free]])
    b = np.concatenate([b_ub, span[kept], lp.b_eq - lp.A_eq @ lp.lower])
    if perturb:
        # tiny deterministic shift that breaks rhs degeneracy while staying
        # far inside _CHECK_TOL
        pos = np.concatenate([np.arange(b_ub.size), b_ub.size + kept,
                              b_ub.size + caps.size + np.arange(lp.A_eq.shape[0])])
        b = b + 1e-11 * (pos + 1.0)
    is_eq = np.arange(b.size) >= b.size - lp.A_eq.shape[0]
    return A, b, is_eq, free


def _equilibrate(A, b):
    """Rows scaled by their largest coefficient: rows of very different
    magnitude (rate caps ~1 next to information rows ~1/mu) otherwise
    force pivots on entries barely above the pivot tolerance."""
    scale = np.max(np.abs(A), axis=1, initial=0.0)
    scale = np.where(scale > 0, scale, 1.0)
    return A / scale[:, None], b / scale


def _two_phase(A, b, is_eq, c_max, cap):
    """Solve max c_max'z s.t. rows, z >= 0.

    Returns (status, z, pivots, basis); basis is None unless optimal.
    """
    m, n = A.shape
    A, b = _equilibrate(A, b)
    flip = b < 0
    # columns: original, one slack per inequality (negated on flipped
    # rows), one artificial per equality or flipped row
    ineq_rows = np.flatnonzero(~is_eq)
    art_rows = np.flatnonzero(is_eq | flip)
    slack_cols = n + np.arange(ineq_rows.size)
    art_lo = n + ineq_rows.size
    N = art_lo + art_rows.size
    art_cols = np.arange(art_lo, N)

    T = np.zeros((m + 1, N + 1))
    T[:m, :n] = np.where(flip[:, None], -A, A)
    T[ineq_rows, slack_cols] = np.where(flip[ineq_rows], -1.0, 1.0)
    T[art_rows, art_cols] = 1.0
    T[:m, -1] = np.where(flip, -b, b)
    basis = np.empty(m, dtype=int)
    basis[ineq_rows] = slack_cols
    basis[art_rows] = art_cols

    total = 0
    if art_rows.size:
        # phase 1: minimize the sum of artificials. Rows are subtracted
        # one by one, here and for the cost row below: a vectorised sum
        # rounds differently and changes the pivots
        T[-1, art_lo:N] = 1.0
        for i in art_rows:
            T[-1] -= T[i]
        status, piv = _bland(T, basis, N, cap)
        total += piv
        if status == "iteration_limit":
            return status, None, total, None
        if -T[-1, -1] > _FEAS_TOL:
            return "infeasible", None, total, None
        # drive leftover artificials out of the basis; rows that offer no
        # pivot column are redundant originals and get dropped
        drop = []
        for i in np.flatnonzero(basis >= art_lo):
            cols = np.flatnonzero(np.abs(T[i, :art_lo]) > _PIVOT_TOL)
            if cols.size:
                _pivot(T, basis, i, cols[0])
                total += 1
            else:
                drop.append(i)
        T = np.delete(T, drop, axis=0)
        basis = np.delete(basis, drop)
        T = np.delete(T, np.s_[art_lo:N], axis=1)
        N = art_lo

    cost = np.zeros(N + 1)
    cost[:n] = -c_max  # maximize via minimizing the negation
    T[-1] = cost
    for i in np.flatnonzero(cost[basis]):
        T[-1] -= cost[basis[i]] * T[i]
    status, piv = _bland(T, basis, N, cap)
    total += piv
    if status != "optimal":
        return status, None, total, None
    z = np.zeros(n)
    basic = basis < n
    z[basis[basic]] = T[:-1, -1][basic]
    return "optimal", z, total, basis


def _warm_start(A, b, is_eq, c_max, basis):
    """z for the hinted basis if it is optimal on these rows, else None.

    See the module docstring for the certificate. Only the tight rows T
    and basic structural columns S enter the solves, so their size is
    the LP's column count, not its row count.
    """
    m, n = A.shape
    n_ineq = m - int(np.count_nonzero(is_eq))
    if basis is None or basis.shape != (m,) or np.any(basis >= n + n_ineq):
        return None
    A, b = _equilibrate(A, b)
    S = basis[basis < n]
    tight = np.ones(m, dtype=bool)
    tight[basis[basis >= n] - n] = False
    if S.size != np.count_nonzero(tight):
        return None
    B = A[np.ix_(tight, S)]
    try:
        x_S = np.linalg.solve(B, b[tight])
        u = np.linalg.solve(B.T, c_max[S])
    except np.linalg.LinAlgError:
        return None
    z = np.zeros(n)
    z[S] = x_S
    if np.any(x_S < 0.0) or np.any(A[~tight] @ z > b[~tight]):
        return None
    if np.any(u @ A[tight] - c_max < -_PIVOT_TOL) or np.any(
            u[~is_eq[tight]] < -_PIVOT_TOL):
        return None
    return z


def _violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Worst constraint violation, each row scaled by its largest
    coefficient (never below 1). The scaling matches the equilibrated
    metric the tableau works in, so the feasibility the two phases
    certify and the violation reported here agree on what "tight" means;
    bounds have unit coefficients and are left raw."""
    s_ub = np.maximum(np.max(np.abs(lp.A_ub), axis=1), 1.0)
    s_eq = np.maximum(np.max(np.abs(lp.A_eq), axis=1), 1.0)
    finite = np.isfinite(lp.upper)
    return float(max(
        np.max((lp.A_ub @ x - lp.b_ub) / s_ub, initial=0.0),
        np.max(np.abs(lp.A_eq @ x - lp.b_eq) / s_eq, initial=0.0),
        np.max(lp.lower - x, initial=0.0),
        np.max(x[finite] - lp.upper[finite], initial=0.0)))


def solve_lp(lp: LinearProgram, max_iter: int | None = None,
             start: LpSolution | None = None) -> LpSolution:
    """Solve the program. Never raises for well-posed inputs; inspect status.

    ``start``, a solution of an earlier LP of the same shape, offers its
    basis as a warm start (see the module docstring); a rejected hint
    costs one small solve and changes nothing else. If the pivot cap is
    hit (degenerate cycling despite Bland's rule can only happen through
    roundoff), the solve is retried once with a tiny deterministic
    perturbation of the right-hand sides and the result is flagged
    ``perturbed``.
    """
    A, b, is_eq, free = _assemble(lp, perturb=False)
    if start is not None:
        z_free = _warm_start(A, b, is_eq, lp.c[free], start.basis)
        if z_free is not None:
            sol = _finish(lp, free, z_free, 0, False, start.basis)
            if sol.ok:
                return sol
    m_guess = lp.A_ub.shape[0] + lp.A_eq.shape[0] + lp.n
    cap = max_iter if max_iter is not None else 2000 + 200 * (m_guess + lp.n)
    status, z_free, iters, basis = _two_phase(A, b, is_eq, lp.c[free], cap)
    perturbed = False
    if status == "iteration_limit":
        perturbed = True
        A, b, is_eq, free = _assemble(lp, perturb=True)
        status, z_free, it2, basis = _two_phase(A, b, is_eq, lp.c[free], cap)
        iters += it2
        if status == "iteration_limit":
            return LpSolution("numerical", None, None, iters, True, np.inf)
    if status in ("infeasible", "unbounded"):
        return LpSolution(status, None, None, iters, perturbed, 0.0)
    # a basis short of the row count lost redundant rows in phase 1
    return _finish(lp, free, z_free, iters, perturbed,
                   basis if basis.size == b.size else None)


def _finish(lp, free, z_free, iters, perturbed, basis) -> LpSolution:
    """LpSolution for an optimal z over the free columns."""
    z = np.zeros(lp.n)
    z[free] = z_free
    # basic variables drift by roundoff; snap sub-tolerance excursions
    # back to the box so epsilon-negative rates never leave this module
    clipped = np.clip(z, 0.0, lp.upper - lp.lower)
    z = np.where(np.abs(clipped - z) <= _FEAS_TOL, clipped, z)
    x = z + lp.lower
    viol = _violation(lp, x)
    ok = viol <= _CHECK_TOL
    return LpSolution("optimal" if ok else "numerical", x, float(lp.c @ x),
                      iters, perturbed, viol, basis if ok else None)


def check_feasible(n: int, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                   lower=None, upper=None) -> LpSolution:
    """Feasibility probe for a constraint system over ``n`` variables.

    Phase 1 only in effect: solves with a zero objective, so ``status``
    is 'optimal' with a witness ``x`` when the system is feasible and
    'infeasible' otherwise.
    """
    lp = LinearProgram(c=np.zeros(n), A_ub=A_ub, b_ub=b_ub,
                       A_eq=A_eq, b_eq=b_eq, lower=lower, upper=upper)
    return solve_lp(lp)
