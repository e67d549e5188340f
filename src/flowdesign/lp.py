"""Two-phase tableau simplex solver.

A dense tableau with Bland's anti-cycling rule for both the entering and
leaving choices; rows are equilibrated. The design problems solved here
have at most a few hundred variables, and what matters is that repeated
runs pivot identically (bit-identical output files) and that failures
are explicit.

A pivot updates only the columns where the normalised pivot row is
nonzero (the sparse elimination step of tableau codes; Bixby 2002). On
the design LPs that row is a few percent nonzero while the pivot column
is nearly full, since the theta column fills it. Against the full
update T -= outer(colvals, prow), a column with prow[j] = ±0 differs
only where the full update would compute -0.0 - colvals[i]·(±0) = +0.0:
every nonzero entry of every tableau is bit-identical, and zeros may
differ in sign. No decision reads the sign of a zero (Bland's rule
compares against ±_PIVOT_TOL, ratio ties are found with ==), and sums,
products, and quotients by a nonzero divisor, of operands that differ
only in the sign of zeros differ only in the sign of zeros. Every
division by a tableau entry (the pivot row in _pivot, the ratio test in
_bland) has a divisor of magnitude above _PIVOT_TOL, so the pivots are
the same; a new division by a tableau entry must keep that true (x/+0
and x/-0 are infinities of opposite sign). A zero basic value reaches x
plus +0.0, which is +0.0 for either sign.

The tableau is stored column-major, the usual layout of simplex codes
(Bixby 2002), so the columns a pivot updates are contiguous runs of
memory rather than strided gathers. Its arithmetic is the row-major
update's with the operands of each product swapped; IEEE
multiplication commutes, so every entry keeps its bits, zero signs
included. Phase 1's row and column drops must keep that order.

Implied caps are presolved away (Brearley, Mitra & Williams 1975;
Andersen & Andersen 1995): the row x_j <= upper_j is dropped when an
inequality row with coefficients >= 0 over the free columns and b_i >= 0
bounds x_j by b_i / A_ij < upper_j / 2. That row has no artificial, so in
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

Reuse: myopic periods move only the theta rows' right-hand side, so
their LPs share one matrix, and a period's program is the previous
one's with a new b_ub (LinearProgram.with_b_ub), sharing its other
arrays. Every LpSolution carries a private record of the work that
reads the matrix alone: the program it was assembled from, the
assembled, equilibrated rows and their scales, ``free`` and the kept
caps, _violation's row scales, and, for the basis last offered as a
hint on those rows, B = A[T,S] and the dual half of its certificate (u
and its reduced-cost and dual test). A solve started from that
solution reuses the record when its program holds the record
program's c, A_ub, A_eq and upper objects themselves, and equal b_ub on
the rows that are >= 0 over the free columns, the only rows the
kept-cap test reads. A LinearProgram's arrays are read-only and own
their data (model.frozen), so the same object keeps the same bits; the
kept-cap test reads b_ub only through comparisons, which cannot tell
-0.0 from 0.0. Each reused array is then the same function of the same
bits, so pivots, bases and output bytes are those of a solve without
the record, and an accepted period costs b / scale, one solve with B
and the primal checks.

Convention: maximize c'x subject to A_ub x <= b_ub, A_eq x = b_eq and
0 <= x <= upper, the bound form of every design LP. Upper bounds must be
>= 0 and may be +inf; a variable with upper == 0 is fixed at 0.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .model import ValidationError, frozen

_PIVOT_TOL = 1e-9    # entries smaller than this never pivot
_FEAS_TOL = 1e-9     # phase-1 objective above this means infeasible
_CHECK_TOL = 1e-8    # re-substitution violations above this are reported


def _matrix(a, n, name):
    if a is None:
        return np.zeros((0, n))
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != n:
        raise ValidationError(f"{name} must be 2-D with {n} columns")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} must be finite")
    return a


def _rhs_vector(b, m, name, rows):
    b = np.zeros(0) if b is None else np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape != (m,) or not np.isfinite(b).all():
        raise ValidationError(f"{name} must be finite with one entry per {rows} row")
    return b


@dataclass(frozen=True, eq=False)
class LinearProgram:
    c: np.ndarray
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    upper: np.ndarray | None = None  # default +inf

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ValidationError("c must be a finite 1-D array")
        n = c.size
        A_ub = _matrix(self.A_ub, n, "A_ub")
        A_eq = _matrix(self.A_eq, n, "A_eq")
        b_ub = _rhs_vector(self.b_ub, A_ub.shape[0], "b_ub", "A_ub")
        b_eq = _rhs_vector(self.b_eq, A_eq.shape[0], "b_eq", "A_eq")
        upper = np.full(n, np.inf) if self.upper is None else np.atleast_1d(
            np.asarray(self.upper, dtype=float))
        if upper.shape != (n,):
            raise ValidationError("bounds must have one entry per variable")
        if np.any(np.isnan(upper)):
            raise ValidationError("upper bounds must not be NaN")
        if np.any(upper < 0):
            raise ValidationError("upper bounds must be >= 0")
        for name, val in (("c", c), ("A_ub", A_ub), ("b_ub", b_ub),
                          ("A_eq", A_eq), ("b_eq", b_eq), ("upper", upper)):
            object.__setattr__(self, name, frozen(val))

    def with_b_ub(self, b_ub) -> LinearProgram:
        """This program with ``b_ub`` in place of its own, checked as the
        constructor checks it. The other arrays, validated and read-only
        already, are shared, not copied or re-checked, so a solve started
        from a solution of this program can reuse its record."""
        b_ub = frozen(_rhs_vector(b_ub, self.A_ub.shape[0], "b_ub", "A_ub"))
        lp = copy.copy(self)
        object.__setattr__(lp, "b_ub", b_ub)
        return lp

    @property
    def lower(self) -> np.ndarray:
        """Read-only zeros, one per variable: only the benchmark reads them."""
        return np.broadcast_to(0.0, (self.n,))

    @property
    def n(self) -> int:
        return self.c.size


@dataclass(eq=False)
class _Rows:
    """The work of solve_lp that reads only the LP's matrix (module
    docstring). ``cert`` holds, for the basis last offered as a hint on
    these rows, that basis's bytes and the dual half of its certificate."""
    lp: LinearProgram        # the program assembled; with_b_ub derives others
    nonneg: np.ndarray       # A_ub rows >= 0 over the free columns
    free: np.ndarray         # columns with upper > 0
    span_kept: np.ndarray    # the kept caps' right-hand sides
    pos: np.ndarray          # each row's position among all rows, caps included
    A: np.ndarray            # equilibrated rows: ub, kept caps, eq
    scale: np.ndarray        # each row's largest coefficient (1 if none)
    is_eq: np.ndarray
    s_ub: np.ndarray         # _violation's row scales
    s_eq: np.ndarray
    cert: tuple | None = None

    def matches(self, lp: LinearProgram) -> bool:
        old = self.lp
        return (lp.c is old.c and lp.A_ub is old.A_ub and lp.A_eq is old.A_eq
                and lp.upper is old.upper
                and np.array_equal(lp.b_ub[self.nonneg], old.b_ub[self.nonneg]))


@dataclass(frozen=True, eq=False)
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
    # what the solve derived from the LP's matrix alone, reused by a later
    # solve of a program sharing that matrix, started from this solution
    _rows: _Rows | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(T, basis, row, col):
    """Gauss-Jordan step on T[row, col], over the pivot row's nonzeros.

    The full update T -= outer(colvals, prow) leaves a column with
    prow[j] = ±0 unchanged except that a -0.0 entry may turn +0.0, so
    skipping those columns changes only signs of zeros (module
    docstring). The pivot column needs no stores: prow[col] = x/x = 1
    and T[i, col] - T[i, col] * 1 = +0.0 exactly. T is column-major, so
    the update runs over contiguous rows of T.T; prow[j] * colvals[i]
    has the bits of colvals[i] * prow[j] (module docstring).
    """
    prow = T[row] / T[row, col]
    T[row] = prow
    nz = prow.nonzero()[0]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T.T[nz] -= prow[nz, None] * colvals
    basis[row] = col


def _bland(T, basis, n_cols, cap):
    """Minimize the objective in the last tableau row. Returns (status, pivots).

    Bland's rule: the entering column is the first with a negative
    reduced cost; among the rows with the minimum ratio, the one whose
    basic variable has the smallest index leaves.
    """
    cost = T[-1, :n_cols]  # views: they follow every pivot's update
    rhs = T[:-1, -1]
    pivots = 0
    while pivots < cap:
        neg = cost < -_PIVOT_TOL
        enter = neg.argmax() if n_cols else 0  # argmax of nothing raises
        if not n_cols or not neg[enter]:
            return "optimal", pivots
        col = T[:-1, enter]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded", pivots
        ratios = rhs[rows] / col[rows]
        ties = rows[ratios == ratios.min()]
        leave = ties[0] if ties.size == 1 else ties[np.argmin(basis[ties])]
        _pivot(T, basis, leave, enter)
        pivots += 1
    return "iteration_limit", pivots


def _assemble(lp: LinearProgram) -> _Rows:
    """The rows of the problem over the free columns, equilibrated.

    Variables pinned by upper == 0 are eliminated up front (they sit at
    zero exactly and only feed the tableau degenerate rows); ``free``
    maps the reduced columns back to original indices. Rows are
    the inequalities, then the finite upper bounds that no inequality
    implies (module docstring), then the equalities. Each row is scaled
    by its largest coefficient: rows of very different magnitude (rate
    caps ~1 next to information rows ~1/mu) otherwise force pivots on
    entries barely above the pivot tolerance.
    """
    free = np.flatnonzero(lp.upper > 0)
    span = lp.upper[free]
    A_ub, b_ub = lp.A_ub[:, free], lp.b_ub
    caps = np.flatnonzero(np.isfinite(span))
    nonneg = np.all(A_ub >= 0, axis=1)
    bounding = nonneg & (b_ub >= 0)
    A_imp = A_ub[bounding][:, caps]
    # b_i / A_ij < cap / 2 multiplied out, as A_ij may be 0 (inf is right)
    with np.errstate(over="ignore"):
        implied = (A_imp > 0) & (b_ub[bounding, None] < 0.5 * span[caps] * A_imp)
    kept = caps[~implied.any(axis=0)]
    cap_rows = np.zeros((kept.size, free.size))
    cap_rows[np.arange(kept.size), kept] = 1.0
    A = np.vstack([A_ub, cap_rows, lp.A_eq[:, free]])
    scale = np.max(np.abs(A), axis=1, initial=0.0)
    scale = np.where(scale > 0, scale, 1.0)
    A = A / scale[:, None]
    A.flags.writeable = False  # shared by every solve that reuses it
    n_ub = b_ub.size
    return _Rows(
        lp=lp, nonneg=nonneg, free=free, span_kept=span[kept],
        pos=np.concatenate([np.arange(n_ub), n_ub + kept,
                            n_ub + caps.size + np.arange(lp.A_eq.shape[0])]),
        A=A, scale=scale,
        is_eq=np.arange(A.shape[0]) >= A.shape[0] - lp.A_eq.shape[0],
        s_ub=np.maximum(np.max(np.abs(lp.A_ub), axis=1), 1.0),
        s_eq=np.maximum(np.max(np.abs(lp.A_eq), axis=1), 1.0))


def _rhs(lp: LinearProgram, rows: _Rows, perturb: bool = False) -> np.ndarray:
    """The right-hand side of ``rows`` for ``lp``, equilibrated. The
    perturbation shifts each row by its position among all rows, caps
    included."""
    b = np.concatenate([lp.b_ub, rows.span_kept, lp.b_eq])
    if perturb:
        # tiny deterministic shift that breaks rhs degeneracy while staying
        # far inside _CHECK_TOL
        b = b + 1e-11 * (rows.pos + 1.0)
    return b / rows.scale


def _two_phase(A, b, is_eq, c_max, cap):
    """Solve max c_max'z s.t. the equilibrated rows, z >= 0.

    Returns (status, z, pivots, basis); basis is None unless optimal.
    """
    m, n = A.shape
    flip = b < 0
    # columns: original, one slack per inequality (negated on flipped
    # rows), one artificial per equality or flipped row
    ineq_rows = np.flatnonzero(~is_eq)
    art_rows = np.flatnonzero(is_eq | flip)
    slack_cols = n + np.arange(ineq_rows.size)
    art_lo = n + ineq_rows.size
    N = art_lo + art_rows.size
    art_cols = np.arange(art_lo, N)

    T = np.zeros((m + 1, N + 1), order="F")  # column-major: see _pivot
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
        if drop:
            T = np.delete(T, drop, axis=0)
            basis = np.delete(basis, drop)
        # column-major again: np.delete may return a C-order copy (it
        # does for an empty index list, hence the guard above)
        T = np.asfortranarray(np.delete(T, np.s_[art_lo:N], axis=1))
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


def _dual_half(rows: _Rows, c_max, basis):
    """(S, tight, B, loose rows of A) for a hinted basis that fits these
    rows, has a nonsingular B and passes the dual test; else None."""
    A, is_eq = rows.A, rows.is_eq
    m, n = A.shape
    n_ineq = m - int(np.count_nonzero(is_eq))
    if basis.shape != (m,) or np.any(basis >= n + n_ineq):
        return None
    S = basis[basis < n]
    tight = np.ones(m, dtype=bool)
    tight[basis[basis >= n] - n] = False
    B = A[np.ix_(tight, S)]  # not square, or singular, for a repeated entry
    try:
        u = np.linalg.solve(B.T, c_max[S])
    except np.linalg.LinAlgError:
        return None
    if np.any(u @ A[tight] - c_max < -_PIVOT_TOL) or np.any(
            u[~is_eq[tight]] < -_PIVOT_TOL):
        return None
    return S, tight, B, A[~tight]


def _warm_start(rows: _Rows, b, c_max, basis):
    """z for the hinted basis if it is optimal on these rows, else None.

    See the module docstring for the certificate. Its dual half reads
    only the rows and c, so it is computed once per hinted basis and kept
    in ``rows.cert``; the primal half reads b and runs on every call.
    Only the tight rows T and basic structural columns S enter the
    solves, so their size is the LP's column count, not its row count.
    """
    if basis is None:
        return None
    cert = rows.cert
    if cert is None or cert[0] != basis.tobytes():
        cert = rows.cert = (basis.tobytes(), _dual_half(rows, c_max, basis))
    if cert[1] is None:
        return None
    S, tight, B, loose = cert[1]
    try:
        x_S = np.linalg.solve(B, b[tight])
    except np.linalg.LinAlgError:
        return None
    z = np.zeros(rows.A.shape[1])
    z[S] = x_S
    if np.any(x_S < 0.0) or np.any(loose @ z > b[~tight]):
        return None
    return z


def _violation(lp: LinearProgram, x: np.ndarray, rows: _Rows) -> float:
    """Worst constraint violation, each row scaled by its largest
    coefficient (never below 1). The scaling matches the equilibrated
    metric the tableau works in, so the feasibility the two phases
    certify and the violation reported here agree on what "tight" means;
    bounds have unit coefficients and are left raw (x - inf is -inf,
    which never counts)."""
    return float(max(
        np.max((lp.A_ub @ x - lp.b_ub) / rows.s_ub, initial=0.0),
        np.max(np.abs(lp.A_eq @ x - lp.b_eq) / rows.s_eq, initial=0.0),
        np.max(-x, initial=0.0),
        np.max(x - lp.upper, initial=0.0)))


def solve_lp(lp: LinearProgram, max_iter: int | None = None,
             start: LpSolution | None = None) -> LpSolution:
    """Solve the program. Never raises for well-posed inputs; inspect status.

    ``start``, a solution of an earlier LP of the same shape, offers its
    basis as a warm start, and its matrix work when ``lp`` shares the
    matrix arrays of start's program (see the module docstring); a
    rejected hint costs one small solve and changes nothing else. If the
    pivot cap is hit (degenerate cycling despite Bland's rule can only
    happen through roundoff), the solve is retried once with a tiny
    deterministic perturbation of the right-hand sides and the result is
    flagged ``perturbed``.
    """
    rows = None if start is None else start._rows
    if rows is None or not rows.matches(lp):
        rows = _assemble(lp)
    b = _rhs(lp, rows)
    c_max = lp.c[rows.free]
    if start is not None:
        z_free = _warm_start(rows, b, c_max, start.basis)
        if z_free is not None:
            sol = _finish(lp, rows, z_free, 0, False, start.basis)
            if sol.ok:
                return sol
    m_guess = lp.A_ub.shape[0] + lp.A_eq.shape[0] + lp.n
    cap = max_iter if max_iter is not None else 2000 + 200 * (m_guess + lp.n)
    status, z_free, iters, basis = _two_phase(rows.A, b, rows.is_eq, c_max, cap)
    perturbed = False
    if status == "iteration_limit":
        perturbed = True
        status, z_free, it2, basis = _two_phase(
            rows.A, _rhs(lp, rows, perturb=True), rows.is_eq, c_max, cap)
        iters += it2
        if status == "iteration_limit":
            return LpSolution("numerical", None, None, iters, True, np.inf,
                              _rows=rows)
    if status in ("infeasible", "unbounded"):
        return LpSolution(status, None, None, iters, perturbed, 0.0, _rows=rows)
    # a basis short of the row count lost redundant rows in phase 1
    return _finish(lp, rows, z_free, iters, perturbed,
                   basis if basis.size == b.size else None)


def _finish(lp, rows, z_free, iters, perturbed, basis) -> LpSolution:
    """LpSolution for an optimal z over the free columns."""
    x = np.zeros(lp.n)
    x[rows.free] = z_free
    # basic variables drift by roundoff; snap sub-tolerance excursions
    # back to the box so epsilon-negative rates never leave this module
    clipped = np.clip(x, 0.0, lp.upper)
    x = np.where(np.abs(clipped - x) <= _FEAS_TOL, clipped, x)
    # a basic value can be -0.0, and numpy does not specify the zero sign
    # np.clip returns; adding +0.0 makes every zero +0.0, so no rate
    # reaches xi.csv or rates.csv as -0
    x += 0.0
    viol = _violation(lp, x, rows)
    ok = viol <= _CHECK_TOL
    return LpSolution("optimal" if ok else "numerical", x, float(lp.c @ x),
                      iters, perturbed, viol, basis if ok else None, rows)


def check_feasible(n: int, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                   upper=None) -> LpSolution:
    """Feasibility probe for a constraint system over ``n`` variables.

    Phase 1 only in effect: solves with a zero objective, so ``status``
    is 'optimal' with a witness ``x`` when the system is feasible and
    'infeasible' otherwise.
    """
    lp = LinearProgram(c=np.zeros(n), A_ub=A_ub, b_ub=b_ub,
                       A_eq=A_eq, b_eq=b_eq, upper=upper)
    return solve_lp(lp)
