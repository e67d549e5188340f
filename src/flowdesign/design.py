"""Sampling-rate design solvers.

Four schemes over a common DesignProblem, named by SCHEMES; solve_scheme
dispatches a scheme name to its solver for the CLI and both runners:

* classical (E-optimal): max over xi of the minimum single-period
  information, a plain LP (max theta s.t. J xi >= theta).
* steady_state (E-optimal): max over xi of the minimum steady-state
  Kalman information. Each flow contributes the hyperbolic constraint
  theta^2 <= m_i (theta + 1/sigma_i^2), i.e. m_i must reach a convex
  function of theta, so its tangents give LP relaxations. A handful of
  tangent-cut LPs (Kelley's cutting planes, latest cut only) close the
  gap between the relaxation's theta (upper bound) and the witness
  design's actual theta (lower bound); the returned design carries that
  bracket as its certificate. No cone solver needed, but
  export_canonical_socp emits the equivalent second-order cone data
  for cross-checking against one, and serialize_socp its text form,
  with all its floats formatted in one model.floats_text call.
* myopic: max over xi of the minimum one-step-ahead posterior
  information given accumulated prior information, again an LP.
* naive: split each router budget equally over its traversed
  interfaces (no optimization; the baseline).

Every solver re-substitutes its output into the constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .filtering import predicted_info, steady_state_info
# check_feasible is unused here but stays bound: perfbench/tracing.py patches it
from .lp import LinearProgram, LpSolution, check_feasible, solve_lp  # noqa: F401
from .model import DesignProblem, FlowDesignError, FlowModel, ValidationError

_SLACK_TOL = 1e-8       # hyperbolic slack on returned designs, relative to theta^2
_BRACKET_REL = 1e-12    # roundoff allowed around the certified theta bracket
_CUT_MAX_ROUNDS = 50
_ZERO_ULPS = 16         # classical theta this many ulps of max(J) max(xi) is 0

SCHEMES = ("naive", "classical", "myopic", "steady_state")


class InfeasibleError(FlowDesignError):
    """The constraint system admits no design."""


@dataclass(frozen=True, eq=False)
class DesignResult:
    xi: np.ndarray
    theta: float
    scheme: str                 # one of SCHEMES
    info: np.ndarray            # per-flow information whose minimum is theta
    diagnostics: dict = field(default_factory=dict)
    # the LP behind classical and myopic designs; warm-starts the next one
    lp_solution: LpSolution | None = None


@dataclass(frozen=True, eq=False)
class _ThetaProgram(LinearProgram):
    """A theta LP, the problem _theta_lp built it from and the shape and
    bits of its slopes."""
    problem: DesignProblem | None = None
    slopes: tuple = ()


def _theta_lp(p: DesignProblem, slopes, offsets: np.ndarray,
              start: LpSolution | None = None):
    """Solve max theta s.t. slopes*theta - J xi <= offsets, budgets, bounds.

    Variable order is (theta, xi_1 .. xi_no) to match the canonical cone
    form's x' = (theta, xi'). Slope 1 gives the classical and myopic
    rows; the steady-state cuts pass per-flow tangent slopes. ``start``
    is an earlier solution of this family, offered as a warm start.

    When ``start``'s program was built here from the same DesignProblem
    object and slopes of the same shape and bits (the previous myopic
    period's, say), only the offsets, b_ub's first n_r entries, differ:
    with_b_ub swaps them in and checks them, and shares every other
    array, so solve_lp reuses start's record. A DesignProblem's arrays
    are read-only, so the program has the bits of a fresh build, and the
    solve and its output bytes are the same.
    """
    slopes = np.asarray(slopes, dtype=float)
    key = (slopes.shape, slopes.tobytes())
    prev = None if start is None or start._rows is None else start._rows.lp
    if isinstance(prev, _ThetaProgram) and prev.problem is p and prev.slopes == key:
        rhs = np.concatenate([offsets, prev.b_ub[p.n_r:]])
        rhs.flags.writeable = False  # built here, so with_b_ub keeps it uncopied
        return solve_lp(prev.with_b_ub(rhs), start=start)
    n = 1 + p.n_o
    c = np.zeros(n)
    c[0] = 1.0
    eq = p.row_is_equality
    R_ub, b_ub, R_eq, b_eq = p.R[~eq], p.b[~eq], p.R[eq], p.b[eq]
    # slopes*theta - (J xi)_i <= offsets_i, then budget rows with a zero theta column
    A_ub = np.zeros((p.n_r + R_ub.shape[0], n))
    A_ub[:p.n_r, 0] = slopes
    A_ub[:p.n_r, 1:] = -p.J
    A_ub[p.n_r:, 1:] = R_ub
    rhs = np.concatenate([offsets, b_ub])
    A_eq = np.zeros((R_eq.shape[0], n))
    A_eq[:, 1:] = R_eq
    upper = np.concatenate([[np.inf], p.upper])
    for a in (c, A_ub, rhs, A_eq, b_eq, upper):
        a.flags.writeable = False  # built here, so LinearProgram keeps them uncopied
    return solve_lp(_ThetaProgram(c=c, A_ub=A_ub, b_ub=rhs, A_eq=A_eq, b_eq=b_eq,
                                  upper=upper, problem=p, slopes=key), start=start)


def _require_optimal(sol, scheme: str, unbounded: str,
                     infeasible: str = "budget system is infeasible") -> None:
    if sol.status == "infeasible":
        raise InfeasibleError(f"{scheme}: {infeasible}")
    if sol.status == "unbounded":
        raise FlowDesignError(f"{scheme}: {unbounded}")
    if sol.status != "optimal":
        raise FlowDesignError(
            f"{scheme}: LP ended with status {sol.status} "
            f"(max violation {sol.max_violation:.3e})")


def _lp_design(p: DesignProblem, offsets: np.ndarray, scheme: str,
               start: LpSolution | None = None) -> DesignResult:
    """Shared LP core: max theta s.t. offsets + J xi >= theta, budgets, bounds."""
    sol = _theta_lp(p, 1.0, offsets, start)
    _require_optimal(sol, scheme, "objective unbounded; add caps or budget rows")
    xi = model.check_design_output(p, sol.x[1:])
    info = offsets + p.J @ xi
    theta = float(np.min(info))
    return DesignResult(
        xi=xi, theta=theta, scheme=scheme, info=info,
        diagnostics={"lp_iterations": sol.iterations,
                     "lp_perturbed": sol.perturbed,
                     "max_violation": sol.max_violation},
        lp_solution=sol)


def solve_classical_E(p: DesignProblem) -> DesignResult:
    """Maximize the minimum single-period information min_i (J xi)_i."""
    return _lp_design(p, np.zeros(p.n_r), "classical")


def solve_myopic(p: DesignProblem, fm: FlowModel, prior_info,
                 start: DesignResult | None = None) -> DesignResult:
    """Maximize the minimum posterior information for the coming period.

    ``prior_info`` is the filter bank's information after the previous
    period. It is first propagated one step, a_i = prior/(1 + sigma_i^2
    * prior), and the LP maximizes min_i a_i + (J xi)_i. With zero prior
    this reduces exactly to the classical design. ``start``, the previous
    period's design on the same problem, warm-starts the LP from its
    optimal basis: successive periods move only the offsets a, so that
    basis usually stays optimal and is certified with no pivot. On the
    same DesignProblem object the period also reuses start's program
    with the new offsets swapped in, and its record (see _theta_lp);
    the output has the bits of a period built from scratch.

    The LP is often degenerate: only the smallest entry of a + J xi is
    maximized, so many xi can share the optimum. The returned (and
    logged) rates are one optimal vertex, picked by the pivot path, and
    a warm and a cold solve can return different ones; compare myopic
    designs by theta and MSE, not by their rates.
    """
    if fm.n_r != p.n_r:
        raise ValidationError("flow model and problem disagree on n_r")
    a = np.atleast_1d(np.asarray(prior_info, dtype=float))
    if a.shape != (p.n_r,) or np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValidationError("prior_info must be finite, >= 0, one entry per flow")
    return _lp_design(p, predicted_info(a, fm.sigma2), "myopic",
                      None if start is None else start.lp_solution)


def _check_certificate(theta: float, m: np.ndarray, sigma2: np.ndarray,
                       bracket: tuple) -> None:
    """Raise unless every flow meets theta^2 <= m_i (theta + 1/sigma_i^2),
    with slack relative to theta^2, and theta lies in its certified
    bracket up to roundoff."""
    slack = m * (theta + 1.0 / sigma2) - theta * theta
    if np.any(slack < -_SLACK_TOL * theta * theta):
        raise FlowDesignError("steady_state: hyperbolic constraint violated")
    lo, hi = bracket
    if not lo * (1.0 - _BRACKET_REL) <= theta <= hi * (1.0 + _BRACKET_REL):
        raise FlowDesignError(
            f"steady_state: theta {theta!r} outside its bracket {bracket!r}")


def solve_steady_state_E(p: DesignProblem, fm: FlowModel,
                         tol_theta: float = 1e-9) -> DesignResult:
    """Maximize the minimum steady-state information across flows.

    Flow i's hyperbolic constraint theta^2 <= (J xi)_i (theta + c_i),
    c_i = 1/sigma_i^2, says (J xi)_i >= h_i(theta) = theta^2/(theta + c_i)
    with h_i convex, so any tangent of h_i gives a valid LP relaxation
    (Kelley's cutting planes). The first LP uses the asymptotes
    theta - (J xi)_i <= c_i; each later one replaces them by the tangents
    at the current upper bound t,

        h_i'(t) theta - (J xi)_i <= c_i t^2/(t + c_i)^2,
        h_i'(t) = t (t + 2 c_i)/(t + c_i)^2,

    keeping only the latest cut, so the LP never outgrows the classical
    one. Every LP's theta bounds the optimum from above and, after the
    first, falls below the previous tangent point; the best witness's
    actual minimum steady-state information bounds it from below. The
    loop stops when the gap is within ``tol_theta`` (relative), usually
    after 4-5 LPs, and the witness is returned with the certificate
    ``diagnostics["theta_bracket"] = (lo, hi)``. If the witnesses of the
    first two LPs both have theta 0, one classical LP decides whether
    theta* = 0 up to roundoff; if so, the bracket closes at once. Each
    LP after the first is warm-started from the previous one's optimal
    basis; only the theta column and the offsets change between rounds.
    ``diagnostics["cut_rounds"]`` counts the LPs, the classical one
    included, and ``lp_pivots`` and ``lp_perturbed`` total their pivots
    and perturbation flags.
    """
    if fm.n_r != p.n_r:
        raise ValidationError("flow model and problem disagree on n_r")
    if not (np.isfinite(tol_theta) and tol_theta > 0):
        raise ValidationError("tol_theta must be finite and positive")
    warnings: list = []
    c = 1.0 / fm.sigma2
    zero_rows = np.where(np.max(p.J, axis=1) <= 0.0)[0]
    # only the latest LP is kept (with its reuse record: program and
    # rows; see lp), as the next one's warm start; every LP leaves its
    # pivots and perturbation flag in stats
    last = None
    stats: list = []

    def solve(slopes, offsets) -> LpSolution:
        nonlocal last
        last = _theta_lp(p, slopes, offsets, last)
        stats.append((last.iterations, last.perturbed))
        return last

    def witness(sol: LpSolution):
        """The LP's design and its minimum steady-state information."""
        xi = model.check_design_output(p, sol.x[1:])
        return xi, float(np.min(steady_state_info(p.J @ xi, fm.sigma2)))

    sol = solve(1.0, c)  # asymptote cut: h_i(theta) >= theta - c_i
    _require_optimal(sol, "steady_state",
                     "information unbounded for every flow; add caps",
                     "budget system is infeasible at theta=0 "
                     "(over-constrained equalities?)")
    xi_best, lo = witness(sol)
    hi = float(sol.x[0])
    if zero_rows.size:
        warnings.append(f"flows {zero_rows.tolist()} are unobservable; theta* = 0")
        hi = 0.0
    while hi - lo > tol_theta * hi:
        if len(stats) == 2 and lo == 0.0:
            # theta* = 0 exactly when the classical optimum min_i (J xi)_i
            # is 0 (say, all budgets 0); the cuts would only halve hi.
            # A warm start can certify theta ~1e-22 there, and a starved
            # flow's points can keep ~1e-18 of rate, so theta counts as 0
            # within _ZERO_ULPS of the size of J xi's terms. The bracket
            # then closes on the witness and on the most steady-state
            # information a flow with m_i <= theta_c can reach
            sol = solve(1.0, np.zeros(p.n_r))
            if sol.ok:
                xi, theta_w = witness(sol)
                theta_c = float(sol.x[0])
                if theta_c <= _ZERO_ULPS * np.spacing(np.max(p.J) * np.max(xi)):
                    top = float(np.max(steady_state_info(max(theta_c, 0.0),
                                                         fm.sigma2)))
                    lo, hi, xi_best = theta_w, max(top, theta_w), xi
                    break
        if len(stats) >= _CUT_MAX_ROUNDS:
            warnings.append(f"gap {hi - lo!r} still open after {len(stats)} cut LPs")
            break
        t = hi
        sol = solve(t * (t + 2.0 * c) / (t + c) ** 2, c * t * t / (t + c) ** 2)
        if not sol.ok:
            # a cut LP is never infeasible or unbounded in exact arithmetic
            # (theta = 0 fits any budget-feasible xi); keep the last bracket
            warnings.append(f"cut LP {len(stats)} ended {sol.status}; bracket kept")
            break
        xi, theta_w = witness(sol)
        if theta_w > lo:
            lo, xi_best = theta_w, xi
        hi = min(hi, float(sol.x[0]))

    m = p.J @ xi_best
    info = steady_state_info(m, fm.sigma2)
    theta = float(np.min(info))
    _check_certificate(theta, m, fm.sigma2, (lo, hi))
    diagnostics = {"warnings": warnings, "cut_rounds": len(stats),
                   "lp_pivots": sum(pivots for pivots, _ in stats),
                   "lp_perturbed": any(perturbed for _, perturbed in stats),
                   "theta_bracket": (lo, hi), "tol_theta": tol_theta}
    return DesignResult(xi=xi_best, theta=theta, scheme="steady_state",
                        info=info, diagnostics=diagnostics)


def solve_naive(p: DesignProblem) -> DesignResult:
    """Equal rates across each router's traversed interfaces, budget tight.

    Observation point k is a traversed interface of router j when
    R[j, k] > 0 and some flow crosses it (J[:, k] has a positive entry).
    A router with g > 0 traversed interfaces gives each the rate that
    spends b_j exactly (b_j/g when the budget row has unit coefficients);
    untraversed interfaces get 0, and a router with no traversed
    interfaces simply spends nothing. The rates are checked against p:
    design_problem flags a row as equality only for a router with a
    traversed interface, whose equal split spends b_j exactly.
    """
    owned = p.R > 0
    crossed = np.any(p.J > 0, axis=0)
    if np.any(crossed & (np.count_nonzero(owned, axis=0) > 1)):
        raise ValidationError(
            "every traversed observation point must belong to exactly one budget row")
    tr = owned & crossed
    xi = np.zeros(p.n_o)
    for j in range(p.n_v):
        sel = tr[j]
        if not np.any(sel):
            continue
        weight = float(np.sum(p.R[j, sel]))
        rate = p.b[j] / weight
        if np.any(rate > p.upper[sel] + 1e-12):
            raise InfeasibleError(
                f"naive: equal split of budget row {j} leaves its bounds")
        xi[sel] = rate
    xi = model.check_design_output(p, xi)
    info = p.J @ xi
    theta = float(np.min(info)) if info.size else 0.0
    return DesignResult(xi=xi, theta=theta, scheme="naive", info=info,
                        diagnostics={})


def solve_scheme(scheme: str, p: DesignProblem, fm: FlowModel, prior_info=None,
                 tol_theta: float = 1e-9,
                 start: DesignResult | None = None) -> DesignResult:
    """The design of ``scheme``, one of SCHEMES. Myopic alone reads
    ``prior_info`` (default zero) and ``start``, steady_state alone
    ``tol_theta``. Solvers are looked up here at call time, so a patch of
    flowdesign.design.solve_* sees every call."""
    if scheme == "naive":
        return solve_naive(p)
    if scheme == "classical":
        return solve_classical_E(p)
    if scheme == "myopic":
        prior = np.zeros(fm.n_r) if prior_info is None else prior_info
        return solve_myopic(p, fm, prior, start=start)
    if scheme == "steady_state":
        return solve_steady_state_E(p, fm, tol_theta=tol_theta)
    raise ValidationError(f"scheme must be one of {', '.join(SCHEMES)}")


# ---------------------------------------------------------------------------
# canonical second-order cone form
#
# min f'x  s.t.  ||P_i x + q_i|| <= r_i'x + s_i,  x' = (theta, xi')


@dataclass(frozen=True, eq=False)
class SocpCone:
    P: np.ndarray   # (rows, n); all-zero rows for plain linear constraints
    q: np.ndarray   # (rows,)
    r: np.ndarray   # (n,)
    s: float


@dataclass(frozen=True, eq=False)
class CanonicalSocp:
    f: np.ndarray
    cones: tuple
    n_flow_cones: int
    n_budget_cones: int

    @property
    def n(self) -> int:
        return self.f.size


def export_canonical_socp(p: DesignProblem, fm: FlowModel) -> CanonicalSocp:
    """Canonical cone data for the steady-state design problem.

    Exactly n_r + n_v cones over x' = (theta, xi'): one hyperbolic cone
    per flow,

        P_i = [[2, 0, ..., 0], [-1, J_i]],  q_i = (0, -1/sigma_i^2),
        r_i = (1, J_i),  s_i = 1/sigma_i^2,

    whose inequality ||P_i x + q_i|| <= r_i'x + s_i is algebraically
    theta^2 <= (J xi)_i (theta + 1/sigma_i^2), and one linear cone
    (P = 0) per budget row encoding R_j xi <= b_j. Variable bounds
    (0 <= theta, 0 <= xi <= upper) are not cones and must be handed
    to an external solver separately; equality-flagged budget rows are
    exported as inequalities.
    """
    if fm.n_r != p.n_r:
        raise ValidationError("flow model and problem disagree on n_r")
    n = 1 + p.n_o
    f = np.zeros(n)
    f[0] = -1.0  # minimize -theta
    cones = []
    for i in range(p.n_r):
        P = np.zeros((2, n))
        P[0, 0] = 2.0
        P[1, 0] = -1.0
        P[1, 1:] = p.J[i]
        c_i = 1.0 / float(fm.sigma2[i])
        r = np.zeros(n)
        r[0] = 1.0
        r[1:] = p.J[i]
        cones.append(SocpCone(P=P, q=np.array([0.0, -c_i]), r=r, s=c_i))
    for j in range(p.n_v):
        r = np.zeros(n)
        r[1:] = -p.R[j]
        cones.append(SocpCone(P=np.zeros((1, n)), q=np.zeros(1),
                              r=r, s=float(p.b[j])))
    return CanonicalSocp(f=f, cones=tuple(cones),
                         n_flow_cones=p.n_r, n_budget_cones=p.n_v)


def serialize_socp(socp: CanonicalSocp) -> str:
    """Plain-text block form, one cone per stanza. Round-trips exactly:
    the SOCP text reader of tests/oracles.py reads back the same bits.

    Layout::

        socp-canonical v1
        nvars <n> flow_cones <n_r> budget_cones <n_v>
        f
        <n floats>
        cone <index> rows <h>
        P
        <h lines of n floats>        (row-major)
        q
        <h floats>
        r
        <n floats>
        s
        <float>

    All floats are formatted by one model.floats_text call, in stanza
    order, 17 significant digits, so parsing recovers the exact values.
    """
    texts = model.floats_text(np.concatenate([socp.f, *(
        a for c in socp.cones for a in (c.P.ravel(), c.q, c.r, [c.s]))]))
    at = 0

    def fmt(count: int) -> str:  # the next ``count`` texts, as one line
        nonlocal at
        at += count
        return " ".join(texts[at - count:at])

    lines = ["socp-canonical v1",
             f"nvars {socp.n} flow_cones {socp.n_flow_cones} "
             f"budget_cones {socp.n_budget_cones}",
             "f", fmt(socp.n)]
    for idx, cone in enumerate(socp.cones, start=1):
        h, n = cone.P.shape
        lines += [f"cone {idx} rows {h}", "P", *(fmt(n) for _ in range(h)),
                  "q", fmt(cone.q.size), "r", fmt(cone.r.size), "s", fmt(1)]
    return "\n".join(lines) + "\n"
