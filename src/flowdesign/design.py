"""Sampling-rate design solvers.

Four strategies over a common DesignProblem:

* classical E-optimal: max over xi of the minimum single-period
  information, a plain LP (max theta s.t. J xi >= theta).
* steady-state E-optimal: max over xi of the minimum steady-state
  Kalman information. Each flow contributes the hyperbolic constraint
  theta^2 <= m_i (theta + 1/sigma_i^2); for fixed theta the constraints
  are linear in xi and tighten monotonically as theta grows, so the
  problem is solved exactly by bisection on theta with an LP
  feasibility probe per step. No cone solver needed, but
  export_canonical_socp emits the equivalent second-order cone data
  for cross-checking against one.
* myopic: max over xi of the minimum one-step-ahead posterior
  information given accumulated prior information, again an LP.
* naive: split each router budget equally over its traversed
  interfaces (no optimization; the baseline).

Every solver re-substitutes its output into the constraints and checks
that theta really is the minimum of the relevant per-flow information.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .filtering import steady_state_info
from .lp import LinearProgram, check_feasible, solve_lp
from .model import DesignProblem, FlowDesignError, FlowModel, ValidationError

_THETA_REL_TOL = 1e-6   # reported theta vs min per-flow information
_SLACK_TOL = 1e-8       # hyperbolic / budget slack on returned designs
_BISECT_MAX_ITER = 200


class InfeasibleError(FlowDesignError):
    """The constraint system admits no design."""


@dataclass(frozen=True)
class DesignResult:
    xi: np.ndarray
    theta: float
    scheme: str                 # classical_E | steady_state_E | myopic | naive
    info: np.ndarray            # per-flow information whose minimum is theta
    diagnostics: dict = field(default_factory=dict)


def _split_rows(p: DesignProblem):
    """Budget rows partitioned into (A_ub, b_ub, A_eq, b_eq) pieces."""
    mask = p.row_is_equality
    return p.R[~mask], p.b[~mask], p.R[mask], p.b[mask]


def _check_theta(theta: float, info: np.ndarray, scheme: str) -> None:
    lo = float(np.min(info)) if info.size else 0.0
    scale = max(abs(theta), abs(lo), 1e-30)
    if abs(theta - lo) > _THETA_REL_TOL * scale:
        raise FlowDesignError(
            f"{scheme}: theta {theta!r} is not the minimum information {lo!r}"
        )


def _lp_design(p: DesignProblem, offsets: np.ndarray, scheme: str) -> DesignResult:
    """Shared LP core: max theta s.t. offsets + J xi >= theta, budgets, bounds.

    Variable order is (theta, xi_1 .. xi_no) to match the canonical cone
    form's x' = (theta, xi').
    """
    n = 1 + p.n_o
    c = np.zeros(n)
    c[0] = 1.0
    R_ub, b_ub, R_eq, b_eq = _split_rows(p)
    # theta - (J xi)_i <= offsets_i, then budget rows with a zero theta column
    A_ub = np.zeros((p.n_r + R_ub.shape[0], n))
    A_ub[:p.n_r, 0] = 1.0
    A_ub[:p.n_r, 1:] = -p.J
    A_ub[p.n_r:, 1:] = R_ub
    rhs = np.concatenate([offsets, b_ub])
    A_eq = None
    if R_eq.shape[0]:
        A_eq = np.zeros((R_eq.shape[0], n))
        A_eq[:, 1:] = R_eq
    lower = np.concatenate([[0.0], p.lower])
    upper = np.concatenate([[np.inf], p.upper])
    sol = solve_lp(LinearProgram(c=c, A_ub=A_ub, b_ub=rhs,
                                 A_eq=A_eq, b_eq=b_eq if A_eq is not None else None,
                                 lower=lower, upper=upper))
    if sol.status == "infeasible":
        raise InfeasibleError(f"{scheme}: budget system is infeasible")
    if sol.status == "unbounded":
        raise FlowDesignError(
            f"{scheme}: objective unbounded; add caps or budget rows")
    if sol.status != "optimal":
        raise FlowDesignError(
            f"{scheme}: LP ended with status {sol.status} "
            f"(max violation {sol.max_violation:.3e})")
    xi = model.check_design_output(p, sol.x[1:])
    info = offsets + p.J @ xi
    theta = float(np.min(info))
    _check_theta(theta, info, scheme)
    return DesignResult(
        xi=xi, theta=theta, scheme=scheme, info=info,
        diagnostics={"lp_iterations": sol.iterations,
                     "lp_perturbed": sol.perturbed,
                     "max_violation": sol.max_violation})


def solve_classical_E(p: DesignProblem) -> DesignResult:
    """Maximize the minimum single-period information min_i (J xi)_i."""
    return _lp_design(p, np.zeros(p.n_r), "classical_E")


def solve_myopic(p: DesignProblem, fm: FlowModel, prior_info,
                 use_prediction: bool = True) -> DesignResult:
    """Maximize the minimum posterior information for the coming period.

    ``prior_info`` is the filter bank's information after the previous
    period. With ``use_prediction`` it is first propagated one step,
    a_i = prior/(1 + sigma_i^2 * prior), and the LP maximizes
    min_i a_i + (J xi)_i; otherwise ``prior_info`` is used as-is.
    With zero prior this reduces exactly to the classical design.
    """
    if fm.n_r != p.n_r:
        raise ValidationError("flow model and problem disagree on n_r")
    a = np.atleast_1d(np.asarray(prior_info, dtype=float))
    if a.shape != (p.n_r,) or np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValidationError("prior_info must be finite, >= 0, one entry per flow")
    if use_prediction:
        a = a / (1.0 + fm.sigma2 * a)
    return _lp_design(p, a, "myopic")


def _theta_threshold(theta: float, sigma2: np.ndarray) -> np.ndarray:
    """Information each flow needs for steady-state information theta.

    Inverts the steady-state fixed point: m = theta^2 / (theta + 1/sigma^2).
    """
    return theta * theta / (theta + 1.0 / sigma2)


def _probe(p: DesignProblem, thresholds: np.ndarray):
    """LP feasibility of {J xi >= thresholds} within the budget polytope."""
    R_ub, b_ub, R_eq, b_eq = _split_rows(p)
    A_ub = np.vstack([-p.J, R_ub])
    b = np.concatenate([-thresholds, b_ub])
    return check_feasible(
        p.n_o, A_ub=A_ub, b_ub=b,
        A_eq=R_eq if R_eq.shape[0] else None,
        b_eq=b_eq if R_eq.shape[0] else None,
        lower=p.lower, upper=p.upper)


def _info_ceiling(p: DesignProblem, fm: FlowModel, diagnostics: dict) -> float:
    """Upper bracket for bisection: best steady-state information any flow
    could reach if it alone got the whole box."""
    if np.all(np.isfinite(p.upper)):
        m_cap = p.J @ p.upper
        return float(np.max(steady_state_info(m_cap, fm.sigma2)))
    # unbounded caps: bound each flow's information by its own LP maximum
    R_ub, b_ub, R_eq, b_eq = _split_rows(p)
    best = 0.0
    bounded = False
    pivots = 0
    for i in range(p.n_r):
        sol = solve_lp(LinearProgram(
            c=p.J[i], A_ub=R_ub if R_ub.shape[0] else None,
            b_ub=b_ub if R_ub.shape[0] else None,
            A_eq=R_eq if R_eq.shape[0] else None,
            b_eq=b_eq if R_eq.shape[0] else None,
            lower=p.lower, upper=p.upper))
        pivots += sol.iterations
        if sol.status == "infeasible":
            raise InfeasibleError("steady_state_E: budget system is infeasible")
        if sol.status == "unbounded":
            continue  # this flow cannot cap theta
        if sol.status != "optimal":
            raise FlowDesignError(f"steady_state_E: bracket LP status {sol.status}")
        bounded = True
        best = max(best, steady_state_info(sol.objective, float(fm.sigma2[i])))
    diagnostics["bracket_lp_pivots"] = pivots
    if not bounded:
        raise FlowDesignError(
            "steady_state_E: information unbounded for every flow; add caps")
    return best


def solve_steady_state_E(p: DesignProblem, fm: FlowModel,
                         tol_theta: float = 1e-9) -> DesignResult:
    """Maximize the minimum steady-state information across flows.

    Bisects on theta: for fixed theta the hyperbolic constraints
    theta^2 <= (J xi)_i (theta + 1/sigma_i^2) become the linear rows
    (J xi)_i >= theta^2/(theta + 1/sigma_i^2), and they only tighten as
    theta grows, so each probe is one LP feasibility check.
    ``tol_theta`` is relative. The returned theta is the actual minimum
    steady-state information of the witness design, which lies within
    the bisection bracket of the true optimum.
    """
    if fm.n_r != p.n_r:
        raise ValidationError("flow model and problem disagree on n_r")
    if not (np.isfinite(tol_theta) and tol_theta > 0):
        raise ValidationError("tol_theta must be finite and positive")
    diagnostics: dict = {"warnings": []}

    base = _probe(p, np.zeros(p.n_r))
    if base.status == "infeasible":
        raise InfeasibleError(
            "steady_state_E: budget system is infeasible at theta=0 "
            "(over-constrained equalities?)")
    if base.status != "optimal":
        raise FlowDesignError(f"steady_state_E: base probe status {base.status}")
    xi_best = base.x
    pivots = base.iterations
    perturbed = base.perturbed

    zero_rows = np.where(np.max(p.J, axis=1) <= 0.0)[0]
    if zero_rows.size:
        diagnostics["warnings"].append(
            f"flows {zero_rows.tolist()} are unobservable; theta* = 0")
        hi = 0.0
    else:
        hi = _info_ceiling(p, fm, diagnostics)

    lo = 0.0
    iters = 0
    if hi > 0.0:
        top = _probe(p, _theta_threshold(hi, fm.sigma2))
        pivots += top.iterations
        perturbed = perturbed or top.perturbed
        if top.status == "optimal":
            lo, xi_best = hi, top.x  # every flow can hit the ceiling at once
        else:
            while iters < _BISECT_MAX_ITER and hi - lo > tol_theta * hi:
                mid = 0.5 * (lo + hi)
                probe = _probe(p, _theta_threshold(mid, fm.sigma2))
                pivots += probe.iterations
                perturbed = perturbed or probe.perturbed
                if probe.status == "optimal":
                    lo, xi_best = mid, probe.x
                elif probe.status == "infeasible":
                    hi = mid
                else:
                    # probes land exactly on the feasibility boundary as the
                    # bisection converges; a marginal system may come back
                    # "numerical", and counting it infeasible only moves hi by
                    # an amount the final witness check absorbs
                    diagnostics["warnings"].append(
                        f"probe at theta={mid} ended {probe.status}; "
                        "treated as infeasible")
                    hi = mid
                iters += 1

    xi = model.check_design_output(p, xi_best)
    m = p.J @ xi
    info = steady_state_info(m, fm.sigma2)
    theta = float(np.min(info)) if info.size else 0.0
    _check_theta(theta, info, "steady_state_E")
    # hyperbolic slack on the returned design must be nonnegative
    slack = m * (theta + 1.0 / fm.sigma2) - theta * theta
    if np.any(slack < -_SLACK_TOL * max(theta * theta, 1.0)):
        raise FlowDesignError("steady_state_E: hyperbolic constraint violated")
    diagnostics.update(bisection_iterations=iters, lp_pivots=pivots,
                       lp_perturbed=perturbed, theta_bracket=(lo, hi),
                       tol_theta=tol_theta)
    return DesignResult(xi=xi, theta=theta, scheme="steady_state_E",
                        info=info, diagnostics=diagnostics)


def solve_naive(p: DesignProblem, traversal) -> DesignResult:
    """Equal rates across each router's traversed interfaces, budget tight.

    ``traversal`` is a boolean matrix (n_v, n_o): entry (j, k) marks
    observation point k as an interface of router j carrying at least
    one flow. A router with g > 0 traversed interfaces gives each the
    rate that spends b_j exactly (b_j/g when the budget row has unit
    coefficients); untraversed interfaces get 0, and a router with no
    traversed interfaces simply spends nothing. Budget tightness is the
    scheme's defining property, not a constraint, so equality flags on
    p are ignored here.
    """
    tr = np.asarray(traversal, dtype=bool)
    if tr.shape != (p.n_v, p.n_o):
        raise ValidationError("traversal must be boolean with shape (n_v, n_o)")
    owners = np.count_nonzero(p.R > 0, axis=0)
    marked = np.any(tr, axis=0)
    if np.any(marked & (owners != 1)):
        raise ValidationError(
            "every traversed observation point must belong to exactly one budget row")
    if np.any(tr & ~(p.R > 0)):
        raise ValidationError("traversal marks an interface outside its budget row")
    xi = np.zeros(p.n_o)
    for j in range(p.n_v):
        sel = tr[j]
        if not np.any(sel):
            continue
        weight = float(np.sum(p.R[j, sel]))
        rate = p.b[j] / weight
        if np.any(rate > p.upper[sel] + 1e-12) or np.any(rate < p.lower[sel] - 1e-12):
            raise InfeasibleError(
                f"naive: equal split of budget row {j} leaves its bounds")
        xi[sel] = rate
    relaxed = DesignProblem(J=p.J, R=p.R, b=p.b, lower=p.lower, upper=p.upper)
    xi = model.check_design_output(relaxed, xi)
    info = p.J @ xi
    theta = float(np.min(info)) if info.size else 0.0
    _check_theta(theta, info, "naive")
    return DesignResult(xi=xi, theta=theta, scheme="naive", info=info,
                        diagnostics={})


# ---------------------------------------------------------------------------
# canonical second-order cone form
#
# min f'x  s.t.  ||P_i x + q_i|| <= r_i'x + s_i,  x' = (theta, xi')


@dataclass(frozen=True)
class SocpCone:
    P: np.ndarray   # (rows, n); all-zero rows for plain linear constraints
    q: np.ndarray   # (rows,)
    r: np.ndarray   # (n,)
    s: float


@dataclass(frozen=True)
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
    (0 <= theta, lower <= xi <= upper) are not cones and must be handed
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


def cone_residuals(socp: CanonicalSocp, x) -> np.ndarray:
    """Per-cone slack r'x + s - ||P x + q||; feasible iff all >= 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (socp.n,):
        raise ValidationError(f"x must have {socp.n} entries (theta first)")
    out = np.empty(len(socp.cones))
    for idx, cone in enumerate(socp.cones):
        out[idx] = float(cone.r @ x) + cone.s - np.linalg.norm(cone.P @ x + cone.q)
    return out


def _fmt(values) -> str:
    return " ".join(format(float(v), ".17g") for v in np.atleast_1d(values))


def serialize_socp(socp: CanonicalSocp) -> str:
    """Plain-text block form, one cone per stanza. Round-trips exactly.

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

    Floats are printed with 17 significant digits so parsing recovers
    the exact IEEE values.
    """
    lines = ["socp-canonical v1",
             f"nvars {socp.n} flow_cones {socp.n_flow_cones} "
             f"budget_cones {socp.n_budget_cones}",
             "f", _fmt(socp.f)]
    for idx, cone in enumerate(socp.cones, start=1):
        lines.append(f"cone {idx} rows {cone.P.shape[0]}")
        lines.append("P")
        lines.extend(_fmt(row) for row in cone.P)
        lines.append("q")
        lines.append(_fmt(cone.q))
        lines.append("r")
        lines.append(_fmt(cone.r))
        lines.append("s")
        lines.append(_fmt(cone.s))
    return "\n".join(lines) + "\n"


def parse_socp_text(text: str) -> CanonicalSocp:
    """Inverse of serialize_socp. Raises ValidationError on malformed input."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    pos = 0

    def take(expect: str | None = None) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ValidationError("socp text ended early")
        line = lines[pos]
        pos += 1
        if expect is not None and line != expect:
            raise ValidationError(f"expected {expect!r}, found {line!r}")
        return line

    def floats(line: str, count: int) -> np.ndarray:
        parts = line.split()
        if len(parts) != count:
            raise ValidationError(f"expected {count} numbers, found {len(parts)}")
        try:
            return np.array([float(tok) for tok in parts])
        except ValueError as exc:
            raise ValidationError(f"bad number in socp text: {exc}") from None

    take("socp-canonical v1")
    head = take().split()
    if (len(head) != 6 or head[0] != "nvars" or head[2] != "flow_cones"
            or head[4] != "budget_cones"):
        raise ValidationError("malformed socp header line")
    try:
        n, n_flow, n_budget = int(head[1]), int(head[3]), int(head[5])
    except ValueError:
        raise ValidationError("malformed socp header counts") from None
    take("f")
    f = floats(take(), n)
    cones = []
    for idx in range(1, n_flow + n_budget + 1):
        head = take().split()
        if len(head) != 4 or head[0] != "cone" or head[2] != "rows":
            raise ValidationError(f"malformed cone header for cone {idx}")
        if int(head[1]) != idx:
            raise ValidationError(f"cone {head[1]} out of order (expected {idx})")
        rows = int(head[3])
        take("P")
        P = np.vstack([floats(take(), n) for _ in range(rows)])
        take("q")
        q = floats(take(), rows)
        take("r")
        r = floats(take(), n)
        take("s")
        s = float(floats(take(), 1)[0])
        cones.append(SocpCone(P=P, q=q, r=r, s=s))
    if pos != len(lines):
        raise ValidationError("trailing content after last cone")
    return CanonicalSocp(f=f, cones=tuple(cones),
                         n_flow_cones=n_flow, n_budget_cones=n_budget)
