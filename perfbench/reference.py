"""Independent design optima from scipy's HiGHS, for the output checks.

Both references solve the same constraint system as flowdesign
(J xi >= per-flow thresholds, R xi <= b, lower <= xi <= upper) with
HiGHS instead of the package's own simplex, and share no code with it.
Information rows are rescaled to coefficients or right-hand sides of
order one, which keeps HiGHS's absolute feasibility tolerance meaningful
next to information values of order 1e-6. scipy is imported only when a
reference is solved, so the process that runs the checks never loads it.
"""

from __future__ import annotations

import numpy as np

_HIGHS = {"primal_feasibility_tolerance": 1e-10,
          "dual_feasibility_tolerance": 1e-10}
_BISECT_REL = 1e-12


def steady_info(m, sigma2):
    """Positive root of u = u/(1 + sigma2 u) + m (limiting filter information)."""
    m = np.asarray(m, dtype=float)
    return 0.5 * m + np.sqrt(0.25 * m * m + m / sigma2)


def classical_theta(J, R, b, lower, upper) -> float:
    """max theta s.t. J xi >= theta, R xi <= b, lower <= xi <= upper.

    Solved for tau = theta / min_i (J upper)_i, which keeps the
    information rows' coefficients of order one.
    """
    from scipy.optimize import linprog
    n_r, n_o = J.shape
    scale = float(np.min(J @ upper))
    c = np.zeros(1 + n_o)
    c[0] = -1.0
    A = np.zeros((n_r + R.shape[0], 1 + n_o))
    A[:n_r, 0] = 1.0
    A[:n_r, 1:] = -J / scale
    A[n_r:, 1:] = R
    rhs = np.concatenate([np.zeros(n_r), b])
    bounds = [(0.0, None)] + list(zip(lower, upper))
    res = linprog(c, A_ub=A, b_ub=rhs, bounds=bounds, method="highs",
                  options=_HIGHS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS classical reference: {res.message}")
    return float(-res.fun) * scale


def _feasible(J, R, b, lower, upper, thresholds) -> bool:
    from scipy.optimize import linprog
    A = np.vstack([-J / thresholds[:, None], R])
    rhs = np.concatenate([-np.ones(J.shape[0]), b])
    res = linprog(np.zeros(J.shape[1]), A_ub=A, b_ub=rhs,
                  bounds=list(zip(lower, upper)), method="highs",
                  options=_HIGHS)
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS feasibility probe: {res.message}")
    return res.status == 0


def steady_state_theta(J, R, b, lower, upper, sigma2) -> float:
    """max theta s.t. every flow's limiting information reaches theta.

    Bisection on theta; for fixed theta the flow constraints are the
    linear rows (J xi)_i >= theta^2 / (theta + 1/sigma_i^2).
    """
    lo, hi = 0.0, float(np.max(steady_info(J @ upper, sigma2)))
    while hi - lo > _BISECT_REL * hi:
        mid = 0.5 * (lo + hi)
        if _feasible(J, R, b, lower, upper, mid * mid / (mid + 1.0 / sigma2)):
            lo = mid
        else:
            hi = mid
    return lo
