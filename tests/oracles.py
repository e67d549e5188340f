"""Independent reference implementations used only by the tests.

Everything here recomputes quantities the library provides, by a
different route, so agreement is meaningful:

* riccati_iterate: the filter variance recursion in its textbook
  variance form, iterated from a huge prior variance.
* riccati_bisect: sign bisection on the fixed-point residual of the
  information recursion; rigorous even where plain iteration contracts
  too slowly to be usable.
* vertex_lp_max: brute-force vertex enumeration for small LPs.
* grid_design_bounds: a grid search over the budget face returning a
  certified two-sided sandwich [theta_lower, theta_upper] for the
  steady-state design optimum.
* bisect_steady_state: the steady-state design optimum by bisection on
  theta, with scipy HiGHS feasibility probes.
* highs_classical_theta: the classical design optimum as one scipy
  HiGHS LP.
* dense_gls: the full matrix GLS solve (L' W L) y = L' W z.
* path_incidence: per-flow observation points and the router
  traversal matrix, walked edge by edge along the routed paths.
* per_flow_routes: route_flows with its own reverse BFS for every flow.
* per_period_simulation: run_simulation's closed loop one period at a
  time, through the validating public functions, with every block's
  design solved afresh.
* socp_floats: serialize_socp's number text with every value formatted
  on its own, where the library formats each distinct bit pattern once.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from flowdesign import (FilterState, RoutingError, design_problem, fuse_gls,
                        harness, predict_update, remap_mu, sample_packets,
                        solve_myopic, solve_naive, solve_steady_state_E)


# ---------------------------------------------------------------------------
# steady-state information


def riccati_iterate(m, sigma2, tol=1e-13, max_iter=10 ** 7):
    """Variance-form recursion s <- 1/(1/(s + sigma2) + m) from s = 1e30.

    Returns the limiting information 1/s. Successive-change stopping, so
    only trust it where the contraction is quick (sigma2 * limit not
    tiny); use riccati_bisect elsewhere.
    """
    if m == 0:
        return 0.0
    s = 1e30
    for _ in range(max_iter):
        new = 1.0 / (1.0 / (s + sigma2) + m)
        if abs(new - s) <= tol * new:
            return 1.0 / new
        s = new
    raise RuntimeError("variance recursion did not settle")


def riccati_bisect(m, sigma2, iters=200):
    """Bisect g(u) - u where g(u) = u/(1 + sigma2*u) + m (vectorized).

    g is increasing with g(m) > m, and the fixed point is below
    m + sqrt(m/sigma2), so the bracket is certain; 200 halvings reach
    machine resolution regardless of how slowly iteration would crawl.
    """
    m = np.asarray(m, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    lo = np.array(m, copy=True)
    hi = m + np.sqrt(np.maximum(m, 0.0) / sigma2)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        resid = mid / (1.0 + sigma2 * mid) + m - mid
        lo = np.where(resid > 0, mid, lo)
        hi = np.where(resid > 0, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# small-LP brute force


def vertex_lp_max(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                  lower=None, upper=None, feas_tol=1e-9):
    """Maximize c'x by enumerating basic points of a BOUNDED system.

    All bounds must be finite (the polytope is then a polytope proper,
    and optima sit on vertices). Returns (status, best_x, best_val) with
    status 'optimal' or 'infeasible'.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.ones(n) if upper is None else np.asarray(upper, dtype=float)
    assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
    rows = [np.zeros((0, n))] if A_ub is None else [np.asarray(A_ub, dtype=float)]
    rhs = [np.zeros(0)] if b_ub is None else [np.asarray(b_ub, dtype=float)]
    eye = np.eye(n)
    rows.extend([eye, -eye])
    rhs.extend([upper, -lower])
    G = np.vstack(rows)
    h = np.concatenate(rhs)
    E = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    f = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    n_eq = E.shape[0]
    if n_eq > n:
        return "infeasible", None, None

    best_val = None
    best_x = None
    for combo in itertools.combinations(range(G.shape[0]), n - n_eq):
        A = np.vstack([E, G[list(combo)]])
        bb = np.concatenate([f, h[list(combo)]])
        try:
            x = np.linalg.solve(A, bb)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.any(G @ x - h > feas_tol):
            continue
        if n_eq and np.max(np.abs(E @ x - f)) > feas_tol:
            continue
        val = float(c @ x)
        if best_val is None or val > best_val:
            best_val, best_x = val, x
    if best_val is None:
        return "infeasible", None, None
    return "optimal", best_x, best_val


# ---------------------------------------------------------------------------
# steady-state design brute force (single budget row, n_o <= 3)


def grid_design_bounds(J, sigma2, b, upper, h=1e-4):
    """Certified sandwich for max over {sum xi <= b, 0 <= xi <= upper} of
    min_i steady_state_info((J xi)_i).

    The objective is nondecreasing in every rate (J >= 0), so the
    optimum sits on the maximal face: xi = upper outright when the
    budget allows it, else the slice {sum xi = b, xi <= upper}. The
    lower bound is the best feasible grid point; the upper bound covers
    every face point by a grid cell and inflates each flow's
    information by the cell's worst-case wiggle, so
    theta_lower <= theta* <= theta_upper holds rigorously.
    """
    J = np.asarray(J, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    u = np.asarray(upper, dtype=float)
    n_r, n_o = J.shape
    assert n_o in (1, 2, 3)

    def f_of_m(m):
        m = np.maximum(m, 0.0)
        return np.min(riccati_like_closed(m, sigma2), axis=0)

    def riccati_like_closed(m, s2):
        # same quantity the library computes, but spelled independently:
        # positive root of s2*u^2 - s2*m*u - m = 0 via the quadratic formula
        m = np.asarray(m, dtype=float)
        s2b = s2.reshape((n_r,) + (1,) * (m.ndim - 1))
        disc = np.sqrt((s2b * m) ** 2 + 4.0 * s2b * m)
        return (s2b * m + disc) / (2.0 * s2b)

    if np.sum(u) <= b + 1e-15:
        m = (J @ u).reshape(n_r, 1)
        th = float(f_of_m(m)[0])
        return th, th, u.copy()

    if n_o == 1:
        xi = np.array([min(b, u[0])])
        m = (J @ xi).reshape(n_r, 1)
        th = float(f_of_m(m)[0])
        return th, th, xi

    def axis_grid(lo, hi):
        ts = np.arange(lo, hi + 0.5 * h, h)
        ts = ts[ts <= hi]  # arange can overshoot its stop; stay feasible
        if ts.size == 0 or ts[-1] < hi - 1e-12:
            ts = np.append(ts, hi)
        return ts

    if n_o == 2:
        lo_t = max(0.0, b - u[1])
        hi_t = min(u[0], b)
        ts = axis_grid(lo_t, hi_t)
        m = np.multiply.outer(J[:, 0], ts) + np.multiply.outer(J[:, 1], b - ts)
        vals = f_of_m(m)
        k = int(np.argmax(vals))
        theta_lower = float(vals[k])
        xi_best = np.array([ts[k], b - ts[k]])
        K = np.abs(J[:, 0] - J[:, 1]) * 0.5 * h
        vals_up = f_of_m(m + K[:, None])
        return theta_lower, float(np.max(vals_up)), xi_best

    # n_o == 3: parametrize (xi0, xi1), xi2 = b - xi0 - xi1
    t0 = axis_grid(0.0, u[0])
    t1 = axis_grid(0.0, u[1])
    K = (np.abs(J[:, 0] - J[:, 2]) + np.abs(J[:, 1] - J[:, 2])) * 0.5 * h
    theta_lower = -np.inf
    theta_upper = -np.inf
    xi_best = None
    chunk = max(1, int(5e5 / max(t1.size, 1)))
    for s in range(0, t0.size, chunk):
        a = t0[s:s + chunk][:, None]
        xi2 = b - a - t1[None, :]
        m = (np.multiply.outer(J[:, 0], a[:, 0])[:, :, None]
             + np.multiply.outer(J[:, 1], t1)[:, None, :]
             + J[:, 2][:, None, None] * xi2[None, :, :])
        feas = (xi2 >= -1e-12) & (xi2 <= u[2] + 1e-12)
        vals = f_of_m(m)
        if np.any(feas):
            masked = np.where(feas, vals, -np.inf)
            idx = np.unravel_index(np.argmax(masked), masked.shape)
            if masked[idx] > theta_lower:
                theta_lower = float(masked[idx])
                xi0 = float(a[idx[0], 0])
                xi1 = float(t1[idx[1]])
                xi_best = np.array([xi0, xi1, b - xi0 - xi1])
        near = (xi2 >= -1e-12 - h) & (xi2 <= u[2] + 1e-12 + h)
        if np.any(near):
            vals_up = f_of_m(m + K[:, None, None])
            theta_upper = max(theta_upper, float(np.max(np.where(near, vals_up,
                                                                 -np.inf))))
    return theta_lower, theta_upper, xi_best


# ---------------------------------------------------------------------------
# steady-state design by bisection (any size; needs scipy)


_HIGHS = {"primal_feasibility_tolerance": 1e-10,
          "dual_feasibility_tolerance": 1e-10}


def bisect_steady_state(J, sigma2, R, b, upper, row_is_equality=None,
                        lower=None, rel=1e-12):
    """max theta s.t. every flow's limiting information reaches theta,
    over {R xi <= b (= b on equality rows), lower <= xi <= upper}.

    For fixed theta the flow constraints are the linear rows
    (J xi)_i >= theta^2 / (theta + 1/sigma_i^2), so feasibility is
    monotone in theta and bisection converges to the optimum. Each flow
    row is divided by its threshold and each budget row by its b_j > 0,
    which keeps HiGHS's absolute feasibility tolerance meaningful next
    to information values of order 1e-6. Caps must be finite (they give
    the starting ceiling). Returns the largest theta found feasible.
    """
    from scipy.optimize import linprog
    J = np.asarray(J, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    R = np.asarray(R, dtype=float)
    b = np.asarray(b, dtype=float)
    upper = np.asarray(upper, dtype=float)
    assert np.all(np.isfinite(upper))
    lower = np.zeros(J.shape[1]) if lower is None else np.asarray(lower, float)
    eq = (np.zeros(b.size, dtype=bool) if row_is_equality is None
          else np.asarray(row_is_equality, dtype=bool))
    scale = np.where(b > 0, b, 1.0)
    Rs, bs = R / scale[:, None], b / scale
    bounds = list(zip(lower, upper))

    def feasible(theta):
        thr = theta * theta / (theta + 1.0 / sigma2)
        A = np.vstack([-J / thr[:, None], Rs[~eq]])
        rhs = np.concatenate([-np.ones(J.shape[0]), bs[~eq]])
        res = linprog(np.zeros(J.shape[1]), A_ub=A, b_ub=rhs,
                      A_eq=Rs[eq] if eq.any() else None,
                      b_eq=bs[eq] if eq.any() else None,
                      bounds=bounds, method="highs", options=_HIGHS)
        assert res.status in (0, 2), res.message
        return res.status == 0

    m_cap = J @ upper
    lo = 0.0
    hi = float(np.max(0.5 * m_cap + np.sqrt(0.25 * m_cap ** 2 + m_cap / sigma2)))
    while hi - lo > rel * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def highs_classical_theta(J, R, b, upper, row_is_equality=None):
    """max theta s.t. J xi >= theta, R xi <= b (= b on equality rows),
    0 <= xi <= upper, solved by HiGHS.

    theta is solved in units of s = max(J) * max(b), and each budget row
    is divided by its b_j > 0, so every coefficient and right-hand side
    is of order one next to HiGHS's absolute tolerances.
    """
    from scipy.optimize import linprog
    J = np.asarray(J, dtype=float)
    R = np.asarray(R, dtype=float)
    b = np.asarray(b, dtype=float)
    eq = (np.zeros(b.size, dtype=bool) if row_is_equality is None
          else np.asarray(row_is_equality, dtype=bool))
    s = float(J.max() * b.max())
    scale = np.where(b > 0, b, 1.0)
    Rs, bs = R / scale[:, None], b / scale
    n_r, n_o = J.shape
    flows = np.hstack([np.ones((n_r, 1)), -J / s])
    budgets = np.hstack([np.zeros((b.size, 1)), Rs])
    res = linprog(np.concatenate([[-1.0], np.zeros(n_o)]),
                  A_ub=np.vstack([flows, budgets[~eq]]),
                  b_ub=np.concatenate([np.zeros(n_r), bs[~eq]]),
                  A_eq=budgets[eq] if eq.any() else None,
                  b_eq=bs[eq] if eq.any() else None,
                  bounds=[(0.0, None)] + [(0.0, u) for u in upper],
                  method="highs", options=_HIGHS)
    assert res.status == 0, res.message
    return -float(res.fun) * s


# ---------------------------------------------------------------------------
# dense GLS


def dense_gls(L, weights, z):
    """Solve (L' W L) y = L' W z over the observed flows.

    ``weights`` and ``z`` are per-measurement; rows with zero weight are
    dropped. Returns (y, info_diag) with NaN / 0 for flows that no
    surviving row touches. Also returns the full information matrix so
    callers can check off-diagonal mass.
    """
    L = np.asarray(L, dtype=float)
    w = np.asarray(weights, dtype=float)
    z = np.asarray(z, dtype=float)
    keep = w > 0
    Lk = L[keep]
    M = Lk.T @ (w[keep, None] * Lk)
    rhs = Lk.T @ (w[keep] * z[keep])
    diag = np.diag(M)
    obs = diag > 0
    y = np.full(L.shape[1], np.nan)
    if np.any(obs):
        y[obs] = np.linalg.solve(M[np.ix_(obs, obs)], rhs[obs])
    return y, diag, M


# ---------------------------------------------------------------------------
# routing incidence


def path_incidence(nodes, edges, paths):
    """Observation points per flow and the (n_v, n_o) traversal matrix.

    Walks every path one step at a time: the step u -> v crosses the OP
    of edge (u, v), which belongs to its head router v. Entry (j, k) of
    the traversal matrix is set when some path crosses OP k owned by
    router j.
    """
    nodes, edges = list(nodes), list(edges)
    ops = []
    traversal = np.zeros((len(nodes), len(edges)), dtype=bool)
    for path in paths:
        steps = [edges.index((u, v)) for u, v in zip(path, path[1:])]
        for k in steps:
            traversal[nodes.index(edges[k][1]), k] = True
        ops.append(steps)
    return ops, traversal


def _shortest_path(fwd, rev, origin, dest):
    """Hop-count shortest path, lexicographically smallest node sequence,
    from a full BFS from ``dest`` over reversed edges; None if
    ``origin`` cannot reach ``dest``."""
    if origin == dest:
        return (origin,)
    dist = {dest: 0}
    queue = deque([dest])
    while queue:
        cur = queue.popleft()
        for prev in rev.get(cur, ()):
            if prev not in dist:
                dist[prev] = dist[cur] + 1
                queue.append(prev)
    if origin not in dist:
        return None
    path = [origin]
    cur = origin
    while cur != dest:
        step = dist[cur] - 1
        cur = min(nb for nb in fwd.get(cur, ()) if dist.get(nb, -1) == step)
        path.append(cur)
    return tuple(path)


def per_flow_routes(t):
    """route_flows(t), one reverse BFS per flow rather than per
    destination."""
    fwd, rev = {}, {}
    for u, v in t.edges:
        fwd.setdefault(u, set()).add(v)
        rev.setdefault(v, set()).add(u)
    paths = []
    for idx, f in enumerate(t.flows):
        p = _shortest_path(fwd, rev, f.origin, f.destination)
        if p is None:
            raise RoutingError(
                f"flow {idx} ({f.origin}->{f.destination}) is unreachable")
        paths.append(p)
    return tuple(paths)


# ---------------------------------------------------------------------------
# closed loop


def per_period_simulation(cfg):
    """run_simulation's MetricsSeries (without meta), one period at a time.

    Every block's design is solved afresh, on the problem remapped to
    the plug-in means under mu_mode=plugin, and every period is sampled,
    fused and filtered by one call each of sample_packets, fuse_gls and
    predict_update. Under plugin the fusion mean is taken from the filter
    each period, clamped at the harness floor.
    """
    mm, fm, p, _ = harness.load_instance(cfg)
    trace = harness._get_trace(cfg, fm)
    T, B = cfg.horizon, cfg.block_size
    block_starts = np.arange(1, T + 1, B)
    sq_sum = np.zeros((T, fm.n_r))
    rates = np.zeros((block_starts.size, mm.n_o))
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
    for r, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        state = FilterState(info=np.zeros(fm.n_r), mean=fm.mu.copy())
        for t in range(1, T + 1):
            mu_hat = fm.mu
            if cfg.mu_mode == "plugin":
                mu_hat = np.maximum(state.mean, harness._MU_FLOOR)
            if (t - 1) % B == 0:
                scheme = cfg.scheme
                if t == 1 and cfg.warmup_scheme == "naive":
                    scheme = "naive"
                q = p
                if cfg.mu_mode == "plugin":
                    q = design_problem(remap_mu(mm, mu_hat), cap=cfg.cap,
                                       constraint_mode=cfg.constraint_mode)
                if scheme == "naive":
                    xi = solve_naive(q).xi
                elif scheme == "steady_state":
                    xi = solve_steady_state_E(q, fm, tol_theta=cfg.tol_theta).xi
                else:
                    xi = solve_myopic(q, fm, state.info).xi
                if r == 0:
                    rates[(t - 1) // B] = xi
            raw = sample_packets(trace.x[t - 1], mm, xi, rng)
            y, m = fuse_gls(raw, mm, xi, mu_hat)
            state = predict_update(state, fm, m, y)
            sq_sum[t - 1] += (state.mean - trace.x[t - 1]) ** 2
    return harness._series(cfg, sq_sum / cfg.replications, block_starts,
                           rates, {})


# ---------------------------------------------------------------------------
# SOCP text


def socp_floats(values) -> str:
    """Space-separated 17-significant-digit text of ``values``."""
    return " ".join(format(float(v), ".17g") for v in np.atleast_1d(values))
