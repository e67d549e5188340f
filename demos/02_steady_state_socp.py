"""Steady-state E-optimal design and its canonical SOCP export.

The steady-state criterion maximizes the worst-case limiting filter
information theta = min_i info_i(inf). Each flow's information must reach
the convex function theta^2/(theta + 1/sigma_i^2), so the solver replaces
it by tangent cuts and solves a few LPs: each LP's theta bounds the
optimum from above, each LP's design bounds it from below by its actual
theta, and the loop stops once the two meet. The same feasible set can
be handed to any conic solver via the exported second-order cones

    || P_i x + q_i || <= r_i' x + s_i,   x = (theta, xi).

Each flow cone is algebraically theta^2 <= (J xi)_i (theta + 1/sigma_i^2),
whose positive root is exactly the limiting information of the filter.
"""

import numpy as np

from flowdesign import (DesignProblem, FlowModel, export_canonical_socp,
                        serialize_socp, solve_steady_state_E)

p = DesignProblem(J=[[40.0, 10.0], [10.0, 40.0]], R=[[1.0, 1.0]], b=[1.0])
fm = FlowModel(sigma2=[0.01, 0.04], mu=[100.0, 100.0])

res = solve_steady_state_E(p, fm, tol_theta=1e-12)
# the reported theta is the witness design's own, the bracket's lower end
print("tangent-cut result: theta* =", res.theta)
print("  xi =", res.xi)
print("  cut_rounds:", res.diagnostics["cut_rounds"],
      " certified bracket:", res.diagnostics["theta_bracket"])

socp = export_canonical_socp(p, fm)
x_opt = np.concatenate([[res.theta], res.xi])
print("\ncone residuals at the optimum (flow cones tight, budget tight):")
# the slack r'x + s - ||P x + q|| of each cone; x is in the cone iff >= 0
print(" ", np.array([c.r @ x_opt + c.s - np.linalg.norm(c.P @ x_opt + c.q)
                     for c in socp.cones]))

text = serialize_socp(socp)
print("\nserialized form (first lines):")
print("\n".join(text.splitlines()[:6]))

# 17 significant digits parse back to the same float64 bits
lines = text.splitlines()
f_back = np.array([float(tok) for tok in lines[lines.index("f") + 1].split()])
assert f_back.tobytes() == socp.f.tobytes()
print("\nround trip of the f line: exact")
