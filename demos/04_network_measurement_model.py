"""From a topology to the linear measurement model.

Flows are routed over shortest paths; every (router, outgoing link) pair
a flow crosses becomes an observation point. Sampling at rate xi_k
yields one scaled count per (flow, point) pair, and because each
measurement sees exactly one flow, the GLS normal matrix L' D^-1 L is
diagonal: per-flow information simply adds up along the path, J xi.
"""

import numpy as np

from flowdesign import (Flow, TopologySpec, build_measurement_model,
                        design_problem, route_flows, solve_naive)

spec = TopologySpec(
    nodes=("a", "b", "c", "d"),
    edges=(("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"),
           ("c", "d"), ("d", "c")),
    flows=(Flow("a", "d", sigma2=2500.0, mu=1000.0),
           Flow("b", "d", sigma2=400.0, mu=400.0)),
    budgets={"a": 0.02, "b": 0.02, "c": 0.02, "d": 0.02},
)
mm = build_measurement_model(spec)

print("routers:", mm.n_v, " observation points:", mm.n_o,
      " flows:", mm.n_r, " measurements:", mm.n_g)
print("\npaths:")
for i, path in enumerate(route_flows(spec)):
    print(f"  flow {i + 1}: {' -> '.join(path)}")

print("\nJ (per-flow information coefficients, one column per point):")
print(mm.J)
print("\nbudget rows R (one per router) with b =", mm.b)
print(mm.R)

# the naive scheme splits each router's budget across its traversed
# interfaces; here every router has at most one, so it just spends b
xi = solve_naive(design_problem(mm)).xi
print("\nnaive rates:", xi)
d_inv = mm.psi_diag.T @ xi
M = mm.L.T @ (d_inv[:, None] * mm.L)
print("L' D^-1 L is diagonal:", np.allclose(M, np.diag(np.diag(M)), atol=1e-15))
print("diag equals J xi:     ", np.allclose(np.diag(M), mm.J @ xi))
