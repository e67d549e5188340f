"""Tracking a random-walk volume from thinned packet samples.

A flow's volume follows a random walk; each period a fraction xi of its
packets is counted and scaled back up. The scalar Kalman filter needs
only the per-flow information m = (J xi)_i, and its information obeys

    info' = info / (1 + sigma^2 info) + m,

whose fixed point has the closed form used throughout the package.
"""

import numpy as np

from flowdesign import (FlowModel, gen_random_walk_trace, predict_update,
                        steady_state_info)

fm = FlowModel(sigma2=[250_000.0], mu=[1_000_000.0])

m = 4e-6  # information per period from the sampling design
closed = steady_state_info(m, fm.sigma2[0])
print("steady-state information for m = 4e-6:")
print("  closed form:", closed)
print("  limiting rms error:", np.sqrt(1.0 / closed))

# run the filter against a synthetic trace with Gaussian measurement
# noise matching the plug-in model variance mu / xi at xi = m * mu
rng = np.random.default_rng(7)
T = 600
trace = gen_random_walk_trace(fm, T=T, seed=3)
meas_var = fm.mu[0] / (m * fm.mu[0])
info, mean = np.zeros(1), fm.mu.copy()  # diffuse prior
err = np.empty(T)
for t in range(T):
    y = trace.x[t] + rng.normal(0.0, np.sqrt(meas_var), 1)
    info, mean = predict_update(info, mean, fm, np.array([m]), y=y)
    err[t] = mean[0] - trace.x[t, 0]

print("\nfilter against a simulated trace (T = 600):")
print("  filter information after T:    ", info[0])
print("  closed-form limit:             ", closed)
print("  late-window mean squared error:", np.mean(err[100:] ** 2))
print("  predicted 1/info limit:        ", 1.0 / closed)
print("  (single realization; agreement is statistical)")
