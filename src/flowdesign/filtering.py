"""Scalar Kalman filtering for a bank of independent random walks.

Each flow volume follows x_i(t) = x_i(t-1) + eps_i(t) with innovation
variance sigma2_i, and each period delivers a fused observation of x_i
with inverse variance (information) m_i. Working in information form,

    info(t) = info(t-1) / (1 + sigma2 * info(t-1)) + m,

which is the usual variance recursion rewritten so the diffuse prior
info = 0 needs no special casing. Under constant m the recursion has a
unique nonnegative fixed point, the steady-state information, available
in closed form from the quadratic sigma2*u^2 - sigma2*m*u - m = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FlowModel, ValidationError


@dataclass(frozen=True)
class FilterState:
    """Posterior of the filter bank.

    ``info[i]`` is the posterior information 1/var of flow i (0 encodes
    the diffuse prior) and ``mean[i]`` the posterior mean. Value object;
    updates return new instances.
    """

    info: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        info = np.atleast_1d(np.asarray(self.info, dtype=float))
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if info.shape != mean.shape or info.ndim != 1:
            raise ValidationError("info and mean must be 1-D arrays of equal length")
        _check_posterior(info, mean)
        object.__setattr__(self, "info", info)
        object.__setattr__(self, "mean", mean)


def _check_posterior(info, mean):
    """FilterState's value checks, on arrays of any one shape."""
    if np.any(info < 0) or not np.all(np.isfinite(info)):
        raise ValidationError("posterior information must be finite and >= 0")
    if np.any(~np.isfinite(mean) & (info > 0)):
        raise ValidationError("mean must be finite wherever info > 0")


def predicted_info(info: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """One-step-ahead information: inverse of (1/info + sigma2)."""
    info = np.asarray(info, dtype=float)
    return info / (1.0 + np.asarray(sigma2, dtype=float) * info)


def predict_update(state: FilterState, fm: FlowModel, m, y=None) -> FilterState:
    """Advance the filter bank by one period.

    ``m`` is the per-flow information delivered this period and ``y`` the
    corresponding fused observations; ``y[i]`` is only read where
    ``m[i] > 0`` (pass NaN or anything else elsewhere). Flows with
    ``m[i] = 0`` do a pure prediction step: the mean is unchanged and the
    information shrinks.
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if m.shape != (fm.n_r,) or state.info.shape != (fm.n_r,):
        raise ValidationError("state, flow model and information vector disagree on n_r")
    if np.any(m < 0) or not np.all(np.isfinite(m)):
        raise ValidationError("per-period information must be finite and >= 0")
    observed = m > 0
    if np.any(observed):
        if y is None:
            raise ValidationError("observations required for flows with m > 0")
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (fm.n_r,):
            raise ValidationError("observation vector must have one entry per flow")
        if np.any(~np.isfinite(y[observed])):
            raise ValidationError("observations must be finite where m > 0")
    info, mean = _update(state.info, state.mean, fm.sigma2, m, y)
    return FilterState(info=info, mean=mean)


def _update(info, mean, sigma2, m, y):
    """predict_update's arithmetic on bare arrays: the new (info, mean).
    ``info`` and ``mean`` may stack rows, (R, n_r), over one ``m``."""
    info_new = predicted_info(info, sigma2) + m
    observed = m > 0
    if not observed.any():
        return info_new, mean.copy()
    gain = np.divide(m, info_new, out=np.zeros(info_new.shape), where=observed)
    resid = np.where(observed & np.isnan(mean), 0.0, mean)
    # diffuse prior with an observation: gain is 1, mean becomes y
    mean_new = np.where(observed, resid + gain * (y - resid), mean)
    return info_new, np.where(observed & (info == 0), y, mean_new)


def steady_state_info(m, sigma2):
    """Steady-state information of the filter under constant per-period ``m``.

    Unique nonnegative root of sigma2*u^2 - sigma2*m*u - m = 0, evaluated
    as m/2 + sqrt(m^2/4 + m/sigma2) which is immune to the subtractive
    cancellation the textbook quadratic formula suffers at large sigma2.
    Accepts scalars or arrays (broadcast together).
    """
    m = np.asarray(m, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 <= 0) or not np.all(np.isfinite(sigma2)):
        raise ValidationError("sigma2 must be finite and > 0 (static parameters have no steady state)")
    if np.any(m < 0):
        raise ValidationError("information must be >= 0")
    out = 0.5 * m + np.sqrt(0.25 * m * m + m / sigma2)
    if out.ndim == 0:
        return float(out)
    return out
