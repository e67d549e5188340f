"""Ground-truth traces, packet sampling, and GLS fusion.

The sampling model: during period t each packet of flow i crossing
observation point k survives an independent Bernoulli(xi_k) draw, so the
sampled count is Binomial(x_i(t), xi_k) and Z = N/xi is the usual
estimate with Var(Z|X) = X(1-xi)/xi, which is the familiar X/xi for
small rates. Fusion of a flow's measurements uses inverse-variance
weights with the plug-in approximation Var(z) ~ mu/xi, and because no
two flows share a measurement row the GLS solve collapses to independent
weighted means. Flow i's weights xi_k/mu_i share 1/mu_i, which cancels:
over its measurements with xi_k > 0, y_i = sum N / sum xi_k, and the
plug-in mean moves only the information m_i = sum xi_k / mu_i. Steps
pass plain arrays: sample_packets returns the int64 counts N.

Because the fused y reads only each flow's sum of N, the closed loop
draws that sum directly: the K measurements of flow i at one rate r
sum to one Binomial(K x_i, r) draw, so _sample_flow_sums takes one
draw per flow and distinct rate on its path (the groups of a
_draw_plan) in place of one per measurement. The law is the same; the
random stream is not.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import FlowModel, ValidationError, frozen, read_csv, write_lines
from .network import MeasurementModel

_INT_TOL = 1e-6   # how far a volume may sit from an integer packet count
_COUNT_MAX = 2.0 ** 53  # past it floats skip integers; 1e19 would wrap in int64
_OVER = "at most 2**53"


def _count_fault(x) -> str | None:
    """What keeps ``x`` from holding packet counts, or None. The one count
    rule: finite, >= 0, at most _COUNT_MAX and within _INT_TOL of an
    integer."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails too
        off = np.rint(x)  # distance to an integer, in one scratch array
        off -= x
        bad = x[~(np.abs(off, out=off) <= _INT_TOL) | (x < 0) | (x > _COUNT_MAX)]
    if bad.size:
        if not np.all(np.isfinite(bad) & (bad >= 0)):
            return "finite and >= 0"
        return _OVER if np.any(bad > _COUNT_MAX) else "integer packet counts"


@dataclass(frozen=True, eq=False)
class Trace:
    """True flow volumes, one row per period (t = 1..T). ``x`` is stored
    read-only (see model.frozen)."""

    x: np.ndarray          # (T, n_r), nonnegative integer-valued
    source: str            # synthetic-random-walk | file-replay

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValidationError("trace must be a (T, n_r) matrix with T >= 1")
        if fault := _count_fault(x):
            raise ValidationError(f"trace volumes must be {fault}")
        object.__setattr__(self, "x", frozen(x))

    @property
    def T(self) -> int:
        return self.x.shape[0]

    @property
    def n_r(self) -> int:
        return self.x.shape[1]


def gen_random_walk_trace(fm: FlowModel, T: int, seed: int = 0,
                          floor: float = 1.0) -> Trace:
    """Integer random-walk volumes: x(t) = x(t-1) + Normal(0, sigma2).

    Each step is rounded to the nearest integer and clamped at ``floor``,
    a packet count (counts cannot go negative; the Gaussian walk is an
    idealization). The walk starts at x(0) = fm.mu, which is not part
    of the returned trace.
    """
    if T < 1:
        raise ValidationError("T must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if fault := _count_fault(floor):
        raise ValidationError(f"floor must be {fault}")
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(fm.sigma2)
    out = np.empty((T, fm.n_r))
    cur = fm.mu
    for t in range(T):
        cur = np.maximum(np.rint(cur + sigma * rng.standard_normal(fm.n_r)), floor)
        out[t] = cur
    out.flags.writeable = False  # so Trace stores it uncopied
    return Trace(x=out, source="synthetic-random-walk")


def sample_packets(x_t, mm: MeasurementModel, xi, rng) -> np.ndarray:
    """Binomially thin each flow at each observation point it crosses.

    ``x_t`` holds one period's volumes, shape (n_r,), or a block of B
    periods under the same rates, shape (B, n_r); the draws come from
    the caller's np.random.Generator ``rng``. Returns the int64 sampled
    counts n, shape (n_g,) or (B, n_g); row b of a block equals what a
    one-period call on row b would draw next from ``rng``. Rate-0
    measurements take no draw (the generator returns 0 for p = 0 without
    consuming its stream).
    """
    x_t = np.atleast_1d(np.asarray(x_t, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if x_t.ndim > 2 or x_t.shape[-1] != mm.n_r or x_t.size == 0:
        raise ValidationError("x_t must have one entry per flow in each period")
    if xi.shape != (mm.n_o,):
        raise ValidationError("xi must have one entry per observation point")
    if np.any(xi < 0) or np.any(xi > 1) or not np.all(np.isfinite(xi)):
        raise ValidationError("sampling rates must lie in [0, 1]")
    if fault := _count_fault(x_t):
        raise ValidationError(f"volumes must be {fault}")
    return rng.binomial(np.rint(x_t).astype(np.int64)[..., mm.l_of],
                        xi[mm.k_of])


def _draw_plan(mm: MeasurementModel, xi):
    """The groups of the measurements with xi_k > 0 that share a flow and
    a rate, as arrays (flow, K, rate): K of flow's measurements sample at
    rate. Groups run by flow, then by rising rate."""
    rates, level = np.unique(xi, return_inverse=True)
    key = mm.l_of * rates.size + level[mm.k_of]
    key, mult = np.unique(key[xi[mm.k_of] > 0], return_counts=True)
    return key // rates.size, mult, rates[key % rates.size]


def _sample_flow_sums(counts, rng, plan, n_r: int):
    """Each of the n_r flows' sampled packets, summed over its observation
    points: shape (n_r,) or (B, n_r) like the int64 volumes ``counts``,
    float64. ``plan`` is _draw_plan(mm, xi); each of its groups (flow i,
    K, r) takes one Binomial(K x_i, r) draw, which has the law of the sum
    of flow i's K draws in sample_packets. Row b of a block equals what a
    one-period call on row b would draw next from ``rng``. Nothing is
    checked here: the caller's Trace holds the counts, its design the
    rates, and K x must fit in int64."""
    flow, mult, rate = plan
    return _flow_sums(rng.binomial(counts[..., flow] * mult, rate), flow, n_r)


def fuse_gls(n, mm: MeasurementModel, xi, mu_plugin):
    """Collapse one period's sampled counts ``n``, (n_g,), into (y, m).

    Only the present measurements (rate xi_k > 0) count, each as the
    estimate z = n / xi_k with weight xi_k / mu_plugin_i. The common
    1 / mu_plugin_i cancels from flow i's weighted mean, y_i = sum n /
    sum xi_k; the weight sum m_i = sum xi_k / mu_plugin_i is (J xi)_i up
    to rounding when mu_plugin is the mu that built J. Flows with nothing
    observed get m_i = 0 and y_i = NaN.
    """
    n = np.atleast_1d(np.asarray(n, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    mu_plugin = np.atleast_1d(np.asarray(mu_plugin, dtype=float))
    if xi.shape != (mm.n_o,):
        raise ValidationError("xi must have one entry per observation point")
    if mu_plugin.shape != (mm.n_r,):
        raise ValidationError("mu_plugin must have one entry per flow")
    if np.any(mu_plugin <= 0) or not np.all(np.isfinite(mu_plugin)):
        raise ValidationError("mu_plugin must be finite and > 0")
    if n.shape != (mm.n_g,):
        raise ValidationError("packet counts do not match the model")
    if fault := _count_fault(n):
        raise ValidationError(f"packet counts must be {fault}")
    rate = xi[mm.k_of]
    rate_sum = _flow_sums(rate, mm.l_of, mm.n_r)
    n_sum = _flow_sums(np.where(rate > 0.0, n, 0.0), mm.l_of, mm.n_r)
    return _fuse(n_sum, rate_sum), rate_sum / mu_plugin


def _fuse(n_sum, rate_sum):
    """fuse_gls's y from each flow's summed counts: n_sum / rate_sum, NaN
    where rate_sum is 0. A (B, n_r) ``n_sum`` is B periods under the same
    rates; row b of y matches a one-period call."""
    return np.divide(n_sum, rate_sum, where=rate_sum > 0,
                     out=np.full(n_sum.shape, np.nan))


def _flow_sums(a, flow, n_r: int):
    """Per-flow sums of a (..., n) array whose entry j belongs to flow
    ``flow[j]``, shape (..., n_r): one bincount over row * n_r + flow,
    which adds in entry order."""
    shape = a.shape[:-1] + (n_r,)
    idx = np.arange(math.prod(shape) // n_r)[:, None] * n_r + flow
    return np.bincount(idx.ravel(), a.ravel(), math.prod(shape)).reshape(shape)


# ---------------------------------------------------------------------------
# trace CSV: header `t,flow_1,...,flow_nr`, one row per period


def save_trace(trace: Trace, path: str) -> None:
    write_lines(path, chain(
        [",".join(["t"] + [f"flow_{i + 1}" for i in range(trace.n_r)])],
        (",".join(map(str, [t, *map(int, row.tolist())]))
         for t, row in enumerate(np.rint(trace.x), 1))))


def load_trace(path: str) -> Trace:
    header, rows = read_csv(path, "trace file")
    name = os.path.basename(path)
    n_r = len(header) - 1
    if n_r < 1 or header != ["t"] + [f"flow_{i + 1}" for i in range(n_r)]:
        raise ValidationError(
            f"{name}: line 1: header must be t,flow_1,...,flow_nr")
    lines, x = [], []
    for line, (t, *vals) in rows:
        try:
            t, vals = int(t), list(map(float, vals))
        except ValueError:
            raise ValidationError(f"{name}: line {line}: bad number") from None
        if t != len(x) + 1:
            raise ValidationError(
                f"{name}: line {line}: periods must run 1..T in order")
        lines.append(line)
        x.append(vals)
    if not x:
        raise ValidationError(f"{name}: no data rows")
    x = np.array(x)
    x.flags.writeable = False  # so Trace stores it uncopied
    try:  # Trace checks it whole; only a bad file is searched by row
        return Trace(x=x, source="file-replay")
    except ValidationError:
        line, fault = next((ln, fault) for ln, row in zip(lines, x)
                           if (fault := _count_fault(row)))
    if fault != _OVER:
        fault = "integer packet counts >= 0"
    raise ValidationError(f"{name}: line {line}: volumes must be {fault}")
