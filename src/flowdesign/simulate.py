"""Ground-truth traces, packet sampling, and GLS fusion.

The sampling model: during period t each packet of flow i crossing
observation point k survives an independent Bernoulli(xi_k) draw, so the
sampled count is Binomial(x_i(t), xi_k) and Z = N/xi is the usual
estimate with Var(Z|X) = X(1-xi)/xi, which is the familiar X/xi for
small rates. Fusion of a flow's measurements uses inverse-variance
weights with the plug-in approximation Var(z) ~ mu/xi, and because no
two flows share a measurement row the GLS solve collapses to independent
weighted means (weights xi_k/mu_i, information m_i equal to their sum).
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import FlowModel, ValidationError, read_text, write_lines
from .network import MeasurementModel


@dataclass(frozen=True)
class Trace:
    """True flow volumes, one row per period (t = 1..T)."""

    x: np.ndarray          # (T, n_r), nonnegative integer-valued
    source: str            # synthetic-random-walk | file-replay

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValidationError("trace must be a (T, n_r) matrix with T >= 1")
        if not np.all(np.isfinite(x)) or np.any(x < 0):
            raise ValidationError("trace volumes must be finite and >= 0")
        object.__setattr__(self, "x", x)

    @property
    def T(self) -> int:
        return self.x.shape[0]

    @property
    def n_r(self) -> int:
        return self.x.shape[1]


def gen_random_walk_trace(fm: FlowModel, T: int, x0=None, seed: int = 0,
                          floor: float = 1.0) -> Trace:
    """Integer random-walk volumes: x(t) = x(t-1) + Normal(0, sigma2).

    Each step is rounded to the nearest integer and clamped at ``floor``
    (packet counts cannot go negative; the Gaussian walk is an
    idealization). ``x0`` defaults to the model means and is not part of
    the returned trace.
    """
    if T < 1:
        raise ValidationError("T must be >= 1")
    x0 = fm.mu if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (fm.n_r,) or np.any(x0 <= 0) or not np.all(np.isfinite(x0)):
        raise ValidationError("x0 must be finite and > 0, one entry per flow")
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(fm.sigma2)
    out = np.empty((T, fm.n_r))
    cur = x0.astype(float)
    for t in range(T):
        cur = np.maximum(np.rint(cur + sigma * rng.standard_normal(fm.n_r)), floor)
        out[t] = cur
    return Trace(x=out, source="synthetic-random-walk")


@dataclass(frozen=True)
class RawMeasurements:
    """Sampled data, one entry per (OP, flow) measurement.

    ``n`` and ``z`` have shape (n_g,) for one period or (B, n_g) for a
    block; ``present`` has shape (n_g,) in both. ``z`` is NaN where
    ``present`` is False (rate zero, nothing sampled).
    """

    n: np.ndarray
    z: np.ndarray
    present: np.ndarray


def _as_rng(seed_or_rng):
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def sample_packets(x_t, mm: MeasurementModel, xi, seed_or_rng=0) -> RawMeasurements:
    """Binomially thin each flow at each observation point it crosses.

    ``x_t`` holds one period's volumes, shape (n_r,), or a block of B
    periods under the same rates, shape (B, n_r). A block gives ``n``
    and ``z`` of shape (B, n_g), row b equal to what a one-period call on
    row b would draw next from the same generator; ``present`` depends
    only on the rates and is shared by every row. Rate-0 measurements
    take no draw (the generator returns 0 for p = 0 without consuming
    its stream).
    """
    x_t = np.atleast_1d(np.asarray(x_t, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if x_t.ndim > 2 or x_t.shape[-1] != mm.n_r or x_t.size == 0:
        raise ValidationError("x_t must have one entry per flow in each period")
    if xi.shape != (mm.n_o,):
        raise ValidationError("xi must have one entry per observation point")
    if np.any(xi < 0) or np.any(xi > 1) or not np.all(np.isfinite(xi)):
        raise ValidationError("sampling rates must lie in [0, 1]")
    if np.any(x_t < 0) or not np.all(np.isfinite(x_t)):
        raise ValidationError("volumes must be finite and >= 0")
    counts = np.rint(x_t)
    if np.any(np.abs(counts - x_t) > 1e-6):
        raise ValidationError("volumes must be integer packet counts")
    rng = _as_rng(seed_or_rng)
    rates = xi[mm.k_of]
    present = rates > 0.0
    n = rng.binomial(counts.astype(np.int64)[..., mm.l_of], rates)
    z = np.full(n.shape, np.nan)
    np.divide(n, rates, out=z, where=present)
    return RawMeasurements(n=n, z=z, present=present)


def fuse_gls(raw: RawMeasurements, mm: MeasurementModel, xi, mu_plugin):
    """Collapse raw measurements into per-flow (y, m).

    Weights are xi_k / mu_plugin_i (inverse of the approximate
    measurement variance mu/xi); m_i is the weight sum, which equals
    (J xi)_i when every measurement of the flow is present and
    mu_plugin is the mu that built J. Flows with nothing observed get
    m_i = 0 and y_i = NaN. ``raw`` is one period's draw.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    mu_plugin = np.atleast_1d(np.asarray(mu_plugin, dtype=float))
    if xi.shape != (mm.n_o,):
        raise ValidationError("xi must have one entry per observation point")
    if mu_plugin.shape != (mm.n_r,):
        raise ValidationError("mu_plugin must have one entry per flow")
    if np.any(mu_plugin <= 0) or not np.all(np.isfinite(mu_plugin)):
        raise ValidationError("mu_plugin must be finite and > 0")
    if raw.n.shape != (mm.n_g,):
        raise ValidationError("raw measurements do not match the model")
    present = raw.present
    w = xi[mm.k_of] / mu_plugin[mm.l_of]
    return _fuse(mm.l_of[present], w[present], raw.z[present], mm.n_r)


def _fuse(flow, w, z, n_r):
    """fuse_gls's arithmetic on the present measurements alone: ``flow``,
    ``w`` and ``z`` give each one's flow index, weight and estimate. A
    (B, n) ``z`` is B periods under the same weights, fused by one
    bincount over b * n_r + flow: row b of y matches a one-period call."""
    m = np.bincount(flow, weights=w, minlength=n_r)
    y = np.full(z.shape[:-1] + (n_r,), np.nan)
    idx = (np.arange(y.size // n_r)[:, None] * n_r + flow).ravel()
    wz = np.bincount(idx, weights=(w * z).ravel(), minlength=y.size)
    np.divide(wz.reshape(y.shape), m, out=y, where=m > 0)
    return y, m


# ---------------------------------------------------------------------------
# trace CSV: header `t,flow_1,...,flow_nr`, one row per period


def save_trace(trace: Trace, path: str) -> None:
    counts = np.rint(trace.x)
    if np.any(np.abs(counts - trace.x) > 1e-9):
        raise ValidationError("trace volumes must be integers to serialize")
    write_lines(path, chain(
        [",".join(["t"] + [f"flow_{i + 1}" for i in range(trace.n_r)])],
        (",".join(map(str, [t, *map(int, row.tolist())]))
         for t, row in enumerate(counts, 1))))


def load_trace(path: str) -> Trace:
    if not os.path.exists(path):
        raise ValidationError(f"trace file {path!r} not found")
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("trace file is empty") from None
    header = [c.strip() for c in header]
    if len(header) < 2 or header[0] != "t":
        raise ValidationError("trace header must be t,flow_1,...,flow_nr")
    n_r = len(header) - 1
    if header[1:] != [f"flow_{i + 1}" for i in range(n_r)]:
        raise ValidationError("trace header must be t,flow_1,...,flow_nr")
    rows = []
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != n_r + 1:
            raise ValidationError(
                f"trace row {reader.line_num}: expected {n_r + 1} fields")
        try:
            t = int(row[0])
            vals = [float(c) for c in row[1:]]
        except ValueError:
            raise ValidationError(
                f"trace row {reader.line_num}: bad number") from None
        if t != len(rows) + 1:
            raise ValidationError(
                f"trace row {reader.line_num}: periods must run 1..T in order")
        rows.append(vals)
    if not rows:
        raise ValidationError("trace file has no data rows")
    return Trace(x=np.array(rows), source="file-replay")
