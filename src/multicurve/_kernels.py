"""Curve interpolation kernels and the choice between them.

Every discount-factor lookup funnels through one of three vectorised
numpy kernels, one per interpolation scheme.  ``knot_data`` builds the
per-knot data a scheme's kernel needs and ``evaluate`` picks the
kernel; ``YieldCurve`` and the bootstrap residuals both go through
these two, so no other module branches on the scheme to evaluate a
curve.  ``evaluate`` looks the kernels up as module globals on every
call, so a kernel replaced on this module is the one that runs.

Kernel contract, shared by all schemes:

* ``t`` are query times (years, ACT/365F from the curve reference),
  all >= 0; the caller validates this.
* ``ts``/``dfs`` are knot times and discount factors with the implicit
  anchor ``ts[0] = 0, dfs[0] = 1`` already prepended.
* A query that lands exactly on a knot returns the stored discount
  factor bit-for-bit (no exp/log round trip).
* Queries beyond the last knot extrapolate at a frozen instantaneous
  forward, i.e. linearly in log-discount.
"""

from __future__ import annotations

import numpy as np

from .interp import InterpScheme, monotone_cubic_slopes, zero_rates_from_logdf

__all__ = [
    "eval_log_cubic",
    "eval_log_linear",
    "eval_linear_zero",
    "knot_data",
    "evaluate",
]


def _locate(t, ts):
    """Queries as a float array, the last knot at or below each query
    (clamped to the first) and the segment each query evaluates on.

    One right-sided search gives both: a query sits exactly on a knot
    iff it equals ``ts[lo]``, and the segment is ``lo`` capped at the
    last interior segment.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    lo = ts.searchsorted(t, side="right")
    lo -= 1
    np.maximum(lo, 0, out=lo)
    return t, lo, np.minimum(lo, ts.shape[0] - 2)


def _finish(y, t, ts, dfs, lo):
    # exponentiate in place, then put the stored df back on exact knots
    out = np.exp(y, out=y)
    hit = ts[lo] == t
    if hit.any():
        out[hit] = dfs[lo[hit]]
    return out


def eval_log_cubic(t, ts, dfs, lnp, drv):
    t, lo, j = _locate(t, ts)
    j1 = j + 1
    tj = ts[j]
    h = ts[j1] - tj
    s = (t - tj) / h
    u = 1.0 - s
    su = s * u
    ss = s * s
    y = (1.0 + 2.0 * s) * u * u * lnp[j]
    y += h * (su * u) * drv[j]
    y += ss * (3.0 - 2.0 * s) * lnp[j1]
    y += h * (ss * (s - 1.0)) * drv[j1]
    ext = t > ts[-1]
    if ext.any():
        y[ext] = lnp[-1] + drv[-1] * (t[ext] - ts[-1])
    return _finish(y, t, ts, dfs, lo)


def eval_log_linear(t, ts, dfs, lnp):
    t, lo, j = _locate(t, ts)
    slope = (lnp[j + 1] - lnp[j]) / (ts[j + 1] - ts[j])
    y = lnp[j] + slope * (t - ts[j])
    # the last interior segment slope doubles as the extrapolation forward
    ext = t > ts[-1]
    if ext.any():
        slope_end = (lnp[-1] - lnp[-2]) / (ts[-1] - ts[-2])
        y[ext] = lnp[-1] + slope_end * (t[ext] - ts[-1])
    return _finish(y, t, ts, dfs, lo)


def eval_linear_zero(t, ts, dfs, zr):
    t, lo, j = _locate(t, ts)
    slope = (zr[j + 1] - zr[j]) / (ts[j + 1] - ts[j])
    z = zr[j] + slope * (t - ts[j])
    y = -z * t
    ext = t > ts[-1]
    if ext.any():
        # continue at the instantaneous forward implied by the last segment
        slope_end = (zr[-1] - zr[-2]) / (ts[-1] - ts[-2])
        f_end = zr[-1] + ts[-1] * slope_end
        y[ext] = -zr[-1] * ts[-1] - f_end * (t[ext] - ts[-1])
    return _finish(y, t, ts, dfs, lo)


def knot_data(scheme: InterpScheme, ts: np.ndarray, lnp: np.ndarray):
    """Per-knot data the scheme's kernel reads beside the log-discounts:
    monotone cubic slopes, zero rates, or None for log-linear."""
    if scheme is InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC:
        return monotone_cubic_slopes(ts, lnp)
    if scheme is InterpScheme.LINEAR_ZERO:
        return zero_rates_from_logdf(ts, lnp)
    return None


def evaluate(scheme: InterpScheme, t, ts, dfs, lnp, aux) -> np.ndarray:
    """Discount factors at times ``t`` through the scheme's kernel;
    ``aux`` is what ``knot_data`` built for the same knots."""
    if scheme is InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC:
        return eval_log_cubic(t, ts, dfs, lnp, aux)
    if scheme is InterpScheme.LINEAR_ZERO:
        return eval_linear_zero(t, ts, dfs, aux)
    return eval_log_linear(t, ts, dfs, lnp)
