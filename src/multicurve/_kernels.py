"""Curve interpolation kernels and the choice between them.

Every discount-factor lookup is split in two steps:

* ``locate`` reads only the query times and the knot times.  It does
  the search, picks each query's segment and turns the query's place in
  it into per-query weights (the cubic's four Hermite coefficients, or
  the linear schemes' segment width and offset), and it records the
  queries beyond the last knot and the queries that sit exactly on a
  knot.  The result, a ``Located``, stays valid for as long as the
  scheme and the knot times stay the same.
* ``eval_log_cubic``/``eval_log_linear``/``eval_linear_zero`` read the
  knot values: they gather the log-discounts (and the scheme's knot
  data from ``knot_data``) at the located indices, combine them with
  the stored weights, exponentiate and put the stored discount factors
  back on exact knots.

``evaluate`` is ``locate`` followed by ``apply``, the one place that
picks a scheme's evaluate step, so an ad-hoc lookup and a located one
run the same arithmetic.  ``YieldCurve`` and the bootstrap residuals
both go through these, so no other module branches on the scheme to
evaluate a curve.  ``apply`` looks the ``eval_*`` kernels up as module
globals on every call, so a kernel replaced on this module is the one
that runs.

A located lookup also has linear parts (``linear_parts``): each query
reads two knots, with weights A on their log-discounts and, for the
cubic alone, weights B on their stored slopes S, so that

    d ln P(t)/d ln p = A + B S'(ln p).

For the cubic A and B are the Hermite coefficients themselves and S' is
the Fritsch-Carlson slope derivative (``interp``); ``loglinear`` is
linear in ln p, and ``linzero`` is linear in the zero rates, which are
-ln p / t at the knots.  Exact knot hits take their knot's row of the
identity and extrapolation rows the frozen forward's weights.  They are
built on first use and kept on the ``Located``, so a batch located once
per solve builds them once; ``log_jacobian`` chains them with a
per-query weight g, such as a residual's dR/d ln P, into G (A + B S').

Kernel contract, shared by all schemes:

* ``t`` are query times (years, ACT/365F from the curve reference),
  all >= 0; the caller validates this.  Each ``eval_*`` takes the
  query times first, then their ``Located``.
* ``ts``/``dfs`` are knot times and discount factors with the implicit
  anchor ``ts[0] = 0, dfs[0] = 1`` already prepended.
* A query that lands exactly on a knot returns the stored discount
  factor bit-for-bit (no exp/log round trip).
* Queries beyond the last knot extrapolate at a frozen instantaneous
  forward, i.e. linearly in log-discount.
* Splitting a lookup keeps the products and sums of the single-pass
  kernels in their order, so located and ad-hoc values agree bit for
  bit with each other and with the fused forms kept in the tests.
"""

from __future__ import annotations

import numpy as np

from .interp import (
    InterpScheme,
    monotone_cubic_slope_jacobian,
    monotone_cubic_slopes,
    zero_rates_from_logdf,
)

__all__ = [
    "Located",
    "locate",
    "eval_log_cubic",
    "eval_log_linear",
    "eval_linear_zero",
    "apply",
    "knot_data",
    "evaluate",
    "linear_parts",
    "log_jacobian",
]


class Located:
    """Query times placed among one scheme's knot times.

    ``j`` is each query's segment (knots ``j`` and ``j + 1``).  ``w``
    holds the per-query weight arrays: for the cubic the four Hermite
    coefficients of ``lnp[j]``, ``drv[j]``, ``lnp[j+1]``, ``drv[j+1]``,
    with the rows past the last knot set to ``(0, 0, 1, t - ts[-1])``;
    for the linear schemes the segment width ``h`` and the offset ``dt``
    from the segment start (from the last knot past it).  ``ext`` lists
    the rows past the last knot (linear schemes only) and ``hits`` the
    (rows, knots) of exact knot hits; either is None when empty.
    ``lin`` holds the lookup's linear parts once ``linear_parts`` has
    built them.
    """

    __slots__ = ("scheme", "ts", "j", "w", "ext", "hits", "lin")

    def __init__(self, scheme, ts, j, w, ext, hits):
        self.scheme = scheme
        self.ts = ts
        self.j = j
        self.w = w
        self.ext = ext
        self.hits = hits
        self.lin = None


def locate(scheme: InterpScheme, t: np.ndarray, ts: np.ndarray) -> Located:
    """Where the float array ``t`` sits among the knot times ``ts``.

    One right-sided search gives both the segment and the exact hits: a
    query sits on a knot iff it equals ``ts[lo]``, ``lo`` being the last
    knot at or below it (clamped to the first, as counting the knots
    after the first that it reaches does), and its segment is ``lo``
    capped at the last interior segment.
    """
    lo = ts[1:].searchsorted(t, side="right")
    j = np.minimum(lo, ts.shape[0] - 2)
    hits = ext = None
    hit = ts[lo] == t
    if hit.any():
        rows = np.flatnonzero(hit)
        hits = (rows, lo[rows])
    past = t > ts[-1]
    if past.any():
        ext = np.flatnonzero(past)
    tj = ts[j]
    h = (ts[1:] - ts[:-1])[j]
    dt = t - tj
    if scheme is not InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC:
        if ext is not None:
            dt[ext] = t[ext] - ts[-1]
        return Located(scheme, ts, j, (h, dt), ext, hits)
    # the Hermite coefficients (1+2s)u^2, h(su)u, s^2(3-2s), h s^2(s-1)
    # of the fused kernel, product by product and in its order (up to the
    # order of two operands), built in place to keep large batches lean
    s = dt
    s /= h
    u = 1.0 - s
    ss = s * s
    c0 = 2.0 * s
    c0 += 1.0
    c0 *= u
    c0 *= u
    c1 = s * u
    c1 *= u
    c1 *= h
    c2 = 2.0 * s
    np.subtract(3.0, c2, out=c2)
    c2 *= ss
    c3 = s
    c3 -= 1.0
    c3 *= ss
    c3 *= h
    if ext is not None:
        # lnp[-1] + drv[-1] * (t - ts[-1]) through the same four terms
        c0[ext] = 0.0
        c1[ext] = 0.0
        c2[ext] = 1.0
        c3[ext] = t[ext] - ts[-1]
    return Located(scheme, ts, j, (c0, c1, c2, c3), None, hits)


def _finish(y, dfs, hits):
    # exponentiate in place, then put the stored df back on exact knots
    out = np.exp(y, out=y)
    if hits is not None:
        out[hits[0]] = dfs[hits[1]]
    return out


def eval_log_cubic(t, loc, dfs, lnp, drv):
    j, (c0, c1, c2, c3) = loc.j, loc.w
    y = c0 * lnp[j]
    y += c1 * drv[j]
    y += c2 * lnp[1:][j]
    y += c3 * drv[1:][j]
    return _finish(y, dfs, loc.hits)


def eval_log_linear(t, loc, dfs, lnp):
    j, (h, dt), ext = loc.j, loc.w, loc.ext
    slope = (lnp[1:][j] - lnp[j]) / h
    y = lnp[j] + slope * dt
    # the last interior segment slope doubles as the extrapolation forward
    if ext is not None:
        y[ext] = lnp[-1] + slope[ext] * dt[ext]
    return _finish(y, dfs, loc.hits)


def eval_linear_zero(t, loc, dfs, zr):
    j, (h, dt), ext = loc.j, loc.w, loc.ext
    slope = (zr[1:][j] - zr[j]) / h
    z = zr[j] + slope * dt
    y = -z * t
    if ext is not None:
        # continue at the instantaneous forward implied by the last segment
        tn = loc.ts[-1]
        f_end = zr[-1] + tn * slope[ext[0]]
        y[ext] = -zr[-1] * tn - f_end * dt[ext]
    return _finish(y, dfs, loc.hits)


def apply(t, loc: Located, dfs, lnp, aux) -> np.ndarray:
    """Discount factors at the located times ``t`` through the scheme's
    evaluate step; ``aux`` is what ``knot_data`` built for the knots."""
    scheme = loc.scheme
    if scheme is InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC:
        return eval_log_cubic(t, loc, dfs, lnp, aux)
    if scheme is InterpScheme.LINEAR_ZERO:
        return eval_linear_zero(t, loc, dfs, aux)
    return eval_log_linear(t, loc, dfs, lnp)


def knot_data(scheme: InterpScheme, ts: np.ndarray, lnp: np.ndarray):
    """Per-knot data the scheme's kernel reads beside the log-discounts:
    monotone cubic slopes, zero rates, or None for log-linear."""
    if scheme is InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC:
        return monotone_cubic_slopes(ts, lnp)
    if scheme is InterpScheme.LINEAR_ZERO:
        return zero_rates_from_logdf(ts, lnp)
    return None


def linear_parts(t, loc: Located):
    """(cols, A, B): the linear parts of the located lookup at times ``t``.

    Query i reads the knots ``cols[:, i]`` with weights ``A[:, i]`` on
    their log-discounts and ``B[:, i]`` on their cubic slopes, so that
    d ln P(t_i)/d ln p = A + B S'(ln p).  B is None for the linear
    schemes, whose ln P is linear in ln p.  Built on the first call and
    kept on ``loc``.
    """
    if loc.lin is not None:
        return loc.lin
    ts, j, ext = loc.ts, loc.j, loc.ext
    cols = np.stack((j, j + 1))
    b = None
    if loc.scheme is InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC:
        c0, c1, c2, c3 = loc.w
        a, b = np.stack((c0, c2)), np.stack((c1, c3))
    else:
        h, dt = loc.w
        w = dt / h
        if loc.scheme is InterpScheme.LOG_LINEAR_DISCOUNT:
            a = np.stack((1.0 - w, w))
            if ext is not None:
                # the last segment's slope carried past its end
                a[0, ext] = -w[ext]
                a[1, ext] = 1.0 + w[ext]
        else:
            # ln P = -t z, z linear in the zero rates zr[k] = -lnp[k]/ts[k]
            # (zr[0] = zr[1]); first the weights on zr[j], zr[j+1]
            a = np.stack((t * (1.0 - w), t * w))
            if ext is not None:
                # -zr[n] tn - (zr[n] + tn (zr[n] - zr[n-1]) / h) dt
                tn = ts[-1]
                a[0, ext] = -tn * w[ext]
                a[1, ext] = tn + dt[ext] + tn * w[ext]
            np.maximum(cols[0], 1, out=cols[0])
            a /= ts[cols]
    if loc.hits is not None:
        # the stored discount factor itself
        rows, knots = loc.hits
        cols[:, rows] = knots
        a[0, rows] = 1.0
        a[1, rows] = 0.0
        if b is not None:
            b[:, rows] = 0.0
    loc.lin = (cols, a, b)
    return loc.lin


def log_jacobian(t, loc: Located, lnp, g, rows, n_rows: int) -> np.ndarray:
    """G (A + B S'(ln p)) over all knots, G holding ``g[i]`` at
    (``rows[i]``, query i): per row, the sum of each query's weight
    ``g`` times its d ln P/d ln p.  ``rows = arange(len(t))`` with unit
    ``g`` gives d ln P/d ln p itself."""
    cols, a, b = linear_parts(t, loc)
    n = loc.ts.shape[0]
    flat = (rows * n + cols).ravel()
    size = n_rows * n
    out = np.bincount(flat, (g * a).ravel(), size).reshape(n_rows, n)
    if b is not None:
        gb = np.bincount(flat, (g * b).ravel(), size).reshape(n_rows, n)
        out += gb @ monotone_cubic_slope_jacobian(loc.ts, lnp)
    return out


def evaluate(scheme: InterpScheme, t, ts, dfs, lnp, aux) -> np.ndarray:
    """Discount factors at times ``t``: locate, then the scheme's
    evaluate step."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    if t.ndim != 1:
        flat = t.reshape(-1)
        return apply(flat, locate(scheme, flat, ts), dfs, lnp, aux).reshape(t.shape)
    return apply(t, locate(scheme, t, ts), dfs, lnp, aux)
