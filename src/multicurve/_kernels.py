"""Curve interpolation kernels and the choice between them.

Every discount-factor lookup is split in two steps:

* ``locate`` reads only the query times and the knot times.  It does
  the search, picks each query's column of the knot table and turns the
  query's place in its segment into one ``(k, m)`` block of weights, k
  per query, and it records the queries that sit exactly on a knot.  The
  result, a ``Located``, stays valid for as long as the scheme and the
  knot times stay the same.
* ``eval_log_cubic``/``eval_log_linear``/``eval_linear_zero`` read the
  knot values through the table ``knot_data`` builds once per curve:
  one ``take`` of each query's column, one in-place multiply by the
  weight block and one sum over its k rows (``np.add.reduce`` along the
  first axis adds row by row, left to right), then ``exp`` and the
  stored discount factors put back on exact knots.  The cubic's table
  is (ln p_j, S_j, ln p_j+1, S_j+1) per segment, S the cubic's knot
  slopes, against the four Hermite coefficients; the linear schemes'
  is (value, slope) per segment, log-discount or zero rate, against
  (1, offset into the segment), with one more column past the last knot
  for the extrapolation; a third ``linzero`` weight row, -t, turns the
  summed zero rate into ln P.  A lookup then costs four or five numpy
  calls whatever its scheme and size, where reading the knot arrays at
  each query's segment and combining them term by term took fourteen.

``evaluate`` is ``locate`` followed by ``apply``, the one place that
picks a scheme's evaluate step, so an ad-hoc lookup and a located one
run the same arithmetic.  It works through at most ``BLOCK`` queries at
a time, so a daily read over decades keeps its temporaries small (see
``BLOCK`` for the size).  ``YieldCurve`` and the bootstrap residuals
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
  all >= 0 and finite; the caller validates this.  Each ``eval_*`` takes
  the query times first, then their ``Located``.
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
    "BLOCK",
    "Located",
    "locate",
    "join",
    "eval_log_cubic",
    "eval_log_linear",
    "eval_linear_zero",
    "apply",
    "knot_data",
    "evaluate",
    "linear_parts",
    "log_jacobian",
]

# Queries per block of an ad-hoc ``evaluate``.  The largest temporary of
# a block, the cubic's gathered (4, BLOCK) table, then takes 4,000 x 4 x
# 8 = 128,000 bytes, just under glibc's 128 KiB mmap threshold, so every
# temporary comes from the heap instead of fresh zeroed pages: a daily
# read over thirty years in one piece faults in each of its pages anew.
BLOCK = 4000

_CUBIC = InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC
_LINZERO = InterpScheme.LINEAR_ZERO


class Located:
    """Query times placed among one scheme's knot times.

    ``j`` is each query's column of the scheme's knot table (segment
    ``j``, between knots ``j`` and ``j + 1``; for the linear schemes
    ``len(ts) - 1`` past the last knot).  ``w`` is the ``(k, m)`` block
    of weights on the table's k rows: for the cubic the four Hermite
    coefficients of (ln p_j, S_j, ln p_j+1, S_j+1), with the rows past
    the last knot set to ``(0, 0, 1, t - ts[-1])``; for ``loglinear``
    ``(1, dt)``, ``dt`` the offset from the segment start (from the last
    knot past it); for ``linzero`` ``(1, dt, -t)``, the third row the
    factor that turns the zero rate into -ln P, and ``(-ts[-1], -dt, 1)``
    past the last knot.  ``hits`` holds the (rows, knots) of exact knot
    hits, or None.  ``lin`` holds the lookup's linear parts once
    ``linear_parts`` has built them.
    """

    __slots__ = ("scheme", "ts", "j", "w", "hits", "lin")

    def __init__(self, scheme, ts, j, w, hits):
        self.scheme = scheme
        self.ts = ts
        self.j = j
        self.w = w
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
    n = ts.shape[0]
    lo = ts[1:].searchsorted(t, side="right")
    j = np.minimum(lo, n - 2)
    hits = ext = None
    hit = ts[lo] == t
    if hit.any():
        rows = np.flatnonzero(hit)
        hits = (rows, lo[rows])
    past = t > ts[-1]
    if past.any():
        ext = np.flatnonzero(past)
    tj = ts[j]
    if scheme is not _CUBIC:
        w = np.empty((3 if scheme is _LINZERO else 2, t.shape[0]))
        w[0] = 1.0
        dt = np.subtract(t, tj, out=w[1])
        if scheme is _LINZERO:
            np.negative(t, out=w[2])
        if ext is not None:
            j[ext] = n - 1
            dt[ext] = t[ext] - ts[-1]
            if scheme is _LINZERO:
                # -zr[-1] tn - f_end dt as zr[-1] (-tn) + f_end (-dt), times 1
                w[0, ext] = -ts[-1]
                w[1, ext] = -dt[ext]
                w[2, ext] = 1.0
        return Located(scheme, ts, j, w, hits)
    # the Hermite coefficients (1+2s)u^2, h(su)u, s^2(3-2s), h s^2(s-1)
    # of the fused kernel, product by product and in its order (up to the
    # order of two operands), built in place to keep large batches lean
    h = (ts[1:] - ts[:-1])[j]
    s = t - tj
    s /= h
    u = 1.0 - s
    ss = s * s
    w = np.empty((4, t.shape[0]))
    c0, c1, c2, c3 = w
    np.multiply(s, 2.0, out=c0)
    c0 += 1.0
    c0 *= u
    c0 *= u
    np.multiply(s, u, out=c1)
    c1 *= u
    c1 *= h
    np.multiply(s, 2.0, out=c2)
    np.subtract(3.0, c2, out=c2)
    c2 *= ss
    np.subtract(s, 1.0, out=c3)
    c3 *= ss
    c3 *= h
    if ext is not None:
        # lnp[-1] + drv[-1] * (t - ts[-1]) through the same four terms
        w[:2, ext] = 0.0
        c2[ext] = 1.0
        c3[ext] = t[ext] - ts[-1]
    return Located(scheme, ts, j, w, hits)


def join(locs: list[Located]) -> Located:
    """One ``Located`` for the queries of ``locs`` in turn, all located
    for one scheme on one knot-time array: their columns and weight
    blocks side by side and their exact hits offset to the joined rows."""
    first = locs[0]
    if len(locs) == 1:
        return first
    hits, start = [], 0
    for loc in locs:
        if loc.hits is not None:
            hits.append((loc.hits[0] + start, loc.hits[1]))
        start += loc.j.shape[0]
    return Located(
        first.scheme,
        first.ts,
        np.concatenate([loc.j for loc in locs]),
        np.concatenate([loc.w for loc in locs], axis=1),
        tuple(map(np.concatenate, zip(*hits))) if hits else None,
    )


def _combine(table, loc, dfs, w, scale=None):
    # each query's table column times its weights ``w``, the rows added
    # in order (c0 x0 + c1 x1 + ..., as the fused kernels add them, since
    # a reduction over the first axis adds whole rows), times ``scale``
    # if given; then exponentiated in place, and the stored df put back
    # on exact knots
    y = table.take(loc.j, axis=1)
    y *= w
    y = np.add.reduce(y)
    if scale is not None:
        y *= scale
    out = np.exp(y, out=y)
    hits = loc.hits
    if hits is not None:
        out[hits[0]] = dfs[hits[1]]
    return out


def eval_log_cubic(t, loc, dfs, table):
    return _combine(table, loc, dfs, loc.w)


def eval_log_linear(t, loc, dfs, table):
    # ln p_j + slope_j dt, the last slope carried past the last knot
    return _combine(table, loc, dfs, loc.w)


def eval_linear_zero(t, loc, dfs, table):
    # -(zr_j + slope_j dt) t; past the last knot the frozen forward
    w = loc.w
    return _combine(table, loc, dfs, w[:2], w[2])


def apply(t, loc: Located, dfs, table) -> np.ndarray:
    """Discount factors at the located times ``t`` through the scheme's
    evaluate step; ``table`` is what ``knot_data`` built for the knots."""
    scheme = loc.scheme
    if scheme is _CUBIC:
        return eval_log_cubic(t, loc, dfs, table)
    if scheme is _LINZERO:
        return eval_linear_zero(t, loc, dfs, table)
    return eval_log_linear(t, loc, dfs, table)


def knot_data(scheme: InterpScheme, ts: np.ndarray, lnp: np.ndarray) -> np.ndarray:
    """The scheme's knot table, one column per segment: (ln p_j, S_j,
    ln p_j+1, S_j+1) for the cubic, S its monotone slopes; (value,
    slope) of the log-discounts (``loglinear``) or zero rates
    (``linzero``), plus a last column for the extrapolation: the last
    log-discount and the last segment's slope, or the last zero rate
    and the frozen instantaneous forward."""
    if scheme is _CUBIC:
        drv = monotone_cubic_slopes(ts, lnp)
        table = np.empty((4, ts.shape[0] - 1))
        table[0] = lnp[:-1]
        table[1] = drv[:-1]
        table[2] = lnp[1:]
        table[3] = drv[1:]
        return table
    y = lnp if scheme is not _LINZERO else zero_rates_from_logdf(ts, lnp)
    table = np.empty((2, ts.shape[0]))
    table[0] = y
    slope = table[1]
    np.divide(y[1:] - y[:-1], ts[1:] - ts[:-1], out=slope[:-1])
    slope[-1] = slope[-2] if scheme is not _LINZERO else y[-1] + ts[-1] * slope[-2]
    return table


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
    ts = loc.ts
    j = np.minimum(loc.j, ts.shape[0] - 2)
    cols = np.stack((j, j + 1))
    b = None
    if loc.scheme is _CUBIC:
        c0, c1, c2, c3 = loc.w
        a, b = np.stack((c0, c2)), np.stack((c1, c3))
    else:
        ext = np.flatnonzero(t > ts[-1])
        if not ext.size:
            ext = None
        dt = t - ts[j]
        if ext is not None:
            dt[ext] = t[ext] - ts[-1]
        w = dt / (ts[1:] - ts[:-1])[j]
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


def evaluate(scheme: InterpScheme, t, ts, dfs, table) -> np.ndarray:
    """Discount factors at times ``t`` (any shape): locate, then the
    scheme's evaluate step, ``BLOCK`` queries at a time."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    flat = t.reshape(-1)
    m = flat.shape[0]
    if m <= BLOCK:
        out = apply(flat, locate(scheme, flat, ts), dfs, table)
    else:
        out = np.empty(m)
        for i in range(0, m, BLOCK):
            part = flat[i:i + BLOCK]
            out[i:i + BLOCK] = apply(part, locate(scheme, part, ts), dfs, table)
    return out.reshape(t.shape)
