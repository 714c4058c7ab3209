"""Interpolation schemes for discount curves.

All schemes work in the curve's internal clock (ACT/365F years from the
reference date) and guarantee exact reproduction of pillar values:

* ``LOG_DISCOUNT_MONOTONE_CUBIC`` - shape-preserving C1 cubic Hermite on
  log-discount, with the Fritsch-Carlson slope limiter.  The default;
  produces smooth instantaneous forwards.
* ``LINEAR_ZERO`` - linear on continuously compounded zero rates.  A
  common market choice kept here deliberately: it produces the familiar
  sag/saw artefacts in forward rates that the smooth scheme removes.
* ``LOG_LINEAR_DISCOUNT`` - linear on log-discount, i.e. piecewise-flat
  forwards.  Strictly local, which makes it handy for bootstrap
  locality checks.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = [
    "InterpScheme",
    "monotone_cubic_slopes",
    "monotone_cubic_slope_jacobian",
    "zero_rates_from_logdf",
]


class InterpScheme(str, Enum):
    LOG_DISCOUNT_MONOTONE_CUBIC = "cubic"
    LINEAR_ZERO = "linzero"
    LOG_LINEAR_DISCOUNT = "loglinear"


def _sign(x: float) -> int:
    # np.sign of a finite float, without the numpy scalar round trip
    return (x > 0.0) - (x < 0.0)


def _edge_slope(h0: float, h1: float, m0: float, m1: float) -> tuple[float, float, float]:
    # one-sided three-point estimate, limited to keep the end segment
    # shape preserving; also gives its derivatives in m0 and m1 on the
    # branch taken
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0, 0.0, 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0, 3.0, 0.0
    return d, (2.0 * h0 + h1) / (h0 + h1), -h0 / (h0 + h1)


def monotone_cubic_slopes(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Node derivatives for a monotonicity-preserving cubic Hermite.

    Interior slopes use the weighted harmonic mean of adjacent secants
    (Fritsch-Carlson); any node where the secants change sign or vanish
    gets slope zero, which is what prevents spurious wiggles between
    pillars.
    """
    n = ts.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    h = ts[1:] - ts[:-1]
    m = (ys[1:] - ys[:-1]) / h
    if n == 2:
        return np.array([m[0], m[0]])
    hl, hr = h[:-1], h[1:]
    ml, mr = m[:-1], m[1:]
    w1 = 2.0 * hr + hl
    w2 = hr + 2.0 * hl
    d = np.empty(n)
    same = ml * mr > 0.0
    if same.all():
        # no vanishing secant, so the harmonic mean cannot divide by zero
        d[1:-1] = (w1 + w2) / (w1 / ml + w2 / mr)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            hm = (w1 + w2) / (w1 / ml + w2 / mr)
        d[1:-1] = np.where(same, hm, 0.0)
    hv, mv = h.tolist(), m.tolist()
    d[0] = _edge_slope(hv[0], hv[1], mv[0], mv[1])[0]
    d[-1] = _edge_slope(hv[-1], hv[-2], mv[-1], mv[-2])[0]
    return d


def monotone_cubic_slope_jacobian(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """S', the derivative of ``monotone_cubic_slopes(ts, ys)`` in ``ys``.

    Row i holds dS_i/dy.  Each slope reads the secants m beside its
    node, so S' is tridiagonal inside and its edge rows reach the
    third node.  The derivative is the one of the branch the slopes
    take: zero where the secants change sign or vanish, the harmonic
    mean's otherwise, and at each edge the limiter's 0 or 3 m_0 or the
    three-point estimate's.
    """
    n = ts.shape[0]
    h = ts[1:] - ts[:-1]
    m = (ys[1:] - ys[:-1]) / h
    # dS/dm, then the chain through dm/dy
    dd = np.zeros((n, n - 1))
    if n == 2:
        dd[:, 0] = 1.0
    else:
        hl, hr = h[:-1], h[1:]
        ml, mr = m[:-1], m[1:]
        w1 = 2.0 * hr + hl
        w2 = hr + 2.0 * hl
        same = ml * mr > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            d = (w1 + w2) / (w1 / ml + w2 / mr)
            q = d * d / (w1 + w2)
            inner = np.arange(1, n - 1)
            dd[inner, inner - 1] = np.where(same, q * w1 / (ml * ml), 0.0)
            dd[inner, inner] = np.where(same, q * w2 / (mr * mr), 0.0)
        hv, mv = h.tolist(), m.tolist()
        dd[0, :2] = _edge_slope(hv[0], hv[1], mv[0], mv[1])[1:]
        dd[-1, -1:-3:-1] = _edge_slope(hv[-1], hv[-2], mv[-1], mv[-2])[1:]
    dm = dd / h
    out = np.zeros((n, n))
    out[:, 1:] = dm
    out[:, :-1] -= dm
    return out


def zero_rates_from_logdf(ts: np.ndarray, lnp: np.ndarray) -> np.ndarray:
    """Continuously compounded zero rates, with the t=0 node held flat."""
    zr = np.empty_like(lnp)
    zr[1:] = -lnp[1:] / ts[1:]
    zr[0] = zr[1]
    return zr
