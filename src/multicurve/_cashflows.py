"""The leg formulas every rate instrument is built from.

In the dual-curve setting a bootstrap quote, a priced position and a
curve's own forward view all reduce to three pieces, read off discount
factors already looked up on the forwarding curve (P_f) and on the
discounting curve (P_d):

* the simple forward (P_f(T1) - P_f(T2)) / (tau P_f(T2));
* the floating leg sum_i P_d(t_i) (P_f(t_{i-1}) / P_f(t_i) - 1), whose
  accrual-times-rate product is the forwarding discount ratio minus one:
  day-count free, and telescoping exactly when the two curves coincide;
* the annuity sum_i tau_i P_d(t_i).

They are written here once, as pure numpy arithmetic on those arrays;
``bootstrap``, ``pricer``, ``curve`` and ``basis`` call them and write
none of them out themselves.  Each sum is one ``np.dot``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simple_forward", "float_leg", "annuity"]


def simple_forward(p1, p2, tau):
    """Simple forward rate over [T1, T2] from P_f(T1), P_f(T2) and the
    accrual ``tau``; scalars or arrays, element by element."""
    return (p1 - p2) / (tau * p2)


def float_leg(p_d: np.ndarray, p_f: np.ndarray, qa: np.ndarray | None = None) -> float:
    """PV of a floating leg per unit notional.

    ``p_f`` holds the forwarding discount factors at the n + 1 schedule
    dates and ``p_d`` the discounting ones at the n payment dates; ``qa``
    multiplies each coupon by its forward adjustment.
    """
    coupons = p_f[:-1] / p_f[1:] - 1.0
    if qa is not None:
        coupons = coupons * qa
    return float(np.dot(p_d, coupons))


def annuity(taus: np.ndarray, p_d: np.ndarray) -> float:
    """Sum of the accruals ``taus`` discounted at their payment dates."""
    return float(np.dot(taus, p_d))
