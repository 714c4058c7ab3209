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
none of them out themselves.  Each sum is one ``np.dot``.  The floating
leg's reverse pass, its derivative in the log of every discount factor
it reads (``float_leg_log_gradient``, scattering through
``ratio_log_gradient``), is written here too; the pricer's book
gradient reads it, its caplets reuse the ratio scatter, and the
bootstrap's compiled quote sets scatter the same coupon terms over
every leg of a set at once.

``float_legs`` and ``annuities`` price many legs at once off slices of
shared batches, as those compiled quote sets lay them out.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "simple_forward",
    "coupons",
    "float_leg",
    "float_legs",
    "float_leg_log_gradient",
    "ratio_log_gradient",
    "annuity",
    "annuities",
]


def simple_forward(p1, p2, tau):
    """Simple forward rate over [T1, T2] from P_f(T1), P_f(T2) and the
    accrual ``tau``; scalars or arrays, element by element."""
    return (p1 - p2) / (tau * p2)


def coupons(p_f: np.ndarray) -> np.ndarray:
    """Forwarding discount ratio minus one, P_f(t_{i-1}) / P_f(t_i) - 1,
    over consecutive entries of ``p_f``: each period's accrual times its
    simple forward rate."""
    return p_f[:-1] / p_f[1:] - 1.0


def float_leg(p_d: np.ndarray, p_f: np.ndarray, qa: np.ndarray | None = None) -> float:
    """PV of a floating leg per unit notional.

    ``p_f`` holds the forwarding discount factors at the n + 1 schedule
    dates and ``p_d`` the discounting ones at the n payment dates; ``qa``
    multiplies each coupon by its forward adjustment.
    """
    c = coupons(p_f)
    if qa is not None:
        c = c * qa
    return float(np.dot(p_d, c))


def float_leg_log_gradient(
    p_d: np.ndarray, p_f: np.ndarray, qa: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """d ``float_leg``/d ln P at each of its reads: (at the n payment
    reads, at the n + 1 schedule reads).  Coupon i, c_i = P_f(t_{i-1})
    / P_f(t_i) - 1 paid at P_d(t_i) and scaled by qa_i, gives
    P_d qa c_i at its payment read and +-P_d qa (1 + c_i) at t_{i-1}
    and t_i."""
    ratio = p_f[:-1] / p_f[1:]
    pay = p_d if qa is None else p_d * qa
    return pay * (ratio - 1.0), ratio_log_gradient(pay * ratio)


def ratio_log_gradient(x: np.ndarray) -> np.ndarray:
    """d/d ln P_f at the n + 1 schedule reads of a value whose
    derivative in the log of each forwarding ratio P_f(t_{i-1}) / P_f(t_i)
    is ``x[i]``: +x[i] at t_{i-1} and -x[i] at t_i.  Every coupon-based
    leg, whatever its payoff, reaches its forwarding reads through it."""
    at_f = np.zeros(len(x) + 1)
    at_f[:-1] = x
    at_f[1:] -= x
    return at_f


def float_legs(p_d: np.ndarray, p_f: np.ndarray, legs) -> list[float]:
    """``float_leg`` of several unadjusted legs read off two batches:
    each (payment, coupon) slice pair in ``legs`` picks one leg's
    discounting factors from ``p_d`` and its coupons from
    ``coupons(p_f)``, whose coupon i projects off ``p_f[i]`` and
    ``p_f[i + 1]``."""
    c = coupons(p_f)
    return [float(np.dot(p_d[d], c[k])) for d, k in legs]


def annuity(taus: np.ndarray, p_d: np.ndarray) -> float:
    """Sum of the accruals ``taus`` discounted at their payment dates."""
    return float(np.dot(taus, p_d))


def annuities(legs, p_d: np.ndarray) -> list[float]:
    """``annuity`` of several legs read off one batch: each (accruals,
    payment slice) pair in ``legs`` is one leg."""
    return [float(np.dot(taus, p_d[d])) for taus, d in legs]
