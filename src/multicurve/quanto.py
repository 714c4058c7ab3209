"""Vol/correlation adjustments for forwards projected on one curve but
priced under another curve's measure.

In the two-curve analogy with cross-currency pricing, a forward rate
fixed on the forwarding curve acquires a drift under the discounting
measure, driven by the forward's volatility, the volatility of the
ratio of discount factors between the curves, and their correlation.
With piecewise-constant parameters the adjustment over [t, T] is

    QA = exp( - integral_t^T sigma_f(u) * sigma_X(u) * rho_fX(u) du )

applied multiplicatively to the forward; the additive form is
QA' = F * (QA - 1).  Positive correlation therefore pushes the adjusted
forward down.  The swap-rate version has identical mechanics with the
swap-rate vol, annuity-ratio vol and their correlation, so the two specs,
:class:`VolCorrSpec` and :class:`SwapVolCorrSpec`, are thin frozen
dataclasses over one private base, ``_PiecewiseSpec``, which holds their
validation, drift and variance integrals and JSON form.  They differ in
field names and JSON keys only.

Volatilities and correlations are piecewise constant on segments split
by ``breakpoints`` (interior knots, times in years); the final value
extends flat to infinity, so a spec with no breakpoints is constant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from .basis import ForwardBasisCurve, additive_basis, multiplicative_basis
from .curve import YieldCurve
from .timegrid import Date

__all__ = [
    "VolCorrSpec",
    "SwapVolCorrSpec",
    "piecewise_product_integral",
    "drift_integral",
    "quanto_mult",
    "quanto_add",
    "swap_quanto_mult",
    "swap_quanto_add",
    "implied_sigma_x",
    "consistency_gap",
    "InfeasibleVolError",
]


class InfeasibleVolError(ValueError):
    """Raised when no non-negative volatility can reproduce a target."""


def piecewise_product_integral(
    breakpoints, v1, v2, corr, a: float, b: float | np.ndarray
) -> float | np.ndarray:
    """Exact integral of v1(u) * v2(u) * corr(u) over [a, b].

    ``b`` may be a scalar or an array of upper limits; an array gives
    one integral per limit.  Each is a difference of the closed-form
    running integral I(t) = C_k + p_k (t - t_k), where k is the segment
    holding t, p_k the segment's product and C_k the sum of the whole
    segments before it.
    """
    upper = np.asarray(b, dtype=float)
    if a < 0.0 or (upper < a).any():
        raise ValueError("need 0 <= a <= b")
    bp = np.asarray(breakpoints, dtype=float)
    prod = np.multiply(np.multiply(v1, v2, dtype=float), corr, dtype=float)
    left = np.concatenate(((0.0,), bp))
    running = np.concatenate(((0.0,), np.cumsum(prod[:-1] * (bp - left[:-1]))))
    t = np.concatenate((upper.reshape(-1), (a,)))
    k = np.searchsorted(bp, t, side="right")
    at = running[k] + prod[k] * (t - left[k])
    total = (at[:-1] - at[-1]).reshape(upper.shape)
    return float(total) if total.ndim == 0 else total


class _PiecewiseSpec:
    """Piecewise-constant rate vol, ratio vol and their correlation.

    The body shared by :class:`VolCorrSpec` and :class:`SwapVolCorrSpec`.
    Each is a frozen dataclass whose four fields are, in this order, the
    breakpoints, the rate's vol, the vol of the discount ratio and their
    correlation; ``_keys`` names the same four in JSON.
    """

    _keys: tuple[str, str, str, str]

    def _parts(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __post_init__(self):
        breakpoints, vol, ratio_vol, corr = self._parts()
        if not (len(vol) == len(ratio_vol) == len(corr) == len(breakpoints) + 1):
            raise ValueError(
                "piecewise arrays must have one more entry than breakpoints"
            )
        for v in (*breakpoints, *vol, *ratio_vol, *corr):
            if isinstance(v, bool) or not isinstance(v, Real) or not math.isfinite(v):
                raise ValueError(f"vol/corr parameters must be finite numbers, got {v!r}")
        bp = np.asarray(breakpoints, dtype=float)
        if bp.size and (np.any(np.diff(bp) <= 0.0) or bp[0] <= 0.0):
            raise ValueError("breakpoints must be strictly increasing and positive")
        if any(v < 0.0 for v in vol) or any(v < 0.0 for v in ratio_vol):
            raise ValueError("volatilities must be non-negative")
        if any(abs(r) > 1.0 for r in corr):
            raise ValueError("correlations must lie in [-1, 1]")

    def drift_integral(self, a: float, b: float | np.ndarray) -> float | np.ndarray:
        """Minus the integral of vol * ratio vol * correlation: ln QA."""
        breakpoints, vol, ratio_vol, corr = self._parts()
        return -piecewise_product_integral(breakpoints, vol, ratio_vol, corr, a, b)

    def variance_integral(self, a: float, b: float | np.ndarray) -> float | np.ndarray:
        """Integral of the squared rate vol, the Black variance."""
        breakpoints, vol, _, _ = self._parts()
        return piecewise_product_integral(breakpoints, vol, vol, [1.0] * len(vol), a, b)

    def to_dict(self) -> dict:
        return {key: list(v) for key, v in zip(self._keys, self._parts())}

    @classmethod
    def from_dict(cls, data: dict):
        if not isinstance(data, dict):
            raise ValueError("a vol/corr spec must be a JSON object")
        breakpoints, *keys = cls._keys
        missing = [key for key in keys if key not in data]
        if missing:
            raise ValueError(f"vol/corr spec lacks {', '.join(missing)}")
        values = [data.get(breakpoints, ()), *(data[key] for key in keys)]
        if not all(isinstance(v, (list, tuple)) for v in values):
            raise ValueError(f"vol/corr fields {', '.join(cls._keys)} must be lists")
        return cls(*map(tuple, values))


@dataclass(frozen=True)
class VolCorrSpec(_PiecewiseSpec):
    """Piecewise-constant forward vol, exchange-ratio vol and correlation."""

    breakpoints: tuple[float, ...] = ()
    sigma_f: tuple[float, ...] = (0.0,)
    sigma_x: tuple[float, ...] = (0.0,)
    rho: tuple[float, ...] = (0.0,)
    _keys = ("breakpoints", "sigma_f", "sigma_X", "rho_fX")

    @classmethod
    def flat(cls, sigma_f: float, sigma_x: float, rho: float) -> "VolCorrSpec":
        return cls((), (sigma_f,), (sigma_x,), (rho,))


@dataclass(frozen=True)
class SwapVolCorrSpec(_PiecewiseSpec):
    """Swap-rate analogue of :class:`VolCorrSpec` (annuity-ratio vol)."""

    breakpoints: tuple[float, ...] = ()
    nu_f: tuple[float, ...] = (0.0,)
    nu_y: tuple[float, ...] = (0.0,)
    rho: tuple[float, ...] = (0.0,)
    _keys = ("breakpoints", "nu_f", "nu_Y", "rho_fY")

    @classmethod
    def flat(cls, nu_f: float, nu_y: float, rho: float) -> "SwapVolCorrSpec":
        return cls((), (nu_f,), (nu_y,), (rho,))


def load_volcorr(path) -> VolCorrSpec | SwapVolCorrSpec:
    """Read a spec from JSON; the ``nu_f`` key marks a swap-rate one."""
    with open(path) as fh:
        data = json.load(fh)
    swap = isinstance(data, dict) and "nu_f" in data
    return (SwapVolCorrSpec if swap else VolCorrSpec).from_dict(data)


# -- forward-rate adjustment -------------------------------------------------

def drift_integral(
    spec: VolCorrSpec | SwapVolCorrSpec, a: float, b: float | np.ndarray
) -> float | np.ndarray:
    return spec.drift_integral(a, b)


def _exp(x):
    return math.exp(x) if isinstance(x, float) else np.exp(x)


def quanto_mult(
    spec: VolCorrSpec | None, a: float, b: float | np.ndarray
) -> float | np.ndarray:
    """Multiplicative adjustment QA over [a, b]; 1 when spec is None.

    An array of upper limits gives one adjustment per limit.
    """
    if spec is None:
        return 1.0
    return _exp(spec.drift_integral(a, b))


def quanto_add(spec: VolCorrSpec | None, forward: float, a: float, b: float) -> float:
    """Additive adjustment QA' = F * (QA - 1)."""
    return forward * (quanto_mult(spec, a, b) - 1.0)


# -- swap-rate adjustment ----------------------------------------------------

def swap_quanto_mult(
    spec: SwapVolCorrSpec | None, a: float, b: float | np.ndarray
) -> float | np.ndarray:
    if spec is None:
        return 1.0
    return _exp(spec.drift_integral(a, b))


def swap_quanto_add(spec: SwapVolCorrSpec | None, rate: float, a: float, b: float) -> float:
    return rate * (swap_quanto_mult(spec, a, b) - 1.0)


# -- implied exchange-ratio vol ---------------------------------------------

def implied_sigma_x(
    basis: ForwardBasisCurve,
    forwards_f,
    forwards_d,
    sigma_f,
    rho,
) -> np.ndarray:
    """Bootstrap sigma_X segment by segment from a basis term structure.

    Convention: the whole basis is attributed to the measure adjustment
    by matching the additive forms, QA'(T1_i) = BA'(T1_i), i.e. the
    target cumulative adjustment for the forward fixing at T1_i is

        QA_i = 1 + (F_d,i / F_f,i) * (BA_i - 1)

    Segments run between consecutive fixing times (the first from the
    reference date); on each, sigma_X is read off the log-increment of
    the target.  A segment whose sign would require sigma_X < 0 raises
    :class:`InfeasibleVolError` rather than silently clamping.
    """
    n = len(basis)
    f_f = np.asarray(forwards_f, dtype=float)
    f_d = np.asarray(forwards_d, dtype=float)
    sf = np.broadcast_to(np.asarray(sigma_f, dtype=float), (n,))
    rh = np.broadcast_to(np.asarray(rho, dtype=float), (n,))
    if f_f.shape != (n,) or f_d.shape != (n,):
        raise ValueError("forward arrays must match the basis sample count")
    times = basis.fixing_times()
    if times[0] <= 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("basis fixings must be strictly increasing and after t0")

    qa_target = 1.0 + (f_d / f_f) * (basis.mult - 1.0)
    if np.any(qa_target <= 0.0):
        bad = np.nonzero(qa_target <= 0.0)[0].tolist()
        raise InfeasibleVolError(f"non-positive adjustment target at segments {bad}")
    ln_q = np.log(qa_target)
    incr = np.diff(np.concatenate(([0.0], ln_q)))
    dt = np.diff(np.concatenate(([0.0], times)))

    denom = sf * rh * dt
    if np.any(denom == 0.0):
        bad = np.nonzero(denom == 0.0)[0].tolist()
        raise InfeasibleVolError(
            f"cannot imply sigma_X with zero sigma_f or rho at segments {bad}"
        )
    out = -incr / denom
    neg = out < -1e-14
    if np.any(neg):
        bad = np.nonzero(neg)[0].tolist()
        raise InfeasibleVolError(
            f"sign-infeasible segments {bad}: basis and correlation imply sigma_X < 0"
        )
    return np.clip(out, 0.0, None)


def consistency_gap(
    fwd: YieldCurve,
    disc: YieldCurve,
    spec: VolCorrSpec,
    t1: Date,
    t2: Date,
) -> dict:
    """How much of the interval basis the vol/correlation spec explains.

    Under the same convention as :func:`implied_sigma_x` (match the
    additive adjustment to the additive basis), a spec fully explains
    the basis over [t1, t2] when QA' = BA', equivalently when the
    cumulative QA up to the fixing equals 1 + (F_d/F_f)(BA - 1).  The
    identification of basis with measure adjustment is a modeling
    choice, not an arbitrage identity, so both achieved and target
    values are reported along with their gaps instead of asserted.

    Both simple forwards are quoted in the discounting curve's day
    count so the additive comparison is exact.
    """
    b = (t1.serial - fwd.reference_date.serial) / 365.0
    qa = quanto_mult(spec, 0.0, b)
    f_f = fwd.simple_forward(t1, t2, disc.daycount)
    f_d = disc.simple_forward(t1, t2, disc.daycount)
    ba = multiplicative_basis(fwd, disc, t1, t2)
    ba_add = additive_basis(fwd, disc, t1, t2)
    qa_target = 1.0 + (f_d / f_f) * (ba - 1.0)
    qa_add = quanto_add(spec, f_f, 0.0, b)
    return {
        "qa": qa,
        "qa_target": qa_target,
        "mult_gap": qa - qa_target,
        "qa_add": qa_add,
        "ba_add": ba_add,
        "add_gap": qa_add - ba_add,
    }
