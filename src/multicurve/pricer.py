"""Pricing of linear and optional rate instruments under two curves.

Cashflows are projected on the forwarding curve of their tenor and
discounted on the discounting curve.  A forward projected this way is
not a martingale under the discounting measure; the correction enters
as a multiplicative adjustment on the forward (see :mod:`.quanto`).
Option payoffs then use the adjusted forward inside the standard
lognormal (Black) formula with zero residual drift:

    Bl[F, K, var, w] = w * [F * N(w d+) - K * N(w d-)]
    d+- = [ln(F/K) + mu +- var/2] / sqrt(var)

Pricing with the adjusted forward *and* a non-zero drift mu would count
the same correction twice; the engine therefore fixes mu = 0 and keeps
the literal double-drift variant available behind ``paper_literal``
flags for comparison.

The option kernel is one scalar routine on ``math``: Black's value, or
its slope in the forward, of one element, with the normal CDF
N(x) = erfc(-x / sqrt(2)) / 2 from ``math.erfc``.  ``black`` and
``norm_cdf`` loop it over the elements of their broadcast inputs, so a
call costs about a microsecond per element and a few microseconds
beyond, where a numpy evaluation would pay tens of microseconds of fixed
cost on the one to forty elements a position holds.  Compiled positions
skip even the broadcast: a swaption calls the routine on its floats, and
a cap or floor, whose omega is checked on compiling, maps it over its
periods' floats.  For the same reason a cap, floor or FRA turns each
curve read into floats at once (one ``tolist`` per read) and works its
forwards, weights and Black values as floats, product by product in the
order the array arithmetic would take, so the values are the arrays'
to the last bit; a cap's period values are then summed by one numpy
``sum``.  Swap and swaption legs stay arrays, one ``np.dot`` per leg.

Every instrument is compiled before it is valued.  Compiling turns its
dates, as serial days, into ``LocatedQuery`` objects, one on the
forwarding curve and one on the discounting curve (a swap's float and
fixed payment dates share one), and computes its accruals, strikes,
adjustments (QA), variances and drifts, checking the dates on the way.
Swap legs and caps read their schedules from
``timegrid.cached_schedule_serials`` and a swap's fixed accruals from
``cached_schedule_accruals``, the two caches the bootstrap's quote sets
compile from; other accruals come from ``year_fractions``.  The per-period
QA, variance and drift of swap legs, caps and floors all come from one
routine, ``_adjustments``; the FRA and the swaption take their single
QA from ``quanto_mult`` and ``swap_quanto_mult``.  Valuing reads the
discount factors of each curve through its query and applies the leg
formulas of ``_cashflows`` (simple forward, floating leg, annuity),
which the bootstrap quotes share, so a compiled position costs one
kernel evaluation per curve it reads, some array arithmetic and one
Black routine call per option period.  A caplet is the one-period cap,
and a swap values each of its legs once for both its PV and its par
rate.

Each position kind's formulas are written once, in the one function it
compiles to, ``run``: it values the position and hands back its reverse
pass, dPV/d ln P at every time its queries read, as a closure over the
discount factors, adjusted forwards, Black values, leg sums and annuity
the valuation holds, so that pass reads no curve and values no Black
formula again.  Valuing alone never calls it; an option's calls Black's
slope once per period.  A ``Book`` holds positions with one set of
pricing settings: called on a curve dict it gives the PV of
``price_position`` summed, and ``Book.gradient`` gives that same PV and
the book's reverse pass per curve label, which ``risk`` chains through
each curve's d ln P/d ln p into the exact book gradient its quote
deltas need.

``price_position`` keeps the compiled form on the ``Position`` itself,
keyed on the discounting and forwarding reference dates, the
forwarding day count and the pricing settings (vol/correlation specs,
``single_curve``, ``paper_literal``), so it lives and dies with the
position.  Nothing is keyed on curve identity or discount factors, which
are read afresh on every call, and revaluing on curves with the same
pillar dates skips even the search among the knots.  The ``price_*``
functions compile and value in one go and keep nothing.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _cashflows
from .curve import LocatedQuery, YieldCurve
from .quanto import SwapVolCorrSpec, VolCorrSpec, quanto_mult, swap_quanto_mult
from .timegrid import Date, DayCount, generate_schedule, year_fraction, year_fractions
from .timegrid import cached_schedule_accruals as _taus
from .timegrid import cached_schedule_serials as _sched

__all__ = [
    "norm_cdf",
    "black",
    "annuity",
    "FraSpec",
    "SwapSpec",
    "OptionSpec",
    "price_float_zcb",
    "price_fra",
    "fair_swap_rate",
    "price_swap",
    "price_caplet_floorlet",
    "price_capfloor",
    "price_swaption",
    "Position",
    "parse_portfolio",
    "load_portfolio",
    "price_position",
    "price_portfolio",
    "Book",
    "PRICE_CSV_HEADER",
]

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_cdf(x: float) -> float:
    """N(x) of one float: erfc(-x / sqrt(2)) / 2, one C call."""
    return 0.5 * math.erfc(-x / _SQRT_2)


def _black_element(omega, slope, f, k, mu, var) -> float:
    """``black`` of one element, or with ``slope`` true its dBl/dF.

    The routine behind ``black``; a compiled swaption, whose inputs are
    floats already, calls it directly, and a compiled cap or floor maps
    it over its periods' floats.  As K n(d-) = F n(d+) e^mu, dBl/dF =
    omega N(omega d+) + n(d+) (1 - e^mu) / sqrt(var), the second term the
    drift's; at zero variance it is the intrinsic's, the
    out-of-the-money side's at the kink.  The
    settings come first so that a ``functools.partial`` of them maps
    over the elements with positional arguments alone.
    """
    if f <= 0.0 or k <= 0.0:
        raise ValueError("lognormal formula needs positive forward and strike")
    if var < 0.0:
        raise ValueError("variance must be non-negative")
    s = math.log(f / k) + mu
    if var == 0.0:
        if omega * s > 0.0:
            return float(omega) if slope else omega * (f - k)
        # a NaN forward, strike or drift has no intrinsic value either
        return math.nan if math.isnan(s) else 0.0
    sd = math.sqrt(var)
    d_plus = (s + 0.5 * var) / sd
    n_plus = _normal_cdf(omega * d_plus)
    if slope:
        density = math.exp(-0.5 * d_plus * d_plus) / _SQRT_2PI
        return omega * n_plus - density * math.expm1(mu) / sd
    return omega * (f * n_plus - k * _normal_cdf(omega * (d_plus - sd)))


def _per_element(routine, *args):
    """``routine`` over the broadcast elements of ``args``: an array of
    their shape, or a float when every argument is a scalar."""
    arrays = [np.asarray(v, dtype=float) for v in args]
    shape = np.broadcast(*arrays).shape
    if not shape:
        return routine(*map(float, arrays))
    size = math.prod(shape)
    columns = [
        a.ravel().tolist() if a.shape == shape
        else [float(a)] * size if a.ndim == 0
        else np.broadcast_to(a, shape).ravel().tolist()
        for a in arrays
    ]
    return np.fromiter(map(routine, *columns), float, count=size).reshape(shape)


def norm_cdf(x):
    """Standard normal CDF, N(x) = erfc(-x / sqrt(2)) / 2 by ``math.erfc``.

    Accepts scalars or arrays and is evaluated element by element; a
    scalar gives a float.  ``math.erfc`` is accurate to a few units in
    the last place over the whole line, tails included.
    """
    return _per_element(_normal_cdf, x)


def _check_omega(omega) -> None:
    if omega not in (1, -1):
        raise ValueError("omega must be +1 or -1")


def black(forward, strike, drift, variance, omega: int):
    """Undiscounted lognormal option kernel.

    ``omega`` is +1 for a call (caplet / payer) and -1 for a put
    (floorlet / receiver).  ``variance`` is the integrated squared
    volatility up to expiry.  ``forward`` should already carry any
    measure adjustment; ``drift`` shifts the d+- exercise terms only
    and exists for the literal variant that also feeds the adjustment
    through them.  With zero drift the zero-variance value degenerates
    to the intrinsic max(omega * (F - K), 0).

    Forward, strike, drift and variance may be arrays, which broadcast
    to one value per element; scalars give a float.  Each element is
    one call of a scalar routine on ``math`` (the normal CDF by
    ``math.erfc``), so a call costs about a microsecond per element and
    a few beyond.  A non-positive forward or strike or a negative
    variance raises ``ValueError``; a NaN input gives NaN wherever the
    variance is positive.
    """
    _check_omega(omega)
    return _per_element(
        functools.partial(_black_element, omega, False), forward, strike, drift, variance
    )


def annuity(curve: YieldCurve, dates: list[Date], daycount: DayCount | None = None) -> float:
    """Sum of discounted accruals over consecutive schedule periods."""
    if len(dates) < 2:
        raise ValueError("annuity needs at least two schedule dates")
    serials = _serials(dates)
    taus = year_fractions(serials[:-1], serials[1:], daycount or curve.daycount)
    return _cashflows.annuity(taus, np.atleast_1d(curve.discount(dates[1:])))


# ---------------------------------------------------------------------------
# instrument specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FraSpec:
    start: Date
    end: Date
    strike: float
    notional: float = 1.0
    daycount: DayCount | None = None  # None: use the forwarding curve's


@dataclass(frozen=True)
class SwapSpec:
    """A fixed-vs-floating swap; both legs share start and end dates."""

    start: Date
    end: Date
    fixed_rate: float
    notional: float = 1.0
    payer: bool = True
    float_tenor_months: int = 6
    fixed_frequency_months: int = 12
    daycount_float: DayCount = DayCount.ACT_360
    daycount_fixed: DayCount = DayCount.THIRTY_360

    def float_schedule(self) -> list[Date]:
        return generate_schedule(self.start, self.end, self.float_tenor_months)

    def fixed_schedule(self) -> list[Date]:
        return generate_schedule(self.start, self.end, self.fixed_frequency_months)


@dataclass(frozen=True)
class OptionSpec:
    """A caplet or floorlet on one forward-rate period."""

    start: Date
    end: Date
    strike: float
    omega: int = 1  # +1 caplet, -1 floorlet
    notional: float = 1.0
    daycount: DayCount | None = None


# ---------------------------------------------------------------------------
# compiled instruments
# ---------------------------------------------------------------------------
# Each ``_compile_*`` reads the dates, accruals and adjustments of one
# instrument once and returns one closure over them, ``run(disc, fwd) ->
# (pv, fair, reverse)``, which reads only discount factors, one located
# lookup per curve.  ``reverse() -> ((q_d, g_d), (q_f, g_f))`` reads
# none: g_d and g_f hold dPV/d ln P at every time of the discounting
# query q_d and of the forwarding query q_f, in query order.
#
# The curves passed to ``run`` must share the compiling curves' reference
# dates (and, where the spec leaves it open, the forwarding day count);
# their pillar dates and DFs may differ.

def _adjustments(volcorr, t_fix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(QA, Black variance, drift) of each period fixing at ``t_fix``.

    ``volcorr`` is None (no adjustment: QA 1, variance and drift 0), one
    spec for every period, or a list with one spec (or None) per period.
    A list is grouped by spec object, so each distinct spec is evaluated
    in one array call.
    """
    n = len(t_fix)
    if isinstance(volcorr, list):
        if len(volcorr) != n:
            raise ValueError("need one vol/corr spec per period")
        groups: dict[int, tuple] = {}
        for i, spec in enumerate(volcorr):
            if spec is not None:
                groups.setdefault(id(spec), (spec, []))[1].append(i)
        pairs = list(groups.values())
    else:
        pairs = [] if volcorr is None else [(volcorr, slice(None))]
    qa, variance, drift = np.ones(n), np.zeros(n), np.zeros(n)
    for spec, idx in pairs:
        drift[idx] = spec.drift_integral(0.0, t_fix[idx])
        qa[idx] = np.exp(drift[idx])
        variance[idx] = spec.variance_integral(0.0, t_fix[idx])
    return qa, variance, drift


def _serials(dates) -> np.ndarray:
    return np.array([d.serial for d in dates], dtype=np.int64)


def _query(curve: YieldCurve, serials) -> LocatedQuery:
    """The serial days ``serials`` as a query on ``curve``'s clock."""
    return LocatedQuery((np.asarray(serials) - curve.reference_date.serial) / 365.0)


def _compile_fra(disc: YieldCurve, fwd: YieldCurve, spec: FraSpec, volcorr):
    """PV of an FRA and its adjusted forward F * QA."""
    if not spec.start < spec.end:
        raise ValueError("simple forward needs T1 < T2")
    tau = year_fraction(spec.start, spec.end, spec.daycount or fwd.daycount)
    q_f = _query(fwd, (spec.start.serial, spec.end.serial))
    q_d = _query(disc, (spec.end.serial,))
    qa = quanto_mult(volcorr, 0.0, disc.time(spec.start))
    notional, strike = spec.notional, spec.strike

    def run(disc: YieldCurve, fwd: YieldCurve):
        p1, p2 = fwd.discount_time(q_f).tolist()
        f_adj = _cashflows.simple_forward(p1, p2, tau) * qa
        (p_d,) = disc.discount_time(q_d).tolist()
        pv = notional * p_d * tau * (f_adj - strike)

        def reverse():
            # dF/d ln P_f = +-P_f(T1) / (tau P_f(T2))
            slope = notional * p_d * qa * (p1 / p2)
            return (q_d, np.array([pv])), (q_f, np.array([slope, -slope]))

        return pv, f_adj, reverse

    return run


def _compile_legs(disc: YieldCurve, fwd: YieldCurve, spec: SwapSpec, volcorr):
    """Adjusted floating-leg PV and fixed annuity, per unit notional.

    Both legs' payment dates form one discount query.  Gives ``legs``,
    the two values and their reverse pass, and the queries (q_d, q_f);
    that pass gives the float leg's and the annuity's dPV/d ln P at every
    time of q_d and the float leg's at every time of q_f.
    """
    start, end, months = spec.start, spec.end, spec.fixed_frequency_months
    fdays = _sched(start.serial, end.serial, spec.float_tenor_months)
    xdays = _sched(start.serial, end.serial, months)
    n = len(fdays) - 1
    q_f = _query(fwd, fdays)
    q_d = _query(disc, np.concatenate((fdays[1:], xdays[1:])))
    taus = _taus(start.serial, end.serial, months, spec.daycount_fixed)
    # without a spec the coupons skip the multiply by QA altogether
    qa = None if volcorr is None else _adjustments(volcorr, q_f.t[:-1])[0]

    def legs(disc: YieldCurve, fwd: YieldCurve):
        p_d = disc.discount_time(q_d)
        p_f = fwd.discount_time(q_f)
        float_pv = _cashflows.float_leg(p_d[:n], p_f, qa)

        def reverse():
            at_pay, at_f = _cashflows.float_leg_log_gradient(p_d[:n], p_f, qa)
            d_float, d_ann = np.zeros(len(p_d)), np.zeros(len(p_d))
            d_float[:n] = at_pay
            d_ann[n:] = taus * p_d[n:]
            return d_float, d_ann, at_f

        return float_pv, _cashflows.annuity(taus, p_d[n:]), reverse

    return legs, (q_d, q_f)


def _compile_swap(disc: YieldCurve, fwd: YieldCurve, spec: SwapSpec, volcorr):
    """PV of the swap and its par rate."""
    legs, (q_d, q_f) = _compile_legs(disc, fwd, spec, volcorr)
    sign = 1.0 if spec.payer else -1.0

    def run(disc: YieldCurve, fwd: YieldCurve):
        float_pv, a_d, legs_reverse = legs(disc, fwd)
        pv = spec.notional * (float_pv - spec.fixed_rate * a_d)

        def reverse():
            d_float, d_ann, d_float_f = legs_reverse()
            scale = sign * spec.notional
            return (q_d, scale * (d_float - spec.fixed_rate * d_ann)), (q_f, scale * d_float_f)

        return sign * pv, float_pv / a_d, reverse

    return run


def _compile_capfloor(
    disc: YieldCurve,
    fwd: YieldCurve,
    serials: np.ndarray,
    strike,
    omega: int,
    notional: float,
    volcorr,
    daycount: DayCount | None,
    paper_literal: bool,
):
    """Cap/floor PV over the consecutive periods of the serial days
    ``serials`` and its unit premium."""
    n = len(serials) - 1
    if n < 1:
        raise ValueError("cap/floor schedule needs at least one period")
    strikes = np.broadcast_to(np.asarray(strike, dtype=float), (n,))
    t = (serials - disc.reference_date.serial) / 365.0
    if (t[1:] <= t[:-1]).any():
        raise ValueError("cap/floor periods need increasing dates")
    _check_omega(omega)
    taus = year_fractions(serials[:-1], serials[1:], daycount or fwd.daycount)
    q_f = _query(fwd, serials)
    q_d = LocatedQuery(t[1:])
    qa, variance, drift = _adjustments(volcorr, t[:-1])
    taus, qa = taus.tolist(), qa.tolist()
    # the per-period floats the Black routine maps over beside the
    # adjusted forwards, as ``black`` would pass them
    columns = [strikes.tolist(), (drift if paper_literal else np.zeros(n)).tolist(),
               variance.tolist()]
    bl = functools.partial(_black_element, omega, False)
    bl_slope = functools.partial(_black_element, omega, True)
    forward = _cashflows.simple_forward

    def run(disc: YieldCurve, fwd: YieldCurve):
        # period i pays N P_d tau Bl(F_i QA_i), F_i = (ratio_i - 1) / tau_i,
        # worked on floats in the order the array arithmetic would take
        p_f = fwd.discount_time(q_f).tolist()
        p_d = disc.discount_time(q_d).tolist()
        f_adj = [forward(a, b, tau) * x for a, b, tau, x in zip(p_f, p_f[1:], taus, qa)]
        weight = [notional * d * tau for d, tau in zip(p_d, taus)]
        at_d = np.array([w * v for w, v in zip(weight, map(bl, f_adj, *columns))])
        pv = float(at_d.sum())

        def reverse():
            x = [
                w * v * q * (a / b) / tau
                for w, v, q, a, b, tau in zip(
                    weight, map(bl_slope, f_adj, *columns), qa, p_f, p_f[1:], taus
                )
            ]
            return (q_d, at_d), (q_f, _cashflows.ratio_log_gradient(np.array(x)))

        return pv, pv / notional, reverse

    return run


def _compile_swaption(
    disc: YieldCurve,
    fwd: YieldCurve,
    swap: SwapSpec,
    volcorr: SwapVolCorrSpec | None,
    paper_literal: bool,
):
    """Swaption PV and its unit premium."""
    t_exp = disc.time(swap.start)
    if t_exp <= 0.0:
        raise ValueError("swaption expiry must lie after the reference date")
    legs, (q_d, q_f) = _compile_legs(disc, fwd, swap, None)
    qa = swap_quanto_mult(volcorr, 0.0, t_exp)
    variance = volcorr.variance_integral(0.0, t_exp) if volcorr else 0.0
    mu = volcorr.drift_integral(0.0, t_exp) if (paper_literal and volcorr) else 0.0
    omega, strike, notional = (1 if swap.payer else -1), swap.fixed_rate, swap.notional

    def run(disc: YieldCurve, fwd: YieldCurve):
        float_pv, a_d, legs_reverse = legs(disc, fwd)
        rate = float_pv / a_d * qa
        kernel = _black_element(omega, False, rate, strike, mu, variance)
        pv = notional * a_d * kernel

        def reverse():
            # N A Bl(S QA) with S = L / A: d = (Bl - Bl' S QA) dA + Bl' QA dL
            d_float, d_ann, d_float_f = legs_reverse()
            slope = _black_element(omega, True, rate, strike, mu, variance) * qa
            return (
                (q_d, notional * ((kernel - slope * float_pv / a_d) * d_ann + slope * d_float)),
                (q_f, notional * slope * d_float_f),
            )

        return pv, pv / notional, reverse

    return run


# ---------------------------------------------------------------------------
# linear instruments
# ---------------------------------------------------------------------------

def price_float_zcb(
    disc: YieldCurve,
    fwd: YieldCurve,
    maturity: Date,
    notional: float = 1.0,
) -> float:
    """Value of one floating coupon fixing today and paying at maturity.

    N * P_d(T) * tau_f * L_f(t0, T); the accrual-rate product collapses
    to 1/P_f(T) - 1 independently of day count.
    """
    if maturity == disc.reference_date:
        return 0.0
    p_d = disc.discount(maturity)
    p_f = fwd.discount(maturity)
    return notional * p_d * (1.0 / p_f - 1.0)


def price_fra(
    disc: YieldCurve,
    fwd: YieldCurve,
    spec: FraSpec,
    volcorr: VolCorrSpec | None = None,
) -> float:
    """PV of a forward rate agreement paying tau * (L - K) at the end date."""
    return _compile_fra(disc, fwd, spec, volcorr)(disc, fwd)[0]


def fair_swap_rate(
    disc: YieldCurve,
    fwd: YieldCurve,
    spec: SwapSpec,
    volcorr: VolCorrSpec | list[VolCorrSpec] | None = None,
) -> float:
    """Par fixed rate: adjusted floating leg over the fixed annuity."""
    return _compile_swap(disc, fwd, spec, volcorr)(disc, fwd)[1]


def price_swap(
    disc: YieldCurve,
    fwd: YieldCurve,
    spec: SwapSpec,
    volcorr: VolCorrSpec | list[VolCorrSpec] | None = None,
) -> float:
    """PV of the swap; positive when the payer side is in the money."""
    return _compile_swap(disc, fwd, spec, volcorr)(disc, fwd)[0]


# ---------------------------------------------------------------------------
# optional instruments
# ---------------------------------------------------------------------------

def price_caplet_floorlet(
    disc: YieldCurve,
    fwd: YieldCurve,
    opt: OptionSpec,
    volcorr: VolCorrSpec | None = None,
    paper_literal: bool = False,
) -> float:
    """Black value of one caplet/floorlet on the adjusted forward.

    The one-period case of :func:`price_capfloor`.  ``paper_literal``
    additionally feeds the drift integral into the d+- terms,
    reproducing the literal double-adjusted variant.
    """
    return price_capfloor(
        disc, fwd, [opt.start, opt.end], opt.strike, opt.omega,
        opt.notional, volcorr, opt.daycount, paper_literal,
    )


def price_capfloor(
    disc: YieldCurve,
    fwd: YieldCurve,
    schedule_dates: list[Date],
    strike,
    omega: int = 1,
    notional: float = 1.0,
    volcorr: VolCorrSpec | list[VolCorrSpec] | None = None,
    daycount: DayCount | None = None,
    paper_literal: bool = False,
) -> float:
    """Sum of caplets/floorlets over consecutive schedule periods.

    ``strike`` and ``volcorr`` may be scalars applied to every period or
    sequences with one entry per period.  Valuing takes one discount
    lookup per curve, one adjustment and variance call per distinct spec,
    and works each period's adjusted forward, discounted accrual and
    Black value (the scalar routine mapped over the periods) on floats;
    one numpy sum adds the periods.
    """
    return _compile_capfloor(
        disc, fwd, _serials(schedule_dates), strike, omega, notional, volcorr, daycount,
        paper_literal,
    )(disc, fwd)[0]


def price_swaption(
    disc: YieldCurve,
    fwd: YieldCurve,
    swap: SwapSpec,
    volcorr: SwapVolCorrSpec | None = None,
    paper_literal: bool = False,
) -> float:
    """European swaption (expiry = swap start) in the annuity measure.

    The adjusted forward swap rate S * QA prices against the strike in
    the Black kernel; a payer swaption is a call (omega +1).
    """
    return _compile_swaption(disc, fwd, swap, volcorr, paper_literal)(disc, fwd)[0]


# ---------------------------------------------------------------------------
# portfolios
# ---------------------------------------------------------------------------

PRICE_CSV_HEADER = "instrument_id,kind,pv,fair_rate_or_premium"

_POSITION_KINDS = ("fra", "swap", "caplet", "floorlet", "cap", "floor", "swaption")


@dataclass(frozen=True)
class Position:
    """One portfolio line: an instrument spec plus curve assignment.

    ``price_position`` keeps the position's compiled form in
    ``_compiled`` together with the settings it was compiled for; it is
    not part of the position's value, equality or hash.
    """

    id: str
    kind: str
    forwarding: str
    spec: object
    quantity: float = 1.0
    tenor_months: int | None = None  # cap/floor period roll
    _compiled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _POSITION_KINDS:
            raise ValueError(f"unknown position kind {self.kind!r}")

    def __getstate__(self):
        # the compiled form holds closures, which do not pickle; a copy
        # compiles afresh on its first valuation
        return dict(self.__dict__, _compiled=None)


def _number(row: dict, key: str, default=None, kind=float):
    """``row[key]`` (``default`` when absent) as a finite JSON number of ``kind``."""
    value = row[key] if default is None else row.get(key, default)
    number = isinstance(value, (int, kind)) and not isinstance(value, bool)
    # false for NaN, infinities and integers beyond the float range
    if not (number and abs(value) <= sys.float_info.max):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return kind(value)


def _parse_one(i: int, row: dict) -> Position:
    if not isinstance(row, dict):
        raise ValueError(f"portfolio row {i} is not a JSON object")
    kind = row["kind"]
    pid = str(row.get("id", f"pos{i}"))
    fwd_label = row.get("forwarding", "discount")
    if not isinstance(fwd_label, str):
        raise ValueError(f"forwarding must be a curve label, got {fwd_label!r}")
    payer = row.get("payer", True)
    if not isinstance(payer, bool):
        raise ValueError(f"payer must be true or false, got {payer!r}")
    qty = _number(row, "quantity", 1.0)
    notional = _number(row, "notional", 1.0)
    start = Date.parse(row["start"])
    end = Date.parse(row["end"])
    if kind == "fra":
        dc = DayCount(row["daycount"]) if "daycount" in row else None
        spec = FraSpec(start, end, _number(row, "strike"), notional, dc)
        return Position(pid, kind, fwd_label, spec, qty)
    if kind in ("swap", "swaption"):
        spec = SwapSpec(
            start=start,
            end=end,
            fixed_rate=_number(row, "fixed_rate" if kind == "swap" else "strike"),
            notional=notional,
            payer=payer,
            float_tenor_months=_number(row, "float_tenor_months", 6, int),
            fixed_frequency_months=_number(row, "fixed_freq_months", 12, int),
            daycount_float=DayCount(row.get("daycount_float", "ACT_360")),
            daycount_fixed=DayCount(row.get("daycount_fixed", "THIRTY_360")),
        )
        return Position(pid, kind, fwd_label, spec, qty)
    if kind in ("caplet", "floorlet"):
        dc = DayCount(row["daycount"]) if "daycount" in row else None
        spec = OptionSpec(
            start, end, _number(row, "strike"),
            1 if kind == "caplet" else -1, notional, dc,
        )
        return Position(pid, kind, fwd_label, spec, qty)
    if kind in ("cap", "floor"):
        dc = DayCount(row["daycount"]) if "daycount" in row else None
        spec = OptionSpec(
            start, end, _number(row, "strike"),
            1 if kind == "cap" else -1, notional, dc,
        )
        return Position(
            pid, kind, fwd_label, spec, qty,
            tenor_months=_number(row, "tenor_months", 6, int),
        )
    raise ValueError(f"unknown position kind {kind!r}")


def parse_portfolio(rows: list[dict]) -> list[Position]:
    if not isinstance(rows, list):
        raise ValueError("portfolio file must contain a JSON array")
    return [_parse_one(i, row) for i, row in enumerate(rows)]


def load_portfolio(path) -> list[Position]:
    with open(path) as fh:
        return parse_portfolio(json.load(fh))


def price_position(
    pos: Position,
    curves: dict[str, YieldCurve],
    volcorr: VolCorrSpec | None = None,
    swap_volcorr: SwapVolCorrSpec | None = None,
    single_curve: bool = False,
    paper_literal: bool = False,
) -> tuple[float, float]:
    """Value one position; returns (pv, fair rate or unit premium).

    The position is compiled on its first valuation and again only when
    the reference dates, the forwarding day count or the pricing
    settings change; otherwise the curves are read through the compiled
    queries alone.
    """
    run, disc, fwd = _compiled(pos, curves, volcorr, swap_volcorr, single_curve, paper_literal)
    pv, fair, _ = run(disc, fwd)
    return pos.quantity * pv, fair


def _compiled(pos, curves, volcorr, swap_volcorr, single_curve, paper_literal):
    """The position's compiled ``run`` for these settings and the curves'
    reference dates and forwarding day count, compiled on first use and
    kept on the position, with its discounting and forwarding curves."""
    disc = curves["discount"]
    fwd = disc if single_curve else curves[pos.forwarding]
    key = (
        disc.reference_date, fwd.reference_date, fwd.daycount,
        tuple(volcorr) if isinstance(volcorr, list) else volcorr,
        swap_volcorr, single_curve, paper_literal,
    )
    held = pos._compiled
    if held is None or held[0] != key:
        held = (key, _compile_position(pos, disc, fwd, volcorr, swap_volcorr, paper_literal))
        object.__setattr__(pos, "_compiled", held)
    return held[1], disc, fwd


def _compile_position(pos, disc, fwd, volcorr, swap_volcorr, paper_literal):
    spec = pos.spec
    if pos.kind == "fra":
        return _compile_fra(disc, fwd, spec, volcorr)
    if pos.kind == "swap":
        return _compile_swap(disc, fwd, spec, volcorr)
    if pos.kind == "swaption":
        return _compile_swaption(disc, fwd, spec, swap_volcorr, paper_literal)
    if pos.kind in ("cap", "floor"):
        days = _sched(spec.start.serial, spec.end.serial, pos.tenor_months)
    else:
        days = _serials((spec.start, spec.end))
    return _compile_capfloor(
        disc, fwd, days, spec.strike, spec.omega, spec.notional, volcorr,
        spec.daycount, paper_literal,
    )


class Book:
    """Positions compiled once for one set of pricing settings.

    Calling a book on a curve dict gives its PV, the sum of
    ``price_position`` over the positions in order with the book's
    settings, so a book serves wherever a ``pv_fn`` of the curves does.
    ``gradient`` values it together with its reverse pass: dPV/d ln P at
    every time the book reads on each curve it reads.
    """

    def __init__(
        self,
        positions: list[Position],
        volcorr: VolCorrSpec | None = None,
        swap_volcorr: SwapVolCorrSpec | None = None,
        single_curve: bool = False,
        paper_literal: bool = False,
    ):
        self.positions = list(positions)
        self.settings = (volcorr, swap_volcorr, single_curve, paper_literal)

    def __call__(self, curves: dict[str, YieldCurve]) -> float:
        total = 0.0
        for pos in self.positions:
            total += price_position(pos, curves, *self.settings)[0]
        return total

    def gradient(
        self, curves: dict[str, YieldCurve]
    ) -> tuple[float, dict[str, tuple[LocatedQuery, np.ndarray]]]:
        """(PV, {label: (query, dPV/d ln P at each query time)}).

        Each position's discounting reads go to ``discount`` and its
        forwarding reads to its forwarding label (``discount`` too with
        ``single_curve``); per label, the positions' queries are joined
        into one, located already on that label's curve from the
        positions' own lookups, so chaining it through the curve's
        d ln P/d ln p searches no knot again.  The PV is the book's value
        on ``curves``, the same float as calling the book: each position
        is valued once, and its reverse pass runs on that valuation.
        """
        single_curve = self.settings[2]
        total = 0.0
        parts: dict[str, list] = {}
        for pos in self.positions:
            run, disc, fwd = _compiled(pos, curves, *self.settings)
            pv, _, reverse = run(disc, fwd)
            total += pos.quantity * pv
            (q_d, g_d), (q_f, g_f) = reverse()
            label = "discount" if single_curve else pos.forwarding
            for key, q, g in (("discount", q_d, g_d), (label, q_f, g_f)):
                parts.setdefault(key, []).append((q, pos.quantity * g))
        out = {
            label: (
                LocatedQuery.join([q for q, _ in pairs], curves[label]),
                np.concatenate([g for _, g in pairs]),
            )
            for label, pairs in parts.items()
        }
        return total, out


def price_portfolio(
    positions: list[Position],
    curves: dict[str, YieldCurve],
    **kwargs,
) -> list[dict]:
    rows = []
    for pos in positions:
        pv, fair = price_position(pos, curves, **kwargs)
        rows.append(
            {"instrument_id": pos.id, "kind": pos.kind, "pv": pv, "fair": fair}
        )
    return rows
