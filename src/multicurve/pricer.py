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

Every instrument is compiled before it is valued.  Compiling turns its
dates into ``LocatedQuery`` objects, one on the forwarding curve and
one on the discounting curve (a swap's float and fixed payment dates
share one), and computes its accruals, strikes, adjustments (QA),
variances and drifts, checking the dates on the way.  Valuing reads the
discount factors of each curve through its query and applies the leg
formulas of ``_cashflows`` (simple forward, floating leg, annuity),
which the bootstrap quotes share, so a compiled position costs one
kernel evaluation per curve it reads, some array arithmetic and at
most one Black call.  A caplet is the one-period cap, and a swap values
each of its legs once for both its PV and its par rate.

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

import json
from dataclasses import dataclass, field

import numpy as np

from . import _cashflows
from .curve import LocatedQuery, YieldCurve
from .quanto import SwapVolCorrSpec, VolCorrSpec, quanto_mult, swap_quanto_mult
from .timegrid import Date, DayCount, cached_accruals, cached_schedule, year_fraction

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
    "PRICE_CSV_HEADER",
]

_SQRT_2PI = 2.506628274631000502415765284811

# Hart's double-precision rational approximation of N(-|x|) / exp(-x^2/2):
# numerator and denominator coefficients in ascending powers of |x|
_HART_NUM = np.array([
    220.206867912376, 221.213596169931, 112.079291497871, 33.912866078383,
    6.37396220353165, 0.700383064443688, 3.52624965998911e-02,
])
_HART_DEN = np.array([
    440.413735824752, 793.826512519948, 637.333633378831, 296.564248779674,
    86.7807322029461, 16.064177579207, 1.75566716318264, 8.83883476483184e-02,
])


def norm_cdf(x):
    """Standard normal CDF (Hart rational approximation).

    Accepts scalars or arrays; accurate to better than 1e-15 absolute.
    The rational part is evaluated as two power sums, whose terms are
    all positive, and a continued fraction takes over beyond
    |x| = 10/sqrt(2).
    """
    x = np.asarray(x, dtype=float)
    xa = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(-0.5 * xa * xa)
        powers = np.power.outer(xa, np.arange(8.0))
        num = (powers[..., :7] * _HART_NUM).sum(axis=-1)
        c = e * num / (powers * _HART_DEN).sum(axis=-1)
        tail = xa >= 7.07106781186547
        if tail.any():
            b = xa + 0.65
            b = xa + 4.0 / b
            b = xa + 3.0 / b
            b = xa + 2.0 / b
            b = xa + 1.0 / b
            c = np.where(tail, np.where(xa > 37.0, 0.0, e / (b * _SQRT_2PI)), c)
    out = np.where(x > 0.0, 1.0 - c, c)
    return float(out) if out.ndim == 0 else out


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
    to one value per element; scalars give a float.
    """
    if omega not in (1, -1):
        raise ValueError("omega must be +1 or -1")
    f, k, mu, var = (np.asarray(v, dtype=float) for v in (forward, strike, drift, variance))
    if (f <= 0.0).any() or (k <= 0.0).any():
        raise ValueError("lognormal formula needs positive forward and strike")
    if (var < 0.0).any():
        raise ValueError("variance must be non-negative")
    s = np.log(f / k) + mu
    sd = np.sqrt(var)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_plus = (s + 0.5 * var) / sd
    n_plus, n_minus = norm_cdf(np.stack((omega * d_plus, omega * (d_plus - sd))))
    value = omega * (f * n_plus - k * n_minus)
    intrinsic = np.where(omega * s > 0.0, omega * (f - k), 0.0)
    out = np.where(var == 0.0, intrinsic, value)
    return float(out) if out.ndim == 0 else out


def annuity(curve: YieldCurve, dates: list[Date], daycount: DayCount | None = None) -> float:
    """Sum of discounted accruals over consecutive schedule periods."""
    if len(dates) < 2:
        raise ValueError("annuity needs at least two schedule dates")
    taus = np.array(cached_accruals(tuple(dates), daycount or curve.daycount))
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
        return list(cached_schedule(self.start, self.end, self.float_tenor_months))

    def fixed_schedule(self) -> list[Date]:
        return list(cached_schedule(self.start, self.end, self.fixed_frequency_months))


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
# instrument once and returns ``value(disc, fwd) -> (pv, fair)``, which
# reads only discount factors: one located lookup per curve.  The
# curves passed to ``value`` must share the compiling curves' reference
# dates (and, where the spec leaves it open, the forwarding day count);
# their pillar dates and DFs may differ.

def _period_specs(volcorr, n: int) -> list[tuple[VolCorrSpec, slice | list[int]]]:
    """(spec, period index) pairs covering every period that has a spec.

    ``volcorr`` is None, one spec for all ``n`` periods, or a list with
    one spec (or None) per period.  A list is grouped by spec object, so
    each distinct spec is evaluated in one array call.
    """
    if not isinstance(volcorr, list):
        return [] if volcorr is None else [(volcorr, slice(None))]
    if len(volcorr) != n:
        raise ValueError("need one vol/corr spec per period")
    groups: dict[int, tuple[VolCorrSpec, list[int]]] = {}
    for i, spec in enumerate(volcorr):
        if spec is not None:
            groups.setdefault(id(spec), (spec, []))[1].append(i)
    return list(groups.values())


def _query(curve: YieldCurve, dates) -> LocatedQuery:
    return LocatedQuery(curve.times(dates))


def _compile_fra(disc: YieldCurve, fwd: YieldCurve, spec: FraSpec, volcorr):
    """PV of an FRA and its adjusted forward F * QA."""
    if not spec.start < spec.end:
        raise ValueError("simple forward needs T1 < T2")
    tau = year_fraction(spec.start, spec.end, spec.daycount or fwd.daycount)
    q_f = _query(fwd, (spec.start, spec.end))
    q_d = _query(disc, (spec.end,))
    qa = quanto_mult(volcorr, 0.0, disc.time(spec.start))
    notional, strike = spec.notional, spec.strike

    def value(disc: YieldCurve, fwd: YieldCurve) -> tuple[float, float]:
        p = fwd.discount_time(q_f)
        f_adj = float(_cashflows.simple_forward(p[0], p[1], tau)) * qa
        p_d = float(disc.discount_time(q_d)[0])
        return notional * p_d * tau * (f_adj - strike), f_adj

    return value


def _compile_legs(disc: YieldCurve, fwd: YieldCurve, spec: SwapSpec, volcorr):
    """Adjusted floating-leg PV and fixed annuity, per unit notional.

    Both legs' payment dates form one discount query.
    """
    fdates = cached_schedule(spec.start, spec.end, spec.float_tenor_months)
    xdates = cached_schedule(spec.start, spec.end, spec.fixed_frequency_months)
    n = len(fdates) - 1
    q_f = _query(fwd, fdates)
    q_d = _query(disc, fdates[1:] + xdates[1:])
    taus = np.array(cached_accruals(xdates, spec.daycount_fixed))
    groups = _period_specs(volcorr, n)
    qa = None
    if groups:
        fixings = q_f.t[:-1]
        qa = np.ones(n)
        for vc, idx in groups:
            qa[idx] = np.exp(vc.drift_integral(0.0, fixings[idx]))

    def legs(disc: YieldCurve, fwd: YieldCurve) -> tuple[float, float]:
        p_d = disc.discount_time(q_d)
        return (
            _cashflows.float_leg(p_d[:n], fwd.discount_time(q_f), qa),
            _cashflows.annuity(taus, p_d[n:]),
        )

    return legs


def _compile_swap(disc: YieldCurve, fwd: YieldCurve, spec: SwapSpec, volcorr):
    """PV of the swap and its par rate."""
    legs = _compile_legs(disc, fwd, spec, volcorr)
    sign = 1.0 if spec.payer else -1.0

    def value(disc: YieldCurve, fwd: YieldCurve) -> tuple[float, float]:
        float_pv, a_d = legs(disc, fwd)
        pv = spec.notional * (float_pv - spec.fixed_rate * a_d)
        return sign * pv, float_pv / a_d

    return value


def _compile_capfloor(
    disc: YieldCurve,
    fwd: YieldCurve,
    schedule_dates,
    strike,
    omega: int,
    notional: float,
    volcorr,
    daycount: DayCount | None,
    paper_literal: bool,
):
    """Cap/floor PV over consecutive periods and its unit premium."""
    dates = tuple(schedule_dates)
    n = len(dates) - 1
    if n < 1:
        raise ValueError("cap/floor schedule needs at least one period")
    strikes = np.broadcast_to(np.asarray(strike, dtype=float), (n,))
    groups = _period_specs(volcorr, n)
    t = disc.times(dates)
    if (t[1:] <= t[:-1]).any():
        raise ValueError("cap/floor periods need increasing dates")
    taus = np.array(cached_accruals(dates, daycount or fwd.daycount))
    q_f = _query(fwd, dates)
    q_d = LocatedQuery(t[1:])
    t_fix = t[:-1]
    qa, variance, mu = np.ones(n), np.zeros(n), np.zeros(n)
    for spec, idx in groups:
        drift = spec.drift_integral(0.0, t_fix[idx])
        qa[idx] = np.exp(drift)
        variance[idx] = spec.variance_integral(0.0, t_fix[idx])
        if paper_literal:
            mu[idx] = drift

    def value(disc: YieldCurve, fwd: YieldCurve) -> tuple[float, float]:
        p_f = fwd.discount_time(q_f)
        forwards = _cashflows.simple_forward(p_f[:-1], p_f[1:], taus)
        kernel = black(forwards * qa, strikes, mu, variance, omega)
        pv = float(np.sum(notional * disc.discount_time(q_d) * taus * kernel))
        return pv, pv / notional

    return value


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
    legs = _compile_legs(disc, fwd, swap, None)
    qa = swap_quanto_mult(volcorr, 0.0, t_exp)
    variance = volcorr.variance_integral(0.0, t_exp) if volcorr else 0.0
    mu = volcorr.drift_integral(0.0, t_exp) if (paper_literal and volcorr) else 0.0
    omega = 1 if swap.payer else -1

    def value(disc: YieldCurve, fwd: YieldCurve) -> tuple[float, float]:
        float_pv, a_d = legs(disc, fwd)
        kernel = black(float_pv / a_d * qa, swap.fixed_rate, mu, variance, omega)
        pv = swap.notional * a_d * kernel
        return pv, pv / swap.notional

    return value


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
    sequences with one entry per period.  The periods are valued as
    arrays: one discount lookup per curve, one adjustment and variance
    call per distinct spec and one Black call.
    """
    value = _compile_capfloor(
        disc, fwd, schedule_dates, strike, omega, notional, volcorr, daycount,
        paper_literal,
    )
    return value(disc, fwd)[0]


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


def _parse_one(i: int, row: dict) -> Position:
    kind = row["kind"]
    pid = str(row.get("id", f"pos{i}"))
    fwd_label = row.get("forwarding", "discount")
    qty = float(row.get("quantity", 1.0))
    notional = float(row.get("notional", 1.0))
    start = Date.parse(row["start"])
    end = Date.parse(row["end"])
    if kind == "fra":
        dc = DayCount(row["daycount"]) if "daycount" in row else None
        spec = FraSpec(start, end, float(row["strike"]), notional, dc)
        return Position(pid, kind, fwd_label, spec, qty)
    if kind in ("swap", "swaption"):
        spec = SwapSpec(
            start=start,
            end=end,
            fixed_rate=float(row["fixed_rate" if kind == "swap" else "strike"]),
            notional=notional,
            payer=bool(row.get("payer", True)),
            float_tenor_months=int(row.get("float_tenor_months", 6)),
            fixed_frequency_months=int(row.get("fixed_freq_months", 12)),
            daycount_float=DayCount(row.get("daycount_float", "ACT_360")),
            daycount_fixed=DayCount(row.get("daycount_fixed", "THIRTY_360")),
        )
        return Position(pid, kind, fwd_label, spec, qty)
    if kind in ("caplet", "floorlet"):
        dc = DayCount(row["daycount"]) if "daycount" in row else None
        spec = OptionSpec(
            start, end, float(row["strike"]),
            1 if kind == "caplet" else -1, notional, dc,
        )
        return Position(pid, kind, fwd_label, spec, qty)
    if kind in ("cap", "floor"):
        dc = DayCount(row["daycount"]) if "daycount" in row else None
        spec = OptionSpec(
            start, end, float(row["strike"]),
            1 if kind == "cap" else -1, notional, dc,
        )
        return Position(
            pid, kind, fwd_label, spec, qty,
            tenor_months=int(row.get("tenor_months", 6)),
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
    pv, fair = held[1](disc, fwd)
    return pos.quantity * pv, fair


def _compile_position(pos, disc, fwd, volcorr, swap_volcorr, paper_literal):
    spec = pos.spec
    if pos.kind == "fra":
        return _compile_fra(disc, fwd, spec, volcorr)
    if pos.kind == "swap":
        return _compile_swap(disc, fwd, spec, volcorr)
    if pos.kind == "swaption":
        return _compile_swaption(disc, fwd, spec, swap_volcorr, paper_literal)
    if pos.kind in ("cap", "floor"):
        dates = cached_schedule(spec.start, spec.end, pos.tenor_months)
    else:
        dates = (spec.start, spec.end)
    return _compile_capfloor(
        disc, fwd, dates, spec.strike, spec.omega, spec.notional, volcorr,
        spec.daycount, paper_literal,
    )


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
