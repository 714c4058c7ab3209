"""Independent reference implementations used to cross-check the engine.

Everything here is written from first principles with a different
numerical route than the package (error functions instead of the
rational CDF approximation, adaptive quadrature instead of closed-form
segment sums, telescoping single-curve formulas instead of the dual
curve machinery).  Tests treat these as oracles and compare the engine
against them.
"""

import calendar
import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from multicurve import (
    BootstrapConfig,
    BootstrapError,
    Date,
    DayCount,
    DeltaEntry,
    HedgeRow,
    InstrumentKind,
    YieldCurve,
    bump_quote,
    generate_schedule,
    hedged_pv_fn,
    instrument_pv,
    quote_fingerprint,
    repricing_errors,
    select_pillar_instruments,
    year_fraction,
)
from multicurve import _kernels
from multicurve.bootstrap import _OWN, _Reads, _compile_quote
from multicurve.risk import pricing_curves


def norm_cdf_erfc(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_reference(forward, strike, drift, variance, omega):
    """Undiscounted Black price, recomputed with the erfc-based CDF.

    Mirrors the engine's kernel convention: the drift shifts the d+-
    terms only and does not scale the forward, so with nonzero drift
    this is not an expectation of a positive payoff.
    """
    if variance == 0.0:
        s = math.log(forward / strike) + drift
        return omega * (forward - strike) if omega * s > 0.0 else 0.0
    sd = math.sqrt(variance)
    d1 = (math.log(forward / strike) + drift + 0.5 * variance) / sd
    d2 = d1 - sd
    return omega * (
        forward * norm_cdf_erfc(omega * d1) - strike * norm_cdf_erfc(omega * d2)
    )


def black_quadrature(forward, strike, variance, omega):
    """Expected payoff under the lognormal terminal density, by quadrature.

    The terminal rate is F*exp(-variance/2 + sqrt(variance)*z) with z
    standard normal; the payoff max(omega*(rate - strike), 0) is
    integrated against the normal density over the in-the-money region.
    Matches the engine kernel only at zero drift, which is the engine's
    pricing convention (adjustments are applied to the forward).
    """
    sd = math.sqrt(variance)
    # payoff kink: rate == strike
    z_star = (math.log(strike / forward) + 0.5 * variance) / sd

    def integrand(z):
        rate = forward * math.exp(-0.5 * variance + sd * z)
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return max(omega * (rate - strike), 0.0) * pdf

    lo, hi = (z_star, z_star + 40.0) if omega > 0 else (z_star - 40.0, z_star)
    value, _ = quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    return value


def drift_quadrature(spec, a: float, b: float) -> float:
    """Adaptive quadrature of -sigma_f*sigma_X*rho over [a, b]."""

    def integrand(t):
        i = 0
        while i < len(spec.breakpoints) and t >= spec.breakpoints[i]:
            i += 1
        return -spec.sigma_f[i] * spec.sigma_x[i] * spec.rho[i]

    pts = [p for p in spec.breakpoints if a < p < b]
    with warnings.catch_warnings():
        # the requested tolerance sits at roundoff level by design
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(
            integrand, a, b, points=pts or None, epsabs=1e-15, epsrel=1e-13, limit=400
        )
    return value


def single_curve_swap_pv(curve, start, end, fixed_rate, notional, payer,
                         float_months=6, fixed_months=12,
                         fixed_daycount=DayCount.THIRTY_360):
    """Telescoped single-curve payer swap PV.

    With one curve for forwarding and discounting the float leg
    collapses to P(start) - P(end); no forward ratios are needed.
    """
    from multicurve import generate_schedule

    float_pv = curve.discount(start) - curve.discount(end)
    ann = 0.0
    sched = generate_schedule(start, end, fixed_months)
    for a, b in zip(sched[:-1], sched[1:]):
        ann += year_fraction(a, b, fixed_daycount) * curve.discount(b)
    pv = float_pv - fixed_rate * ann
    return (pv if payer else -pv) * notional


def single_curve_fra_pv(curve, start, end, strike, notional,
                        daycount=DayCount.ACT_360):
    """Single-curve FRA PV: the forward comes from the discount ratios."""
    tau = year_fraction(start, end, daycount)
    fwd = (curve.discount(start) / curve.discount(end) - 1.0) / tau
    return notional * curve.discount(end) * tau * (fwd - strike)


def single_curve_caplet_pv(curve, start, end, strike, omega, notional,
                           variance, daycount=DayCount.ACT_360):
    """Single-curve caplet/floorlet via the reference Black formula."""
    tau = year_fraction(start, end, daycount)
    fwd = (curve.discount(start) / curve.discount(end) - 1.0) / tau
    price = black_reference(fwd, strike, 0.0, variance, omega)
    return notional * curve.discount(end) * tau * price


def flat_curve(reference: Date, rate: float, years: int = 40):
    """Deterministic continuously-compounded flat curve for fixtures."""
    from multicurve import YieldCurve

    dates = [reference.add_days(365 * k) for k in range(1, years + 1)]
    pillars = [(d, math.exp(-rate * (d.serial - reference.serial) / 365.0))
               for d in dates]
    return YieldCurve(reference, pillars)


# ---------------------------------------------------------------------------
# reference forms of the kernels and the cubic slopes
# ---------------------------------------------------------------------------
# The package evaluates these on every discount-factor lookup and every
# bootstrap residual, so it carries leaner forms, split into a locate
# and an evaluate step, that must agree bit for bit.  These are the
# plain single-pass transcriptions kept as the yardstick.

def reference_eval_log_cubic(t, ts, dfs, lnp, drv):
    """Cubic Hermite on log-discount, knots returned exactly, flat-forward
    extrapolation past the last knot."""
    import numpy as np

    t = np.ascontiguousarray(t, dtype=np.float64)
    m = ts.shape[0]
    j = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, m - 2)
    h = ts[j + 1] - ts[j]
    s = (t - ts[j]) / h
    u = 1.0 - s
    h00 = (1.0 + 2.0 * s) * u * u
    h10 = s * u * u
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    y = h00 * lnp[j] + h * h10 * drv[j] + h01 * lnp[j + 1] + h * h11 * drv[j + 1]
    ext = t > ts[-1]
    if np.any(ext):
        y[ext] = lnp[-1] + drv[-1] * (t[ext] - ts[-1])
    out = np.exp(y)
    k = np.searchsorted(ts, t, side="left")
    kc = np.minimum(k, ts.shape[0] - 1)
    hit = ts[kc] == t
    if np.any(hit):
        out[hit] = dfs[kc[hit]]
    return out


def _reference_locate(t, ts):
    t = np.ascontiguousarray(t, dtype=np.float64)
    lo = np.maximum(np.searchsorted(ts, t, side="right") - 1, 0)
    return t, lo, np.minimum(lo, ts.shape[0] - 2)


def _reference_finish(y, t, ts, dfs, lo):
    out = np.exp(y)
    hit = ts[lo] == t
    if hit.any():
        out[hit] = dfs[lo[hit]]
    return out


def reference_eval_log_linear(t, ts, dfs, lnp):
    """Linear in log-discount; the last segment's slope extrapolates."""
    t, lo, j = _reference_locate(t, ts)
    slope = (lnp[j + 1] - lnp[j]) / (ts[j + 1] - ts[j])
    y = lnp[j] + slope * (t - ts[j])
    ext = t > ts[-1]
    if ext.any():
        slope_end = (lnp[-1] - lnp[-2]) / (ts[-1] - ts[-2])
        y[ext] = lnp[-1] + slope_end * (t[ext] - ts[-1])
    return _reference_finish(y, t, ts, dfs, lo)


def reference_eval_linear_zero(t, ts, dfs, zr):
    """Linear in zero rate; past the last knot the instantaneous forward
    of the last segment is frozen."""
    t, lo, j = _reference_locate(t, ts)
    slope = (zr[j + 1] - zr[j]) / (ts[j + 1] - ts[j])
    z = zr[j] + slope * (t - ts[j])
    y = -z * t
    ext = t > ts[-1]
    if ext.any():
        slope_end = (zr[-1] - zr[-2]) / (ts[-1] - ts[-2])
        f_end = zr[-1] + ts[-1] * slope_end
        y[ext] = -zr[-1] * ts[-1] - f_end * (t[ext] - ts[-1])
    return _reference_finish(y, t, ts, dfs, lo)


def _reference_edge_slope(h0, h1, m0, m1):
    import numpy as np

    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return float(d)


def reference_monotone_cubic_slopes(ts, ys):
    """Fritsch-Carlson node derivatives with limited one-sided ends."""
    import numpy as np

    n = ts.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    h = np.diff(ts)
    m = np.diff(ys) / h
    if n == 2:
        return np.array([m[0], m[0]])
    d = np.zeros(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        hm = (w1 + w2) / (w1 / m[:-1] + w2 / m[1:])
    d[1:-1] = np.where(m[:-1] * m[1:] > 0.0, hm, 0.0)
    d[0] = _reference_edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _reference_edge_slope(h[-1], h[-2], m[-1], m[-2])
    return d


# ---------------------------------------------------------------------------
# per-period reference forms of the pricer
# ---------------------------------------------------------------------------
# The package values cap/floor periods and floating legs as arrays and
# takes every adjustment integral from a running integral.  These are
# the earlier forms (a fresh segment cut per integral, one caplet and
# one adjustment at a time) kept as the yardstick.

def _reference_segment_values(breakpoints, values, a, b):
    """Cut [a, b] at the breakpoints and pair sub-intervals with values."""
    import numpy as np

    bp = np.asarray(breakpoints, dtype=float)
    inner = bp[(bp > a) & (bp < b)]
    edges = np.concatenate(([a], inner, [b]))
    idx = np.searchsorted(bp, edges[:-1], side="right")
    vals = np.asarray(values, dtype=float)[idx]
    return edges, vals


def reference_product_integral(breakpoints, v1, v2, corr, a, b):
    """Integral of v1 * v2 * corr over [a, b] as a sum over the cut segments."""
    import numpy as np

    if a == b:
        return 0.0
    edges, x1 = _reference_segment_values(breakpoints, v1, a, b)
    _, x2 = _reference_segment_values(breakpoints, v2, a, b)
    _, xr = _reference_segment_values(breakpoints, corr, a, b)
    return float(np.sum(x1 * x2 * xr * np.diff(edges)))


def reference_drift(spec, a, b):
    return -reference_product_integral(
        spec.breakpoints, spec.sigma_f, spec.sigma_x, spec.rho, a, b
    )


def reference_variance(spec, a, b):
    return reference_product_integral(
        spec.breakpoints, spec.sigma_f, spec.sigma_f, [1.0] * len(spec.sigma_f), a, b
    )


def reference_float_leg_coupons(fwd, dates, specs):
    """tau_f * F_f * QA per floating period, one adjustment at a time."""
    coupons = []
    for d0, d1, spec in zip(dates[:-1], dates[1:], specs):
        coupon = fwd.discount(d0) / fwd.discount(d1) - 1.0
        if spec is not None:
            coupon *= math.exp(reference_drift(spec, 0.0, fwd.time(d0)))
        coupons.append(coupon)
    return coupons


def reference_capfloor(disc, fwd, dates, strikes, omega, notional, specs,
                       daycount=None, paper_literal=False):
    """Cap/floor as a sum of caplets priced one period at a time.

    Uses the engine's scalar Black kernel, which is checked against
    ``black_reference`` on its own.
    """
    from multicurve import black

    total = 0.0
    for d0, d1, strike, spec in zip(dates[:-1], dates[1:], strikes, specs):
        dc = daycount or fwd.daycount
        tau = year_fraction(d0, d1, dc)
        f = fwd.simple_forward(d0, d1, dc)
        t_fix = disc.time(d0)
        qa, variance, mu = 1.0, 0.0, 0.0
        if spec is not None:
            drift = reference_drift(spec, 0.0, t_fix)
            qa = math.exp(drift)
            variance = reference_variance(spec, 0.0, t_fix)
            mu = drift if paper_literal else 0.0
        kernel = black(f * qa, strike, mu, variance, omega)
        total += notional * disc.discount(d1) * tau * kernel
    return total


# ---------------------------------------------------------------------------
# the pricer on dates: the reference for compiled positions
# ---------------------------------------------------------------------------
# multicurve.pricer compiles each position once onto located curve
# queries.  This is the former pricer, which converted every date and
# took every adjustment afresh on each valuation, kept as the yardstick.

def _reference_period_specs(volcorr, n):
    if not isinstance(volcorr, list):
        return [] if volcorr is None else [(volcorr, slice(None))]
    if len(volcorr) != n:
        raise ValueError("need one vol/corr spec per period")
    groups = {}
    for i, spec in enumerate(volcorr):
        if spec is not None:
            groups.setdefault(id(spec), (spec, []))[1].append(i)
    return list(groups.values())


def _reference_swap_legs(disc, fwd, spec, volcorr):
    """Adjusted floating-leg PV and fixed annuity, per unit notional."""
    from multicurve import annuity

    fdates = spec.float_schedule()
    p = np.atleast_1d(fwd.discount(fdates))
    coupons = p[:-1] / p[1:] - 1.0
    groups = _reference_period_specs(volcorr, len(coupons))
    if groups:
        fixings = fwd.times(fdates[:-1])
        qa = np.ones_like(coupons)
        for vc, idx in groups:
            qa[idx] = np.exp(vc.drift_integral(0.0, fixings[idx]))
        coupons = coupons * qa
    float_pv = float(np.dot(disc.discount(fdates[1:]), coupons))
    return float_pv, annuity(disc, spec.fixed_schedule(), spec.daycount_fixed)


def _reference_array_capfloor(disc, fwd, dates, strike, omega, notional,
                              volcorr, daycount, paper_literal):
    """Cap/floor periods as arrays, every date looked up on the call."""
    from multicurve import black

    dates = tuple(dates)
    n = len(dates) - 1
    if n < 1:
        raise ValueError("cap/floor schedule needs at least one period")
    strikes = np.broadcast_to(np.asarray(strike, dtype=float), (n,))
    groups = _reference_period_specs(volcorr, n)
    t = disc.times(dates)
    if (t[1:] <= t[:-1]).any():
        raise ValueError("cap/floor periods need increasing dates")
    dc = daycount or fwd.daycount
    taus = np.array([year_fraction(a, b, dc) for a, b in zip(dates[:-1], dates[1:])])
    p_f = fwd.discount(dates)
    p_d = disc.discount_time(t[1:])
    forwards = (p_f[:-1] - p_f[1:]) / (taus * p_f[1:])
    qa, variance, mu = np.ones(n), np.zeros(n), np.zeros(n)
    for spec, idx in groups:
        drift = spec.drift_integral(0.0, t[:-1][idx])
        qa[idx] = np.exp(drift)
        variance[idx] = spec.variance_integral(0.0, t[:-1][idx])
        if paper_literal:
            mu[idx] = drift
    kernel = black(forwards * qa, strikes, mu, variance, omega)
    return float(np.sum(notional * p_d * taus * kernel))


def reference_price_position(pos, curves, volcorr=None, swap_volcorr=None,
                             single_curve=False, paper_literal=False):
    """(pv, fair rate or unit premium) of one position, from its dates."""
    from multicurve import black, quanto_mult, swap_quanto_mult

    disc = curves["discount"]
    fwd = disc if single_curve else curves[pos.forwarding]
    s = pos.spec
    if pos.kind == "fra":
        dc = s.daycount or fwd.daycount
        tau = year_fraction(s.start, s.end, dc)
        fair = fwd.simple_forward(s.start, s.end, dc) * quanto_mult(
            volcorr, 0.0, disc.time(s.start)
        )
        pv = s.notional * disc.discount(s.end) * tau * (fair - s.strike)
    elif pos.kind == "swap":
        float_pv, a_d = _reference_swap_legs(disc, fwd, s, volcorr)
        pv = s.notional * (float_pv - s.fixed_rate * a_d)
        pv = pv if s.payer else -pv
        fair = float_pv / a_d
    elif pos.kind == "swaption":
        t_exp = disc.time(s.start)
        if t_exp <= 0.0:
            raise ValueError("swaption expiry must lie after the reference date")
        float_pv, a_d = _reference_swap_legs(disc, fwd, s, None)
        vc = swap_volcorr
        qa = swap_quanto_mult(vc, 0.0, t_exp)
        variance = vc.variance_integral(0.0, t_exp) if vc else 0.0
        mu = vc.drift_integral(0.0, t_exp) if (paper_literal and vc) else 0.0
        omega = 1 if s.payer else -1
        pv = s.notional * a_d * black(float_pv / a_d * qa, s.fixed_rate, mu, variance, omega)
        fair = pv / s.notional
    else:
        if pos.kind in ("cap", "floor"):
            dates = generate_schedule(s.start, s.end, pos.tenor_months)
        else:
            dates = [s.start, s.end]
        pv = _reference_array_capfloor(
            disc, fwd, dates, s.strike, s.omega, s.notional, volcorr,
            s.daycount, paper_literal,
        )
        fair = pv / s.notional
    return pos.quantity * pv, fair


# ---------------------------------------------------------------------------
# quote pricing on dates, leg by leg: the reference for the quote
# arithmetic that multicurve.bootstrap compiles onto kernel times
# ---------------------------------------------------------------------------

def _reference_leg_pv(curve, disc, dates):
    """Floating leg PV per unit notional: sum P_d(t_i) (P_f ratio - 1)."""
    pf = np.atleast_1d(curve.discount(dates))
    pd_ = np.atleast_1d(disc.discount(dates[1:]))
    return float(np.dot(pd_, pf[:-1] / pf[1:] - 1.0))


def _reference_annuity(disc, dates, dc):
    taus = np.array([year_fraction(a, b, dc) for a, b in zip(dates[:-1], dates[1:])])
    pd_ = np.atleast_1d(disc.discount(dates[1:]))
    return float(np.dot(taus, pd_))


def _reference_leg_curve(q, months, target, companions):
    if months == q.underlying_tenor:
        return target
    if companions and months in companions:
        return companions[months]
    raise BootstrapError(f"basis swap leg needs a companion curve for the {months}M tenor")


def reference_fair_quote(q, target, discounting=None, companions=None):
    """Model value of the quote in quote units, priced leg by leg on dates."""
    disc = discounting or target
    k = q.kind
    if k in (InstrumentKind.DEPOSIT, InstrumentKind.FRA):
        return target.simple_forward(q.start, q.end, q.daycount)
    if k is InstrumentKind.FUTURES:
        f = target.simple_forward(q.start, q.end, q.daycount)
        return 100.0 * (1.0 - (f + q.convexity))
    if k is InstrumentKind.SWAP:
        float_pv = _reference_leg_pv(
            target, disc, generate_schedule(q.start, q.end, q.underlying_tenor)
        )
        fixed = generate_schedule(q.start, q.end, q.fixed_frequency)
        return float_pv / _reference_annuity(disc, fixed, q.daycount)
    if k is InstrumentKind.OIS:
        p = np.atleast_1d(disc.discount([q.start, q.end]))
        fixed = generate_schedule(q.start, q.end, q.fixed_frequency)
        return float(p[0] - p[1]) / _reference_annuity(disc, fixed, q.daycount)
    if k is InstrumentKind.BASIS_SWAP:
        short_m, long_m = sorted((q.underlying_tenor, q.second_tenor))
        short = generate_schedule(q.start, q.end, short_m)
        long_ = generate_schedule(q.start, q.end, long_m)
        pv_short = _reference_leg_pv(
            _reference_leg_curve(q, short_m, target, companions), disc, short
        )
        pv_long = _reference_leg_pv(
            _reference_leg_curve(q, long_m, target, companions), disc, long_
        )
        return (pv_long - pv_short) / _reference_annuity(disc, short, q.float_daycount)
    raise ValueError(f"unknown instrument kind {k!r}")


def reference_instrument_pv(q, contract_quote, target, discounting=None,
                            companions=None, notional=1.0):
    """PV of a payer position: FRA-style settlement for money-market
    quotes, (par - contract) times the fixed or spread annuity otherwise."""
    disc = discounting or target
    k = q.kind
    if k in (InstrumentKind.DEPOSIT, InstrumentKind.FRA, InstrumentKind.FUTURES):
        f = target.simple_forward(q.start, q.end, q.daycount)
        if k is InstrumentKind.FUTURES:
            strike = (100.0 - contract_quote) / 100.0 - q.convexity
        else:
            strike = contract_quote
        tau = year_fraction(q.start, q.end, q.daycount)
        return notional * disc.discount(q.end) * tau * (f - strike)
    par = reference_fair_quote(q, target, discounting, companions)
    if k in (InstrumentKind.SWAP, InstrumentKind.OIS):
        dates = generate_schedule(q.start, q.end, q.fixed_frequency)
        ann = _reference_annuity(disc, dates, q.daycount)
    else:
        dates = generate_schedule(q.start, q.end, min(q.underlying_tenor, q.second_tenor))
        ann = _reference_annuity(disc, dates, q.float_daycount)
    return notional * (par - contract_quote) * ann


def reference_repricing_errors(quotes, target, discounting=None, companions=None):
    """Fair-minus-quote per instrument, futures in rate space."""
    out = np.empty(len(quotes))
    for i, q in enumerate(quotes):
        if q.kind is InstrumentKind.FUTURES:
            out[i] = target.simple_forward(q.start, q.end, q.daycount) - q.implied_rate()
        else:
            out[i] = reference_fair_quote(q, target, discounting, companions) - q.quote
    return out


# ---------------------------------------------------------------------------
# calendar arithmetic date by date: the reference for the array month
# roll in multicurve.timegrid and the serial-day basis tables
# ---------------------------------------------------------------------------

def reference_add_months(date, months):
    """Shift by whole months, clamping the day with ``calendar.monthrange``."""
    month_index = date.year * 12 + (date.month - 1) + months
    year, month = divmod(month_index, 12)
    month += 1
    day = min(date.day, calendar.monthrange(year, month)[1])
    return Date.of(year, month, day)


def reference_basis_term_structure(fwd, disc, tenor_months, stride_days=1):
    """Rolling basis samples built date by date: (start dates, end dates,
    multiplicative basis, additive basis, discounting forward)."""
    ref = fwd.reference_date
    last = min(fwd.pillar_dates[-1], disc.pillar_dates[-1])
    anchor = reference_add_months(last, -tenor_months)
    starts = [Date(s) for s in range(ref.serial, anchor.serial + 1, stride_days)]
    ends = [reference_add_months(d, tenor_months) for d in starts]
    pf1, pf2 = fwd.discount(starts), fwd.discount(ends)
    pd1, pd2 = disc.discount(starts), disc.discount(ends)
    if disc.daycount is DayCount.THIRTY_360:
        tau_d = np.array([year_fraction(a, b, disc.daycount) for a, b in zip(starts, ends)])
    else:
        days = np.array([b.serial - a.serial for a, b in zip(starts, ends)], dtype=float)
        tau_d = days / (360.0 if disc.daycount is DayCount.ACT_360 else 365.0)
    denom = pd1 - pd2
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.where(denom != 0.0, (pd2 / pf2) * (pf1 - pf2) / denom, np.nan)
        add = (pf1 / pf2 - pd1 / pd2) / tau_d
        fwd_d = denom / (tau_d * pd2)
    return starts, ends, mult, add, fwd_d


# ---------------------------------------------------------------------------
# pillar-by-pillar bootstrap: the reference for the Newton solve
# ---------------------------------------------------------------------------
# Each pillar discount factor is root-found alone by brentq, from a
# narrow bracket around its current value that widens 64-fold up to
# df_bracket; Gauss-Seidel sweeps repeat the pass while some quote
# misses by more than the tolerance.  Converges only linearly on the
# semi-local monotone cubic, hence ``max_sweeps``.

class _ReferenceWorkspace:
    """Pillar discount factors evaluated through the package kernels,
    knot data refreshed after each change."""

    def __init__(self, ts, dfs, scheme):
        self.ts, self.dfs, self.scheme = ts, dfs, scheme
        self.stale = True

    def set_df(self, i, df):
        self.dfs[i + 1] = df
        self.stale = True

    def df(self, t):
        if self.stale:
            self.lnp = np.log(self.dfs)
            self.aux = _kernels.knot_data(self.scheme, self.ts, self.lnp)
            self.stale = False
        return _kernels.evaluate(self.scheme, t, self.ts, self.dfs, self.lnp, self.aux)


def reference_bootstrap_curve(quotes, config=None, discount_curve=None,
                              companions=None, reference_date=None,
                              tenor_label="custom", start_curve=None,
                              max_sweeps=8):
    """``bootstrap_curve`` by brentq per pillar and Gauss-Seidel sweeps,
    seeded the same way; raises ``BootstrapError`` when a pillar has no
    root in ``df_bracket`` or the quotes still miss after the sweeps."""
    cfg = config or BootstrapConfig()
    chosen = select_pillar_instruments(quotes)
    ref = reference_date or min(q.start for q in chosen)
    pillar_dates = [q.end for q in chosen]
    ts = np.array([0.0] + [(d.serial - ref.serial) / 365.0 for d in pillar_dates])
    source = start_curve if start_curve is not None else discount_curve
    if source is not None:
        seed = source.discount(pillar_dates)
    else:
        seed = np.exp(-np.array([q.implied_rate() for q in chosen]) * ts[1:])
    ws = _ReferenceWorkspace(ts, np.concatenate(([1.0], seed)), cfg.interpolation)

    def compiled(q):
        # each quote reads its own times of the solved curve through the
        # workspace; sealing reads the fixed curves once
        reads = _Reads(ref, discount_curve, companions)
        fair = _compile_quote(q, reads)[0]
        reads.seal()

        def value():
            if _OWN in reads.queries:
                reads.p[_OWN] = ws.df(reads.queries[_OWN].t)
            return fair(reads.p)

        return value

    fairs = [compiled(q) for q in chosen]
    rates = [q.implied_rate() for q in chosen]
    lo, hi = cfg.df_bracket
    rtol = 4 * np.finfo(float).eps

    def solve(i):
        def f(df):
            ws.set_df(i, df)
            return fairs[i]() - rates[i]

        x = min(max(float(ws.dfs[i + 1]), lo), hi)
        width = 1e-6
        while True:
            a, b = max(lo, x * (1.0 - width)), min(hi, x * (1.0 + width))
            try:
                root = brentq(f, a, b, xtol=1e-15, rtol=rtol,
                              maxiter=cfg.max_iterations)
                break
            except (ValueError, ZeroDivisionError) as exc:
                if isinstance(exc, ValueError) and (a, b) != (lo, hi):
                    width *= 64.0
                    continue
                raise BootstrapError(
                    f"pillar {pillar_dates[i].iso()} failed to solve: {exc}"
                ) from exc
        ws.set_df(i, float(root))

    for sweep in range(max_sweeps + 1):
        if sweep and max(
            abs(fair() - rate) for fair, rate in zip(fairs, rates)
        ) <= cfg.tolerance:
            break
        for i in range(len(chosen)):
            solve(i)

    curve = YieldCurve(
        ref, list(zip(pillar_dates, ws.dfs[1:].tolist())),
        cfg.interpolation, cfg.daycount, tenor_label,
    )
    worst = np.max(np.abs(repricing_errors(chosen, curve, discount_curve, companions)))
    if worst > cfg.tolerance:
        raise BootstrapError(
            f"residual {worst:.3e} above tolerance {cfg.tolerance:g} "
            f"after {max_sweeps} sweeps"
        )
    return curve


# ---------------------------------------------------------------------------
# quote Jacobian column by column through ``repricing_errors``
# ---------------------------------------------------------------------------

def reference_quote_jacobian(state):
    """J = dR/d ln p of ``state`` with every column recompiling the quotes
    of the moved curve and of the curves priced against it, through the
    public ``repricing_errors``; same steps and arithmetic as
    ``MarketState``, so the two agree bit for bit."""
    base = state.base_curves()
    chosen, span, n = {}, {}, 0
    for label in state.build_order:
        chosen[label] = select_pillar_instruments(state.quote_sets[label])
        span[label] = slice(n, n + len(chosen[label]))
        n = span[label].stop

    def residuals(label, curves):
        return repricing_errors(
            chosen[label], curves[label], *pricing_curves(label, curves)
        )

    at_base = {label: residuals(label, base) for label in state.build_order}
    matrix = np.zeros((n, n))
    with np.errstate(all="ignore"):
        for col, (label, curves, step) in enumerate(state._moved_sets()):
            for m in state.build_order:
                if m == label or label in state._deps[m]:
                    moved = residuals(m, curves) - at_base[m]
                    matrix[span[m], col] = moved / step
    return matrix


# ---------------------------------------------------------------------------
# bump-and-rebuild quote risk
# ---------------------------------------------------------------------------
# Central differences of full rebuilds through the public
# ``MarketState.build``: each quote moves up and down by ``bump`` in rate
# space, the curves downwind of it re-bootstrap, and the book reprices.
# A rebuild that fails gives a NaN delta with the error recorded.

def memoised_build(state):
    """``state.build`` that builds each distinct overrides set once and
    raises the same ``BootstrapError`` again for a set that failed."""
    built = {}

    def build(overrides):
        key = frozenset(overrides.items())
        if key not in built:
            try:
                built[key] = state.build(overrides)
            except BootstrapError as exc:
                built[key] = exc
        if isinstance(built[key], BootstrapError):
            raise built[key]
        return built[key]

    return build


def reference_delta_ladder(state, pv_fn, bump=1e-4, build=None):
    """Quote deltas per bp of ``pv_fn``; quotes sharing a fingerprint
    move together and give one entry, in ``delta_ladder``'s order."""
    build = build or state.build
    groups = {}
    for label in state.build_order:
        for i, q in enumerate(state.quote_sets[label]):
            groups.setdefault(quote_fingerprint(q), []).append((label, i))
    entries = []
    for locs in groups.values():
        label0, idx0 = locs[0]
        q = state.quote_sets[label0][idx0]
        err = None
        try:
            up = pv_fn(build({loc: bump_quote(q, bump) for loc in locs}))
            down = pv_fn(build({loc: bump_quote(q, -bump) for loc in locs}))
            delta = (up - down) * 1e-4 / (2.0 * bump)
        except BootstrapError as exc:
            delta = math.nan
            err = str(exc)
        entries.append(DeltaEntry(
            locations=tuple(locs), quote=q, pillar_date=q.end,
            time=state.time(q.end), market_rate=q.implied_rate(),
            delta_per_bp=delta, shared=len(locs) > 1, error=err,
        ))
    return entries


def reference_hedge_ratios(state, pv_fn, hedge_locations, bump=1e-4, build=None):
    """Hedge rows whose own and book deltas both come from bumping the
    hedge's quote alone and rebuilding."""
    build = build or state.build
    scale = 1e-4 / (2.0 * bump)
    rows = []
    for label, idx in hedge_locations:
        q = state.quote_sets[label][idx]
        up = build({(label, idx): bump_quote(q, bump)})
        down = build({(label, idx): bump_quote(q, -bump)})

        def unit(curves):
            disc, companions = pricing_curves(label, curves)
            return instrument_pv(q, q.quote, curves[label], disc, companions)

        own = (unit(up) - unit(down)) * scale
        if own == 0.0:
            raise ValueError(f"hedge {label}[{idx}] has no sensitivity to its own quote")
        book = (pv_fn(up) - pv_fn(down)) * scale
        rows.append(HedgeRow(label, idx, q, own, book, book / own))
    return rows


def reference_hedged_residual_ladder(state, pv_fn, rows, bump=1e-4, build=None):
    """Bump-and-rebuild ladder of the book net of its hedges."""
    return reference_delta_ladder(state, hedged_pv_fn(pv_fn, rows), bump, build)
