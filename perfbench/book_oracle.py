"""Independent position pricing used to check the ``book`` workload.

Every formula is written out as a plain per-period loop over scalar
``YieldCurve.discount`` lookups, with the Black kernel built on
``math.erfc`` instead of the engine's rational CDF approximation and
the flat vol/correlation adjustments taken in closed form.  Only the
schedule dates and day counts come from the engine's date layer.
"""

from __future__ import annotations

import math

from multicurve import generate_schedule, year_fraction


def _ncdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _black(forward, strike, variance, omega):
    if variance == 0.0:
        return max(omega * (forward - strike), 0.0)
    sd = math.sqrt(variance)
    d1 = (math.log(forward / strike) + 0.5 * variance) / sd
    return omega * (forward * _ncdf(omega * d1) - strike * _ncdf(omega * (d1 - sd)))


def _t(curve, d) -> float:
    return (d.serial - curve.reference_date.serial) / 365.0


def _fwd(fwd, a, b, dc) -> tuple[float, float]:
    tau = year_fraction(a, b, dc)
    pa, pb = fwd.discount(a), fwd.discount(b)
    return tau, (pa - pb) / (tau * pb)


def _annuity(disc, dates, dc) -> float:
    return sum(
        year_fraction(a, b, dc) * disc.discount(b) for a, b in zip(dates[:-1], dates[1:])
    )


def _caplet(disc, fwd, a, b, strike, omega, notional, dc, vc) -> float:
    tau, f = _fwd(fwd, a, b, dc)
    t_fix = _t(disc, a)
    sf, sx, rho = vc.sigma_f[0], vc.sigma_x[0], vc.rho[0]
    qa = math.exp(-sf * sx * rho * t_fix)
    return notional * disc.discount(b) * tau * _black(f * qa, strike, sf * sf * t_fix, omega)


def _float_leg(disc, fwd, dates, vc) -> float:
    pv = 0.0
    for a, b in zip(dates[:-1], dates[1:]):
        coupon = fwd.discount(a) / fwd.discount(b) - 1.0
        if vc is not None:
            coupon *= math.exp(-vc.sigma_f[0] * vc.sigma_x[0] * vc.rho[0] * _t(fwd, a))
        pv += disc.discount(b) * coupon
    return pv


def position_pv(pos, curves, vc, svc) -> float:
    """PV of one parsed ``Position`` under flat vol/correlation specs."""
    disc = curves["discount"]
    fwd = curves[pos.forwarding]
    s = pos.spec
    if pos.kind == "fra":
        dc = s.daycount or fwd.daycount
        tau, f = _fwd(fwd, s.start, s.end, dc)
        sf, sx, rho = vc.sigma_f[0], vc.sigma_x[0], vc.rho[0]
        qa = math.exp(-sf * sx * rho * _t(disc, s.start))
        pv = s.notional * disc.discount(s.end) * tau * (f * qa - s.strike)
    elif pos.kind == "swap":
        float_pv = _float_leg(disc, fwd, generate_schedule(s.start, s.end, s.float_tenor_months), vc)
        ann = _annuity(disc, generate_schedule(s.start, s.end, s.fixed_frequency_months), s.daycount_fixed)
        pv = s.notional * (float_pv - s.fixed_rate * ann)
        pv = pv if s.payer else -pv
    elif pos.kind in ("caplet", "floorlet"):
        dc = s.daycount or fwd.daycount
        pv = _caplet(disc, fwd, s.start, s.end, s.strike, s.omega, s.notional, dc, vc)
    elif pos.kind in ("cap", "floor"):
        dc = s.daycount or fwd.daycount
        dates = generate_schedule(s.start, s.end, pos.tenor_months)
        pv = sum(
            _caplet(disc, fwd, a, b, s.strike, s.omega, s.notional, dc, vc)
            for a, b in zip(dates[:-1], dates[1:])
        )
    elif pos.kind == "swaption":
        t_exp = _t(disc, s.start)
        float_pv = _float_leg(disc, fwd, generate_schedule(s.start, s.end, s.float_tenor_months), None)
        ann = _annuity(disc, generate_schedule(s.start, s.end, s.fixed_frequency_months), s.daycount_fixed)
        nu_f, nu_y, rho = svc.nu_f[0], svc.nu_y[0], svc.rho[0]
        qa = math.exp(-nu_f * nu_y * rho * t_exp)
        omega = 1 if s.payer else -1
        pv = s.notional * ann * _black(float_pv / ann * qa, s.fixed_rate, nu_f * nu_f * t_exp, omega)
    else:
        raise ValueError(f"no oracle for position kind {pos.kind!r}")
    return pos.quantity * pv

