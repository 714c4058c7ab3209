"""Forward basis between a forwarding curve and the discounting curve.

When each rate tenor projects off its own curve, the forward implied by
the forwarding curve differs from the one the discounting curve would
imply over the same interval.  The ratio (multiplicative basis) and the
difference scaled by the accrual (additive basis) measure that gap:

    BA(T1, T2)  = F_f * tau_f / (F_d * tau_d)
                = [P_d(T2) / P_f(T2)] * [P_f(T1) - P_f(T2)]
                                      / [P_d(T1) - P_d(T2)]
    BA'(T1, T2) = (1 / tau_d) * [P_f(T1)/P_f(T2) - P_d(T1)/P_d(T2)]

with the exact relation BA' = F_d * (BA - 1).  When the two curves
coincide, BA = 1 and BA' = 0 identically.

The module also exposes the ratio of discount factors P_f/P_d, which
plays the role of a forward exchange rate between the two curves in the
foreign-currency analogy (spot value 1, since both curves discount to 1
at the reference date).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .curve import YieldCurve
from .timegrid import Date, add_months, year_fractions

__all__ = [
    "ForwardBasisCurve",
    "multiplicative_basis",
    "additive_basis",
    "forward_exchange_rate",
    "swap_forward_exchange_rate",
    "basis_term_structure",
    "pillar_interval_basis",
    "write_basis_csv",
]

BASIS_CSV_HEADER = "date,T1,T2,BA_mult,BA_add_bp"


@dataclass
class ForwardBasisCurve:
    """A sampled basis term structure between two curves.

    ``tenor_months`` is set for rolling fixed-tenor samples and None for
    irregular interval grids (e.g. pillar-to-pillar).  ``fwd_disc`` holds
    the simply compounded discounting-curve forward of each interval; it
    is what links the additive and multiplicative representations.
    """

    forwarding_label: str
    discounting_label: str
    reference_date: Date
    t1_dates: list[Date]
    t2_dates: list[Date]
    mult: np.ndarray
    add: np.ndarray
    fwd_disc: np.ndarray
    tenor_months: int | None = None

    def __len__(self) -> int:
        return len(self.t1_dates)

    def fixing_times(self) -> np.ndarray:
        """Interval start times on the internal clock (ACT/365F years)."""
        ref = self.reference_date.serial
        return np.array([(d.serial - ref) / 365.0 for d in self.t1_dates])


def _check_pair(fwd: YieldCurve, disc: YieldCurve) -> None:
    if fwd.reference_date != disc.reference_date:
        raise ValueError("forwarding and discounting curves must share a reference date")


def _check_interval(disc: YieldCurve, t1: Date, t2: Date) -> None:
    if t1 < disc.reference_date:
        raise ValueError("interval starts before the reference date")
    if not t1 < t2:
        raise ValueError("basis interval needs T1 < T2")


def _interval_basis(
    fwd: YieldCurve, disc: YieldCurve, starts: list[Date], ends: list[Date]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multiplicative basis, additive basis and discounting forward over
    the intervals [starts[i], ends[i]]; the multiplicative basis is NaN
    where the discounting forward is exactly zero."""
    pf1, pf2 = fwd.discount(starts), fwd.discount(ends)
    pd1, pd2 = disc.discount(starts), disc.discount(ends)
    tau_d = year_fractions(starts, ends, disc.daycount)
    denom = pd1 - pd2
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.where(denom != 0.0, (pd2 / pf2) * (pf1 - pf2) / denom, np.nan)
        add = (pf1 / pf2 - pd1 / pd2) / tau_d
        fwd_d = denom / (tau_d * pd2)
    return mult, add, fwd_d


def multiplicative_basis(fwd: YieldCurve, disc: YieldCurve, t1: Date, t2: Date) -> float:
    """Multiplicative forward basis BA(t0; T1, T2) between two curves."""
    _check_pair(fwd, disc)
    _check_interval(disc, t1, t2)
    mult = _interval_basis(fwd, disc, [t1], [t2])[0][0]
    if np.isnan(mult):
        raise ZeroDivisionError(
            "multiplicative basis undefined: discounting forward rate is zero"
        )
    return float(mult)


def additive_basis(fwd: YieldCurve, disc: YieldCurve, t1: Date, t2: Date) -> float:
    """Additive forward basis BA'(t0; T1, T2) in rate units."""
    _check_pair(fwd, disc)
    _check_interval(disc, t1, t2)
    return float(_interval_basis(fwd, disc, [t1], [t2])[1][0])


def forward_exchange_rate(fwd: YieldCurve, disc: YieldCurve, t: Date) -> float:
    """Ratio P_f(t0,T) / P_d(t0,T); equals 1 at the reference date."""
    _check_pair(fwd, disc)
    if t == fwd.reference_date:
        return 1.0
    return float(fwd.discount(t) / disc.discount(t))


def swap_forward_exchange_rate(
    fwd: YieldCurve, disc: YieldCurve, schedule_dates: list[Date]
) -> float:
    """Annuity ratio A_f / A_d over a fixed-leg schedule.

    Each annuity accrues in its own curve's day count, mirroring how the
    two legs of the corresponding swap would be valued on their curves.
    """
    _check_pair(fwd, disc)
    if len(schedule_dates) < 2:
        raise ValueError("schedule needs at least two dates")
    from .pricer import annuity

    a_f = annuity(fwd, schedule_dates)
    a_d = annuity(disc, schedule_dates)
    return a_f / a_d


def basis_term_structure(
    fwd: YieldCurve,
    disc: YieldCurve,
    tenor_months: int,
    stride_days: int = 1,
) -> ForwardBasisCurve:
    """Daily (or strided) rolling basis samples over the common span.

    Intervals are [t, t + tenor] for t from the reference date while the
    interval end stays inside both curves' pillar ranges.  Where the
    discounting forward is exactly zero the multiplicative basis is
    undefined and reported as NaN; the additive basis is still finite.
    """
    _check_pair(fwd, disc)
    if tenor_months <= 0 or stride_days <= 0:
        raise ValueError("tenor and stride must be positive")
    ref = fwd.reference_date
    last = min(fwd.pillar_dates[-1], disc.pillar_dates[-1])
    anchor = add_months(last, -tenor_months)
    if anchor < ref:
        raise ValueError("curves too short for the requested tenor")
    starts = [Date(s) for s in range(ref.serial, anchor.serial + 1, stride_days)]
    ends = [add_months(d, tenor_months) for d in starts]

    mult, add, fwd_d = _interval_basis(fwd, disc, starts, ends)
    return ForwardBasisCurve(
        forwarding_label=fwd.tenor_label,
        discounting_label=disc.tenor_label,
        reference_date=ref,
        t1_dates=starts,
        t2_dates=ends,
        mult=mult,
        add=add,
        fwd_disc=fwd_d,
        tenor_months=tenor_months,
    )


def pillar_interval_basis(
    fwd: YieldCurve, disc: YieldCurve, dates: list[Date]
) -> ForwardBasisCurve:
    """Basis over the chained intervals (t0, d1), (d1, d2), ...

    This is the grid form consumed by the curve reconstruction
    recursion: interval starts chain exactly onto the previous end.
    """
    _check_pair(fwd, disc)
    if not dates:
        raise ValueError("need at least one interval end date")
    ref = fwd.reference_date
    bounds = [ref] + sorted(dates)
    t1s, t2s = bounds[:-1], bounds[1:]
    mult, add, fdisc = _interval_basis(fwd, disc, t1s, t2s)
    for a, b, m in zip(t1s, t2s, mult):
        if np.isnan(m):
            raise ZeroDivisionError(
                f"zero discounting forward over [{a.iso()}, {b.iso()}]"
            )
    return ForwardBasisCurve(
        forwarding_label=fwd.tenor_label,
        discounting_label=disc.tenor_label,
        reference_date=ref,
        t1_dates=t1s,
        t2_dates=t2s,
        mult=mult,
        add=add,
        fwd_disc=fdisc,
        tenor_months=None,
    )


def write_basis_csv(basis: ForwardBasisCurve, fh: io.TextIOBase, comment: str | None = None) -> None:
    """Write samples as CSV; additive basis reported in basis points."""
    if comment:
        fh.write(f"# {comment}\n")
    fh.write(BASIS_CSV_HEADER + "\n")
    for t1, t2, m, a in zip(basis.t1_dates, basis.t2_dates, basis.mult, basis.add):
        fh.write(f"{t1.iso()},{t1.iso()},{t2.iso()},{m:.12g},{a * 1e4:.8f}\n")
