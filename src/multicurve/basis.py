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
from functools import lru_cache

import numpy as np

from . import _cashflows
from .curve import YieldCurve
from .timegrid import Date, roll_months, year_fractions

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

    ``t1``/``t2`` hold the interval start and end dates as int64 serial
    days; ``t1_dates``, ``t2_dates`` and ``fixing_times`` are derived
    from them on demand.  ``tenor_months`` is set for rolling
    fixed-tenor samples and None for irregular interval grids (e.g.
    pillar-to-pillar).  ``fwd_disc`` holds the simply compounded
    discounting-curve forward of each interval; it is what links the
    additive and multiplicative representations.
    """

    forwarding_label: str
    discounting_label: str
    reference_date: Date
    t1: np.ndarray
    t2: np.ndarray
    mult: np.ndarray
    add: np.ndarray
    fwd_disc: np.ndarray
    tenor_months: int | None = None

    def __len__(self) -> int:
        return len(self.t1)

    @property
    def t1_dates(self) -> list[Date]:
        return list(map(Date, self.t1.tolist()))

    @property
    def t2_dates(self) -> list[Date]:
        return list(map(Date, self.t2.tolist()))

    def fixing_times(self) -> np.ndarray:
        """Interval start times on the internal clock (ACT/365F years)."""
        return (self.t1 - self.reference_date.serial) / 365.0


def _check_pair(fwd: YieldCurve, disc: YieldCurve) -> None:
    if fwd.reference_date != disc.reference_date:
        raise ValueError("forwarding and discounting curves must share a reference date")


def _check_interval(disc: YieldCurve, t1: Date, t2: Date) -> None:
    if t1 < disc.reference_date:
        raise ValueError("interval starts before the reference date")
    if not t1 < t2:
        raise ValueError("basis interval needs T1 < T2")


def _interval_basis(
    fwd: YieldCurve,
    disc: YieldCurve,
    starts: np.ndarray,
    ends: np.ndarray,
    stride: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multiplicative basis, additive basis and discounting forward over
    the intervals [starts[i], ends[i]] of serial days; the
    multiplicative basis is NaN where the discounting forward is exactly
    zero.

    Each curve is read at the starts and at the ends, or, given the
    ``stride`` of evenly spaced starts, sliced from its
    ``daily_discounts``: the starts are then every stride-th day of it
    and the ends are gathered from it by index (the values are the same,
    a lookup being element by element)."""
    ref = fwd.reference_date.serial
    if stride is None:
        t1, t2 = (starts - ref) / 365.0, (ends - ref) / 365.0
        pf1, pf2 = fwd.discount_time(t1), fwd.discount_time(t2)
        pd1, pd2 = disc.discount_time(t1), disc.discount_time(t2)
    else:
        pf1, pf2, pd1, pd2 = _span_reads((fwd, disc), ref, starts, ends, stride)
    tau_d = year_fractions(starts, ends, disc.daycount)
    denom = pd1 - pd2
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.where(denom != 0.0, (pd2 / pf2) * (pf1 - pf2) / denom, np.nan)
        add = (pf1 / pf2 - pd1 / pd2) / tau_d
        fwd_d = _cashflows.simple_forward(pd1, pd2, tau_d)
    return mult, add, fwd_d


def _span_reads(curves, ref: int, starts, ends, stride: int) -> list:
    """Each curve's discount factors at the starts, which run from the
    reference day ``ref`` every ``stride`` days, and at the ends, sliced
    from its ``daily_discounts``."""
    i2 = ends - ref
    out = []
    for curve in curves:
        p = curve.daily_discounts()
        out += [p[: starts.size * stride : stride], p[i2]]
    return out


def _one_interval(fwd: YieldCurve, disc: YieldCurve, t1: Date, t2: Date):
    _check_pair(fwd, disc)
    _check_interval(disc, t1, t2)
    return _interval_basis(
        fwd, disc, np.array([t1.serial]), np.array([t2.serial])
    )


def multiplicative_basis(fwd: YieldCurve, disc: YieldCurve, t1: Date, t2: Date) -> float:
    """Multiplicative forward basis BA(t0; T1, T2) between two curves."""
    mult = _one_interval(fwd, disc, t1, t2)[0][0]
    if np.isnan(mult):
        raise ZeroDivisionError(
            "multiplicative basis undefined: discounting forward rate is zero"
        )
    return float(mult)


def additive_basis(fwd: YieldCurve, disc: YieldCurve, t1: Date, t2: Date) -> float:
    """Additive forward basis BA'(t0; T1, T2) in rate units."""
    return float(_one_interval(fwd, disc, t1, t2)[1][0])


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


# Day grids kept: the four tenors of a market's daily tables, on a few
# curve spans.  A 30Y daily grid is two arrays of 11k days, 0.18 MB.
_DAY_GRIDS = 16


@lru_cache(maxsize=_DAY_GRIDS)
def _day_grid(ref: int, last: int, tenor_months: int, stride_days: int):
    """The interval starts and ends of a rolling ``tenor_months`` table
    from the serial day ``ref`` while the ends stay on or before
    ``last``, every ``stride_days``: two read-only int64 arrays of
    serial days, memoised on the four arguments."""
    anchor = int(roll_months(last, -tenor_months))
    if anchor < ref:
        raise ValueError("curves too short for the requested tenor")
    starts = np.arange(ref, anchor + 1, stride_days, dtype=np.int64)
    ends = roll_months(starts, tenor_months)
    starts.flags.writeable = False
    ends.flags.writeable = False
    return starts, ends


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

    The starts and ends (``t1``, ``t2``) are rolled once per reference
    day, last day, tenor and stride and shared, read-only, by every
    table on that grid, as ``timegrid.cached_schedule_serials`` shares
    schedules.  When the days from the first start to the last end are
    no more than the starts and ends together (always so daily), both
    are sliced from each curve's ``daily_discounts``, which a curve
    reads once for all the tables it takes part in: four daily tables
    against one discounting curve read it once, not four times.
    """
    _check_pair(fwd, disc)
    if tenor_months <= 0 or stride_days <= 0:
        raise ValueError("tenor and stride must be positive")
    ref = fwd.reference_date.serial
    last = min(fwd.pillar_dates[-1], disc.pillar_dates[-1]).serial
    starts, ends = _day_grid(ref, last, tenor_months, stride_days)
    # one read per curve over its days when the span is no longer than
    # the starts and ends read apart (always so at a daily stride)
    span = ends[-1] - starts[0] + 1 <= starts.size + ends.size
    mult, add, fwd_d = _interval_basis(
        fwd, disc, starts, ends, stride_days if span else None
    )
    return ForwardBasisCurve(
        forwarding_label=fwd.tenor_label,
        discounting_label=disc.tenor_label,
        reference_date=fwd.reference_date,
        t1=starts,
        t2=ends,
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
    bounds = np.array([ref.serial] + sorted(d.serial for d in dates), dtype=np.int64)
    # copies: the two arrays must not share memory
    t1s, t2s = bounds[:-1].copy(), bounds[1:].copy()
    mult, add, fdisc = _interval_basis(fwd, disc, t1s, t2s)
    bad = np.isnan(mult)
    if bad.any():
        i = int(np.argmax(bad))
        raise ZeroDivisionError(
            f"zero discounting forward over "
            f"[{Date(int(t1s[i])).iso()}, {Date(int(t2s[i])).iso()}]"
        )
    return ForwardBasisCurve(
        forwarding_label=fwd.tenor_label,
        discounting_label=disc.tenor_label,
        reference_date=ref,
        t1=t1s,
        t2=t2s,
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
