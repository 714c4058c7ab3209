"""Discount / forwarding yield curves.

A curve is a dated set of pillar discount factors plus an interpolation
scheme.  In a multi-curve setup each rate tenor gets its own forwarding
curve while a single curve handles discounting; instances are tagged
with a ``tenor_label`` so downstream code can tell them apart.

All interpolation runs on an internal clock of ACT/365F year fractions
from the reference date, regardless of the curve's accrual day count.
The anchor ``P(t0, t0) = 1`` is implicit and never stored as a pillar.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

from . import _cashflows, _kernels
from .interp import InterpScheme
from .timegrid import Date, DayCount, roll_months, year_fraction, year_fractions

__all__ = ["YieldCurve", "LocatedQuery", "TENOR_LABELS", "tenor_months_from_label"]

TENOR_LABELS = ("discount", "fwd_1M", "fwd_3M", "fwd_6M", "fwd_12M", "custom")

_LABEL_MONTHS = {"fwd_1M": 1, "fwd_3M": 3, "fwd_6M": 6, "fwd_12M": 12}


def tenor_months_from_label(label: str) -> int | None:
    """Underlying rate tenor in months for a forwarding label, else None."""
    return _LABEL_MONTHS.get(label)


class LocatedQuery:
    """Query times whose place among a curve's knots is kept between lookups.

    The times are on the internal clock of the curves that read the
    query, and are checked to be >= 0 once, here.  The query keeps one
    ``_kernels.Located`` for one (scheme, knot-time array) and locates
    again only when a curve's scheme or knot times differ (compared by
    identity first, then by value), so any number of curves sharing a
    pillar grid, such as the curve sets of successive market snapshots
    or of a Jacobian's bumped columns, read it at the cost of the
    evaluate step alone.
    """

    __slots__ = ("t", "_loc")

    def __init__(self, t):
        t = np.ascontiguousarray(t, dtype=np.float64).reshape(-1)
        if t.size and t.min() < 0.0:
            raise ValueError("cannot discount before the reference date")
        self.t = t
        self._loc = None

    def located(self, scheme: InterpScheme, ts: np.ndarray) -> _kernels.Located:
        loc = self._loc
        if loc is None or loc.scheme is not scheme or not (
            loc.ts is ts or (loc.ts.shape == ts.shape and (loc.ts == ts).all())
        ):
            loc = self._loc = _kernels.locate(scheme, self.t, ts)
        return loc


class YieldCurve:
    """An interpolated discount curve.

    Parameters
    ----------
    reference_date : Date
        Valuation date t0.
    pillars : sequence of (Date, float)
        Strictly increasing dates after t0 with positive discount
        factors.  Discount factors above 1 are legal (negative rates).
    interpolation : InterpScheme
        Defaults to the monotone cubic on log-discount.
    daycount : DayCount
        Accrual convention the curve's simple forward rates quote in.
    tenor_label : str
        One of ``TENOR_LABELS``.
    """

    __slots__ = (
        "reference_date",
        "pillar_dates",
        "pillar_dfs",
        "interpolation",
        "daycount",
        "tenor_label",
        "_ts",
        "_dfs",
        "_lnp",
        "_aux",
    )

    def __init__(
        self,
        reference_date: Date,
        pillars: Sequence[tuple[Date, float]],
        interpolation: InterpScheme = InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC,
        daycount: DayCount = DayCount.ACT_360,
        tenor_label: str = "custom",
    ):
        if not pillars:
            raise ValueError("curve needs at least one pillar")
        if tenor_label not in TENOR_LABELS:
            raise ValueError(f"unknown tenor label {tenor_label!r}")
        dates = [p[0] for p in pillars]
        dfs = np.array([p[1] for p in pillars], dtype=np.float64)
        serials = np.array([d.serial for d in dates], dtype=np.int64)
        if np.any(np.diff(serials) <= 0):
            raise ValueError("pillar dates must be strictly increasing")
        if dates[0].serial <= reference_date.serial:
            raise ValueError("first pillar must lie after the reference date")
        if not np.all(np.isfinite(dfs)) or np.any(dfs <= 0.0):
            raise ValueError("pillar discount factors must be positive and finite")

        self.reference_date = reference_date
        self.pillar_dates = list(dates)
        self.pillar_dfs = dfs
        self.interpolation = InterpScheme(interpolation)
        self.daycount = DayCount(daycount)
        self.tenor_label = tenor_label

        ts = np.empty(len(dates) + 1, dtype=np.float64)
        ts[0] = 0.0
        ts[1:] = (serials - reference_date.serial) / 365.0
        all_dfs = np.empty(len(dates) + 1, dtype=np.float64)
        all_dfs[0] = 1.0
        all_dfs[1:] = dfs
        self._ts = ts
        self._dfs = all_dfs
        self._lnp = np.log(all_dfs)
        self._aux = _kernels.knot_data(self.interpolation, ts, self._lnp)

    # -- evaluation ---------------------------------------------------------

    def time(self, date: Date) -> float:
        """Internal-clock time of a date (ACT/365F years from t0)."""
        return (date.serial - self.reference_date.serial) / 365.0

    def times(self, dates: Iterable[Date]) -> np.ndarray:
        serials = np.array([d.serial for d in dates], dtype=np.int64)
        return (serials - self.reference_date.serial) / 365.0

    def discount_time(self, t) -> float | np.ndarray:
        """Discount factor at internal-clock time(s) ``t`` >= 0.

        ``t`` may also be a ``LocatedQuery``, which gives an array and
        skips the search while this curve's knot times match the ones
        the query was last located on.
        """
        if isinstance(t, LocatedQuery):
            loc = t.located(self.interpolation, self._ts)
            return _kernels.apply(t.t, loc, self._dfs, self._lnp, self._aux)
        arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if arr.size and arr.min() < 0.0:
            raise ValueError("cannot discount before the reference date")
        out = _kernels.evaluate(
            self.interpolation, arr, self._ts, self._dfs, self._lnp, self._aux
        )
        if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
            return float(out[0])
        return out

    def discount(self, date) -> float | np.ndarray:
        """Discount factor P(t0, T) for a Date or a sequence of Dates."""
        if isinstance(date, Date):
            return self.discount_time(self.time(date))
        return self.discount_time(self.times(date))

    def forward_discount(self, t1: Date, t2: Date) -> float:
        """Forward discount factor P(t0; T1, T2) = P(t0,T2) / P(t0,T1)."""
        if t2 < t1:
            raise ValueError("forward interval must have T1 <= T2")
        p = self.discount([t1, t2])
        return float(p[1] / p[0])

    def simple_forward(
        self, t1: Date, t2: Date, daycount: DayCount | None = None
    ) -> float:
        """Simply compounded forward F(t0; T1, T2) in the given day count.

        F = [P(t0,T1) - P(t0,T2)] / [tau(T1,T2) * P(t0,T2)], the rate a
        forward rate agreement on this curve's index would fix at.
        """
        if not t1 < t2:
            raise ValueError("simple forward needs T1 < T2")
        tau = year_fraction(t1, t2, daycount or self.daycount)
        p = self.discount([t1, t2])
        return float(_cashflows.simple_forward(p[0], p[1], tau))

    def zero_rate(self, t: Date, daycount: DayCount | None = None) -> float:
        """Simply compounded zero rate: P = 1 / (1 + r * tau)."""
        if not self.reference_date < t:
            raise ValueError("zero rate needs a date after the reference date")
        tau = year_fraction(self.reference_date, t, daycount or self.daycount)
        p = self.discount(t)
        return (1.0 / p - 1.0) / tau

    def sample_forward_curve(
        self,
        tenor_months: int,
        daycount: DayCount | None = None,
        stride_days: int = 1,
    ) -> list[tuple[Date, float]]:
        """Rolling simple forwards F(t0; t, t + tenor) on a daily grid.

        Samples run from t0 while t + tenor stays on or before the last
        pillar, every ``stride_days`` calendar days.  This is the view
        in which interpolation artefacts (saw-tooth forwards, pillar
        jumps) become visible.
        """
        if tenor_months <= 0:
            raise ValueError("tenor must be positive")
        if stride_days <= 0:
            raise ValueError("stride must be positive")
        ref = self.reference_date.serial
        anchor = int(roll_months(self.pillar_dates[-1].serial, -tenor_months))
        if anchor < ref:
            return []
        dc = daycount or self.daycount
        starts = np.arange(ref, anchor + 1, stride_days, dtype=np.int64)
        ends = roll_months(starts, tenor_months)
        rates = _cashflows.simple_forward(
            self.discount_time((starts - ref) / 365.0),
            self.discount_time((ends - ref) / 365.0),
            year_fractions(starts, ends, dc),
        )
        return list(zip(map(Date, starts.tolist()), rates.tolist()))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "reference_date": self.reference_date.iso(),
            "tenor_label": self.tenor_label,
            "daycount": self.daycount.value,
            "interpolation": self.interpolation.value,
            "pillars": [
                {"date": d.iso(), "df": f"{df:.15g}"}
                for d, df in zip(self.pillar_dates, self.pillar_dfs)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "YieldCurve":
        pillars = [
            (Date.parse(p["date"]), float(p["df"])) for p in data["pillars"]
        ]
        return cls(
            reference_date=Date.parse(data["reference_date"]),
            pillars=pillars,
            interpolation=InterpScheme(data["interpolation"]),
            daycount=DayCount(data["daycount"]),
            tenor_label=data["tenor_label"],
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "YieldCurve":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def __repr__(self) -> str:
        return (
            f"YieldCurve({self.tenor_label}, ref={self.reference_date.iso()}, "
            f"{len(self.pillar_dates)} pillars, {self.interpolation.value})"
        )
