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
import weakref
from typing import Iterable, Sequence

import numpy as np

from . import _cashflows, _kernels
from ._files import open_in_place
from .interp import InterpScheme
from .timegrid import Date, DayCount, roll_months, year_fraction, year_fractions

__all__ = ["YieldCurve", "LocatedQuery", "TENOR_LABELS", "tenor_months_from_label"]

TENOR_LABELS = ("discount", "fwd_1M", "fwd_3M", "fwd_6M", "fwd_12M", "custom")

_LABEL_MONTHS = {"fwd_1M": 1, "fwd_3M": 3, "fwd_6M": 6, "fwd_12M": 12}


def tenor_months_from_label(label: str) -> int | None:
    """Underlying rate tenor in months for a forwarding label, else None."""
    return _LABEL_MONTHS.get(label)


# Knot-time arrays by their bytes, held only as long as a curve (or a
# query located on one) holds them: curves on one pillar grid share one
# read-only array, which compiled queries then recognise by identity.
_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _interned(ts: np.ndarray) -> np.ndarray:
    """The shared read-only array holding the same knot times as ``ts``.

    Two threads interning one new grid at once can at worst leave it two
    arrays, which queries still match by value."""
    key = ts.tobytes()
    grid = _GRIDS.get(key)
    if grid is None:
        ts.flags.writeable = False
        grid = _GRIDS[key] = ts
    return grid


def _check_times(t: np.ndarray) -> None:
    """Raise unless every time in the float array ``t`` is finite and >= 0
    (a NaN fails the first comparison)."""
    if t.size and not (t.min() >= 0.0 and t.max() < np.inf):
        raise ValueError("cannot discount before the reference date or at a non-finite time")


class LocatedQuery:
    """Query times whose place among a curve's knots is kept between lookups.

    The times are on the internal clock of the curves that read the
    query, and are checked to be finite and >= 0 once, here.  The query
    keeps one ``_kernels.Located`` for one (scheme, knot-time array) and
    locates again only when a curve's scheme or knot times differ
    (compared by identity first, then by value), so any number of curves
    sharing a pillar grid, such as the curve sets of successive market
    snapshots or of a Jacobian's bumped columns, read it at the cost of
    the evaluate step alone.  ``YieldCurve`` interns its knot times, so
    curves on one pillar grid hand every query the same array and the
    identity check is the one that hits.

    A query may be shared: the bootstrap's compiled quote sets hold
    theirs for every market state of the same structure.  Its times are
    never changed, and every read checks the kept lookup against its own
    curve's scheme and knot times, locating again when they differ, so
    a state reading a shared query gets what a query of its own would
    give, whatever other states read it in between.
    """

    __slots__ = ("t", "_loc")

    def __init__(self, t):
        t = np.ascontiguousarray(t, dtype=np.float64).reshape(-1)
        _check_times(t)
        self.t = t
        self._loc = None

    @classmethod
    def join(cls, queries: list["LocatedQuery"], curve: "YieldCurve") -> "LocatedQuery":
        """One query for the times of ``queries`` in turn, already located
        on ``curve``: each part's own located lookup (kept, or made now)
        joined, so the joined query reads ``curve`` and every curve on
        its pillar grid without a search."""
        scheme, ts = curve.interpolation, curve._ts
        joined = cls.__new__(cls)
        joined.t = np.concatenate([q.t for q in queries])
        joined._loc = _kernels.join([q.located(scheme, ts) for q in queries])
        return joined

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

    The knot times (the anchor at 0 and the pillars' internal-clock
    times) are one read-only array shared by every live curve with the
    same reference date and pillar dates; an entry goes with the last
    curve or query that holds it.  Beside them the curve keeps its knot
    table (``_kernels.knot_data``: per segment the log-discounts and
    monotone slopes the cubic reads, or the log-discount or zero-rate
    values and slopes of the linear schemes), built once, so a lookup
    gathers each query's column of it and weighs it in one pass.  Times
    are checked to be finite and >= 0; an ad-hoc lookup is located and
    evaluated in blocks of ``_kernels.BLOCK`` queries.

    ``daily_discounts`` reads the curve once at every day from its
    reference date through its last pillar and keeps the result,
    read-only, for the curve's life: daily basis tables of several
    tenors against one discounting curve read it once between them.
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
        "_table",
        "_days",
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
        self._ts = _interned(ts)
        self._dfs = all_dfs
        self._lnp = np.log(all_dfs)
        self._table = _kernels.knot_data(self.interpolation, ts, self._lnp)
        self._days = None

    # -- evaluation ---------------------------------------------------------

    def time(self, date: Date) -> float:
        """Internal-clock time of a date (ACT/365F years from t0)."""
        return (date.serial - self.reference_date.serial) / 365.0

    def times(self, dates: Iterable[Date]) -> np.ndarray:
        serials = np.array([d.serial for d in dates], dtype=np.int64)
        return (serials - self.reference_date.serial) / 365.0

    def discount_time(self, t) -> float | np.ndarray:
        """Discount factor at internal-clock time(s) ``t``, finite and >= 0.

        ``t`` may also be a ``LocatedQuery``, which gives an array and
        skips the search while this curve's knot times are the ones the
        query was last located on.
        """
        if isinstance(t, LocatedQuery):
            loc = t._loc
            if loc is None or loc.ts is not self._ts or loc.scheme is not self.interpolation:
                loc = t.located(self.interpolation, self._ts)
            return _kernels.apply(t.t, loc, self._dfs, self._table)
        arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        _check_times(arr)
        out = _kernels.evaluate(self.interpolation, arr, self._ts, self._dfs, self._table)
        if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
            return float(out[0])
        return out

    def daily_discounts(self) -> np.ndarray:
        """Discount factors at every day from the reference date through
        the last pillar, entry d at time d / 365; read on the first call
        and kept, read-only.  Each value is the one ``discount_time``
        gives at that time, a lookup being element by element."""
        days = self._days
        if days is None:
            n = self.pillar_dates[-1].serial - self.reference_date.serial
            days = self.discount_time(np.arange(n + 1) / 365.0)
            days.flags.writeable = False
            self._days = days
        return days

    def log_jacobian(
        self, q: LocatedQuery, g: np.ndarray, rows: np.ndarray, n_rows: int
    ) -> np.ndarray:
        """G (d ln P/d ln p) over the pillars, anchor excluded: per row,
        the sum of each query time's weight ``g[i]`` times d ln P(t_i)
        over the pillar log-discounts ln p, ``rows[i]`` naming the row
        of query time i.  A weight g = dV/d ln P gives dV/d ln p."""
        loc = q.located(self.interpolation, self._ts)
        return _kernels.log_jacobian(q.t, loc, self._lnp, g, rows, n_rows)[:, 1:]

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
        """Write ``to_dict`` as JSON to ``path``, over any old file in place."""
        with open_in_place(path) as fh:
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
