"""Calendar dates, day count conventions and payment schedules.

Dates are whole calendar days with no holiday or business-day logic;
rolling a schedule can therefore land on any weekday.  This keeps the
date layer deterministic and easy to reason about.
"""

from __future__ import annotations

import calendar
import datetime as _dt
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "Date",
    "DayCount",
    "ScheduleSpec",
    "year_fraction",
    "year_fractions",
    "add_months",
    "generate_schedule",
    "cached_schedule",
    "cached_accruals",
]


@dataclass(frozen=True, order=True)
class Date:
    """A calendar day, stored as a proleptic Gregorian serial number.

    The serial is ``datetime.date.toordinal()`` so ordering and day
    arithmetic are plain integer operations.
    """

    serial: int

    @classmethod
    def of(cls, year: int, month: int, day: int) -> "Date":
        return cls(_dt.date(year, month, day).toordinal())

    @classmethod
    def parse(cls, text: str) -> "Date":
        """Parse an ISO-8601 date string (YYYY-MM-DD)."""
        return cls(_dt.date.fromisoformat(text.strip()).toordinal())

    @property
    def _pydate(self) -> _dt.date:
        return _dt.date.fromordinal(self.serial)

    @property
    def year(self) -> int:
        return self._pydate.year

    @property
    def month(self) -> int:
        return self._pydate.month

    @property
    def day(self) -> int:
        return self._pydate.day

    def iso(self) -> str:
        return self._pydate.isoformat()

    def add_days(self, n: int) -> "Date":
        return Date(self.serial + n)

    def __sub__(self, other: "Date") -> int:
        return self.serial - other.serial

    def __repr__(self) -> str:  # keep test output readable
        return f"Date({self.iso()})"


class DayCount(str, Enum):
    ACT_360 = "ACT_360"
    ACT_365_FIXED = "ACT_365_FIXED"
    THIRTY_360 = "THIRTY_360"


def year_fraction(start: Date, end: Date, daycount: DayCount) -> float:
    """Accrual year fraction from ``start`` to ``end``.

    ACT conventions divide the actual day count by a fixed denominator
    and are additive over adjacent intervals.  THIRTY_360 follows the
    30/360 US rule (start day capped at 30, with the end day pulled back
    to 30 only when the start day already sits at 30).
    """
    if end < start:
        raise ValueError(f"year_fraction: end {end.iso()} before start {start.iso()}")
    if daycount is DayCount.ACT_360:
        return (end.serial - start.serial) / 360.0
    if daycount is DayCount.ACT_365_FIXED:
        return (end.serial - start.serial) / 365.0
    if daycount is DayCount.THIRTY_360:
        d1 = min(start.day, 30)
        d2 = end.day
        if d2 == 31 and d1 == 30:
            d2 = 30
        return (
            360 * (end.year - start.year)
            + 30 * (end.month - start.month)
            + (d2 - d1)
        ) / 360.0
    raise ValueError(f"unsupported day count {daycount!r}")


def year_fractions(starts, ends, daycount: DayCount) -> np.ndarray:
    """``year_fraction`` over paired start and end dates, as an array.

    The ACT conventions divide whole day counts at once; THIRTY_360
    goes date by date.
    """
    if daycount is DayCount.ACT_360 or daycount is DayCount.ACT_365_FIXED:
        days = np.array([b.serial - a.serial for a, b in zip(starts, ends)], dtype=float)
        return days / (360.0 if daycount is DayCount.ACT_360 else 365.0)
    return np.array([year_fraction(a, b, daycount) for a, b in zip(starts, ends)])


def add_months(date: Date, months: int) -> Date:
    """Shift a date by whole months, clamping to the target month end.

    Jan-31 plus one month gives Feb-28 (or Feb-29 in a leap year).
    """
    month_index = date.year * 12 + (date.month - 1) + months
    year, month = divmod(month_index, 12)
    month += 1
    day = min(date.day, calendar.monthrange(year, month)[1])
    return Date.of(year, month, day)


@dataclass(frozen=True)
class ScheduleSpec:
    """A periodic payment schedule between two dates.

    ``frequency_months`` is the nominal roll period; when it does not
    divide the full span the final period is a short stub ending exactly
    on ``end``.
    """

    start: Date
    end: Date
    frequency_months: int
    daycount: DayCount = DayCount.ACT_360

    def dates(self) -> list[Date]:
        return generate_schedule(self.start, self.end, self.frequency_months)

    def accruals(self) -> list[float]:
        dates = self.dates()
        return [
            year_fraction(a, b, self.daycount)
            for a, b in zip(dates[:-1], dates[1:])
        ]


def generate_schedule(start: Date, end: Date, frequency_months: int) -> list[Date]:
    """Roll dates forward from ``start`` every ``frequency_months`` months.

    The end date is always included; a non-integral number of periods
    produces a short final stub.  Each roll adds ``i * frequency`` months
    to the anchor so month-end clamping does not accumulate drift.
    """
    if frequency_months <= 0:
        raise ValueError("schedule frequency must be a positive number of months")
    if not start < end:
        raise ValueError(
            f"schedule start {start.iso()} must precede end {end.iso()}"
        )
    dates = [start]
    i = 1
    while True:
        d = add_months(start, i * frequency_months)
        if d < end:
            dates.append(d)
            i += 1
        else:
            break
    dates.append(end)
    return dates


@lru_cache(maxsize=4096)
def cached_schedule(start: Date, end: Date, frequency_months: int) -> tuple[Date, ...]:
    """``generate_schedule`` as an immutable tuple, memoised.

    Bootstrapping and pricing ask for the same few hundred schedules
    over and over (every bumped curve set reprices the same swaps), so
    they share this cache rather than rolling the dates each time.
    """
    return tuple(generate_schedule(start, end, frequency_months))


@lru_cache(maxsize=4096)
def cached_accruals(dates: tuple[Date, ...], daycount: DayCount) -> tuple[float, ...]:
    """Year fractions of consecutive schedule periods, memoised."""
    return tuple(
        year_fraction(a, b, daycount) for a, b in zip(dates[:-1], dates[1:])
    )
