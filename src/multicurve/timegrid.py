"""Calendar dates, day count conventions and payment schedules.

Dates are whole calendar days with no holiday or business-day logic;
rolling a schedule can therefore land on any weekday.  This keeps the
date layer deterministic and easy to reason about.
"""

from __future__ import annotations

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
    "roll_months",
    "generate_schedule",
    "cached_schedule",
    "cached_accruals",
    "cached_schedule_accruals",
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
        if not isinstance(text, str):
            raise ValueError(f"a date must be a YYYY-MM-DD string, got {text!r}")
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
    """``year_fraction`` over paired start and end serial days, as an array.

    Same arithmetic as the scalar rule, so each entry is bit-identical
    to ``year_fraction`` of the same two dates.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if daycount is DayCount.ACT_360:
        return (ends - starts) / 360.0
    if daycount is DayCount.ACT_365_FIXED:
        return (ends - starts) / 365.0
    if daycount is DayCount.THIRTY_360:
        y1, m1, d1 = _ymd(starts)
        y2, m2, d2 = _ymd(ends)
        d1 = np.minimum(d1, 30)
        d2 = np.where((d2 == 31) & (d1 == 30), 30, d2)
        return (360 * (y2 - y1) + 30 * (m2 - m1) + (d2 - d1)) / 360.0
    raise ValueError(f"unsupported day count {daycount!r}")


# Serial of 1970-01-01, the epoch of numpy's datetime64.
_EPOCH = _dt.date(1970, 1, 1).toordinal()


def _months(serials) -> tuple[np.ndarray, np.ndarray]:
    """Days since the datetime64 epoch and the calendar month they fall in."""
    days = np.asarray(serials, dtype=np.int64) - _EPOCH
    return days, days.astype("datetime64[D]").astype("datetime64[M]")


def _ymd(serials) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Calendar year, month and day of serial days, as int64 arrays."""
    days, month = _months(serials)
    index = month.astype(np.int64)
    day = days - month.astype("datetime64[D]").astype(np.int64) + 1
    return index // 12 + 1970, index % 12 + 1, day


def roll_months(serials, months) -> np.ndarray:
    """Serial days shifted by whole months, clamped to the target month end.

    ``serials`` and ``months`` broadcast against each other, so one call
    rolls many dates by one shift or one date by many shifts.  Jan-31
    plus one month gives Feb-28 (or Feb-29 in a leap year).
    """
    days, month = _months(serials)
    day = days - month.astype("datetime64[D]").astype(np.int64)
    target = month + np.asarray(months, dtype=np.int64)
    first = target.astype("datetime64[D]").astype(np.int64)
    after = (target + 1).astype("datetime64[D]").astype(np.int64)
    return first + np.minimum(day, after - first - 1) + _EPOCH


def add_months(date: Date, months: int) -> Date:
    """``roll_months`` of one date: shift by whole months, clamping to
    the target month end."""
    return Date(int(roll_months(date.serial, months)))


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
    # enough rolls that the last one lands past the end month
    span = 12 * (end.year - start.year) + end.month - start.month
    rolls = roll_months(
        start.serial, frequency_months * np.arange(1, span // frequency_months + 2)
    )
    return [start, *map(Date, rolls[rolls < end.serial].tolist()), end]


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


@lru_cache(maxsize=4096)
def cached_schedule_accruals(
    start: Date, end: Date, frequency_months: int, daycount: DayCount
) -> tuple[float, ...]:
    """``cached_accruals`` of ``cached_schedule(start, end,
    frequency_months)``, memoised on the schedule's own arguments, so a
    lookup hashes two dates rather than every date of the schedule."""
    dates = cached_schedule(start, end, frequency_months)
    return cached_accruals.__wrapped__(dates, daycount)
