"""Calendar dates, day count conventions and payment schedules.

Dates are whole calendar days with no holiday or business-day logic;
rolling a schedule can therefore land on any weekday.  This keeps the
date layer deterministic and easy to reason about.
"""

from __future__ import annotations

import datetime as _dt
from array import array
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
    "cached_schedule_serials",
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
    to ``year_fraction`` of the same two dates, and the same
    ``ValueError`` for a pair whose end comes before its start.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    back = ends < starts
    if back.any():
        i = back.argmax()
        start, end = Date(int(starts[i])), Date(int(ends[i]))
        raise ValueError(f"year_fraction: end {end.iso()} before start {start.iso()}")
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


def _first_days() -> array:
    """The month table: the serial of the first day of every month from
    January of year 1 to January of year 10001, entry m opening month m
    (month 0 being 0001-01), summed from the Gregorian month lengths."""
    years = np.arange(1, 10001)
    leap = (years % 4 == 0) & ((years % 100 != 0) | (years % 400 == 0))
    lengths = np.tile(np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], np.int8), (years.size, 1))
    lengths[:, 1] += leap
    table = array("i", [1]) * (lengths.size + 1)
    days = np.frombuffer(table, dtype=np.intc)
    np.cumsum(lengths, dtype=np.intc, out=days[1:])
    days[1:] += 1
    return table


# The month table as Python ints (scalar lookups) and, sharing its
# memory, as a read-only C int array (array lookups).
_FIRST = _first_days()
_FIRSTS = np.frombuffer(_FIRST, dtype=np.intc)
_FIRSTS.flags.writeable = False
# Dates run from 0001-01-01 (serial 1) to 9999-12-31: the last month a
# date or a roll may fall in, and the serial just past it.
_LAST = 12 * 9999 - 1
_END = _FIRST[_LAST + 1]
# Months per day of the 400-year cycle (4800 months in 146097 days).
# The first days of the table stay within -3.1 and +1.3 days of a mean
# month's multiples, so (serial - 3) times it truncates to the month the
# serial falls in or to the one before, and one comparison with the next
# month's first day settles which.
_MONTHS_PER_DAY = 4800 / 146097


def _date_range_error(what: str) -> ValueError:
    return ValueError(f"{what} outside the years 1 to 9999")


def _month_of(serial: int) -> int:
    """The month (index into the month table) a serial day falls in."""
    if not 1 <= serial < _END:
        raise _date_range_error(f"serial day {serial}")
    m = int((serial - 3) * _MONTHS_PER_DAY)
    return m + (serial >= _FIRST[m + 1])


def _months_of(serials: np.ndarray) -> np.ndarray:
    """``_month_of`` over an int64 array of serial days."""
    if serials.size and (serials.min() < 1 or serials.max() >= _END):
        raise _date_range_error("serial days")
    m = ((serials - 3) * _MONTHS_PER_DAY).astype(np.int64)
    return m + (serials >= _FIRSTS.take(m + 1))


def _ymd(serials) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Calendar year, month and day of serial days, as int64 arrays."""
    serials = np.asarray(serials, dtype=np.int64)
    m = _months_of(serials)
    return m // 12 + 1, m % 12 + 1, serials - _FIRSTS.take(m) + 1


def roll_months(serials, months) -> np.ndarray:
    """Serial days shifted by whole months, clamped to the target month end.

    ``serials`` and ``months`` broadcast against each other, so one call
    rolls many dates by one shift or one date by many shifts.  Jan-31
    plus one month gives Feb-28 (or Feb-29 in a leap year).  Each day is
    looked up in the month table: it keeps its distance from the first
    of its month, capped at the last day of the target month.
    """
    serials = np.asarray(serials, dtype=np.int64)
    month = _months_of(serials)
    target = month + np.asarray(months, dtype=np.int64)
    if target.size and (target.min() < 0 or target.max() > _LAST):
        raise _date_range_error("month roll")
    first = _FIRSTS.take(target)
    return first + np.minimum(
        serials - _FIRSTS.take(month), _FIRSTS.take(target + 1) - first - 1
    )


def add_months(date: Date, months: int) -> Date:
    """``roll_months`` of one date: shift by whole months, clamping to
    the target month end, through the same month table."""
    serial = date.serial
    month = _month_of(serial)
    target = month + months
    if not 0 <= target <= _LAST:
        raise _date_range_error("month roll")
    first = _FIRST[target]
    return Date(first + min(serial - _FIRST[month], _FIRST[target + 1] - first - 1))


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
    to the anchor so month-end clamping does not accumulate drift.  The
    dates are ``cached_schedule_serials`` of the two dates' serial days,
    so a schedule asked for again is not rolled again.
    """
    serials = cached_schedule_serials(start.serial, end.serial, frequency_months)
    return list(map(Date, serials.tolist()))


def _interior_rolls(start: Date, end: Date, frequency_months: int) -> np.ndarray:
    """The schedule's serial days strictly between ``start`` and ``end``."""
    if frequency_months <= 0:
        raise ValueError("schedule frequency must be a positive number of months")
    if not start < end:
        raise ValueError(
            f"schedule start {start.iso()} must precede end {end.iso()}"
        )
    # enough rolls that the last one lands past the end month
    span = _month_of(end.serial) - _month_of(start.serial)
    rolls = roll_months(
        start.serial, frequency_months * np.arange(1, span // frequency_months + 2)
    )
    return rolls[rolls < end.serial]


@lru_cache(maxsize=4096)
def cached_schedule_serials(start: int, end: int, frequency_months: int) -> np.ndarray:
    """The schedule between the serial days ``start`` and ``end`` as a
    read-only int64 array of serial days, memoised on them: the one place
    a schedule is rolled.

    Quote sets and priced positions read their schedules from here, and
    ``generate_schedule`` hands them out as dates, so every bumped or
    re-marked curve set reprices the same swaps, and every snapshot of a
    market quotes the same maturities, without rolling their dates
    again."""
    rolls = _interior_rolls(Date(start), Date(end), frequency_months)
    serials = np.concatenate(([start], rolls, [end]))
    serials.flags.writeable = False
    return serials


@lru_cache(maxsize=4096)
def cached_schedule_accruals(
    start: int, end: int, frequency_months: int, daycount: DayCount
) -> np.ndarray:
    """Year fractions of the consecutive periods of the schedule
    ``cached_schedule_serials`` gives for these serial days, as a
    read-only array, memoised on the schedule's own arguments, so a
    lookup hashes two days rather than every date of the schedule."""
    serials = cached_schedule_serials(start, end, frequency_months)
    taus = year_fractions(serials[:-1], serials[1:], daycount)
    taus.flags.writeable = False
    return taus
