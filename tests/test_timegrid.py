import calendar
import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_add_months

from multicurve import Date, DayCount, ScheduleSpec, add_months, generate_schedule, year_fraction
from multicurve import timegrid
from multicurve.timegrid import (
    cached_schedule_accruals,
    cached_schedule_serials,
    roll_months,
    year_fractions,
)


class TestDate:
    def test_parse_iso_round_trip(self):
        d = Date.parse("2023-06-15")
        assert d.iso() == "2023-06-15"
        assert (d.year, d.month, d.day) == (2023, 6, 15)

    @pytest.mark.parametrize("text", [20230615, None, ["2023-06-15"], "2023-13-01"])
    def test_parse_rejects_what_is_not_an_iso_string(self, text):
        with pytest.raises(ValueError):
            Date.parse(text)

    def test_of_and_serial_ordering(self):
        a = Date.of(2023, 1, 31)
        b = Date.of(2023, 2, 1)
        assert a < b
        assert b - a == 1
        assert a.add_days(1) == b

    def test_serial_increases_with_calendar_order(self):
        dates = [
            Date.of(2019, 12, 31),
            Date.of(2020, 1, 1),
            Date.of(2020, 2, 29),
            Date.of(2020, 3, 1),
            Date.of(2021, 2, 28),
        ]
        serials = [d.serial for d in dates]
        assert serials == sorted(serials)
        assert len(set(serials)) == len(serials)

    def test_hashable_and_usable_as_key(self):
        assert len({Date.of(2023, 1, 1), Date.parse("2023-01-01")}) == 1


class TestYearFraction:
    def test_same_date_is_zero(self):
        d = Date.of(2023, 6, 15)
        for dc in DayCount:
            assert year_fraction(d, d, dc) == 0.0

    def test_act_365_full_year(self):
        d = Date.of(2023, 1, 1)
        assert year_fraction(d, d.add_days(365), DayCount.ACT_365_FIXED) == 1.0

    def test_act_360_181_days(self):
        d = Date.of(2023, 1, 1)
        assert year_fraction(d, d.add_days(181), DayCount.ACT_360) == pytest.approx(
            181.0 / 360.0, abs=0.0
        )

    def test_thirty_360_us_rule(self):
        # Jan-31 -> Jul-31: both days treated as 30 => exactly half a year
        assert year_fraction(
            Date.of(2023, 1, 31), Date.of(2023, 7, 31), DayCount.THIRTY_360
        ) == pytest.approx(0.5)
        # end day 31 stays when the start day is below 30
        assert year_fraction(
            Date.of(2023, 1, 15), Date.of(2023, 1, 31), DayCount.THIRTY_360
        ) == pytest.approx(16.0 / 360.0)
        # Feb end is not adjusted under the US rule
        assert year_fraction(
            Date.of(2023, 1, 30), Date.of(2023, 2, 28), DayCount.THIRTY_360
        ) == pytest.approx(28.0 / 360.0)

    def test_reversed_interval_raises(self):
        d = Date.of(2023, 6, 15)
        with pytest.raises(ValueError):
            year_fraction(d, d.add_days(-1), DayCount.ACT_360)

    def test_act_additivity(self):
        # splitting an interval never changes an ACT accrual
        import random

        rng = random.Random(20230615)
        base = Date.of(2020, 1, 1)
        for _ in range(200):
            a = rng.randrange(0, 20000)
            b = a + rng.randrange(0, 20000)
            c = b + rng.randrange(0, 20000)
            d1, d2, d3 = base.add_days(a), base.add_days(b), base.add_days(c)
            for dc in (DayCount.ACT_360, DayCount.ACT_365_FIXED):
                whole = year_fraction(d1, d3, dc)
                split = year_fraction(d1, d2, dc) + year_fraction(d2, d3, dc)
                assert math.isclose(whole, split, rel_tol=0.0, abs_tol=1e-12)

    def test_monotone_in_end_date(self):
        start = Date.of(2022, 3, 31)
        for dc in DayCount:
            prev = -1.0
            for n in range(0, 400, 7):
                yf = year_fraction(start, start.add_days(n), dc)
                assert yf >= prev - 1e-15
                prev = yf


class TestAddMonths:
    def test_month_end_clamping(self):
        assert add_months(Date.of(2023, 1, 31), 1) == Date.of(2023, 2, 28)
        assert add_months(Date.of(2024, 1, 31), 1) == Date.of(2024, 2, 29)
        assert add_months(Date.of(2023, 5, 31), 1) == Date.of(2023, 6, 30)

    def test_plain_shift_and_negative(self):
        assert add_months(Date.of(2023, 3, 15), 6) == Date.of(2023, 9, 15)
        assert add_months(Date.of(2023, 3, 15), -3) == Date.of(2022, 12, 15)
        assert add_months(Date.of(2023, 3, 31), -1) == Date.of(2023, 2, 28)

    def test_year_rollover(self):
        assert add_months(Date.of(2023, 11, 30), 3) == Date.of(2024, 2, 29)


class TestMonthRoll:
    """The array roll against the ``calendar.monthrange`` rule on every
    7th day from 1900 to 2200, shifted by -120 to +360 months."""

    SHIFTS = range(-120, 361)

    def setup_method(self):
        self.starts = np.arange(Date.of(1900, 1, 1).serial, Date.of(2200, 12, 31).serial + 1, 7)
        # every Jan-31 and leap Feb-29 in range, beside the weekly grid
        extra = [Date.of(y, 1, 31).serial for y in range(1900, 2201)]
        extra += [Date.of(y, 2, 29).serial for y in range(1900, 2201) if calendar.isleap(y)]
        self.starts = np.concatenate((self.starts, extra))

    def test_matches_monthrange_rule(self):
        # the reference rule on arrays: first day and length of each
        # target month from calendar.monthrange, the day clamped to it
        first_year = 1890
        years = range(first_year, 2232)
        first = np.array([Date.of(y, m, 1).serial for y in years for m in range(1, 13)])
        length = np.array([calendar.monthrange(y, m)[1] for y in years for m in range(1, 13)])
        pydates = [datetime.date.fromordinal(int(s)) for s in self.starts]
        month_index = np.array([12 * (d.year - first_year) + d.month - 1 for d in pydates])
        day = np.array([d.day for d in pydates])
        for k in self.SHIFTS:
            idx = month_index + k
            want = first[idx] + np.minimum(day, length[idx]) - 1
            np.testing.assert_array_equal(roll_months(self.starts, k), want, err_msg=f"shift {k}")

    def test_scalar_is_the_one_element_case(self):
        # the scalar oracle date by date on a strided subsample, Jan-31
        # and Feb-29 starts included
        picks = np.concatenate((self.starts[::97], self.starts[-400:]))
        for i, s in enumerate(picks.tolist()):
            k = self.SHIFTS[(37 * i) % len(self.SHIFTS)]
            want = reference_add_months(Date(s), k)
            assert add_months(Date(s), k) == want
            assert int(roll_months(s, k)) == want.serial

    def test_schedule_rolls_from_the_anchor(self):
        start = Date.of(2024, 1, 31)
        dates = generate_schedule(start, Date.of(2034, 3, 15), 1)
        assert dates[1:-1] == [reference_add_months(start, i) for i in range(1, len(dates) - 1)]
        assert dates[-1] == Date.of(2034, 3, 15)


# serial days within 200k days of 2026-06-15 and month shifts over 30 years
_SERIALS = st.integers(Date.of(2026, 6, 15).serial - 200_000, Date.of(2026, 6, 15).serial + 200_000)
_SHIFTS = st.integers(-37, 360)


class TestMonthTable:
    """``add_months``, ``roll_months`` and the 30/360 fields all read the
    one table of first-of-month serials."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_SERIALS, _SHIFTS)
    def test_scalar_roll_is_the_one_element_array_roll(self, serial, months):
        want = reference_add_months(Date(serial), months)
        assert add_months(Date(serial), months) == want
        assert int(roll_months(serial, months)) == want.serial
        assert roll_months(np.array([serial]), months).tolist() == [want.serial]

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.lists(_SERIALS, min_size=1, max_size=12), st.lists(_SHIFTS, min_size=1, max_size=12))
    def test_array_by_shift_broadcast(self, serials, shifts):
        grid = roll_months(np.array(serials)[:, None], np.array(shifts))
        assert grid.tolist() == [
            [add_months(Date(s), k).serial for k in shifts] for s in serials
        ]

    def test_every_day_finds_its_month(self):
        # the month-length estimate and its one correction against a plain
        # search of the table, over every day from 0001-01-01 to 9999-12-31
        first = timegrid._FIRSTS
        for lo in range(1, timegrid._END, 146097):
            days = np.arange(lo, min(lo + 146097, timegrid._END))
            want = first.searchsorted(days, side="right") - 1
            np.testing.assert_array_equal(timegrid._months_of(days), want)
        assert timegrid._month_of(1) == 0
        assert timegrid._month_of(timegrid._END - 1) == timegrid._LAST

    def test_ymd_matches_the_calendar(self):
        days = np.arange(Date.of(1999, 12, 1).serial, Date.of(2101, 3, 1).serial, 13)
        y, m, d = timegrid._ymd(days)
        want = [datetime.date.fromordinal(s) for s in days.tolist()]
        assert y.tolist() == [w.year for w in want]
        assert m.tolist() == [w.month for w in want]
        assert d.tolist() == [w.day for w in want]

    def test_rolls_outside_the_years_1_to_9999_raise(self):
        assert add_months(Date.of(9999, 11, 30), 1) == Date.of(9999, 12, 30)
        assert add_months(Date.of(1, 2, 28), -1) == Date.of(1, 1, 28)
        with pytest.raises(ValueError, match="outside the years 1 to 9999"):
            add_months(Date.of(9999, 12, 1), 1)
        with pytest.raises(ValueError, match="outside the years 1 to 9999"):
            add_months(Date(0), 1)
        with pytest.raises(ValueError, match="outside the years 1 to 9999"):
            roll_months(np.array([Date.of(2026, 1, 15).serial, Date.of(1, 1, 15).serial]), -1)
        with pytest.raises(ValueError, match="outside the years 1 to 9999"):
            roll_months(np.array([0, 5]), 1)
        assert roll_months(np.array([], dtype=np.int64), 3).size == 0


class TestYearFractions:
    @pytest.mark.parametrize("daycount", list(DayCount))
    def test_bit_identical_to_scalar_rule(self, daycount):
        starts = np.arange(Date.of(2023, 1, 1).serial, Date.of(2025, 12, 31).serial, 3)
        ends = roll_months(starts, 7) + (starts % 5)
        got = year_fractions(starts, ends, daycount)
        want = np.array([
            year_fraction(Date(a), Date(b), daycount)
            for a, b in zip(starts.tolist(), ends.tolist())
        ])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("daycount", list(DayCount))
    def test_end_before_start_raises_as_the_scalar_rule(self, daycount):
        a, b = Date.of(2027, 1, 1), Date.of(2026, 1, 1)
        with pytest.raises(ValueError) as scalar:
            year_fraction(a, b, daycount)
        # the reversed pair sits among valid ones
        starts = [Date.of(2025, 1, 1).serial, a.serial, b.serial]
        ends = [Date.of(2025, 7, 1).serial, b.serial, a.serial]
        with pytest.raises(ValueError) as array:
            year_fractions(starts, ends, daycount)
        assert str(array.value) == str(scalar.value)


class TestGenerateSchedule:
    def test_six_month_span_single_period(self):
        dates = generate_schedule(Date.of(2022, 1, 1), Date.of(2022, 7, 1), 6)
        assert dates == [Date.of(2022, 1, 1), Date.of(2022, 7, 1)]

    def test_one_year_quarterly_has_five_dates(self):
        start = Date.of(2022, 1, 1)
        dates = generate_schedule(start, add_months(start, 12), 3)
        assert len(dates) == 5
        assert dates[0] == start
        assert dates[-1] == add_months(start, 12)

    def test_five_and_a_half_years_monthly(self):
        start = Date.of(2022, 1, 1)
        end = add_months(start, 66)
        dates = generate_schedule(start, end, 1)
        assert len(dates) == 67

    def test_short_final_stub(self):
        dates = generate_schedule(Date.of(2022, 1, 1), Date.of(2022, 8, 15), 3)
        assert dates == [
            Date.of(2022, 1, 1),
            Date.of(2022, 4, 1),
            Date.of(2022, 7, 1),
            Date.of(2022, 8, 15),
        ]

    def test_end_date_always_included(self):
        start = Date.of(2021, 2, 28)
        end = Date.of(2031, 3, 14)
        for freq in (1, 3, 6, 12):
            dates = generate_schedule(start, end, freq)
            assert dates[-1] == end
            serials = [d.serial for d in dates]
            assert serials == sorted(set(serials))

    def test_month_end_anchor_does_not_drift(self):
        # rolls are anchored at the start date, so a Feb clamp must not
        # push every later date off month-end
        dates = generate_schedule(Date.of(2023, 1, 31), Date.of(2023, 5, 31), 1)
        assert dates == [
            Date.of(2023, 1, 31),
            Date.of(2023, 2, 28),
            Date.of(2023, 3, 31),
            Date.of(2023, 4, 30),
            Date.of(2023, 5, 31),
        ]

    def test_frequency_longer_than_span(self):
        dates = generate_schedule(Date.of(2022, 1, 1), Date.of(2022, 2, 1), 12)
        assert dates == [Date.of(2022, 1, 1), Date.of(2022, 2, 1)]

    def test_invalid_inputs(self):
        d = Date.of(2022, 1, 1)
        frequency = "schedule frequency must be a positive number of months"
        with pytest.raises(ValueError, match=frequency):
            generate_schedule(d, d.add_days(100), 0)
        with pytest.raises(ValueError, match=frequency):
            generate_schedule(d, d.add_days(100), -3)
        with pytest.raises(ValueError, match="schedule start 2022-01-01 must precede end 2022-01-01"):
            generate_schedule(d, d, 3)
        with pytest.raises(ValueError, match="schedule start 2022-01-02 must precede end 2022-01-01"):
            generate_schedule(d.add_days(1), d, 3)

    def test_schedule_is_the_cached_serials(self):
        # dates no other test uses, so the first call rolls and the second
        # reads the cache
        start, end = Date.of(2031, 5, 17), Date.of(2043, 8, 17)
        before = cached_schedule_serials.cache_info().misses
        dates = generate_schedule(start, end, 6)
        assert [d.serial for d in dates] == cached_schedule_serials(
            start.serial, end.serial, 6
        ).tolist()
        assert generate_schedule(start, end, 6) == dates
        assert cached_schedule_serials.cache_info().misses - before == 1


class TestScheduleSpec:
    def test_accruals_sum_to_full_interval_under_act(self):
        spec = ScheduleSpec(
            Date.of(2022, 1, 1), Date.of(2027, 1, 1), 6, DayCount.ACT_360
        )
        total = year_fraction(spec.start, spec.end, DayCount.ACT_360)
        assert sum(spec.accruals()) == pytest.approx(total, abs=1e-12)

    def test_dates_matches_generate_schedule(self):
        spec = ScheduleSpec(Date.of(2022, 1, 1), Date.of(2023, 1, 1), 3)
        assert spec.dates() == generate_schedule(spec.start, spec.end, 3)


class TestCachedSchedules:
    """The two schedule caches quote sets and priced positions share."""

    def test_cached_schedule_matches_and_is_shared(self):
        start, end = Date.of(2023, 1, 31), Date.of(2026, 5, 31)
        for months in (1, 3, 6, 12, 60):
            days = cached_schedule_serials(start.serial, end.serial, months)
            want = [d.serial for d in generate_schedule(start, end, months)]
            assert days.dtype == np.int64
            assert days.tolist() == want
            assert not days.flags.writeable
            assert cached_schedule_serials(start.serial, end.serial, months) is days

    def test_cached_accruals_match_year_fractions(self):
        start, end = Date.of(2023, 1, 31), Date.of(2026, 5, 31)
        dates = generate_schedule(start, end, 6)
        for daycount in DayCount:
            taus = cached_schedule_accruals(start.serial, end.serial, 6, daycount)
            want = [year_fraction(a, b, daycount) for a, b in zip(dates[:-1], dates[1:])]
            assert taus.tobytes() == np.array(want).tobytes()
            assert not taus.flags.writeable

    def test_schedule_accruals_keyed_on_the_schedule(self):
        start, end = Date.of(2024, 2, 29), Date.of(2031, 8, 31)
        s, e = start.serial, end.serial
        taus = cached_schedule_accruals(s, e, 3, DayCount.THIRTY_360)
        assert cached_schedule_accruals(s, e, 3, DayCount.THIRTY_360) is taus
        assert cached_schedule_accruals(s, e, 3, DayCount.ACT_360) is not taus
        days = cached_schedule_serials(start.serial, end.serial, 3)
        assert taus.tobytes() == year_fractions(
            days[:-1], days[1:], DayCount.THIRTY_360
        ).tobytes()

    def test_invalid_schedule_still_raises(self):
        d = Date.of(2022, 1, 1)
        with pytest.raises(ValueError):
            cached_schedule_serials(d.serial, d.serial, 3)
        with pytest.raises(ValueError):
            cached_schedule_serials(d.serial, d.serial + 100, 0)
        with pytest.raises(ValueError):
            cached_schedule_accruals(d.serial + 1, d.serial, 3, DayCount.ACT_360)
