import io
import math

import numpy as np
import pytest
from oracles import reference_basis_term_structure

from multicurve import (
    BASIS_CSV_HEADER,
    BasisDirection,
    BootstrapConfig,
    Date,
    DayCount,
    InterpScheme,
    YieldCurve,
    additive_basis,
    add_months,
    basis_term_structure,
    curve_from_basis,
    forward_exchange_rate,
    generate_schedule,
    multiplicative_basis,
    pillar_interval_basis,
    swap_forward_exchange_rate,
    write_basis_csv,
    clear_caches,
    year_fraction,
)
from multicurve import basis as basis_mod
from multicurve.risk import MarketState
from multicurve.synthetic import default_market, make_quote_sets, true_pillar_curve

REF = Date.of(2026, 6, 15)


def analytic_pair(n_years=10):
    """Smooth forwarding curve sitting above a smooth discounting curve."""
    m = default_market()
    dates = [add_months(m.reference_date, 6 * k) for k in range(1, 2 * n_years + 1)]
    disc = true_pillar_curve(m, "discount", dates)
    fwd = true_pillar_curve(m, "fwd_6M", dates)
    return fwd, disc


def two_pillar_curve(t1, t2, df1, df2, daycount=DayCount.ACT_360):
    return YieldCurve(REF, [(t1, df1), (t2, df2)], daycount=daycount)


class TestIntervalBasis:
    def test_worked_arithmetic_example(self):
        # dfs pinned directly at the two pillars; 180 ACT/360 days -> tau 0.5
        t1 = REF.add_days(185)
        t2 = t1.add_days(180)
        fwd = two_pillar_curve(t1, t2, 0.990, 0.969)
        disc = two_pillar_curve(t1, t2, 0.991, 0.972)

        expected_mult = (0.972 / 0.969) * (0.990 - 0.969) / (0.991 - 0.972)
        expected_add = 2.0 * (0.990 / 0.969 - 0.991 / 0.972)
        assert multiplicative_basis(fwd, disc, t1, t2) == pytest.approx(
            expected_mult, rel=1e-15
        )
        assert additive_basis(fwd, disc, t1, t2) == pytest.approx(
            expected_add, rel=1e-15
        )
        # sanity on magnitude: a rich basis, about 42.5 bp additively
        assert expected_mult > 1.1
        assert 0.0042 < expected_add < 0.0043

    def test_additive_is_discount_forward_times_excess(self):
        fwd, disc = analytic_pair()
        for months in (3, 7, 14, 33):
            t1 = add_months(REF, months)
            t2 = add_months(t1, 6)
            tau = year_fraction(t1, t2, disc.daycount)
            f_disc = disc.simple_forward(t1, t2)
            ba = multiplicative_basis(fwd, disc, t1, t2)
            ba_add = additive_basis(fwd, disc, t1, t2)
            assert ba_add == pytest.approx(f_disc * (ba - 1.0), rel=1e-13)
            assert tau > 0

    def test_multiplicative_basis_ignores_daycount(self):
        t1, t2 = REF.add_days(100), REF.add_days(300)
        vals = []
        for dc in (DayCount.ACT_360, DayCount.ACT_365_FIXED, DayCount.THIRTY_360):
            fwd = two_pillar_curve(t1, t2, 0.99, 0.96, daycount=dc)
            disc = two_pillar_curve(t1, t2, 0.995, 0.975, daycount=dc)
            vals.append(multiplicative_basis(fwd, disc, t1, t2))
        assert vals[0] == vals[1] == vals[2]

    def test_additive_basis_scales_with_daycount(self):
        t1, t2 = REF.add_days(100), REF.add_days(280)  # 180 calendar days
        curves = {
            dc: (
                two_pillar_curve(t1, t2, 0.99, 0.96, daycount=dc),
                two_pillar_curve(t1, t2, 0.995, 0.975, daycount=dc),
            )
            for dc in (DayCount.ACT_360, DayCount.ACT_365_FIXED)
        }
        add360 = additive_basis(*curves[DayCount.ACT_360], t1, t2)
        add365 = additive_basis(*curves[DayCount.ACT_365_FIXED], t1, t2)
        assert add360 * (180.0 / 360.0) == pytest.approx(
            add365 * (180.0 / 365.0), rel=1e-15
        )

    def test_rejects_mismatched_reference_dates(self):
        fwd = YieldCurve(REF, [(REF.add_days(365), 0.98)])
        disc = YieldCurve(REF.add_days(1), [(REF.add_days(365), 0.98)])
        with pytest.raises(ValueError):
            multiplicative_basis(fwd, disc, REF.add_days(30), REF.add_days(210))

    def test_rejects_degenerate_interval(self):
        fwd, disc = analytic_pair()
        t = REF.add_days(100)
        with pytest.raises(ValueError):
            additive_basis(fwd, disc, t, t)


class TestDegeneracy:
    def test_identical_curves_collapse_to_unit_basis(self):
        _, disc = analytic_pair(5)
        ts = basis_term_structure(disc, disc, tenor_months=6, stride_days=1)
        assert len(ts) > 1500
        assert np.max(np.abs(ts.mult - 1.0)) <= 1e-12
        assert np.max(np.abs(ts.add)) <= 1e-12


class TestTermStructure:
    def test_positive_decaying_shape_on_segmented_market(self):
        fwd, disc = analytic_pair(30)
        ts = basis_term_structure(fwd, disc, tenor_months=6, stride_days=30)
        assert ts.forwarding_label == "fwd_6M"
        assert ts.discounting_label == "discount"
        assert ts.tenor_months == 6
        assert np.all(ts.mult > 1.0)
        assert np.all(ts.add > 0.0)
        # wide at the short end, pinned near the floor at the long end
        assert ts.add[0] > 55e-4
        assert ts.add[-1] < 5e-4
        assert ts.add[0] == max(ts.add)

    def test_interval_bookkeeping(self):
        fwd, disc = analytic_pair(4)
        ts = basis_term_structure(fwd, disc, tenor_months=6, stride_days=7)
        assert all(
            b == add_months(a, 6) for a, b in zip(ts.t1_dates, ts.t2_dates)
        )
        assert ts.t1_dates[0] == REF
        assert ts.t2_dates[-1] <= fwd.pillar_dates[-1]
        steps = np.diff([d.serial for d in ts.t1_dates])
        assert np.all(steps == 7)
        times = ts.fixing_times()
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(
            (ts.t1_dates[-1].serial - REF.serial) / 365.0
        )

    def test_rejects_tenor_longer_than_curves(self):
        fwd, disc = analytic_pair(1)
        with pytest.raises(ValueError):
            basis_term_structure(fwd, disc, tenor_months=36)

    def test_flat_discounting_reports_nan_mult_finite_add(self):
        t1, t2 = REF.add_days(180), REF.add_days(360)
        fwd = two_pillar_curve(t1, t2, 0.99, 0.97)
        disc = two_pillar_curve(t1, t2, 1.0, 1.0)
        ts = basis_term_structure(fwd, disc, tenor_months=6, stride_days=180)
        assert np.isnan(ts.mult).any()
        assert np.all(np.isfinite(ts.add))


class TestSerialDayTables:
    """Daily tables on serial-day arrays against the date-by-date
    reference in ``oracles``, on the bootstrapped default market."""

    @pytest.mark.parametrize("daycount", list(DayCount))
    def test_bit_identical_to_date_by_date(self, daycount):
        curves = MarketState(REF, make_quote_sets()).base_curves()
        base = curves["discount"]
        disc = YieldCurve(
            REF, list(zip(base.pillar_dates, base.pillar_dfs)), base.interpolation,
            daycount, "discount",
        )
        for months in (1, 3, 6, 12):
            fwd = curves[f"fwd_{months}M"]
            for stride in (1, 7):
                got = basis_term_structure(fwd, disc, months, stride)
                t1, t2, mult, add, fwd_disc = reference_basis_term_structure(
                    fwd, disc, months, stride
                )
                assert got.t1_dates == t1 and got.t2_dates == t2
                assert got.mult.tobytes() == mult.tobytes()
                assert got.add.tobytes() == add.tobytes()
                assert got.fwd_disc.tobytes() == fwd_disc.tobytes()


class TestDaySpanRead:
    """At a daily stride a table slices each curve's days, read once over
    the curve's life, and gathers both interval ends from them; the
    values are those of reading the starts and the ends apart."""

    @pytest.mark.parametrize("scheme", list(InterpScheme))
    def test_bit_identical_to_two_reads(self, scheme, monkeypatch):
        clear_caches()
        curves = MarketState(
            REF, make_quote_sets(), BootstrapConfig(interpolation=scheme)
        ).base_curves()
        disc = curves["discount"]
        reads = []
        real = YieldCurve.discount_time

        def counting(curve, t):
            reads.append((curve, np.size(t)))
            return real(curve, t)

        def days(curve):
            return curve.pillar_dates[-1].serial - REF.serial + 1

        read_daily = set()
        for months in (1, 3, 6, 12):
            fwd = curves[f"fwd_{months}M"]
            for stride in (1, 2, 45):
                reads.clear()
                monkeypatch.setattr(YieldCurve, "discount_time", counting)
                got = basis_term_structure(fwd, disc, months, stride)
                first_reads = list(reads)
                reads.clear()
                again = basis_term_structure(fwd, disc, months, stride)
                monkeypatch.undo()
                want = basis_mod._interval_basis(fwd, disc, got.t1, got.t2)
                for a, b in zip((got.mult, got.add, got.fwd_disc), want):
                    assert a.tobytes() == b.tobytes()
                for a, b in zip((again.mult, again.add, again.fwd_disc), want):
                    assert a.tobytes() == b.tobytes()
                span = int(got.t2[-1] - got.t1[0]) + 1
                if span <= 2 * len(got):
                    # each curve's days are read on its first such table
                    # alone, and the same table again reads nothing
                    assert first_reads == [
                        (c, days(c)) for c in (fwd, disc) if c not in read_daily
                    ]
                    read_daily |= {fwd, disc}
                    assert reads == []
                else:
                    assert stride > 1
                    assert first_reads == reads == [
                        (c, len(got)) for c in (fwd, fwd, disc, disc)
                    ]
                # the same grid, rolled once
                assert again.t1 is got.t1 and again.t2 is got.t2

    def test_four_tables_read_each_curve_once(self, monkeypatch):
        clear_caches()
        curves = MarketState(REF, make_quote_sets()).base_curves()
        disc = curves["discount"]
        reads, rolls = [], []
        real_read, real_roll = YieldCurve.discount_time, basis_mod.roll_months
        monkeypatch.setattr(
            YieldCurve, "discount_time",
            lambda curve, t: reads.append(curve) or real_read(curve, t),
        )
        monkeypatch.setattr(
            basis_mod, "roll_months", lambda *a: rolls.append(1) or real_roll(*a)
        )
        labels = ("fwd_1M", "fwd_3M", "fwd_6M", "fwd_12M")
        tables = [basis_term_structure(curves[lbl], disc, int(lbl[4:-1])) for lbl in labels]
        # five reads, one per curve, where each table read two curves
        assert reads == [curves["fwd_1M"], disc] + [curves[lbl] for lbl in labels[1:]]
        cold_rolls = len(rolls)
        assert cold_rolls == 2 * len(labels)
        # the grids are kept: new curves on the same span roll nothing
        fresh = MarketState(REF, make_quote_sets()).base_curves()
        for lbl in labels:
            basis_term_structure(fresh[lbl], fresh["discount"], int(lbl[4:-1]))
        assert len(rolls) == cold_rolls
        monkeypatch.undo()
        for c in curves.values():
            assert not c.daily_discounts().flags.writeable
        for t in tables:
            assert not t.t1.flags.writeable and not t.t2.flags.writeable
            with pytest.raises(ValueError):
                t.t1[0] = 0

    def test_daily_discounts_are_the_curve_read_at_each_day(self):
        fwd, disc = analytic_pair(5)
        days = disc.daily_discounts()
        assert disc.daily_discounts() is days
        n = disc.pillar_dates[-1].serial - REF.serial
        assert len(days) == n + 1
        want = disc.discount_time(np.arange(n + 1) / 365.0)
        assert days.tobytes() == want.tobytes()
        assert days[0] == 1.0


class TestPillarIntervalBasis:
    def test_chains_from_reference(self):
        fwd, disc = analytic_pair(5)
        grid = pillar_interval_basis(fwd, disc, fwd.pillar_dates)
        assert grid.t1_dates[0] == REF
        assert grid.t1_dates[1:] == grid.t2_dates[:-1]
        assert grid.tenor_months is None
        assert len(grid) == len(fwd.pillar_dates)

    def test_matches_interval_functions(self):
        fwd, disc = analytic_pair(5)
        dates = fwd.pillar_dates[:6]
        grid = pillar_interval_basis(fwd, disc, dates)
        for i, (a, b) in enumerate(zip(grid.t1_dates, grid.t2_dates)):
            assert grid.mult[i] == pytest.approx(
                multiplicative_basis(fwd, disc, a, b), rel=1e-14
            )
            assert grid.add[i] == pytest.approx(
                additive_basis(fwd, disc, a, b), rel=1e-14
            )

    def test_zero_discount_forward_raises(self):
        t1, t2 = REF.add_days(180), REF.add_days(360)
        fwd = two_pillar_curve(t1, t2, 0.99, 0.97)
        disc = two_pillar_curve(t1, t2, 1.0, 1.0)
        with pytest.raises(ZeroDivisionError):
            pillar_interval_basis(fwd, disc, [t1, t2])

    def test_needs_at_least_one_date(self):
        fwd, disc = analytic_pair(2)
        with pytest.raises(ValueError):
            pillar_interval_basis(fwd, disc, [])


class TestReconstruction:
    def test_forwarding_round_trip_on_pillars(self):
        fwd, disc = analytic_pair(10)
        grid = pillar_interval_basis(fwd, disc, fwd.pillar_dates)
        rebuilt = curve_from_basis(disc, grid, BasisDirection.DERIVE_FORWARDING)
        assert rebuilt.pillar_dates == fwd.pillar_dates
        err = np.abs(rebuilt.pillar_dfs - fwd.pillar_dfs)
        assert np.max(err) <= 1e-14

    def test_discount_round_trip_on_pillars(self):
        fwd, disc = analytic_pair(10)
        grid = pillar_interval_basis(fwd, disc, fwd.pillar_dates)
        rebuilt = curve_from_basis(fwd, grid, BasisDirection.DERIVE_DISCOUNT)
        err = np.abs(rebuilt.pillar_dfs - disc.pillar_dfs)
        assert np.max(err) <= 1e-14

    def test_single_step_recursion_arithmetic(self):
        # one interval [t0, T]: P_f = 1 / (1 + BA * (1/P_d - 1))
        t = REF.add_days(365)
        fwd = YieldCurve(REF, [(t, 0.96)])
        disc = YieldCurve(REF, [(t, 0.98)])
        grid = pillar_interval_basis(fwd, disc, [t])
        ba = grid.mult[0]
        expected = 1.0 / (1.0 + ba * (1.0 / 0.98 - 1.0))
        rebuilt = curve_from_basis(disc, grid, BasisDirection.DERIVE_FORWARDING)
        assert rebuilt.pillar_dfs[0] == pytest.approx(expected, rel=1e-15)
        assert rebuilt.pillar_dfs[0] == pytest.approx(0.96, rel=1e-14)


class TestExchangeRates:
    def test_spot_ratio(self):
        fwd, disc = analytic_pair()
        d = REF.add_days(777)
        assert forward_exchange_rate(fwd, disc, d) == pytest.approx(
            fwd.discount(d) / disc.discount(d), rel=1e-15
        )
        # forwarding curve below discounting in value => X < 1
        assert forward_exchange_rate(fwd, disc, d) < 1.0

    def test_swap_ratio_is_annuity_ratio(self):
        fwd, disc = analytic_pair()
        start, end = add_months(REF, 12), add_months(REF, 72)
        sched = generate_schedule(start, end, 12)
        y = swap_forward_exchange_rate(fwd, disc, sched)

        def ann(curve):
            total = 0.0
            for prev, d in zip(sched[:-1], sched[1:]):
                total += year_fraction(prev, d, curve.daycount) * curve.discount(d)
            return total

        assert y == pytest.approx(ann(fwd) / ann(disc), rel=1e-13)


class TestCsv:
    def test_layout_and_comment(self):
        fwd, disc = analytic_pair(3)
        ts = basis_term_structure(fwd, disc, tenor_months=6, stride_days=91)
        out = io.StringIO()
        write_basis_csv(ts, out, comment="demo run")
        lines = out.getvalue().splitlines()
        assert lines[0] == "# demo run"
        assert lines[1] == BASIS_CSV_HEADER
        assert len(lines) == 2 + len(ts)
        first = lines[2].split(",")
        assert first[0] == ts.t1_dates[0].iso()
        assert float(first[3]) == pytest.approx(ts.mult[0], rel=1e-10)
        assert float(first[4]) == pytest.approx(ts.add[0] * 1e4, abs=1e-7)
