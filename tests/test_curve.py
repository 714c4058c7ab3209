import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicurve import Date, DayCount, InterpScheme, LocatedQuery, YieldCurve, add_months
from multicurve import _kernels, curve

REF = Date.of(2023, 6, 15)

ALL_SCHEMES = [
    InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC,
    InterpScheme.LINEAR_ZERO,
    InterpScheme.LOG_LINEAR_DISCOUNT,
]


def make_curve(scheme=InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC, label="discount"):
    pillars = [
        (REF.add_days(90), 0.9930),
        (REF.add_days(180), 0.9855),
        (REF.add_days(365), 0.9700),
        (REF.add_days(730), 0.9380),
        (REF.add_days(1825), 0.8600),
        (REF.add_days(3650), 0.7300),
    ]
    return YieldCurve(REF, pillars, interpolation=scheme, tenor_label=label)


class TestConstruction:
    def test_validation_rejects_bad_pillars(self):
        good = [(REF.add_days(100), 0.99)]
        with pytest.raises(ValueError):
            YieldCurve(REF, [])
        with pytest.raises(ValueError):
            YieldCurve(REF, [(REF, 1.0)])
        with pytest.raises(ValueError):
            YieldCurve(REF, [(REF.add_days(-5), 0.99)])
        with pytest.raises(ValueError):
            YieldCurve(REF, good + [(REF.add_days(100), 0.98)])
        with pytest.raises(ValueError):
            YieldCurve(REF, [(REF.add_days(200), 0.99), (REF.add_days(100), 0.98)])
        with pytest.raises(ValueError):
            YieldCurve(REF, [(REF.add_days(100), -0.5)])
        with pytest.raises(ValueError):
            YieldCurve(REF, [(REF.add_days(100), 0.0)])
        with pytest.raises(ValueError):
            YieldCurve(REF, good, tenor_label="weird")

    def test_internal_clock_is_act365(self):
        c = make_curve()
        d = REF.add_days(500)
        assert c.time(d) == 500.0 / 365.0

    def test_reference_date_discount_is_one(self):
        for scheme in ALL_SCHEMES:
            c = make_curve(scheme)
            assert c.discount_time(0.0) == 1.0


class TestEvaluation:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_pillars_reproduced_bit_for_bit(self, scheme):
        c = make_curve(scheme)
        for d, df in zip(c.pillar_dates, c.pillar_dfs):
            assert c.discount(d) == df

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_chaining_identity(self, scheme):
        c = make_curve(scheme)
        for n1, n2 in [(30, 400), (91, 1200), (365, 3650), (10, 11)]:
            t1, t2 = REF.add_days(n1), REF.add_days(n2)
            lhs = c.discount(t2)
            rhs = c.discount(t1) * c.forward_discount(t1, t2)
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_discount_accepts_date_lists(self):
        c = make_curve()
        dates = [REF.add_days(n) for n in (50, 91, 365, 2000)]
        vec = c.discount(dates)
        assert isinstance(vec, np.ndarray)
        for d, v in zip(dates, vec):
            assert c.discount(d) == v

    def test_discount_before_reference_raises(self):
        c = make_curve()
        with pytest.raises(ValueError):
            c.discount(REF.add_days(-1))
        with pytest.raises(ValueError):
            c.discount_time(-0.01)

    def test_negative_rates_supported(self):
        c = YieldCurve(
            REF,
            [(REF.add_days(365), 1.004), (REF.add_days(730), 1.006)],
        )
        assert c.discount(REF.add_days(365)) == 1.004
        assert c.zero_rate(REF.add_days(365), DayCount.ACT_365_FIXED) < 0.0

    def test_flat_forward_extrapolation_beyond_last_pillar(self):
        c = make_curve()
        t_last = c.time(c.pillar_dates[-1])
        p_last = c.pillar_dfs[-1]
        # instantaneous forward frozen: log-discount decays linearly
        f = -(
            math.log(c.discount_time(t_last + 1.0)) - math.log(p_last)
        )
        for u in (2.0, 5.0, 9.0):
            expected = p_last * math.exp(-f * u)
            assert c.discount_time(t_last + u) == pytest.approx(expected, rel=1e-12)


class TestLocatedQuery:
    T = np.array([0.0, 0.1, 90 / 365, 1.7, 10.0, 12.5])

    def test_matches_ad_hoc_lookups_bit_for_bit(self):
        q = LocatedQuery(self.T)
        for scheme in ALL_SCHEMES:
            c = make_curve(scheme)
            assert c.discount_time(q).tobytes() == c.discount_time(self.T).tobytes()

    def test_locates_once_per_scheme_and_knot_grid(self, monkeypatch):
        c = make_curve()
        # the same knot times (so the same interned array) with other DFs
        moved = YieldCurve(REF, list(zip(c.pillar_dates, c.pillar_dfs**1.1)))
        # another scheme, and other knot times
        other = make_curve(InterpScheme.LINEAR_ZERO)
        shifted = YieldCurve(REF, [(d.add_days(1), p) for d, p in zip(c.pillar_dates, c.pillar_dfs)])
        curves = (c, c, moved, other, shifted)
        want = [curve.discount_time(self.T).tobytes() for curve in curves]
        calls = []
        real = _kernels.locate
        monkeypatch.setattr(_kernels, "locate", lambda *a: calls.append(1) or real(*a))
        q = LocatedQuery(self.T)
        got = [curve.discount_time(q).tobytes() for curve in curves]
        assert got == want
        assert len(calls) == 3

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError, match="before the reference date"):
            LocatedQuery([0.5, -1e-9])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times(self, bad):
        c = make_curve()
        for t in (bad, np.array([2.0, bad]), np.array([[bad]])):
            with pytest.raises(ValueError, match="non-finite time"):
                c.discount_time(t)
        with pytest.raises(ValueError, match="non-finite time"):
            LocatedQuery([bad, 2.0])

    def test_empty_query(self):
        assert make_curve().discount_time(LocatedQuery([])).shape == (0,)


def test_large_ad_hoc_read_keeps_its_temporaries_small():
    # 50,000 times read in one piece would allocate several 400 KB
    # arrays and the cubic's (4, 50,000) gather; read in blocks, the
    # peak is the output and one block's temporaries
    t = np.linspace(0.0, 12.0, 50_000)
    for scheme in ALL_SCHEMES:
        c = make_curve(scheme)
        tracemalloc.start()
        try:
            out = c.discount_time(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == t.shape
        assert peak < 2.5 * t.nbytes, (scheme, peak)


@st.composite
def _grid(draw):
    """A reference date and one to eight pillar dates after it."""
    ref = REF.add_days(draw(st.integers(0, 400)))
    days = draw(st.lists(st.integers(1, 12000), min_size=1, max_size=8, unique=True))
    return ref, [ref.add_days(d) for d in sorted(days)]


def _on(grid, scheme, forwards):
    """The curve on ``grid`` whose log-discounts fall at ``forwards[i]``
    (a continuously compounded rate) up to pillar i."""
    ref, dates = grid
    gaps = np.diff([ref.serial] + [d.serial for d in dates]) / 365.0
    dfs = np.exp(-np.cumsum(gaps * forwards[: len(dates)]))
    return YieldCurve(ref, list(zip(dates, dfs)), interpolation=scheme)


_FORWARDS = st.lists(st.floats(-0.01, 0.08), min_size=8, max_size=8)
_INTERNING = settings(derandomize=True, deadline=None, max_examples=100)


class TestInternedKnotGrids:
    """Curves on one pillar grid share one read-only knot-time array, so a
    located query recognises the grid by identity."""

    @_INTERNING
    @given(_grid(), _FORWARDS, _FORWARDS, st.sampled_from(ALL_SCHEMES), st.sampled_from(ALL_SCHEMES))
    def test_one_array_per_grid(self, grid, fwd_a, fwd_b, scheme_a, scheme_b):
        ref, dates = grid
        a = _on(grid, scheme_a, fwd_a)
        b = _on(grid, scheme_b, fwd_b)
        assert a._ts is b._ts
        # a pillar a day later, or the same dates seen from a day earlier
        later = (ref, dates[:-1] + [dates[-1].add_days(1)])
        earlier = (ref.add_days(-1), dates)
        for other in (later, earlier):
            c = _on(other, scheme_a, fwd_a)
            assert c._ts is not a._ts
            assert c._ts.tobytes() != a._ts.tobytes()

    def test_read_only(self):
        c = make_curve()
        with pytest.raises(ValueError, match="read-only"):
            c._ts[1] = 0.5
        assert make_curve(InterpScheme.LINEAR_ZERO)._ts[1] == 90 / 365

    def test_entry_goes_with_its_curves(self):
        c = YieldCurve(REF, [(REF.add_days(4321), 0.9), (REF.add_days(9876), 0.7)])
        key = c._ts.tobytes()
        assert curve._GRIDS[key] is c._ts
        del c
        gc.collect()
        assert key not in curve._GRIDS

    @_INTERNING
    @given(
        _grid(), _grid(), _FORWARDS, _FORWARDS,
        st.permutations(ALL_SCHEMES),
        st.lists(st.floats(0.0, 40.0), max_size=30),
    )
    def test_one_query_across_grids_and_schemes(self, grid_a, grid_b, fwd_a, fwd_b,
                                                schemes, times):
        # knot times and points between and past them, from both grids
        knots = [(d.serial - ref.serial) / 365.0 for ref, dates in (grid_a, grid_b)
                 for d in dates]
        t = np.array(times + knots)
        q = LocatedQuery(t)
        s1, s2 = schemes[:2]
        for g, scheme, fwd in (
            (grid_a, s1, fwd_a), (grid_a, s2, fwd_a), (grid_b, s1, fwd_b),
            (grid_a, s1, fwd_b), (grid_b, s2, fwd_a), (grid_b, s2, fwd_b),
        ):
            c = _on(g, scheme, fwd)
            assert c.discount_time(q).tobytes() == c.discount_time(t).tobytes()


class TestRates:
    def test_simple_forward_definition(self):
        c = make_curve()
        t1, t2 = REF.add_days(365), REF.add_days(730)
        p1, p2 = c.discount(t1), c.discount(t2)
        tau = (t2 - t1) / 360.0
        expected = (p1 - p2) / (tau * p2)
        assert c.simple_forward(t1, t2) == pytest.approx(expected, rel=1e-15)

    def test_simple_forward_against_known_values(self):
        # two explicit pillars, ACT/360 accrual of exactly 0.5
        c = YieldCurve(
            REF,
            [(REF.add_days(180), 0.99), (REF.add_days(360), 0.969)],
        )
        t1, t2 = REF.add_days(180), REF.add_days(360)
        expected = (0.99 - 0.969) / (0.5 * 0.969)
        assert c.simple_forward(t1, t2) == pytest.approx(expected, rel=1e-15)

    def test_zero_rate_simply_compounded(self):
        # P = 0.98 over half a year: r = (1/0.98 - 1) / 0.5
        c = YieldCurve(REF, [(REF.add_days(180), 0.98)])
        r = c.zero_rate(REF.add_days(180))
        assert r == pytest.approx((1.0 / 0.98 - 1.0) / 0.5, rel=1e-15)
        assert r == pytest.approx(0.04081632653061229, rel=1e-12)
        # and the rate reprices the discount factor
        assert 1.0 / (1.0 + r * 0.5) == pytest.approx(0.98, rel=1e-15)

    def test_zero_rate_needs_future_date(self):
        c = make_curve()
        with pytest.raises(ValueError):
            c.zero_rate(REF)

    def test_simple_forward_needs_ordered_dates(self):
        c = make_curve()
        with pytest.raises(ValueError):
            c.simple_forward(REF.add_days(200), REF.add_days(100))


class TestSampling:
    def test_sample_count_and_grid(self):
        c = make_curve()
        samples = c.sample_forward_curve(6)
        last_start = add_months(c.pillar_dates[-1], -6)
        expected_n = last_start.serial - REF.serial + 1
        assert len(samples) == expected_n
        assert samples[0][0] == REF
        assert samples[-1][0] == last_start

    def test_samples_match_pointwise_forwards(self):
        c = make_curve()
        samples = c.sample_forward_curve(3, stride_days=30)
        for d, f in samples[::5]:
            assert f == pytest.approx(
                c.simple_forward(d, add_months(d, 3)), rel=1e-12
            )

    def test_flat_curve_gives_flat_samples(self):
        # continuously flat curve: rolling simple forwards vary only via
        # month-length wobble in the accrual, a few parts in 1e6
        z = 0.03
        pillars = [
            (REF.add_days(n), math.exp(-z * n / 365.0))
            for n in (30, 91, 182, 365, 730, 1825, 3650)
        ]
        c = YieldCurve(REF, pillars, daycount=DayCount.ACT_365_FIXED)
        rates = np.array([f for _, f in c.sample_forward_curve(3)])
        assert rates.max() - rates.min() < 5e-5
        assert abs(rates.mean() - z) < 2e-4

    def test_stride_thins_grid(self):
        c = make_curve()
        daily = c.sample_forward_curve(6)
        weekly = c.sample_forward_curve(6, stride_days=7)
        assert len(weekly) == (len(daily) + 6) // 7


class TestSchemePhenomenology:
    def test_schemes_agree_at_pillars_only(self):
        curves = {s: make_curve(s) for s in ALL_SCHEMES}
        for d in curves[ALL_SCHEMES[0]].pillar_dates:
            vals = {s: c.discount(d) for s, c in curves.items()}
            assert len(set(vals.values())) == 1
        mid = REF.add_days(550)
        vals = {s: c.discount(mid) for s, c in curves.items()}
        assert len(set(vals.values())) == 3

    def test_linear_zero_kinks_at_pillars_cubic_smooth(self):
        # the sampled forward curve is continuous either way; the
        # scheme artefact is a slope break at pillar dates, so detect it
        # with a second difference straddling each pillar
        kinks = {}
        for scheme in (InterpScheme.LINEAR_ZERO, InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC):
            c = make_curve(scheme)
            by_date = dict(c.sample_forward_curve(3))
            out = []
            for p in c.pillar_dates:
                lo, hi = p.add_days(-1), p.add_days(1)
                if lo in by_date and hi in by_date:
                    out.append(abs(by_date[hi] - 2.0 * by_date[p] + by_date[lo]))
            kinks[scheme] = max(out)
        assert kinks[InterpScheme.LINEAR_ZERO] > 10.0 * kinks[InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC]


class TestSerialization:
    def test_round_trip_preserves_strings(self, tmp_path):
        c = make_curve(label="fwd_3M")
        d1 = c.to_dict()
        c2 = YieldCurve.from_dict(d1)
        assert c2.to_dict() == d1
        assert c2.tenor_label == "fwd_3M"
        assert c2.interpolation == c.interpolation
        assert c2.daycount == c.daycount
        path = tmp_path / "curve.json"
        c.save(path)
        c3 = YieldCurve.load(path)
        assert c3.to_dict() == d1

    def test_serialized_dfs_have_15_significant_digits(self):
        c = YieldCurve(REF, [(REF.add_days(365), 0.9701234567890123)])
        d = c.to_dict()
        assert d["pillars"][0]["df"] == f"{0.9701234567890123:.15g}"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        dfs=st.lists(st.floats(1e-8, 2.0), min_size=1, max_size=12),
        scheme=st.sampled_from(list(InterpScheme)),
    )
    def test_json_round_trip_within_the_15th_digit(self, dfs, scheme):
        c = YieldCurve(
            REF, [(REF.add_days(91 * (i + 1)), df) for i, df in enumerate(dfs)], scheme
        )
        back = YieldCurve.from_dict(json.loads(json.dumps(c.to_dict())))
        x = c.pillar_dfs
        # half a unit in the 15th significant digit, plus the half ulp of
        # reading the decimal back: at most about 5e-15 relative
        digit = 10.0 ** (np.floor(np.log10(x)) - 14)
        assert np.all(np.abs(back.pillar_dfs - x) <= 0.5 * digit + np.spacing(x))
        assert np.all(np.abs(back.pillar_dfs - x) <= 5.2e-15 * x)
        # and the curve read back is a fixed point of the format
        again = YieldCurve.from_dict(json.loads(json.dumps(back.to_dict())))
        assert np.array_equal(again.pillar_dfs, back.pillar_dfs)
        assert again.to_dict() == back.to_dict()
        assert back.interpolation is c.interpolation

    def test_rewrite_over_longer_stale_file_matches_fresh_write(self, tmp_path):
        # saved over in place, a longer old file keeps none of its tail
        fresh, stale = tmp_path / "fresh.json", tmp_path / "stale.json"
        c = make_curve()
        c.save(fresh)
        stale.write_text("x" * 100_000 + "\n")
        c.save(stale)
        assert stale.read_bytes() == fresh.read_bytes()
        assert YieldCurve.load(stale).to_dict() == c.to_dict()

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "c.json"
        make_curve().save(path)
        data = json.loads(path.read_text())
        assert set(data) == {
            "reference_date",
            "tenor_label",
            "daycount",
            "interpolation",
            "pillars",
        }
        assert all(set(p) == {"date", "df"} for p in data["pillars"])
