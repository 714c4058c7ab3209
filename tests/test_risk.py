import io
import math

import numpy as np
import pytest

from multicurve import (
    BootstrapError,
    Date,
    DayCount,
    InstrumentKind,
    InstrumentQuote,
    MarketState,
    add_months,
    bump_quote,
    delta_ladder,
    hedge_ratios,
    hedged_pv_fn,
    hedged_residual_ladder,
    instrument_pv,
    project_deltas,
    quote_fingerprint,
    write_hedge_csv,
    write_ladder_csv,
    year_fraction,
)
from multicurve import risk
from multicurve.risk import HEDGE_CSV_HEADER, LADDER_CSV_HEADER
from multicurve.synthetic import default_market, make_ois_quotes, make_quote_sets

REF = Date.of(2026, 6, 15)


def depo(months, rate):
    return InstrumentQuote(
        InstrumentKind.DEPOSIT, months, REF, add_months(REF, months), rate
    )


def fra(start_m, end_m, rate, tenor=6):
    return InstrumentQuote(
        InstrumentKind.FRA, tenor, add_months(REF, start_m), add_months(REF, end_m),
        rate,
    )


class TestMarketState:
    def test_build_order_respects_basis_dependencies(self):
        state = MarketState(REF, make_quote_sets())
        order = state.build_order
        assert order[0] == "discount"
        for label in ("fwd_1M", "fwd_3M", "fwd_12M"):
            assert order.index("fwd_6M") < order.index(label)

    def test_discount_set_is_required(self):
        with pytest.raises(ValueError):
            MarketState(REF, {"fwd_6M": [depo(6, 0.02)]})

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            MarketState(REF, {"discount": [depo(6, 0.02)], "fwd_2M": []})

    def test_basis_without_companion_set_rejected(self):
        sets = make_quote_sets()
        with pytest.raises(ValueError):
            MarketState(REF, {"discount": sets["discount"], "fwd_1M": sets["fwd_1M"]})

    def test_base_curves_are_cached(self):
        state = MarketState(
            REF, {"discount": [depo(6, 0.02), depo(12, 0.021)]}
        )
        assert state.base_curves() is state.base_curves()

    def test_override_leaves_other_curves_alone(self):
        sets = make_quote_sets()
        state = MarketState(
            REF, {"discount": sets["discount"], "fwd_6M": sets["fwd_6M"]}
        )
        q = state.quote_sets["fwd_6M"][-1]
        bumped = state.build({("fwd_6M", 10): bump_quote(q, 1e-4)})
        base = state.base_curves()
        assert np.array_equal(
            bumped["discount"].pillar_dfs, base["discount"].pillar_dfs
        )
        assert not np.array_equal(
            bumped["fwd_6M"].pillar_dfs, base["fwd_6M"].pillar_dfs
        )


class TestDeltaLadder:
    def test_one_entry_per_distinct_quote(self):
        sets = make_quote_sets()
        state = MarketState(
            REF, {"discount": sets["discount"], "fwd_6M": sets["fwd_6M"]}
        )
        n = len(sets["discount"]) + len(sets["fwd_6M"])
        entries = delta_ladder(state, lambda c: c["discount"].discount_time(5.0))
        assert len(entries) == n
        assert all(not e.shared for e in entries)
        assert all(e.error is None for e in entries)
        for e in entries:
            assert e.market_rate == e.quote.implied_rate()
            assert e.time > 0.0

    def test_shared_quote_collapses_to_one_entry(self):
        shared = depo(6, 0.02)
        state = MarketState(
            REF,
            {
                "discount": [shared, depo(12, 0.021)],
                "fwd_6M": [shared, fra(6, 12, 0.025)],
            },
        )
        entries = delta_ladder(state, lambda c: c["discount"].discount_time(1.0))
        assert len(entries) == 3
        joint = [e for e in entries if e.shared]
        assert len(joint) == 1
        assert joint[0].curve_key == "discount+fwd_6M"
        assert set(joint[0].locations) == {("discount", 0), ("fwd_6M", 0)}
        fp = quote_fingerprint(shared)
        assert quote_fingerprint(joint[0].quote) == fp

    def test_failed_bump_yields_nan_not_abort(self):
        # rate chosen so the pillar df sits just inside the solver
        # bracket; the downward bump pushes it out and the solve fails
        end = add_months(REF, 24)
        tau = year_fraction(REF, end, DayCount.ACT_360)
        evil_rate = (1.0 / 1.99995 - 1.0) / tau
        state = MarketState(
            REF, {"discount": [depo(6, 0.02), depo(24, evil_rate)]}
        )
        entries = delta_ladder(state, lambda c: c["discount"].discount_time(1.0))
        by_end = {e.pillar_date: e for e in entries}
        bad = by_end[end]
        assert math.isnan(bad.delta_per_bp)
        assert bad.error is not None
        good = by_end[add_months(REF, 6)]
        assert math.isfinite(good.delta_per_bp)
        assert good.error is None
        # the failed set is remembered as a failure: hedging with the
        # same quote raises again instead of finding a cached curve set
        with pytest.raises(BootstrapError):
            hedge_ratios(
                state, lambda c: c["discount"].discount_time(1.0), [bad.locations[0]]
            )


class TestBuildOnce:
    def test_risk_functions_build_and_price_each_bumped_set_once(self, monkeypatch):
        sets = make_quote_sets()
        state = MarketState(
            REF, {"discount": sets["discount"], "fwd_6M": sets["fwd_6M"]}
        )
        state.base_curves()
        built = []
        real_bootstrap = risk.bootstrap_curve

        def counting_bootstrap(quotes, *args, **kwargs):
            built.append(kwargs["tenor_label"])
            return real_bootstrap(quotes, *args, **kwargs)

        monkeypatch.setattr(risk, "bootstrap_curve", counting_bootstrap)
        q = next(
            q for q in sets["fwd_6M"]
            if q.kind is InstrumentKind.SWAP and q.end == add_months(REF, 84)
        )
        priced = []

        def pv_fn(curves):
            priced.append(1)
            return 1e6 * instrument_pv(q, q.quote, curves["fwd_6M"], curves["discount"])

        n_disc, n_fwd = len(sets["discount"]), len(sets["fwd_6M"])
        # up and down per quote; a discount bump rebuilds both curves,
        # a 6M bump only the 6M curve
        curve_builds = 2 * (2 * n_disc + n_fwd)
        book_values = 2 * (n_disc + n_fwd)

        entries = delta_ladder(state, pv_fn)
        assert all(e.error is None for e in entries)
        assert len(built) == curve_builds
        assert len(priced) == book_values

        locations = [
            (label, i)
            for label in state.build_order
            for i in range(len(state.quote_sets[label]))
        ]
        rows = hedge_ratios(state, pv_fn, locations)
        hedged_residual_ladder(state, pv_fn, rows)
        assert len(built) == curve_builds
        assert len(priced) == book_values
        assert built.count("discount") == 2 * n_disc


class TestResidualReusesHedgeValues:
    def test_each_hedge_valued_once_per_distinct_curve_tuple(self, monkeypatch):
        sets = make_quote_sets()
        quote_sets = {"discount": sets["discount"], "fwd_6M": sets["fwd_6M"]}
        state = MarketState(REF, quote_sets)
        q = next(
            q for q in sets["fwd_6M"]
            if q.kind is InstrumentKind.SWAP and q.end == add_months(REF, 84)
        )

        def pv_fn(curves):
            return 1e6 * instrument_pv(q, q.quote, curves["fwd_6M"], curves["discount"])

        locations = [
            (label, i)
            for label in state.build_order
            for i in range(len(state.quote_sets[label]))
        ]
        delta_ladder(state, pv_fn)
        rows = hedge_ratios(state, pv_fn, locations)
        valued = []
        real_pv = risk.instrument_pv

        def counting_pv(*args, **kwargs):
            valued.append(1)
            return real_pv(*args, **kwargs)

        monkeypatch.setattr(risk, "instrument_pv", counting_pv)
        residual = hedged_residual_ladder(state, pv_fn, rows)
        monkeypatch.undo()

        # a discount hedge reads only the discount curve: one value per
        # discount-bumped curve plus the base one every 6M bump keeps; a
        # 6M hedge reads both curves, and every bumped set changes one
        n_disc, n_fwd = len(sets["discount"]), len(sets["fwd_6M"])
        assert len(valued) == n_disc * (2 * n_disc + 1) + n_fwd * 2 * (n_disc + n_fwd)

        # bit for bit the ladder of the hedged book valued from scratch
        fresh = MarketState(REF, quote_sets)
        want = delta_ladder(fresh, hedged_pv_fn(pv_fn, rows))
        assert [e.delta_per_bp for e in residual] == [e.delta_per_bp for e in want]


class TestProjectDeltas:
    def test_on_grid_times_stay_put(self):
        tgt = [1.0, 2.0, 5.0, 10.0]
        deltas = [10.0, -20.0, 30.0, -40.0]
        res = project_deltas(tgt, deltas, tgt)
        assert res.deltas.tolist() == deltas

    def test_outside_span_clamps_to_ends(self):
        res = project_deltas([0.5, 12.0], [7.0, 9.0], [1.0, 2.0, 10.0])
        assert res.deltas.tolist() == [7.0, 0.0, 9.0]

    def test_midpoint_splits_evenly(self):
        res = project_deltas([1.5], [10.0], [1.0, 2.0])
        assert res.deltas[0] == pytest.approx(5.0, abs=1e-12)
        assert res.deltas[1] == pytest.approx(5.0, abs=1e-12)
        assert res.deltas[0] + res.deltas[1] == 10.0

    def test_totals_conserved_bitwise(self):
        tgt = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 20.0, 30.0])
        for seed in range(5):
            rng = np.random.default_rng(seed)
            times = rng.uniform(0.01, 35.0, size=200)
            deltas = rng.normal(scale=10.0 ** rng.uniform(-6, 6, size=200))
            res = project_deltas(times, deltas, tgt)
            assert res.total_projected == res.total_input

    def test_validation(self):
        with pytest.raises(ValueError):
            project_deltas([1.0], [1.0], [])
        with pytest.raises(ValueError):
            project_deltas([1.0], [1.0], [2.0, 1.0])
        with pytest.raises(ValueError):
            project_deltas([1.0, 2.0], [1.0], [1.0, 2.0])


class TestHedging:
    def setup_method(self):
        sets = make_quote_sets()
        self.state = MarketState(
            REF, {"discount": sets["discount"], "fwd_6M": sets["fwd_6M"]}
        )
        quotes = self.state.quote_sets["fwd_6M"]
        self.i5 = next(
            i for i, q in enumerate(quotes)
            if q.kind is InstrumentKind.SWAP and q.end == add_months(REF, 60)
        )
        self.i10 = next(
            i for i, q in enumerate(quotes)
            if q.kind is InstrumentKind.SWAP and q.end == add_months(REF, 120)
        )
        self.n5, self.n10 = 1.0e6, -4.0e5

    def book_pv(self, curves):
        quotes = self.state.quote_sets["fwd_6M"]
        pv = 0.0
        for n, i in ((self.n5, self.i5), (self.n10, self.i10)):
            q = quotes[i]
            pv += n * instrument_pv(q, q.quote, curves["fwd_6M"], curves["discount"])
        return pv

    def test_ratios_recover_the_notionals(self):
        rows = hedge_ratios(
            self.state, self.book_pv, [("fwd_6M", self.i5), ("fwd_6M", self.i10)]
        )
        assert rows[0].ratio == pytest.approx(self.n5, rel=1e-6)
        assert rows[1].ratio == pytest.approx(self.n10, rel=1e-6)
        for r in rows:
            assert r.own_delta_per_bp != 0.0
            assert r.portfolio_delta_per_bp == pytest.approx(
                r.ratio * r.own_delta_per_bp, rel=1e-12
            )

    def test_hedged_book_is_flat_to_its_pillars(self):
        rows = hedge_ratios(
            self.state, self.book_pv, [("fwd_6M", self.i5), ("fwd_6M", self.i10)]
        )
        hedged = hedged_pv_fn(self.book_pv, rows)
        q5 = self.state.quote_sets["fwd_6M"][self.i5]
        bumped = self.state.build({("fwd_6M", self.i5): bump_quote(q5, 1e-4)})
        naked = self.book_pv(bumped)
        assert abs(naked) > 1.0
        assert abs(hedged(bumped)) <= 1e-4 * abs(naked)

    def test_duplicate_hedges_rejected(self):
        with pytest.raises(ValueError):
            hedge_ratios(
                self.state, self.book_pv,
                [("fwd_6M", self.i5), ("fwd_6M", self.i5)],
            )

    def test_hedge_without_own_sensitivity_rejected(self):
        # the 12M deposit loses its pillar to the 1Y swap, so the curve
        # never depends on it and it cannot serve as a hedge
        state = MarketState(
            REF,
            {
                "discount": [
                    depo(6, 0.02),
                    depo(12, 0.021),
                    InstrumentQuote(
                        InstrumentKind.SWAP, 6, REF, add_months(REF, 12), 0.0205,
                        daycount=DayCount.THIRTY_360,
                    ),
                ]
            },
        )
        with pytest.raises(ValueError):
            hedge_ratios(
                state, lambda c: c["discount"].discount_time(1.0), [("discount", 1)]
            )

    def test_row_name_format(self):
        rows = hedge_ratios(self.state, self.book_pv, [("fwd_6M", self.i5)])
        q = self.state.quote_sets["fwd_6M"][self.i5]
        assert rows[0].name == f"fwd_6M:SWAP:{q.end.iso()}"


class TestCsvReports:
    def test_ladder_csv_layout(self):
        sets = make_quote_sets()
        state = MarketState(REF, {"discount": sets["discount"]})
        entries = delta_ladder(state, lambda c: c["discount"].discount_time(5.0))
        fh = io.StringIO()
        write_ladder_csv(entries, fh, comment="unit test")
        lines = fh.getvalue().splitlines()
        assert lines[0] == "# unit test"
        assert lines[1] == LADDER_CSV_HEADER
        assert len(lines) == 2 + len(entries)
        assert lines[2].startswith("discount,")

    def test_hedge_csv_layout(self):
        sets = make_quote_sets()
        state = MarketState(
            REF, {"discount": sets["discount"], "fwd_6M": sets["fwd_6M"]}
        )
        quotes = state.quote_sets["fwd_6M"]
        i5 = next(
            i for i, q in enumerate(quotes) if q.end == add_months(REF, 60)
        )
        q = quotes[i5]
        pv = lambda c: instrument_pv(q, q.quote, c["fwd_6M"], c["discount"])
        rows = hedge_ratios(state, pv, [("fwd_6M", i5)])
        fh = io.StringIO()
        write_hedge_csv(rows, fh, residuals={rows[0].name: 1.25e-9})
        lines = fh.getvalue().splitlines()
        assert lines[0] == HEDGE_CSV_HEADER
        name, ratio, resid = lines[1].split(",")
        assert name == rows[0].name
        assert float(ratio) == pytest.approx(1.0, rel=1e-9)
        assert float(resid) == 1.25e-9
