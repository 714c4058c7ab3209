import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicurve import (
    BootstrapConfig,
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
    price_position,
    project_deltas,
    quote_fingerprint,
    select_pillar_instruments,
    write_hedge_csv,
    write_ladder_csv,
    year_fraction,
)
from multicurve import bootstrap, risk
from multicurve.risk import HEDGE_CSV_HEADER, LADDER_CSV_HEADER
from multicurve.synthetic import default_market, make_ois_quotes, make_quote_sets
from oracles import (
    memoised_build,
    reference_delta_ladder,
    reference_hedge_ratios,
    reference_hedged_residual_ladder,
    reference_quote_jacobian,
)
from test_acceptance import criterion_08_positions

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

    def test_unsolvable_gradient_yields_nan_not_abort(self):
        state = MarketState(
            REF, {"discount": [depo(6, 0.02), depo(24, 0.021)]}
        )
        base_df = state.base_curves()["discount"].discount_time(2.0)

        def pv_fn(c):
            # undefined once the 2Y discount factor rises above its base
            with np.errstate(invalid="ignore"):
                return float(np.sqrt(base_df - c["discount"].discount_time(2.0)))

        entries = delta_ladder(state, pv_fn)
        assert len(entries) == 2
        for e in entries:
            assert math.isnan(e.delta_per_bp)
            assert "non-finite book sensitivity" in e.error
        with pytest.raises(BootstrapError):
            hedge_ratios(state, pv_fn, [("discount", 1)])

    def test_singular_jacobian_yields_nan_not_abort(self, monkeypatch):
        state = MarketState(
            REF, {"discount": [depo(6, 0.02), depo(24, 0.021)]}
        )
        state.base_curves()
        # compiled residuals that ignore the pillars: J = 0
        monkeypatch.setattr(
            bootstrap._Residuals, "on_curves",
            lambda self, *a, **k: np.zeros(len(self.quotes)),
        )
        entries = delta_ladder(state, lambda c: c["discount"].discount_time(1.0))
        assert all(math.isnan(e.delta_per_bp) for e in entries)
        assert all("singular or non-finite quote Jacobian" in e.error for e in entries)
        assert state.risk_stats()["book_valuations"] == 0

    def test_edge_of_bracket_market_has_finite_deltas(self):
        # the 2Y pillar df sits just inside the solver bracket, so a
        # bumped rebuild fails; the adjoint rebuilds nothing
        end = add_months(REF, 24)
        tau = year_fraction(REF, end, DayCount.ACT_360)
        evil_rate = (1.0 / 1.99995 - 1.0) / tau
        state = MarketState(
            REF, {"discount": [depo(6, 0.02), depo(24, evil_rate)]}
        )
        pv_fn = lambda c: c["discount"].discount_time(1.0)
        entries = delta_ladder(state, pv_fn)
        assert all(math.isfinite(e.delta_per_bp) for e in entries)
        assert all(e.error is None for e in entries)
        oracle = {e.pillar_date: e for e in reference_delta_ladder(state, pv_fn)}
        assert math.isnan(oracle[end].delta_per_bp)
        # where the rebuilds succeed the two agree
        six = add_months(REF, 6)
        got = next(e for e in entries if e.pillar_date == six)
        assert got.delta_per_bp == pytest.approx(
            oracle[six].delta_per_bp, rel=1e-6
        )


def _all_locations(state):
    return [
        (label, i)
        for label in state.build_order
        for i in range(len(state.quote_sets[label]))
    ]


def _two_curve_state_and_book(config=None):
    sets = make_quote_sets()
    state = MarketState(
        REF, {"discount": sets["discount"], "fwd_6M": sets["fwd_6M"]},
        config=config,
    )
    q = next(
        q for q in sets["fwd_6M"]
        if q.kind is InstrumentKind.SWAP and q.end == add_months(REF, 84)
    )
    fra_q = next(q for q in sets["fwd_6M"] if q.kind is InstrumentKind.FRA)

    def pv_fn(curves):
        return (
            1e6 * instrument_pv(q, 0.031, curves["fwd_6M"], curves["discount"])
            - 4e5 * instrument_pv(
                fra_q, 0.02, curves["fwd_6M"], curves["discount"]
            )
        )

    return state, pv_fn


class TestWorkCounts:
    def test_no_rebuild_and_n_plus_one_book_values(self, monkeypatch):
        state, book = _two_curve_state_and_book()
        state.base_curves()
        built = []
        real_bootstrap = risk.bootstrap_curve

        def counting_bootstrap(*args, **kwargs):
            built.append(kwargs["tenor_label"])
            return real_bootstrap(*args, **kwargs)

        monkeypatch.setattr(risk, "bootstrap_curve", counting_bootstrap)
        priced = []

        def pv_fn(curves):
            priced.append(1)
            return book(curves)

        entries = delta_ladder(state, pv_fn)
        rows = hedge_ratios(state, pv_fn, _all_locations(state))
        hedged_residual_ladder(state, pv_fn, rows)
        assert all(e.error is None for e in entries)
        assert built == []
        n = len(state.quote_sets["discount"]) + len(state.quote_sets["fwd_6M"])
        assert state.risk_stats()["pillars"] == n
        assert len(priced) == n + 1
        assert state.risk_stats()["book_valuations"] == n + 1

    def test_ladder_compiles_no_quote(self, monkeypatch):
        # J evaluates the residuals compiled by the base build
        state = MarketState(REF, make_quote_sets())
        state.base_curves()
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(
            bootstrap, "_compile_quote", counting("compile", bootstrap._compile_quote)
        )
        for module in (bootstrap, risk):
            if hasattr(module, "repricing_errors"):
                monkeypatch.setattr(
                    module, "repricing_errors",
                    counting("repricing_errors", module.repricing_errors),
                )
        def pv_fn(c):
            return c["fwd_3M"].discount_time(4.0) - c["discount"].discount_time(2.0)

        entries = delta_ladder(state, pv_fn)
        assert all(e.error is None for e in entries)
        assert calls == []

    def test_hedges_compile_no_quote(self, monkeypatch):
        # each hedge's PV weight comes from the quote set its base build
        # compiled
        state = MarketState(REF, make_quote_sets())

        def pv_fn(c):
            return c["fwd_3M"].discount_time(4.0) - c["discount"].discount_time(2.0)

        delta_ladder(state, pv_fn)
        pillars = [
            (label, i) for label, i in _all_locations(state)
            if state.quote_sets[label][i]
            in select_pillar_instruments(state.quote_sets[label])
        ]
        compiled = []
        real = bootstrap._compile_quote

        def counting(q, *args):
            compiled.append(q)
            return real(q, *args)

        monkeypatch.setattr(bootstrap, "_compile_quote", counting)
        rows = hedge_ratios(state, pv_fn, pillars)
        assert len(rows) == len(pillars) == state.risk_stats()["pillars"]
        assert compiled == []

    def test_residual_ladder_values_no_hedge(self, monkeypatch):
        state, pv_fn = _two_curve_state_and_book()
        rows = hedge_ratios(state, pv_fn, _all_locations(state))
        valued = []
        real_pv = risk.instrument_pv

        def counting_pv(*args, **kwargs):
            valued.append(1)
            return real_pv(*args, **kwargs)

        monkeypatch.setattr(risk, "instrument_pv", counting_pv)
        residual = hedged_residual_ladder(state, pv_fn, rows)
        monkeypatch.undo()
        assert valued == []

        # the adjoint ladder of the hedged book valued in full, hedges
        # and all, on a fresh state
        fresh, _ = _two_curve_state_and_book()
        want = delta_ladder(fresh, hedged_pv_fn(pv_fn, rows))
        gross = sum(abs(e.delta_per_bp) for e in delta_ladder(state, pv_fn))
        for got, ref in zip(residual, want):
            assert abs(got.delta_per_bp - ref.delta_per_bp) <= 1e-6 * gross


def _five_curve_state_and_book(config=None):
    state = MarketState(REF, make_quote_sets(), config=config)
    positions = criterion_08_positions()
    return state, lambda cv: sum(price_position(p, cv)[0] for p in positions)


# The oracle bumps by 0.1 bp: at 1 bp its own truncation error on the
# cubic five-curve book is about 7e-7 of the largest hedge ratio.
ORACLE_BUMP = 1e-5


class TestJacobianMatchesReference:
    """J from the compiled residuals against the column-by-column
    recompile through ``repricing_errors`` on the five-curve market,
    basis swaps against their companion included."""

    @pytest.mark.parametrize("scheme", ["cubic", "loglinear", "linzero"])
    def test_bit_for_bit(self, scheme):
        config = BootstrapConfig(interpolation=scheme)
        state, pv_fn = _five_curve_state_and_book(config)
        matrix, rows, cond, error = state._jacobian()
        want = reference_quote_jacobian(state)
        assert error is None
        assert np.array_equal(matrix, want)
        # the ladder solved on the reference J
        on_reference, _ = _five_curve_state_and_book(config)
        on_reference._jac = (want, rows, cond, error)
        got = [e.delta_per_bp for e in delta_ladder(state, pv_fn)]
        ref = [e.delta_per_bp for e in delta_ladder(on_reference, pv_fn)]
        assert np.array_equal(got, ref)


class TestJacobianMatchesBumpOracle:
    def _compare(self, state, pv_fn):
        build = memoised_build(state)
        want = reference_delta_ladder(state, pv_fn, ORACLE_BUMP, build)
        got = delta_ladder(state, pv_fn)
        gross = sum(abs(e.delta_per_bp) for e in want)
        assert gross > 0.0
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.error is None and w.error is None
            assert (g.locations, g.quote, g.pillar_date, g.time,
                    g.market_rate, g.shared) == (
                w.locations, w.quote, w.pillar_date, w.time,
                w.market_rate, w.shared)
            assert abs(g.delta_per_bp - w.delta_per_bp) <= 1e-6 * gross
        return got, want, gross, build

    def _compare_hedges(self, state, pv_fn, locations):
        _, _, gross, build = self._compare(state, pv_fn)
        rows = hedge_ratios(state, pv_fn, locations)
        ref_rows = reference_hedge_ratios(
            state, pv_fn, locations, ORACLE_BUMP, build
        )
        largest = max(abs(r.ratio) for r in ref_rows)
        for r, w in zip(rows, ref_rows):
            assert (r.set_label, r.index) == (w.set_label, w.index)
            assert abs(r.ratio - w.ratio) <= 1e-6 * largest
        # the rebuilt ladder of the hedged book tests the ratios: the
        # adjoint residual nets each hedge off by construction
        want = reference_hedged_residual_ladder(
            state, pv_fn, rows, ORACLE_BUMP, build
        )
        got = hedged_residual_ladder(state, pv_fn, rows)
        return gross, sum(
            abs(g.delta_per_bp - w.delta_per_bp) for g, w in zip(got, want)
        ), sum(abs(e.delta_per_bp) for e in want)

    @pytest.mark.parametrize("scheme", ["cubic", "loglinear", "linzero"])
    @pytest.mark.parametrize("market", ["two_curve", "five_curve"])
    def test_ladder_hedges_and_residual(self, market, scheme):
        make = {
            "two_curve": _two_curve_state_and_book,
            "five_curve": _five_curve_state_and_book,
        }[market]
        state, pv_fn = make(BootstrapConfig(interpolation=scheme))
        gross, mismatch, residual = self._compare_hedges(
            state, pv_fn, _all_locations(state)
        )
        assert mismatch < 1e-6 * gross
        assert residual < 1e-6 * gross

    def test_shared_quote(self):
        shared = depo(6, 0.02)
        state = MarketState(
            REF,
            {
                "discount": [shared, depo(12, 0.021), depo(24, 0.022)],
                "fwd_6M": [shared, fra(6, 12, 0.025), fra(12, 18, 0.026)],
            },
        )

        def pv_fn(c):
            return 1e6 * (
                c["fwd_6M"].discount_time(1.4) - 0.9 * c["discount"].discount_time(1.7)
            )

        got, _, _, _ = self._compare(state, pv_fn)
        joint = next(e for e in got if e.shared)
        assert set(joint.locations) == {("discount", 0), ("fwd_6M", 0)}
        # partly hedged: the unhedged quotes keep their deltas
        gross, mismatch, residual = self._compare_hedges(
            state, pv_fn, [("discount", 0), ("fwd_6M", 0), ("fwd_6M", 1)]
        )
        assert mismatch < 1e-6 * gross
        assert residual > 0.1 * gross

    def test_dropped_quote_has_zero_delta(self):
        # the 12M deposit loses its pillar to the 1Y swap
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
        pv_fn = lambda c: 1e6 * c["discount"].discount_time(0.8)
        got, want, _, _ = self._compare(state, pv_fn)
        dropped = next(e for e in got if e.quote.kind is InstrumentKind.DEPOSIT
                       and e.pillar_date == add_months(REF, 12))
        assert dropped.delta_per_bp == 0.0
        assert next(e for e in want if e.locations == dropped.locations).delta_per_bp == 0.0
        assert state.risk_stats()["pillars"] == 2


@st.composite
def _projection_case(draw):
    """Strictly increasing targets and (time, delta) pairs with times
    on the knots, inside and outside the span, and deltas over many
    orders of magnitude of either sign."""
    knots = draw(st.lists(
        st.floats(0.0, 40.0, allow_nan=False), min_size=1, max_size=12, unique=True
    ))
    tgt = sorted(knots)
    times = draw(st.lists(
        st.one_of(st.sampled_from(tgt), st.floats(0.0, 60.0, allow_nan=False)),
        max_size=60,
    ))
    deltas = draw(st.lists(
        st.floats(-1e12, 1e12, allow_nan=False),
        min_size=len(times), max_size=len(times),
    ))
    return times, deltas, tgt


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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_projection_case())
    def test_totals_conserved_bitwise_property(self, case):
        times, deltas, tgt = case
        res = project_deltas(times, deltas, tgt)
        assert res.total_projected == res.total_input
        assert np.all(np.isfinite(res.deltas))
        # each entry alone: its two pieces recombine to it exactly
        for t, d in zip(times, deltas):
            assert project_deltas([t], [d], tgt).total_projected == d

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
