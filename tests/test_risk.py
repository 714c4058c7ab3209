import io
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicurve import (
    Book,
    BootstrapConfig,
    BootstrapError,
    Date,
    DayCount,
    InstrumentKind,
    InstrumentQuote,
    LocatedQuery,
    MarketState,
    SwapVolCorrSpec,
    InterpScheme,
    VolCorrSpec,
    YieldCurve,
    add_months,
    basis_term_structure,
    bump_quote,
    clear_caches,
    delta_ladder,
    hedge_ratios,
    hedged_pv_fn,
    hedged_residual_ladder,
    instrument_pv,
    parse_portfolio,
    price_position,
    project_deltas,
    quote_fingerprint,
    select_pillar_instruments,
    write_hedge_csv,
    write_ladder_csv,
    year_fraction,
)
from multicurve import _kernels, bootstrap, risk
from multicurve import basis as basis_mod
from multicurve.risk import HEDGE_CSV_HEADER, LADDER_CSV_HEADER, pricing_curves
from multicurve.synthetic import (
    SyntheticMarket,
    default_market,
    make_ois_quotes,
    make_quote_sets,
)
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

    @pytest.mark.parametrize("label, kind", [
        ("fwd_6M", "SWAP"), ("fwd_6M", "FRA"), ("fwd_3M", "BASIS_SWAP"),
    ])
    def test_quote_on_another_index_tenor_rejected(self, label, kind):
        # formerly built, rolling the quote's float leg every 7 months off
        # the set's own curve
        sets = make_quote_sets()
        quotes = sets[label]
        i = next(i for i, q in enumerate(quotes) if q.kind.value == kind)
        quotes[i] = replace(quotes[i], underlying_tenor=7)
        with pytest.raises(ValueError, match=(
            f"{label} {kind} quote ending {quotes[i].end.iso()} is on the 7M "
            f"index, not the set's {label[4:-1]}M"
        )):
            MarketState(REF, sets)

    def test_ois_quote_fits_any_set(self):
        # an OIS reads the discounting curve alone, whatever its tenor
        ois = [q for q in make_ois_quotes() if q.kind is InstrumentKind.OIS][:2]
        MarketState(REF, {"discount": ois, "fwd_3M": [replace(ois[0], underlying_tenor=6)]})

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
        # a compiled set whose reverse pass sees no curve: every block of
        # the exact J is 0
        monkeypatch.setattr(
            bootstrap._Layout, "log_gradient",
            lambda self, p, key: np.zeros(len(p[key])),
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


def _pillar_locations(state):
    return [
        (label, i) for label, i in _all_locations(state)
        if state.quote_sets[label][i]
        in select_pillar_instruments(state.quote_sets[label])
    ]


def _layout_misses() -> int:
    """Quote sets compiled so far: the misses of the compiled-set memo."""
    return bootstrap._compiled.cache_info().misses


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
    def test_no_rebuild_and_two_book_values_per_pillar(self, monkeypatch):
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
        # an opaque book function is differenced: up and down per pillar
        assert len(priced) == 2 * n
        assert state.risk_stats()["book_valuations"] == 2 * n
        assert state.risk_stats()["gradient"] == "finite_difference"

    def test_compiled_book_is_valued_once_and_builds_no_curve(self, monkeypatch):
        state = MarketState(REF, make_quote_sets())
        state.base_curves()
        book = Book(criterion_08_positions())
        calls = []

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        counting(YieldCurve, "__init__")
        counting(bootstrap._Residuals, "on_curves")
        counting(Book, "__call__")
        counting(Book, "gradient")
        entries = delta_ladder(state, book)
        rows = hedge_ratios(state, book, _pillar_locations(state))
        hedged_residual_ladder(state, book, rows)
        assert all(e.error is None for e in entries)
        assert calls == ["gradient"]
        stats = state.risk_stats()
        assert stats["book_valuations"] == 1
        assert stats["gradient"] == "exact"

    def test_second_book_gradient_locates_nothing(self, monkeypatch):
        # each label's joined read is located already, on the curve the
        # book was valued on: the gradient chains it without a search, and
        # gives what a freshly located join gives, bit for bit
        state = MarketState(REF, make_quote_sets())
        vc, svc = VolCorrSpec.flat(0.2, 0.1, -0.3), SwapVolCorrSpec.flat(0.25, 0.1, 0.4)
        positions = parse_portfolio([
            {"kind": "cap", "forwarding": "fwd_3M", "start": "2026-09-15",
             "end": "2029-09-15", "strike": 0.03, "tenor_months": 3},
            {"kind": "swaption", "forwarding": "fwd_6M", "start": "2027-06-15",
             "end": "2032-06-15", "strike": 0.035},
        ]) + criterion_08_positions()
        book = Book(positions, vc, svc)
        first = state._book_gradient(book)
        calls = []
        real = _kernels.locate
        monkeypatch.setattr(_kernels, "locate", lambda *a: calls.append(1) or real(*a))
        second = state._book_gradient(book)
        assert calls == []
        assert second.tobytes() == first.tobytes()
        monkeypatch.undo()
        base = state.base_curves()
        _, reads = book.gradient(base)
        for label, (q, g) in reads.items():
            rows = np.zeros(len(g), np.intp)
            fresh = base[label].log_jacobian(LocatedQuery(q.t), g, rows, 1)
            assert base[label].log_jacobian(q, g, rows, 1).tobytes() == fresh.tobytes()

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

        compiled = _layout_misses()
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
        assert _layout_misses() == compiled

    def test_hedges_compile_no_quote(self):
        # each hedge's PV weight comes from the quote set its base build
        # compiled
        state = MarketState(REF, make_quote_sets())

        def pv_fn(c):
            return c["fwd_3M"].discount_time(4.0) - c["discount"].discount_time(2.0)

        delta_ladder(state, pv_fn)
        pillars = _pillar_locations(state)
        compiled = _layout_misses()
        rows = hedge_ratios(state, pv_fn, pillars)
        assert len(rows) == len(pillars) == state.risk_stats()["pillars"]
        assert _layout_misses() == compiled

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


def _moved_sets(base_rate: float) -> dict:
    """The default market's quote sets at another base rate: the same
    structure, other values."""
    return make_quote_sets(SyntheticMarket(REF, base_rate=base_rate))


class TestCompiledSetsShared:
    """States whose quote sets share a structure share its compiled
    layouts; each keeps its own results."""

    @staticmethod
    def _results(state, book):
        curves = state.base_curves()
        matrix, _, cond, _ = state._jacobian()
        deltas = [e.delta_per_bp for e in delta_ladder(state, book)]
        return (
            [curves[label].pillar_dfs.tobytes() for label in state.build_order],
            matrix.tobytes(), cond, np.array(deltas).tobytes(),
        )

    def test_earlier_state_unmoved_by_later_states(self):
        book = Book(criterion_08_positions())
        clear_caches()
        cold = self._results(MarketState(REF, _moved_sets(0.011)), book)
        clear_caches()
        early = MarketState(REF, _moved_sets(0.011))
        early.base_curves()
        before = bootstrap._compiled.cache_info()
        # later states on the same structure: other values, another scheme
        later = [
            MarketState(REF, _moved_sets(0.012)),
            MarketState(REF, _moved_sets(0.011),
                        BootstrapConfig(interpolation=InterpScheme.LOG_LINEAR_DISCOUNT)),
        ]
        for state in later:
            self._results(state, book)
        assert bootstrap._compiled.cache_info().misses == before.misses
        # the early state's J and deltas, taken only now, and its curves
        assert self._results(early, book) == cold
        # and a second pass of the later states leaves it alone again
        for state in later:
            state.build({("fwd_3M", 2): bump_quote(state.quote_sets["fwd_3M"][2], 1e-4)})
        assert self._results(early, book) == cold

    def test_states_built_in_threads_match_states_built_alone(self):
        # states on one structure share its layouts and their located
        # lookups; threads switching often, under two schemes, must each
        # still get what a state built alone gets
        schemes = [InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC, InterpScheme.LOG_LINEAR_DISCOUNT]
        rates = (0.009, 0.011)

        def run(scheme, rate):
            state = MarketState(REF, _moved_sets(rate), BootstrapConfig(interpolation=scheme))
            curves = state.base_curves()
            return ([curves[lbl].pillar_dfs.tobytes() for lbl in state.build_order],
                    state._jacobian()[0].tobytes())

        cases = [(s, r) for s in schemes for r in rates]
        want = {case: run(*case) for case in cases}
        got, errors = [], []

        def worker(k):
            try:
                for i in range(3):
                    case = cases[(k + i) % len(cases)]
                    got.append((case, run(*case)))
            except Exception as exc:  # reported below, with the thread's case
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(got) == 12
        for case, result in got:
            assert result == want[case]

    def test_hedged_pv_fn_compiles_each_hedge_once(self):
        state, pv_fn = _two_curve_state_and_book()
        rows = hedge_ratios(state, pv_fn, _all_locations(state))
        curves = state.base_curves()
        hedged = hedged_pv_fn(pv_fn, rows)
        # cold: the book's own two quotes are hedges too, so every quote
        # valued is a hedge, and each compiles on its first valuation alone
        clear_caches()
        pvs = [hedged(curves) for _ in range(3)]
        # one set compiled per hedge, each hedge's: compiling them again hits
        assert _layout_misses() == len(rows)
        for r in rows:
            bootstrap._Residuals([r.quote], REF, *pricing_curves(r.set_label, curves))
        assert _layout_misses() == len(rows)
        assert pvs[1] == pvs[0] and pvs[2] == pvs[0]

    def test_remark_op_after_a_warm_up_compiles_and_rolls_nothing(self, monkeypatch):
        # the benchmark's re-mark: build five curves from a new snapshot and
        # publish the four daily basis tables against discounting
        labels = ("fwd_1M", "fwd_3M", "fwd_6M", "fwd_12M")

        def remark(sets):
            curves = MarketState(REF, sets).base_curves()
            return [
                basis_term_structure(curves[lbl], curves["discount"], int(lbl[4:-1]))
                for lbl in labels
            ]

        clear_caches()
        remark(_moved_sets(0.010))
        counts = {"roll": 0}
        daily = []
        real_roll = basis_mod.roll_months
        real_daily = YieldCurve.daily_discounts

        def counted(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        def counting_daily(curve):
            if curve._days is None:
                daily.append(curve.tenor_label)
            return real_daily(curve)

        compiled = _layout_misses()
        monkeypatch.setattr(basis_mod, "roll_months", counted("roll", real_roll))
        monkeypatch.setattr(YieldCurve, "daily_discounts", counting_daily)
        tables = remark(_moved_sets(0.012))
        monkeypatch.undo()
        assert counts == {"roll": 0} and _layout_misses() == compiled
        assert sorted(daily) == sorted(("discount",) + labels)
        assert all(np.all(np.isfinite(t.mult)) for t in tables)


def _five_curve_state_and_book(config=None):
    state = MarketState(REF, make_quote_sets(), config=config)
    positions = criterion_08_positions()
    return state, lambda cv: sum(price_position(p, cv)[0] for p in positions)


# The oracle bumps by 0.1 bp: at 1 bp its own truncation error on the
# cubic five-curve book is about 7e-7 of the largest hedge ratio.
ORACLE_BUMP = 1e-5


class TestJacobianMatchesReference:
    """The exact J, chained from the compiled sets' blocks, against
    central differences that recompile every column through
    ``repricing_errors`` on the five-curve market, basis swaps against
    their companion included."""

    @pytest.mark.parametrize("scheme", ["cubic", "loglinear", "linzero"])
    def test_gap_falls_as_h_squared(self, scheme):
        config = BootstrapConfig(interpolation=scheme)
        state, _ = _five_curve_state_and_book(config)
        matrix, _, _, error = state._jacobian()
        assert error is None
        gaps = [
            np.abs(matrix - reference_quote_jacobian(state, h)).max()
            for h in (1e-3, 1e-4, 1e-5)
        ]
        # each tenfold smaller step closes the gap about a hundredfold:
        # the differences' truncation, not the derivative, sets it
        for wide, narrow in zip(gaps, gaps[1:]):
            assert 50.0 < wide / narrow < 200.0
        assert gaps[-1] < 1e-7 * np.abs(matrix).max()


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
def _random_market_and_book(draw):
    """A synthetic market with drawn rates and spreads, two curves
    (discount, 6M) or all five, each set thinned to its first quote and
    one to four others; a compiled book of two to four positions of any
    kind on its forwarding curves, with flat vol/corr specs so that every
    option is smooth in the curves; and a scheme."""
    market = SyntheticMarket(
        REF,
        base_rate=draw(st.floats(0.0, 0.03)),
        long_rate=draw(st.floats(0.02, 0.07)),
        mean_reversion_years=draw(st.floats(0.5, 3.0)),
        spread_peak=draw(st.floats(20e-4, 120e-4)),
        spread_decay_years=draw(st.floats(2.0, 6.0)),
    )
    sets = make_quote_sets(market)
    if not draw(st.booleans()):
        sets = {label: sets[label] for label in ("discount", "fwd_6M")}
    for label, quotes in sets.items():
        keep = draw(st.sets(st.integers(1, len(quotes) - 1), min_size=1, max_size=4))
        sets[label] = [quotes[0]] + [quotes[i] for i in sorted(keep)]
    forwarding = sorted(label for label in sets if label != "discount")
    rows = []
    for i in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(
            ("fra", "swap", "caplet", "floorlet", "cap", "floor", "swaption")
        ))
        start = add_months(REF, draw(st.integers(1, 48)))
        months = draw(st.sampled_from((6, 12, 60)))
        row = {
            "kind": kind, "forwarding": draw(st.sampled_from(forwarding)),
            "start": start.iso(), "end": add_months(start, months).iso(),
            "notional": draw(st.sampled_from((1e6, -4e5))),
            "payer": draw(st.booleans()),
        }
        rate = draw(st.floats(0.01, 0.06))
        row["fixed_rate" if kind == "swap" else "strike"] = rate
        rows.append(row)
    book = Book(
        parse_portfolio(rows),
        volcorr=VolCorrSpec.flat(0.25, 0.12, -0.3),
        swap_volcorr=SwapVolCorrSpec.flat(0.22, 0.08, -0.25),
    )
    scheme = draw(st.sampled_from(["cubic", "loglinear", "linzero"]))
    return sets, book, scheme


class TestCompiledBookMatchesBumpOracle:
    """The exact ladder, hedge ratios and hedged residual of compiled
    books against the bump-and-rebuild oracle, within the bounds of
    ``TestJacobianMatchesBumpOracle``, on random markets."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(case=_random_market_and_book())
    def test_ladder_hedges_and_residual(self, case):
        sets, book, scheme = case
        state = MarketState(REF, sets, config=BootstrapConfig(interpolation=scheme))
        gross, mismatch, residual = TestJacobianMatchesBumpOracle()._compare_hedges(
            state, book, _pillar_locations(state)
        )
        assert mismatch < 1e-6 * gross
        assert residual < 1e-6 * gross
        assert state.risk_stats()["book_valuations"] == 1


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
