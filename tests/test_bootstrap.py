import io
import logging
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    reference_bootstrap_curve,
    reference_eval_linear_zero,
    reference_eval_log_cubic,
    reference_eval_log_linear,
    reference_fair_quote,
    reference_instrument_pv,
    reference_repricing_errors,
)

from multicurve import (
    BasisDirection,
    BootstrapConfig,
    BootstrapError,
    Date,
    DayCount,
    InstrumentKind,
    InstrumentQuote,
    InterpScheme,
    YieldCurve,
    add_months,
    bootstrap_curve,
    bump_quote,
    curve_from_basis,
    fair_quote,
    instrument_pv,
    pillar_interval_basis,
    read_quotes_csv,
    repricing_errors,
    select_pillar_instruments,
    write_quotes_csv,
    year_fraction,
)
from multicurve import _kernels, bootstrap
from multicurve.risk import MarketState, pricing_curves
from multicurve.synthetic import (
    SyntheticMarket,
    default_market,
    make_ois_quotes,
    make_quote_sets,
)

REF = Date.of(2026, 6, 15)


def depo(months, rate):
    return InstrumentQuote(
        InstrumentKind.DEPOSIT, months, REF, add_months(REF, months), rate
    )


def swap(years, rate, float_months=6):
    return InstrumentQuote(
        InstrumentKind.SWAP, float_months, REF, add_months(REF, 12 * years), rate,
        fixed_frequency=12, daycount=DayCount.THIRTY_360,
    )


class TestClosedFormPillars:
    def test_single_deposit(self):
        q = depo(6, 0.02)
        curve = bootstrap_curve([q], reference_date=REF)
        tau = year_fraction(q.start, q.end, DayCount.ACT_360)
        assert curve.pillar_dfs[0] == pytest.approx(1.0 / (1.0 + 0.02 * tau), rel=1e-14)
        assert curve.pillar_dates == [q.end]

    def test_one_year_swap_self_discounted(self):
        # one annual 30/360 fixed period: par = (1 - P) / P, so P = 1/(1+K)
        curve = bootstrap_curve([swap(1, 0.02)], reference_date=REF)
        assert curve.pillar_dfs[0] == pytest.approx(1.0 / 1.02, rel=1e-14)

    def test_fra_extends_deposit(self):
        d6 = depo(6, 0.02)
        fra = InstrumentQuote(
            InstrumentKind.FRA, 6, add_months(REF, 6), add_months(REF, 12), 0.025
        )
        curve = bootstrap_curve([d6, fra], reference_date=REF)
        tau1 = year_fraction(d6.start, d6.end, DayCount.ACT_360)
        tau2 = year_fraction(fra.start, fra.end, DayCount.ACT_360)
        df6 = 1.0 / (1.0 + 0.02 * tau1)
        df12 = df6 / (1.0 + 0.025 * tau2)
        assert curve.pillar_dfs[0] == pytest.approx(df6, rel=1e-14)
        assert curve.pillar_dfs[1] == pytest.approx(df12, rel=1e-14)

    def test_futures_price_quote_matches_fra(self):
        d6 = depo(6, 0.02)
        start, end = add_months(REF, 6), add_months(REF, 12)
        fra = InstrumentQuote(InstrumentKind.FRA, 6, start, end, 0.025)
        fut = InstrumentQuote(
            InstrumentKind.FUTURES, 6, start, end, 100.0 * (1.0 - 0.025)
        )
        via_fra = bootstrap_curve([d6, fra], reference_date=REF)
        via_fut = bootstrap_curve([d6, fut], reference_date=REF)
        assert via_fut.pillar_dfs[1] == pytest.approx(via_fra.pillar_dfs[1], rel=1e-14)

    def test_futures_convexity_shifts_the_forward(self):
        d6 = depo(6, 0.02)
        start, end = add_months(REF, 6), add_months(REF, 12)
        fut = InstrumentQuote(
            InstrumentKind.FUTURES, 6, start, end, 97.5, convexity=15e-4
        )
        curve = bootstrap_curve([d6, fut], reference_date=REF)
        f = curve.simple_forward(start, end, DayCount.ACT_360)
        assert f == pytest.approx(0.025 - 15e-4, rel=1e-12)


class TestOvernightSet:
    def test_recovers_analytic_discounting(self):
        m = default_market()
        quotes = make_ois_quotes(m)
        curve = bootstrap_curve(quotes, reference_date=REF, tenor_label="discount")
        resid = repricing_errors(quotes, curve)
        assert np.max(np.abs(resid)) <= 1e-12
        # annuity dates of the first three OIS are all solved pillars,
        # so those discount factors are exact, not just repricing-exact
        for years in (1, 2, 3):
            d = add_months(REF, 12 * years)
            i = curve.pillar_dates.index(d)
            assert curve.pillar_dfs[i] == pytest.approx(m.discount_df(d), rel=5e-15)
        # beyond, annuity dates fall between sparse pillars and are
        # interpolated, so the recovered curve drifts slightly
        got = np.array(curve.pillar_dfs)
        want = np.array([m.discount_df(d) for d in curve.pillar_dates])
        assert np.max(np.abs(got / want - 1.0)) <= 5e-4


class TestForwardingAgainstDiscount:
    def setup_method(self):
        self.sets = make_quote_sets()
        self.disc = bootstrap_curve(
            self.sets["discount"], reference_date=REF, tenor_label="discount"
        )

    def test_dual_curve_repricing(self):
        quotes = self.sets["fwd_6M"]
        fwd = bootstrap_curve(
            quotes, discount_curve=self.disc, reference_date=REF, tenor_label="fwd_6M"
        )
        resid = repricing_errors(quotes, fwd, self.disc)
        assert np.max(np.abs(resid)) <= 1e-12
        assert fwd.tenor_label == "fwd_6M"

    def test_first_pillar_is_discounting_free(self):
        quotes = self.sets["fwd_6M"]
        fwd = bootstrap_curve(
            quotes, discount_curve=self.disc, reference_date=REF, tenor_label="fwd_6M"
        )
        d6 = quotes[0]
        tau = year_fraction(d6.start, d6.end, DayCount.ACT_360)
        assert fwd.pillar_dfs[0] == pytest.approx(
            1.0 / (1.0 + d6.quote * tau), rel=1e-14
        )

    def test_basis_swaps_need_companion(self):
        fwd6 = bootstrap_curve(
            self.sets["fwd_6M"], discount_curve=self.disc,
            reference_date=REF, tenor_label="fwd_6M",
        )
        quotes = self.sets["fwd_1M"]
        with pytest.raises(BootstrapError):
            bootstrap_curve(quotes, discount_curve=self.disc, reference_date=REF)
        fwd1 = bootstrap_curve(
            quotes, discount_curve=self.disc, companions={6: fwd6},
            reference_date=REF, tenor_label="fwd_1M",
        )
        resid = repricing_errors(quotes, fwd1, self.disc, companions={6: fwd6})
        assert np.max(np.abs(resid)) <= 1e-12

    def test_all_interpolation_schemes_close(self):
        for scheme in InterpScheme:
            cfg = BootstrapConfig(interpolation=scheme)
            curve = bootstrap_curve(
                self.sets["discount"], config=cfg, reference_date=REF,
                tenor_label="discount",
            )
            resid = repricing_errors(self.sets["discount"], curve)
            assert np.max(np.abs(resid)) <= 1e-12, scheme


class TestIterations:
    """``max_iterations`` caps the Newton iterations: the seed alone does
    not reprice the quotes, and the iterations close them."""

    def test_cubic_needs_iterations(self):
        quotes = make_ois_quotes()
        cfg = BootstrapConfig(max_iterations=0)
        with pytest.raises(BootstrapError, match="after 0 Newton iterations"):
            bootstrap_curve(quotes, config=cfg, reference_date=REF)

    def test_local_scheme_closes(self):
        quotes = make_ois_quotes()
        cfg = BootstrapConfig(interpolation=InterpScheme.LOG_LINEAR_DISCOUNT)
        curve = bootstrap_curve(quotes, config=cfg, reference_date=REF)
        assert np.max(np.abs(repricing_errors(quotes, curve))) <= 1e-12


class TestSeededBuild:
    """A rebuild seeded from a nearby curve closes like one seeded from
    the discounting curve or the quotes' own rates."""

    def setup_method(self):
        self.sets = make_quote_sets()

    def _assert_same_build(self, quotes, base, **kwargs):
        cold = bootstrap_curve(quotes, reference_date=REF, **kwargs)
        warm = bootstrap_curve(quotes, reference_date=REF, start_curve=base, **kwargs)
        disc = kwargs.get("discount_curve")
        for curve in (cold, warm):
            assert np.max(np.abs(repricing_errors(quotes, curve, disc))) <= 1e-12
        assert warm.pillar_dates == cold.pillar_dates
        # both solves stop once every quote reprices within 1e-12, which
        # pins a long pillar's discount factor only to about 1e-11
        np.testing.assert_allclose(warm.pillar_dfs, cold.pillar_dfs, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("scheme", list(InterpScheme))
    def test_bumped_discount_set(self, scheme):
        cfg = BootstrapConfig(interpolation=scheme)
        quotes = self.sets["discount"]
        base = bootstrap_curve(quotes, config=cfg, reference_date=REF)
        for k in (0, len(quotes) // 2, len(quotes) - 1):
            bumped = list(quotes)
            bumped[k] = bump_quote(quotes[k], 1e-4)
            self._assert_same_build(bumped, base, config=cfg)

    def test_bumped_forwarding_set(self):
        disc = bootstrap_curve(self.sets["discount"], reference_date=REF)
        quotes = self.sets["fwd_6M"]
        base = bootstrap_curve(quotes, discount_curve=disc, reference_date=REF)
        for k in range(len(quotes)):
            bumped = list(quotes)
            bumped[k] = bump_quote(quotes[k], -1e-4)
            self._assert_same_build(bumped, base, discount_curve=disc)

    def test_distant_seed_widens_to_the_full_bracket(self):
        flat = YieldCurve(
            REF, [(add_months(REF, 12 * y), math.exp(-0.25 * y)) for y in (1, 10, 40)]
        )
        self._assert_same_build(self.sets["discount"], flat)

    def test_seed_does_not_rescue_infeasible_quotes(self):
        base = bootstrap_curve([depo(6, 0.02)], reference_date=REF)
        with pytest.raises(BootstrapError):
            bootstrap_curve([depo(6, -3.0)], reference_date=REF, start_curve=base)


class TestConfig:
    @pytest.mark.parametrize("scheme", list(InterpScheme))
    def test_interpolation_name_builds_like_the_enum(self, scheme):
        quotes = make_quote_sets()["discount"]
        by_enum = bootstrap_curve(
            quotes, BootstrapConfig(interpolation=scheme), reference_date=REF
        )
        by_name = bootstrap_curve(
            quotes, BootstrapConfig(interpolation=scheme.value), reference_date=REF
        )
        assert BootstrapConfig(interpolation=scheme.value).interpolation is scheme
        assert by_name.pillar_dfs.tobytes() == by_enum.pillar_dfs.tobytes()

    def test_unknown_interpolation_name(self):
        with pytest.raises(ValueError):
            BootstrapConfig(interpolation="spline")


@lru_cache(maxsize=None)
def _base_state(scheme: InterpScheme) -> MarketState:
    state = MarketState(REF, make_quote_sets(), BootstrapConfig(interpolation=scheme))
    state.base_curves()
    return state


@st.composite
def _bumped_set(draw):
    """A scheme, a curve label of the default market and its quote set
    with one to three quotes moved by 1 bp to 5% either way."""
    scheme = draw(st.sampled_from(list(InterpScheme)))
    sets = _base_state(scheme).quote_sets
    label = draw(st.sampled_from(list(sets)))
    quotes = list(sets[label])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(quotes) - 1))
        size = draw(st.floats(1e-4, 5e-2)) * draw(st.sampled_from((-1.0, 1.0)))
        quotes[i] = bump_quote(quotes[i], size)
    return scheme, label, quotes


def _build(scheme, label, quotes, seeded):
    state = _base_state(scheme)
    base = state.base_curves()
    disc, companions = pricing_curves(label, base)
    curve = bootstrap_curve(
        quotes, state.config_for(label), discount_curve=disc,
        companions=companions, reference_date=REF,
        start_curve=base[label] if seeded else None,
    )
    return curve, disc, companions


_PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


class TestBumpedSetProperties:
    """Whatever the seed, a bumped quote set builds a curve that closes
    or fails loudly, and the seed does not change the answer."""

    @_PROPERTY
    @given(_bumped_set())
    def test_closes_or_raises(self, case):
        scheme, label, quotes = case
        try:
            curve, disc, companions = _build(scheme, label, quotes, seeded=False)
        except BootstrapError:
            return
        assert np.all(np.isfinite(curve.pillar_dfs))
        resid = repricing_errors(quotes, curve, disc, companions)
        assert np.max(np.abs(resid)) <= 1e-12

    @_PROPERTY
    @given(_bumped_set())
    def test_seed_does_not_change_the_build(self, case):
        built = []
        for seeded in (False, True):
            try:
                built.append(_build(*case, seeded=seeded)[0].pillar_dfs)
            except BootstrapError:
                built.append(None)
        if built[0] is None or built[1] is None:
            assert built[0] is None and built[1] is None
            return
        np.testing.assert_allclose(built[1], built[0], rtol=1e-10, atol=0.0)


def _jittered_sets(base_rate, long_rate, jitter, seed):
    """Synthetic quote sets with every quote moved by up to ``jitter``."""
    rng = np.random.default_rng(seed)
    market = SyntheticMarket(REF, base_rate=base_rate, long_rate=long_rate)
    return {
        label: [bump_quote(q, rng.uniform(-jitter, jitter)) for q in quotes]
        for label, quotes in make_quote_sets(market).items()
    }


def _reference_curves(sets, config, max_sweeps=8):
    """All curves of the sets by the Gauss-Seidel reference, in build order."""
    state = MarketState(REF, sets, config)
    curves = {}
    for label in state.build_order:
        disc, companions = pricing_curves(label, curves)
        curves[label] = reference_bootstrap_curve(
            state.quote_sets[label], config, disc, companions, REF, label,
            max_sweeps=max_sweeps,
        )
    return curves


def _assert_close_dfs(got, want, rtol):
    assert got.keys() == want.keys()
    for label in want:
        assert got[label].pillar_dates == want[label].pillar_dates
        np.testing.assert_allclose(
            got[label].pillar_dfs, want[label].pillar_dfs, rtol=rtol, atol=0.0,
            err_msg=label,
        )


class TestNewtonAgainstGaussSeidel:
    """The Newton solve against the pillar-by-pillar brentq and
    Gauss-Seidel solver kept in ``oracles``."""

    @pytest.mark.parametrize("scheme", list(InterpScheme))
    def test_default_market(self, scheme):
        cfg = BootstrapConfig(interpolation=scheme)
        sets = make_quote_sets()
        newton = MarketState(REF, sets, cfg).base_curves()
        _assert_close_dfs(newton, _reference_curves(sets, cfg), rtol=1e-10)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        st.floats(-0.01, 0.12), st.floats(-0.005, 0.15), st.floats(0.0, 300e-4),
        st.integers(0, 2**30),
    )
    def test_builds_every_market_the_reference_builds(self, base, long_, jitter, seed):
        # steep cubic markets: base rate -1% to 12%, long rate -0.5% to
        # 15%, every quote jittered by up to 300 bp
        sets = _jittered_sets(base, long_, jitter, seed)
        cfg = BootstrapConfig()
        try:
            reference = _reference_curves(sets, cfg)
        except BootstrapError:
            return
        newton = MarketState(REF, sets, cfg).base_curves()
        # both stop once every quote reprices within 1e-12, which pins a
        # long pillar of a steep curve only to about 1e-10
        _assert_close_dfs(newton, reference, rtol=1e-9)

    def test_market_the_reference_rejects_now_builds(self):
        # after 8 sweeps the reference still misses by 2.4e-8; it closes
        # only with 30
        sets = _jittered_sets(
            0.09710511357026187, 0.11954446836520088, 0.00981504623797967, 678556218
        )
        cfg = BootstrapConfig()
        with pytest.raises(BootstrapError, match="after 8 sweeps"):
            _reference_curves(sets, cfg)
        state = MarketState(REF, sets, cfg)
        newton = state.base_curves()
        for label in state.build_order:
            disc, companions = pricing_curves(label, newton)
            resid = repricing_errors(state.quote_sets[label], newton[label], disc, companions)
            assert np.max(np.abs(resid)) <= 1e-12, label
        _assert_close_dfs(newton, _reference_curves(sets, cfg, max_sweeps=30), rtol=1e-9)


class TestSplitKernelsInTheSolve:
    """The residuals locate their batch once and evaluate it on every
    Newton step; the fused single-pass kernels in ``oracles`` build the
    same pillars."""

    FUSED = {
        "eval_log_cubic": reference_eval_log_cubic,
        "eval_log_linear": reference_eval_log_linear,
        "eval_linear_zero": reference_eval_linear_zero,
    }

    @pytest.mark.parametrize("scheme", list(InterpScheme))
    def test_five_curve_pillars_bit_for_bit(self, scheme, monkeypatch):
        cfg = BootstrapConfig(interpolation=scheme)
        sets = make_quote_sets()
        split = MarketState(REF, sets, cfg).base_curves()
        calls = []
        for name, fused in self.FUSED.items():
            def on_knots(t, loc, dfs, *knots, fused=fused):
                calls.append(1)
                return fused(t, loc.ts, dfs, *knots)

            monkeypatch.setattr(_kernels, name, on_knots)
        again = MarketState(REF, sets, cfg).base_curves()
        assert calls
        assert set(again) == set(split)
        for label, curve in split.items():
            assert np.array_equal(curve.pillar_dfs, again[label].pillar_dfs), label


class TestPillarSelection:
    def test_higher_rank_wins_collision(self, caplog):
        d = depo(12, 0.021)
        s = swap(1, 0.02)
        with caplog.at_level(logging.WARNING, logger="multicurve.bootstrap"):
            chosen = select_pillar_instruments([d, s])
        assert chosen == [s]
        assert any("dropping" in r.message for r in caplog.records)

    def test_equal_rank_collision_raises(self):
        with pytest.raises(BootstrapError):
            select_pillar_instruments([depo(12, 0.021), depo(12, 0.022)])

    def test_sorted_by_end_date(self):
        quotes = [swap(5, 0.03), depo(6, 0.02), swap(2, 0.025)]
        chosen = select_pillar_instruments(quotes)
        assert [q.end for q in chosen] == sorted(q.end for q in quotes)


class TestValidation:
    def test_empty_quote_list(self):
        with pytest.raises(BootstrapError):
            bootstrap_curve([])

    def test_quote_before_reference(self):
        with pytest.raises(BootstrapError):
            bootstrap_curve([depo(6, 0.02)], reference_date=REF.add_days(1))

    def test_discount_reference_mismatch(self):
        other = YieldCurve(REF.add_days(1), [(REF.add_days(400), 0.98)])
        with pytest.raises(BootstrapError):
            bootstrap_curve([depo(6, 0.02)], discount_curve=other, reference_date=REF)

    def test_quote_field_validation(self):
        with pytest.raises(ValueError):
            InstrumentQuote(InstrumentKind.DEPOSIT, 6, REF, REF, 0.02)
        with pytest.raises(ValueError):
            InstrumentQuote(InstrumentKind.DEPOSIT, 0, REF, add_months(REF, 6), 0.02)
        with pytest.raises(ValueError):
            InstrumentQuote(
                InstrumentKind.DEPOSIT, 6, REF, add_months(REF, 6), math.nan
            )
        with pytest.raises(ValueError):
            InstrumentQuote(
                InstrumentKind.BASIS_SWAP, 3, REF, add_months(REF, 24), 5e-4
            )

    def test_basis_swap_legs_must_differ_in_tenor(self):
        with pytest.raises(ValueError, match="tenor"):
            InstrumentQuote(
                InstrumentKind.BASIS_SWAP, 1, REF, add_months(REF, 12), 5e-4,
                second_tenor=1,
            )

    def test_infeasible_quote_fails_cleanly(self):
        # a deposit far beyond the discount-factor bracket cannot solve
        with pytest.raises(BootstrapError):
            bootstrap_curve([depo(6, -3.0)], reference_date=REF)


class TestQuoteBlindToItsCurve:
    """OIS quotes in a forwarding set read the discounting curve alone,
    so they cannot pin the curve being built: the build fails naming the
    curve and the quote, while pricing them stays possible."""

    def setup_method(self):
        self.ois = [q for q in make_ois_quotes() if q.kind is InstrumentKind.OIS][:2]
        self.disc = bootstrap_curve(self.ois, reference_date=REF, tenor_label="discount")
        self.end = self.ois[0].end.iso()

    def test_on_the_curve_they_built(self):
        # formerly returned the seed unchanged, the residuals being zero
        with pytest.raises(BootstrapError, match=(
            f"fwd_6M curve: the OIS quote ending {self.end} does not read "
            "the curve being built"
        )):
            bootstrap_curve(
                self.ois, discount_curve=self.disc, reference_date=REF,
                tenor_label="fwd_6M",
            )

    def test_on_another_discounting_curve(self):
        # formerly a singular Jacobian
        disc = bootstrap_curve(
            make_quote_sets()["discount"], reference_date=REF, tenor_label="discount"
        )
        with pytest.raises(BootstrapError, match="does not read the curve being built"):
            bootstrap_curve(
                self.ois, discount_curve=disc, reference_date=REF, tenor_label="fwd_6M"
            )

    def test_market_state(self):
        state = MarketState(REF, {"discount": self.ois, "fwd_6M": list(self.ois)})
        with pytest.raises(BootstrapError, match=f"fwd_6M curve: the OIS quote ending {self.end}"):
            state.base_curves()

    def test_still_priced(self):
        assert np.max(np.abs(repricing_errors(self.ois, self.disc, self.disc))) <= 1e-12
        for q in self.ois:
            assert fair_quote(q, self.disc, self.disc) == fair_quote(q, self.disc)
            assert instrument_pv(q, q.quote, self.disc, self.disc) == instrument_pv(
                q, q.quote, self.disc
            )


class TestFairQuoteAndPv:
    def setup_method(self):
        sets = make_quote_sets()
        self.disc = bootstrap_curve(
            sets["discount"], reference_date=REF, tenor_label="discount"
        )
        self.fwd = bootstrap_curve(
            sets["fwd_6M"], discount_curve=self.disc, reference_date=REF,
            tenor_label="fwd_6M",
        )
        self.swap_quote = sets["fwd_6M"][-1]

    def test_pv_vanishes_at_fair_quote(self):
        par = fair_quote(self.swap_quote, self.fwd, self.disc)
        pv = instrument_pv(self.swap_quote, par, self.fwd, self.disc, notional=1e6)
        assert abs(pv) <= 1e-6

    def test_pv_sign_for_payer(self):
        par = fair_quote(self.swap_quote, self.fwd, self.disc)
        below = instrument_pv(self.swap_quote, par - 1e-3, self.fwd, self.disc)
        above = instrument_pv(self.swap_quote, par + 1e-3, self.fwd, self.disc)
        assert below > 0 > above

    def test_deposit_fair_quote_is_simple_forward(self):
        q = depo(6, 0.02)
        curve = bootstrap_curve([q], reference_date=REF)
        assert fair_quote(q, curve) == pytest.approx(
            curve.simple_forward(q.start, q.end, q.daycount), rel=1e-15
        )


class TestQuoteSetCompiledOnce:
    """One forwarding build compiles each chosen quote once, for the solve
    and the closure check together, and reads every curve in one batch."""

    def test_forwarding_build(self, monkeypatch):
        sets = make_quote_sets()
        disc = bootstrap_curve(sets["discount"], reference_date=REF, tenor_label="discount")
        fwd6 = bootstrap_curve(
            sets["fwd_6M"], discount_curve=disc, reference_date=REF, tenor_label="fwd_6M"
        )
        quotes = sets["fwd_3M"]
        kw = dict(discount_curve=disc, companions={6: fwd6}, reference_date=REF,
                  tenor_label="fwd_3M")
        seed = bootstrap_curve(quotes, **kw)
        compiled, reads = [], []
        real_compile, real_lookup = bootstrap._compile_quote, YieldCurve.discount_time

        def counting_compile(q, *args):
            compiled.append(q)
            return real_compile(q, *args)

        def counting_lookup(curve, t):
            reads.append(curve)
            return real_lookup(curve, t)

        monkeypatch.setattr(bootstrap, "_compile_quote", counting_compile)
        monkeypatch.setattr(YieldCurve, "discount_time", counting_lookup)
        built = bootstrap_curve(quotes, start_curve=seed, **kw)
        monkeypatch.undo()
        assert compiled == select_pillar_instruments(quotes)
        # one read each of the seed, the two fixed curves and (closure
        # check) the finished curve
        assert [sum(r is c for r in reads) for c in (seed, disc, fwd6, built)] == [1] * 4
        assert len(reads) == 4


class TestQuotesMatchDateReference:
    """``fair_quote``, ``instrument_pv`` and ``repricing_errors`` against
    the leg-by-leg pricing on dates in ``oracles``: every kind, on one
    curve and against a separate discounting curve, every scheme."""

    PILLAR_MONTHS = (1, 3, 6, 9, 12, 18, 24, 36, 60, 84, 120, 180, 240, 360)

    def _cases(self, scheme):
        m = default_market()
        dates = [add_months(REF, k) for k in self.PILLAR_MONTHS]

        def curve(label, df, ref=REF):
            return YieldCurve(ref, [(d, df(d)) for d in dates], scheme, tenor_label=label)

        disc = curve("discount", m.discount_df)
        # each curve reads dates on its own clock
        disc_later = curve("discount", m.discount_df, REF.add_days(3))
        fwd = {
            months: curve(f"fwd_{months}M", lambda d, months=months: m.tenor_df(months, d))
            for months in (1, 3, 6, 12)
        }
        sets = make_quote_sets()
        sets["fwd_3M"] = [
            replace(q, convexity=2.5e-4) if q.kind is InstrumentKind.FUTURES else q
            for q in sets["fwd_3M"]
        ]
        cases = [
            (sets["discount"], disc, None, None),
            (sets["discount"], fwd[6], disc, None),
            (sets["fwd_6M"], fwd[6], disc_later, None),
        ]
        for months in (6, 3, 1, 12):
            companions = None if months == 6 else {6: fwd[6]}
            quotes, target = sets[f"fwd_{months}M"], fwd[months]
            cases += [(quotes, target, None, companions), (quotes, target, disc, companions)]
        return cases

    @pytest.mark.parametrize("scheme", list(InterpScheme))
    def test_every_kind(self, scheme):
        kinds = set()
        for quotes, target, disc, companions in self._cases(scheme):
            got = repricing_errors(quotes, target, disc, companions)
            want = reference_repricing_errors(quotes, target, disc, companions)
            assert got.tobytes() == want.tobytes()
            for q in quotes:
                kinds.add((q.kind, disc is None))
                assert fair_quote(q, target, disc, companions) == reference_fair_quote(
                    q, target, disc, companions
                )
                # struck 25bp off the market so the PV is far from zero
                contract = bump_quote(q, 25e-4).quote
                pv = instrument_pv(q, contract, target, disc, companions, notional=1e6)
                ref = reference_instrument_pv(
                    q, contract, target, disc, companions, notional=1e6
                )
                assert pv == pytest.approx(ref, rel=1e-14, abs=0.0)
        assert kinds == {(k, single) for k in InstrumentKind for single in (True, False)}


class TestCurveFromBasis:
    def setup_method(self):
        sets = make_quote_sets()
        self.disc = bootstrap_curve(
            sets["discount"], reference_date=REF, tenor_label="discount"
        )
        self.fwd = bootstrap_curve(
            sets["fwd_6M"], discount_curve=self.disc, reference_date=REF,
            tenor_label="fwd_6M",
        )

    def test_round_trip_on_bootstrapped_curves(self):
        grid = pillar_interval_basis(self.fwd, self.disc, self.fwd.pillar_dates)
        rebuilt = curve_from_basis(self.disc, grid, BasisDirection.DERIVE_FORWARDING)
        assert rebuilt.tenor_label == "fwd_6M"
        err = np.abs(np.array(rebuilt.pillar_dfs) - np.array(self.fwd.pillar_dfs))
        assert np.max(err) <= 1e-14

    def test_derive_discount_direction(self):
        grid = pillar_interval_basis(self.fwd, self.disc, self.fwd.pillar_dates)
        rebuilt = curve_from_basis(self.fwd, grid, BasisDirection.DERIVE_DISCOUNT)
        assert rebuilt.tenor_label == "discount"
        want = np.array([self.disc.discount(d) for d in grid.t2_dates])
        err = np.abs(np.array(rebuilt.pillar_dfs) - want)
        assert np.max(err) <= 1e-14

    def test_interpolation_and_daycount_overrides(self):
        grid = pillar_interval_basis(self.fwd, self.disc, self.fwd.pillar_dates)
        rebuilt = curve_from_basis(
            self.disc, grid, BasisDirection.DERIVE_FORWARDING,
            interpolation=InterpScheme.LINEAR_ZERO,
            daycount=DayCount.ACT_365_FIXED,
        )
        assert rebuilt.interpolation is InterpScheme.LINEAR_ZERO
        assert rebuilt.daycount is DayCount.ACT_365_FIXED

    def test_unchained_grid_rejected(self):
        dates = self.fwd.pillar_dates[:4]
        grid = pillar_interval_basis(self.fwd, self.disc, dates)
        grid.t1[2] += 1
        with pytest.raises(BootstrapError):
            curve_from_basis(self.disc, grid, BasisDirection.DERIVE_FORWARDING)


class TestQuotesCsv:
    def test_exact_round_trip(self, tmp_path):
        quotes = [q for qs in make_quote_sets().values() for q in qs]
        path = tmp_path / "quotes.csv"
        with open(path, "w") as fh:
            write_quotes_csv(quotes, fh, comment="round trip")
        again = read_quotes_csv(path)
        assert len(again) == len(quotes)
        for a, b in zip(quotes, again):
            assert a.kind is b.kind
            assert a.underlying_tenor == b.underlying_tenor
            assert a.start == b.start and a.end == b.end
            assert a.quote == b.quote
            assert a.fixed_frequency == b.fixed_frequency
            assert a.daycount is b.daycount
            assert a.second_tenor == b.second_tenor

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("kind,quote\nDEPOSIT,0.02\n")
        with pytest.raises(ValueError):
            read_quotes_csv(path)

    def test_comment_lines_are_skipped(self, tmp_path):
        quotes = [depo(6, 0.02)]
        path = tmp_path / "quotes.csv"
        with open(path, "w") as fh:
            write_quotes_csv(quotes, fh, comment="a comment")
        text = path.read_text()
        assert text.startswith("# a comment\n")
        assert read_quotes_csv(path)[0].quote == 0.02


class TestBumpQuote:
    def test_rate_kinds_bump_in_rate_space(self):
        q = depo(6, 0.02)
        up = bump_quote(q, 1e-4)
        assert up.quote == pytest.approx(0.0201, rel=1e-15)
        assert q.quote == 0.02  # frozen original untouched

    def test_futures_bump_moves_price_down(self):
        q = InstrumentQuote(
            InstrumentKind.FUTURES, 3, add_months(REF, 3), add_months(REF, 6), 97.5
        )
        up = bump_quote(q, 1e-4)
        assert up.quote == pytest.approx(97.49, rel=1e-15)
        assert up.implied_rate() == pytest.approx(q.implied_rate() + 1e-4, rel=1e-12)
