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
    reference_knots,
    reference_newton_jacobian,
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
    SwapVolCorrSpec,
    VolCorrSpec,
    YieldCurve,
    add_months,
    bootstrap_curve,
    bump_quote,
    curve_from_basis,
    fair_quote,
    instrument_pv,
    parse_portfolio,
    pillar_interval_basis,
    price_portfolio,
    read_quotes_csv,
    repricing_errors,
    select_pillar_instruments,
    write_quotes_csv,
    year_fraction,
)
from multicurve import _kernels, bootstrap, clear_caches
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
            def on_knots(t, loc, dfs, table, fused=fused):
                calls.append(1)
                return fused(t, loc.ts, dfs, *reference_knots(loc.scheme, loc.ts, dfs))

            monkeypatch.setattr(_kernels, name, on_knots)
        again = MarketState(REF, sets, cfg).base_curves()
        assert calls
        assert set(again) == set(split)
        for label, curve in split.items():
            assert np.array_equal(curve.pillar_dfs, again[label].pillar_dfs), label


def _solved_sets(scheme):
    """Per solved curve its label, compiled residuals, knot times and
    pillar log-discounts: the five default curves, the 6M quotes on one
    self-discounting curve and forward-starting overnight index swaps."""
    config = BootstrapConfig(interpolation=scheme)
    state = MarketState(REF, make_quote_sets(), config)
    built = [(c, state._sets[label]) for label, c in state.base_curves().items()]
    start = add_months(REF, 3)
    forward_ois = [depo(3, 0.02)] + [
        InstrumentQuote(InstrumentKind.OIS, 1, start, add_months(start, 12 * y), 0.02 + 1e-3 * y)
        for y in (1, 2, 5)
    ]
    for quotes, label in ((make_quote_sets()["fwd_6M"], "fwd_6M"), (forward_ois, "custom")):
        built.append(bootstrap._bootstrap(quotes, config, None, None, REF, label, None)[:2])
    for curve, residuals in built:
        ts = np.concatenate(([0.0], curve.times(curve.pillar_dates)))
        yield curve.tenor_label, residuals, ts, np.log(curve.pillar_dfs)


def _exact_jacobian(residuals, scheme, ts, x):
    residuals.on_pillars(scheme, ts, np.concatenate(([1.0], np.exp(x))))
    return residuals.jacobian()


class TestExactNewtonJacobian:
    """The Newton J from the leg table and the kernels' linear parts
    against differences of the same residuals in ``oracles``."""

    @pytest.mark.parametrize("scheme", list(InterpScheme))
    def test_central_differences_close_at_second_order(self, scheme):
        steps = (1e-4, 1e-5, 1e-6)
        for label, residuals, ts, x in _solved_sets(scheme):
            exact = _exact_jacobian(residuals, scheme, ts, x)
            gaps = [
                np.max(np.abs(
                    reference_newton_jacobian(residuals, scheme, ts, x, h, central=True)
                    - exact
                ))
                for h in steps
            ]
            # truncation C h^2 plus the rounding of R, about 1e-15 / h
            for h, gap in zip(steps[1:], gaps[1:]):
                assert gap <= 1.5 * gaps[0] * (h / steps[0]) ** 2 + 1e-15 / h, (label, gaps)

    @pytest.mark.parametrize("scheme", list(InterpScheme))
    def test_forward_difference_loop_agrees_to_its_step(self, scheme):
        for label, residuals, ts, x in _solved_sets(scheme):
            exact = _exact_jacobian(residuals, scheme, ts, x)
            loop = reference_newton_jacobian(residuals, scheme, ts, x)
            np.testing.assert_allclose(
                loop, exact, rtol=0.0, atol=1e-5 * np.max(np.abs(exact)), err_msg=label
            )


class TestSolverStats:
    def test_default_cubic_market_takes_at_most_six_residual_evaluations(self):
        state = MarketState(REF, make_quote_sets())
        stats = state.solver_stats()
        assert list(stats) == state.build_order
        for label, s in stats.items():
            assert 1 <= s.residual_evals <= 6, (label, s)

    def test_an_iteration_is_one_evaluation_plus_its_halvings(self, monkeypatch):
        # from a flat 30% seed the discounting solve halves steps
        quotes = make_quote_sets()["discount"]
        seed = YieldCurve(
            REF,
            [(q.end, math.exp(-0.3 * (q.end - REF) / 365.0))
             for q in select_pillar_instruments(quotes)],
            tenor_label="discount",
        )
        evaluated = []
        real = bootstrap._Residuals.on_pillars

        def counting(self, *args):
            evaluated.append(1)
            return real(self, *args)

        monkeypatch.setattr(bootstrap._Residuals, "on_pillars", counting)
        _, _, stats = bootstrap._bootstrap(quotes, None, None, None, REF, "discount", seed)
        assert stats.halvings > 0
        assert stats.residual_evals == len(evaluated)
        assert stats.residual_evals == 1 + stats.iterations + stats.halvings
        assert stats.jacobian_evals == stats.iterations


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

    def test_singular_jacobian_fails_naming_the_curve(self, monkeypatch):
        # the LU solve refuses an exactly singular J
        def singular(self):
            return np.ones((len(self.quotes), len(self.quotes)))

        monkeypatch.setattr(bootstrap._Residuals, "jacobian", singular)
        quotes = [depo(6, 0.02), swap(2, 0.025), swap(5, 0.03)]
        with pytest.raises(
            BootstrapError, match=r"^fwd_6M curve: singular Jacobian \(cond \S+\) after 1 Newton"
        ):
            bootstrap_curve(quotes, reference_date=REF, tenor_label="fwd_6M")


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
    and the closure check together, and reads every curve in one batch;
    a second build of the same set compiles nothing and reads the same."""

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
        clear_caches()
        reads = []
        real_lookup = YieldCurve.discount_time

        def counting_lookup(curve, t):
            reads.append(curve)
            return real_lookup(curve, t)

        monkeypatch.setattr(YieldCurve, "discount_time", counting_lookup)
        built = bootstrap_curve(quotes, start_curve=seed, **kw)
        cold_compiled, cold_reads = _layout_misses(), list(reads)
        reads.clear()
        again = bootstrap_curve(quotes, start_curve=seed, **kw)
        compiled = _layout_misses() - cold_compiled
        monkeypatch.undo()
        # one set compiled, the chosen quotes': compiling them again hits
        assert cold_compiled == 1
        chosen = select_pillar_instruments(quotes)
        bootstrap._compiled(bootstrap._structure(chosen, REF, disc, {6: fwd6}))
        assert _layout_misses() == 1
        # one read each of the seed, the two fixed curves and (closure
        # check) the finished curve
        assert [sum(r is c for r in cold_reads) for c in (seed, disc, fwd6, built)] == [1] * 4
        assert len(cold_reads) == 4
        # the set's layout is kept: the same build compiles nothing, reads
        # the same curves once each and gives the same curve
        assert compiled == 0
        assert [sum(r is c for r in reads) for c in (seed, disc, fwd6, again)] == [1] * 4
        assert len(reads) == 4
        assert again.pillar_dfs.tobytes() == built.pillar_dfs.tobytes()


def _layout_misses() -> int:
    return bootstrap._compiled.cache_info().misses


class TestCompiledLayoutMemo:
    """A quote set's compiled layout is keyed on everything the compile
    reads and nothing else: any structural field changed alone compiles
    afresh; a quote value or convexity, or a companion no basis swap
    reads, changed alone does not; and a kept layout prices exactly as
    a cold compile does.  The companion a basis swap reads is named by
    the quote's second tenor, so changing it is the "second tenor"
    case."""

    @staticmethod
    def _market():
        curves = _base_state(InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC).base_curves()
        quotes = [
            InstrumentQuote(InstrumentKind.DEPOSIT, 3, REF, add_months(REF, 3), 0.012),
            InstrumentQuote(InstrumentKind.FUTURES, 3, add_months(REF, 3),
                            add_months(REF, 6), 98.6, convexity=1e-5),
            InstrumentQuote(InstrumentKind.SWAP, 3, REF, add_months(REF, 60), 0.03,
                            fixed_frequency=12, daycount=DayCount.THIRTY_360),
            InstrumentQuote(InstrumentKind.BASIS_SWAP, 3, REF, add_months(REF, 120),
                            0.001, second_tenor=6),
        ]
        companions = {6: curves["fwd_6M"], 12: curves["fwd_12M"]}
        return curves, quotes, curves["discount"], companions

    @staticmethod
    def _moved(curve: YieldCurve, days: int) -> YieldCurve:
        """The curve's pillars on a reference date ``days`` later."""
        ref = Date(curve.reference_date.serial + days)
        return YieldCurve(ref, list(zip(curve.pillar_dates, curve.pillar_dfs)),
                          curve.interpolation, curve.daycount, curve.tenor_label)

    # each changes one structural field alone: (quotes, ref, disc, companions)
    CHANGES = {
        "reference date": lambda q, ref, d, c: (q, Date(ref.serial - 1), d, c),
        "discounting given": lambda q, ref, d, c: (q, ref, None, c),
        "discounting clock": lambda q, ref, d, c: (
            q, ref, TestCompiledLayoutMemo._moved(d, -1), c),
        "companion clock": lambda q, ref, d, c: (
            q, ref, d, {6: TestCompiledLayoutMemo._moved(c[6], -1), 12: c[12]}),
        "kind": lambda q, ref, d, c: (
            [replace(q[0], kind=InstrumentKind.FRA)] + q[1:], ref, d, c),
        "underlying tenor": lambda q, ref, d, c: (
            q[:2] + [replace(q[2], underlying_tenor=6)] + q[3:], ref, d, c),
        "second tenor": lambda q, ref, d, c: (
            q[:3] + [replace(q[3], second_tenor=12)], ref, d, c),
        "start": lambda q, ref, d, c: (
            [q[0], replace(q[1], start=Date(q[1].start.serial + 1))] + q[2:], ref, d, c),
        "end": lambda q, ref, d, c: (
            [replace(q[0], end=Date(q[0].end.serial + 1))] + q[1:], ref, d, c),
        "fixed frequency": lambda q, ref, d, c: (
            q[:2] + [replace(q[2], fixed_frequency=6)] + q[3:], ref, d, c),
        "day count": lambda q, ref, d, c: (
            q[:2] + [replace(q[2], daycount=DayCount.ACT_365_FIXED)] + q[3:], ref, d, c),
        "float day count": lambda q, ref, d, c: (
            q[:3] + [replace(q[3], float_daycount=DayCount.ACT_365_FIXED)], ref, d, c),
    }

    @pytest.mark.parametrize("field", list(CHANGES))
    def test_each_structural_field_changed_alone_misses(self, field):
        _, quotes, disc, companions = self._market()
        clear_caches()
        base = bootstrap._Residuals(quotes, REF, disc, companions)
        assert bootstrap._Residuals(quotes, REF, disc, companions).layout is base.layout
        before = _layout_misses()
        changed = bootstrap._Residuals(*self.CHANGES[field](quotes, REF, disc, companions))
        assert _layout_misses() == before + 1
        assert changed.layout is not base.layout

    @pytest.mark.parametrize("field", ["quote", "convexity"])
    def test_value_or_convexity_changed_alone_hits(self, field):
        curves, quotes, disc, companions = self._market()
        base = bootstrap._Residuals(quotes, REF, disc, companions)
        moved = [replace(q, **{field: getattr(q, field) + 1e-3}) for q in quotes]
        before = _layout_misses()
        hit = bootstrap._Residuals(moved, REF, disc, companions)
        assert _layout_misses() == before
        assert hit.layout is base.layout
        # the rates are the hit's own
        assert hit.rates.tolist() == [q.implied_rate() for q in moved]
        assert base.rates.tolist() == [q.implied_rate() for q in quotes]

    @pytest.mark.parametrize("change", ["dropped", "tenor", "clock"])
    def test_unread_companion_changed_alone_hits(self, change):
        curves, quotes, disc, companions = self._market()
        base = bootstrap._Residuals(quotes, REF, disc, companions)
        # no quote's far leg is on the 12M curve
        other = {
            "dropped": {6: companions[6]},
            "tenor": {6: companions[6], 1: companions[12]},
            "clock": {6: companions[6], 12: self._moved(companions[12], -1)},
        }[change]
        before = _layout_misses()
        hit = bootstrap._Residuals(quotes, REF, disc, other)
        assert _layout_misses() == before and hit.layout is base.layout
        target = curves["fwd_3M"]
        assert (hit.on_curves(target, disc, other).tobytes()
                == base.on_curves(target, disc, companions).tobytes())

    @pytest.mark.parametrize("scheme", list(InterpScheme))
    def test_hit_prices_as_a_cold_compile_bit_for_bit(self, scheme):
        state = _base_state(scheme)
        curves = state.base_curves()

        def evaluate(label):
            chosen = select_pillar_instruments(state.quote_sets[label])
            disc, companions = pricing_curves(label, curves)
            res = bootstrap._Residuals(chosen, REF, disc, companions)
            curve = curves[label]
            ts = np.concatenate(([0.0], curve.times(curve.pillar_dates)))
            dfs = np.concatenate(([1.0], curve.pillar_dfs * 1.0001))
            r = res.on_pillars(scheme, ts, dfs)
            out = [r, res.jacobian(), res.on_curves(curve, disc, companions)]
            out += [block for _, block in res.curve_jacobians(curve, disc, companions)]
            return res.layout, [x.tobytes() for x in out]

        for label in state.build_order:
            clear_caches()
            cold_layout, cold = evaluate(label)
            before = _layout_misses()
            hit_layout, hit = evaluate(label)
            assert _layout_misses() == before and hit_layout is cold_layout
            assert hit == cold

    def test_compile_errors_are_raised_on_every_miss(self):
        _, quotes, disc, _ = self._market()
        for _ in range(2):
            with pytest.raises(BootstrapError, match="companion curve for the 6M"):
                bootstrap._Residuals(quotes, REF, disc, {12: disc})

    def test_lru_holds_at_most_its_bound(self):
        clear_caches()
        bound = bootstrap._LAYOUTS
        sets = [
            [InstrumentQuote(InstrumentKind.DEPOSIT, 1, REF, Date(REF.serial + k), 0.01)]
            for k in range(1, bound + 11)
        ]
        for quotes in sets:
            bootstrap._Residuals(quotes, REF)
            assert bootstrap._compiled.cache_info().currsize <= bound
        info = bootstrap._compiled.cache_info()
        assert info.maxsize == bound and info.currsize == bound
        assert info.misses == len(sets)
        # the least recently used went first: the oldest set compiles again,
        # the newest does not
        bootstrap._Residuals(sets[-1], REF)
        assert _layout_misses() == len(sets)
        bootstrap._Residuals(sets[0], REF)
        assert _layout_misses() == len(sets) + 1


_EVERY_QUOTE = [q for quotes in make_quote_sets().values() for q in quotes]


@st.composite
def _thinned_set(draw):
    """A scheme, a curve label of the default market and a few quotes of
    every kind from all five sets, priced on that label's curves."""
    scheme = draw(st.sampled_from(list(InterpScheme)))
    label = draw(st.sampled_from(list(_base_state(scheme).quote_sets)))
    picks = draw(st.lists(
        st.integers(0, len(_EVERY_QUOTE) - 1), min_size=1, max_size=14, unique=True
    ))
    return scheme, label, [_EVERY_QUOTE[i] for i in picks]


class TestCompileByKind:
    """A quote set compiles a group of one kind at a time, yet each quote
    prices and differentiates exactly as it does compiled alone, and
    every cache the compile of a quote set or a position reads is one
    that ``_sched`` and ``_taus`` clear, beside the compiled sets' own
    memo; ``clear_caches`` empties them all."""

    @_PROPERTY
    @given(_thinned_set())
    def test_set_prices_each_quote_as_alone_bit_for_bit(self, case):
        scheme, label, quotes = case
        curves = _base_state(scheme).base_curves()
        disc = None if label == "discount" else curves["discount"]
        # a companion for every tenor, so each basis swap finds its far leg
        companions = {m: curves[f"fwd_{m}M"] for m in (1, 3, 6, 12)}
        target = curves[label]
        whole = bootstrap._Residuals(quotes, REF, disc, companions)
        residuals = whole.on_curves(target, disc, companions)
        weights = whole.weights(target, disc, companions)
        blocks = self._blocks(whole, target, disc, companions)
        for i, q in enumerate(quotes):
            one = bootstrap._Residuals([q], REF, disc, companions)
            assert one.on_curves(target, disc, companions).tobytes() == residuals[i:i + 1].tobytes()
            assert one.weights(target, disc, companions).tobytes() == weights[i:i + 1].tobytes()
            alone = self._blocks(one, target, disc, companions)
            for key, block in blocks.items():
                row = block[i]
                if key not in alone:
                    # a curve the quote does not read
                    assert not row.any()
                elif scheme is InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC:
                    # the slope chain is a matrix product over every row
                    # at once, so its sums may group differently
                    want = alone[key][0]
                    assert np.max(np.abs(row - want)) <= 1e-15 * np.max(np.abs(want))
                else:
                    assert row.tobytes() == alone[key][0].tobytes()

    @staticmethod
    def _blocks(residuals, target, disc, companions) -> dict:
        """The set's dR/d ln p blocks keyed by the batch they come from."""
        jacobians = residuals.curve_jacobians(target, disc, companions)
        return {key: block for key, (_, block) in zip(residuals.curves, jacobians)}

    # every position kind, on dates no quote schedule uses
    PORTFOLIO = [
        {"kind": "fra", "forwarding": "fwd_6M", "start": "2027-06-22",
         "end": "2027-12-22", "strike": 0.027},
        {"kind": "swap", "forwarding": "fwd_3M", "start": "2026-06-22",
         "end": "2036-06-22", "fixed_rate": 0.03, "float_tenor_months": 3},
        {"kind": "caplet", "forwarding": "fwd_6M", "start": "2027-06-22",
         "end": "2027-12-22", "strike": 0.03},
        {"kind": "floorlet", "forwarding": "fwd_1M", "start": "2027-06-22",
         "end": "2027-07-22", "strike": 0.02},
        {"kind": "cap", "forwarding": "fwd_12M", "start": "2026-07-22",
         "end": "2031-07-22", "strike": 0.03, "tenor_months": 12},
        {"kind": "floor", "forwarding": "fwd_1M", "start": "2026-07-22",
         "end": "2029-07-22", "strike": 0.02, "tenor_months": 1},
        {"kind": "swaption", "forwarding": "fwd_6M", "start": "2028-06-22",
         "end": "2038-06-22", "strike": 0.03},
    ]

    def test_schedule_caches_hold_everything_the_compile_reads(self):
        import sys

        state = _base_state(InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC)
        curves = state.base_curves()
        caches = {
            id(fn): fn
            for name, module in list(sys.modules.items())
            if name.startswith("multicurve")
            for fn in vars(module).values()
            if hasattr(fn, "cache_info")
        }
        schedule_caches = {id(bootstrap._sched), id(bootstrap._taus)}
        assert schedule_caches <= set(caches)
        memos = schedule_caches | {id(bootstrap._compiled)}
        others = [fn for key, fn in caches.items() if key not in memos]

        def compile_every_set():
            for label, quotes in state.quote_sets.items():
                bootstrap._Residuals(quotes, REF, *pricing_curves(label, curves))

        def compile_every_position():
            # parsed afresh, so each position compiles again
            price_portfolio(
                parse_portfolio(self.PORTFOLIO), curves,
                volcorr=VolCorrSpec.flat(0.25, 0.12, -0.3),
                swap_volcorr=SwapVolCorrSpec.flat(0.22, 0.08, -0.25),
            )

        def misses():
            return [bootstrap._sched.cache_info().misses, bootstrap._taus.cache_info().misses]

        clear_caches()
        assert [caches[key].cache_info().currsize for key in memos] == [0] * 3
        before = [fn.cache_info() for fn in others]
        compile_every_set()
        assert [fn.cache_info() for fn in others] == before
        sets_cold = misses()
        assert all(sets_cold)
        n_sets = len(state.quote_sets)
        assert bootstrap._compiled.cache_info().misses == n_sets
        # the positions roll schedules no quote reads
        compile_every_position()
        assert [fn.cache_info() for fn in others] == before
        cold = misses()
        assert [c > s for c, s in zip(cold, sets_cold)] == [True, True]
        # compiled again, the same sets and positions miss nothing
        compile_every_set()
        compile_every_position()
        assert misses() == cold
        assert [fn.cache_info() for fn in others] == before
        # the sets' layouts were kept, so that compile ran no compile; run
        # cold again, it still reads every schedule from the two caches
        layouts = bootstrap._compiled.cache_info()
        assert (layouts.misses, layouts.hits) == (n_sets, n_sets)
        bootstrap._compiled.cache_clear()
        compile_every_set()
        assert misses() == cold
        assert bootstrap._compiled.cache_info().misses == n_sets
        assert [fn.cache_info() for fn in others] == before


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
