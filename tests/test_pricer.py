import dataclasses
import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicurve import (
    Book,
    Date,
    DayCount,
    InterpScheme,
    LocatedQuery,
    YieldCurve,
    FraSpec,
    OptionSpec,
    SwapSpec,
    SwapVolCorrSpec,
    VolCorrSpec,
    add_months,
    annuity,
    black,
    fair_swap_rate,
    generate_schedule,
    norm_cdf,
    parse_portfolio,
    price_capfloor,
    price_caplet_floorlet,
    price_fra,
    price_float_zcb,
    price_portfolio,
    price_position,
    price_swap,
    price_swaption,
    year_fraction,
)
from multicurve import _cashflows, _kernels, pricer
from multicurve.synthetic import default_market, true_pillar_curve
from multicurve.timegrid import cached_schedule_serials

import oracles

REF = Date.of(2026, 6, 15)


def curve_pair():
    m = default_market()
    dates = [add_months(m.reference_date, 6 * k) for k in range(1, 61)]
    return true_pillar_curve(m, "fwd_6M", dates), true_pillar_curve(m, "discount", dates)


FWD, DISC = curve_pair()
FLAT = oracles.flat_curve(REF, 0.03)


class TestNormCdf:
    def test_matches_erfc_everywhere(self):
        xs = np.concatenate(
            [
                np.linspace(-8.0, 8.0, 4001),
                np.linspace(-37.4, -8.0, 500),
                np.linspace(8.0, 37.4, 500),
            ]
        )
        got = norm_cdf(xs)
        want = np.array([oracles.norm_cdf_erfc(x) for x in xs])
        assert np.max(np.abs(got - want)) <= 5e-16

    def test_relative_accuracy_near_the_money(self):
        xs = np.linspace(-4.0, 4.0, 1601)
        got = norm_cdf(xs)
        want = np.array([oracles.norm_cdf_erfc(x) for x in xs])
        assert np.max(np.abs(got - want) / want) <= 3e-13

    def test_tail_branch_stays_relatively_close(self):
        # the far tail, where Hart's form hands over to a truncated
        # continued fraction that trades relative accuracy for speed;
        # math.erfc keeps its relative accuracy there too
        xs = np.linspace(-36.0, -7.2, 400)
        got = norm_cdf(xs)
        want = np.array([oracles.norm_cdf_erfc(x) for x in xs])
        assert np.max(np.abs(got - want) / want) <= 5e-8

    def test_extreme_tails_saturate(self):
        assert norm_cdf(-40.0) == 0.0
        assert norm_cdf(40.0) == 1.0

    def test_symmetry_and_center(self):
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
        for x in (0.3, 1.7, 5.5):
            assert norm_cdf(-x) == pytest.approx(1.0 - norm_cdf(x), abs=2e-16)

    def test_array_shape_preserved(self):
        xs = np.array([[-1.0, 0.0], [1.0, 2.0]])
        assert norm_cdf(xs).shape == (2, 2)


# the grids of TestNormCdf
_CDF_GRIDS = (
    np.linspace(-8.0, 8.0, 4001),
    np.linspace(-37.4, -8.0, 500),
    np.linspace(8.0, 37.4, 500),
    np.linspace(-4.0, 4.0, 1601),
    np.linspace(-36.0, -7.2, 400),
)


@pytest.mark.parametrize("xs", _CDF_GRIDS, ids=lambda xs: f"{xs[0]:g}..{xs[-1]:g}")
def test_norm_cdf_matches_hart_oracle(xs):
    got = norm_cdf(xs)
    want = np.array([oracles.norm_cdf_hart(x) for x in xs.tolist()])
    assert np.max(np.abs(got - want)) <= 1e-15


class TestBlackKernel:
    CASES = [
        (f, f * moneyness, drift, var, omega)
        for f in (0.01, 0.04, 0.10)
        for moneyness in (0.5, 0.9, 1.0, 1.1, 2.0)
        for drift in (-0.03, 0.0, 0.03)
        for var in (1e-6, 0.01, 0.09)
        for omega in (1, -1)
    ]

    def test_matches_reference_formula(self):
        for f, k, mu, var, omega in self.CASES:
            got = black(f, k, mu, var, omega)
            want = oracles.black_reference(f, k, mu, var, omega)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-16), (f, k, mu, var, omega)

    def test_matches_payoff_quadrature(self):
        cases = [
            (f, f * m, var, omega)
            for f in (0.02, 0.04)
            for m in (0.7, 0.95, 1.0, 1.3)
            for var in (0.0025, 0.0625)
            for omega in (1, -1)
        ]
        for f, k, var, omega in cases:
            got = black(f, k, 0.0, var, omega)
            want = oracles.black_quadrature(f, k, var, omega)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-14), (f, k, var, omega)

    def test_put_call_parity(self):
        # drift cancels between the omega branches, so parity holds at
        # F - K for every drift
        for f, k, mu, var, _ in self.CASES:
            call = black(f, k, mu, var, 1)
            put = black(f, k, mu, var, -1)
            assert call - put == pytest.approx(f - k, rel=1e-12, abs=1e-15)

    def test_zero_variance_is_intrinsic(self):
        assert black(0.05, 0.03, 0.0, 0.0, 1) == pytest.approx(0.02, rel=1e-15)
        assert black(0.05, 0.03, 0.0, 0.0, -1) == 0.0
        # drift decides exercise but does not scale the forward
        assert black(0.03, 0.05, -0.01, 0.0, -1) == pytest.approx(0.02, rel=1e-15)
        assert black(0.03, 0.05, 0.6, 0.0, -1) == 0.0

    def test_atm_value(self):
        # F = K = 4%, total variance 4%: F * (2 N(sqrt(var)/2) - 1)
        want = 0.04 * (2.0 * oracles.norm_cdf_erfc(0.1) - 1.0)
        assert black(0.04, 0.04, 0.0, 0.04, 1) == pytest.approx(want, rel=1e-14)

    def test_large_variance_limits(self):
        # call tends to the forward, put premium to the strike
        assert black(0.04, 0.05, 0.0, 900.0, 1) == pytest.approx(0.04, rel=1e-12)
        assert black(0.04, 0.05, 0.0, 900.0, -1) == pytest.approx(0.05, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            black(0.04, 0.04, 0.0, 0.01, 2)
        with pytest.raises(ValueError):
            black(-0.01, 0.04, 0.0, 0.01, 1)
        with pytest.raises(ValueError):
            black(0.04, 0.0, 0.0, 0.01, 1)
        with pytest.raises(ValueError):
            black(0.04, 0.04, 0.0, -1e-9, 1)


class TestBlackArrays:
    def cases(self):
        rng = np.random.default_rng(17)
        n = 400
        f = rng.uniform(0.005, 0.1, n)
        k = f * rng.uniform(0.4, 2.5, n)
        mu = rng.choice([0.0, -0.03, 0.03], n)
        var = rng.choice([0.0, 1e-6, 0.01, 0.09], n)
        return f, k, mu, var

    @pytest.mark.parametrize("omega", [1, -1])
    def test_matches_reference_element_by_element(self, omega):
        f, k, mu, var = self.cases()
        got = black(f, k, mu, var, omega)
        assert got.shape == f.shape
        assert np.any(var == 0.0)
        for i in range(f.size):
            want = oracles.black_reference(f[i], k[i], mu[i], var[i], omega)
            assert got[i] == pytest.approx(want, rel=1e-13, abs=1e-16), i
            assert got[i] == black(float(f[i]), float(k[i]), float(mu[i]), float(var[i]), omega)

    def test_scalar_inputs_return_float(self):
        assert isinstance(black(0.04, 0.03, 0.0, 0.01, 1), float)
        assert isinstance(black(0.04, 0.03, 0.0, 0.0, -1), float)

    def test_scalars_broadcast_against_arrays(self):
        ks = np.array([0.02, 0.04, 0.06])
        got = black(0.04, ks, 0.0, 0.01, 1)
        assert got.tolist() == [black(0.04, float(k), 0.0, 0.01, 1) for k in ks]

    def test_any_non_positive_forward_rejected(self):
        f = np.array([0.03, 0.04, 0.0, 0.05])
        with pytest.raises(ValueError):
            black(f, 0.03, 0.0, 0.01, 1)
        with pytest.raises(ValueError):
            black(-f[::-1] + 0.05, 0.03, 0.0, 0.01, -1)
        with pytest.raises(ValueError):
            black(0.04, np.array([0.03, -0.01]), 0.0, 0.01, 1)
        with pytest.raises(ValueError):
            black(0.04, 0.03, 0.0, np.array([0.01, -1e-12]), 1)


_PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

# (F, K / F, drift, variance) of one option, zero variance included
_ELEMENT = st.tuples(
    st.floats(1e-4, 0.2),
    st.floats(0.3, 3.0),
    st.sampled_from([0.0, -0.03]) | st.floats(-0.05, 0.05),
    st.just(0.0) | st.floats(1e-8, 0.5),
)


def _black_slope(forward, strike, drift, variance, omega):
    """dBl/dF: the scalar Black routine's slope branch over the broadcast
    elements, as ``black`` runs its value branch."""
    return pricer._per_element(
        functools.partial(pricer._black_element, omega, True), forward, strike, drift, variance
    )


class TestBlackElementwise:
    """``black`` and the slope branch of its scalar routine evaluate that
    routine once per element of their broadcast inputs."""

    @_PROPERTY
    @given(st.lists(_ELEMENT, min_size=1, max_size=20), st.sampled_from([1, -1]))
    def test_arrays_equal_scalar_calls_bit_for_bit(self, elements, omega):
        f, m, mu, var = (np.array(c) for c in zip(*elements))
        k = f * m
        for kernel in (black, _black_slope):
            got = kernel(f, k, mu, var, omega)
            assert got.shape == f.shape
            assert got.tolist() == [
                kernel(*map(float, row), omega) for row in zip(f, k, mu, var)
            ]
            # a column of forwards against a row of the rest
            grid = kernel(f[:, None], k, mu, var, omega)
            assert grid.shape == (f.size, f.size)
            assert grid.tolist() == [
                [kernel(*map(float, row), omega) for row in zip([fi] * f.size, k, mu, var)]
                for fi in f
            ]

    @_PROPERTY
    @given(_ELEMENT)
    def test_call_minus_put_is_forward_minus_strike(self, element):
        f, m, mu, var = element
        k = f * m
        parity = black(f, k, mu, var, 1) - black(f, k, mu, var, -1)
        assert abs(parity - (f - k)) <= 1e-15 * max(f, k)

    @_PROPERTY
    @given(_ELEMENT.filter(lambda e: e[3] >= 1e-4), st.sampled_from([1, -1]))
    def test_slope_matches_central_difference(self, element, omega):
        f, m, mu, var = element
        k, h = f * m, 1e-6 * f
        diff = (black(f + h, k, mu, var, omega) - black(f - h, k, mu, var, omega)) / (2.0 * h)
        assert abs(_black_slope(f, k, mu, var, omega) - diff) <= 1e-7

    def test_zero_variance_slope_is_the_intrinsic_one(self):
        slope = _black_slope
        assert slope(0.05, 0.04, 0.0, 0.0, 1) == 1.0
        assert slope(0.04, 0.05, 0.0, 0.0, -1) == -1.0
        assert slope(0.04, 0.05, 0.0, 0.0, 1) == 0.0
        assert slope(0.05, 0.04, 0.0, 0.0, -1) == 0.0
        # at the kink: the out-of-the-money side's value and slope
        for omega in (1, -1):
            assert black(0.04, 0.04, 0.0, 0.0, omega) == 0.0
            assert slope(0.04, 0.04, 0.0, 0.0, omega) == 0.0

    @pytest.mark.parametrize("kernel", [black, _black_slope])
    def test_nan_passes_through(self, kernel):
        for i in range(4):
            args = [0.04, 0.03, 0.0, 0.01]
            args[i] = math.nan
            assert math.isnan(kernel(*args, 1)), i
        got = kernel(np.array([0.04, math.nan, 0.05]), 0.03, 0.0, 0.01, -1)
        assert np.isnan(got).tolist() == [False, True, False]

    @pytest.mark.parametrize("kernel", [black, _black_slope])
    def test_nan_passes_through_at_zero_variance(self, kernel):
        assert math.isnan(kernel(math.nan, 0.03, 0.0, 0.0, 1))
        assert math.isnan(kernel(0.03, 0.03, math.nan, 0.0, -1))
        assert math.isnan(kernel(0.03, math.nan, 0.0, 0.0, -1))
        got = kernel(np.array([0.04, math.nan, 0.02]), 0.03, 0.0, 0.0, 1)
        assert np.isnan(got).tolist() == [False, True, False]

    @pytest.mark.parametrize("kernel", [black, _black_slope])
    def test_invalid_inputs_raise(self, kernel):
        for args in (
            (0.0, 0.03, 0.0, 0.01), (-0.01, 0.03, 0.0, 0.01),
            (0.04, 0.0, 0.0, 0.01), (0.04, -0.03, 0.0, 0.01),
            (0.04, 0.03, 0.0, -1e-12),
        ):
            with pytest.raises(ValueError):
                kernel(*args, 1)
            with pytest.raises(ValueError):
                kernel(*(np.array([v, v]) for v in args), -1)

    def test_norm_cdf_keeps_shapes_and_scalars(self):
        assert isinstance(norm_cdf(0.3), float)
        assert norm_cdf(np.zeros((2, 3, 0))).shape == (2, 3, 0)
        xs = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert norm_cdf(xs).tolist() == [[norm_cdf(x) for x in row] for row in xs.tolist()]


class TestAnnuity:
    def test_manual_sum(self):
        dates = generate_schedule(REF, add_months(REF, 36), 12)
        got = annuity(DISC, dates, DayCount.THIRTY_360)
        want = sum(
            year_fraction(a, b, DayCount.THIRTY_360) * DISC.discount(b)
            for a, b in zip(dates[:-1], dates[1:])
        )
        assert got == pytest.approx(want, rel=1e-15)

    def test_defaults_to_curve_daycount(self):
        dates = generate_schedule(REF, add_months(REF, 24), 6)
        assert annuity(DISC, dates) == annuity(DISC, dates, DISC.daycount)

    def test_needs_two_dates(self):
        with pytest.raises(ValueError):
            annuity(DISC, [REF.add_days(100)])

    def test_dates_out_of_order_raise(self):
        d1, d2 = add_months(REF, 6), add_months(REF, 12)
        with pytest.raises(ValueError, match="before start"):
            annuity(DISC, [d2, d1])


class TestFloatZcb:
    def test_formula(self):
        d = add_months(REF, 18)
        got = price_float_zcb(DISC, FWD, d, notional=2.0e6)
        want = 2.0e6 * DISC.discount(d) * (1.0 / FWD.discount(d) - 1.0)
        assert got == want

    def test_single_curve_telescopes(self):
        d = add_months(REF, 24)
        assert price_float_zcb(DISC, DISC, d) == pytest.approx(
            1.0 - DISC.discount(d), rel=1e-15
        )

    def test_reference_date_pays_nothing(self):
        assert price_float_zcb(DISC, FWD, REF) == 0.0


class TestFra:
    SPEC = FraSpec(add_months(REF, 9), add_months(REF, 15), 0.025, 1e6)

    def test_manual_formula(self):
        tau = year_fraction(self.SPEC.start, self.SPEC.end, FWD.daycount)
        f = FWD.simple_forward(self.SPEC.start, self.SPEC.end)
        want = 1e6 * DISC.discount(self.SPEC.end) * tau * (f - 0.025)
        assert price_fra(DISC, FWD, self.SPEC) == pytest.approx(want, rel=1e-15)

    def test_single_curve_against_oracle(self):
        got = price_fra(FLAT, FLAT, self.SPEC)
        want = oracles.single_curve_fra_pv(
            FLAT, self.SPEC.start, self.SPEC.end, 0.025, 1e6
        )
        assert got == pytest.approx(want, rel=1e-13)

    def test_negative_correlation_raises_value(self):
        up = price_fra(DISC, FWD, self.SPEC, VolCorrSpec.flat(0.3, 0.2, -0.5))
        down = price_fra(DISC, FWD, self.SPEC, VolCorrSpec.flat(0.3, 0.2, 0.5))
        base = price_fra(DISC, FWD, self.SPEC)
        assert up > base > down


def make_swap(**overrides):
    base = dict(
        start=REF,
        end=add_months(REF, 60),
        fixed_rate=0.03,
        notional=1e6,
        payer=True,
    )
    base.update(overrides)
    return SwapSpec(**base)


class TestSwap:
    def test_par_rate_zeroes_the_pv(self):
        spec = make_swap()
        par = fair_swap_rate(DISC, FWD, spec)
        pv = price_swap(DISC, FWD, dataclasses.replace(spec, fixed_rate=par))
        assert abs(pv) <= 1e-8  # notional 1e6, so 1e-8 is 1e-14 relative

    def test_payer_receiver_antisymmetry(self):
        spec = make_swap()
        payer = price_swap(DISC, FWD, spec)
        receiver = price_swap(DISC, FWD, dataclasses.replace(spec, payer=False))
        assert payer == -receiver

    def test_single_curve_against_oracle(self):
        spec = make_swap()
        got = price_swap(FLAT, FLAT, spec)
        want = oracles.single_curve_swap_pv(
            FLAT, spec.start, spec.end, 0.03, 1e6, True
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_adjustment_moves_par_rate(self):
        spec = make_swap()
        base = fair_swap_rate(DISC, FWD, spec)
        adj = fair_swap_rate(DISC, FWD, spec, VolCorrSpec.flat(0.3, 0.2, -0.5))
        assert adj > base

    def test_volcorr_list_length_checked(self):
        spec = make_swap()
        with pytest.raises(ValueError):
            price_swap(DISC, FWD, spec, [VolCorrSpec.flat(0.2, 0.1, 0.0)] * 3)

    def test_schedules(self):
        spec = make_swap(end=add_months(REF, 24))
        assert spec.float_schedule() == generate_schedule(REF, spec.end, 6)
        assert spec.fixed_schedule() == generate_schedule(REF, spec.end, 12)

    def test_repricing_reuses_the_cached_schedules(self):
        def rolled():
            return cached_schedule_serials.cache_info().misses - before

        before = cached_schedule_serials.cache_info().misses
        # dates no other test uses, so the first pricing rolls both legs
        spec = make_swap(end=add_months(REF, 12 * 9).add_days(3))
        first = price_swap(DISC, FWD, spec)
        assert rolled() == 2
        positions = parse_portfolio([{
            "kind": "cap", "forwarding": "fwd_6M", "start": REF.add_days(3).iso(),
            "end": add_months(REF, 36).add_days(3).iso(), "strike": 0.03,
        }])
        curves = {"discount": DISC, "fwd_6M": FWD}
        cap = price_position(positions[0], curves)
        assert rolled() == 3
        assert price_swap(DISC, FWD, spec) == first
        assert price_position(positions[0], curves) == cap
        assert rolled() == 3


class TestCapletFloorlet:
    START, END = add_months(REF, 12), add_months(REF, 18)

    def opt(self, omega, strike=0.028):
        return OptionSpec(self.START, self.END, strike, omega, 1e6)

    def test_cap_floor_parity_is_fra(self):
        vc = VolCorrSpec.flat(0.25, 0.12, -0.3)
        cap = price_caplet_floorlet(DISC, FWD, self.opt(1), vc)
        floor = price_caplet_floorlet(DISC, FWD, self.opt(-1), vc)
        fra = price_fra(DISC, FWD, FraSpec(self.START, self.END, 0.028, 1e6), vc)
        assert cap - floor == pytest.approx(fra, rel=1e-12, abs=1e-7)

    def test_single_curve_against_oracle(self):
        vc = VolCorrSpec.flat(0.25, 0.0, 0.0)
        got = price_caplet_floorlet(FLAT, FLAT, self.opt(1), vc)
        t_fix = FLAT.time(self.START)
        want = oracles.single_curve_caplet_pv(
            FLAT, self.START, self.END, 0.028, 1, 1e6, 0.25**2 * t_fix
        )
        assert got == pytest.approx(want, rel=1e-13)

    def test_no_vol_gives_discounted_intrinsic(self):
        got = price_caplet_floorlet(DISC, FWD, self.opt(1, strike=0.001))
        f = FWD.simple_forward(self.START, self.END)
        tau = year_fraction(self.START, self.END, FWD.daycount)
        want = 1e6 * DISC.discount(self.END) * tau * (f - 0.001)
        assert got == pytest.approx(want, rel=1e-14)

    def test_paper_literal_double_counts_drift(self):
        vc = VolCorrSpec.flat(0.3, 0.2, -0.6)
        plain = price_caplet_floorlet(DISC, FWD, self.opt(1), vc)
        literal = price_caplet_floorlet(DISC, FWD, self.opt(1), vc, paper_literal=True)
        assert literal != plain
        # shifting d+- without scaling the forward breaks the identity
        # F phi(d+) = K phi(d-), lowering the call for positive drift
        assert literal < plain

    def test_paper_literal_noop_without_correlation(self):
        vc = VolCorrSpec.flat(0.3, 0.2, 0.0)
        plain = price_caplet_floorlet(DISC, FWD, self.opt(1), vc)
        literal = price_caplet_floorlet(DISC, FWD, self.opt(1), vc, paper_literal=True)
        assert literal == plain


class TestCapFloor:
    def test_is_sum_of_caplets(self):
        dates = generate_schedule(add_months(REF, 6), add_months(REF, 36), 6)
        vc = VolCorrSpec.flat(0.22, 0.1, -0.2)
        total = price_capfloor(DISC, FWD, dates, 0.03, 1, 1e6, vc)
        parts = sum(
            price_caplet_floorlet(
                DISC, FWD, OptionSpec(a, b, 0.03, 1, 1e6), vc
            )
            for a, b in zip(dates[:-1], dates[1:])
        )
        assert total == pytest.approx(parts, rel=1e-15)

    def test_per_period_strikes_and_vols(self):
        dates = generate_schedule(add_months(REF, 6), add_months(REF, 24), 6)
        strikes = [0.025, 0.03, 0.035]
        vcs = [VolCorrSpec.flat(s, 0.1, -0.1) for s in (0.2, 0.25, 0.3)]
        total = price_capfloor(DISC, FWD, dates, strikes, -1, 1e6, vcs)
        parts = sum(
            price_caplet_floorlet(
                DISC, FWD, OptionSpec(a, b, k, -1, 1e6), vc
            )
            for a, b, k, vc in zip(dates[:-1], dates[1:], strikes, vcs)
        )
        assert total == pytest.approx(parts, rel=1e-15)

    def test_validation(self):
        dates = generate_schedule(add_months(REF, 6), add_months(REF, 24), 6)
        with pytest.raises(ValueError):
            price_capfloor(DISC, FWD, dates[:1], 0.03)
        with pytest.raises(ValueError):
            price_capfloor(DISC, FWD, dates, 0.03, 1, 1e6, [VolCorrSpec.flat(0.2, 0.1, 0.0)])


class TestArrayPeriodsMatchPerPeriodReference:
    """Cap/floor periods and floating legs against the one-period-at-a-time
    reference forms in ``oracles``."""

    DATES = generate_schedule(add_months(REF, 3), add_months(REF, 63), 3)

    def specs(self):
        rng = np.random.default_rng(29)
        pool = [
            VolCorrSpec(
                breakpoints=(0.7, 2.0, 3.5),
                sigma_f=tuple(rng.uniform(0.1, 0.4, 4)),
                sigma_x=tuple(rng.uniform(0.05, 0.3, 4)),
                rho=tuple(rng.uniform(-0.9, 0.9, 4)),
            ),
            VolCorrSpec.flat(0.25, 0.15, 0.6),
            None,
        ]
        return [pool[i % 3] for i in range(len(self.DATES) - 1)]

    @pytest.mark.parametrize("omega", [1, -1])
    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_capfloor_with_per_period_specs(self, omega, paper_literal):
        specs = self.specs()
        strikes = np.linspace(0.015, 0.045, len(specs))
        got = price_capfloor(
            DISC, FWD, self.DATES, strikes, omega, 1e6, specs, DayCount.ACT_365_FIXED,
            paper_literal,
        )
        want = oracles.reference_capfloor(
            DISC, FWD, self.DATES, strikes, omega, 1e6, specs, DayCount.ACT_365_FIXED,
            paper_literal,
        )
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("paper_literal", [False, True])
    def test_capfloor_with_one_spec(self, paper_literal):
        vc = self.specs()[0]
        n = len(self.DATES) - 1
        got = price_capfloor(DISC, FWD, self.DATES, 0.03, 1, 1e6, vc, None, paper_literal)
        want = oracles.reference_capfloor(
            DISC, FWD, self.DATES, [0.03] * n, 1, 1e6, [vc] * n, None, paper_literal
        )
        assert got == pytest.approx(want, rel=1e-14)

    def test_caplet_is_one_period_cap(self):
        vc = self.specs()[0]
        opt = OptionSpec(self.DATES[4], self.DATES[5], 0.027, -1, 1e6)
        got = price_caplet_floorlet(DISC, FWD, opt, vc, paper_literal=True)
        want = oracles.reference_capfloor(
            DISC, FWD, self.DATES[4:6], [0.027], -1, 1e6, [vc], paper_literal=True
        )
        assert got == pytest.approx(want, rel=1e-14)

    def test_float_leg_with_per_period_specs(self):
        spec = make_swap(start=self.DATES[0], end=self.DATES[-1], float_tenor_months=3)
        specs = self.specs()
        coupons = oracles.reference_float_leg_coupons(FWD, self.DATES, specs)
        float_pv = sum(DISC.discount(d) * c for d, c in zip(self.DATES[1:], coupons))
        ann = annuity(DISC, spec.fixed_schedule(), spec.daycount_fixed)
        assert fair_swap_rate(DISC, FWD, spec, specs) == pytest.approx(
            float_pv / ann, rel=1e-14
        )
        assert price_swap(DISC, FWD, spec, specs) == pytest.approx(
            1e6 * (float_pv - 0.03 * ann), rel=1e-13
        )


class TestWorkPerPosition:
    """Discount lookups and adjustment calls do not grow with the number
    of periods a position has."""

    VC = VolCorrSpec.flat(0.25, 0.12, -0.3)
    SVC = SwapVolCorrSpec.flat(0.22, 0.08, -0.25)
    ROWS = [
        ({"kind": "fra", "start": "2027-06-15", "end": "2027-12-15", "strike": 0.027}, 2),
        ({"kind": "caplet", "start": "2027-06-15", "end": "2027-12-15", "strike": 0.03}, 2),
        ({"kind": "swap", "start": "2026-06-15", "end": "2056-06-15", "fixed_rate": 0.03}, 2),
        ({"kind": "swaption", "start": "2028-06-15", "end": "2038-06-15", "strike": 0.03}, 2),
        ({"kind": "cap", "start": "2026-07-15", "end": "2029-07-15", "strike": 0.03,
          "tenor_months": 1}, 2),
    ]

    def test_discount_lookups_and_adjustments_per_position(self, monkeypatch):
        from multicurve import YieldCurve, pricer, quanto

        lookups, adjustments, integrals = [], [], []
        real_lookup = YieldCurve.discount_time
        real_qa = quanto.quanto_mult
        real_drift = VolCorrSpec.drift_integral

        def counting_lookup(self, t):
            lookups.append(1)
            return real_lookup(self, t)

        def counting_qa(*args):
            adjustments.append(1)
            return real_qa(*args)

        def counting_drift(self, a, b):
            integrals.append(1)
            return real_drift(self, a, b)

        monkeypatch.setattr(YieldCurve, "discount_time", counting_lookup)
        monkeypatch.setattr(quanto, "quanto_mult", counting_qa)
        monkeypatch.setattr(pricer, "quanto_mult", counting_qa)
        monkeypatch.setattr(VolCorrSpec, "drift_integral", counting_drift)
        curves = {"discount": DISC, "fwd_1M": FWD}
        for row, budget in self.ROWS:
            (pos,) = parse_portfolio([dict(row, forwarding="fwd_1M", notional=1e6)])
            if pos.kind == "cap":
                assert len(generate_schedule(pos.spec.start, pos.spec.end, 1)) == 37
            lookups.clear()
            adjustments.clear()
            integrals.clear()
            price_position(pos, curves, volcorr=self.VC, swap_volcorr=self.SVC)
            assert len(lookups) <= budget, (pos.kind, len(lookups))
            assert len(adjustments) <= 1, (pos.kind, len(adjustments))
            assert len(integrals) <= 1, (pos.kind, len(integrals))


class TestSwaption:
    def spec(self, payer=True, strike=0.031):
        return make_swap(
            start=add_months(REF, 24), end=add_months(REF, 84),
            fixed_rate=strike, payer=payer,
        )

    def test_payer_receiver_parity_is_forward_swap(self):
        sv = SwapVolCorrSpec.flat(0.2, 0.0, 0.0)
        payer = price_swaption(DISC, FWD, self.spec(True), sv)
        receiver = price_swaption(DISC, FWD, self.spec(False), sv)
        swap_pv = price_swap(DISC, FWD, self.spec(True))
        assert payer - receiver == pytest.approx(swap_pv, rel=1e-12, abs=1e-6)

    def test_atm_payer_equals_receiver(self):
        par = fair_swap_rate(DISC, FWD, self.spec())
        sv = SwapVolCorrSpec.flat(0.25, 0.0, 0.0)
        payer = price_swaption(DISC, FWD, self.spec(True, par), sv)
        receiver = price_swaption(DISC, FWD, self.spec(False, par), sv)
        assert payer == pytest.approx(receiver, rel=1e-12)

    def test_reduces_to_black_on_adjusted_rate(self):
        sv = SwapVolCorrSpec.flat(0.22, 0.08, -0.25)
        spec = self.spec()
        got = price_swaption(DISC, FWD, spec, sv)
        s = fair_swap_rate(DISC, FWD, spec)
        a = annuity(DISC, spec.fixed_schedule(), spec.daycount_fixed)
        t_exp = DISC.time(spec.start)
        qa = math.exp(0.22 * 0.08 * 0.25 * t_exp)
        want = spec.notional * a * oracles.black_reference(
            s * qa, spec.fixed_rate, 0.0, 0.22**2 * t_exp, 1
        )
        assert got == pytest.approx(want, rel=1e-13)

    def test_vega_positive(self):
        lo = price_swaption(DISC, FWD, self.spec(), SwapVolCorrSpec.flat(0.1, 0.0, 0.0))
        hi = price_swaption(DISC, FWD, self.spec(), SwapVolCorrSpec.flat(0.3, 0.0, 0.0))
        assert hi > lo

    def test_spot_start_rejected(self):
        with pytest.raises(ValueError):
            price_swaption(DISC, FWD, make_swap(), SwapVolCorrSpec.flat(0.2, 0.0, 0.0))


class TestPortfolio:
    ROWS = [
        {"kind": "fra", "forwarding": "fwd_6M", "start": "2027-06-15",
         "end": "2027-12-15", "strike": 0.027, "notional": 1e6},
        {"id": "s1", "kind": "swap", "forwarding": "fwd_6M", "start": "2026-06-15",
         "end": "2031-06-15", "fixed_rate": 0.03, "notional": 1e6, "payer": False,
         "quantity": 2.0},
        {"id": "c1", "kind": "caplet", "forwarding": "fwd_6M", "start": "2027-06-15",
         "end": "2027-12-15", "strike": 0.03, "notional": 1e6},
        {"id": "cf", "kind": "floor", "forwarding": "fwd_6M", "start": "2026-12-15",
         "end": "2028-12-15", "strike": 0.02, "notional": 1e6, "tenor_months": 6},
        {"id": "w1", "kind": "swaption", "forwarding": "fwd_6M", "start": "2028-06-15",
         "end": "2033-06-15", "strike": 0.032, "notional": 1e6},
    ]

    CURVES = {"discount": DISC, "fwd_6M": FWD}

    def test_parse_fills_defaults(self):
        positions = parse_portfolio(self.ROWS)
        assert positions[0].id == "pos0"
        assert positions[0].quantity == 1.0
        assert positions[1].quantity == 2.0
        assert not positions[1].spec.payer
        assert positions[3].tenor_months == 6

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_portfolio([{"kind": "turbo", "start": "2027-06-15", "end": "2028-06-15"}])
        with pytest.raises(ValueError):
            parse_portfolio({"kind": "fra"})

    @pytest.mark.parametrize("payer", ["false", "true", 0, 1, None])
    def test_parse_takes_payer_only_as_json_boolean(self, payer):
        # bool("false") is True: a string side would silently be a payer
        with pytest.raises(ValueError, match="payer"):
            parse_portfolio([dict(self.ROWS[1], payer=payer)])

    @pytest.mark.parametrize("field, value", [
        ("notional", None), ("notional", "1e6"), ("quantity", True),
        ("strike", [0.03]), ("tenor_months", 6.5), ("notional", float("nan")),
        ("notional", float("inf")), ("notional", 10**400), ("tenor_months", 10**400),
    ])
    def test_parse_takes_numbers_only_as_json_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            parse_portfolio([dict(self.ROWS[3], **{field: value})])

    @pytest.mark.parametrize("row", [5, None, ["kind", "fra"]])
    def test_parse_rejects_rows_that_are_not_objects(self, row):
        with pytest.raises(ValueError, match="row 1"):
            parse_portfolio([self.ROWS[0], row])

    def test_position_pv_scales_with_quantity(self):
        positions = parse_portfolio(self.ROWS)
        pv2, fair2 = price_position(positions[1], self.CURVES)
        spec = positions[1].spec
        assert pv2 == pytest.approx(2.0 * price_swap(DISC, FWD, spec), rel=1e-15)
        assert fair2 == pytest.approx(fair_swap_rate(DISC, FWD, spec), rel=1e-15)

    def test_portfolio_rows_align_with_positions(self):
        positions = parse_portfolio(self.ROWS)
        vc = VolCorrSpec.flat(0.25, 0.1, -0.3)
        sv = SwapVolCorrSpec.flat(0.22, 0.08, -0.25)
        rows = price_portfolio(positions, self.CURVES, volcorr=vc, swap_volcorr=sv)
        assert [r["instrument_id"] for r in rows] == ["pos0", "s1", "c1", "cf", "w1"]
        for pos, row in zip(positions, rows):
            pv, fair = price_position(
                pos, self.CURVES, volcorr=vc, swap_volcorr=sv
            )
            assert row["pv"] == pv
            assert row["fair"] == fair

    def test_single_curve_flag_uses_discount_everywhere(self):
        positions = parse_portfolio(self.ROWS[:2])
        for pos in positions:
            pv, _ = price_position(pos, self.CURVES, single_curve=True)
            pv_direct, _ = price_position(
                pos, {"discount": DISC, "fwd_6M": DISC}
            )
            assert pv == pv_direct


def _recurve(curve, scheme, dates=None, scale=None):
    """``curve`` under ``scheme``, optionally sampled on other pillar
    dates or with its discount factors raised to the power ``scale``."""
    dates = curve.pillar_dates if dates is None else dates
    dfs = curve.discount(dates)
    if scale is not None:
        dfs = dfs**scale
    return YieldCurve(
        curve.reference_date, list(zip(dates, dfs)), scheme, curve.daycount,
        curve.tenor_label,
    )


class TestCompiledPositions:
    """``price_position`` compiles each position once onto located curve
    queries; checked against the date-based pricer in ``oracles``."""

    ROWS = [
        {"kind": "fra", "start": "2027-06-15", "end": "2027-12-15", "strike": 0.027},
        {"kind": "fra", "start": "2027-03-15", "end": "2027-09-15", "strike": 0.029,
         "daycount": "ACT_365_FIXED", "quantity": -1.5},
        {"kind": "swap", "start": "2026-06-15", "end": "2056-06-15", "fixed_rate": 0.03},
        {"kind": "swap", "start": "2027-06-15", "end": "2036-09-15", "fixed_rate": 0.028,
         "payer": False, "float_tenor_months": 3, "quantity": 2.0},
        {"kind": "caplet", "start": "2027-06-15", "end": "2027-12-15", "strike": 0.03},
        {"kind": "floorlet", "start": "2028-06-15", "end": "2028-12-15", "strike": 0.035},
        {"kind": "cap", "start": "2026-07-15", "end": "2031-07-15", "strike": 0.03,
         "tenor_months": 3},
        {"kind": "floor", "start": "2026-12-15", "end": "2036-12-15", "strike": 0.04},
        {"kind": "swaption", "start": "2028-06-15", "end": "2038-06-15", "strike": 0.03},
        {"kind": "swaption", "start": "2031-06-15", "end": "2061-06-15", "strike": 0.033,
         "payer": False},
    ]
    SPECS = [
        (None, None),
        (VolCorrSpec.flat(0.25, 0.12, -0.3), SwapVolCorrSpec.flat(0.22, 0.08, -0.25)),
        (
            VolCorrSpec((1.0, 4.0), (0.3, 0.25, 0.2), (0.1, 0.15, 0.12), (0.4, -0.2, 0.6)),
            SwapVolCorrSpec((2.0, 6.0), (0.2, 0.25, 0.18), (0.05, 0.1, 0.07), (-0.5, 0.3, 0.2)),
        ),
    ]

    def positions(self):
        return parse_portfolio(
            [dict(row, forwarding="fwd_6M", notional=1e6) for row in self.ROWS]
        )

    @staticmethod
    def curves(scheme, **kw):
        return {
            "discount": _recurve(DISC, scheme, **kw),
            "fwd_6M": _recurve(FWD, scheme, **kw),
        }

    @staticmethod
    def assert_matches_reference(pos, curves, **kw):
        pv, fair = price_position(pos, curves, **kw)
        want_pv, want_fair = oracles.reference_price_position(pos, curves, **kw)
        assert abs(pv - want_pv) <= 1e-14 * pos.spec.notional, (pos.kind, pv, want_pv)
        assert abs(fair - want_fair) <= 1e-14, (pos.kind, fair, want_fair)

    @pytest.mark.parametrize("scheme", list(InterpScheme))
    def test_parity_with_the_date_based_pricer(self, scheme):
        curves = self.curves(scheme)
        positions = self.positions()
        for vc, svc in self.SPECS:
            for single_curve in (False, True):
                for paper_literal in (False, True):
                    for pos in positions:
                        self.assert_matches_reference(
                            pos, curves, volcorr=vc, swap_volcorr=svc,
                            single_curve=single_curve, paper_literal=paper_literal,
                        )

    def test_revaluation_reads_each_curve_once(self, monkeypatch):
        from multicurve import quanto

        vc, svc = self.SPECS[2]
        positions = self.positions()
        for pos in positions:
            price_position(pos, self.curves(InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC),
                           volcorr=vc, swap_volcorr=svc)
        moved = self.curves(InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC, scale=1.1)
        calls = {"lookups": 0, "locates": 0, "integrals": 0}
        real_lookup, real_locate = YieldCurve.discount_time, _kernels.locate

        def counting_lookup(self, t):
            calls["lookups"] += 1
            return real_lookup(self, t)

        def counting_locate(*args):
            calls["locates"] += 1
            return real_locate(*args)

        monkeypatch.setattr(YieldCurve, "discount_time", counting_lookup)
        monkeypatch.setattr(_kernels, "locate", counting_locate)
        for cls in (quanto.VolCorrSpec, quanto.SwapVolCorrSpec):
            for name in ("drift_integral", "variance_integral"):
                real = getattr(cls, name)

                def counting(self, a, b, real=real):
                    calls["integrals"] += 1
                    return real(self, a, b)

                monkeypatch.setattr(cls, name, counting)
        for pos in positions:
            calls["lookups"] = 0
            price_position(pos, moved, volcorr=vc, swap_volcorr=svc)
            assert calls["lookups"] == 2, pos.kind
        assert calls["locates"] == 0
        assert calls["integrals"] == 0

    @pytest.mark.parametrize("scheme", list(InterpScheme))
    def test_new_curves_are_read_afresh(self, scheme, monkeypatch):
        vc, svc = self.SPECS[1]
        positions = self.positions()
        base = self.curves(scheme)
        for pos in positions:
            price_position(pos, base, volcorr=vc, swap_volcorr=svc)
        # the same pillar dates with other discount factors
        moved = self.curves(scheme, scale=0.8)
        for pos in positions:
            self.assert_matches_reference(pos, moved, volcorr=vc, swap_volcorr=svc)
        # other pillar dates, and another scheme on the same dates: both relocate
        locates = []
        real_locate = _kernels.locate
        monkeypatch.setattr(
            _kernels, "locate", lambda *args: locates.append(1) or real_locate(*args)
        )
        quarterly = [add_months(REF, 3 * k) for k in range(1, 121)]
        other = next(s for s in InterpScheme if s is not scheme)
        for curves in (self.curves(scheme, dates=quarterly), self.curves(other)):
            for pos in positions:
                locates.clear()
                price_position(pos, curves, volcorr=vc, swap_volcorr=svc)
                assert len(locates) == 2, pos.kind
                self.assert_matches_reference(pos, curves, volcorr=vc, swap_volcorr=svc)

    def test_curve_sets_on_one_grid_locate_nothing_and_skip_black(self, monkeypatch):
        # four curve sets on one pillar grid, as successive snapshots are:
        # after the first valuation no position or book gradient locates
        # a query or goes through the broadcasting option kernels
        vc, svc = self.SPECS[1]
        positions = self.positions()
        assert {p.kind for p in positions} == set(pricer._POSITION_KINDS)
        cubic = InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC
        sets = [self.curves(cubic, scale=s) for s in (1.0, 0.9, 1.1, 1.2)]
        grid = sets[0]["discount"]._ts
        assert all(c._ts is grid for curves in sets for c in curves.values())
        book = Book(positions, vc, svc)
        for pos in positions:
            price_position(pos, sets[0], volcorr=vc, swap_volcorr=svc)
        book.gradient(sets[0])
        calls = []
        for module, name in ((_kernels, "locate"), (pricer, "black")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *a, name=name, real=real: calls.append(name) or real(*a),
            )
        for curves in sets[1:] + sets[:1]:
            for pos in positions:
                pv, _ = price_position(pos, curves, volcorr=vc, swap_volcorr=svc)
                assert math.isfinite(pv)
            book.gradient(curves)
        assert calls == []

    def test_cap_forward_checked_on_every_curve_set(self):
        # the omega is checked on compiling, the forwards on each valuation
        dates = [add_months(REF, 12), add_months(REF, 18), add_months(REF, 24)]
        with pytest.raises(ValueError, match="omega"):
            price_capfloor(DISC, FWD, dates, 0.03, 0)
        vc = self.SPECS[1][0]
        (cap,) = parse_portfolio([dict(self.ROWS[6], forwarding="fwd_6M")])
        price_position(cap, {"discount": DISC, "fwd_6M": FWD}, volcorr=vc)
        rising = _recurve(FWD, FWD.interpolation, scale=-1.0)
        assert rising._ts is FWD._ts
        with pytest.raises(ValueError, match="positive forward"):
            price_position(cap, {"discount": DISC, "fwd_6M": rising}, volcorr=vc)

    def test_compiled_form_is_not_part_of_the_position(self):
        (pos,) = parse_portfolio([dict(self.ROWS[2], forwarding="fwd_6M")])
        (fresh,) = parse_portfolio([dict(self.ROWS[2], forwarding="fwd_6M")])
        price_position(pos, {"discount": DISC, "fwd_6M": FWD})
        assert pos._compiled is not None
        assert pos == fresh and hash(pos) == hash(fresh)
        assert dataclasses.replace(pos, quantity=3.0)._compiled is None
        copied = pickle.loads(pickle.dumps(pos))
        assert copied == pos and copied._compiled is None
        assert price_position(copied, {"discount": DISC, "fwd_6M": FWD}) == price_position(
            pos, {"discount": DISC, "fwd_6M": FWD}
        )

    def test_swaption_expiry_checked_when_compiled(self):
        curves = {"discount": DISC, "fwd_6M": FWD}
        for start in ("2026-06-15", "2026-03-15"):
            (pos,) = parse_portfolio([{
                "kind": "swaption", "forwarding": "fwd_6M", "start": start,
                "end": "2031-06-15", "strike": 0.03,
            }])
            with pytest.raises(ValueError, match="expiry"):
                price_position(pos, curves, swap_volcorr=self.SPECS[1][1])
            assert pos._compiled is None

    def test_non_increasing_cap_dates_rejected(self):
        dates = [add_months(REF, 12), add_months(REF, 18), add_months(REF, 18)]
        with pytest.raises(ValueError, match="increasing"):
            price_capfloor(DISC, FWD, dates, 0.03, 1, 1e6, self.SPECS[1][0])
        with pytest.raises(ValueError, match="increasing"):
            price_capfloor(DISC, FWD, dates[::-1], 0.03)
        (pos,) = parse_portfolio([{
            "kind": "caplet", "forwarding": "fwd_6M", "start": "2027-06-15",
            "end": "2027-06-15", "strike": 0.03,
        }])
        with pytest.raises(ValueError, match="increasing"):
            price_position(pos, {"discount": DISC, "fwd_6M": FWD})

    def test_dates_before_the_reference_rejected(self):
        (pos,) = parse_portfolio([{
            "kind": "fra", "forwarding": "fwd_6M", "start": "2026-03-15",
            "end": "2026-09-15", "strike": 0.03,
        }])
        with pytest.raises(ValueError, match="before the reference date"):
            price_position(pos, {"discount": DISC, "fwd_6M": FWD})

    def test_non_positive_forward_raises_when_valued(self):
        vc, svc = self.SPECS[1]
        positions = [p for p in self.positions() if p.kind in ("caplet", "cap", "swaption")]
        curves = {"discount": DISC, "fwd_6M": FWD}
        for pos in positions:
            price_position(pos, curves, volcorr=vc, swap_volcorr=svc)
        # discount factors rising with maturity: every forward is negative
        inverted = {"discount": DISC, "fwd_6M": _recurve(FWD, FWD.interpolation, scale=-1.0)}
        for pos in positions:
            with pytest.raises(ValueError, match="positive forward"):
                price_position(pos, inverted, volcorr=vc, swap_volcorr=svc)


_KINDS = ("fra", "swap", "caplet", "floorlet", "cap", "floor", "swaption")


@st.composite
def _book_rows(draw):
    """One to three positions of any kind and side on the 6M curve,
    starting up to five years out, struck across the money."""
    rows = []
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_KINDS))
        start = add_months(REF, draw(st.integers(1, 60)))
        months = draw(st.sampled_from((6, 12, 36, 84)))
        if kind in ("fra", "caplet", "floorlet"):
            months = draw(st.sampled_from((3, 6, 12)))
        row = {
            "id": f"p{i}", "kind": kind, "forwarding": "fwd_6M",
            "start": start.iso(), "end": add_months(start, months).iso(),
            "notional": draw(st.sampled_from((1.0, -2.5))),
            "quantity": draw(st.sampled_from((1.0, -0.5))),
        }
        rate = draw(st.floats(0.005, 0.07))
        if kind == "swap":
            row.update(fixed_rate=rate, payer=draw(st.booleans()),
                       float_tenor_months=draw(st.sampled_from((3, 6))))
        else:
            row["strike"] = rate
        if kind == "swaption":
            row["payer"] = draw(st.booleans())
        if kind in ("cap", "floor"):
            row["tenor_months"] = draw(st.sampled_from((3, 6)))
        rows.append(row)
    return rows


class TestBookGradient:
    """``Book.gradient``, the reverse pass of a compiled book, against
    differences of the book's own value with ln P moved at one read time
    at a time (``oracles.reference_book_gradient``)."""

    SPECS = TestCompiledPositions.SPECS

    @staticmethod
    def assert_matches_differences(book, curves):
        pv, reads = book.gradient(curves)
        assert pv == book(curves)
        for label, (q, g) in reads.items():
            times, want = oracles.reference_book_gradient(book, curves, label, 1e-6)
            got = np.bincount(np.searchsorted(times, q.t), g, len(times))
            # central differences at h = 1e-6 leave about 1e-8 of the
            # gradient's size on a short, near-the-money caplet
            scale = np.abs(g).sum() + 1e-3
            assert np.all(np.abs(got - want) <= 1e-7 * scale), (label, got - want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        rows=_book_rows(), specs=st.integers(0, 2), single_curve=st.booleans(),
        paper_literal=st.booleans(),
        scheme=st.sampled_from([InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC,
                                InterpScheme.LOG_LINEAR_DISCOUNT]),
    )
    def test_matches_differences(self, rows, specs, single_curve, paper_literal, scheme):
        vc, svc = self.SPECS[specs]
        book = Book(parse_portfolio(rows), vc, svc, single_curve, paper_literal)
        self.assert_matches_differences(book, TestCompiledPositions.curves(scheme))

    def test_every_kind_with_and_without_specs(self):
        curves = TestCompiledPositions.curves(InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC)
        positions = TestCompiledPositions().positions()
        for vc, svc in self.SPECS:
            for single_curve in (False, True):
                for paper_literal in (False, True):
                    for pos in positions:
                        book = Book([pos], vc, svc, single_curve, paper_literal)
                        self.assert_matches_differences(book, curves)

    def test_valuing_leaves_the_reverse_pass_uncalled(self, monkeypatch):
        # a book of every kind, compiled with the routine recorded: pricing
        # takes no slope, one gradient one per option period and swaption
        vc, svc = self.SPECS[1]
        slopes = []
        real = pricer._black_element
        monkeypatch.setattr(
            pricer, "_black_element",
            lambda omega, slope, *a: slopes.append(slope) or real(omega, slope, *a),
        )
        positions = TestCompiledPositions().positions()
        curves = TestCompiledPositions.curves(InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC)
        for pos in positions:
            price_position(pos, curves, volcorr=vc, swap_volcorr=svc)
        assert slopes and not any(slopes)
        want = sum(
            len(cached_schedule_serials(p.spec.start.serial, p.spec.end.serial,
                                        p.tenor_months)) - 1
            if p.kind in ("cap", "floor") else 1
            for p in positions if p.kind not in ("fra", "swap")
        )
        slopes.clear()
        Book(positions, vc, svc).gradient(curves)
        assert slopes.count(True) == want == slopes.count(False)

    @pytest.mark.parametrize("kind,omega", [("caplet", 1), ("floorlet", -1)])
    def test_intrinsic_kink_takes_the_out_of_the_money_side(self, kind, omega):
        # with no spec the variance is 0 and the option is worth its
        # intrinsic; struck at its own forward it sits on the kink
        start, end = add_months(REF, 12), add_months(REF, 18)
        q = LocatedQuery(FWD.times((start, end)))
        p = FWD.discount_time(q)
        tau = year_fraction(start, end, FWD.daycount)
        strike = float(_cashflows.simple_forward(p[0], p[1], tau))
        (pos,) = parse_portfolio([{
            "kind": kind, "forwarding": "fwd_6M", "start": start.iso(),
            "end": end.iso(), "strike": strike,
        }])
        book = Book([pos])
        curves = {"discount": DISC, "fwd_6M": FWD}
        assert book(curves) == 0.0
        _, reads = book.gradient(curves)
        q_f, g_f = reads["fwd_6M"]
        assert np.array_equal(g_f, [0.0, 0.0])
        # moving ln P_f(start) up raises the forward: a caplet's money side
        times = np.unique(q_f.t)
        h = 1e-6

        def value(y):
            return book({**curves, "fwd_6M": oracles._ShiftedCurve(FWD, times, np.array(y))})

        up, down = value([h, 0.0]) / h, value([-h, 0.0]) / -h
        otm, itm = (down, up) if omega == 1 else (up, down)
        assert otm == 0.0
        assert itm == pytest.approx(omega * DISC.discount(end) * p[0] / p[1], rel=1e-5)
        _, want = oracles.reference_book_gradient(book, curves, "fwd_6M", h)
        assert np.array_equal(want, [0.0, 0.0])
