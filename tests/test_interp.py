import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    _reference_slope_branches,
    reference_eval_linear_zero,
    reference_eval_log_cubic,
    reference_eval_log_linear,
    reference_knots,
    reference_log_jacobian,
    reference_monotone_cubic_slopes,
    reference_slope_jacobian,
)
from scipy.interpolate import PchipInterpolator

from multicurve import _kernels
from multicurve.interp import (
    InterpScheme,
    monotone_cubic_slope_jacobian,
    monotone_cubic_slopes,
    zero_rates_from_logdf,
)

CUBIC = InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC
LOGLIN = InterpScheme.LOG_LINEAR_DISCOUNT
LINZERO = InterpScheme.LINEAR_ZERO


def _curve_arrays(dfs, ts):
    ts = np.asarray(ts, dtype=float)
    dfs = np.asarray(dfs, dtype=float)
    lnp = np.log(dfs)
    return ts, dfs, lnp


class TestMonotoneSlopes:
    def test_matches_shape_preserving_reference(self):
        # scipy's pchip implements the same slope limiter; use it as the
        # independent reference for node derivatives
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(3, 15)
            ts = np.sort(rng.uniform(0.05, 30.0, size=n))
            ts = np.insert(ts, 0, 0.0)
            ys = np.cumsum(rng.uniform(-0.05, 0.01, size=n + 1))
            d_mine = monotone_cubic_slopes(ts, ys)
            d_ref = PchipInterpolator(ts, ys).derivative()(ts)
            np.testing.assert_allclose(d_mine, d_ref, rtol=1e-12, atol=1e-14)

    def test_two_nodes_is_linear(self):
        d = monotone_cubic_slopes(np.array([0.0, 2.0]), np.array([0.0, -0.06]))
        np.testing.assert_allclose(d, [-0.03, -0.03])

    def test_flat_data_gives_zero_slopes(self):
        d = monotone_cubic_slopes(np.array([0.0, 1.0, 2.0, 5.0]), np.zeros(4))
        np.testing.assert_array_equal(d, np.zeros(4))

    def test_local_extremum_gets_zero_slope(self):
        ys = np.array([0.0, -0.01, -0.005, -0.02])
        d = monotone_cubic_slopes(np.array([0.0, 1.0, 2.0, 3.0]), ys)
        assert d[1] == 0.0
        assert d[2] == 0.0


class TestCubicKernel:
    def setup_method(self):
        self.ts, self.dfs, self.lnp = _curve_arrays(
            [1.0, 0.995, 0.982, 0.955, 0.90, 0.82],
            [0.0, 0.5, 1.0, 2.0, 5.0, 10.0],
        )
        self.drv = monotone_cubic_slopes(self.ts, self.lnp)
        self.table = _kernels.knot_data(CUBIC, self.ts, self.lnp)

    def test_matches_scipy_pchip_between_knots(self):
        ref = PchipInterpolator(self.ts, self.lnp)
        t = np.linspace(0.01, 9.99, 777)
        loc = _kernels.locate(CUBIC, t, self.ts)
        mine = _kernels.eval_log_cubic(t, loc, self.dfs, self.table)
        np.testing.assert_allclose(mine, np.exp(ref(t)), rtol=1e-13)

    def test_exact_at_knots_bit_for_bit(self):
        loc = _kernels.locate(CUBIC, self.ts, self.ts)
        out = _kernels.eval_log_cubic(self.ts, loc, self.dfs, self.table)
        assert np.array_equal(out, self.dfs)

    def test_flat_forward_extrapolation(self):
        # beyond the last knot log-discount continues linearly at the
        # terminal slope
        for u in (0.5, 2.0, 10.0):
            t = np.array([10.0 + u])
            got = _kernels.eval_log_cubic(
                t, _kernels.locate(CUBIC, t, self.ts), self.dfs, self.table
            )[0]
            expected = self.dfs[-1] * math.exp(self.drv[-1] * u)
            assert got == pytest.approx(expected, rel=1e-14)

    def test_c1_continuity_at_interior_knots(self):
        eps = 1e-7
        for k in range(1, len(self.ts) - 1):
            t0 = self.ts[k]
            grid = np.array([t0 - 2 * eps, t0 - eps, t0 + eps, t0 + 2 * eps])
            loc = _kernels.locate(CUBIC, grid, self.ts)
            p = _kernels.eval_log_cubic(grid, loc, self.dfs, self.table)
            left = (math.log(p[1]) - math.log(p[0])) / eps
            right = (math.log(p[3]) - math.log(p[2])) / eps
            assert left == pytest.approx(right, abs=5e-6)


class TestLeanFormsMatchReference:
    """The numpy cubic kernel and the slope routine are bit-identical to
    their plain transcriptions in ``oracles``."""

    @staticmethod
    def _knots(rng, shape):
        n = int(rng.integers(2, 25))
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 40.0, n - 1))])
        if shape == "monotone":
            ys = np.concatenate([[0.0], np.cumsum(-rng.uniform(0.0, 0.05, n - 1))])
        else:
            ys = np.cumsum(rng.normal(0.0, 0.05, n))
            if shape == "flat" and n > 3:
                ys[2:4] = ys[1]
        return ts, ys

    def test_slopes_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for i in range(600):
            ts, ys = self._knots(rng, ("monotone", "wiggly", "flat")[i % 3])
            got = monotone_cubic_slopes(ts, ys)
            want = reference_monotone_cubic_slopes(ts, ys)
            assert got.tobytes() == want.tobytes(), (ts, ys)

    def test_kernel_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for i in range(600):
            ts, ys = self._knots(rng, ("monotone", "wiggly", "flat")[i % 3])
            dfs = np.exp(ys)
            drv = reference_monotone_cubic_slopes(ts, ys)
            # between knots, exactly on every knot, and past the last one
            t = np.concatenate([
                rng.uniform(0.0, ts[-1], 40), ts, ts[-1] + rng.uniform(0.0, 20.0, 5),
            ])
            rng.shuffle(t)
            got = _kernels.eval_log_cubic(
                t, _kernels.locate(CUBIC, t, ts), dfs, _kernels.knot_data(CUBIC, ts, ys)
            )
            want = reference_eval_log_cubic(t, ts, dfs, ys, drv)
            assert got.tobytes() == want.tobytes(), (ts, ys, t)


class TestLogLinearKernel:
    def test_midpoint_is_geometric_mean(self):
        # between (1y, 0.98) and (2y, 0.95) the log-linear midpoint is
        # sqrt(0.98 * 0.95)
        ts, dfs, lnp = _curve_arrays([1.0, 0.98, 0.95], [0.0, 1.0, 2.0])
        table = _kernels.knot_data(LOGLIN, ts, lnp)
        t = np.array([1.5])
        got = _kernels.eval_log_linear(t, _kernels.locate(LOGLIN, t, ts), dfs, table)[0]
        assert got == pytest.approx(math.sqrt(0.98 * 0.95), rel=1e-15)
        assert got == pytest.approx(0.9648834126, abs=1e-9)

    def test_exact_at_knots(self):
        ts, dfs, lnp = _curve_arrays([1.0, 0.97, 0.92, 0.84], [0.0, 1.0, 3.0, 7.0])
        table = _kernels.knot_data(LOGLIN, ts, lnp)
        out = _kernels.eval_log_linear(ts, _kernels.locate(LOGLIN, ts, ts), dfs, table)
        assert np.array_equal(out, dfs)

    def test_extrapolation_continues_last_segment(self):
        ts, dfs, lnp = _curve_arrays([1.0, 0.98, 0.95], [0.0, 1.0, 2.0])
        table = _kernels.knot_data(LOGLIN, ts, lnp)
        slope = (lnp[2] - lnp[1]) / 1.0
        t = np.array([3.5])
        got = _kernels.eval_log_linear(t, _kernels.locate(LOGLIN, t, ts), dfs, table)[0]
        assert got == pytest.approx(0.95 * math.exp(slope * 1.5), rel=1e-14)


class TestLinearZeroKernel:
    def test_midpoint_averages_zero_rates(self):
        ts, dfs, lnp = _curve_arrays([1.0, 0.98, 0.95], [0.0, 1.0, 2.0])
        zr = zero_rates_from_logdf(ts, lnp)
        table = _kernels.knot_data(LINZERO, ts, lnp)
        z_mid = 0.5 * (zr[1] + zr[2])
        t = np.array([1.5])
        got = _kernels.eval_linear_zero(t, _kernels.locate(LINZERO, t, ts), dfs, table)[0]
        assert got == pytest.approx(math.exp(-z_mid * 1.5), rel=1e-14)

    def test_short_end_flat_zero(self):
        ts, dfs, lnp = _curve_arrays([1.0, 0.98, 0.95], [0.0, 1.0, 2.0])
        zr = zero_rates_from_logdf(ts, lnp)
        table = _kernels.knot_data(LINZERO, ts, lnp)
        t = np.array([0.25])
        got = _kernels.eval_linear_zero(t, _kernels.locate(LINZERO, t, ts), dfs, table)[0]
        assert got == pytest.approx(math.exp(-zr[1] * 0.25), rel=1e-14)

    def test_exact_at_knots(self):
        ts, dfs, lnp = _curve_arrays([1.0, 0.99, 0.96, 0.9], [0.0, 0.7, 2.3, 6.1])
        table = _kernels.knot_data(LINZERO, ts, lnp)
        out = _kernels.eval_linear_zero(ts, _kernels.locate(LINZERO, ts, ts), dfs, table)
        assert np.array_equal(out, dfs)

    def test_extrapolation_freezes_instantaneous_forward(self):
        ts, dfs, lnp = _curve_arrays([1.0, 0.98, 0.95], [0.0, 1.0, 2.0])
        zr = zero_rates_from_logdf(ts, lnp)
        table = _kernels.knot_data(LINZERO, ts, lnp)
        slope = (zr[2] - zr[1]) / 1.0
        f_end = zr[2] + 2.0 * slope
        t = np.array([3.0])
        got = _kernels.eval_linear_zero(t, _kernels.locate(LINZERO, t, ts), dfs, table)[0]
        assert got == pytest.approx(math.exp(-zr[2] * 2.0 - f_end * 1.0), rel=1e-14)


@st.composite
def _knots_and_queries(draw):
    """One to twelve pillars after the t = 0 anchor, and up to 40 query
    times: knots (t = 0 among them), points between them and points up
    to ten years past the last one, in any order; possibly none."""
    n = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n))
    ts = np.concatenate(([0.0], np.cumsum(gaps)))
    steps = draw(st.lists(st.floats(-0.2, 0.05), min_size=n, max_size=n))
    dfs = np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    t = draw(st.lists(
        st.one_of(st.sampled_from(ts.tolist()), st.floats(0.0, float(ts[-1]) + 10.0)),
        max_size=40,
    ))
    return ts, dfs, np.array(t, dtype=float)


class TestLocatedEvaluationMatchesFusedReference:
    """Locate-then-evaluate against the single-pass kernels in ``oracles``."""

    FUSED = {
        CUBIC: reference_eval_log_cubic,
        LOGLIN: reference_eval_log_linear,
        LINZERO: reference_eval_linear_zero,
    }

    def _check(self, ts, dfs, t):
        lnp = np.log(dfs)
        for scheme, fused in self.FUSED.items():
            table = _kernels.knot_data(scheme, ts, lnp)
            want = fused(t, ts, dfs, *reference_knots(scheme, ts, dfs))
            located = _kernels.apply(t, _kernels.locate(scheme, t, ts), dfs, table)
            assert located.tobytes() == want.tobytes(), (scheme, ts, dfs, t)
            ad_hoc = _kernels.evaluate(scheme, t, ts, dfs, table)
            assert ad_hoc.tobytes() == want.tobytes(), (scheme, ts, dfs, t)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_knots_and_queries())
    # a single pillar: t = 0, the knot, between and past it; then no query
    @example((np.array([0.0, 2.0]), np.array([1.0, 0.95]), np.array([0.0, 2.0, 0.7, 3.5])))
    @example((np.array([0.0, 1.0, 3.0]), np.array([1.0, 0.98, 0.9]), np.empty(0)))
    def test_bit_for_bit_property(self, case):
        self._check(*case)

    def test_daily_read_over_thirty_years_in_blocks(self):
        # every day of 10,959 on a 30Y pillar grid, the last few past its
        # last pillar: an ad-hoc read of three blocks
        ts = np.concatenate(([0.0, 1 / 12, 0.25, 0.5], np.arange(1.0, 31.0)))
        dfs = np.exp(-ts * (0.02 + 0.01 * np.sin(ts)))
        t = np.arange(10959) / 365.0
        assert t.size > 2 * _kernels.BLOCK
        self._check(ts, dfs, t)


@st.composite
def _kinked_knots(draw):
    """One to eight pillars after the t = 0 anchor whose log-discount
    secants (0.005 to 0.1 in size) change sign at random, and one to 30
    queries: knots and points up to 20% past the last one."""
    n = draw(st.integers(1, 8))
    gaps = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
    sizes = np.array(draw(st.lists(st.floats(0.005, 0.1), min_size=n, max_size=n)))
    signs = np.array(draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n)))
    ts = np.concatenate(([0.0], np.cumsum(gaps)))
    lnp = np.concatenate(([0.0], np.cumsum(gaps * sizes * signs)))
    t = draw(st.lists(
        st.one_of(st.sampled_from(ts.tolist()), st.floats(0.0, 1.2 * float(ts[-1]))),
        min_size=1, max_size=30,
    ))
    return ts, lnp, np.array(t, dtype=float)


def _knots(secants, gaps=None):
    """Knots with the given log-discount secants, queries on every knot,
    inside every segment and 20% past the last knot."""
    gaps = np.ones(len(secants)) if gaps is None else np.asarray(gaps, dtype=float)
    ts = np.concatenate(([0.0], np.cumsum(gaps)))
    lnp = np.concatenate(([0.0], np.cumsum(gaps * np.asarray(secants))))
    t = np.concatenate((ts, 0.5 * (ts[1:] + ts[:-1]), [1.1 * ts[-1], 1.2 * ts[-1]]))
    return ts, lnp, t


def _dense_log_jacobian(scheme, t, ts, lnp):
    loc = _kernels.locate(scheme, t, ts)
    return _kernels.log_jacobian(t, loc, lnp, np.ones(t.size), np.arange(t.size), t.size)


class TestExactCurveDerivatives:
    """d ln P/d ln p = A + B S' from the located lookup, and S' itself,
    against differences of the values in ``oracles``, one-sided at the
    kinks of the cubic slopes.  A secant moves by up to 2e-3 of itself
    over the step, which bounds the differences' own error to about
    1e-5 relative; a wrong branch or weight is off by far more."""

    H = 1e-6
    TOL = dict(rtol=1e-5, atol=1e-7)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_kinked_knots())
    # a one-pillar curve
    @example(_knots([-0.02]))
    # an interior secant sign change
    @example(_knots([-0.02, 0.03, -0.01, -0.04]))
    # the left edge limited to zero, the right edge to 3 m
    @example(_knots([-0.01, -0.08, -0.03, 0.08, -0.01]))
    # three-point edges on uneven gaps
    @example(_knots([-0.03, -0.02, -0.025], gaps=[0.25, 2.0, 0.5]))
    def test_against_differences(self, case):
        ts, lnp, t = case
        for scheme in InterpScheme:
            got = _dense_log_jacobian(scheme, t, ts, lnp)
            want = reference_log_jacobian(scheme, t, ts, lnp, self.H)
            known = ~np.isnan(want)
            assert known.mean() > 0.5
            np.testing.assert_allclose(
                got[known], want[known], err_msg=scheme.value, **self.TOL
            )
        got = monotone_cubic_slope_jacobian(ts, lnp)
        want = reference_slope_jacobian(ts, lnp, self.H)
        known = ~np.isnan(want)
        np.testing.assert_allclose(got[known], want[known], **self.TOL)

    def test_examples_take_every_branch(self):
        seen = set()
        for secants in ([-0.02, 0.03, -0.01, -0.04], [-0.01, -0.08, -0.03, 0.08, -0.01]):
            seen.update(_reference_slope_branches(*_knots(secants)[:2]))
        assert seen == {True, False, "zero", "limit", "three-point"}

    def test_knot_hits_and_extrapolation_rows(self):
        ts, lnp, _ = _knots([-0.02, 0.03, -0.01])
        t = np.concatenate((ts, [1.2 * ts[-1]]))
        for scheme in InterpScheme:
            jac = _dense_log_jacobian(scheme, t, ts, lnp)
            # a query on a knot returns its stored discount factor
            np.testing.assert_array_equal(jac[:-1], np.eye(ts.size))
            # past the last knot ln P moves one for one with the last log-discount
            # plus the frozen forward's share
            assert jac[-1, -1] > 1.0

    def test_linear_parts_are_kept_on_the_located(self):
        ts, lnp, t = _knots([-0.02, 0.03])
        for scheme in InterpScheme:
            loc = _kernels.locate(scheme, t, ts)
            parts = _kernels.linear_parts(t, loc)
            assert _kernels.linear_parts(t, loc) is parts
            assert (parts[2] is None) is (scheme is not CUBIC)
