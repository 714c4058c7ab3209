import json
import math

import numpy as np
import pytest

from multicurve import (
    Date,
    ForwardBasisCurve,
    InfeasibleVolError,
    SwapVolCorrSpec,
    VolCorrSpec,
    YieldCurve,
    consistency_gap,
    implied_sigma_x,
    load_volcorr,
    piecewise_product_integral,
    quanto_add,
    quanto_mult,
    swap_quanto_add,
    swap_quanto_mult,
)
from multicurve.quanto import drift_integral

from oracles import drift_quadrature, reference_drift, reference_variance

REF = Date.of(2026, 6, 15)


def random_spec(rng):
    n_breaks = int(rng.integers(0, 7))
    breaks = tuple(np.sort(rng.uniform(0.1, 9.0, size=n_breaks)))
    n = n_breaks + 1
    return VolCorrSpec(
        breakpoints=breaks,
        sigma_f=tuple(rng.uniform(0.01, 0.6, size=n)),
        sigma_x=tuple(rng.uniform(0.01, 0.6, size=n)),
        rho=tuple(rng.uniform(-1.0, 1.0, size=n)),
    )


class TestDriftIntegral:
    def test_segment_sum_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(20260615)
        worst = 0.0
        for _ in range(1000):
            spec = random_spec(rng)
            a = float(rng.uniform(0.0, 5.0))
            b = a + float(rng.uniform(0.05, 5.0))
            got = drift_integral(spec, a, b)
            want = drift_quadrature(spec, a, b)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-12

    def test_flat_closed_form(self):
        spec = VolCorrSpec.flat(0.25, 0.4, -0.5)
        assert drift_integral(spec, 0.0, 2.0) == pytest.approx(
            -0.25 * 0.4 * (-0.5) * 2.0, rel=1e-15
        )

    def test_interval_additivity(self):
        rng = np.random.default_rng(7)
        spec = random_spec(rng)
        whole = drift_integral(spec, 0.3, 6.7)
        split = drift_integral(spec, 0.3, 2.9) + drift_integral(spec, 2.9, 6.7)
        assert whole == pytest.approx(split, abs=1e-16, rel=1e-14)

    def test_empty_interval_is_zero(self):
        spec = VolCorrSpec.flat(0.3, 0.2, 0.8)
        assert drift_integral(spec, 1.5, 1.5) == 0.0

    def test_reversed_interval_rejected(self):
        spec = VolCorrSpec.flat(0.3, 0.2, 0.8)
        with pytest.raises(ValueError):
            drift_integral(spec, 2.0, 1.0)

    def test_variance_integral_is_squared_vol_time(self):
        spec = VolCorrSpec(
            breakpoints=(1.0, 3.0),
            sigma_f=(0.2, 0.3, 0.45),
            sigma_x=(0.1, 0.1, 0.1),
            rho=(0.0, 0.0, 0.0),
        )
        want = 0.2**2 * 1.0 + 0.3**2 * 2.0 + 0.45**2 * 1.0
        assert spec.variance_integral(0.0, 4.0) == pytest.approx(want, rel=1e-15)


def upper_limits(rng, spec):
    """Zero, every breakpoint, points between them and past the last one."""
    bp = np.asarray(spec.breakpoints, dtype=float)
    edges = np.concatenate(([0.0], bp, [bp[-1] + 3.0 if bp.size else 3.0]))
    between = edges[:-1] + rng.uniform(0.0, 1.0, edges.size - 1) * np.diff(edges)
    return np.concatenate(([0.0], bp, between, edges[-1:] + 4.5))


class TestRunningIntegral:
    """The array integral against the segment-sum reference and quadrature."""

    def test_array_limits_match_segment_sum_and_quadrature(self):
        rng = np.random.default_rng(20261018)
        worst_ref = worst_quad = 0.0
        for _ in range(300):
            spec = random_spec(rng)
            b = upper_limits(rng, spec)
            for a in (0.0, float(rng.uniform(0.0, 2.0))):
                lims = b[b >= a]
                got = drift_integral(spec, a, lims)
                var = spec.variance_integral(a, lims)
                assert got.shape == var.shape == lims.shape
                for t, g, v in zip(lims, got, var):
                    t = float(t)
                    worst_ref = max(
                        worst_ref,
                        abs(g - reference_drift(spec, a, t)),
                        abs(v - reference_variance(spec, a, t)),
                    )
                    worst_quad = max(worst_quad, abs(g - drift_quadrature(spec, a, t)))
        assert worst_ref <= 2e-15
        assert worst_quad <= 1e-12

    def test_scalar_limit_gives_float_equal_to_array_entry(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng)
        b = upper_limits(rng, spec)
        whole = drift_integral(spec, 0.0, b)
        for t, w in zip(b, whole):
            one = drift_integral(spec, 0.0, float(t))
            assert isinstance(one, float)
            assert one == w

    def test_flat_spec_is_exact_product(self):
        spec = VolCorrSpec.flat(0.25, 0.4, -0.5)
        t = np.array([0.0, 0.5, 2.0, 30.0])
        assert drift_integral(spec, 0.0, t).tolist() == [
            -(0.25 * 0.4 * -0.5) * x for x in t
        ]

    def test_quanto_mult_one_value_per_fixing(self):
        rng = np.random.default_rng(5)
        spec = random_spec(rng)
        b = upper_limits(rng, spec)
        qa = quanto_mult(spec, 0.0, b)
        want = [math.exp(reference_drift(spec, 0.0, float(t))) for t in b]
        assert np.max(np.abs(qa / want - 1.0)) <= 5e-15
        assert quanto_mult(None, 0.0, b) == 1.0

    def test_limit_below_lower_end_rejected(self):
        spec = VolCorrSpec.flat(0.3, 0.2, 0.8)
        with pytest.raises(ValueError):
            drift_integral(spec, 1.0, np.array([2.0, 0.5]))
        with pytest.raises(ValueError):
            drift_integral(spec, -0.1, np.array([2.0]))


class TestAdjustmentSignAndSize:
    def test_positive_correlation_discounts_the_forward(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            sf = float(rng.uniform(0.05, 0.5))
            sx = float(rng.uniform(0.05, 0.5))
            rho = float(rng.uniform(1e-6, 1.0))
            qa = quanto_mult(VolCorrSpec.flat(sf, sx, rho), 0.0, 1.5)
            assert qa < 1.0
            qa = quanto_mult(VolCorrSpec.flat(sf, sx, -rho), 0.0, 1.5)
            assert qa > 1.0

    def test_zero_correlation_means_no_adjustment(self):
        spec = VolCorrSpec.flat(0.4, 0.3, 0.0)
        assert quanto_mult(spec, 0.0, 10.0) == 1.0
        assert quanto_add(spec, 0.04, 0.0, 10.0) == 0.0

    def test_none_spec_means_no_adjustment(self):
        assert quanto_mult(None, 0.0, 5.0) == 1.0
        assert quanto_add(None, 0.05, 0.0, 5.0) == 0.0

    def test_flat_additive_closed_form(self):
        # semi-annual fixing of a 4% forward; vol product 0.06
        forward, dt = 0.04, 0.5
        for rho in (-1.0, -0.5, -0.01, 0.01, 0.5, 1.0):
            spec = VolCorrSpec.flat(0.3, 0.2, rho)
            got = quanto_add(spec, forward, 0.0, dt)
            want = forward * (math.exp(-0.3 * 0.2 * rho * dt) - 1.0)
            assert got == pytest.approx(want, rel=1e-15, abs=1e-18)

    def test_adjustment_spans_sub_bp_to_above_10bp(self):
        forward, dt = 0.04, 0.5
        tiny = abs(quanto_add(VolCorrSpec.flat(0.3, 0.2, 0.01), forward, 0.0, dt))
        assert tiny < 1e-4
        for rho in (-1.0, 1.0):
            big = abs(quanto_add(VolCorrSpec.flat(0.3, 0.2, rho), forward, 0.0, dt))
            assert big > 10e-4

    def test_swap_rate_adjustment_mirror(self):
        spec = SwapVolCorrSpec.flat(0.22, 0.08, -0.25)
        qa = swap_quanto_mult(spec, 0.0, 3.0)
        assert qa == pytest.approx(math.exp(0.22 * 0.08 * 0.25 * 3.0), rel=1e-15)
        assert swap_quanto_add(spec, 0.03, 0.0, 3.0) == pytest.approx(
            0.03 * (qa - 1.0), rel=1e-15
        )
        assert swap_quanto_mult(None, 0.0, 3.0) == 1.0


class TestValidation:
    """The validation both specs share; ``TestSwapValidation`` runs every
    case again on the swap-rate spec."""

    CLS = VolCorrSpec

    def test_mismatched_segment_lengths(self):
        with pytest.raises(ValueError, match="one more entry"):
            self.CLS((1.0,), (0.2,), (0.1, 0.1), (0.0, 0.0))

    def test_negative_vol(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.CLS.flat(-0.2, 0.1, 0.0)
        with pytest.raises(ValueError, match="non-negative"):
            self.CLS.flat(0.2, -0.1, 0.0)

    def test_correlation_out_of_range(self):
        with pytest.raises(ValueError, match="correlations"):
            self.CLS.flat(0.2, 0.1, 1.0001)

    def test_unsorted_breakpoints(self):
        with pytest.raises(ValueError, match="breakpoints"):
            self.CLS((2.0, 1.0), (0.2, 0.2, 0.2), (0.1,) * 3, (0.0,) * 3)

    @pytest.mark.parametrize("bad", ["abc", None, True, float("nan"), float("inf"), [0.2]])
    def test_non_numbers_rejected(self, bad):
        with pytest.raises(ValueError, match="finite numbers"):
            self.CLS.flat(bad, 0.1, 0.0)
        with pytest.raises(ValueError, match="finite numbers"):
            self.CLS((bad,), (0.2, 0.2), (0.1, 0.1), (0.0, 0.0))


class TestSwapValidation(TestValidation):
    CLS = SwapVolCorrSpec


class TestSerialization:
    """JSON form of both specs; ``TestSwapSerialization`` runs every case
    again on the swap-rate spec."""

    CLS = VolCorrSpec
    KEYS = ["breakpoints", "sigma_f", "sigma_X", "rho_fX"]

    def test_round_trip(self):
        spec = self.CLS((0.5, 2.0), (0.2, 0.25, 0.3), (0.1, 0.12, 0.14),
                        (-0.3, -0.2, -0.1))
        data = spec.to_dict()
        assert list(data) == self.KEYS
        again = self.CLS.from_dict(json.loads(json.dumps(data)))
        assert again == spec and hash(again) == hash(spec)
        flat = self.CLS.flat(0.2, 0.1, -0.3).to_dict()
        del flat["breakpoints"]  # optional: no breakpoints means constant
        assert self.CLS.from_dict(flat) == self.CLS.flat(0.2, 0.1, -0.3)

    @pytest.mark.parametrize("data", [
        [0.2], "spec", None,
        {"breakpoints": []},
        {"breakpoints": [], "sigma_f": 0.2, "sigma_X": [0.1], "rho_fX": [0.0],
         "nu_f": 0.2, "nu_Y": [0.1], "rho_fY": [0.0]},
    ])
    def test_malformed_dict_rejected(self, data):
        with pytest.raises(ValueError):
            self.CLS.from_dict(data)

    def test_load_dispatches_on_keys(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.CLS.flat(0.22, 0.08, -0.25).to_dict()))
        assert type(load_volcorr(path)) is self.CLS


class TestSwapSerialization(TestSerialization):
    CLS = SwapVolCorrSpec
    KEYS = ["breakpoints", "nu_f", "nu_Y", "rho_fY"]


def test_specs_of_both_kinds_never_equal():
    assert VolCorrSpec.flat(0.2, 0.1, 0.3) != SwapVolCorrSpec.flat(0.2, 0.1, 0.3)


def synthetic_basis_from_vols(times, sigma_f, sigma_x, rho, f_f, f_d):
    """Build the basis curve a given vol path would fully explain."""
    ln_qa = np.cumsum(-sigma_f * sigma_x * rho * np.diff(np.concatenate(([0.0], times))))
    mult = 1.0 + (f_f / f_d) * (np.exp(ln_qa) - 1.0)
    t1 = REF.serial + np.round(times * 365.0).astype(np.int64)
    return ForwardBasisCurve(
        forwarding_label="fwd_6M",
        discounting_label="discount",
        reference_date=REF,
        t1=t1,
        t2=t1 + 182,
        mult=mult,
        add=f_d * (mult - 1.0),
        fwd_disc=f_d.copy(),
        tenor_months=6,
    )


class TestImpliedExchangeVol:
    def setup_method(self):
        self.times = np.array([146.0, 365.0, 730.0, 1461.0]) / 365.0
        self.sigma_f = np.array([0.25, 0.22, 0.2, 0.18])
        self.rho = np.full(4, -0.4)
        self.f_f = np.array([0.021, 0.023, 0.026, 0.03])
        self.f_d = np.array([0.02, 0.022, 0.025, 0.029])

    def test_round_trip_recovers_vols(self):
        true_sx = np.array([0.12, 0.2, 0.35, 0.08])
        basis = synthetic_basis_from_vols(
            self.times, self.sigma_f, true_sx, self.rho, self.f_f, self.f_d
        )
        got = implied_sigma_x(basis, self.f_f, self.f_d, self.sigma_f, self.rho)
        assert np.max(np.abs(got - true_sx)) <= 1e-12

    def test_recovered_spec_closes_the_gap(self):
        true_sx = np.array([0.15, 0.25, 0.1, 0.3])
        basis = synthetic_basis_from_vols(
            self.times, self.sigma_f, true_sx, self.rho, self.f_f, self.f_d
        )
        sx = implied_sigma_x(basis, self.f_f, self.f_d, self.sigma_f, self.rho)
        spec = VolCorrSpec(
            breakpoints=tuple(basis.fixing_times()[:-1]),
            sigma_f=tuple(self.sigma_f),
            sigma_x=tuple(sx),
            rho=tuple(self.rho),
        )
        for i, t1 in enumerate(basis.t1_dates):
            qa = quanto_mult(spec, 0.0, basis.fixing_times()[i])
            target = 1.0 + (self.f_d[i] / self.f_f[i]) * (basis.mult[i] - 1.0)
            assert qa == pytest.approx(target, rel=1e-13)

    def test_zero_correlation_segment_infeasible(self):
        true_sx = np.full(4, 0.2)
        basis = synthetic_basis_from_vols(
            self.times, self.sigma_f, true_sx, self.rho, self.f_f, self.f_d
        )
        rho = self.rho.copy()
        rho[2] = 0.0
        with pytest.raises(InfeasibleVolError):
            implied_sigma_x(basis, self.f_f, self.f_d, self.sigma_f, rho)

    def test_sign_infeasible_segment(self):
        true_sx = np.full(4, 0.2)
        basis = synthetic_basis_from_vols(
            self.times, self.sigma_f, true_sx, self.rho, self.f_f, self.f_d
        )
        # a negative-correlation path cannot reproduce a shrinking target
        basis.mult[2] = 1.0 + (basis.mult[1] - 1.0) * 0.1
        with pytest.raises(InfeasibleVolError):
            implied_sigma_x(basis, self.f_f, self.f_d, self.sigma_f, self.rho)

    def test_wrong_shape_rejected(self):
        true_sx = np.full(4, 0.2)
        basis = synthetic_basis_from_vols(
            self.times, self.sigma_f, true_sx, self.rho, self.f_f, self.f_d
        )
        with pytest.raises(ValueError):
            implied_sigma_x(basis, self.f_f[:2], self.f_d, self.sigma_f, self.rho)


class TestConsistencyGap:
    def make_pair(self):
        dates = [REF.add_days(k * 183) for k in range(1, 12)]
        disc = YieldCurve(
            REF, [(d, math.exp(-0.02 * (d.serial - REF.serial) / 365.0)) for d in dates]
        )
        fwd = YieldCurve(
            REF, [(d, math.exp(-0.0206 * (d.serial - REF.serial) / 365.0)) for d in dates]
        )
        return fwd, disc

    def test_add_gap_is_forward_scaled_mult_gap(self):
        fwd, disc = self.make_pair()
        spec = VolCorrSpec.flat(0.25, 0.15, -0.5)
        t1, t2 = REF.add_days(366), REF.add_days(549)
        gaps = consistency_gap(fwd, disc, spec, t1, t2)
        f_f = fwd.simple_forward(t1, t2, disc.daycount)
        assert gaps["add_gap"] == pytest.approx(
            f_f * gaps["mult_gap"], rel=1e-12, abs=1e-18
        )

    def test_matching_spec_reports_near_zero_gap(self):
        fwd, disc = self.make_pair()
        t1, t2 = REF.add_days(366), REF.add_days(549)
        b = (t1.serial - REF.serial) / 365.0
        f_f = fwd.simple_forward(t1, t2, disc.daycount)
        f_d = disc.simple_forward(t1, t2, disc.daycount)
        from multicurve import multiplicative_basis

        ba = multiplicative_basis(fwd, disc, t1, t2)
        target = 1.0 + (f_d / f_f) * (ba - 1.0)
        # solve a flat spec that hits the target exactly
        sigma_f, sigma_x = 0.25, 0.2
        rho = -math.log(target) / (sigma_f * sigma_x * b)
        spec = VolCorrSpec.flat(sigma_f, sigma_x, rho)
        gaps = consistency_gap(fwd, disc, spec, t1, t2)
        assert abs(gaps["mult_gap"]) <= 1e-14
        assert abs(gaps["add_gap"]) <= 1e-15
