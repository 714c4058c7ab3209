"""Package acceptance suite: one test per shipped guarantee.

Run ``pytest -v tests/test_acceptance.py`` for a pass/fail line per
criterion.  Tolerances and time budgets are part of the contract, so
they are asserted here rather than in the unit suites.
"""

import math
import time

import numpy as np
import pytest
from oracles import black_quadrature, drift_quadrature

from multicurve import (
    Book,
    BootstrapConfig,
    Date,
    FraSpec,
    InstrumentKind,
    InterpScheme,
    MarketState,
    OptionSpec,
    SwapSpec,
    SwapVolCorrSpec,
    VolCorrSpec,
    add_months,
    annuity,
    basis_term_structure,
    curve_from_basis,
    delta_ladder,
    fair_swap_rate,
    hedge_ratios,
    hedged_residual_ladder,
    instrument_pv,
    parse_portfolio,
    pillar_interval_basis,
    price_caplet_floorlet,
    price_fra,
    price_position,
    price_swaption,
    project_deltas,
    quanto_add,
    quanto_mult,
    quote_fingerprint,
    repricing_errors,
    select_pillar_instruments,
    swap_quanto_mult,
    year_fraction,
)
from multicurve.bootstrap import BasisDirection
from multicurve.credit import CreditSpec, credit_implied_basis, risky_forwarding_curve
from multicurve.curve import tenor_months_from_label
from multicurve.synthetic import make_quote_sets
from test_quanto import random_spec

REF = Date.of(2026, 6, 15)


@pytest.fixture(scope="module")
def base_market():
    """Shared quote sets and bootstrapped curves for the criteria."""
    sets = make_quote_sets()
    state = MarketState(REF, sets)
    return sets, state, state.base_curves()


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels(base_market):
    # touch every pricing path once so one-off first-call costs never
    # count against a runtime budget
    _, _, curves = base_market
    disc, fwd = curves["discount"], curves["fwd_6M"]
    t1, t2 = add_months(REF, 12), add_months(REF, 18)
    vc = VolCorrSpec.flat(0.2, 0.2, -0.3)
    price_caplet_floorlet(disc, fwd, OptionSpec(t1, t2, 0.03), vc)
    price_swaption(
        disc, fwd, SwapSpec(t1, add_months(t1, 60), 0.03),
        SwapVolCorrSpec.flat(0.2, 0.1, -0.3),
    )
    basis_term_structure(fwd, disc, 6, 30)


def _companions(curves, label):
    return {
        tenor_months_from_label(lbl): c
        for lbl, c in curves.items()
        if lbl != label and tenor_months_from_label(lbl) is not None
    }


def test_criterion_01_single_curve_degeneracy(base_market):
    start = time.perf_counter()
    _, _, curves = base_market
    disc = curves["discount"]

    table = basis_term_structure(disc, disc, 6, 1)
    assert np.max(np.abs(np.asarray(table.mult) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.asarray(table.add))) <= 1e-12

    # zero-correlation vol specs: options keep time value while the
    # forward adjustment stays identically one
    vc = VolCorrSpec.flat(0.2, 0.2, 0.0)
    sv = SwapVolCorrSpec.flat(0.2, 0.1, 0.0)
    positions = parse_portfolio([
        {"id": "a", "kind": "fra", "forwarding": "fwd_6M",
         "start": "2027-06-15", "end": "2027-12-15", "strike": 0.03,
         "notional": 1e6},
        {"id": "b", "kind": "swap", "forwarding": "fwd_6M",
         "start": "2026-06-15", "end": "2031-06-15", "fixed_rate": 0.035,
         "notional": 1e6},
        {"id": "c", "kind": "caplet", "forwarding": "fwd_6M",
         "start": "2027-06-15", "end": "2027-12-15", "strike": 0.04,
         "notional": 1e6},
        {"id": "d", "kind": "floor", "forwarding": "fwd_6M",
         "start": "2026-12-15", "end": "2029-12-15", "strike": 0.04,
         "notional": 1e6},
        {"id": "e", "kind": "swaption", "forwarding": "fwd_6M",
         "start": "2028-06-15", "end": "2033-06-15", "strike": 0.04,
         "notional": 1e6},
    ])
    degenerate = {"discount": disc, "fwd_6M": disc}
    for pos in positions:
        pv_two, fair_two = price_position(
            pos, degenerate, volcorr=vc, swap_volcorr=sv
        )
        pv_one, fair_one = price_position(
            pos, {"discount": disc}, volcorr=vc, swap_volcorr=sv,
            single_curve=True,
        )
        assert abs(pv_two - pv_one) <= 1e-12 * max(1.0, abs(pv_one)), pos.id
        assert abs(fair_two - fair_one) <= 1e-12 * max(1.0, abs(fair_one))

    assert time.perf_counter() - start < 1.0


def test_criterion_02_bootstrap_repricing_closure(base_market):
    start = time.perf_counter()
    sets = make_quote_sets()

    # the widest quoted spread family decays from 80 bp at 1Y to about
    # 2 bp at 30Y, strictly monotonically
    family = sorted(
        (q for q in sets["fwd_1M"] if q.kind is InstrumentKind.BASIS_SWAP),
        key=lambda q: q.end,
    )
    spreads = [q.quote for q in family]
    assert spreads[0] == pytest.approx(80e-4, rel=1e-12)
    assert 1.9e-4 < spreads[-1] < 2.2e-4
    assert all(a > b for a, b in zip(spreads, spreads[1:]))

    state = MarketState(REF, sets)
    curves = state.base_curves()
    for label in state.build_order:
        chosen = select_pillar_instruments(sets[label])
        disc = None if label == "discount" else curves["discount"]
        errs = repricing_errors(
            chosen, curves[label], disc, _companions(curves, label)
        )
        assert np.max(np.abs(errs)) <= 1e-10, label

    assert time.perf_counter() - start < 5.0


def test_criterion_03_basis_reconstruction_round_trip(base_market):
    start = time.perf_counter()
    _, _, curves = base_market
    disc, fwd = curves["discount"], curves["fwd_6M"]

    grid = pillar_interval_basis(fwd, disc, fwd.pillar_dates)
    rebuilt_fwd = curve_from_basis(disc, grid, BasisDirection.DERIVE_FORWARDING)
    err_f = np.abs(np.asarray(rebuilt_fwd.pillar_dfs) - np.asarray(fwd.pillar_dfs))
    assert np.max(err_f) <= 1e-12

    rebuilt_disc = curve_from_basis(fwd, grid, BasisDirection.DERIVE_DISCOUNT)
    want = np.array([float(disc.discount(d)) for d in grid.t2_dates])
    err_d = np.abs(np.asarray(rebuilt_disc.pillar_dfs) - want)
    assert np.max(err_d) <= 1e-12

    assert time.perf_counter() - start < 1.0


def test_criterion_04_adjustment_matches_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    for _ in range(1000):
        spec = random_spec(rng)
        b = float(rng.uniform(0.25, 10.0))
        qa = quanto_mult(spec, 0.0, b)
        want = math.exp(drift_quadrature(spec, 0.0, b))
        assert abs(qa - want) <= 1e-12 * max(1.0, abs(want))
        # positive correlation throughout pushes the adjustment below one
        pos = VolCorrSpec(
            spec.breakpoints, spec.sigma_f, spec.sigma_x,
            tuple(max(abs(r), 1e-3) for r in spec.rho),
        )
        assert quanto_mult(pos, 0.0, b) < 1.0
    assert time.perf_counter() - start < 5.0


def test_criterion_05_adjustment_scenario_band():
    forward, horizon = 0.04, 0.5
    combos = ((0.2, 0.2), (0.3, 0.2), (0.3, 0.3))
    rhos = [round(-1.0 + 0.1 * i, 1) for i in range(21)]
    adds = {}
    for sf, sx in combos:
        for rho in rhos:
            spec = VolCorrSpec.flat(sf, sx, rho)
            add = quanto_add(spec, forward, 0.0, horizon)
            want = forward * (math.exp(-sf * sx * rho * horizon) - 1.0)
            assert add == pytest.approx(want, rel=1e-12, abs=1e-16)
            adds[(sf, sx, rho)] = add
    small = [abs(v) for (sf, sx, r), v in adds.items() if v != 0.0]
    assert min(small) < 1e-4  # sub-basis-point near zero correlation
    big = [
        abs(v) for (sf, sx, r), v in adds.items()
        if sf * sx >= 0.06 and abs(r) == 1.0
    ]
    assert max(big) > 10e-4  # beyond ten basis points at full correlation


def test_criterion_06_option_prices_against_quadrature(base_market):
    _, _, curves = base_market
    disc, fwd = curves["discount"], curves["fwd_6M"]
    vc = VolCorrSpec.flat(0.25, 0.1, -0.3)
    sv = SwapVolCorrSpec.flat(0.22, 0.08, -0.25)
    expiries = (6, 12, 24, 60, 120)  # months
    moneyness = (0.6, 0.8, 1.0, 1.25, 1.6)
    cases = 0

    for months in expiries:
        t1 = add_months(REF, months)
        t2 = add_months(t1, 6)
        tau = year_fraction(t1, t2, fwd.daycount)
        t_fix = disc.time(t1)
        f_adj = fwd.simple_forward(t1, t2, fwd.daycount) * quanto_mult(
            vc, 0.0, t_fix
        )
        var = vc.variance_integral(0.0, t_fix)
        for m in moneyness:
            k = m * f_adj
            got = price_caplet_floorlet(disc, fwd, OptionSpec(t1, t2, k), vc)
            want = float(disc.discount(t2)) * tau * black_quadrature(
                f_adj, k, var, 1
            )
            assert got == pytest.approx(want, rel=1e-7)
            cases += 1

        swap = SwapSpec(t1, add_months(t1, 60), 0.0)
        s_adj = fair_swap_rate(disc, fwd, swap) * swap_quanto_mult(
            sv, 0.0, t_fix
        )
        var_s = sv.variance_integral(0.0, t_fix)
        a_d = annuity(disc, swap.fixed_schedule(), swap.daycount_fixed)
        for m in moneyness:
            k = m * s_adj
            spec = SwapSpec(t1, add_months(t1, 60), k, payer=True)
            got = price_swaption(disc, fwd, spec, sv)
            want = a_d * black_quadrature(s_adj, k, var_s, 1)
            assert got == pytest.approx(want, rel=1e-7)
            cases += 1
    assert cases == 50

    # parity and payer/receiver antisymmetry
    for months in expiries:
        t1 = add_months(REF, months)
        t2 = add_months(t1, 6)
        k = fwd.simple_forward(t1, t2, fwd.daycount)
        cap = price_caplet_floorlet(disc, fwd, OptionSpec(t1, t2, k, 1), vc)
        flr = price_caplet_floorlet(disc, fwd, OptionSpec(t1, t2, k, -1), vc)
        fra = price_fra(disc, fwd, FraSpec(t1, t2, k), vc)
        assert cap - flr == pytest.approx(fra, rel=1e-12, abs=1e-15)

        pay = SwapSpec(t1, add_months(t1, 60), k, payer=True)
        rec = SwapSpec(t1, add_months(t1, 60), k, payer=False)
        s_adj = fair_swap_rate(disc, fwd, pay) * swap_quanto_mult(
            sv, 0.0, disc.time(t1)
        )
        a_d = annuity(disc, pay.fixed_schedule(), pay.daycount_fixed)
        straddle = price_swaption(disc, fwd, pay, sv) - price_swaption(
            disc, fwd, rec, sv
        )
        assert straddle == pytest.approx(a_d * (s_adj - k), rel=1e-12, abs=1e-15)


def test_criterion_07_interpolation_artifact_contrast():
    sets = make_quote_sets()
    cubic = MarketState(REF, sets).base_curves()
    linzero = MarketState(
        REF, sets,
        config=BootstrapConfig(interpolation=InterpScheme.LINEAR_ZERO),
    ).base_curves()

    def total_variation(curves):
        table = basis_term_structure(curves["fwd_6M"], curves["discount"], 6, 1)
        return float(np.sum(np.abs(np.diff(np.asarray(table.add)))))

    tv_cubic = total_variation(cubic)
    tv_linzero = total_variation(linzero)
    assert tv_linzero >= 3.0 * tv_cubic

    # daily one-day forwards: a pillar jump appears as a spike in the
    # second difference, orders of magnitude above any smooth change
    def largest_jump(curve):
        t = np.arange(0, 30 * 365 + 2) / 365.0
        lnp = np.log(np.asarray(curve.discount_time(t)))
        f = -(lnp[1:] - lnp[:-1]) * 365.0
        return float(np.max(np.abs(np.diff(f))))

    jump_cubic = largest_jump(cubic["fwd_6M"])
    jump_linzero = largest_jump(linzero["fwd_6M"])
    assert jump_linzero > 10.0 * jump_cubic
    assert jump_cubic < 2e-4 and jump_linzero > 20e-4


# swap maturities of the criterion 08 book and its projection targets
BOOK_YEARS = (2, 3, 5, 7, 10, 15, 20, 30)


def criterion_08_positions():
    """The seeded 50-position FRA and swap book over all four
    forwarding curves that criterion 08 hedges."""
    rng = np.random.default_rng(20260615)
    years = BOOK_YEARS
    labels = ("fwd_1M", "fwd_3M", "fwd_6M", "fwd_12M")
    rows = []
    for i in range(50):
        label = labels[int(rng.integers(0, len(labels)))]
        months = int(label.removeprefix("fwd_").removesuffix("M"))
        notional = float(rng.uniform(1e5, 1e6) * rng.choice((-1.0, 1.0)))
        if i % 3 == 0:
            k = int(rng.integers(1, 20))
            start_d = add_months(REF, months * k)
            rows.append({
                "kind": "fra", "forwarding": label,
                "start": start_d.iso(), "end": add_months(start_d, months).iso(),
                "strike": float(rng.uniform(0.01, 0.06)), "notional": notional,
            })
        else:
            end = add_months(REF, 12 * years[int(rng.integers(0, len(years)))])
            rows.append({
                "kind": "swap", "forwarding": label,
                "start": REF.iso(), "end": end.iso(),
                "fixed_rate": float(rng.uniform(0.01, 0.06)),
                "notional": notional, "float_tenor_months": months,
            })
    return parse_portfolio(rows)


def test_criterion_08_risk_closure(base_market):
    start = time.perf_counter()
    sets, state, curves = base_market

    # a par bootstrapping swap sees essentially only its own pillar
    two = MarketState(
        REF, {"discount": sets["discount"], "fwd_6M": sets["fwd_6M"]}
    )
    q10 = next(
        q for q in sets["fwd_6M"]
        if q.kind is InstrumentKind.SWAP and q.end == add_months(REF, 120)
    )
    par_pv = lambda c: 1e6 * instrument_pv(
        q10, q10.quote, c["fwd_6M"], c["discount"]
    )
    par_ladder = delta_ladder(two, par_pv)
    own = next(
        e for e in par_ladder
        if quote_fingerprint(e.quote) == quote_fingerprint(q10)
    )
    gross_par = sum(abs(e.delta_per_bp) for e in par_ladder)
    assert abs(own.delta_per_bp) >= 0.999 * gross_par

    # a 50-position random vanilla book over all five curves, hedged
    # with the bootstrapping instruments themselves
    positions = criterion_08_positions()
    assert len(positions) == 50

    def pv_fn(cv):
        return sum(price_position(p, cv)[0] for p in positions)

    entries = delta_ladder(state, pv_fn)
    assert all(e.error is None for e in entries)
    gross = sum(abs(e.delta_per_bp) for e in entries)
    assert gross > 0.0

    locations = [
        (label, i)
        for label in state.build_order
        for i in range(len(state.quote_sets[label]))
    ]
    hedges = hedge_ratios(state, pv_fn, locations)
    residual = hedged_residual_ladder(state, pv_fn, hedges)
    assert sum(abs(e.delta_per_bp) for e in residual) < 1e-6 * gross

    # projection onto the standard maturities conserves the total
    # exactly, not approximately
    targets = [state.time(add_months(REF, 12 * y)) for y in (1,) + BOOK_YEARS]
    proj = project_deltas(
        [e.time for e in entries], [e.delta_per_bp for e in entries], targets
    )
    assert proj.total_projected == proj.total_input

    assert time.perf_counter() - start < 30.0


def test_criterion_08_through_a_book(base_market):
    # criterion 08's book as a ``Book``, whose exact gradient comes from
    # one valuation, against the lambda the criterion passes, whose
    # gradient is differenced: the ladder, the hedges and the hedged
    # residual agree within the criterion's 1e-6 of gross
    sets, state, _ = base_market
    positions = criterion_08_positions()
    book = Book(positions)

    def pv_fn(cv):
        return sum(price_position(p, cv)[0] for p in positions)

    want = delta_ladder(state, pv_fn)
    got = delta_ladder(state, book)
    assert state.risk_stats()["gradient"] == "exact"
    gross = sum(abs(e.delta_per_bp) for e in want)
    assert gross > 0.0
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.error is None and w.error is None
        assert g.locations == w.locations
        assert abs(g.delta_per_bp - w.delta_per_bp) <= 1e-6 * gross

    locations = [
        (label, i) for label in state.build_order for i in range(len(sets[label]))
    ]
    hedges_want = hedge_ratios(state, pv_fn, locations)
    hedges_got = hedge_ratios(state, book, locations)
    assert len(hedges_got) == len(hedges_want) == len(locations)
    for g, w in zip(hedges_got, hedges_want):
        assert (g.set_label, g.index) == (w.set_label, w.index)
        assert g.own_delta_per_bp == w.own_delta_per_bp
        assert abs(g.portfolio_delta_per_bp - w.portfolio_delta_per_bp) <= 1e-6 * gross
        assert abs((g.ratio - w.ratio) * w.own_delta_per_bp) <= 1e-6 * gross

    residual_want = hedged_residual_ladder(state, pv_fn, hedges_want)
    residual_got = hedged_residual_ladder(state, book, hedges_got)
    assert len(residual_got) == len(residual_want)
    assert sum(abs(e.delta_per_bp) for e in residual_got) < 1e-6 * gross
    for g, w in zip(residual_got, residual_want):
        assert abs(g.delta_per_bp - w.delta_per_bp) <= 1e-6 * gross


def test_criterion_09_credit_limits(base_market):
    _, _, curves = base_market
    disc = curves["discount"]
    t1, t2 = add_months(REF, 12), add_months(REF, 18)

    full_recovery = CreditSpec.flat_hazard(REF, 1.0, 0.02)
    assert credit_implied_basis(disc, full_recovery, t1, t2) == (1.0, 0.0)
    certain_survival = CreditSpec(REF, 0.3, (add_months(REF, 480),), (1.0,))
    assert credit_implied_basis(disc, certain_survival, t1, t2) == (1.0, 0.0)

    spec = CreditSpec.flat_hazard(REF, 0.4, 0.02)
    dates = [add_months(REF, 6 * k) for k in range(1, 41)]
    risky = risky_forwarding_curve(disc, spec, dates)
    grid = pillar_interval_basis(risky, disc, dates)
    for i, (a, b) in enumerate(zip(grid.t1_dates, grid.t2_dates)):
        mult, add = credit_implied_basis(disc, spec, a, b)
        assert abs(grid.mult[i] - mult) <= 1e-12 * max(1.0, abs(mult))
        assert abs(grid.add[i] - add) <= 1e-12 * max(1.0, abs(add))
