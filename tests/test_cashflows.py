"""A bootstrap quote and the pricer instrument it describes agree bit for
bit: both evaluate the one leg arithmetic of ``_cashflows`` on the same
discount factors."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicurve import (
    DayCount,
    FraSpec,
    InstrumentKind,
    InstrumentQuote,
    InterpScheme,
    Position,
    SwapSpec,
    YieldCurve,
    add_months,
    fair_quote,
    fair_swap_rate,
    instrument_pv,
    price_fra,
    price_position,
)
from multicurve.synthetic import default_market

PILLAR_MONTHS = (1, 3, 6, 9, 12, 18, 24, 36, 60, 84, 120, 180, 240, 360)
TENORS = (1, 3, 6, 12)


@lru_cache(maxsize=None)
def _curves(scheme: InterpScheme) -> dict[str, YieldCurve]:
    m = default_market()
    ref = m.reference_date
    dates = [add_months(ref, k) for k in PILLAR_MONTHS]
    curves = {"discount": YieldCurve(
        ref, [(d, m.discount_df(d)) for d in dates], scheme, tenor_label="discount"
    )}
    for months in TENORS:
        curves[f"fwd_{months}M"] = YieldCurve(
            ref, [(d, m.tenor_df(months, d)) for d in dates], scheme,
            tenor_label=f"fwd_{months}M",
        )
    return curves


@st.composite
def _market_case(draw):
    """Curves under one scheme, single- or dual-curve, and a start date
    on or after their reference date."""
    curves = _curves(draw(st.sampled_from(list(InterpScheme))))
    months = draw(st.sampled_from(TENORS))
    fwd = curves[f"fwd_{months}M"]
    disc = fwd if draw(st.booleans()) else curves["discount"]
    start = add_months(fwd.reference_date, draw(st.integers(0, 36))).add_days(
        draw(st.integers(0, 27))
    )
    return months, fwd, disc, start


DAYCOUNTS = st.sampled_from(list(DayCount))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_market_case(), years=st.integers(1, 30),
       fixed=st.sampled_from((3, 6, 12)), daycount=DAYCOUNTS)
def test_swap_quote_is_the_swap_par_rate(case, years, fixed, daycount):
    months, fwd, disc, start = case
    end = add_months(start, 12 * years)
    q = InstrumentQuote(
        InstrumentKind.SWAP, months, start, end, 0.03,
        fixed_frequency=fixed, daycount=daycount,
    )
    spec = SwapSpec(
        start, end, 0.03, float_tenor_months=months,
        fixed_frequency_months=fixed, daycount_fixed=daycount,
    )
    assert fair_quote(q, fwd, disc) == fair_swap_rate(disc, fwd, spec)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_market_case(), kind=st.sampled_from((InstrumentKind.DEPOSIT, InstrumentKind.FRA)),
       periods=st.integers(1, 4), daycount=DAYCOUNTS)
def test_money_market_quote_is_the_fra(case, kind, periods, daycount):
    months, fwd, disc, start = case
    end = add_months(start, months * periods)
    rate = 0.025
    q = InstrumentQuote(kind, months, start, end, rate, daycount=daycount)
    fair = fair_quote(q, fwd, disc)
    fra = Position("q", "fra", fwd.tenor_label, FraSpec(start, end, rate, daycount=daycount))
    assert fair == price_position(fra, {"discount": disc, fwd.tenor_label: fwd})[1]
    assert fair == fwd.simple_forward(start, end, daycount)
    # struck 25bp off the fair rate so the PV is far from zero
    strike, notional = fair + 25e-4, 1e6
    pv = instrument_pv(q, strike, fwd, disc, notional=notional)
    want = price_fra(disc, fwd, FraSpec(start, end, strike, notional, daycount))
    assert pv == pytest.approx(want, rel=1e-14, abs=0.0)
