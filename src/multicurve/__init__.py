"""Multi-curve interest rate engine.

Separate forwarding curves per rate tenor, one discounting curve, and
the machinery that connects them: bootstrapping, forward basis, vol/
correlation adjustments for forwards fixed under a different curve's
measure, pricing, and quote-delta hedging.
"""

from .timegrid import Date, DayCount, ScheduleSpec, add_months, generate_schedule, year_fraction
from .interp import InterpScheme
from .curve import TENOR_LABELS, LocatedQuery, YieldCurve, tenor_months_from_label
from .basis import (
    BASIS_CSV_HEADER,
    ForwardBasisCurve,
    additive_basis,
    basis_term_structure,
    forward_exchange_rate,
    multiplicative_basis,
    pillar_interval_basis,
    swap_forward_exchange_rate,
    write_basis_csv,
)
from .quanto import (
    InfeasibleVolError,
    SwapVolCorrSpec,
    VolCorrSpec,
    consistency_gap,
    implied_sigma_x,
    load_volcorr,
    piecewise_product_integral,
    quanto_add,
    quanto_mult,
    swap_quanto_add,
    swap_quanto_mult,
)
from .pricer import (
    PRICE_CSV_HEADER,
    Book,
    FraSpec,
    OptionSpec,
    Position,
    SwapSpec,
    annuity,
    black,
    fair_swap_rate,
    load_portfolio,
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
)
from .bootstrap import (
    QUOTES_CSV_HEADER,
    BasisDirection,
    BootstrapConfig,
    BootstrapError,
    InstrumentKind,
    InstrumentQuote,
    SolverStats,
    bootstrap_curve,
    bump_quote,
    curve_from_basis,
    fair_quote,
    instrument_pv,
    read_quotes_csv,
    repricing_errors,
    select_pillar_instruments,
    write_quotes_csv,
)
from .risk import (
    DeltaEntry,
    HedgeRow,
    MarketState,
    ProjectionResult,
    delta_ladder,
    hedge_ratios,
    hedged_pv_fn,
    hedged_residual_ladder,
    project_deltas,
    quote_fingerprint,
    write_hedge_csv,
    write_ladder_csv,
)
from .credit import (
    CreditSpec,
    credit_implied_basis,
    recovery_factor,
    risky_forwarding_curve,
    risky_xibor,
    risky_zcb,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo the package keeps of market structure: the two
    schedule caches of ``timegrid``, the compiled quote sets of
    ``bootstrap`` and the daily grids of ``basis``.  Values never
    depend on them, so this only makes the next compile or table cold.
    What a curve keeps of itself (its knot table, its daily reads) goes
    with the curve."""
    from . import basis, bootstrap, timegrid

    for memo in (
        timegrid.cached_schedule_serials,
        timegrid.cached_schedule_accruals,
        bootstrap._compiled,
        basis._day_grid,
    ):
        memo.cache_clear()

# the one backend every interpolation kernel runs on
KERNEL_BACKEND = "numpy"
