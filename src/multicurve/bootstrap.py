"""Curve construction from market quotes.

Each quote pins the discount factor at its end date (the pillar).  A
curve's pillar log-discounts ln p solve R(ln p) = 0, where R holds every
quote's fair value minus its quote in rate space.  Each quote is
compiled once (``_compile_quote`` is the only quote arithmetic), and R
costs one knot-data build and one kernel call over all the times the
quotes read.  Damped Newton solves all pillars of a curve together from
a seed (a nearby curve, the discounting curve or the quotes' own rates),
with the Jacobian taken by forward differences.  Solving them together
matters because the monotone cubic is only semi-local: the slope stored
at knot i reacts to pillars i-1 and i+1, so solving pillar n alone can
disturb instruments that matured earlier.

Forwarding curves bootstrap against a fixed discounting curve; basis
swap quotes against one tenor may also reference a companion forwarding
curve for the other leg.  Passing no discounting curve reproduces the
classical single-curve recipe where the curve discounts itself.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import _kernels
from .basis import ForwardBasisCurve
from .curve import YieldCurve
from .interp import InterpScheme
from .timegrid import Date, DayCount, year_fraction
from .timegrid import cached_accruals as _taus
from .timegrid import cached_schedule as _sched

__all__ = [
    "InstrumentKind",
    "InstrumentQuote",
    "BootstrapConfig",
    "BootstrapError",
    "BasisDirection",
    "fair_quote",
    "instrument_pv",
    "repricing_errors",
    "select_pillar_instruments",
    "bootstrap_curve",
    "curve_from_basis",
    "read_quotes_csv",
    "write_quotes_csv",
    "bump_quote",
    "QUOTES_CSV_HEADER",
]

logger = logging.getLogger(__name__)

QUOTES_CSV_HEADER = (
    "kind,underlying_tenor_months,start,end,quote,"
    "fixed_freq_months,leg_daycount,second_tenor_months"
)


class InstrumentKind(Enum):
    DEPOSIT = "DEPOSIT"
    FRA = "FRA"
    FUTURES = "FUTURES"
    SWAP = "SWAP"
    BASIS_SWAP = "BASIS_SWAP"
    OIS = "OIS"


# When two quotes share an end date the higher rank keeps the pillar.
_PILLAR_RANK = {
    InstrumentKind.DEPOSIT: 0,
    InstrumentKind.FRA: 1,
    InstrumentKind.FUTURES: 1,
    InstrumentKind.SWAP: 2,
    InstrumentKind.BASIS_SWAP: 2,
    InstrumentKind.OIS: 2,
}


class BootstrapError(RuntimeError):
    """Raised when a quote set cannot be turned into a curve."""


@dataclass(frozen=True)
class InstrumentQuote:
    """One market quote.

    ``quote`` is a decimal rate for deposits, FRAs, swaps and overnight
    index swaps, a decimal spread for basis swaps, and a price on the
    100 scale for futures.  ``underlying_tenor`` is the floating index
    tenor in months (the roll of the floating schedule); for a basis
    swap ``second_tenor`` names the other leg.  ``daycount`` covers the
    money-market accrual of deposits / FRAs / futures and the fixed leg
    of (basis-free) swaps; ``float_daycount`` only accrues the basis
    swap spread.  ``convexity`` is the futures-to-forward rate
    correction already netted off the implied rate.
    """

    kind: InstrumentKind
    underlying_tenor: int
    start: Date
    end: Date
    quote: float
    fixed_frequency: int = 12
    daycount: DayCount = DayCount.ACT_360
    float_daycount: DayCount = DayCount.ACT_360
    second_tenor: int | None = None
    convexity: float = 0.0

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError("quote needs start < end")
        if self.underlying_tenor <= 0:
            raise ValueError("underlying tenor must be positive months")
        if not np.isfinite(self.quote):
            raise ValueError("quote must be finite")
        if self.kind is InstrumentKind.BASIS_SWAP:
            if self.second_tenor is None:
                raise ValueError("basis swap quote needs second_tenor")
            if self.second_tenor == self.underlying_tenor:
                raise ValueError(
                    f"basis swap legs must differ in tenor, both are "
                    f"{self.underlying_tenor}M"
                )

    def implied_rate(self) -> float:
        """The quote as a decimal rate (futures price unwound)."""
        if self.kind is InstrumentKind.FUTURES:
            return (100.0 - self.quote) / 100.0 - self.convexity
        return self.quote


@dataclass(frozen=True)
class BootstrapConfig:
    """Curve scheme and solver settings.

    ``tolerance`` bounds every quote's repricing residual in rate units;
    ``max_iterations`` caps the Newton iterations; every solved pillar
    discount factor must lie inside ``df_bracket``.
    """

    interpolation: InterpScheme = InterpScheme.LOG_DISCOUNT_MONOTONE_CUBIC
    daycount: DayCount = DayCount.ACT_360
    tolerance: float = 1e-12
    max_iterations: int = 100
    df_bracket: tuple[float, float] = (1e-8, 2.0)

    def __post_init__(self):
        # the solver picks its kernel by identity, so a plain string
        # ("cubic") must become the enum member the curve will use
        object.__setattr__(self, "interpolation", InterpScheme(self.interpolation))


def _compile_quote(
    q: InstrumentQuote,
    ref: Date,
    df,
    discounting: YieldCurve | None,
    companions: dict[int, YieldCurve] | None,
):
    """The quote's rate-space fair value and PV weight, as two closures.

    ``df`` maps an array of times (ACT/365F years from ``ref``) to
    discount factors on the curve that projects the quote's own tenor:
    slices of the bootstrap's batched evaluation while solving,
    ``YieldCurve.discount_time`` on a finished curve.  Without ``discounting`` the same source
    discounts.  Schedule dates convert to times once; legs living on
    curves that stay fixed (external discounting, basis companions)
    freeze to constant arrays, each read on its own curve's clock.

    The fair value is the forward rate of a money-market quote (futures
    before convexity), the par rate of a swap or overnight index swap
    and the par spread of a basis swap.  The weight turns a difference
    in that rate into PV per unit notional: P_d(end) * tau for
    money-market quotes, the fixed or spread leg annuity otherwise.
    The weight of a money-market quote reads the discount curve only
    when called; the solver never asks for it, so its times stay out of
    the solver's batch.
    """

    def times(dates) -> np.ndarray:
        return np.array([(d.serial - ref.serial) / 365.0 for d in dates])

    def disc_getter(dates):
        if discounting is not None:
            const = discounting.discount(dates)
            return lambda: const
        t = times(dates)
        return lambda: df(t)

    def annuity(dates, dc: DayCount):
        taus = np.array(_taus(dates, dc))
        get_pd = disc_getter(dates[1:])
        return lambda: float(np.dot(taus, get_pd()))

    def float_leg(months: int):
        # sum P_d(t_i) (P_f ratio - 1): the accrual-times-rate product is
        # the projection curve's discount ratio minus one, day-count free
        # and telescoping exactly when projection and discounting coincide
        dates = _sched(q.start, q.end, months)
        get_pd = disc_getter(dates[1:])
        if months == q.underlying_tenor:
            t_leg = times(dates)

            def pv() -> float:
                p = df(t_leg)
                return float(np.dot(get_pd(), p[:-1] / p[1:] - 1.0))

            return pv
        if not companions or months not in companions:
            raise BootstrapError(
                f"basis swap leg needs a companion curve for the {months}M tenor"
            )
        p = companions[months].discount(dates)
        ratio = p[:-1] / p[1:] - 1.0
        return lambda: float(np.dot(get_pd(), ratio))

    k = q.kind
    if k in (InstrumentKind.DEPOSIT, InstrumentKind.FRA, InstrumentKind.FUTURES):
        t_pair = times([q.start, q.end])
        tau = year_fraction(q.start, q.end, q.daycount)

        def fair():
            p = df(t_pair)
            return (p[0] - p[1]) / (tau * p[1])

        def weight():
            if discounting is None:
                return df(t_pair[1:])[0] * tau
            return discounting.discount(q.end) * tau

        return fair, weight

    if k is InstrumentKind.SWAP:
        leg = float_leg(q.underlying_tenor)
        ann = annuity(_sched(q.start, q.end, q.fixed_frequency), q.daycount)
        return (lambda: leg() / ann()), ann

    if k is InstrumentKind.OIS:
        get_p = disc_getter([q.start, q.end])
        ann = annuity(_sched(q.start, q.end, q.fixed_frequency), q.daycount)

        def fair() -> float:
            p = get_p()
            return float(p[0] - p[1]) / ann()

        return fair, ann

    if k is InstrumentKind.BASIS_SWAP:
        short_m, long_m = sorted((q.underlying_tenor, q.second_tenor))
        pv_short, pv_long = float_leg(short_m), float_leg(long_m)
        ann = annuity(_sched(q.start, q.end, short_m), q.float_daycount)
        return (lambda: (pv_long() - pv_short()) / ann()), ann

    raise BootstrapError(f"unknown instrument kind {k!r}")


def _on_curves(
    q: InstrumentQuote,
    target: YieldCurve,
    discounting: YieldCurve | None,
    companions: dict[int, YieldCurve] | None,
):
    return _compile_quote(
        q, target.reference_date, target.discount_time, discounting, companions
    )


def fair_quote(
    q: InstrumentQuote,
    target: YieldCurve,
    discounting: YieldCurve | None = None,
    companions: dict[int, YieldCurve] | None = None,
) -> float:
    """Model value of the quote on the given curves, in quote units.

    ``target`` projects the quote's own tenor; ``discounting`` defaults
    to the target itself (single-curve pricing).
    """
    fair, _ = _on_curves(q, target, discounting, companions)
    f = float(fair())
    if q.kind is InstrumentKind.FUTURES:
        return 100.0 * (1.0 - (f + q.convexity))
    return f


def instrument_pv(
    q: InstrumentQuote,
    contract_quote: float,
    target: YieldCurve,
    discounting: YieldCurve | None = None,
    companions: dict[int, YieldCurve] | None = None,
    notional: float = 1.0,
) -> float:
    """PV of a unit payer position struck at ``contract_quote``.

    Payer means paying the contracted fixed rate (receiving the spread
    leg for a basis swap); money-market instruments settle FRA-style at
    the end date.  Futures contracts are struck at a price, converted
    to rate space internally.
    """
    fair, weight = _on_curves(q, target, discounting, companions)
    strike = contract_quote
    if q.kind is InstrumentKind.FUTURES:
        strike = (100.0 - contract_quote) / 100.0 - q.convexity
    return float(notional * weight() * (fair() - strike))


def repricing_errors(
    quotes: list[InstrumentQuote],
    target: YieldCurve,
    discounting: YieldCurve | None = None,
    companions: dict[int, YieldCurve] | None = None,
) -> np.ndarray:
    """Fair-minus-quote residual per instrument, futures in rate space."""
    out = np.empty(len(quotes))
    for i, q in enumerate(quotes):
        fair, _ = _on_curves(q, target, discounting, companions)
        out[i] = fair() - q.implied_rate()
    return out


def select_pillar_instruments(
    quotes: list[InstrumentQuote],
) -> list[InstrumentQuote]:
    """Sort by end date, resolving collisions by instrument precedence.

    Deposits yield to FRAs / futures, which yield to swap-class quotes.
    Two same-rank quotes on one end date is an error.
    """
    by_end: dict[int, InstrumentQuote] = {}
    for q in quotes:
        held = by_end.get(q.end.serial)
        if held is None:
            by_end[q.end.serial] = q
            continue
        rank_new, rank_old = _PILLAR_RANK[q.kind], _PILLAR_RANK[held.kind]
        if rank_new == rank_old:
            raise BootstrapError(
                f"two {held.kind.value} pillars collide at {q.end.iso()}"
            )
        winner, loser = (q, held) if rank_new > rank_old else (held, q)
        by_end[q.end.serial] = winner
        logger.warning(
            "pillar %s: dropping %s quote in favour of %s",
            q.end.iso(), loser.kind.value, winner.kind.value,
        )
    return [by_end[s] for s in sorted(by_end)]


class _Residuals:
    """Residual vector R(ln p) of a quote set on the curve being solved.

    Each quote is compiled once, with this object as the ``df`` source
    of its closures.  A dry call on unit discount factors records every
    time array the closures read, in call order, and locates them once
    on the knot times, which stay fixed through the solve; each
    evaluation then builds the scheme's knot data once, evaluates all
    recorded times in one kernel call and serves the closures
    consecutive slices of the result.  The closures read their arrays
    in the same order on every call, so the slices line up.  The pillar
    discount factors are ``exp(ln p)`` and the kernel reads ``log`` of
    them, exactly as a ``YieldCurve`` built from the same discount
    factors does.
    """

    __slots__ = ("ts", "dfs", "scheme", "fairs", "rates",
                 "_recorded", "_batch", "_loc", "_p", "_at")

    def __init__(self, chosen, ref, ts, scheme, discount_curve, companions):
        self.ts = ts
        self.dfs = np.ones(ts.shape[0])
        self.scheme = scheme
        self.fairs = [
            _compile_quote(q, ref, self._df, discount_curve, companions)[0]
            for q in chosen
        ]
        self.rates = np.array([q.implied_rate() for q in chosen])
        self._recorded: list[np.ndarray] | None = []
        for fair in self.fairs:
            fair()
        recorded, self._recorded = self._recorded, None
        self._batch = np.concatenate(recorded) if recorded else np.empty(0)
        self._loc = _kernels.locate(scheme, self._batch, ts)

    def _df(self, t: np.ndarray) -> np.ndarray:
        if self._recorded is not None:
            self._recorded.append(t)
            return np.ones(t.shape[0])
        i = self._at
        self._at = i + t.shape[0]
        return self._p[i:self._at]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.dfs[1:] = np.exp(x)
        lnp = np.log(self.dfs)
        aux = _kernels.knot_data(self.scheme, self.ts, lnp)
        self._p = _kernels.apply(self._batch, self._loc, self.dfs, lnp, aux)
        self._at = 0
        try:
            r = np.array([fair() for fair in self.fairs]) - self.rates
        except ZeroDivisionError:
            # an annuity that underflowed to zero: no finite residual here
            return np.full(len(self.fairs), np.nan)
        assert self._at == self._batch.shape[0]
        return r


def bootstrap_curve(
    quotes: list[InstrumentQuote],
    config: BootstrapConfig | None = None,
    discount_curve: YieldCurve | None = None,
    companions: dict[int, YieldCurve] | None = None,
    reference_date: Date | None = None,
    tenor_label: str = "custom",
    start_curve: YieldCurve | None = None,
) -> YieldCurve:
    """Build a curve whose pillars reprice the quotes.

    With ``discount_curve`` the result is a forwarding curve priced
    against external discounting; without it the curve discounts its
    own cashflows (the classical construction).  ``companions`` maps
    tenor months to already-built forwarding curves for the far legs of
    basis swaps.  The reference date defaults to the earliest quote
    start.

    Every solve starts from a seed: ``start_curve`` when given (a nearby
    curve on the same reference date, typically the unbumped one when a
    single quote has moved), else the discounting curve's discount
    factors at the pillar dates, else a flat zero rate at each quote's
    implied rate.  A nearby seed closes in one or two Newton iterations.
    """
    if not quotes:
        raise BootstrapError("no quotes to bootstrap from")
    cfg = config or BootstrapConfig()
    chosen = select_pillar_instruments(quotes)
    ref = reference_date or min(q.start for q in chosen)
    for q in chosen:
        if q.start < ref:
            raise BootstrapError(
                f"quote starting {q.start.iso()} precedes reference date {ref.iso()}"
            )
    if discount_curve is not None and discount_curve.reference_date != ref:
        raise BootstrapError("discounting curve has a different reference date")

    pillar_dates = [q.end for q in chosen]
    ts = np.array([0.0] + [(d.serial - ref.serial) / 365.0 for d in pillar_dates])
    source = start_curve if start_curve is not None else discount_curve
    if source is not None:
        seed = source.discount(pillar_dates)
    else:
        seed = np.exp(-np.array([q.implied_rate() for q in chosen]) * ts[1:])
    return _solve_curve(
        chosen, ref, cfg, discount_curve, companions, tenor_label, ts, seed
    )


# Step in ln DF of the forward-difference Jacobian columns.
_FD_STEP = 1e-7
# Halvings of one Newton step tried before the solve gives up.
_MAX_HALVINGS = 40


def _solve_curve(
    chosen: list[InstrumentQuote],
    ref: Date,
    cfg: BootstrapConfig,
    discount_curve: YieldCurve | None,
    companions: dict[int, YieldCurve] | None,
    tenor_label: str,
    ts: np.ndarray,
    seed: np.ndarray,
) -> YieldCurve:
    """Solve R(ln p) = 0 for the pillar log-discounts by damped Newton
    from ``seed`` (``ts`` holds the anchor at 0 and the pillar times).

    The Jacobian comes from one forward difference per pillar; a step
    is halved while the residual it reaches is non-finite or no smaller
    (in the sum of squares) than the current one.
    """
    n = len(chosen)
    lo, hi = cfg.df_bracket
    it = 0

    def fail(reason: str, r: np.ndarray) -> BootstrapError:
        return BootstrapError(
            f"{tenor_label} curve: {reason} after {it} Newton iterations, "
            f"worst residual {np.max(np.abs(r)):.3e} "
            f"(tolerance {cfg.tolerance:g})"
        )

    with np.errstate(all="ignore"):
        residuals = _Residuals(
            chosen, ref, ts, cfg.interpolation, discount_curve, companions
        )
        # a seed outside df_bracket starts from the nearer end of it
        x = np.log(np.clip(seed, lo, hi))
        r = residuals(x)
        if not np.all(np.isfinite(r)):
            raise fail("non-finite residual at the seed", r)
        while np.max(np.abs(r)) > cfg.tolerance:
            if it == cfg.max_iterations:
                raise fail("no convergence", r)
            it += 1
            jac = np.empty((n, n))
            for j in range(n):
                xj = x.copy()
                xj[j] += _FD_STEP
                jac[:, j] = (residuals(xj) - r) / (xj[j] - x[j])
            if not np.all(np.isfinite(jac)):
                raise fail("non-finite Jacobian", r)
            if np.linalg.cond(jac) > 1.0 / np.finfo(float).eps:
                raise fail("singular Jacobian", r)
            step = np.linalg.solve(jac, -r)
            if not np.all(np.isfinite(step)):
                raise fail("non-finite Newton step", r)
            size = r @ r
            for _ in range(_MAX_HALVINGS):
                trial = x + step
                r_trial = residuals(trial)
                if np.all(np.isfinite(r_trial)) and r_trial @ r_trial < size:
                    break
                step *= 0.5
            else:
                raise fail("no step reduces the residual", r)
            x, r = trial, r_trial

    dfs = np.exp(x)
    if dfs.min() < lo or dfs.max() > hi:
        raise fail(
            f"solved discount factors [{dfs.min():.6g}, {dfs.max():.6g}] "
            f"leave df_bracket {cfg.df_bracket}", r,
        )
    pillar_dates = [q.end for q in chosen]
    curve = YieldCurve(
        ref,
        list(zip(pillar_dates, dfs.tolist())),
        cfg.interpolation,
        cfg.daycount,
        tenor_label,
    )
    # Closure check on the finished curve, whose interpolation data is
    # rebuilt from the solved pillars rather than taken from the solve.
    worst = np.max(np.abs(
        repricing_errors(chosen, curve, discount_curve, companions)
    ))
    if worst > cfg.tolerance:
        raise BootstrapError(
            f"{tenor_label} curve failed to converge: residual {worst:.3e} "
            f"above tolerance {cfg.tolerance:g} after {it} Newton iterations"
        )
    return curve


# ---------------------------------------------------------------------------
# curve reconstruction from a basis term structure
# ---------------------------------------------------------------------------

class BasisDirection(Enum):
    DERIVE_FORWARDING = "derive_forwarding"
    DERIVE_DISCOUNT = "derive_discount"


def curve_from_basis(
    base: YieldCurve,
    basis: ForwardBasisCurve,
    direction: BasisDirection,
    interpolation: InterpScheme | None = None,
    daycount: DayCount | None = None,
) -> YieldCurve:
    """Rebuild the missing curve of a pair from the basis against it.

    The basis must cover chained intervals starting at the reference
    date (see ``pillar_interval_basis``).  The multiplicative basis per
    interval then fixes the unknown curve's discount factor recursively
    from the known one:

        grown ratio on unknown = 1 + BA * (grown ratio on base - 1)

    with the roles of the two curves swapped by ``direction``.
    """
    if len(basis) == 0:
        raise BootstrapError("empty basis term structure")
    ref = base.reference_date
    if basis.t1[0] != ref.serial:
        raise BootstrapError("basis intervals must start at the reference date")
    if np.any(basis.t2[:-1] != basis.t1[1:]):
        raise BootstrapError("basis intervals must chain end-to-start")
    if not np.all(np.isfinite(basis.mult)):
        raise BootstrapError("basis contains non-finite multiplicative entries")

    p_base = base.discount_time((basis.t2 - ref.serial) / 365.0)
    p_prev_base = 1.0
    p_prev = 1.0
    pillars = []
    for date, p_b, ba in zip(basis.t2_dates, p_base, basis.mult):
        growth_base = p_prev_base / p_b - 1.0
        if direction is BasisDirection.DERIVE_FORWARDING:
            p_new = p_prev / (1.0 + ba * growth_base)
        else:
            if ba == 0.0:
                raise BootstrapError("zero multiplicative basis cannot be inverted")
            p_new = p_prev / (1.0 + growth_base / ba)
        if not np.isfinite(p_new) or p_new <= 0.0:
            raise BootstrapError(
                f"basis recursion produced invalid discount factor at {date.iso()}"
            )
        pillars.append((date, p_new))
        p_prev_base = p_b
        p_prev = p_new

    label = (
        basis.forwarding_label
        if direction is BasisDirection.DERIVE_FORWARDING
        else basis.discounting_label
    )
    return YieldCurve(
        ref,
        pillars,
        interpolation or base.interpolation,
        daycount or base.daycount,
        tenor_label=label,
    )


# ---------------------------------------------------------------------------
# quote CSV I/O
# ---------------------------------------------------------------------------

def write_quotes_csv(quotes: list[InstrumentQuote], fh, comment: str | None = None) -> None:
    """Write quotes as CSV; ``fh`` is an open text handle.

    Floating-spread day count and futures convexity are library-level
    settings, not columns; quotes round-trip at default values.
    """
    if comment:
        fh.write(f"# {comment}\n")
    fh.write(QUOTES_CSV_HEADER + "\n")
    for q in quotes:
        second = "" if q.second_tenor is None else str(q.second_tenor)
        fh.write(
            f"{q.kind.value},{q.underlying_tenor},{q.start.iso()},{q.end.iso()},"
            f"{q.quote!r},{q.fixed_frequency},{q.daycount.value},{second}\n"
        )


def read_quotes_csv(path) -> list[InstrumentQuote]:
    with open(path) as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    expected = QUOTES_CSV_HEADER.split(",")
    if reader.fieldnames != expected:
        raise ValueError(
            f"bad quotes header: expected {expected}, got {reader.fieldnames}"
        )
    quotes = []
    for row in reader:
        second = row["second_tenor_months"].strip()
        quotes.append(
            InstrumentQuote(
                kind=InstrumentKind(row["kind"].strip()),
                underlying_tenor=int(row["underlying_tenor_months"]),
                start=Date.parse(row["start"].strip()),
                end=Date.parse(row["end"].strip()),
                quote=float(row["quote"]),
                fixed_frequency=int(row["fixed_freq_months"]),
                daycount=DayCount(row["leg_daycount"].strip()),
                second_tenor=int(second) if second else None,
            )
        )
    return quotes


def bump_quote(q: InstrumentQuote, rate_bump: float) -> InstrumentQuote:
    """Copy of the quote shifted by ``rate_bump`` in rate space.

    Futures prices move by -100 times the rate bump; every other kind
    quotes a rate or spread directly.
    """
    if q.kind is InstrumentKind.FUTURES:
        return replace(q, quote=q.quote - 100.0 * rate_bump)
    return replace(q, quote=q.quote + rate_bump)
