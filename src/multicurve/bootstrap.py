"""Curve construction from market quotes.

Each quote pins the discount factor at its end date (the pillar).  A
curve's pillar log-discounts ln p solve R(ln p) = 0, where R holds every
quote's fair value minus its quote in rate space.  A build compiles
each quote once (``_compile_quote`` is the only quote arithmetic) into
one residual object, ``_Residuals``, which records the times the
quotes read on every curve, each on that curve's own clock, as one
located query per curve.  While solving, R costs one knot-data build
and one kernel call over the solved curve's times; the fixed curves
(discounting, basis companions) are read once each.  The same object
then runs the closure check on the finished curve, and ``risk`` keeps
it to evaluate the columns of its quote Jacobian.

Damped Newton solves all pillars of a curve together from a seed (a
nearby curve, the discounting curve or the quotes' own rates), with
the Jacobian taken by forward differences.  Solving them together
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
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import _kernels
from .basis import ForwardBasisCurve
from .curve import LocatedQuery, YieldCurve
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

# A curve read by time: the reference date its times count from, and the
# map from an array of those times to discount factors.
_DFSource = tuple[Date, Callable[[np.ndarray], np.ndarray]]

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
    discounting: _DFSource | None,
    companions: dict[int, _DFSource] | None,
):
    """The quote's rate-space fair value and PV weight, as two closures.

    ``df`` maps an array of times (ACT/365F years from ``ref``) to
    discount factors on the curve that projects the quote's own tenor.
    ``discounting`` and each of ``companions`` (keyed by tenor months)
    are such sources for the curves that stay fixed, each paired with
    the reference date its times count from, so every curve is read on
    its own clock.  Without ``discounting`` the own source discounts.
    Schedule dates convert to times once; the closures read every
    source on every call: ``YieldCurve.discount_time`` when pricing on
    finished curves, one batch per curve read when a compiled quote set
    evaluates (``_Residuals``).

    The fair value is the forward rate of a money-market quote (futures
    before convexity), the par rate of a swap or overnight index swap
    and the par spread of a basis swap.  The weight turns a difference
    in that rate into PV per unit notional: P_d(end) * tau for
    money-market quotes, the fixed or spread leg annuity otherwise.
    The weight of a money-market quote reads the discount curve only
    when called; a residual set never asks for it, so its times stay
    out of the batches.
    """

    def times(clock: Date, dates) -> np.ndarray:
        return np.array([(d.serial - clock.serial) / 365.0 for d in dates])

    disc_ref, disc_df = (ref, df) if discounting is None else discounting

    def disc_getter(dates):
        t = times(disc_ref, dates)
        return lambda: disc_df(t)

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
            proj_ref, proj_df = ref, df
        elif companions and months in companions:
            proj_ref, proj_df = companions[months]
        else:
            raise BootstrapError(
                f"basis swap leg needs a companion curve for the {months}M tenor"
            )
        t_leg = times(proj_ref, dates)

        def pv() -> float:
            p = proj_df(t_leg)
            return float(np.dot(get_pd(), p[:-1] / p[1:] - 1.0))

        return pv

    k = q.kind
    if k in (InstrumentKind.DEPOSIT, InstrumentKind.FRA, InstrumentKind.FUTURES):
        t_pair = times(ref, [q.start, q.end])
        tau = year_fraction(q.start, q.end, q.daycount)
        get_pd_end = disc_getter([q.end])

        def fair():
            p = df(t_pair)
            return (p[0] - p[1]) / (tau * p[1])

        def weight():
            return get_pd_end()[0] * tau

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


def _source(curve: YieldCurve) -> _DFSource:
    """A finished curve as a time->DF source on its own clock."""
    return curve.reference_date, curve.discount_time


def _on_curves(
    q: InstrumentQuote,
    target: YieldCurve,
    discounting: YieldCurve | None,
    companions: dict[int, YieldCurve] | None,
):
    return _compile_quote(
        q, *_source(target),
        None if discounting is None else _source(discounting),
        companions and {m: _source(c) for m, c in companions.items()},
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
    return _Residuals(
        quotes, target.reference_date, discounting, companions
    ).on_curves(target, discounting, companions)


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


class _Reads:
    """The times a compiled quote set reads on one curve, as one batch.

    It is the source ``_compile_quote`` hands the closures for that
    curve.  While recording it keeps every time array asked for and
    returns unit discount factors; once sealed into one
    ``LocatedQuery`` it serves consecutive slices of the curve's
    discount factors at all those times.  The closures read their
    arrays in the same order on every call, so the slices line up.
    """

    __slots__ = ("recorded", "query", "p", "at", "curve")

    def __init__(self):
        self.recorded: list[np.ndarray] | None = []
        self.query: LocatedQuery | None = None
        self.p: np.ndarray | None = None
        self.at = 0
        self.curve: YieldCurve | None = None

    def __call__(self, t: np.ndarray) -> np.ndarray:
        if self.recorded is not None:
            self.recorded.append(t)
            return np.ones(t.shape[0])
        i = self.at
        self.at = i + t.shape[0]
        return self.p[i:self.at]

    def seal(self) -> None:
        recorded, self.recorded = self.recorded, None
        self.query = LocatedQuery(
            np.concatenate(recorded) if recorded else np.empty(0)
        )

    def load(self, curve: YieldCurve) -> None:
        """Read ``curve`` at every recorded time, unless it is the curve
        read last."""
        if curve is not self.curve:
            self.p = curve.discount_time(self.query)
            self.curve = curve


class _Residuals:
    """Residual vector R of a quote set: each quote's fair value minus its
    rate, futures in rate space, compiled once per build.

    Each quote is compiled once by ``_compile_quote``, with one
    ``_Reads`` as the source of every curve the set reads: the curve
    being solved, the discounting curve and each basis companion.  A
    dry call on unit discount factors records the times every closure
    reads, each on its curve's own clock, and each curve's times become
    one ``LocatedQuery``.  An evaluation reads each curve once, in one
    batch, and serves the closures slices of it:

    * ``on_pillars``, while solving, evaluates the solved curve's batch
      on its pillar log-discounts through the kernels, exactly as a
      ``YieldCurve`` built from the same discount factors does, and
      reads the fixed curves as last bound by ``bind``;
    * ``on_curves`` reads finished curves through
      ``YieldCurve.discount_time``: the closure check on the solved
      curve, whose interpolation data is rebuilt from its pillars, and
      the columns of the quote Jacobian in ``risk``.

    A curve is read again only when another curve object takes its
    place.  An annuity that underflows to zero gives NaN residuals.
    """

    __slots__ = ("quotes", "rates", "fairs", "own", "disc", "companions", "_reads")

    def __init__(
        self,
        quotes: list[InstrumentQuote],
        ref: Date,
        discounting: YieldCurve | None = None,
        companions: dict[int, YieldCurve] | None = None,
    ):
        self.quotes = list(quotes)
        self.rates = np.array([q.implied_rate() for q in quotes])
        self.own = _Reads()
        self.disc = disc_source = None
        if discounting is not None:
            self.disc = _Reads()
            disc_source = (discounting.reference_date, self.disc)
        companions = companions or {}
        comps = {m: _Reads() for m in companions}
        sources = {m: (c.reference_date, comps[m]) for m, c in companions.items()}
        self.fairs = [
            _compile_quote(q, ref, self.own, disc_source, sources)[0]
            for q in quotes
        ]
        for fair in self.fairs:
            fair()
        # a fixed curve no quote reads is never read
        if self.disc is not None and not self.disc.recorded:
            self.disc = None
        self.companions = {m: r for m, r in comps.items() if r.recorded}
        self._reads = [
            r for r in (self.own, self.disc, *self.companions.values()) if r is not None
        ]
        for reads in self._reads:
            reads.seal()

    def bind(
        self,
        discounting: YieldCurve | None,
        companions: dict[int, YieldCurve] | None,
    ) -> None:
        """Read the fixed curves the quotes price against."""
        if self.disc is not None:
            self.disc.load(discounting)
        for months, reads in self.companions.items():
            reads.load(companions[months])

    def on_curves(
        self,
        target: YieldCurve,
        discounting: YieldCurve | None = None,
        companions: dict[int, YieldCurve] | None = None,
    ) -> np.ndarray:
        """R with ``target`` projecting the quotes' own tenor."""
        self.bind(discounting, companions)
        self.own.load(target)
        return self._evaluate()

    def on_pillars(
        self, scheme: InterpScheme, ts: np.ndarray, dfs: np.ndarray
    ) -> np.ndarray:
        """R with the solved curve given by its knot times ``ts`` and
        discount factors ``dfs``, anchor included."""
        lnp = np.log(dfs)
        aux = _kernels.knot_data(scheme, ts, lnp)
        q = self.own.query
        self.own.p = _kernels.apply(q.t, q.located(scheme, ts), dfs, lnp, aux)
        self.own.curve = None
        return self._evaluate()

    def _evaluate(self) -> np.ndarray:
        for reads in self._reads:
            reads.at = 0
        try:
            r = np.array([fair() for fair in self.fairs]) - self.rates
        except ZeroDivisionError:
            # an annuity that underflowed to zero: no finite residual here
            return np.full(len(self.fairs), np.nan)
        assert all(reads.at == reads.query.t.shape[0] for reads in self._reads)
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
    return _bootstrap(
        quotes, config, discount_curve, companions, reference_date,
        tenor_label, start_curve,
    )[0]


def _bootstrap(
    quotes: list[InstrumentQuote],
    config: BootstrapConfig | None,
    discount_curve: YieldCurve | None,
    companions: dict[int, YieldCurve] | None,
    reference_date: Date | None,
    tenor_label: str,
    start_curve: YieldCurve | None,
) -> tuple[YieldCurve, _Residuals]:
    """``bootstrap_curve``, also giving the compiled residuals of the
    chosen quotes, which the closure check evaluated on the result."""
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
) -> tuple[YieldCurve, _Residuals]:
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
        residuals = _Residuals(chosen, ref, discount_curve, companions)
        residuals.bind(discount_curve, companions)
        scheme, knot_dfs = cfg.interpolation, np.ones(n + 1)

        def at(x: np.ndarray) -> np.ndarray:
            knot_dfs[1:] = np.exp(x)
            return residuals.on_pillars(scheme, ts, knot_dfs)

        # a seed outside df_bracket starts from the nearer end of it
        x = np.log(np.clip(seed, lo, hi))
        r = at(x)
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
                jac[:, j] = (at(xj) - r) / (xj[j] - x[j])
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
                r_trial = at(trial)
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
        residuals.on_curves(curve, discount_curve, companions)
    ))
    if worst > cfg.tolerance:
        raise BootstrapError(
            f"{tenor_label} curve failed to converge: residual {worst:.3e} "
            f"above tolerance {cfg.tolerance:g} after {it} Newton iterations"
        )
    return curve, residuals


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
