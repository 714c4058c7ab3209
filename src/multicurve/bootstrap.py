"""Curve construction from market quotes.

Each quote pins the discount factor at its end date (the pillar).  A
curve's pillar log-discounts ln p solve R(ln p) = 0, where R holds every
quote's fair value minus its quote in rate space.  A build compiles
each quote once (``_compile_quote``) into one residual object,
``_Residuals``.  Compiling registers the dates each quote reads with a
``_Reads``, curve by curve and each on that curve's own clock, and
gets back the slices of that curve's batch they occupy; the batches
become one located query per curve, and every fair value and PV weight
is the leg arithmetic of ``_cashflows`` on those slices.  While
solving, R costs one knot-data build and one kernel call over the
solved curve's times; the fixed curves (discounting, basis companions)
are read once each.  The same object then runs the closure check on
the finished curve, and ``risk`` keeps it to evaluate the columns of
its quote Jacobian and the PV weights of its hedges.  A quote that
reads nothing on the curve being built cannot pin it, and the build
fails naming it.

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
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import _cashflows, _kernels
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


# Keys of the curves a quote set reads: the curve projecting the quotes'
# own tenor, the discounting curve, and each basis companion by its tenor
# months.
_OWN, _DISC = "own", "disc"


class _Reads:
    """The times a compiled quote set reads, batched per curve.

    Each curve has a key (``_OWN``, ``_DISC`` or a companion's tenor
    months) and the reference date its times count from, so every curve
    is read on its own clock; ``disc`` is the key discounting reads go
    to, ``_OWN`` when the set discounts on its own curve.  ``add`` puts
    dates on one curve's batch and returns their slice of it.  ``seal``
    makes each batch one ``LocatedQuery`` (a curve no quote reads gets
    none and is never read) and reads the fixed curves given here.
    ``load`` puts a curve's discount factors at its batch into ``p``,
    keyed like the batches, unless that curve object is the one read
    there last.
    """

    __slots__ = ("clocks", "disc", "fixed", "times", "queries", "p", "curves")

    def __init__(
        self,
        ref: Date,
        discounting: YieldCurve | None = None,
        companions: dict[int, YieldCurve] | None = None,
    ):
        self.fixed = dict(companions or {})
        if discounting is not None:
            self.fixed[_DISC] = discounting
        self.disc = _OWN if discounting is None else _DISC
        self.clocks = {_OWN: ref} | {k: c.reference_date for k, c in self.fixed.items()}
        self.times: dict = {key: [] for key in self.clocks}
        self.queries: dict = {}
        self.p: dict = {}
        self.curves: dict = {}

    def add(self, key, dates) -> slice:
        clock = self.clocks[key].serial
        batch = self.times[key]
        start = len(batch)
        batch.extend([(d.serial - clock) / 365.0 for d in dates])
        return slice(start, len(batch))

    def seal(self) -> None:
        self.queries = {key: LocatedQuery(t) for key, t in self.times.items() if t}
        for key, curve in self.fixed.items():
            if key in self.queries:
                self.load(key, curve)

    def load(self, key, curve: YieldCurve) -> None:
        if curve is not self.curves.get(key):
            self.p[key] = curve.discount_time(self.queries[key])
            self.curves[key] = curve


def _compile_quote(q: InstrumentQuote, reads: _Reads):
    """The quote's rate-space fair value and PV weight, as two functions
    of the discount factors ``reads`` loads.

    Compiling registers every date the quote reads with ``reads``, on
    the curve it comes from: the curve projecting the quote's own tenor,
    the discounting curve (``reads.disc``) or, for the far leg of a
    basis swap, the companion of that tenor.  Both functions take the
    mapping ``p`` from curve key to that curve's batch of discount
    factors and read their slices of it through the leg formulas of
    ``_cashflows``.

    The fair value is the forward rate of a money-market quote (futures
    before convexity), the par rate of a swap or overnight index swap
    and the par spread of a basis swap.  The weight turns a difference
    in that rate into PV per unit notional: P_d(end) * tau for
    money-market quotes, the fixed or spread leg annuity otherwise.
    """
    disc = reads.disc

    def annuity(dates, dc: DayCount):
        taus = np.array(_taus(dates, dc))
        d = reads.add(disc, dates[1:])
        return lambda p: _cashflows.annuity(taus, p[disc][d])

    def float_leg(months: int):
        if months == q.underlying_tenor:
            proj = _OWN
        elif months in reads.clocks:
            proj = months
        else:
            raise BootstrapError(
                f"basis swap leg needs a companion curve for the {months}M tenor"
            )
        dates = _sched(q.start, q.end, months)
        d = reads.add(disc, dates[1:])
        f = reads.add(proj, dates)
        return lambda p: _cashflows.float_leg(p[disc][d], p[proj][f])

    k = q.kind
    if k in (InstrumentKind.DEPOSIT, InstrumentKind.FRA, InstrumentKind.FUTURES):
        tau = year_fraction(q.start, q.end, q.daycount)
        f = reads.add(_OWN, (q.start, q.end)).start
        d = reads.add(disc, (q.end,)).start

        def fair(p):
            own = p[_OWN]
            return _cashflows.simple_forward(own[f], own[f + 1], tau)

        return fair, lambda p: p[disc][d] * tau

    if k is InstrumentKind.SWAP:
        leg = float_leg(q.underlying_tenor)
        ann = annuity(_sched(q.start, q.end, q.fixed_frequency), q.daycount)
        return (lambda p: leg(p) / ann(p)), ann

    if k is InstrumentKind.OIS:
        # the overnight leg telescopes to P_d(start) - P_d(end)
        s = reads.add(disc, (q.start, q.end)).start
        ann = annuity(_sched(q.start, q.end, q.fixed_frequency), q.daycount)

        def fair(p) -> float:
            p_d = p[disc]
            return float(p_d[s] - p_d[s + 1]) / ann(p)

        return fair, ann

    if k is InstrumentKind.BASIS_SWAP:
        short_m, long_m = sorted((q.underlying_tenor, q.second_tenor))
        pv_short, pv_long = float_leg(short_m), float_leg(long_m)
        ann = annuity(_sched(q.start, q.end, short_m), q.float_daycount)
        return (lambda p: (pv_long(p) - pv_short(p)) / ann(p)), ann

    raise BootstrapError(f"unknown instrument kind {k!r}")


class _Residuals:
    """Residual vector R of a quote set: each quote's fair value minus its
    rate, futures in rate space, compiled once per build.

    ``_compile_quote`` compiles each quote once against one ``_Reads``,
    which batches the times the set reads on every curve: the curve
    being solved, the discounting curve and each basis companion, the
    fixed ones read once on compiling.  An evaluation reads each curve
    once, in one batch, and every quote reads its slices of the batches:

    * ``on_pillars``, while solving, evaluates the solved curve's batch
      on its pillar log-discounts through the kernels, exactly as a
      ``YieldCurve`` built from the same discount factors does, and
      reads the fixed curves as last loaded;
    * ``on_curves`` reads finished curves through
      ``YieldCurve.discount_time``: the closure check on the solved
      curve, whose interpolation data is rebuilt from its pillars, and
      the columns of the quote Jacobian in ``risk``.

    ``load`` also serves ``fair_quote``, ``instrument_pv`` and the hedge
    weights in ``risk``, which read ``fairs`` and ``weights`` on the
    loaded batches.  A curve is read again only when another curve
    object takes its place.  An annuity that underflows to zero gives
    NaN residuals.  ``blind`` lists the quotes that read nothing on the
    curve projecting their own tenor, so cannot pin it.
    """

    __slots__ = ("quotes", "rates", "fairs", "weights", "blind", "reads")

    def __init__(
        self,
        quotes: list[InstrumentQuote],
        ref: Date,
        discounting: YieldCurve | None = None,
        companions: dict[int, YieldCurve] | None = None,
    ):
        self.quotes = list(quotes)
        self.rates = np.array([q.implied_rate() for q in quotes])
        self.reads = reads = _Reads(ref, discounting, companions)
        self.fairs, self.weights, self.blind = [], [], []
        own = reads.times[_OWN]
        for q in self.quotes:
            n = len(own)
            fair, weight = _compile_quote(q, reads)
            self.fairs.append(fair)
            self.weights.append(weight)
            if len(own) == n:
                self.blind.append(q)
        reads.seal()

    def load(
        self,
        target: YieldCurve,
        discounting: YieldCurve | None = None,
        companions: dict[int, YieldCurve] | None = None,
    ) -> dict:
        """Read the curves, ``target`` projecting the quotes' own tenor;
        gives the batches by curve key."""
        reads = self.reads
        for key in reads.queries:
            if key == _OWN:
                reads.load(key, target)
            elif key == _DISC:
                reads.load(key, discounting)
            else:
                reads.load(key, companions[key])
        return reads.p

    def on_curves(
        self,
        target: YieldCurve,
        discounting: YieldCurve | None = None,
        companions: dict[int, YieldCurve] | None = None,
    ) -> np.ndarray:
        """R with ``target`` projecting the quotes' own tenor."""
        self.load(target, discounting, companions)
        return self._evaluate()

    def on_pillars(
        self, scheme: InterpScheme, ts: np.ndarray, dfs: np.ndarray
    ) -> np.ndarray:
        """R with the solved curve given by its knot times ``ts`` and
        discount factors ``dfs``, anchor included."""
        lnp = np.log(dfs)
        aux = _kernels.knot_data(scheme, ts, lnp)
        reads = self.reads
        q = reads.queries[_OWN]
        reads.p[_OWN] = _kernels.apply(q.t, q.located(scheme, ts), dfs, lnp, aux)
        reads.curves[_OWN] = None
        return self._evaluate()

    def _evaluate(self) -> np.ndarray:
        p = self.reads.p
        try:
            return np.array([fair(p) for fair in self.fairs]) - self.rates
        except ZeroDivisionError:
            # an annuity that underflowed to zero: no finite residual here
            return np.full(len(self.fairs), np.nan)


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
    one = _Residuals([q], target.reference_date, discounting, companions)
    f = float(one.fairs[0](one.load(target, discounting, companions)))
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
    one = _Residuals([q], target.reference_date, discounting, companions)
    p = one.load(target, discounting, companions)
    strike = contract_quote
    if q.kind is InstrumentKind.FUTURES:
        strike = (100.0 - contract_quote) / 100.0 - q.convexity
    return float(notional * one.weights[0](p) * (one.fairs[0](p) - strike))


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
        if residuals.blind:
            q = residuals.blind[0]
            raise BootstrapError(
                f"{tenor_label} curve: the {q.kind.value} quote ending "
                f"{q.end.iso()} does not read the curve being built"
            )
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
