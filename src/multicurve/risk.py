"""Bump-and-reprice sensitivities on a multi-curve market state.

A ``MarketState`` owns the quote sets behind every curve and knows
their dependency order (forwarding curves need the discounting curve;
basis swap legs may need a companion forwarding curve).  Deltas come
from central finite differences of full re-bootstraps: each market
quote is shifted one basis point up and down, only the curves downwind
of that quote are rebuilt, and the portfolio reprices on the bumped
curve set.

Each bumped curve set is built once per state: a rebuilt curve is
seeded from the base curve's pillar discount factors, and the set (or
the ``BootstrapError`` it raised) is kept for the life of the state.
The book is likewise priced once per set and per ``pv_fn``, so
``hedge_ratios`` and ``hedged_residual_ladder`` reuse the curve sets
and book values that ``delta_ladder`` already produced.

Quotes that appear in several quote sets (one rate feeding two curves)
are detected by fingerprint, bumped together, and reported once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .bootstrap import (
    BootstrapConfig,
    BootstrapError,
    InstrumentKind,
    InstrumentQuote,
    bootstrap_curve,
    bump_quote,
    instrument_pv,
)
from .curve import TENOR_LABELS, YieldCurve, tenor_months_from_label
from .timegrid import Date

__all__ = [
    "MarketState",
    "DeltaEntry",
    "HedgeRow",
    "ProjectionResult",
    "quote_fingerprint",
    "pricing_curves",
    "delta_ladder",
    "project_deltas",
    "hedge_ratios",
    "hedged_pv_fn",
    "hedged_residual_ladder",
    "write_ladder_csv",
    "write_hedge_csv",
    "LADDER_CSV_HEADER",
    "HEDGE_CSV_HEADER",
]

LADDER_CSV_HEADER = "curve,pillar_date,instrument_kind,market_rate,delta_per_bp"
HEDGE_CSV_HEADER = "hedge_instrument,hedge_ratio,residual_delta_per_bp"

Override = dict[tuple[str, int], InstrumentQuote]


def _tenor_label(months: int) -> str:
    return f"fwd_{months}M"


def pricing_curves(
    label: str, curves: dict[str, YieldCurve]
) -> tuple[YieldCurve | None, dict[int, YieldCurve]]:
    """Discounting curve and basis companions the ``label`` quote set
    prices against: the ``discount`` curve (None for the discount set
    itself, which discounts on its own curve) and every other
    forwarding curve in ``curves`` keyed by tenor months."""
    disc = None if label == "discount" else curves["discount"]
    companions = {
        tenor_months_from_label(lbl): c
        for lbl, c in curves.items()
        if lbl != label and tenor_months_from_label(lbl) is not None
    }
    return disc, companions


class MarketState:
    """Quote sets keyed by curve label plus everything needed to build.

    ``quote_sets`` maps labels from ``TENOR_LABELS`` to instrument
    lists; a ``discount`` set is required and always builds first.
    Per-label configs fall back to the shared ``config``.  Built curve
    sets are cached, so the quote sets must not change once the state
    has built.
    """

    def __init__(
        self,
        reference_date: Date,
        quote_sets: dict[str, list[InstrumentQuote]],
        config: BootstrapConfig | None = None,
        configs: dict[str, BootstrapConfig] | None = None,
    ):
        if "discount" not in quote_sets:
            raise ValueError("market state needs a 'discount' quote set")
        for label in quote_sets:
            if label not in TENOR_LABELS:
                raise ValueError(f"unknown curve label {label!r}")
        self.reference_date = reference_date
        self.quote_sets = {k: list(v) for k, v in quote_sets.items()}
        self._config = config or BootstrapConfig()
        self._configs = dict(configs or {})
        self._deps = {
            label: self._dependencies(label) for label in self.quote_sets
        }
        self._order = self._topo_order()
        self._base: dict[str, YieldCurve] | None = None
        # bumped curve sets (or their BootstrapError) and book values,
        # keyed by the overrides that produced them
        self._bumped: dict[frozenset, dict[str, YieldCurve] | BootstrapError] = {}
        self._pvs: dict[tuple, float] = {}

    def _dependencies(self, label: str) -> set[str]:
        if label == "discount":
            return set()
        deps = {"discount"}
        for q in self.quote_sets[label]:
            if q.kind is InstrumentKind.BASIS_SWAP:
                other = _tenor_label(q.second_tenor)
                if other == label:
                    continue
                if other not in self.quote_sets:
                    raise ValueError(
                        f"{label} basis swaps reference the {other} curve "
                        "but no such quote set exists"
                    )
                deps.add(other)
        return deps

    def _topo_order(self) -> list[str]:
        remaining = dict(self._deps)
        order: list[str] = []
        while remaining:
            ready = sorted(
                lbl for lbl, deps in remaining.items() if deps <= set(order)
            )
            if not ready:
                raise ValueError(
                    f"cyclic curve dependencies among {sorted(remaining)}"
                )
            order.extend(ready)
            for lbl in ready:
                del remaining[lbl]
        return order

    @property
    def build_order(self) -> list[str]:
        """Curve labels in dependency order, discounting first."""
        return list(self._order)

    def config_for(self, label: str) -> BootstrapConfig:
        return self._configs.get(label, self._config)

    def time(self, date: Date) -> float:
        return (date.serial - self.reference_date.serial) / 365.0

    def base_curves(self) -> dict[str, YieldCurve]:
        if self._base is None:
            self._base = self._build_all({})
        return self._base

    def build(self, overrides: Override | None = None) -> dict[str, YieldCurve]:
        """Curve set with some quotes replaced; clean curves are reused.

        ``overrides`` maps (label, index into that quote set) to a
        replacement quote.  A label rebuilds when it carries an
        override or depends on a label that rebuilt, starting from its
        base curve.  The set is built once per distinct ``overrides``;
        later calls return the same dict, or raise the same
        ``BootstrapError`` again.
        """
        if not overrides:
            return self.base_curves()
        key = frozenset(overrides.items())
        if key not in self._bumped:
            try:
                self._bumped[key] = self._build_bumped(overrides)
            except BootstrapError as exc:
                self._bumped[key] = exc
        built = self._bumped[key]
        if isinstance(built, BootstrapError):
            raise built
        return built

    def _build_bumped(self, overrides: Override) -> dict[str, YieldCurve]:
        base = self.base_curves()
        dirty = {label for (label, _idx) in overrides}
        curves: dict[str, YieldCurve] = {}
        rebuilt: set[str] = set()
        for label in self._order:
            if label not in dirty and not (self._deps[label] & rebuilt):
                curves[label] = base[label]
                continue
            curves[label] = self._build_one(label, curves, overrides, base[label])
            rebuilt.add(label)
        return curves

    def _build_all(self, overrides: Override) -> dict[str, YieldCurve]:
        curves: dict[str, YieldCurve] = {}
        for label in self._order:
            curves[label] = self._build_one(label, curves, overrides)
        return curves

    def _build_one(
        self,
        label: str,
        curves: dict[str, YieldCurve],
        overrides: Override,
        start_curve: YieldCurve | None = None,
    ) -> YieldCurve:
        quotes = [
            overrides.get((label, i), q)
            for i, q in enumerate(self.quote_sets[label])
        ]
        disc, companions = pricing_curves(label, curves)
        return bootstrap_curve(
            quotes,
            self.config_for(label),
            discount_curve=disc,
            companions=companions,
            reference_date=self.reference_date,
            tenor_label=label,
            start_curve=start_curve,
        )

    def _book_pv(self, pv_fn, overrides: Override) -> float:
        """``pv_fn`` on the bumped curve set, computed once per set.

        ``pv_fn`` must depend on the curves alone: its value is kept
        for the life of the state, keyed by the function itself.
        """
        key = (pv_fn, frozenset(overrides.items()))
        if key not in self._pvs:
            self._pvs[key] = pv_fn(self.build(overrides))
        return self._pvs[key]


# ---------------------------------------------------------------------------
# delta ladders
# ---------------------------------------------------------------------------

def quote_fingerprint(q: InstrumentQuote) -> tuple:
    """Identity of a market quote regardless of which set holds it."""
    return (
        q.kind.value,
        q.underlying_tenor,
        q.start.serial,
        q.end.serial,
        q.second_tenor,
        q.quote,
    )


@dataclass
class DeltaEntry:
    """Sensitivity of a book to one market quote, per basis point."""

    locations: tuple[tuple[str, int], ...]
    quote: InstrumentQuote
    pillar_date: Date
    time: float
    market_rate: float
    delta_per_bp: float
    shared: bool
    error: str | None = None

    @property
    def curve_key(self) -> str:
        return "+".join(sorted({label for label, _ in self.locations}))


def delta_ladder(state: MarketState, pv_fn, bump: float = 1e-4) -> list[DeltaEntry]:
    """Central-difference quote deltas of ``pv_fn`` over the whole state.

    ``pv_fn`` maps a curve dict to a book PV and must depend on the
    curves alone, since its value on each bumped set is kept on the
    state and reused by the hedging functions.  Shared quotes (same
    fingerprint in several sets) shift together and produce a single
    entry.  A bootstrap failure on a bumped state yields a NaN delta
    with the error recorded rather than aborting the ladder.
    """
    return _ladder(state, lambda ov: state._book_pv(pv_fn, ov), bump)


def _ladder(state: MarketState, pv_at, bump: float) -> list[DeltaEntry]:
    # ``pv_at`` values the book on the curve set built from overrides
    groups: dict[tuple, list[tuple[str, int]]] = {}
    for label in state._order:
        for i, q in enumerate(state.quote_sets[label]):
            groups.setdefault(quote_fingerprint(q), []).append((label, i))
    scale = 1e-4 / (2.0 * bump)
    entries = []
    for locs in groups.values():
        label0, idx0 = locs[0]
        q = state.quote_sets[label0][idx0]
        up = {loc: bump_quote(q, bump) for loc in locs}
        down = {loc: bump_quote(q, -bump) for loc in locs}
        err = None
        try:
            delta = (pv_at(up) - pv_at(down)) * scale
        except BootstrapError as exc:
            delta = math.nan
            err = str(exc)
        entries.append(
            DeltaEntry(
                locations=tuple(locs),
                quote=q,
                pillar_date=q.end,
                time=state.time(q.end),
                market_rate=q.implied_rate(),
                delta_per_bp=delta,
                shared=len(locs) > 1,
                error=err,
            )
        )
    return entries


# ---------------------------------------------------------------------------
# projection onto standard maturities
# ---------------------------------------------------------------------------

@dataclass
class ProjectionResult:
    target_times: np.ndarray
    deltas: np.ndarray
    total_input: float
    total_projected: float


def project_deltas(
    times, deltas, target_times
) -> ProjectionResult:
    """Reassign deltas to bracketing target maturities, linear in time.

    Each delta splits between the two neighbouring targets with weights
    proportional to time distance; outside the target span everything
    lands on the nearest end.  The larger share is rounded first and
    the smaller taken as the exact remainder, so the two pieces always
    recombine to the input bitwise; accumulating totals per entry in
    input order then makes ``total_projected`` equal ``total_input``
    exactly, not just approximately.
    """
    tgt = np.asarray(target_times, dtype=float)
    if tgt.ndim != 1 or tgt.size == 0:
        raise ValueError("need a one-dimensional, non-empty target grid")
    if np.any(np.diff(tgt) <= 0.0):
        raise ValueError("target times must be strictly increasing")
    times = np.asarray(times, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if times.shape != deltas.shape:
        raise ValueError("times and deltas must have matching shapes")
    buckets = [0.0] * tgt.size
    total_in = 0.0
    total_out = 0.0
    tlist = tgt.tolist()
    for t, d in zip(times.tolist(), deltas.tolist()):
        if t <= tlist[0]:
            i_lo = i_hi = 0
            w_lo = 1.0
        elif t >= tlist[-1]:
            i_lo = i_hi = tgt.size - 1
            w_lo = 1.0
        else:
            i_hi = bisect_left(tlist, t)
            i_lo = i_hi - 1
            w_lo = (tlist[i_hi] - t) / (tlist[i_hi] - tlist[i_lo])
        if w_lo >= 0.5:
            big = w_lo * d
            buckets[i_lo] += big
            small = d - big
            buckets[i_hi] += small
        else:
            big = (1.0 - w_lo) * d
            buckets[i_hi] += big
            small = d - big
            buckets[i_lo] += small
        total_in += d
        total_out += big + small
    return ProjectionResult(tgt, np.array(buckets), total_in, total_out)


# ---------------------------------------------------------------------------
# hedging
# ---------------------------------------------------------------------------

@dataclass
class HedgeRow:
    set_label: str
    index: int
    quote: InstrumentQuote
    own_delta_per_bp: float
    portfolio_delta_per_bp: float
    ratio: float

    @property
    def name(self) -> str:
        return f"{self.set_label}:{self.quote.kind.value}:{self.quote.end.iso()}"


def _hedge_position_pv(
    row_label: str, q: InstrumentQuote, curves: dict[str, YieldCurve]
) -> float:
    disc, companions = pricing_curves(row_label, curves)
    return instrument_pv(q, q.quote, curves[row_label], disc, companions)


def hedge_ratios(
    state: MarketState,
    pv_fn,
    hedge_locations: list[tuple[str, int]],
    bump: float = 1e-4,
) -> list[HedgeRow]:
    """Units of each hedge quote the book is long, by matched deltas.

    Hedges are bootstrap instruments named by (set label, index).  For
    each one the portfolio delta and the unit hedge's own delta come
    from the same pair of bumped curve sets; their ratio is the
    position to sell (hold the negated ratio) to flatten that quote.
    Curve sets and book values already produced on ``state`` for the
    same bump and ``pv_fn`` are reused.
    """
    if len(set(hedge_locations)) != len(hedge_locations):
        raise ValueError("duplicate hedge instruments")
    scale = 1e-4 / (2.0 * bump)
    rows = []
    for label, idx in hedge_locations:
        q = state.quote_sets[label][idx]
        up_ov = {(label, idx): bump_quote(q, bump)}
        down_ov = {(label, idx): bump_quote(q, -bump)}
        up, down = state.build(up_ov), state.build(down_ov)
        own = (
            _hedge_position_pv(label, q, up) - _hedge_position_pv(label, q, down)
        ) * scale
        if own == 0.0:
            raise ValueError(
                f"hedge {label}[{idx}] has no sensitivity to its own quote"
            )
        book = (state._book_pv(pv_fn, up_ov) - state._book_pv(pv_fn, down_ov)) * scale
        rows.append(HedgeRow(label, idx, q, own, book, book / own))
    return rows


def _hedge_curves(
    row_label: str, q: InstrumentQuote, curves: dict[str, YieldCurve]
) -> tuple[YieldCurve | None, ...]:
    """The curve objects a hedge's PV reads: its own curve, the discount
    curve, and for a basis swap the curve of its second tenor."""
    read = [curves[row_label]]
    if row_label != "discount":
        read.append(curves["discount"])
    if q.kind is InstrumentKind.BASIS_SWAP:
        read.append(curves.get(_tenor_label(q.second_tenor)))
    return tuple(read)


def _net_of_hedges(
    pv: float,
    rows: list[HedgeRow],
    curves: dict[str, YieldCurve],
    unit_pv=_hedge_position_pv,
) -> float:
    for r in rows:
        pv -= r.ratio * unit_pv(r.set_label, r.quote, curves)
    return pv


def hedged_pv_fn(pv_fn, rows: list[HedgeRow]):
    """Book PV net of the offsetting hedge positions."""

    def fn(curves: dict[str, YieldCurve]) -> float:
        return _net_of_hedges(pv_fn(curves), rows, curves)

    return fn


def hedged_residual_ladder(
    state: MarketState,
    pv_fn,
    rows: list[HedgeRow],
    bump: float = 1e-4,
) -> list[DeltaEntry]:
    """Quote deltas of ``hedged_pv_fn(pv_fn, rows)``, reusing the curve
    sets and book values already produced on ``state``.

    A bumped set holds the base curve object wherever it did not
    rebuild, so each hedge is valued once per distinct tuple of curves
    it reads rather than once per set.
    """
    unit_pvs: dict[tuple, float] = {}

    def unit_pv(label: str, q: InstrumentQuote, curves: dict[str, YieldCurve]) -> float:
        key = (label, q, *_hedge_curves(label, q, curves))
        if key not in unit_pvs:
            unit_pvs[key] = _hedge_position_pv(label, q, curves)
        return unit_pvs[key]

    def hedged_pv(overrides: Override) -> float:
        curves = state.build(overrides)
        return _net_of_hedges(state._book_pv(pv_fn, overrides), rows, curves, unit_pv)

    return _ladder(state, hedged_pv, bump)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_ladder_csv(entries: list[DeltaEntry], fh, comment: str | None = None) -> None:
    if comment:
        fh.write(f"# {comment}\n")
    fh.write(LADDER_CSV_HEADER + "\n")
    for e in entries:
        fh.write(
            f"{e.curve_key},{e.pillar_date.iso()},{e.quote.kind.value},"
            f"{e.market_rate:.10g},{e.delta_per_bp:.12g}\n"
        )


def write_hedge_csv(
    rows: list[HedgeRow],
    fh,
    residuals: dict[str, float] | None = None,
    comment: str | None = None,
) -> None:
    """Hedge report; ``residuals`` maps row names to post-hedge deltas."""
    if comment:
        fh.write(f"# {comment}\n")
    fh.write(HEDGE_CSV_HEADER + "\n")
    for r in rows:
        res = (residuals or {}).get(r.name, 0.0)
        fh.write(f"{r.name},{r.ratio:.12g},{res:.12g}\n")
