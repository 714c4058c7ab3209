"""Quote sensitivities on a multi-curve market state.

A ``MarketState`` owns the quote sets behind every curve and knows
their dependency order (forwarding curves need the discounting curve;
basis swap legs may need a companion forwarding curve).

All pillar log-discounts ln p solve R(ln p; q) = 0, R holding each
chosen quote's fair value minus the quote in rate space, so dR/dq = -I
and a book's quote deltas w solve J^T w = g, where J = dR/d ln p and
g = dPV/d ln p on the base curves: one adjoint solve, no rebuild.  J is
block lower triangular in build order; a column moves one pillar by a
forward difference and evaluates the residuals the base build compiled
for that curve and for the curves priced against it, so no quote is
compiled again and each curve a column moves is read in one batch per
quote set.  J depends on the quotes alone, and g (N + 1 book values
for N pillars) is kept per book function.  A bootstrap instrument
reprices exactly whatever the quotes, so as a hedge it moves with its
own quote alone, by its PV weight.

Quotes in several quote sets (one rate feeding two curves) share a
fingerprint, move together and are reported once; quotes holding no
pillar have zero delta.  A non-finite or singular J, or a non-finite g,
gives NaN deltas with the error recorded.
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
    _bootstrap,
    bootstrap_curve,
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

# Step in ln DF of the forward-difference columns of J and g, near
# sqrt(eps), where truncation (~h) and rounding (~eps/h) balance.
_LN_DF_STEP = 1e-8


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
    Per-label configs fall back to the shared ``config``.  The base
    curves with their compiled residuals, the quote Jacobian and each
    book function's deltas are kept, so the quote sets must not change
    once the state has built.
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
        self._sets: dict = {}
        self._jac: tuple | None = None
        self._deltas: dict = {}
        self._valuations = 0

    def _dependencies(self, label: str) -> set[str]:
        if label == "discount":
            return set()
        deps = {"discount"}
        for q in self.quote_sets[label]:
            if q.kind is InstrumentKind.BASIS_SWAP:
                other = f"fwd_{q.second_tenor}M"
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
            self._base = self._build({})
        return self._base

    def build(self, overrides: Override | None = None) -> dict[str, YieldCurve]:
        """Curve set with some quotes replaced; clean curves are reused.

        ``overrides`` maps (label, index into that quote set) to a
        replacement quote.  A label rebuilds when it carries an
        override or depends on a label that rebuilt, seeded from its
        base curve.  Nothing is kept: each call builds afresh.
        """
        return self._build(overrides or {}, self.base_curves())

    def _build(
        self, overrides: Override, base: dict[str, YieldCurve] | None = None
    ) -> dict[str, YieldCurve]:
        # a label rebuilds when it or a curve it prices against is dirty
        dirty = {label for (label, _idx) in overrides}
        curves: dict[str, YieldCurve] = {}
        for label in self._order:
            if base is not None and not ({label} | self._deps[label]) & dirty:
                curves[label] = base[label]
                continue
            args = (
                [overrides.get((label, i), q)
                 for i, q in enumerate(self.quote_sets[label])],
                self.config_for(label),
                *pricing_curves(label, curves),
                self.reference_date,
                label,
            )
            if base is None:
                # the base build keeps each label's compiled residuals
                curves[label], self._sets[label] = _bootstrap(*args, None)
            else:
                curves[label] = bootstrap_curve(*args, base[label])
            dirty.add(label)
        return curves

    def _moved_sets(self):
        """Per base pillar in build order: its label, the base set with
        that pillar's ln DF moved up by ``_LN_DF_STEP``, and the step as
        the moved curve's own logs see it."""
        base = self.base_curves()
        for label in self._order:
            c = base[label]
            for j in range(len(c.pillar_dfs)):
                dfs = c.pillar_dfs.copy()
                dfs[j] *= math.exp(_LN_DF_STEP)
                moved = YieldCurve(
                    c.reference_date, list(zip(c.pillar_dates, dfs)),
                    c.interpolation, c.daycount, c.tenor_label,
                )
                step = np.log(dfs[j]) - np.log(c.pillar_dfs[j])
                yield label, {**base, label: moved}, step

    def _jacobian(self) -> tuple:
        """(J, rows, cond(J), error): ``rows`` maps each quote location
        (label, index) holding a pillar to its row of R, which is also
        its pillar's column; ``error`` says why J cannot be solved.

        Each column evaluates the residuals compiled by the base build,
        those of the moved curve and of the curves priced against it."""
        if self._jac is None:
            base = self.base_curves()
            sets = self._sets
            span, rows, n = {}, {}, 0
            for label in self._order:
                chosen = sets[label].quotes
                span[label] = slice(n, n + len(chosen))
                for i, q in enumerate(self.quote_sets[label]):
                    if q in chosen:
                        rows[(label, i)] = n + chosen.index(q)
                n = span[label].stop

            # each label's curves at the base; a column swaps in the moved one
            at = {m: (base[m], *pricing_curves(m, base)) for m in self._order}
            months = {m: tenor_months_from_label(m) for m in self._order}

            def residuals(m: str, label: str, moved: YieldCurve) -> np.ndarray:
                target, disc, companions = at[m]
                if m == label:
                    target = moved
                elif label == "discount":
                    disc = moved
                else:
                    companions = {**companions, months[label]: moved}
                return sets[m].on_curves(target, disc, companions)

            at_base = {m: sets[m].on_curves(*at[m]) for m in self._order}
            matrix = np.zeros((n, n))
            with np.errstate(all="ignore"):
                for col, (label, curves, step) in enumerate(self._moved_sets()):
                    for m in self._order:
                        if m == label or label in self._deps[m]:
                            moved = residuals(m, label, curves[label]) - at_base[m]
                            matrix[span[m], col] = moved / step
            finite = np.all(np.isfinite(matrix))
            cond = float(np.linalg.cond(matrix)) if finite else math.nan
            error = None
            if not cond <= 1.0 / np.finfo(float).eps:
                error = f"singular or non-finite quote Jacobian (cond {cond:.3e})"
            self._jac = (matrix, rows, cond, error)
        return self._jac

    def _quote_deltas(self, pv_fn) -> tuple[dict, str | None]:
        """Book delta per bp at each quote location holding a pillar, and
        the error that made them NaN.  ``pv_fn`` must depend on the curves
        alone: its deltas are kept for the life of the state."""
        if pv_fn not in self._deltas:
            matrix, rows, _, error = self._jacobian()
            w = np.full(len(matrix), math.nan)
            if error is None:
                pv0 = pv_fn(self.base_curves())
                with np.errstate(all="ignore"):
                    grad = np.array([
                        (pv_fn(curves) - pv0) / step
                        for _, curves, step in self._moved_sets()
                    ])
                self._valuations += len(grad) + 1
                if np.all(np.isfinite(grad)):
                    # dR/dq = -I in rate units, so dPV/dq = w
                    w = np.linalg.solve(matrix.T, grad) * 1e-4
                else:
                    error = "non-finite book sensitivity to the pillars"
            deltas = {loc: float(w[row]) for loc, row in rows.items()}
            self._deltas[pv_fn] = (deltas, error)
        return self._deltas[pv_fn]

    def risk_stats(self) -> dict[str, float]:
        """Pillars in J, cond(J) and the book valuations made so far."""
        matrix, _, cond, _ = self._jacobian()
        return {"pillars": len(matrix), "cond": cond,
                "book_valuations": self._valuations}


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


def delta_ladder(state: MarketState, pv_fn) -> list[DeltaEntry]:
    """Quote deltas of ``pv_fn`` over the whole state, per bp.

    ``pv_fn`` maps a curve dict to a book PV and must depend on the
    curves alone, since its deltas are kept on the state and reused by
    the hedging functions.  Shared quotes (same fingerprint in several
    sets) move together and produce a single entry.  A Jacobian or book
    gradient that cannot be solved yields NaN deltas with the error
    recorded rather than aborting the ladder.
    """
    return _ladder(state, *state._quote_deltas(pv_fn))


def _ladder(
    state: MarketState, deltas: dict[tuple[str, int], float], error: str | None
) -> list[DeltaEntry]:
    groups: dict[tuple, list[tuple[str, int]]] = {}
    for label in state._order:
        for i, q in enumerate(state.quote_sets[label]):
            groups.setdefault(quote_fingerprint(q), []).append((label, i))
    entries = []
    for locs in groups.values():
        label0, idx0 = locs[0]
        q = state.quote_sets[label0][idx0]
        delta = sum(deltas.get(loc, 0.0) for loc in locs)
        entries.append(
            DeltaEntry(
                locations=tuple(locs),
                quote=q,
                pillar_date=q.end,
                time=state.time(q.end),
                market_rate=q.implied_rate(),
                delta_per_bp=delta,
                shared=len(locs) > 1,
                error=error if math.isnan(delta) else None,
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


def hedge_ratios(
    state: MarketState, pv_fn, hedge_locations: list[tuple[str, int]]
) -> list[HedgeRow]:
    """Units of each hedge quote the book is long, by matched deltas.

    Hedges are bootstrap instruments named by (set label, index); each
    moves with its own quote alone, by its PV weight per bp.  The ratio
    of the book's delta (kept on ``state`` per ``pv_fn``) to that own
    delta is the position to sell (hold the negated ratio) to flatten
    the quote.
    """
    if len(set(hedge_locations)) != len(hedge_locations):
        raise ValueError("duplicate hedge instruments")
    deltas, error = state._quote_deltas(pv_fn)
    curves = state.base_curves()
    rows = []
    for label, idx in hedge_locations:
        q = state.quote_sets[label][idx]
        own = 0.0
        if (label, idx) in deltas:
            # PV per unit notional of a unit move in the fair value, from
            # the quote set the base build compiled
            chosen = state._sets[label]
            p = chosen.load(curves[label], *pricing_curves(label, curves))
            own = float(chosen.weights[chosen.quotes.index(q)](p)) * 1e-4
        if own == 0.0:
            raise ValueError(
                f"hedge {label}[{idx}] has no sensitivity to its own quote"
            )
        book = deltas[(label, idx)]
        if math.isnan(book):
            raise BootstrapError(f"no book delta for hedge {label}[{idx}]: {error}")
        rows.append(HedgeRow(label, idx, q, own, book, book / own))
    return rows


def hedged_pv_fn(pv_fn, rows: list[HedgeRow]):
    """Book PV net of the offsetting hedge positions."""

    def fn(curves: dict[str, YieldCurve]) -> float:
        pv = pv_fn(curves)
        for r in rows:
            disc, companions = pricing_curves(r.set_label, curves)
            pv -= r.ratio * instrument_pv(
                r.quote, r.quote.quote, curves[r.set_label], disc, companions
            )
        return pv

    return fn


def hedged_residual_ladder(
    state: MarketState, pv_fn, rows: list[HedgeRow]
) -> list[DeltaEntry]:
    """Quote deltas of ``hedged_pv_fn(pv_fn, rows)``: the book's deltas
    kept on ``state`` net of each hedge's own delta times its ratio,
    with no further book or hedge valuation."""
    deltas, error = state._quote_deltas(pv_fn)
    net = dict(deltas)
    for r in rows:
        net[(r.set_label, r.index)] -= r.ratio * r.own_delta_per_bp
    return _ladder(state, net, error)


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
