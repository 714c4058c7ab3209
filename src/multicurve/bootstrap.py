"""Curve construction from market quotes.

Each quote pins the discount factor at its end date (the pillar).  A
curve's pillar log-discounts ln p solve R(ln p) = 0, where R holds every
quote's fair value minus its quote in rate space.  A quote set compiles
into one table, a ``_Layout``, a group of quotes of one kind at a time
over arrays: its rows (money-market forwards, float legs, overnight
legs and annuities) and the serial days each group reads, curve by
curve and each on that curve's own clock.  Every segment of a group's
reads goes onto its curve's batch as one block, and the rows keep the
positions it lands at.  The batches become one located query per
curve, and the layout prices every quote off its slices with the leg
arithmetic of ``_cashflows``, one ``np.dot`` per leg and no Python call
per quote.

A layout is compiled from the set's structure alone (``_structure``:
its dates, kinds, tenors and conventions, never its quote values), so
it is kept in a bounded LRU keyed on that structure (``_compiled``) and
shared by every set of the same structure: each fresh market
snapshot, bumped rebuild, repricing check and hedge valuation of a
market compiles nothing after the first.  The residual object,
``_Residuals``, holds what is its own: the rates and the discount
factors read off the curves.  While solving, R costs one knot-data
build and one kernel call over the solved curve's times; the fixed
curves (discounting, basis companions) are read once each.  The same
object then runs the closure check on the finished curve, and ``risk``
keeps it for the blocks of its quote Jacobian and the PV weights of
its hedges.  A quote that reads nothing on the curve being
built cannot pin it, and the build fails naming it.

Damped Newton solves all pillars of a curve together from a seed (a
nearby curve, the discounting curve or the quotes' own rates), on the
exact Jacobian J = dR/d ln P . d ln P/d ln p: the layout differentiates
every row in one batched pass at each read of the solved curve, and the
kernels give d ln P/d ln p = A + B S'(ln p) from the located batch
(``_kernels.linear_parts``).  An iteration costs one residual
evaluation plus one per step halving, and each solve records its work
in a ``SolverStats``.  Solving the pillars together matters because the
monotone cubic is only semi-local: the slope stored at knot i reacts to
pillars i-1 and i+1, so solving pillar n alone can disturb instruments
that matured earlier.

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
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import _cashflows, _kernels
from .basis import ForwardBasisCurve
from .curve import LocatedQuery, YieldCurve
from .interp import InterpScheme
from .timegrid import Date, DayCount, year_fraction
from .timegrid import cached_schedule_accruals as _taus
from .timegrid import cached_schedule_serials as _sched

__all__ = [
    "InstrumentKind",
    "InstrumentQuote",
    "BootstrapConfig",
    "BootstrapError",
    "BasisDirection",
    "SolverStats",
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

# Compiled layouts kept, least recently used dropped first.  A market
# compiles one set per curve, and hedging it one one-quote set per hedge:
# the 56-quote market of the acceptance tests needs 5 + 56 layouts.  Its
# five sets hold 1 MB with their located lookups (the 1M set, 4,100
# reads, 0.55 MB), a one-quote set about 15 kB, so at worst, the sets of
# a dozen such markets on different reference dates, 64 layouts hold
# about 13 MB.
_LAYOUTS = 64

# Deposits, FRAs and futures compile alike, as money-market quotes.
_GROUP = {
    InstrumentKind.DEPOSIT: "mm",
    InstrumentKind.FRA: "mm",
    InstrumentKind.FUTURES: "mm",
    InstrumentKind.SWAP: "swap",
    InstrumentKind.OIS: "ois",
}


def _structure(quotes, ref: Date, discounting, companions) -> tuple:
    """What compiling a quote set reads, as a hashable key.

    That is the reference date, the clocks of the fixed curves the set
    can read (the discounting curve's reference date, or None when the
    set discounts on its own curve, and the tenor and reference date of
    each companion a basis swap's far leg names, in the order given)
    and, per quote, its kind, tenors, start and end days, fixed
    frequency and two day counts.  Quote values and convexities are not
    in it, nor are companions no quote reads: sets that differ only
    there share one compiled layout.
    """
    far = {q.second_tenor for q in quotes if q.kind is InstrumentKind.BASIS_SWAP}
    return (
        ref.serial,
        None if discounting is None else discounting.reference_date.serial,
        tuple(
            (k, c.reference_date.serial)
            for k, c in (companions or {}).items() if k in far
        ),
        tuple(
            (q.kind, q.underlying_tenor, q.second_tenor, q.start.serial,
             q.end.serial, q.fixed_frequency, q.daycount, q.float_daycount)
            for q in quotes
        ),
    )


class _Layout:
    """A quote set compiled, from its ``_structure`` alone: the times it
    reads, batched per curve, and the rows pricing every quote off them
    as one table.  It is shared, read-only, by every set of that
    structure (see ``_compiled``).

    Each curve has a key (``_OWN``, ``_DISC`` or a companion's tenor
    months) and the reference date its times count from (its clock, as
    serial days), so every curve is read on its own clock; ``disc`` is
    the key discounting reads go to, ``_OWN`` when the set discounts on
    its own curve.  The constructor compiles a group of quotes of one
    kind at a time, and each segment of a group's reads (a leg's payment
    or schedule days, an OIS pair, an annuity's payment days) goes onto
    its curve's batch as one block, recording the quote behind each read
    (``owner``); the rows keep the positions it lands at:

    * money market (deposit, FRA, futures before convexity): the simple
      forward over its pair (T1, T2) on the own curve, with PV weight
      P_d(T2) * tau;
    * swap: a float leg projected off the own curve over its fixed
      annuity; overnight index swap: the telescoped leg
      P_d(start) - P_d(end) over its annuity; basis swap: its long leg
      minus its short leg, each projected off the curve of its tenor,
      over the short leg's spread annuity.  The annuity is their PV
      weight.

    Each batch, as times on its curve's clock, becomes one
    ``LocatedQuery`` in ``queries`` (a curve no quote reads gets none
    and is never read), and the rows become index arrays.  ``blind``
    lists the quotes (by index) that read nothing on the solved curve.

    ``fairs`` prices every row at once: the money-market rows as one
    array of simple forwards, each leg and annuity as one ``np.dot``
    over its slices (``_cashflows.float_legs``, ``annuities``), and each
    swap-type quote as its signed leg and OIS rows over its annuity.
    ``log_gradient`` differentiates all rows in one batched pass.
    """

    def __init__(self, structure: tuple):
        ref, disc, companions, quotes = structure
        clocks = {_OWN: ref} | dict(companions)
        if disc is not None:
            clocks[_DISC] = disc
        self.disc = disc = _OWN if disc is None else _DISC
        self.n = len(quotes)
        size = dict.fromkeys(clocks, 0)
        days: dict = {key: [] for key in clocks}
        owner: dict = {key: [np.zeros(0, dtype=np.intp)] for key in clocks}

        def read(key, idx: list[int], segments: list) -> list[int]:
            """Quote ``idx[j]`` reads the serial days ``segments[j]`` on
            the ``key`` curve; gives the position of each one's first."""
            sizes = list(map(len, segments))
            first = list(accumulate(sizes, initial=size[key]))
            size[key] = first.pop()
            days[key] += segments
            owner[key].append(np.repeat(idx, sizes))
            return first

        groups: dict = {}
        for i, (kind, tenor, second, *_) in enumerate(quotes):
            if kind is InstrumentKind.BASIS_SWAP:
                # grouped by the curves projecting the short and long legs
                kind = tuple(
                    _projecting(tenor, m, clocks) for m in sorted((tenor, second))
                )
            else:
                kind = _GROUP[kind]
            groups.setdefault(kind, []).append(i)
        # rows: money market (quote, T1 read, P_d read, tau); annuity
        # (quote, first payment read, accruals), one per swap-type quote, k
        # numbering them; OIS (k, P_d(start) read); float legs (k, sign,
        # payment read, schedule read, coupons) by projecting curve
        mm, ann, ois, legs = [], [], [], {}
        for kind, idx in groups.items():
            qs = [quotes[i] for i in idx]
            if kind == "mm":
                mm = list(zip(
                    idx, read(_OWN, idx, [q[3:5] for q in qs]),
                    read(disc, idx, [q[4:5] for q in qs]),
                    [year_fraction(Date(q[3]), Date(q[4]), q[6]) for q in qs],
                ))
                continue
            k = range(len(ann), len(ann) + len(idx))
            if kind == "swap" or kind == "ois":
                fixed = [(q[5], q[6]) for q in qs]
                annuity = _schedules(qs, [m for m, _ in fixed])
                signed = [] if kind == "ois" else [
                    (1.0, _OWN, _schedules(qs, [q[1] for q in qs]))
                ]
            else:
                short, long = kind
                tenors = [sorted(q[1:3]) for q in qs]
                signed = [
                    (-1.0, short, _schedules(qs, [t[0] for t in tenors])),
                    (1.0, long, _schedules(qs, [t[1] for t in tenors])),
                ]
                # the spread annuity pays on the short leg's schedule
                fixed = [(t[0], q[7]) for t, q in zip(tenors, qs)]
                annuity = signed[0][2]
            for sign, proj, dates in signed:
                d = read(disc, idx, [x[1:] for x in dates])
                f = read(proj, idx, dates)
                legs.setdefault(proj, []).extend(
                    (j, sign, pay, at, len(x) - 1) for j, pay, at, x in zip(k, d, f, dates)
                )
            if kind == "ois":
                ois += zip(k, read(disc, idx, [q[3:5] for q in qs]))
            taus = [_taus(q[3], q[4], m, dc) for q, (m, dc) in zip(qs, fixed)]
            ann += zip(idx, read(disc, idx, [x[1:] for x in annuity]), taus)

        self.owner = {key: np.concatenate(parts) for key, parts in owner.items()}
        self.queries = {
            key: LocatedQuery((np.concatenate(d) - clocks[key]) / 365.0)
            for key, d in days.items() if d
        }
        own = np.bincount(self.owner[_OWN], minlength=self.n)
        self.blind = np.flatnonzero(own == 0).tolist()

        q, f, d, tau = zip(*mm) if mm else ((),) * 4
        self.mm_q, self.mm_f, self.mm_d = (np.array(x, dtype=np.intp) for x in (q, f, d))
        self.mm_f1 = self.mm_f + 1
        self.mm_tau = np.array(tau, dtype=float)
        q, first, taus = zip(*ann) if ann else ((),) * 3
        self.ann_q = np.array(q, dtype=np.intp)
        self.ann_tau = np.concatenate(taus or [()])
        sizes = [len(t) for t in taus]
        self.ann_k = np.arange(len(ann)).repeat(sizes)
        self.ann = [(t, slice(d, d + size)) for t, d, size in zip(taus, first, sizes)]
        rows = [leg for rows in legs.values() for leg in rows]
        k, sign, d, f, n = zip(*rows) if rows else ((),) * 5
        # every run of reads the evaluation gathers, in one pass: the
        # annuities' payment reads, then coupon i of each leg paying at its
        # payment read i and projecting off its schedule reads i, i + 1
        runs = _spans(first + d + f, sizes + list(n) * 2)
        m, c = len(self.ann_k), sum(n)
        self.ann_d, cd, cf = runs[:m], runs[m:m + c], runs[m + c:]
        n_array = np.array(n, dtype=np.intp)
        ck = np.array(k, dtype=np.intp).repeat(n_array)
        cs = np.array(sign, dtype=float).repeat(n_array)
        ends = list(accumulate(n, initial=0))
        self.groups, self.coupons, leg = {}, {}, 0
        for key, rows in legs.items():
            self.groups[key] = [
                (slice(d, d + n), slice(f, f + n)) for _, _, d, f, n in rows
            ]
            a, b = ends[leg], ends[leg + len(rows)]
            leg += len(rows)
            # per coupon: its schedule reads, payment read, annuity and sign
            self.coupons[key] = (cf[a:b], cf[a:b] + 1, cd[a:b], ck[a:b], cs[a:b])
        ois_k, s = zip(*ois) if ois else ((), ())
        self.ois_k = np.array(ois_k, dtype=np.intp)
        self.ois_s = np.array(s, dtype=np.intp)
        self.ois_s1 = self.ois_s + 1
        # a quote's leg and OIS rows in row order, as fairs sums them
        self.row_k = np.array(k + ois_k, dtype=np.intp)
        self.row_sign = np.array(sign + (1.0,) * len(ois))

    def fairs(self, p: dict) -> np.ndarray:
        """Every quote's fair value in rate space on the batches ``p``;
        raises ``ZeroDivisionError`` where an annuity is zero."""
        fair = np.empty(self.n)
        if self.mm_q.size:
            own = p[_OWN]
            fair[self.mm_q] = _cashflows.simple_forward(
                own[self.mm_f], own[self.mm_f1], self.mm_tau
            )
        if self.ann:
            p_d = p[self.disc]
            rows = [
                _cashflows.float_legs(p_d, p[k], legs) for k, legs in self.groups.items()
            ]
            if self.ois_s.size:
                rows.append(p_d[self.ois_s] - p_d[self.ois_s1])
            # a quote's rows summed in row order onto 0, then divided as
            # Python floats: a zero annuity raises, an overflow gives inf
            numerators = np.bincount(
                self.row_k, np.concatenate(rows) * self.row_sign, len(self.ann)
            )
            a = _cashflows.annuities(self.ann, p_d)
            fair[self.ann_q] = [n / x for n, x in zip(numerators.tolist(), a)]
        return fair

    def weights(self, p: dict) -> np.ndarray:
        """Every quote's PV per unit notional of a unit move in its fair
        value: P_d(end) * tau for money-market quotes, the annuity for
        the others."""
        w = np.empty(self.n)
        if self.mm_q.size:
            w[self.mm_q] = p[self.disc][self.mm_d] * self.mm_tau
        if self.ann:
            w[self.ann_q] = _cashflows.annuities(self.ann, p[self.disc])
        return w

    def log_gradient(self, p: dict, key) -> np.ndarray:
        """dR/d ln P at every read of the ``key`` batch, R being the
        residual of the quote that made the read, on the batches ``p``.

        One vectorised pass over all rows, with no call per quote:
        money-market pairs give +-P1 / (tau P2); a coupon
        c = P_f(t_{i-1}) / P_f(t_i) - 1 paid at P_d(t_i) gives
        P_d (1 + c) at t_{i-1}, -P_d (1 + c) at t_i and P_d c at the
        payment, scaled by its leg's sign over the annuity A; an OIS
        leg gives +-P_d / A; and each annuity read -(fair / A) tau P_d.
        The coupon terms are ``_cashflows.float_leg_log_gradient``'s,
        scattered through index arrays over every row at once, since a
        set's legs sit at arbitrary slices of shared batches.
        """
        idx, val = [], []
        if self.mm_q.size and key == _OWN:
            own, f, f1 = p[key], self.mm_f, self.mm_f1
            x = own[f] / (self.mm_tau * own[f1])
            idx += [f, f1]
            val += [x, -x]
        if self.ann:
            # the annuity and OIS rows read the discounting batch alone
            disc, m = self.disc, len(self.ann)
            p_d = p[disc]
            ann_pv = np.bincount(self.ann_k, self.ann_tau * p_d[self.ann_d], m)
            numerators = np.zeros(m)
            for gkey, (cf, cf1, cd, k, sign) in self.coupons.items():
                if gkey != key and disc != key:
                    continue
                p_f = p[gkey]
                ratio = p_f[cf] / p_f[cf1]
                pay = sign * p_d[cd]
                coupon = pay * (ratio - 1.0)
                scale = 1.0 / ann_pv[k]
                if gkey == key:
                    pay *= ratio * scale
                    idx += [cf, cf1]
                    val += [pay, -pay]
                if disc == key:
                    numerators += np.bincount(k, coupon, m)
                    idx.append(cd)
                    val.append(coupon * scale)
            if disc == key:
                s, s1 = self.ois_s, self.ois_s1
                p1, p2 = p_d[s], p_d[s1]
                numerators += np.bincount(self.ois_k, p1 - p2, m)
                a = ann_pv[self.ois_k]
                fair = numerators / ann_pv
                idx += [s, s1, self.ann_d]
                val += [
                    p1 / a,
                    -p2 / a,
                    -(fair / ann_pv)[self.ann_k] * self.ann_tau * p_d[self.ann_d],
                ]
        if not idx:
            return np.zeros(len(p[key]))
        return np.bincount(np.concatenate(idx), np.concatenate(val), len(p[key]))


@lru_cache(maxsize=_LAYOUTS)
def _compiled(structure: tuple) -> _Layout:
    """The layout of every quote set of ``structure``, compiled on its
    first use and kept in a bounded LRU.  A set that fails to compile
    raises its ``BootstrapError`` and leaves nothing behind."""
    return _Layout(structure)


def _schedules(qs: list[tuple], months: list[int]) -> list[np.ndarray]:
    """The serial days of each quote's schedule rolling every ``months``."""
    return [_sched(q[3], q[4], m) for q, m in zip(qs, months)]


def _projecting(tenor: int, months: int, clocks: dict):
    """Key of the curve projecting the ``months`` leg of a basis swap on
    the ``tenor`` index."""
    if months == tenor:
        return _OWN
    if months in clocks:
        return months
    raise BootstrapError(
        f"basis swap leg needs a companion curve for the {months}M tenor"
    )


def _spans(starts: list[int], sizes: list[int]) -> np.ndarray:
    """The positions covered by runs of ``sizes`` beginning at ``starts``,
    run after run: the index array of many slices, built in one pass."""
    shift = [a - b for a, b in zip(starts, accumulate(sizes, initial=0))]
    index = np.array(shift, dtype=np.intp).repeat(sizes)
    index += np.arange(index.size)
    return index


class _Residuals:
    """Residual vector R of a quote set: each quote's fair value minus its
    rate, futures in rate space.

    The set's compiled ``_Layout`` (its rows, batches and ``owner``)
    comes from ``_compiled``, keyed on the set's structure, so a set is
    compiled once however many times it is re-marked, bumped or
    repriced.  What depends on the quote values and the curves is this
    object's own: the rates, the batches of discount factors read so far
    (``p``, keyed like the layout's queries), the curve read into each
    (``curves``) and the last solve's located pillars.  The fixed curves
    (discounting, basis companions) are read once, here.  An evaluation
    reads each curve once, in one batch, and the layout prices every
    quote off its slices of the batches:

    * ``on_pillars``, while solving, evaluates the solved curve's batch
      on its pillar log-discounts through the kernels, exactly as a
      ``YieldCurve`` built from the same discount factors does, and
      reads the fixed curves as last loaded; ``jacobian`` then gives
      dR/d ln p over those pillars;
    * ``on_curves`` reads finished curves through
      ``YieldCurve.discount_time``: the closure check on the solved
      curve, whose interpolation data is rebuilt from its pillars;
    * ``curve_jacobians`` gives dR/d ln p over the pillars of every
      finished curve the set reads, the blocks of the quote Jacobian
      in ``risk``;
    * ``fairs`` and ``weights`` give every quote's fair value and PV
      weight on finished curves, for ``fair_quote``, ``instrument_pv``
      and the hedge weights in ``risk``.

    A curve is read again only when another curve object takes its
    place.  An annuity that underflows to zero gives NaN residuals.
    ``blind`` lists the quotes that read nothing on the solved curve,
    so cannot pin it.
    """

    __slots__ = ("quotes", "rates", "layout", "blind", "p", "curves", "_pillars")

    def __init__(
        self,
        quotes: list[InstrumentQuote],
        ref: Date,
        discounting: YieldCurve | None = None,
        companions: dict[int, YieldCurve] | None = None,
    ):
        self.quotes = list(quotes)
        self.rates = np.array([q.implied_rate() for q in self.quotes])
        self.layout = layout = _compiled(
            _structure(self.quotes, ref, discounting, companions)
        )
        self.blind = [self.quotes[i] for i in layout.blind]
        self.p: dict = {}
        self.curves: dict = {}
        self._pillars = None
        fixed = dict(companions or {})
        if discounting is not None:
            fixed[_DISC] = discounting
        for key, curve in fixed.items():
            if key in layout.queries:
                self._read(key, curve)

    def _read(self, key, curve: YieldCurve) -> None:
        """Put ``curve``'s discount factors at the ``key`` batch into
        ``p``, unless that curve object is the one read there last."""
        if curve is not self.curves.get(key):
            self.p[key] = curve.discount_time(self.layout.queries[key])
            self.curves[key] = curve

    def load(
        self,
        target: YieldCurve,
        discounting: YieldCurve | None = None,
        companions: dict[int, YieldCurve] | None = None,
    ) -> dict:
        """Read the curves, ``target`` projecting the quotes' own tenor;
        gives the batches by curve key."""
        for key in self.layout.queries:
            if key == _OWN:
                self._read(key, target)
            elif key == _DISC:
                self._read(key, discounting)
            else:
                self._read(key, companions[key])
        return self.p

    def fairs(self, *curves) -> np.ndarray:
        """Every quote's fair value in rate space on the curves given as
        to ``load``; raises ``ZeroDivisionError`` on a zero annuity."""
        return self.layout.fairs(self.load(*curves))

    def weights(self, *curves) -> np.ndarray:
        """Every quote's PV per unit notional of a unit move in its fair
        value, on the curves given as to ``load``."""
        return self.layout.weights(self.load(*curves))

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
        table = _kernels.knot_data(scheme, ts, lnp)
        q = self.layout.queries[_OWN]
        loc = q.located(scheme, ts)
        self.p[_OWN] = _kernels.apply(q.t, loc, dfs, table)
        self.curves[_OWN] = None
        self._pillars = (loc, lnp)
        return self._evaluate()

    def jacobian(self) -> np.ndarray:
        """dR/d ln p over the pillars of the last ``on_pillars`` call,
        anchor excluded: the layout's dR/d ln P at every read of the
        solved curve, times d ln P/d ln p = A + B S' of the located
        batch, summed per quote."""
        loc, lnp = self._pillars
        layout = self.layout
        g = layout.log_gradient(self.p, _OWN)
        t = layout.queries[_OWN].t
        return _kernels.log_jacobian(
            t, loc, lnp, g, layout.owner[_OWN], len(self.quotes)
        )[:, 1:]

    def curve_jacobians(
        self,
        target: YieldCurve,
        discounting: YieldCurve | None = None,
        companions: dict[int, YieldCurve] | None = None,
    ) -> list[tuple[YieldCurve, np.ndarray]]:
        """(curve, dR/d ln p over its pillars) for every curve the set
        reads, at the curves given as to ``load``: per batch, the
        layout's dR/d ln P at each read chained through that curve's
        d ln P/d ln p and summed onto the quote behind the read."""
        layout = self.layout
        p = self.load(target, discounting, companions)
        return [
            (curve, curve.log_jacobian(
                layout.queries[key], layout.log_gradient(p, key),
                layout.owner[key], len(self.quotes),
            ))
            for key, curve in self.curves.items()
        ]

    def _evaluate(self) -> np.ndarray:
        try:
            return self.layout.fairs(self.p) - self.rates
        except ZeroDivisionError:
            # an annuity that underflowed to zero: no finite residual here
            return np.full(len(self.quotes), np.nan)


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
    f = float(one.fairs(target, discounting, companions)[0])
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
    curves = (target, discounting, companions)
    strike = contract_quote
    if q.kind is InstrumentKind.FUTURES:
        strike = (100.0 - contract_quote) / 100.0 - q.convexity
    return float(notional * one.weights(*curves)[0] * (one.fairs(*curves)[0] - strike))


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
) -> tuple[YieldCurve, _Residuals, SolverStats]:
    """``bootstrap_curve``, also giving the compiled residuals of the
    chosen quotes, which the closure check evaluated on the result, and
    the solver's work."""
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


# Halvings of one Newton step tried before the solve gives up.
_MAX_HALVINGS = 40


@dataclass
class SolverStats:
    """The work of one curve's Newton solve.

    ``residual_evals`` counts the evaluations of R while solving: one at
    the seed, one per trial step.  Each iteration takes one Jacobian
    and one trial step plus one per ``halvings`` of it.  The closure
    check on the finished curve is not counted.
    """

    iterations: int = 0
    residual_evals: int = 0
    jacobian_evals: int = 0
    halvings: int = 0


def _solve_curve(
    chosen: list[InstrumentQuote],
    ref: Date,
    cfg: BootstrapConfig,
    discount_curve: YieldCurve | None,
    companions: dict[int, YieldCurve] | None,
    tenor_label: str,
    ts: np.ndarray,
    seed: np.ndarray,
) -> tuple[YieldCurve, _Residuals, SolverStats]:
    """Solve R(ln p) = 0 for the pillar log-discounts by damped Newton
    from ``seed`` (``ts`` holds the anchor at 0 and the pillar times).

    The Jacobian is exact: J = (dR/d ln P at every read of the curve)
    (d ln P/d ln p), from the residuals' layout and the kernels'
    linear parts of the located batch (``_Residuals.jacobian``), at the
    cost of no further residual evaluation.  A J that the LU solve finds
    singular, or a non-finite step, fails the build; the condition
    number is worked out for the message alone.  A step is halved while
    the residual it reaches is non-finite or no smaller (in the sum of
    squares) than the current one.
    """
    n = len(chosen)
    lo, hi = cfg.df_bracket
    stats = SolverStats()

    def fail(reason: str, r: np.ndarray) -> BootstrapError:
        return BootstrapError(
            f"{tenor_label} curve: {reason} after {stats.iterations} Newton "
            f"iterations, worst residual {np.max(np.abs(r)):.3e} "
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
            stats.residual_evals += 1
            knot_dfs[1:] = np.exp(x)
            return residuals.on_pillars(scheme, ts, knot_dfs)

        # a seed outside df_bracket starts from the nearer end of it
        x = np.log(np.clip(seed, lo, hi))
        r = at(x)
        if not np.all(np.isfinite(r)):
            raise fail("non-finite residual at the seed", r)
        while np.max(np.abs(r)) > cfg.tolerance:
            if stats.iterations == cfg.max_iterations:
                raise fail("no convergence", r)
            stats.iterations += 1
            # at x, the point R was last evaluated at
            jac = residuals.jacobian()
            stats.jacobian_evals += 1
            if not np.all(np.isfinite(jac)):
                raise fail("non-finite Jacobian", r)
            try:
                step = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError:
                cond = np.linalg.cond(jac)
                raise fail(f"singular Jacobian (cond {cond:.3e})", r) from None
            if not np.all(np.isfinite(step)):
                raise fail("non-finite Newton step", r)
            size = r @ r
            for _ in range(_MAX_HALVINGS):
                trial = x + step
                r_trial = at(trial)
                if np.all(np.isfinite(r_trial)) and r_trial @ r_trial < size:
                    break
                step *= 0.5
                stats.halvings += 1
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
            f"above tolerance {cfg.tolerance:g} after {stats.iterations} "
            "Newton iterations"
        )
    return curve, residuals, stats


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
    for n, row in enumerate(reader, 1):
        # DictReader files missing fields under None values, extra ones under a None key
        if None in row or None in row.values():
            raise ValueError(f"quote row {n} needs {len(expected)} fields")
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
