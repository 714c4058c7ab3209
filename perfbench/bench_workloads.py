"""The three closed-loop workloads: ``remark``, ``book`` and ``risk``.

Each workload draws every input from its seed through
``multicurve.synthetic``: the reference date, the market parameters,
the per-op market snapshots and the book.  The seed varies values
only; the shape of an op (curves, quote maturities, position kinds and
tenors) is fixed, so op cost does not depend on the seed.

Calls into the package go through module attributes looked up at call
time (``pricer.price_position``, ``cli.main``, ...), so the tracer in
``layer_trace`` sees them.  ``op`` does the timed work; ``check``
verifies its output afterwards, outside the clock, and returns an
error string or None.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import replace

import numpy as np

from multicurve import (
    BootstrapConfig,
    Date,
    InterpScheme,
    SwapVolCorrSpec,
    VolCorrSpec,
    add_months,
    bump_quote,
    parse_portfolio,
    repricing_errors,
    select_pillar_instruments,
    write_quotes_csv,
)
from multicurve import tenor_months_from_label as _months
from multicurve import basis, bootstrap, cli, pricer, risk
from multicurve.synthetic import SyntheticMarket, make_quote_sets

from book_oracle import position_pv

FORWARDING = ("fwd_1M", "fwd_3M", "fwd_6M", "fwd_12M")
POOL = 64  # distinct market snapshots per run; ops cycle through them

REPRICE_TOL = 1e-10       # remark: worst quote repricing residual
BOOK_PV_TOL = 1e-12       # book: |pv - oracle| per unit of notional (seen: 1e-15)
HEDGE_RESIDUAL_TOL = 1e-6  # risk: sum |residual| per unit of gross ladder
PARALLEL_TOL = 1e-5       # risk: |ladder total - parallel shift| per gross


def seeded_market(rng: np.random.Generator) -> SyntheticMarket:
    """A valuation date in 2026 and market parameters around the defaults."""
    ref = Date(Date.of(2026, 1, 1).serial + int(rng.integers(0, 365)))
    return SyntheticMarket(
        ref,
        base_rate=float(rng.uniform(0.008, 0.014)),
        long_rate=float(rng.uniform(0.05, 0.065)),
        mean_reversion_years=float(rng.uniform(1.1, 1.4)),
        spread_floor=float(rng.uniform(1.5e-4, 2.5e-4)),
        spread_peak=float(rng.uniform(70e-4, 85e-4)),
        spread_decay_years=float(rng.uniform(3.6, 4.4)),
    )


def snapshot(base: SyntheticMarket, rng: np.random.Generator) -> SyntheticMarket:
    """The same market a little later: rates and spreads moved by a few bp."""
    return replace(
        base,
        base_rate=base.base_rate + float(rng.normal(0.0, 5e-4)),
        long_rate=base.long_rate + float(rng.normal(0.0, 5e-4)),
        spread_peak=base.spread_peak * float(1.0 + rng.normal(0.0, 0.02)),
    )


def _companions(curves, label):
    return {
        _months(lbl): c for lbl, c in curves.items()
        if lbl != label and _months(lbl) is not None
    }


def clear_caches() -> None:
    """Empty the bootstrap's schedule caches, if this version has them."""
    for name in ("_sched", "_taus"):
        fn = getattr(bootstrap, name, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


# ---------------------------------------------------------------------------
# remark: re-bootstrap five curves from fresh quotes, publish the basis
# ---------------------------------------------------------------------------

class Remark:
    """Bootstrap-bound: cubic five-curve build plus daily basis tables."""

    trace_ops = 6

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        base = seeded_market(rng)
        self.ref = base.reference_date
        self.snapshots = [make_quote_sets(snapshot(base, rng)) for _ in range(POOL)]

    def op(self, i: int):
        state = risk.MarketState(self.ref, self.snapshots[i % POOL])
        curves = state.base_curves()
        tables = [
            basis.basis_term_structure(curves[label], curves["discount"], _months(label))
            for label in FORWARDING
        ]
        return state, curves, tables

    def check(self, i: int, out) -> str | None:
        state, curves, tables = out
        for label in state.build_order:
            chosen = select_pillar_instruments(state.quote_sets[label])
            disc = None if label == "discount" else curves["discount"]
            errs = repricing_errors(chosen, curves[label], disc, _companions(curves, label))
            worst = float(np.max(np.abs(errs)))
            if not worst <= REPRICE_TOL:
                return f"{label} reprices its quotes to {worst:.3e} > {REPRICE_TOL:g}"
        for t in tables:
            if not (np.all(np.isfinite(t.mult)) and np.all(np.isfinite(t.add))):
                return f"{t.forwarding_label} basis table has non-finite entries"
        return None

    def sizes(self) -> dict:
        sets = self.snapshots[0]
        return {"curves": len(sets), "quotes": sum(len(v) for v in sets.values()),
                "basis_tables": len(FORWARDING), "basis_stride_days": 1,
                "snapshots": POOL}


# ---------------------------------------------------------------------------
# book: revalue a mixed vanilla book on prebuilt curve sets
# ---------------------------------------------------------------------------

BOOK_KINDS = ("fra", "swap", "caplet", "cap", "swaption")
SWAP_YEARS = (2, 5, 10, 20, 30)


def book_rows(rng: np.random.Generator, ref: Date, n: int = 200) -> list[dict]:
    """FRAs, swaps, caplets, caps and swaptions cycling over the four
    forwarding curves; the seed draws strikes, notionals and sides."""
    rows = []
    for i in range(n):
        label = FORWARDING[i % 4]
        months = _months(label)
        kind = BOOK_KINDS[(i // 4) % 5]
        slot = i // 20
        strike = float(rng.uniform(0.015, 0.05))
        row = {"id": f"p{i}", "forwarding": label, "notional": float(rng.uniform(1e5, 1e6))}
        if kind == "fra":
            start = add_months(ref, months * (1 + slot))
            row.update(kind="fra", start=start.iso(), end=add_months(start, months).iso(), strike=strike)
        elif kind == "swap":
            end = add_months(ref, 12 * SWAP_YEARS[slot % 5])
            row.update(kind="swap", start=ref.iso(), end=end.iso(), fixed_rate=strike,
                       float_tenor_months=months, payer=bool(rng.integers(2)))
        elif kind == "caplet":
            start = add_months(ref, months * (1 + slot))
            row.update(kind=("caplet", "floorlet")[int(rng.integers(2))], start=start.iso(),
                       end=add_months(start, months).iso(), strike=strike)
        elif kind == "cap":
            start = add_months(ref, months)
            row.update(kind=("cap", "floor")[int(rng.integers(2))], start=start.iso(),
                       end=add_months(start, 12 * (1 + slot % 3)).iso(), strike=strike,
                       tenor_months=months)
        else:
            start = add_months(ref, 12 * (1 + slot % 5))
            row.update(kind="swaption", start=start.iso(),
                       end=add_months(start, 12 * (2, 5, 10)[slot % 3]).iso(), strike=strike,
                       float_tenor_months=months, payer=bool(rng.integers(2)))
        rows.append(row)
    return rows


class Book:
    """Pricer-bound: no bootstrap, many small curve lookups."""

    trace_ops = 6
    curve_sets = 4

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        base = seeded_market(rng)
        ref = base.reference_date
        self.sets = [
            risk.MarketState(ref, make_quote_sets(snapshot(base, rng))).base_curves()
            for _ in range(self.curve_sets)
        ]
        self.vc = VolCorrSpec.flat(float(rng.uniform(0.15, 0.35)),
                                   float(rng.uniform(0.05, 0.25)),
                                   float(rng.uniform(-0.8, 0.8)))
        self.svc = SwapVolCorrSpec.flat(float(rng.uniform(0.15, 0.35)),
                                        float(rng.uniform(0.05, 0.25)),
                                        float(rng.uniform(-0.8, 0.8)))
        self.positions = parse_portfolio(book_rows(rng, ref))
        self._oracle: dict[int, list[float]] = {}

    def op(self, i: int) -> list[float]:
        curves = self.sets[i % self.curve_sets]
        return [
            pricer.price_position(p, curves, volcorr=self.vc, swap_volcorr=self.svc)[0]
            for p in self.positions
        ]

    def reference(self, k: int) -> list[float]:
        if k not in self._oracle:
            self._oracle[k] = [position_pv(p, self.sets[k], self.vc, self.svc) for p in self.positions]
        return self._oracle[k]

    def check(self, i: int, pvs: list[float]) -> str | None:
        ref = self.reference(i % self.curve_sets)
        if len(pvs) != len(ref):
            return f"priced {len(pvs)} positions, expected {len(ref)}"
        for p, pv, want in zip(self.positions, pvs, ref):
            if not abs(pv - want) <= BOOK_PV_TOL * p.spec.notional:
                return f"position {p.id} ({p.kind}) pv {pv!r} != oracle {want!r}"
        return None

    def sizes(self) -> dict:
        kinds: dict[str, int] = {}
        for p in self.positions:
            kinds[p.kind] = kinds.get(p.kind, 0) + 1
        return {"positions": len(self.positions), "curve_sets": self.curve_sets, "kinds": kinds}


# ---------------------------------------------------------------------------
# risk: the CLI delta ladder, hedge ratios and residual report
# ---------------------------------------------------------------------------

RISK_YEARS = (5, 30)


def thin_quotes(sets: dict) -> dict:
    """Each curve keeps its first money-market quote and its 5Y and 30Y
    instruments: a sparse five-curve market (15 quotes) with the full
    dependency graph, since basis swaps still lean on the 6M curve.

    The full 56-quote market makes one ``multicurve risk`` call take
    15-19 s, too long for a run to hold the 20 ops a tail percentile
    needs; thinning keeps every layer on the path and shrinks the op."""
    out = {}
    for label, quotes in sets.items():
        keep = [quotes[0]]
        for q in quotes[1:]:
            years, rem = divmod(
                (q.end.year - q.start.year) * 12 + q.end.month - q.start.month, 12
            )
            if rem == 0 and years in RISK_YEARS:
                keep.append(q)
        out[label] = keep
    return out


def risk_book_rows(rng: np.random.Generator, ref: Date, n: int = 10) -> list[dict]:
    """FRAs and swaps over the four forwarding curves, drawn like the
    acceptance suite's risk-closure book but ten positions long, so that
    a run of 20 ops fits the time the benchmark is given."""
    rows = []
    years = (2, 3, 5, 7, 10, 15, 20, 30)
    for i in range(n):
        label = FORWARDING[i % 4]
        months = _months(label)
        notional = float(rng.uniform(1e5, 1e6) * rng.choice((-1.0, 1.0)))
        rate = float(rng.uniform(0.01, 0.06))
        if i % 3 == 0:
            start = add_months(ref, months * (1 + i % 19))
            rows.append({"id": f"r{i}", "kind": "fra", "forwarding": label,
                         "start": start.iso(), "end": add_months(start, months).iso(),
                         "strike": rate, "notional": notional})
        else:
            end = add_months(ref, 12 * years[i % len(years)])
            rows.append({"id": f"r{i}", "kind": "swap", "forwarding": label,
                         "start": ref.iso(), "end": end.iso(), "fixed_rate": rate,
                         "notional": notional, "float_tenor_months": months})
    return rows


def _read_csv_column(path: str, column: str) -> list[float]:
    with open(path) as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [float(r[column]) for r in rows]


class Risk:
    """End to end through ``multicurve risk``: bump-and-rebuild ladder,
    hedge ratios against every bootstrapping instrument, projection and
    the residual ladder."""

    trace_ops = 4

    def setup(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        base = seeded_market(rng)
        self.ref = base.reference_date
        rows = risk_book_rows(rng, self.ref)
        self.positions = parse_portfolio(rows)
        book_path = os.path.join(workdir, "book.json")
        with open(book_path, "w") as fh:
            json.dump(rows, fh)
        self.ladder_path = os.path.join(workdir, "ladder.csv")
        self.hedge_path = os.path.join(workdir, "hedge.csv")
        self.snapshots, self.argvs = [], []
        for k in range(POOL):
            sets = thin_quotes(make_quote_sets(snapshot(base, rng)))
            argv = ["risk", "--portfolio", book_path, "--interp", "loglinear",
                    "--out", self.ladder_path, "--hedge-out", self.hedge_path]
            for label, quotes in sets.items():
                path = os.path.join(workdir, f"s{k}_{label}.csv")
                with open(path, "w") as fh:
                    write_quotes_csv(quotes, fh)
                argv += ["--quotes", f"{label}={path}"]
            self.snapshots.append(sets)
            self.argvs.append(argv)
        self._oracle: dict[int, float] = {}

    def op(self, i: int):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(self.argvs[i % POOL])
        return rc, err.getvalue()

    def parallel_shift(self, k: int) -> float:
        """Book PV change per bp with every quote moved together."""
        if k not in self._oracle:
            sets = self.snapshots[k]
            state = risk.MarketState(
                self.ref, sets,
                config=BootstrapConfig(interpolation=InterpScheme.LOG_LINEAR_DISCOUNT),
            )

            def pv(shift):
                curves = state.build({
                    (label, j): bump_quote(q, shift)
                    for label, quotes in sets.items() for j, q in enumerate(quotes)
                })
                return sum(pricer.price_position(p, curves)[0] for p in self.positions)

            self._oracle[k] = (pv(1e-4) - pv(-1e-4)) / 2.0
        return self._oracle[k]

    def check(self, i: int, out) -> str | None:
        rc, err = out
        if rc != 0:
            return f"risk exited {rc}: {err.strip()[-300:]}"
        if "info:conservation:" not in err:
            return "no info:conservation line"
        deltas = _read_csv_column(self.ladder_path, "delta_per_bp")
        residuals = _read_csv_column(self.hedge_path, "residual_delta_per_bp")
        # the next op must write its own reports, never pass on these
        os.remove(self.ladder_path)
        os.remove(self.hedge_path)
        if not all(map(math.isfinite, deltas + residuals)):
            return "non-finite delta or residual"
        gross = sum(abs(d) for d in deltas)
        res = sum(abs(r) for r in residuals)
        if not res < HEDGE_RESIDUAL_TOL * gross:
            return f"hedge residual {res:.3e} not below {HEDGE_RESIDUAL_TOL:g} x gross {gross:.6g}"
        shift = self.parallel_shift(i % POOL)
        if not abs(sum(deltas) - shift) <= PARALLEL_TOL * gross:
            return f"ladder total {sum(deltas):.10g} != parallel shift {shift:.10g}"
        return None

    def sizes(self) -> dict:
        sets = self.snapshots[0]
        return {"curves": len(sets), "quotes": sum(len(v) for v in sets.values()),
                "positions": len(self.positions), "interp": "loglinear",
                "hedges": "all", "snapshots": POOL}


WORKLOADS = {"remark": Remark, "book": Book, "risk": Risk}
