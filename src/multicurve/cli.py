"""Batch command-line driver.

Subcommands cover the full pipeline: ``bootstrap`` quote CSVs into
curve JSON files, ``basis`` tables between two curves, ``quanto``
scenario grids, ``price`` for portfolio valuation, and ``risk`` for
delta ladders and hedge reports.

Outputs are byte-deterministic for identical inputs.  Every CSV starts
with a provenance comment naming the tool version, the command, and a
hash prefix of the input files.  Exit codes: 0 on success, 2 for input
problems, 3 for numerical failures; diagnostics go to stderr as
``error:<category>:<message>`` lines.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .basis import BASIS_CSV_HEADER, basis_term_structure, write_basis_csv
from .bootstrap import (
    BootstrapConfig,
    BootstrapError,
    select_pillar_instruments,
    read_quotes_csv,
    repricing_errors,
)
from .curve import TENOR_LABELS, YieldCurve
from .interp import InterpScheme
from .pricer import PRICE_CSV_HEADER, load_portfolio, price_position
from .quanto import (
    InfeasibleVolError,
    SwapVolCorrSpec,
    VolCorrSpec,
    load_volcorr,
    quanto_mult,
)
from .risk import (
    MarketState,
    delta_ladder,
    hedge_ratios,
    hedged_residual_ladder,
    pricing_curves,
    project_deltas,
    write_hedge_csv,
    write_ladder_csv,
)
from .timegrid import Date

__all__ = ["main", "build_parser"]

QUANTO_CSV_HEADER = "rho,sigma_f,sigma_X,QA_mult,QA_add_bp"


class InputError(Exception):
    pass


def _parse_labelled(pairs: list[str] | None, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs or []:
        label, sep, path = item.partition("=")
        if not sep or not label or not path:
            raise InputError(f"{what} must look like LABEL=PATH, got {item!r}")
        if label not in TENOR_LABELS:
            raise InputError(f"unknown curve label {label!r} in {what}")
        if label in out:
            raise InputError(f"duplicate label {label!r} in {what}")
        out[label] = path
    return out


def _inputs_hash(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        try:
            with open(p, "rb") as fh:
                h.update(fh.read())
        except OSError as exc:
            raise InputError(f"cannot read {p}: {exc}") from exc
    return h.hexdigest()[:12]


def _provenance(command: str, paths: list[str]) -> str:
    return f"multicurve-pricer v{__version__}, {command}, inputs sha256:{_inputs_hash(paths)}"


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _load_curves(mapping: dict[str, str]) -> dict[str, YieldCurve]:
    curves = {}
    for label, path in mapping.items():
        try:
            curves[label] = YieldCurve.load(path)
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
            raise InputError(f"bad curve file {path}: {exc}") from exc
    return curves


def _load_quote_sets(mapping: dict[str, str]):
    sets = {}
    for label, path in mapping.items():
        try:
            sets[label] = read_quotes_csv(path)
        except (OSError, ValueError, KeyError) as exc:
            raise InputError(f"bad quotes file {path}: {exc}") from exc
        if not sets[label]:
            raise InputError(f"quotes file {path} contains no instruments")
    return sets


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def cmd_bootstrap(args) -> int:
    quote_paths = _parse_labelled(args.quotes, "--quotes")
    if "discount" not in quote_paths:
        raise InputError("bootstrap needs a discount=PATH quote set")
    sets = _load_quote_sets(quote_paths)
    ref = min(q.start for quotes in sets.values() for q in quotes)
    if args.reference_date:
        ref = Date.parse(args.reference_date)
    config = BootstrapConfig(interpolation=args.interp)
    state = MarketState(ref, sets, config=config)
    curves = state.base_curves()
    os.makedirs(args.out, exist_ok=True)
    for label in sorted(curves):
        curves[label].save(os.path.join(args.out, f"{label}.json"))
    for label in state.build_order:
        chosen = select_pillar_instruments(sets[label])
        errs = repricing_errors(chosen, curves[label], *pricing_curves(label, curves))
        for q, e in zip(chosen, errs):
            print(
                f"info:repricing:{label}:{q.kind.value}:{q.end.iso()}:{e:+.3e}",
                file=sys.stderr,
            )
    return 0


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def _total_variation(values: np.ndarray) -> float:
    return float(np.sum(np.abs(np.diff(values))))


def cmd_basis(args) -> int:
    curve_paths = _parse_labelled(args.curves, "--curves")
    curves = _load_curves(curve_paths)
    for needed in (args.forwarding, args.discounting):
        if needed not in curves:
            raise InputError(f"no --curves entry for label {needed!r}")
    paths = [curve_paths[args.forwarding], curve_paths[args.discounting]]
    fwd, disc = curves[args.forwarding], curves[args.discounting]
    table = basis_term_structure(fwd, disc, args.tenor_months, args.stride_days)
    extra = []
    if args.alt_curves:
        alt_paths = _parse_labelled(args.alt_curves, "--alt-curves")
        alt = _load_curves(alt_paths)
        for needed in (args.forwarding, args.discounting):
            if needed not in alt:
                raise InputError(f"no --alt-curves entry for label {needed!r}")
        paths += [alt_paths[args.forwarding], alt_paths[args.discounting]]
        alt_table = basis_term_structure(
            alt[args.forwarding], alt[args.discounting],
            args.tenor_months, args.stride_days,
        )
        extra = [
            f"# main_total_variation_add={_total_variation(table.add):.10g}",
            f"# alt_total_variation_add={_total_variation(alt_table.add):.10g}",
        ]
    with _open_out(args.out) as fh:
        fh.write(f"# {_provenance('basis', paths)}\n")
        for line in extra:
            fh.write(line + "\n")
        write_basis_csv(table, fh)
    return 0


# ---------------------------------------------------------------------------
# quanto scenarios
# ---------------------------------------------------------------------------

VOL_COMBOS = ((0.2, 0.2), (0.3, 0.2), (0.3, 0.3))


def cmd_quanto(args) -> int:
    if args.forward <= 0.0 or args.expiry <= 0.0:
        raise InputError("forward and expiry must be positive")
    rhos = [round(-1.0 + 0.1 * i, 1) for i in range(21)]
    with _open_out(args.out) as fh:
        fh.write(f"# {_provenance('quanto', [])}\n")
        fh.write(QUANTO_CSV_HEADER + "\n")
        for sigma_f, sigma_x in VOL_COMBOS:
            for rho in rhos:
                spec = VolCorrSpec.flat(sigma_f, sigma_x, rho)
                qa = quanto_mult(spec, 0.0, args.expiry)
                add_bp = args.forward * (qa - 1.0) * 1e4
                fh.write(
                    f"{rho:.2f},{sigma_f:.2f},{sigma_x:.2f},"
                    f"{qa:.12g},{add_bp:.8f}\n"
                )
    return 0


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------

def _load_vol_args(args) -> tuple[VolCorrSpec | None, SwapVolCorrSpec | None]:
    volcorr = None
    swap_volcorr = None
    if getattr(args, "volcorr", None):
        spec = load_volcorr(args.volcorr)
        if not isinstance(spec, VolCorrSpec):
            raise InputError("--volcorr file holds a swap-rate spec")
        volcorr = spec
    if getattr(args, "swap_volcorr", None):
        spec = load_volcorr(args.swap_volcorr)
        if not isinstance(spec, SwapVolCorrSpec):
            raise InputError("--swap-volcorr file holds a forward-rate spec")
        swap_volcorr = spec
    return volcorr, swap_volcorr


def _load_positions(path):
    try:
        return load_portfolio(path)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"bad portfolio file {path}: {exc}") from exc


def cmd_price(args) -> int:
    curve_paths = _parse_labelled(args.curves, "--curves")
    if "discount" not in curve_paths:
        raise InputError("price needs a discount=PATH curve")
    curves = _load_curves(curve_paths)
    positions = _load_positions(args.portfolio)
    volcorr, swap_volcorr = _load_vol_args(args)
    paths = [args.portfolio] + [curve_paths[k] for k in sorted(curve_paths)]
    if args.volcorr:
        paths.append(args.volcorr)
    if args.swap_volcorr:
        paths.append(args.swap_volcorr)
    with _open_out(args.out) as fh:
        fh.write(f"# {_provenance('price', paths)}\n")
        fh.write(PRICE_CSV_HEADER + "\n")
        for pos in positions:
            if not args.single_curve and pos.forwarding not in curves:
                raise InputError(
                    f"position {pos.id} needs curve {pos.forwarding!r}"
                )
            pv, fair = price_position(
                pos,
                curves,
                volcorr=volcorr,
                swap_volcorr=swap_volcorr,
                single_curve=args.single_curve,
                paper_literal=args.paper_literal_black,
            )
            fh.write(f"{pos.id},{pos.kind},{pv:.12g},{fair:.12g}\n")
    return 0


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------

def _resolve_hedges(state: MarketState, specs: list[str] | None):
    if not specs:
        return [
            (label, i)
            for label in state.build_order
            for i in range(len(state.quote_sets[label]))
        ]
    out = []
    for item in specs:
        label, sep, date_s = item.partition(":")
        if not sep:
            raise InputError(f"--hedge must look like LABEL:YYYY-MM-DD, got {item!r}")
        if label not in state.quote_sets:
            raise InputError(f"no quote set {label!r} for hedge {item!r}")
        end = Date.parse(date_s)
        for i, q in enumerate(state.quote_sets[label]):
            if q.end == end:
                out.append((label, i))
                break
        else:
            raise InputError(f"no quote maturing {date_s} in set {label!r}")
    return out


def cmd_risk(args) -> int:
    quote_paths = _parse_labelled(args.quotes, "--quotes")
    if "discount" not in quote_paths:
        raise InputError("risk needs a discount=PATH quote set")
    sets = _load_quote_sets(quote_paths)
    positions = _load_positions(args.portfolio)
    volcorr, swap_volcorr = _load_vol_args(args)
    ref = min(q.start for quotes in sets.values() for q in quotes)
    if args.reference_date:
        ref = Date.parse(args.reference_date)
    config = BootstrapConfig(interpolation=args.interp)
    state = MarketState(ref, sets, config=config)

    def pv_fn(curves):
        total = 0.0
        for pos in positions:
            pv, _ = price_position(
                pos,
                curves,
                volcorr=volcorr,
                swap_volcorr=swap_volcorr,
                single_curve=args.single_curve,
                paper_literal=args.paper_literal_black,
            )
            total += pv
        return total

    paths = [args.portfolio] + [quote_paths[k] for k in sorted(quote_paths)]
    entries = delta_ladder(state, pv_fn)
    with _open_out(args.out) as fh:
        write_ladder_csv(entries, fh, comment=_provenance("risk", paths))
    # the hedge functions reuse the ladder's deltas: these are final
    stats = state.risk_stats()
    print(
        f"info:risk:pillars={stats['pillars']}:"
        f"book_valuations={stats['book_valuations']}:cond={stats['cond']:.6g}",
        file=sys.stderr,
    )

    if args.hedge_out is None:
        return 0
    locations = _resolve_hedges(state, args.hedge)
    rows = hedge_ratios(state, pv_fn, locations)
    clean = [e for e in entries if e.error is None]
    hedge_times = sorted({state.time(r.quote.end) for r in rows})
    proj = project_deltas(
        [e.time for e in clean],
        [e.delta_per_bp for e in clean],
        hedge_times,
    )
    if proj.total_projected != proj.total_input:
        raise BootstrapError("projection failed to conserve total delta")
    print(
        f"info:conservation:total_book={proj.total_input:.12g}:"
        f"total_projected={proj.total_projected:.12g}",
        file=sys.stderr,
    )
    residual_entries = hedged_residual_ladder(state, pv_fn, rows)
    lookup = {}
    for e in residual_entries:
        for loc in e.locations:
            lookup[loc] = e.delta_per_bp
    residuals = {
        r.name: lookup.get((r.set_label, r.index), float("nan")) for r in rows
    }
    with _open_out(args.hedge_out) as fh:
        write_hedge_csv(rows, fh, residuals, comment=_provenance("risk", paths))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="multicurve",
        description="multi-curve bootstrapping, pricing and risk",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_interp(sp):
        sp.add_argument(
            "--interp", choices=sorted(s.value for s in InterpScheme), default="cubic",
            help="interpolation scheme for bootstrapped curves",
        )

    sp = sub.add_parser("bootstrap", help="build curves from quote CSVs")
    sp.add_argument("--quotes", action="append", metavar="LABEL=PATH", required=True)
    sp.add_argument("--out", required=True, help="output directory for curve JSON")
    sp.add_argument("--reference-date", default=None)
    add_interp(sp)
    sp.set_defaults(func=cmd_bootstrap)

    sp = sub.add_parser("basis", help="sample the basis between two curves")
    sp.add_argument("--curves", action="append", metavar="LABEL=PATH", required=True)
    sp.add_argument("--alt-curves", action="append", metavar="LABEL=PATH")
    sp.add_argument("--forwarding", default="fwd_6M")
    sp.add_argument("--discounting", default="discount")
    sp.add_argument("--tenor-months", type=int, default=6)
    sp.add_argument("--stride-days", type=int, default=1)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("quanto", help="scenario grid of forward adjustments")
    sp.add_argument("--forward", type=float, default=0.04)
    sp.add_argument("--expiry", type=float, default=0.5)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_quanto)

    sp = sub.add_parser("price", help="value a portfolio on given curves")
    sp.add_argument("--portfolio", required=True)
    sp.add_argument("--curves", action="append", metavar="LABEL=PATH", required=True)
    sp.add_argument("--volcorr", default=None)
    sp.add_argument("--swap-volcorr", default=None)
    sp.add_argument("--single-curve", action="store_true")
    sp.add_argument("--paper-literal-black", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_price)

    sp = sub.add_parser("risk", help="delta ladder and hedge report")
    sp.add_argument("--portfolio", required=True)
    sp.add_argument("--quotes", action="append", metavar="LABEL=PATH", required=True)
    sp.add_argument("--reference-date", default=None)
    sp.add_argument("--hedge", action="append", metavar="LABEL:DATE")
    sp.add_argument("--hedge-out", default=None)
    sp.add_argument("--volcorr", default=None)
    sp.add_argument("--swap-volcorr", default=None)
    sp.add_argument("--single-curve", action="store_true")
    sp.add_argument("--paper-literal-black", action="store_true")
    sp.add_argument("--out", default=None)
    add_interp(sp)
    sp.set_defaults(func=cmd_risk)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing keeps no state on the parser
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error:input:{exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error:input:{exc}", file=sys.stderr)
        return 2
    except (BootstrapError, InfeasibleVolError, ZeroDivisionError) as exc:
        print(f"error:numerical:{exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error:input:{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
