"""Bit-for-bit parity of the package's outputs between two checkouts.

    python tools/parity.py digest OUT.json [--root CHECKOUT]
    python tools/parity.py compare PARENT.json CHANGE.json
    python tools/parity.py faults OUT.json [--root CHECKOUT] [--seed 1]

``digest`` imports ``multicurve`` from ``src/`` of the checkout (the one
holding this file by default) and the benchmark's input generators from
its ``perfbench/``, and writes every float below as a hex string
(``float.hex``), so a digest records each value to the last bit:

* the pillar discount factors of the five-curve market built from the
  first ``remark`` snapshot of seeds 1-3, under each of the three
  interpolation schemes;
* on the seed-1 market under each scheme, every quote's
  ``fair_quote``, its ``instrument_pv`` struck 25 bp off its quote and
  its ``repricing_errors`` entry;
* the four daily basis tables (1M/3M/6M/12M against discounting) of
  one ``remark`` op, seed 1;
* the pillar discount factors and the four basis tables of ``remark``
  ops 0-7 of seed 1, run one after another in the same process, so
  that every op after the first reads the compiled quote sets and day
  grids its predecessors left in the package's memos;
* every ``price_position`` row, PV and fair rate or premium, of the
  ``book`` workload's 200 positions (seed 1) on each of its four curve
  sets;
* a ``Book`` of those positions under four pricing settings (no
  adjustment, quanto-adjusted, adjusted with ``paper_literal``, single
  curve): its value and ``Book.gradient`` on the first curve set, and
  its exact pillar gradient and quote deltas on the seed-1 market;
* that market's quote Jacobian J and cond(J), and each curve's hedge
  weights: ``hedge_ratios``' own delta of every quote of its set;
* the ladder and hedge CSVs of one ``risk`` op (seed 1) through
  ``multicurve risk``.

``compare`` matches two digests float by float and prints the number
equal and differing, the worst absolute and relative gaps and the first
differing names; it exits 1 when any float differs or is missing from
either side.

``faults`` records the minor page faults (``ru_minflt`` of this
process) and the wall time of each op of a plain ``remark`` loop, with
the protocol beside them: the seed, ``WARM_UP`` ops run first and not
recorded, then ``--ops`` ops one after another, no output check between
them, the op's result dropped before the next starts.  A fault count is
only comparable with another taken under the same protocol.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile

SEEDS = (1, 2, 3)
REMARK_OPS = 8  # remark ops of seed 1 digested in one process
WARM_UP = 20    # faults: ops run before the recorded ones


def _floats(values) -> list[str]:
    return [float(v).hex() for v in values]


def _csv_floats(path: str) -> dict[str, list[str]]:
    """Every column of a report CSV that holds numbers, by header."""
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    out = {}
    for name in rows[0] if rows else ():
        try:
            out[name] = _floats(float(r[name]) for r in rows)
        except ValueError:
            continue
    return out


def digest(root: str) -> dict[str, list[str]]:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import bench_workloads as bw
    import numpy as np

    from multicurve import BootstrapConfig, InterpScheme, delta_ladder, hedge_ratios
    from multicurve.bootstrap import (
        bump_quote, fair_quote, instrument_pv, repricing_errors,
    )
    from multicurve.pricer import Book, price_position
    from multicurve.risk import MarketState, pricing_curves

    out: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as work:
        remark = {}
        for seed in SEEDS:
            remark[seed] = bw.Remark()
            remark[seed].setup(seed, work)
            wl = remark[seed]
            for scheme in InterpScheme:
                config = BootstrapConfig(interpolation=scheme)
                curves = MarketState(wl.ref, wl.snapshots[0], config).base_curves()
                for label, curve in curves.items():
                    out[f"pillars/seed{seed}/{scheme.value}/{label}"] = _floats(curve.pillar_dfs)
                if seed != 1:
                    continue
                for label, quotes in wl.snapshots[0].items():
                    on = (curves[label], *pricing_curves(label, curves))
                    name = f"quotes/{scheme.value}/{label}"
                    out[f"{name}/fair"] = _floats(fair_quote(q, *on) for q in quotes)
                    out[f"{name}/pv"] = _floats(
                        instrument_pv(q, bump_quote(q, 25e-4).quote, *on) for q in quotes
                    )
                    out[f"{name}/repricing"] = _floats(repricing_errors(quotes, *on))
        state, _, tables = remark[1].op(0)
        for table in tables:
            for field in ("mult", "add", "fwd_disc"):
                out[f"basis/{table.forwarding_label}/{field}"] = _floats(getattr(table, field))
        for i in range(REMARK_OPS):
            _, curves, tables = remark[1].op(i)
            for label, curve in curves.items():
                out[f"remark/op{i}/pillars/{label}"] = _floats(curve.pillar_dfs)
            for table in tables:
                for field in ("mult", "add", "fwd_disc"):
                    out[f"remark/op{i}/basis/{table.forwarding_label}/{field}"] = _floats(
                        getattr(table, field)
                    )

        book = bw.Book()
        book.setup(1, work)
        for k, curves in enumerate(book.sets):
            for pos in book.positions:
                row = price_position(pos, curves, volcorr=book.vc, swap_volcorr=book.svc)
                out[f"book/set{k}/{pos.id}"] = _floats(row)

        settings = {
            "plain": {},
            "adjusted": {"volcorr": book.vc, "swap_volcorr": book.svc},
            "paper_literal": {"volcorr": book.vc, "swap_volcorr": book.svc,
                              "paper_literal": True},
            "single_curve": {"single_curve": True},
        }
        for name, kwargs in settings.items():
            compiled = Book(book.positions, **kwargs)
            out[f"Book/{name}/value"] = _floats([compiled(book.sets[0])])
            pv, reads = compiled.gradient(book.sets[0])
            out[f"Book/{name}/gradient_pv"] = _floats([pv])
            for label, (q, g) in sorted(reads.items()):
                out[f"Book/{name}/gradient/{label}/t"] = _floats(q.t)
                out[f"Book/{name}/gradient/{label}/g"] = _floats(g)
            out[f"Book/{name}/pillar_gradient"] = _floats(state._book_gradient(compiled))
            out[f"Book/{name}/deltas"] = _floats(e.delta_per_bp for e in delta_ladder(state, compiled))

        matrix, _, cond, _ = state._jacobian()
        out["risk/J"] = _floats(np.ravel(matrix))
        out["risk/cond"] = _floats([cond])
        hedges = [(label, i) for label in state.build_order
                  for i in range(len(state.quote_sets[label]))]
        for row in hedge_ratios(state, Book(book.positions), hedges):
            out.setdefault(f"hedge/{row.set_label}/own", []).extend(
                _floats([row.own_delta_per_bp])
            )

        risk = bw.Risk()
        risk.setup(1, work)
        rc, err = risk.op(0)
        if rc != 0:
            raise SystemExit(f"multicurve risk exited {rc}: {err.strip()[-300:]}")
        for kind, path in (("ladder", risk.ladder_path), ("hedge", risk.hedge_path)):
            for column, values in _csv_floats(path).items():
                out[f"risk/{kind}/{column}"] = values
    return out


def faults(root: str, seed: int, ops: int) -> dict:
    """Minor faults and milliseconds of each op of a plain ``remark``
    loop, with its protocol."""
    import platform
    import resource
    import statistics
    from time import perf_counter

    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import bench_workloads as bw
    import numpy as np

    def minflt() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    counts, ms = [], []
    with tempfile.TemporaryDirectory() as work:
        wl = bw.Remark()
        wl.setup(seed, work)
        for i in range(WARM_UP):
            wl.op(i)
        for i in range(WARM_UP, WARM_UP + ops):
            f0, t0 = minflt(), perf_counter()
            out = wl.op(i)
            t1, f1 = perf_counter(), minflt()
            del out
            counts.append(f1 - f0)
            ms.append((t1 - t0) * 1e3)
    return {
        "protocol": {
            "workload": "remark", "seed": seed, "warm_up_ops": WARM_UP, "ops": ops,
            "check_between_ops": False, "counter": "getrusage(RUSAGE_SELF).ru_minflt",
            "python": platform.python_version(), "numpy": np.__version__,
        },
        "faults_per_op": counts,
        "ms_per_op": [round(x, 4) for x in ms],
        "median_faults": statistics.median(counts),
        "median_ms": round(statistics.median(ms), 4),
    }


def compare(a: dict[str, list[str]], b: dict[str, list[str]]) -> int:
    equal = differ = missing = 0
    worst_abs = worst_rel = 0.0
    names = []
    for name in sorted(set(a) | set(b)):
        xs, ys = a.get(name), b.get(name)
        if xs is None or ys is None or len(xs) != len(ys):
            missing += max(len(xs or ()), len(ys or ()))
            names.append(f"{name} (missing or resized)")
            continue
        for i, (x, y) in enumerate(zip(xs, ys)):
            if x == y:
                equal += 1
                continue
            differ += 1
            names.append(f"{name}[{i}]")
            fx, fy = float.fromhex(x), float.fromhex(y)
            gap = abs(fx - fy)
            if math.isfinite(gap):
                worst_abs = max(worst_abs, gap)
                scale = max(abs(fx), abs(fy))
                worst_rel = max(worst_rel, gap / scale if scale else 0.0)
    print(f"items: {equal + differ + missing} floats in {len(set(a) | set(b))} arrays")
    print(f"equal: {equal}  differing: {differ}  missing: {missing}")
    print(f"worst gap: abs {worst_abs:.3e}  rel {worst_rel:.3e}")
    for name in names[:20]:
        print(f"differs: {name}")
    return 1 if differ or missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    d = sub.add_parser("digest", help="write a digest of this checkout's outputs")
    d.add_argument("out")
    d.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    c = sub.add_parser("compare", help="compare two digests float by float")
    c.add_argument("a")
    c.add_argument("b")
    f = sub.add_parser("faults", help="record faults per op of a plain remark loop")
    f.add_argument("out")
    f.add_argument("--root", default=d.get_default("root"))
    f.add_argument("--seed", type=int, default=1)
    f.add_argument("--ops", type=int, default=200)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.mode == "faults":
        out = faults(os.path.abspath(args.root), args.seed, args.ops)
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
        print(f"remark seed {args.seed}: median {out['median_faults']} minor faults, "
              f"{out['median_ms']} ms per op over {args.ops} ops; wrote {args.out}")
        return 0
    if args.mode == "digest":
        out = digest(os.path.abspath(args.root))
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=0, sort_keys=True)
        print(f"wrote {sum(map(len, out.values()))} floats in {len(out)} arrays to {args.out}")
        return 0
    with open(args.a) as fa, open(args.b) as fb:
        return compare(json.load(fa), json.load(fb))


if __name__ == "__main__":
    sys.exit(main())
