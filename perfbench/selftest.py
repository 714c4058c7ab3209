"""Show that every workload's output check catches a wrong answer.

Each case takes a correct op output, breaks it in one way (a pillar
discount factor nudged, a position PV off by a fraction of a basis
point of notional, a failed CLI exit, a ladder delta or hedge residual
moved) and requires the check to reject it.
"""

from __future__ import annotations

import math

from multicurve import YieldCurve, pricer

from bench_workloads import Book, Remark, Risk, _read_csv_column, clear_caches


def _nudged(curve: YieldCurve, k: int, rel: float) -> YieldCurve:
    dfs = list(curve.pillar_dfs)
    dfs[k] *= 1.0 + rel
    return YieldCurve(curve.reference_date, list(zip(curve.pillar_dates, dfs)),
                      curve.interpolation, curve.daycount, curve.tenor_label)


def _rewrite_column(path: str, column: str, fn) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[head].split(",").index(column)
    for i in range(head + 1, len(lines)):
        cells = lines[i].split(",")
        cells[col] = repr(fn(i - head - 1, float(cells[col])))
        lines[i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _remark_cases(wl: Remark):
    state, curves, tables = wl.op(1)
    yield "remark: correct output passes", (state, curves, tables), False
    bad = dict(curves, fwd_6M=_nudged(curves["fwd_6M"], 3, 1e-8))
    yield "remark: pillar DF nudged by 1e-8", (state, bad, tables), True
    tables[2].add[100] = math.nan
    yield "remark: NaN in a basis table", (state, curves, tables), True


def _book_cases(wl: Book):
    pvs = wl.op(1)
    yield "book: correct output passes", pvs, False
    wrong = list(pvs)
    wrong[7] += 1e-6 * wl.positions[7].spec.notional
    yield "book: one PV off by 1e-6 of notional", wrong, True
    k = 1 % wl.curve_sets
    curves = dict(wl.sets[k], discount=_nudged(wl.sets[k]["discount"], 4, 1e-9))
    repriced = [pricer.price_position(p, curves, volcorr=wl.vc, swap_volcorr=wl.svc)[0]
                for p in wl.positions]
    yield "book: priced on a curve with one DF nudged by 1e-9", repriced, True


def _risk_cases(wl: Risk):
    rc, err = wl.op(1)
    yield "risk: correct output passes", (rc, err), False
    yield "risk: non-zero exit", (3, err), True
    yield "risk: no conservation line", (0, err.replace("info:conservation", "info:other")), True
    wl.op(1)
    deltas = [abs(d) for d in _read_csv_column(wl.ladder_path, "delta_per_bp")]
    big = deltas.index(max(deltas))
    _rewrite_column(wl.ladder_path, "delta_per_bp", lambda j, d: d * 1.001 if j == big else d)
    yield "risk: the largest ladder delta 0.1% off", (rc, err), True
    wl.op(1)
    _rewrite_column(wl.hedge_path, "residual_delta_per_bp", lambda j, r: 1.0 if j == 2 else r)
    yield "risk: one hedge residual of 1 per bp", (rc, err), True


def run_self_test(seed: int, workdir: str) -> int:
    missed = 0
    for cls, cases in ((Remark, _remark_cases), (Book, _book_cases), (Risk, _risk_cases)):
        clear_caches()
        wl = cls()
        wl.setup(seed, workdir)
        for name, out, should_fail in cases(wl):
            err = wl.check(1, out)
            ok = bool(err) == should_fail
            missed += not ok
            print(f"{'ok ' if ok else 'BAD'} {name}: {err or 'accepted'}")
    print(f"self-test: {missed} check(s) misjudged")
    return 1 if missed else 0
