"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload remark --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload risk --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --self-test

Run from the root of a checkout: the package is imported from ``src/``
of that checkout and from nowhere else.  With ``--trace 0`` the last
stdout line is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Earlier
lines (``env``, ``info``) record the environment, the op sizes and the
tail percentile.  ``--self-test`` feeds every workload's output check
deliberately wrong answers and exits non-zero unless each is caught.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 3     # setup_s is the median of this many cold set-ups
MIN_OPS = 20       # enough ops for a tail percentile with ten ops beyond it
HARD_CAP_S = 150.0  # stop adding ops after this long, whatever MIN_OPS says


def _import_package():
    """Import ``multicurve`` from this checkout with BLAS pinned to one thread."""
    if not os.path.isfile(os.path.join(SRC, "multicurve", "__init__.py")):
        raise SystemExit(f"error: no package sources under {SRC}; run from a checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import multicurve

    if not os.path.abspath(multicurve.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported multicurve from {multicurve.__file__}, not {SRC}")
    return multicurve


def _environment(mc, args, sizes: dict) -> dict:
    import numpy
    import scipy

    return {
        "kernel_backend": mc.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_sizes": sizes,
    }


def _setup(cls, seed: int, workdir: str):
    """Cold set-up: empty caches, generate inputs, run and check op 0."""
    from bench_workloads import clear_caches

    clear_caches()
    t0 = perf_counter()
    wl = cls()
    wl.setup(seed, workdir)
    out = wl.op(0)
    elapsed = perf_counter() - t0
    err = wl.check(0, out)
    if err:
        raise RuntimeError(f"warm-up op failed its check: {err}")
    return wl, elapsed


class _Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, wl, i: int, tracer=None):
        """Time op ``i`` (traced, if a tracer is given) and check it
        untraced; the op time, or None on failure."""
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.active = True
            try:
                t0 = perf_counter()
                out = wl.op(i)
                dt = perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.active = False
            err = wl.check(i, out)
        except Exception:  # a failed op is counted, the run goes on
            traceback.print_exc()
            err, dt = "raised", None
        if err:
            self.failed += 1
            print(f"info op {i} failed: {err}", file=sys.stderr)
            return None
        return dt


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten ops beyond it."""
    s = sorted(times)
    if len(s) < 20:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def run_timed(cls, args, workdir: str):
    setups = []
    for _ in range(SETUP_REPS):
        wl, elapsed = _setup(cls, args.seed, workdir)
        setups.append(elapsed)
    counter, times = _Counter(), []
    start = perf_counter()
    last = 0.0
    i = 1
    while True:
        elapsed = perf_counter() - start
        if elapsed >= HARD_CAP_S:
            break
        if counter.attempted >= MIN_OPS and elapsed + last > args.seconds:
            break
        t0 = perf_counter()
        dt = counter.run(wl, i)
        last = perf_counter() - t0
        if dt is not None:
            times.append(dt)
        i += 1
    if not times:
        raise RuntimeError("no op completed")
    tail, pct = _tail(times)
    # The median and the mean rate are printed but not declared metrics:
    # on a host whose speed flips by 20-30% for seconds at a time, where
    # they land depends on how much of a run fell in the fast state.
    print(f"info ops={len(times)} op_ms_p50={1e3 * statistics.median(times):.3f}"
          f" ops_per_s={len(times) / sum(times):.4f} op_ms_tail_percentile={pct:.1f}"
          f"{'' if len(times) >= 20 else ' (fewer than 20 ops: tail is the max)'}"
          f" fail_ratio={counter.failed / counter.attempted:g}"
          f" setup_reps={[round(s, 4) for s in setups]}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return wl, counter, metrics


def run_traced(cls, args, workdir: str):
    from layer_trace import Tracer

    wl, _ = _setup(cls, args.seed, workdir)
    counter = _Counter()
    ops = range(1, wl.trace_ops + 1)
    plain = [counter.run(wl, i) for i in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [counter.run(wl, i, tracer) for i in ops]
    finally:
        tracer.uninstall()
    for note in tracer.notes:
        print(f"info trace: {note}")
    metrics = tracer.metrics(len(ops))
    pairs = [(t, p) for t, p in zip(traced, plain) if t is not None and p is not None]
    metrics["trace.overhead_ratio"] = (
        sum(t for t, _ in pairs) / sum(p for _, p in pairs) if pairs else 0.0, "ratio")
    print(f"info traced_ops={len(ops)} (per-layer values are per op)")
    return wl, counter, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("remark", "book", "risk"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    mc = _import_package()
    if args.self_test:
        from selftest import run_self_test

        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
            return run_self_test(args.seed, workdir)
    if args.workload is None:
        p.error("--workload is required")
    from bench_workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        runner = run_traced if args.trace else run_timed
        wl, counter, metrics = runner(cls, args, workdir)
    print("env " + json.dumps(_environment(mc, args, wl.sizes()), sort_keys=True))
    print(json.dumps({
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
