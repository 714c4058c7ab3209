"""Compare two sets of saved benchmark runs, metric by metric.

    python3 perfbench/compare.py --base parent/*.out --new change/*.out

Each file holds the standard output of one ``run.py`` call.  Runs are
grouped by workload and metric; each side's median and quartiles are
printed with the ratio of the medians, and an end-to-end metric that
got worse by more than its bound in ``BENCHMARK.json`` is flagged.
Runs that differ in kernel backend or in Python, numpy or scipy
version measure different programs, so the comparison is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ENV_KEYS = ("kernel_backend", "python", "numpy", "scipy", "trace")


def load(paths: list[str]):
    runs = defaultdict(lambda: defaultdict(list))
    envs = set()
    for path in paths:
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
        envs.add(tuple(env[k] for k in ENV_KEYS))
        for name, m in json.loads(lines[-1])["metrics"].items():
            runs[env["workload"]][name].append(m["value"])
    return runs, envs


def _stats(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, base_env = load(args.base)
    new, new_env = load(args.new)
    if len(base_env | new_env) != 1:
        print(f"error: runs differ in {ENV_KEYS}: {sorted(base_env | new_env)}", file=sys.stderr)
        return 2
    spec_path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    worse = 0
    for workload in sorted(base.keys() & new.keys()):
        for name in sorted(base[workload].keys() & new[workload].keys()):
            b, n = base[workload][name], new[workload][name]
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = mn / mb if mb else float("nan")
            flag = ""
            if name in bounds:
                bound, better = bounds[name]
                if (ratio > 1 + bound) if better == "lower" else (ratio < 1 - bound):
                    flag = "  WORSE BEYOND BOUND"
                    worse += 1
            print(f"{workload:7} {name:40} base {_stats(b):36} new {_stats(n):36} x{ratio:.4f}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
