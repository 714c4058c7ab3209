"""Outside-in per-layer tracing of ``multicurve``.

Each public entry point in ``ENTRY_POINTS`` is wrapped in every
``multicurve`` module namespace that holds it (``risk`` imports
``bootstrap_curve`` by name, ``pricer`` imports ``generate_schedule``
and ``quanto_mult``, ...); methods are wrapped on their class.  The
package itself is not modified.  A wrapped call records its count and
wall time; self time is that time minus the time spent in wrapped
calls nested inside it.  ``brentq`` as seen from ``multicurve.bootstrap``
is counted rather than timed, together with the residual evaluations
it makes, so the solver's Python overhead stays in the self time of
``bootstrap_curve``.

An entry point that no longer exists reads as zero calls and adds a
note; it never stops a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

# (span, module, attribute path, extra counter)
ENTRY_POINTS = [
    ("kernels", "multicurve._kernels", "eval_log_cubic", "points"),
    ("kernels", "multicurve._kernels", "eval_log_linear", "points"),
    ("kernels", "multicurve._kernels", "eval_linear_zero", "points"),
    ("interp.monotone_cubic_slopes", "multicurve.interp", "monotone_cubic_slopes", None),
    ("curve.YieldCurve", "multicurve.curve", "YieldCurve.__init__", None),
    ("curve.discount_time", "multicurve.curve", "YieldCurve.discount_time", None),
    ("bootstrap.bootstrap_curve", "multicurve.bootstrap", "bootstrap_curve", None),
    ("bootstrap.repricing_errors", "multicurve.bootstrap", "repricing_errors", None),
    ("risk.MarketState.build", "multicurve.risk", "MarketState.build", None),
    ("risk.delta_ladder", "multicurve.risk", "delta_ladder", None),
    ("risk.hedge_ratios", "multicurve.risk", "hedge_ratios", None),
    ("risk.hedged_residual_ladder", "multicurve.risk", "hedged_residual_ladder", None),
    ("risk.project_deltas", "multicurve.risk", "project_deltas", None),
    ("pricer.price_position", "multicurve.pricer", "price_position", None),
    ("quanto.quanto_mult", "multicurve.quanto", "quanto_mult", None),
    ("quanto.swap_quanto_mult", "multicurve.quanto", "swap_quanto_mult", None),
    ("timegrid.generate_schedule", "multicurve.timegrid", "generate_schedule", None),
    ("timegrid.add_months", "multicurve.timegrid", "add_months", None),
    ("basis.basis_term_structure", "multicurve.basis", "basis_term_structure", "samples"),
    ("cli.main", "multicurve.cli", "main", None),
]
ROOT_SOLVER = ("multicurve.bootstrap", "brentq")


class _Stat:
    __slots__ = ("calls", "total", "self_", "points")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_ = 0.0
        self.points = 0


class Tracer:
    """Installs the wrappers once; records only while ``active``."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.root_solves = 0
        self.residual_evals = 0
        self.notes: list[str] = []
        self.active = False
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for span, module, path, extra in ENTRY_POINTS:
            stat = self.stats.setdefault(span, _Stat())
            owner, attr, original = _resolve(module, path)
            if original is None:
                self.notes.append(f"{module}.{path} not found: {span} reads 0")
                continue
            self._replace(owner, attr, original, self._span(stat, original, extra))
        owner, attr, original = _resolve(*ROOT_SOLVER)
        if original is None:
            self.notes.append(f"{'.'.join(ROOT_SOLVER)} not found: root solves read 0")
        else:
            self._replace(owner, attr, original, self._solver(original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _replace(self, owner, attr, original, wrapper) -> None:
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, name)
                for mod in list(sys.modules.values())
                if getattr(mod, "__name__", "").partition(".")[0] == "multicurve"
                for name, value in list(vars(mod).items())
                if value is original
            ]
        for target, name in targets:
            self._patches.append((target, name, original))
            setattr(target, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, stat: _Stat, fn, extra):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_ += dt - child
            if extra == "points":
                stat.points += int(np.size(args[0]))
            elif extra == "samples":
                stat.points += len(out)
            return out

        return wrapper

    def _solver(self, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if not self.active:
                return fn(f, *args, **kwargs)
            self.root_solves += 1

            def counted(*a):
                self.residual_evals += 1
                return f(*a)

            return fn(counted, *args, **kwargs)

        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics as ``name -> (value, unit)``."""
        s = self.stats
        k = s["kernels"]
        out = {
            "kernels.calls": (k.calls / ops, "count"),
            "kernels.points": (k.points / ops, "count"),
            "kernels.points_per_call": (k.points / k.calls if k.calls else 0.0, "points/call"),
            "kernels.self_s": (k.self_ / ops, "s"),
            "interp.monotone_cubic_slopes.calls": (s["interp.monotone_cubic_slopes"].calls / ops, "count"),
            "curve.YieldCurve.calls": (s["curve.YieldCurve"].calls / ops, "count"),
            "curve.discount_time.calls": (s["curve.discount_time"].calls / ops, "count"),
            "bootstrap.bootstrap_curve.calls": (s["bootstrap.bootstrap_curve"].calls / ops, "count"),
            "bootstrap.bootstrap_curve.total_s": (s["bootstrap.bootstrap_curve"].total / ops, "s"),
            "bootstrap.bootstrap_curve.self_s": (s["bootstrap.bootstrap_curve"].self_ / ops, "s"),
            "bootstrap.root_solves": (self.root_solves / ops, "count"),
            "bootstrap.residual_evals": (self.residual_evals / ops, "count"),
            "bootstrap.residual_evals_per_solve": (
                self.residual_evals / self.root_solves if self.root_solves else 0.0, "evals/solve"),
            "bootstrap.repricing_errors.total_s": (s["bootstrap.repricing_errors"].total / ops, "s"),
            "risk.MarketState.build.calls": (s["risk.MarketState.build"].calls / ops, "count"),
        }
        for name in ("delta_ladder", "hedge_ratios", "hedged_residual_ladder", "project_deltas"):
            out[f"risk.{name}.total_s"] = (s[f"risk.{name}"].total / ops, "s")
        pp = s["pricer.price_position"]
        out.update({
            "pricer.price_position.calls": (pp.calls / ops, "count"),
            "pricer.price_position.self_s": (pp.self_ / ops, "s"),
            "pricer.price_position.total_s": (pp.total / ops, "s"),
            "quanto.quanto_mult.calls": (s["quanto.quanto_mult"].calls / ops, "count"),
            "quanto.quanto_mult.self_s": (s["quanto.quanto_mult"].self_ / ops, "s"),
            "quanto.swap_quanto_mult.calls": (s["quanto.swap_quanto_mult"].calls / ops, "count"),
        })
        for name in ("generate_schedule", "add_months"):
            st = s[f"timegrid.{name}"]
            out[f"timegrid.{name}.calls"] = (st.calls / ops, "count")
            out[f"timegrid.{name}.self_s"] = (st.self_ / ops, "s")
        bt = s["basis.basis_term_structure"]
        out.update({
            "basis.basis_term_structure.total_s": (bt.total / ops, "s"),
            "basis.basis_term_structure.self_s": (bt.self_ / ops, "s"),
            "basis.points": (bt.points / ops, "count"),
            "cli.main.self_s": (s["cli.main"].self_ / ops, "s"),
        })
        return out


def _resolve(module: str, path: str):
    """(owner, attribute, current value) of ``module.path``; value None
    when the module or attribute is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None, None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None, None
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return owner, attr, original
