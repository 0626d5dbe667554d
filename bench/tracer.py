"""In-memory span tracer that wraps roughpath's public functions from outside.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces every public
function of every layer module with a wrapper that records a span, and does
so on *every* module attribute that holds the function, because callers
import by name (``roughpath.integrator.refine_batch`` is the attribute that
``integrate`` looks up, not only ``roughpath.quadrature.refine_batch``).
``Tracer.uninstall`` puts the originals back.

A span is ``[name, start, end, parent_index, op_id]``.  Self time is a
span's duration minus the durations of its direct children; calls are
single-threaded while tracing, so children never overlap.
"""

import importlib
import inspect
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "generators", "dyadic", "diagnostics", "fields", "quadrature", "integrator",
    "calculus", "ode", "io", "cli", "experiments",
)

FIELD_SPAN = "fields.eval"

# Named self times reported per traced pass.
SELF_TIME_SPANS = (
    "quadrature.refine_batch",
    "integrator.integrate",
    "integrator.cumulative_increments",
    "ode.solve",
    "ode.picard_operator",
    "generators.gen_brownian",
    "dyadic.average_pyramid",
    "diagnostics.wiener_ensemble",
    "diagnostics.existence_report",
    "calculus.time_integral_of_state",
    "integrator.integrate_state_only",
    "calculus.ito_reference",
    "io.write_path_csv",
    "io.read_path_csv",
    "io.write_pyramid_csv",
    "cli.main",
)

# Counts that must repeat exactly between two traced passes of the same inputs.
COUNT_METRICS = (
    "fields.eval_points",
    "quadrature.intervals",
    "quadrature.points",
    "ode.picard_operator.calls",
    "ode.windows",
    "ode.window_halvings",
    "generators.samples",
    "io.bytes_written",
    "io.bytes_read",
)

RATIO_METRICS = (
    ("quadrature.points_per_interval", "points"),
    ("integrator.levels_per_call", "levels"),
    ("integrator.converged_ratio", "ratio"),
    ("integrator.cumulative_increments.refine_calls_per_call", "calls"),
)

# Layers whose summed self time is reported; ``experiments`` is reported
# through the acceptance-criterion runtimes instead.
BUSY_LAYERS = tuple(layer for layer in LAYERS if layer != "experiments")


def _file_size(filename) -> int:
    return os.path.getsize(os.fspath(filename))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- span recording -------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    # -- wrappers ---------------------------------------------------------

    def count_field(self, fn):
        """Wrap an integrand callable built by the benchmark: span plus point count."""

        def counted(*args):
            rec = self._enter(FIELD_SPAN)
            try:
                out = fn(*args)
            finally:
                self._exit(rec)
            self.counts["fields.eval_points"] += int(np.size(out))
            return out

        return counted

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs, after = hook(self, args, kwargs)
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if hook is not None and after is not None:
                after(result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"roughpath.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "roughpath" and not mod_name.startswith("roughpath."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched = []

    # -- summaries --------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        """Per-name total self time and call count over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def pass_summary(self) -> dict:
        """Per-layer metrics and the exact-repeat counts of one traced pass."""
        self_s, calls = self.self_times()
        exact = Counter(self.counts)
        exact["ode.picard_operator.calls"] = calls["ode.picard_operator"]
        exact.update({f"calls.{name}": n for name, n in calls.items()})

        metrics = {}
        for name in SELF_TIME_SPANS:
            metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        metrics["fields.eval_s"] = (self_s.get(FIELD_SPAN, 0.0), "s")
        for layer in BUSY_LAYERS:
            busy = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            metrics[f"{layer}.self_s"] = (busy, "s")
        for name in COUNT_METRICS:
            metrics[name] = (exact[name], "count")
        ratios = {
            "quadrature.points_per_interval": _ratio(
                exact["quadrature.points"], exact["quadrature.intervals"]
            ),
            "integrator.levels_per_call": _ratio(
                exact["integrator.integrate.levels"], calls["integrator.integrate"]
            ),
            "integrator.converged_ratio": _ratio(
                exact["integrator.integrate.converged"], calls["integrator.integrate"]
            ),
            "integrator.cumulative_increments.refine_calls_per_call": _ratio(
                exact["integrator.cumulative_increments.x_refine_calls"],
                exact["integrator.cumulative_increments.x_calls"],
            ),
        }
        for name, unit in RATIO_METRICS:
            metrics[name] = (ratios[name], unit)
        return {"metrics": metrics, "exact_counts": dict(exact)}


def _ratio(num, den) -> float:
    """num / den, or 0.0 when the layer was not exercised (den == 0)."""
    return num / den if den else 0.0


# -- per-function hooks -------------------------------------------------------
#
# A hook sees the call's arguments before the span opens and may replace them;
# it returns (args, kwargs, after) where ``after(result)`` runs once the call
# returned.  Hooks only count; they never change a value the library sees.


def _refine_batch_hook(tracer, args, kwargs):
    args = list(args)
    eval_xs = args[0] if args else kwargs["eval_xs"]

    def counting_eval_xs(owner, x):
        tracer.counts["quadrature.points"] += int(np.size(x))
        return eval_xs(owner, x)

    if args:
        args[0] = counting_eval_xs
    else:
        kwargs = dict(kwargs, eval_xs=counting_eval_xs)
    lo = args[1] if len(args) > 1 else kwargs["lo"]
    tracer.counts["quadrature.intervals"] += int(np.size(lo))
    tracer.counts["quadrature.refine_calls"] += 1
    return tuple(args), kwargs, None


def _integrate_hook(tracer, args, kwargs):
    def after(result):
        tracer.counts["integrator.integrate.levels"] += len(result.level_values)
        tracer.counts["integrator.integrate.converged"] += int(bool(result.converged))

    return args, kwargs, after


def _cumulative_increments_hook(tracer, args, kwargs):
    field = args[0] if args else kwargs["field"]
    if field.depends_on == "t_only":
        return args, kwargs, None
    before = tracer.counts["quadrature.refine_calls"]

    def after(_result):
        tracer.counts["integrator.cumulative_increments.x_calls"] += 1
        tracer.counts["integrator.cumulative_increments.x_refine_calls"] += (
            tracer.counts["quadrature.refine_calls"] - before
        )

    return args, kwargs, after


def _solve_hook(tracer, args, kwargs):
    problem = args[0] if args else kwargs["problem"]

    def after(solution):
        tracer.counts["ode.windows"] += len(solution.windows)
        shortest = min(w["end"] - w["start"] for w in solution.windows)
        tracer.counts["ode.window_halvings"] += round(math.log2(problem.horizon / shortest))

    return args, kwargs, after


def _gen_brownian_hook(tracer, args, kwargs):
    def after(path):
        tracer.counts["generators.samples"] += int(path.samples.size)

    return args, kwargs, after


def _write_hook(position: int, key: str):
    def hook(tracer, args, kwargs):
        filename = args[position] if len(args) > position else kwargs[key]

        def after(_result):
            tracer.counts["io.bytes_written"] += _file_size(filename)

        return args, kwargs, after

    return hook


def _read_hook(tracer, args, kwargs):
    filename = args[0] if args else kwargs["filename"]
    tracer.counts["io.bytes_read"] += _file_size(filename)
    return args, kwargs, None


_HOOKS = {
    "quadrature.refine_batch": _refine_batch_hook,
    "integrator.integrate": _integrate_hook,
    "integrator.cumulative_increments": _cumulative_increments_hook,
    "ode.solve": _solve_hook,
    "generators.gen_brownian": _gen_brownian_hook,
    "io.write_path_csv": _write_hook(1, "filename"),
    "io.write_pyramid_csv": _write_hook(1, "filename"),
    "io.write_json": _write_hook(1, "filename"),
    "io.read_path_csv": _read_hook,
}
