"""roughpath benchmark: one closed-loop client, one process, four workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; roughpath is imported from its ``src/``.

``--trace 0`` times the import of roughpath in a fresh interpreter and the
build of the workload's inputs, three times each (``setup_s`` is the sum of
the two medians), warms up, runs ops back to back for ``--seconds`` and
prints the end-to-end metrics.  Times are scaled to a reference machine
speed (calibration.py).  ``--trace 1`` runs a fixed list of ops twice
untraced and twice with every public roughpath function wrapped (tracer.py),
alternating, asserts that the work counters repeat exactly, runs the ten
acceptance criteria, and prints the per-layer metrics.  Every op's result is
checked after timing; any failure makes ``correct`` false and the exit code
1.  The last line of standard output is the JSON result.  Reports and spans
go to ``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import CAL_INTERVAL_S, calibrate, scale

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import roughpath; print(time.perf_counter() - start)"
)
# Confirm a claimed gain on this seed too; never use it while tuning a change.
HELD_OUT_SEED = 104729
TAIL_BEYOND = 10      # the tail percentile keeps this many samples beyond it

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_ratio", "ratio", "higher"),
)


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _import_roughpath() -> None:
    """Import roughpath from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "roughpath" / "__init__.py").is_file():
        raise ImportError(f"no roughpath sources under {src}")
    sys.path.insert(0, str(src))
    import roughpath

    if Path(roughpath.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"roughpath imported from {roughpath.__file__}, not {src}")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints."""
    from roughpath import experiments
    from tracer import BUSY_LAYERS, COUNT_METRICS, RATIO_METRICS, SELF_TIME_SPANS

    spec = [(f"{name}.self_s", "s", "lower") for name in SELF_TIME_SPANS]
    spec.append(("fields.eval_s", "s", "lower"))
    spec += [(f"{layer}.self_s", "s", "lower") for layer in BUSY_LAYERS]
    spec += [(name, "count", "lower") for name in COUNT_METRICS]
    spec += [
        (name, unit, "higher" if name == "integrator.converged_ratio" else "lower")
        for name, unit in RATIO_METRICS
    ]
    spec.append(("trace.overhead_ratio", "ratio", "higher"))
    spec += [(f"experiments.{c}.runtime_s", "s", "lower") for c in experiments.CRITERIA_ORDER]
    return spec


class OpLog:
    """Runs ops, keeps one full result per input key and a digest of every op."""

    def __init__(self, workload):
        self.workload = workload
        self.executions = []      # (op index, key, digest or None, error or None)
        self.first = {}           # key -> (op index, result, inputs)

    def run(self, inputs, i: int) -> float:
        start = time.perf_counter()
        try:
            result = self.workload.op(inputs, i)
        except Exception as exc:  # a raising op is counted as failed, not fatal
            latency = time.perf_counter() - start
            self.executions.append((i, None, None, f"op {i} raised {exc!r}"))
            return latency
        latency = time.perf_counter() - start
        key = self.workload.key(i)
        try:
            digest = self.workload.digest(inputs, i, result)
        except Exception as exc:
            self.executions.append((i, key, None, f"op {i}: output unreadable: {exc!r}"))
            return latency
        self.first.setdefault(key, (i, result, inputs))
        self.executions.append((i, key, digest, None))
        return latency

    def check(self) -> list[str]:
        """One message per failed op: raised, differs from its key's first
        result, or its key's first result failed the reference check."""
        first_digest = {}
        for i, key, digest, error in self.executions:
            if error is None and key not in first_digest:
                first_digest[key] = digest
        bad_keys = {}
        for key, (i, result, inputs) in self.first.items():
            try:
                errors = self.workload.check_first(inputs, i, result)
            except Exception as exc:
                errors = [f"check raised {exc!r}"]
            if errors:
                bad_keys[key] = f"op {i} (key {key}): " + "; ".join(errors)
        failures = []
        for i, key, digest, error in self.executions:
            if error is not None:
                failures.append(error)
            elif digest != first_digest[key]:
                failures.append(f"op {i} (key {key}): result differs from the first op with this input")
            elif key in bad_keys:
                failures.append(bad_keys[key])
        return failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _timed(kind: str, fn):
    """(result, wall seconds, scaled seconds) of one call bracketed by calibrations."""
    before = calibrate(kind)
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, wall * scale(before, calibrate(kind))


def _import_in_fresh_process() -> float:
    """Seconds a new interpreter takes to import roughpath from this checkout."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_untraced(workload, seed: int, seconds: float) -> dict:
    kind = workload.kernel
    imports, imports_wall, builds, builds_wall = [], [], [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        before = calibrate(kind)
        wall = _import_in_fresh_process()
        imports.append(wall * scale(before, calibrate(kind)))
        imports_wall.append(wall)
        inputs = None
        inputs, wall, scaled = _timed(kind, lambda: workload.build(seed))
        builds.append(scaled)
        builds_wall.append(wall)
    log = OpLog(workload)
    for i in range(workload.trace_ops):      # warm-up, checked but not timed
        log.run(inputs, i)
    wall, latencies, pending = [], [], []
    i = workload.trace_ops
    cal_before = calibrate(kind)
    cal_at = time.perf_counter()
    deadline = cal_at + seconds
    while pending or time.perf_counter() < deadline:
        if time.perf_counter() < deadline:
            pending.append(log.run(inputs, i))
            i += 1
            if time.perf_counter() - cal_at < CAL_INTERVAL_S:
                continue
        cal_after = calibrate(kind)
        cal_at = time.perf_counter()
        factor = scale(cal_before, cal_after)
        latencies += [lat * factor for lat in pending]
        wall += pending
        pending = []
        cal_before = cal_after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = log.check()
    n = len(latencies)
    tail_s, tail_pct = tail(latencies)
    attempted = len(log.executions)
    setup_s = statistics.median(imports) + statistics.median(builds)
    metrics = {
        "setup_s": (setup_s, "s",
                    f"median of {SETUP_REPEATS} imports ({', '.join(f'{b:.4f}' for b in imports)} s)"
                    f" + median of {SETUP_REPEATS} builds ({', '.join(f'{b:.4f}' for b in builds)} s)"),
        "ops_per_s": (n / sum(latencies), "1/s", f"n={n} timed ops, {sum(latencies):.3f} s of op time"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms", f"n={n}"),
        "op_tail_ms": (1e3 * tail_s, "ms",
                       f"p{tail_pct:.1f}, n={n}, {min(n - 1, TAIL_BEYOND)} samples beyond"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss after the timed loop, n=1"),
        "success_ratio": ((attempted - len(failures)) / attempted, "ratio", "1 - fail_ratio"),
    }
    wall_tail_s, _ = tail(wall)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "warmup_ops": workload.trace_ops,
        "wall": {
            "setup_s": statistics.median(imports_wall) + statistics.median(builds_wall),
            "ops_per_s": n / sum(wall),
            "op_p50_ms": 1e3 * statistics.median(wall),
            "op_tail_ms": 1e3 * wall_tail_s,
        },
        "latencies_s": latencies,
        "wall_latencies_s": wall,
    }


def trace_metrics(summaries, untraced_s, traced_s, criteria_s) -> dict:
    """Per-layer metrics from two traced passes: times are the mean of the two
    passes, counts and ratios (identical in both when the run is correct)
    come from the first."""
    metrics = {}
    for name, (value, unit) in summaries[0]["metrics"].items():
        if unit == "s":
            value = 0.5 * (value + summaries[1]["metrics"][name][0])
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (sum(untraced_s) / sum(traced_s), "ratio")
    for name, seconds in criteria_s.items():
        metrics[f"experiments.{name}.runtime_s"] = (seconds, "s")
    return metrics


def run_traced(workload, seed: int) -> dict:
    from roughpath import experiments
    from tracer import Tracer

    kind = workload.kernel
    inputs = workload.build(seed)
    log = OpLog(workload)
    ops = range(workload.trace_ops)
    for i in ops:                            # warm-up
        log.run(inputs, i)
    tracer = Tracer()
    summaries, untraced_s, traced_s, spans = [], [], [], []
    for _ in range(2):                       # untraced and traced passes alternate
        before = calibrate(kind)
        untraced_s.append(sum(log.run(inputs, i) for i in ops) * scale(before, calibrate(kind)))
        tracer.reset()
        before = calibrate(kind)
        tracer.install()
        try:
            tracer.op = "setup"
            traced_inputs = workload.build(seed, tracer.count_field)
            elapsed = 0.0
            for i in ops:
                tracer.op = i
                elapsed += log.run(traced_inputs, i)
        finally:
            tracer.uninstall()
        factor = scale(before, calibrate(kind))
        summary = tracer.pass_summary()
        summary["metrics"] = {
            name: (value * factor if unit == "s" else value, unit)
            for name, (value, unit) in summary["metrics"].items()
        }
        summaries.append(summary)
        traced_s.append(elapsed * factor)
        spans.append(tracer.spans)
    failures = log.check()
    first, second = (s["exact_counts"] for s in summaries)
    differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    if differing:
        failures.append(f"counters differ between the two traced passes: {differing}")
    criteria_s = {}
    for name in experiments.CRITERIA_ORDER:
        result, _wall, scaled = _timed(kind, lambda: experiments.run_criterion(name))
        criteria_s[name] = scaled
        if not result.passed:
            failures.append(f"acceptance criterion {name} failed: {result.details}")
    return {
        "metrics": {k: (v, u, "") for k, (v, u) in
                    trace_metrics(summaries, untraced_s, traced_s, criteria_s).items()},
        "attempted": len(log.executions) + len(criteria_s),
        "failures": failures,
        "exact_counts": first,
        "counters_differing": differing,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": spans,
    }


def provenance(seed: int) -> dict:
    import numpy as np

    from workloads import nproc

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "benchmark_threads": "none in timed ops; threads=2 only in the untimed "
                             "wiener_ensemble invariance check, and only when nproc >= 2",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    try:
        _import_roughpath()
    except ImportError as exc:
        return _fail(f"cannot import roughpath from this checkout: {exc}")
    import workloads

    if args.workload not in workloads.NAMES:
        return _fail(f"unknown workload {args.workload!r}; choices: {', '.join(workloads.NAMES)}")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workload = workloads.make(args.workload, workdir)
    prov = provenance(args.seed)
    print(f"# roughpath benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items() if k != "benchmark_threads"))
    print(f"# threads: {prov['benchmark_threads']}")
    print(f"# workload: {workload.why}; closed loop, 1 client")
    try:
        if args.trace:
            outcome = run_traced(workload, args.seed)
        else:
            outcome = run_untraced(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = outcome["failures"]
    for message in failures[:20]:
        print(f"FAIL {message}")
    if len(failures) > 20:
        print(f"FAIL ... {len(failures) - 20} more")
    width = max(len(name) for name in outcome["metrics"])
    for name, (value, unit, detail) in outcome["metrics"].items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} {detail}".rstrip())
    print(f"{'fail_ratio':<{width}}  {len(failures) / outcome['attempted']:>14.6g} ratio  "
          f"{len(failures)} failed of {outcome['attempted']} attempted (reported as success_ratio)")
    if "wall" in outcome:
        print("# unscaled wall time: " + ", ".join(f"{k}={v:.6g}" for k, v in outcome["wall"].items()))
    if args.trace:
        print(f"# {workload.trace_ops} ops per pass; untraced {', '.join(f'{t:.4f}' for t in outcome['untraced_s'])} s, "
              f"traced {', '.join(f'{t:.4f}' for t in outcome['traced_s'])} s; "
              f"counters {'DIFFER' if outcome['counters_differing'] else 'identical'} in both passes")
    print(f"# attempted {outcome['attempted']}, failed {len(failures)}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "provenance": prov,
        "workload": args.workload,
        "why": workload.why,
        "seconds": args.seconds,
        "metrics": {k: {"value": v, "unit": u, "detail": d}
                    for k, (v, u, d) in outcome["metrics"].items()},
        "failures": failures,
        **{k: v for k, v in outcome.items() if k not in ("metrics", "failures", "spans")},
    }
    (OUT_DIR / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        columns = ["name", "start", "end", "parent", "op"]
        (OUT_DIR / f"spans-{stem}.json").write_text(
            json.dumps({"columns": columns, "passes": outcome["spans"]}) + "\n"
        )
    print(json.dumps({
        "correct": not failures,
        "attempted": outcome["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _d) in outcome["metrics"].items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
