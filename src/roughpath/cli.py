"""Batch command-line front end.

Subcommands: gen-path, averages, diagnose, integrate, green-check,
ito-compare, wiener-mc, solve-ode, reproduce.  Exit codes: 0 success,
2 validation error, 3 numerical failure (with a JSON error payload on
stdout).  Every subcommand is deterministic given its flags and seed.
--config supplies flag values as defaults: an explicit flag wins, and each
value is checked like the flag it stands for.
"""

import argparse
import functools
import json
import os
import sys
import warnings

import numpy as np

from . import experiments
from .calculus import green_eval, ito_compare
from .diagnostics import existence_report, wiener_ensemble
from .dyadic import average_pyramid
from .errors import NonFiniteIterate, QuadratureFailure, RoughPathError, WindowUnderflow
from .fields import resolve_field
from .generators import gen_analytic, gen_brownian, gen_counterexample, gen_oscillatory
from .integrator import ConvergenceConfig, integrate
from .io import (
    read_flat_config,
    read_path_csv,
    write_json,
    write_path_csv,
    write_pyramid_csv,
    write_residuals_csv,
    write_solution_csv,
)
from .ode import MatrixField, OdeProblem, SolverConfig, solve

_NUMERICAL = (QuadratureFailure, WindowUnderflow, NonFiniteIterate)   # exit 3; the rest exit 2

# The resource budget of the generating subcommands, checked before any
# generator runs: paths of at most 2**_MAX_K cells (a 128 MiB sample array at
# the cap), and ensembles of at most _MAX_ENSEMBLE_SAMPLES samples over all
# their paths (4096 paths at K = 18).
_MAX_K = 24
_MAX_ENSEMBLE_SAMPLES = 1 << 30


def _check_budget(K: int, n_paths: int = 1) -> None:
    if K > _MAX_K:
        raise RoughPathError(f"K = {K} is above the cap of {_MAX_K}")
    if n_paths * 2 ** max(K, 0) > _MAX_ENSEMBLE_SAMPLES:
        raise RoughPathError(f"{n_paths} paths at K = {K} are above the cap of "
                             f"{_MAX_ENSEMBLE_SAMPLES} samples per ensemble")


def _parse_with_config(argv, args):
    """Parse ``argv`` again with the --config values as argparse defaults.

    argparse converts a string default with its flag's own ``type`` when the
    flag is absent, so config values are checked like flags and an explicit
    flag still wins; it does not check a default against the flag's
    ``choices``, so that check is made here.  The defaults go on a parser
    built for this call alone, so they never reach a later ``main`` call.
    """
    parser, commands = build_parser()
    known = set(vars(args)) - {"command", "config", "fn"}
    for key, value in read_flat_config(args.config).items():
        dest = key.replace("-", "_")
        if dest not in known:
            parser.error(f"unknown config key {key!r}")
        if isinstance(getattr(args, dest), bool):   # a store_true flag
            if value not in ("true", "false"):
                parser.error(f"config key {key!r} takes true or false")
            value = value == "true"
        target = parser if dest == "threads" else commands[args.command]
        choices = next(a.choices for a in target._actions if a.dest == dest)
        if choices is not None and value not in choices:
            parser.error(f"config key {key!r} takes one of: {', '.join(choices)}")
        target.set_defaults(**{dest: value})
    return parser.parse_args(argv)


def _emit(payload, json_out, shown=None) -> None:
    """Write ``payload`` to ``json_out`` when given, then print ``shown`` (default: payload)."""
    if json_out:
        write_json(payload, json_out)
    print(json.dumps(payload if shown is None else shown, indent=2))


def _gen_path(args):
    _check_budget(args.K)
    kind = args.kind
    if kind == "brownian":
        path = gen_brownian(args.K, args.seed)
    elif kind == "oscillatory":
        path = gen_oscillatory(args.alpha, args.beta, args.A, args.m_max, args.K)
    elif kind == "counterexample":
        path = gen_counterexample(args.alpha, args.beta, args.K)
    else:
        path = gen_analytic(kind, args.K)
    write_path_csv(path, args.out)
    print(f"wrote {args.out} ({path.samples.size} rows, K={path.resolution_level})")
    return 0


def _averages(args):
    path = read_path_csv(args.path)
    write_pyramid_csv(average_pyramid(path), args.out)
    print(f"wrote {args.out}")
    return 0


def _diagnose(args):
    path = read_path_csv(args.path)
    report = existence_report(path.pyramid(), args.beta).to_json()
    _emit(report, args.json_out, None if args.json else {"verdict": report["verdict"]})
    return 0


def _integrate(args):
    path = read_path_csv(args.path)
    field = resolve_field(args.field)
    cfg = ConvergenceConfig(tol=args.tol, min_level=args.min_level, quad_tol=args.quad_tol)
    result = integrate(field, path, args.a, args.b, cfg)
    payload = {
        "value": result.value,
        "converged": bool(result.converged),
        "levels": list(result.levels),
        "level_values": [float(v) for v in result.level_values],
    }
    _emit(payload, args.json_out)
    return _converged_or_3(result.converged)


def _converged_or_3(converged: bool) -> int:
    if not converged:
        print("integration did not converge within the resolved levels", file=sys.stderr)
        return 3
    return 0


def _green_check(args):
    path = read_path_csv(args.path)
    field = resolve_field(args.field)
    green = green_eval(field, path, args.s)   # MissingDerivative before the staircase runs
    direct = integrate(field, path, 0.0, args.s, ConvergenceConfig(tol=args.tol))
    _emit({
        "value_direct": direct.value,
        "value_green": green.total,
        "difference": direct.value - green.total,
        "converged": bool(direct.converged),
    }, args.json_out)
    return _converged_or_3(direct.converged)


def _ito_compare(args):
    field = resolve_field(args.field)
    if field.depends_on != "x_only":
        raise RoughPathError("ito-compare needs a state-only field")
    _check_budget(args.K, args.n_paths)
    paths = (gen_brownian(args.K, args.seed + i) for i in range(args.n_paths))
    f = lambda x: field.evaluate(np.zeros_like(np.asarray(x, dtype=float)), x)
    report = ito_compare(f, paths, s=args.s)
    if args.out:
        write_residuals_csv(range(args.seed, args.seed + report["n_paths"]), report["residuals"],
                            args.out)
    summary = {k: report[k] for k in ("s", "n_paths", "mean_abs_residual", "max_abs_residual")}
    _emit(summary, None)
    return 0


def _wiener_mc(args):
    k_list = [int(k) for k in args.k.split(",")]
    _check_budget(args.K, args.n_paths)
    _emit(wiener_ensemble(k_list, args.n_paths, args.K, args.seed, threads=args.threads),
          args.json_out)
    return 0


def _solve_ode(args):
    driver = read_path_csv(args.drivers)
    F = MatrixField.linear_in_y() if args.F == "linear" else MatrixField.constant(1.0)
    problem = OdeProblem(F=F, drivers=[driver], y0=np.array([args.y0]), beta=args.beta)
    cfg = SolverConfig(tol=args.tol, grid_level=args.grid_level)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solution = solve(problem, cfg)
    for note in caught:   # one stderr line each, without the source location
        print(note.message, file=sys.stderr)
    write_solution_csv(solution, args.out)
    _emit({
        "residual": solution.residual,
        "windows": solution.windows,
        "converged": bool(solution.converged),
    }, args.json_out)
    if not solution.converged:
        print("fixed-point residual above the solver tolerance", file=sys.stderr)
        return 3
    return 0


def _reproduce(args):
    names = experiments.CRITERIA_ORDER if args.name == "all" else [args.name]
    failures = 0
    for name in names:
        result = experiments.run_criterion(name)
        print(experiments.format_result(result))
        failures += 0 if result.passed else 1
    return 0 if failures == 0 else 3


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="roughpath", description=__doc__)
    parser.add_argument("--config", help="flat key = value defaults file")
    parser.add_argument("--threads", type=int, help="wiener-mc worker cap (default 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-path", help="generate a path CSV")
    p.add_argument("--kind", required=True,
                   help="brownian | oscillatory | counterexample | linear | square | sine")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.45)
    p.add_argument("--beta", type=float, default=0.45)
    p.add_argument("--A", type=float, default=0.0)
    p.add_argument("--m-max", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_gen_path)

    p = sub.add_parser("averages", help="dump the average pyramid of a path CSV")
    p.add_argument("--path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_averages)

    p = sub.add_parser("diagnose", help="existence diagnostic report")
    p.add_argument("--path", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--json", action="store_true", help="print the full report")
    p.add_argument("--json-out")
    p.set_defaults(fn=_diagnose)

    p = sub.add_parser("integrate", help="staircase integral of a field over a path")
    p.add_argument("--path", required=True)
    p.add_argument("--field", required=True, help="builtin name or expression in t, x")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=ConvergenceConfig.tol)
    p.add_argument("--min-level", type=int, default=ConvergenceConfig.min_level)
    p.add_argument("--quad-tol", type=float, default=ConvergenceConfig.quad_tol)
    p.add_argument("--json-out")
    p.set_defaults(fn=_integrate)

    p = sub.add_parser("green-check", help="direct value vs Green-route value")
    p.add_argument("--path", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=ConvergenceConfig.tol)
    p.add_argument("--json-out")
    p.set_defaults(fn=_green_check)

    p = sub.add_parser("ito-compare", help="correction-identity residuals on an ensemble")
    p.add_argument("--field", default="x2")
    p.add_argument("--K", type=int, default=14)
    p.add_argument("--n-paths", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--out", help="CSV of per-seed residuals")
    p.set_defaults(fn=_ito_compare)

    p = sub.add_parser("wiener-mc", help="Wiener statistic ensemble summary")
    p.add_argument("--k", required=True, help="comma-separated levels")
    p.add_argument("--n-paths", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out")
    p.set_defaults(fn=_wiener_mc)

    p = sub.add_parser("solve-ode", help="Picard solve of dy = F(t, y, x) dx")
    p.add_argument("--drivers", required=True, help="driver path CSV")
    p.add_argument("--F", choices=("linear", "constant"), default="linear",
                   help="linear: dy = y dx; constant: dy = dx")
    p.add_argument("--y0", type=float, default=1.0, help="start value; negative as --y0=-1e-3")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=SolverConfig.tol)
    p.add_argument("--grid-level", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--json-out")
    p.set_defaults(fn=_solve_ode)

    p = sub.add_parser("reproduce", help="run a named acceptance experiment")
    p.add_argument("name", help="'all' or one of: " + ", ".join(experiments.CRITERIA_ORDER))
    p.set_defaults(fn=_reproduce)

    return parser, sub.choices


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reads; nothing may change it after this."""
    return build_parser()[0]


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _parse_with_config(argv, args)
        for dest, value in vars(args).items():
            if dest.endswith("tol") and value is not None and not value > 0:   # NaN too
                parser.error(f"{dest} must be positive")
        code = args.fn(args)
        sys.stdout.flush()   # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away: nothing more can be shown, and the fd now points
        # at devnull so the interpreter's final flush of stdout stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (RoughPathError, ValueError, OSError, MemoryError) as exc:
        numerical = isinstance(exc, _NUMERICAL)
        print(json.dumps({"error": "numerical" if numerical else "validation",
                          "detail": str(exc) or type(exc).__name__}))
        return 3 if numerical else 2


if __name__ == "__main__":
    sys.exit(main())
