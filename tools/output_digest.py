"""Print ``name sha256`` for every output of a fixed, seeded corpus.

The corpus runs every CLI subcommand, the staircase integrals
(``integrate``, ``staircase_integral``, ``cumulative_increments``) of builtin
fields and compiled expressions, the builtins on integer arguments, ``solve``,
the diagnostics (``existence_report``, ``gap_functional``, ``scaling_norm``),
``adversarial_integrand``, ``holder_seminorm``, ``wiener_ensemble``,
``continuity_experiment``'s refusals and the details of every
``roughpath reproduce`` criterion.  Each output is hashed from a canonical
encoding: array dtype, shape and bytes, scalar type and bytes, dict keys in
order, dataclass fields, and an exception's type and message.  CLI runs hash
the exit code (or the exception the CLI lets escape), stdout, stderr and
every file they write, with the runtime taken out of ``reproduce``'s line.
Files go to a temporary directory, which is the working directory while the
CLI runs and is removed at exit.

Two trees give the same lines exactly when every output is bit-identical,
so a refactor is checked by running this on both and comparing, with
``tools/compare_digests.py`` when the change moves outputs on purpose:

    PYTHONPATH=src python tools/output_digest.py > digest.txt

A run takes about ten seconds on one core.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import re
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import roughpath as rp
from roughpath import cli, experiments


def _encode(x, out: list) -> None:
    """Append a canonical byte encoding of ``x`` to ``out``."""
    if x is None or isinstance(x, (bool, np.bool_)):
        out.append(f"{type(x).__name__}:{x!r};".encode())
    elif isinstance(x, (int, np.integer)):
        out.append(f"{type(x).__name__}:{int(x)};".encode())
    elif isinstance(x, (float, np.floating)):
        out.append(type(x).__name__.encode() + b":" + struct.pack("<d", float(x)) + b";")
    elif isinstance(x, str):
        out.append(b"str:" + x.encode() + b";")
    elif isinstance(x, bytes):
        out.append(b"bytes:%d:" % len(x) + x)
    elif isinstance(x, np.ndarray):
        out.append(f"ndarray:{x.dtype.str}:{x.shape}:".encode() + np.ascontiguousarray(x).tobytes())
    elif isinstance(x, dict):
        out.append(b"dict{")
        for key, value in x.items():
            _encode(key, out)
            _encode(value, out)
        out.append(b"}")
    elif isinstance(x, (list, tuple)):
        out.append(type(x).__name__.encode() + b"[")
        for value in x:
            _encode(value, out)
        out.append(b"]")
    elif isinstance(x, BaseException):
        out.append(f"raised:{type(x).__name__}:{x};".encode())
    elif dataclasses.is_dataclass(x):
        out.append(type(x).__name__.encode() + b"(")
        for f in dataclasses.fields(x):
            _encode(f.name, out)
            _encode(getattr(x, f.name), out)
        out.append(b")")
    else:
        raise TypeError(f"no canonical encoding for {type(x).__name__}")


def _digest(x) -> str:
    out = []
    _encode(x, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


def _outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the exception it raises; warnings are dropped."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            return exc


def _emit(name: str, value) -> None:
    print(name, _digest(value))


_RUNTIME = re.compile(r" \(\d+\.\ds / budget \d+s\)")


def _cli(name: str, argv: list[str], files: tuple[str, ...] = ()) -> None:
    """Run ``roughpath argv`` in-process in the working directory and hash what it
    shows and writes; a warning that escapes counts by its category and message."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # a usage error from the argument parser
            code = exc.code
        except Exception as exc:    # an error the CLI lets escape, traceback and all
            code = exc
    shown = [_RUNTIME.sub("", stdout.getvalue()), stderr.getvalue(),
             [f"{w.category.__name__}: {w.message}" for w in escaped]]
    written = [Path(f).read_bytes() if Path(f).exists() else None for f in files]
    _emit(f"cli/{name}", [code, shown, written])


def cli_corpus() -> None:
    paths = {
        "bm": ["--kind", "brownian", "--K", "10", "--seed", "1"],
        "osc": ["--kind", "oscillatory", "--K", "12", "--alpha", "0.3", "--beta", "0.3",
                "--A", "0.5", "--m-max", "3"],
        "cex": ["--kind", "counterexample", "--K", "12", "--alpha", "0.3", "--beta", "0.3"],
        "lin": ["--kind", "linear", "--K", "10"],
        "sq": ["--kind", "square", "--K", "10"],
        "sine": ["--kind", "sine", "--K", "10"],
    }
    for tag, argv in paths.items():
        _cli(f"gen-path/{tag}", ["gen-path", *argv, "--out", f"{tag}.csv"], (f"{tag}.csv",))
    _cli("gen-path/over-budget", ["gen-path", "--kind", "brownian", "--K", "30", "--out", "x.csv"])
    for tag in ("bm", "osc"):
        _cli(f"averages/{tag}", ["averages", "--path", f"{tag}.csv", "--out", f"{tag}_avg.csv"],
             (f"{tag}_avg.csv",))
    for tag in ("bm", "osc", "cex", "sine"):
        for beta in ("0.4", "0.6"):
            _cli(f"diagnose/{tag}/{beta}", ["diagnose", "--path", f"{tag}.csv", "--beta", beta,
                                            "--json", "--json-out", "d.json"], ("d.json",))
    _cli("diagnose/verdict", ["diagnose", "--path", "bm.csv", "--beta", "0.6"])
    for beta in ("1", "1.5"):
        _cli(f"diagnose/bm/{beta}", ["diagnose", "--path", "bm.csv", "--beta", beta, "--json"])
    for tag in ("bm", "osc", "sq"):
        for field in ("tx", "sin_t_x", "x*x*x-sin(x)", "t_plus_x2"):
            _cli(f"integrate/{tag}/{field}", ["integrate", "--path", f"{tag}.csv", "--field", field,
                                              "--json-out", "i.json"], ("i.json",))
    _cli("integrate/off-grid", ["integrate", "--path", "bm.csv", "--field", "sin(t)*x",
                                "--a", "0.1", "--b", "0.73", "--tol", "1e-6", "--min-level", "3"])
    _cli("integrate/bad-field", ["integrate", "--path", "bm.csv", "--field", "exp(1000*x)"])
    _cli("integrate/bool-literal", ["integrate", "--path", "bm.csv", "--field", "True*x"])
    Path("two.csv").write_text("t,value\n0,0\n1,1\n")
    _cli("diagnose/two-rows", ["diagnose", "--path", "two.csv", "--beta", "0.6"])
    for tag in ("lin", "sq", "bm"):
        _cli(f"green-check/{tag}", ["green-check", "--path", f"{tag}.csv", "--field", "sin_t_x"])
    _cli("ito-compare", ["ito-compare", "--field", "x2", "--K", "8", "--n-paths", "3",
                         "--seed", "5", "--out", "r.csv"], ("r.csv",))
    _cli("wiener-mc", ["wiener-mc", "--k", "2,4", "--n-paths", "5", "--K", "10", "--seed", "3"])
    _cli("wiener-mc/threads", ["--threads", "2", "wiener-mc", "--k", "2,4", "--n-paths", "5",
                               "--K", "10", "--seed", "3"])
    _cli("solve-ode/linear", ["solve-ode", "--drivers", "lin.csv", "--F", "linear", "--y0=-1e-3",
                              "--beta", "0.9", "--out", "y.csv"], ("y.csv",))
    _cli("solve-ode/brownian", ["solve-ode", "--drivers", "bm.csv", "--out", "yb.csv"], ("yb.csv",))
    _cli("solve-ode/constant", ["solve-ode", "--drivers", "bm.csv", "--F", "constant",
                                "--y0", "2", "--grid-level", "6", "--out", "yc.csv"], ("yc.csv",))
    _cli("solve-ode/sine", ["solve-ode", "--drivers", "sine.csv", "--y0", "0.5",
                            "--grid-level", "6", "--out", "ys.csv"], ("ys.csv",))
    _cli("solve-ode/constant-negative", ["solve-ode", "--drivers", "osc.csv", "--F", "constant",
                                         "--y0=-2.5", "--out", "yn.csv"], ("yn.csv",))
    _cli("solve-ode/nan", ["solve-ode", "--drivers", "lin.csv", "--y0", "nan",
                           "--out", "y0.csv"], ("y0.csv",))
    _cli("solve-ode/two-drivers", ["solve-ode", "--drivers", "lin.csv,lin.csv",
                                   "--out", "y2.csv"], ("y2.csv",))
    _cli("solve-ode/two-y0", ["solve-ode", "--drivers", "lin.csv", "--y0=-1,2",
                              "--out", "y2.csv"], ("y2.csv",))
    _cli("solve-ode/bogus-F", ["solve-ode", "--drivers", "lin.csv", "--F", "bogus",
                               "--out", "y2.csv"], ("y2.csv",))
    _cli("reproduce", ["reproduce", "pyramid-exactness"])
    _cli("reproduce/unknown", ["reproduce", "no-such-criterion"])


def _tent_integrand(pyramid, beta: float):
    f, predicted = rp.adversarial_integrand(pyramid, beta, 5)
    return f.samples, predicted


def diagnostics_corpus() -> None:
    paths = {f"bm{K}_{seed}": rp.gen_brownian(K, seed) for K in (2, 4, 8, 12) for seed in (1, 2)}
    paths["osc"] = rp.gen_oscillatory(0.3, 0.3, 1.0, 3, 12)
    paths["cex"] = rp.gen_counterexample(0.5, 0.3, 12)
    paths["sine"] = rp.gen_analytic("sine", 10)
    paths["const"] = rp.DyadicPath(np.full(1025, 1.5), 10)
    pyramids = {name: path.pyramid() for name, path in paths.items()}
    for name, pyr in pyramids.items():
        for beta in (0.2, 0.5, 0.8):
            _emit(f"existence_report/{name}/{beta}", _outcome(rp.existence_report, pyr, beta))
    for name, beta in (("bm12_1", 1.0), ("osc", 1.0), ("const", 1.0), ("bm12_1", 1.5)):
        _emit(f"existence_report/{name}/{beta}", _outcome(rp.existence_report, pyramids[name], beta))
    # at K = 18, next to the paths above: the one-pass report, and gap prefixes
    # cut at a narrow interval's right end, at the left, middle and right
    bm18 = rp.gen_brownian(18, 1).pyramid()
    _emit("existence_report/bm18_1/0.6", _outcome(rp.existence_report, bm18, 0.6))
    width = 2.0 ** -10
    for tag, a in (("left", 0.0), ("middle", 0.5), ("right", 1.0 - width)):
        _emit(f"gap_functional/bm18_1/{tag}", _outcome(rp.gap_functional, bm18, a, a + width, 0.6))
    # DBL_MAX samples whose lowest overflowing sibling gap is on level 3
    bump = [1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0]
    big = np.finfo(float).max * np.concatenate([bump, np.ones(7), np.repeat(bump, 2)[1:]])
    _emit("existence_report/overflow",
          _outcome(rp.existence_report, rp.DyadicPath(big, 5).pyramid(), 0.6))
    intervals = [(0.0, 1.0), (0.25, 0.5), (0.5, 0.625), (0.1, 0.73), (0.3, 0.3 + 2.0 ** -6),
                 (0.0, 2.0 ** -9), (0.75, 1.0)]
    for name in ("bm12_1", "osc", "cex", "sine", "bm4_2"):
        for a, b in intervals:
            for beta in (0.3, 0.7):
                _emit(f"gap_functional/{name}/{a}/{b}/{beta}",
                      _outcome(rp.gap_functional, pyramids[name], a, b, beta))
    # gammas from 150 up make width**(beta + gamma) underflow at the finer depths
    for name, pyr in pyramids.items():
        for beta in (0.05, 0.45, 0.95):
            for gamma in (0.01, 0.5, 1.0, 5.0, 150.0, 400.0):
                for depth in (0, 1, 3, 6, 10):
                    _emit(f"scaling_norm/{name}/{beta}/{gamma}/{depth}",
                          _outcome(rp.scaling_norm, pyr, beta, gamma, depth))
    for beta, gamma in ((0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (float("nan"), 0.5),
                        (0.5, float("nan"))):
        _emit(f"scaling_norm/bad/{beta}/{gamma}",
              _outcome(rp.scaling_norm, pyramids["bm8_1"], beta, gamma))
    _emit("scaling_norm/bad-depth/-1", _outcome(rp.scaling_norm, pyramids["bm8_1"], 0.5, 0.5, -1))
    # beta = 1 is the top of the Hölder range (0, 1] that every diagnostic takes
    for name in ("bm12_1", "osc"):
        _emit(f"gap_functional/{name}/0.0/1.0/1.0",
              _outcome(rp.gap_functional, pyramids[name], 0.0, 1.0, 1.0))
        for beta in (0.45, 1.0, 1.5):
            _emit(f"adversarial_integrand/{name}/{beta}",
                  _outcome(_tent_integrand, pyramids[name], beta))
    for name in ("bm12_1", "osc", "cex", "sine"):
        for alpha in (0.3, 0.5, 1.0):
            for lags in (0, 3):
                _emit(f"holder_seminorm/{name}/{alpha}/{lags}",
                      _outcome(rp.holder_seminorm, paths[name], alpha, lags))
    _emit("holder_seminorm/bad-lag/-1", _outcome(rp.holder_seminorm, paths["bm12_1"], 0.5, -1))
    for threads in (1, 2):
        _emit(f"wiener_ensemble/{threads}",
              _outcome(rp.wiener_ensemble, [0, 2, 4], 6, 10, 11, threads=threads))
    # odd K: the bridge starts from level 0 in its scratch, not in the samples
    for K in (11, 13):
        for seed in (1, 2**40 + 3):
            _emit(f"gen_brownian/{K}/{seed}", rp.gen_brownian(K, seed).samples)
    _emit("wiener_ensemble/K11", _outcome(rp.wiener_ensemble, [0, 2, 5], 6, 11, 11, threads=2))
    _emit("wiener_ensemble/bad-k/-1", _outcome(rp.wiener_ensemble, [-1], 2, 10, 1))


def integrator_corpus() -> None:
    paths = {"bm": rp.gen_brownian(12, 4), "osc": rp.gen_oscillatory(0.3, 0.3, 1.0, 3, 12),
             "sq": rp.gen_analytic("square", 12)}
    fields = {name: rp.BUILTIN_FIELDS[name] for name in ("x", "tx", "sin_t_x", "t_plus_x2")}
    # compiled expressions: a (rows, 1) operand against (rows, 7), a constant
    # subexpression, unary minus chains, ** and pow, every function, NaN from
    # log and sqrt, one-variable values that have or lack the broadcast shape,
    # and the bare arguments
    expressions = ("sin(3*t)*exp(-x*x)+t*x", "sin(3*t)*exp(-x*x)", "2*3+x*t", "--x*-t-(-(-2))",
                   "x**2*t-pow(1+t,x)+(2+t)**-x",
                   "sin(x)+cos(t)*exp(-x)+abs(x-t)/(2+t)-sqrt(1+x*x)*log(2+t)",
                   "log(x-1)*t", "t*sqrt(x-2)", "x*x*x-sin(x)", "exp(-x*x)", "t+1", "x", "t")
    fields.update((expr, rp.field_from_expression(expr)) for expr in expressions)
    for name, path in paths.items():
        pyr = path.pyramid()
        for field, f in fields.items():
            for a, b in ((0.0, 1.0), (0.1, 0.73), (0.25, 0.5)):
                _emit(f"integrate/{name}/{field}/{a}/{b}", _outcome(rp.integrate, f, path, a, b))
                ends = (path.eval(a), path.eval(b))
                for k in (3, 6, 10):
                    _emit(f"staircase_integral/{name}/{field}/{a}/{b}/{k}",
                          _outcome(rp.staircase_integral, f, pyr, a, b, k))
                    _emit(f"staircase_integral/{name}/{field}/{a}/{b}/{k}/closed",
                          _outcome(rp.staircase_integral, f, pyr, a, b, k, endpoint_values=ends))
            for a, b, level in ((0.0, 1.0, 4), (0.25, 0.75, 6), (0.0, 0.5, 10)):
                _emit(f"cumulative_increments/{name}/{field}/{a}/{b}/{level}",
                      _outcome(rp.cumulative_increments, f, path, a, b, level))
        for f_name, f in (("x", lambda x: x), ("abs03", lambda x: np.abs(x) ** 0.3)):
            _emit(f"integrate_state_only/{name}/{f_name}",
                  _outcome(rp.integrate_state_only, f, path, 0.0, 1.0))
    # the builtins and their time partials on integer arrays and Python ints
    t_int, x_int = np.arange(-2, 2).reshape(4, 1), np.arange(-3, 3)
    for name, f in rp.BUILTIN_FIELDS.items():
        _emit(f"builtin/{name}/int", [fn(t, x) for fn in (f.evaluate, f.dt_partial) if fn
                                      for t, x in ((t_int, x_int), (2, 3))])
    _emit("staircase_integral/bad-level/0",
          _outcome(rp.staircase_integral, fields["x"], paths["bm"].pyramid(), 0.0, 1.0, 0))
    linear = rp.MatrixField.linear_in_y()
    sin_y = rp.MatrixField.scalar(lambda t, y, x: np.sin(x[0]) * y[0], depends_on_driver=True)
    problems = {
        "linear": rp.OdeProblem(F=linear, drivers=[rp.gen_analytic("linear", 12)],
                                y0=np.array([1.0]), beta=0.9),
        "bm": rp.OdeProblem(F=linear, drivers=[rp.gen_brownian(12, 2)],
                            y0=np.array([-0.5]), beta=0.5),
        "sin": rp.OdeProblem(F=sin_y, drivers=[rp.gen_brownian(12, 3)],
                             y0=np.array([1.0]), beta=0.5),
    }
    for name, problem in problems.items():
        for grid_level in (6, 8):
            _emit(f"solve/{name}/{grid_level}",
                  _outcome(rp.solve, problem, rp.SolverConfig(grid_level=grid_level,
                                                              check_drivers=False)))
    # sweeps on windows that start after 0, and the sweep's refusals: a y_start
    # of the wrong shape, a negative grid level and a non-finite iterate
    rng = np.random.default_rng(7)
    for name, problem in problems.items():
        for a, b, grid_level in ((0.25, 0.75, 6), (0.5, 1.0, 8)):
            y = rng.uniform(0.5, 2.0, (1, round((b - a) * (1 << grid_level)) + 1))
            _emit(f"picard_operator/{name}/{a}/{b}/{grid_level}",
                  _outcome(rp.picard_operator, problem, y, a, b, grid_level))
    y = np.ones((1, 2**6 + 1))
    for tag, y_start in (("two", np.array([1.0, 2.0])), ("scalar", 1.0), ("2-d", np.ones((1, 1)))):
        _emit(f"picard_operator/y_start/{tag}",
              _outcome(rp.picard_operator, problems["linear"], y, 0.0, 1.0, 6, y_start=y_start))
    _emit("picard_operator/level/-1",
          _outcome(rp.picard_operator, problems["linear"], np.ones((1, 2)), 0.0, 1.0, -1))
    for bad in (np.nan, np.inf):
        y_bad = y.copy()
        y_bad[0, 17] = bad
        _emit(f"picard_operator/iterate/{bad}",
              _outcome(rp.picard_operator, problems["linear"], y_bad, 0.0, 1.0, 6))
    # beta = 1 through solve's driver check
    problem = rp.OdeProblem(F=linear, drivers=[rp.gen_analytic("linear", 12)],
                            y0=np.array([1.0]), beta=1.0)
    _emit("solve/linear/beta/1", _outcome(rp.solve, problem, rp.SolverConfig(grid_level=6)))
    # time-only components reading both drivers: at grid level 4 the K = 12
    # driver's window plan reads the K = 8 driver through eval, all others by stride
    two = rp.MatrixField([[
        rp.FieldComponent(lambda t, y, x: 0.3 * y[0] * np.cos(x[0] + x[1])),
        rp.FieldComponent(lambda t, y, x: -0.2 * (np.sin(3.0 * t) + x[1] * y[0] - x[0])),
    ]])
    problem = rp.OdeProblem(F=two, drivers=[rp.gen_brownian(8, 5), rp.gen_brownian(12, 6)],
                            y0=np.array([1.0]), beta=0.5)
    _emit("solve/two-drivers/4",
          _outcome(rp.solve, problem, rp.SolverConfig(tol=1e-9, grid_level=4,
                                                      check_drivers=False)))
    # continuity_experiment's refusals: problems of another m, d, driver
    # resolution or horizon than a linear K = 10 problem
    def linear_problem(K=10, m=1, d=1, horizon=1.0):
        F = rp.MatrixField([[rp.FieldComponent(lambda t, y, x, i=i: y[i])] * d for i in range(m)])
        return rp.OdeProblem(F=F, drivers=[rp.gen_analytic("linear", K)] * d,
                             y0=np.ones(m), beta=0.5, horizon=horizon)

    others = {"m/2": linear_problem(m=2), "d/2": linear_problem(d=2),
              "resolution/12": linear_problem(K=12), "resolution/8": linear_problem(K=8),
              "horizon/0.5": linear_problem(horizon=0.5)}
    for tag, other in others.items():
        _emit(f"continuity_experiment/{tag}",
              _outcome(rp.continuity_experiment, linear_problem(), other,
                       rp.SolverConfig(grid_level=5, check_drivers=False)))


def reproduce_corpus() -> None:
    for name in experiments.CRITERIA_ORDER:
        fn = experiments.CRITERIA[name][0]
        _emit(f"reproduce/{name}", _outcome(fn))


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="roughpath-digest-") as tmp:
        os.chdir(tmp)
        try:
            cli_corpus()
        finally:
            os.chdir(home)
    integrator_corpus()
    diagnostics_corpus()
    reproduce_corpus()
    return 0


if __name__ == "__main__":
    sys.exit(main())
