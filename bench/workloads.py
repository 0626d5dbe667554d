"""The four closed-loop workloads of the benchmark.

Each workload builds its inputs from the seed (``build``), runs one operation
per call against the public roughpath API or CLI (``op``), and checks a
result against an independent reference (``check_first``).  Operations cycle
through a fixed pool of inputs; ``key(i)`` names the input op ``i`` used.
The first result of every key is checked in depth, and every later op with
the same key must give a bit-identical result (``digest``), so every op is
checked while the reference work stays bounded by the pool size.

Calls go through module attributes (``rp.integrate``, ``rp_cli.main``) at
call time, so the tracer's wrappers see them.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import roughpath as rp
from roughpath import cli as rp_cli
from roughpath import io as rp_io


def identity(fn):
    return fn


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _distinct_seeds(rng, count: int, stride: int = 1) -> list[int]:
    """``count`` distinct path seeds, spaced by ``stride`` so seed ranges never overlap."""
    picks = rng.choice(1 << 24, size=count, replace=False)
    return [int(p) * stride for p in picks]


def _wrap_field(field, wrap):
    if wrap is identity:
        return field
    return dataclasses.replace(field, evaluate=wrap(field.evaluate))


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def reference_brownian(K: int, seed: int) -> np.ndarray:
    """Midpoint-bridge Brownian samples, written out from the generator's contract.

    Level j fills the midpoints of the level-(j-1) grid with the mean of the
    two neighbours plus 2**(-(j+1)/2) times normals from a Philox stream keyed
    by (seed, j); the endpoint uses level 0.  Used only as a reference.
    """

    def normals(level, count):
        key = np.array([seed, level], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key)).standard_normal(count)

    coarse = np.array([0.0, normals(0, 1)[0]])
    for j in range(1, K + 1):
        mids = 0.5 * (coarse[:-1] + coarse[1:]) + 2.0 ** (-(j + 1) / 2) * normals(j, coarse.size - 1)
        fine = np.empty(2 * coarse.size - 1)
        fine[0::2] = coarse
        fine[1::2] = mids
        coarse = fine
    return coarse


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


class Workload:
    name = ""
    why = ""
    trace_ops = 1       # ops in the warm-up and in each untraced and traced pass
    kernel = "interp"   # calibration kernel whose slowdown tracks this workload's (calibration.py)

    def build(self, seed: int, wrap=identity):
        raise NotImplementedError

    def key(self, i: int):
        raise NotImplementedError

    def op(self, inputs, i: int):
        raise NotImplementedError

    def digest(self, inputs, i: int, result) -> str:
        raise NotImplementedError

    def check_first(self, inputs, i: int, result) -> list[str]:
        raise NotImplementedError

    def input_digest(self, inputs) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class IntegrateRough(Workload):
    """integrate(field, path, a, b) on Brownian paths at K=18.

    On these paths no level converges, so every call runs levels 2..16: about
    131k vertical segments and 3.1M field points per call on [0, 1].  Paths
    are generated during set-up, so ops do no RNG work.  Each op wraps the
    pooled samples in a fresh DyadicPath, so its pyramid is built inside the
    op as it would be for a caller's new path.
    """

    name = "integrate-rough"
    why = "staircase limit on K=18 Brownian paths; carries quadrature, integrator and fields"
    K = 18
    INTERVALS = ((0.0, 1.0), (0.25, 0.75), (0.0, 0.5))
    EXPR = "sin(3*t)*exp(-x*x)+t*x"
    FIELD_NAMES = ("sin_t_x", "tx", "expr")
    POOL = 9            # one path per (field, interval) pair
    trace_ops = 9
    GREEN_FACTOR = 2.0  # allowed gap, in units of the last level-to-level change

    def build(self, seed, wrap=identity):
        seeds = _distinct_seeds(_rng(self.name, seed), self.POOL)
        samples = [rp.gen_brownian(self.K, s).samples for s in seeds]
        fields = [
            _wrap_field(rp.BUILTIN_FIELDS["sin_t_x"], wrap),
            _wrap_field(rp.BUILTIN_FIELDS["tx"], wrap),
            _wrap_field(rp.field_from_expression(self.EXPR), wrap),
        ]
        return SimpleNamespace(seeds=seeds, samples=samples, fields=fields)

    def key(self, i):
        return i % self.POOL

    def _case(self, k):
        return self.FIELD_NAMES[k % 3], self.INTERVALS[k // 3]

    def op(self, inputs, i):
        k = i % self.POOL
        a, b = self.INTERVALS[k // 3]
        path = rp.DyadicPath(inputs.samples[k], self.K)
        return rp.integrate(inputs.fields[k % 3], path, a, b)

    def digest(self, inputs, i, result):
        return _sha(
            np.asarray(result.level_values).tobytes(), result.value.hex(),
            result.levels, result.converged,
        )

    def _reference_field(self, name):
        if name != "expr":
            return rp.BUILTIN_FIELDS[name]
        return rp.ScalarField(
            evaluate=lambda t, x: np.sin(3.0 * t) * np.exp(-x * x) + t * x,
            depends_on="both",
            dt_partial=lambda t, x: 3.0 * np.cos(3.0 * t) * np.exp(-x * x) + x,
        )

    def check_first(self, inputs, i, result):
        k = i % self.POOL
        name, (a, b) = self._case(k)
        samples = inputs.samples[k]
        path = rp.DyadicPath(samples, self.K)
        errors = []
        # Green-identity route: an independent evaluation of the same limit.
        ref = self._reference_field(name)
        green = rp.green_eval(ref, path, b).total
        if a > 0.0:
            green -= rp.green_eval(ref, path, a).total
        lv = np.asarray(result.level_values)
        last_changes = np.abs(np.diff(lv[-3:]))
        allowed = self.GREEN_FACTOR * float(last_changes.max()) + 1e-9
        if not abs(result.value - green) <= allowed:
            errors.append(
                f"{name} on [{a}, {b}]: value {result.value!r} vs Green {green!r} "
                f"(allowed {allowed:.3g})"
            )
        if result.value != lv[-1]:
            errors.append("value is not the last level value")
        # Closed form on the field x: (g(b)^2 - g(a)^2) / 2 on any continuous path.
        n = 1 << self.K
        ga, gb = samples[round(a * n)], samples[round(b * n)]
        got = rp.integrate(rp.BUILTIN_FIELDS["x"], path, a, b).value
        want = 0.5 * (gb * gb - ga * ga)
        if not abs(got - want) <= 1e-10:
            errors.append(f"field x on [{a}, {b}]: {got!r} vs closed form {want!r}")
        return errors

    def input_digest(self, inputs):
        return _sha(inputs.seeds, *(s.tobytes() for s in inputs.samples))


# ---------------------------------------------------------------------------


class PicardSolve(Workload):
    """solve(OdeProblem(F, [driver]), SolverConfig(grid_level=8)) on K=14 drivers.

    Two F kinds: sin(x)*y reads the driver and needs inner quadrature;
    linear_in_y() is time-only after composition and needs none.  The cycle is
    one sin(x)*y op to two linear ops, so the median falls inside one mode
    (linear) and the tail inside the other (sin(x)*y) rather than on the
    boundary between them.  K=14 with grid level 8 keeps the solver's shape at
    K=16, L=10 (cumulative_increments sweeps 4 levels, 8 refine_batch calls)
    at about a sixth of the cost.  The Picard iteration count varies by about
    20% from path to path; at K=16 a 20 s run saw about 35 sin(x)*y ops and
    its tail moved by 15% from seed to seed.
    """

    name = "picard-solve"
    why = "Picard solves on K=14 Brownian drivers; carries ode, cumulative_increments and diagnostics"
    K = 14
    L = 8
    BETA = 0.6
    POOL = 256
    trace_ops = 6
    kernel = "mixed"
    # Staircase and grid-interpolation error of the solver at K=14, L=8: the
    # worst of 200 seeds was 0.032 (sin) and 0.064 (linear).
    REL_TOL = {"sin": 0.08, "linear": 0.15}

    def build(self, seed, wrap=identity):
        seeds = _distinct_seeds(_rng(self.name, seed), self.POOL)
        samples = [rp.gen_brownian(self.K, s).samples for s in seeds]
        sin_f = rp.MatrixField.scalar(
            wrap(lambda t, y, x: np.sin(x[0]) * y[0]), depends_on_driver=True
        )
        linear = rp.MatrixField.linear_in_y()
        if wrap is not identity:
            comp = linear.components[0][0]
            linear = rp.MatrixField([[dataclasses.replace(comp, evaluate=wrap(comp.evaluate))]])
        return SimpleNamespace(seeds=seeds, samples=samples, F={"sin": sin_f, "linear": linear})

    def _kind(self, i):
        return "sin" if i % 3 == 0 else "linear"

    def key(self, i):
        return (i % self.POOL, self._kind(i))

    def op(self, inputs, i):
        driver = rp.DyadicPath(inputs.samples[i % self.POOL], self.K)
        problem = rp.OdeProblem(
            F=inputs.F[self._kind(i)], drivers=[driver], y0=np.array([1.0]), beta=self.BETA
        )
        return rp.solve(problem, rp.SolverConfig(grid_level=self.L))

    def digest(self, inputs, i, result):
        return _sha(result.t.tobytes(), result.y.tobytes(), result.residual.hex(),
                    json.dumps(result.windows), result.converged)

    def check_first(self, inputs, i, result):
        kind = self._kind(i)
        samples = inputs.samples[i % self.POOL]
        errors = []
        tol = rp.SolverConfig().tol
        if not result.residual <= tol:
            errors.append(f"residual {result.residual!r} above solver tolerance {tol}")
        grid = np.arange((1 << self.L) + 1) / (1 << self.L)
        if not np.array_equal(result.t, grid):
            errors.append(f"solution grid is not the level-{self.L} grid")
            return errors
        x = samples[:: 1 << (self.K - self.L)]
        if kind == "sin":
            exact = np.exp(np.cos(x[0]) - np.cos(x))
        else:
            exact = np.exp(x - x[0])
        rel = float(np.abs(result.y[0] - exact).max() / np.abs(exact).max())
        if not rel <= self.REL_TOL[kind]:
            errors.append(f"{kind}: relative error {rel:.3g} against the closed form")
        return errors

    def input_digest(self, inputs):
        return _sha(inputs.seeds, *(s.tobytes() for s in inputs.samples))


# ---------------------------------------------------------------------------


class BrownianEnsemble(Workload):
    """One batch per op: wiener_ensemble at K=18 plus ito_compare on K=14 paths.

    The cost is RNG and the bridge in generators, pyramids in dyadic and the
    time integrals in calculus; the staircase quadrature is barely used.
    Paths are generated inside the op, as the ensemble entry points do.
    """

    name = "brownian-ensemble"
    why = "Wiener-statistic and Ito-correction ensembles; carries generators, dyadic and calculus"
    LEVELS = (8, 10, 12)
    N_PATHS = 10
    K_WIENER = 18
    K_ITO = 14
    POOL = 4
    trace_ops = 4

    def build(self, seed, wrap=identity):
        # Each op uses seeds base .. base + 2*N_PATHS - 1; bases are spaced apart.
        bases = _distinct_seeds(_rng(self.name, seed), self.POOL, stride=2 * self.N_PATHS)
        return SimpleNamespace(
            bases=bases,
            f=wrap(lambda x: np.square(x)),
            fprime=wrap(lambda x: 2.0 * x),
        )

    def key(self, i):
        return i % self.POOL

    def _ito_seeds(self, base):
        return [base + self.N_PATHS + m for m in range(self.N_PATHS)]

    def op(self, inputs, i):
        base = inputs.bases[i % self.POOL]
        report = rp.wiener_ensemble(
            list(self.LEVELS), n_paths=self.N_PATHS, K=self.K_WIENER, seed=base, threads=1
        )
        paths = [rp.gen_brownian(self.K_ITO, s) for s in self._ito_seeds(base)]
        ito = rp.ito_compare(inputs.f, paths, 1.0, fprime=inputs.fprime)
        return report, ito

    def digest(self, inputs, i, result):
        report, ito = result
        return _sha(json.dumps(report, sort_keys=True), ito["residuals"].tobytes())

    def check_first(self, inputs, i, result):
        report, ito = result
        base = inputs.bases[i % self.POOL]
        errors = []
        # Wiener statistics from reference paths and a reshape-mean pyramid.
        stats = np.empty((self.N_PATHS, len(self.LEVELS)))
        for row, s in enumerate(range(base, base + self.N_PATHS)):
            w = reference_brownian(self.K_WIENER, s)
            cells = 0.5 * (w[:-1] + w[1:])
            for col, k in enumerate(self.LEVELS):
                h = cells.reshape(1 << (k + 1), -1).mean(axis=1)
                stats[row, col] = 2.0 ** (-k / 2.0) * np.abs(h[0::2] - h[1::2]).sum()
        for col, level in enumerate(report["levels"]):
            mean = float(stats[:, col].mean())
            var = float(stats[:, col].var(ddof=1))
            if level["k"] != self.LEVELS[col] or not (
                _close(level["mean"], mean, 1e-9) and _close(level["variance"], var, 1e-7)
            ):
                errors.append(f"wiener level {level['k']}: {level} vs reference mean {mean!r}")
        # Ito correction identity: for f = x^2 the residual is exactly
        # g(1)^3/3 - sum g_i^2 dg_i - integral of g dt on the piecewise-linear path.
        residuals = np.asarray(ito["residuals"])
        for m, s in enumerate(self._ito_seeds(base)):
            g = reference_brownian(self.K_ITO, s)
            dt = 1.0 / (g.size - 1)
            want = g[-1] ** 3 / 3.0 - float(np.square(g[:-1]) @ np.diff(g)) - dt * (
                g.sum() - 0.5 * (g[0] + g[-1])
            )
            if not abs(residuals[m] - want) <= 1e-9:
                errors.append(f"ito residual of seed {s}: {residuals[m]!r} vs {want!r}")
        # Generator contract, refinement consistency and the parent-mean identity.
        s0 = self._ito_seeds(base)[0]
        path = rp.gen_brownian(self.K_ITO, s0)
        if not np.array_equal(path.samples, reference_brownian(self.K_ITO, s0)):
            errors.append(f"gen_brownian({self.K_ITO}, {s0}) differs from the reference bridge")
        if not np.array_equal(path.samples[::2], rp.gen_brownian(self.K_ITO - 1, s0).samples):
            errors.append(f"seed {s0}: K={self.K_ITO} samples[::2] differ from K={self.K_ITO - 1}")
        pyramid = path.pyramid()
        for k in range(pyramid.K - 1):
            child = pyramid.level(k + 1)
            if not np.array_equal(pyramid.level(k), 0.5 * (child[0::2] + child[1::2])):
                errors.append(f"seed {s0}: parent-mean identity fails at level {k}")
        g1 = float(path.samples[-1])
        state_only = rp.integrate_state_only(lambda x: np.square(x), path, 0.0, 1.0)
        if not _close(state_only, g1 ** 3 / 3.0, 1e-12):
            errors.append(f"integrate_state_only(x^2) = {state_only!r} vs g(1)^3/3")
        if nproc() >= 2:  # the run starts no more threads than there are cores
            threaded = rp.wiener_ensemble(
                list(self.LEVELS), n_paths=self.N_PATHS, K=self.K_WIENER, seed=base, threads=2
            )
            if threaded != report:
                errors.append("wiener_ensemble differs between threads=1 and threads=2")
        return errors

    def input_digest(self, inputs):
        return _sha(inputs.bases)


# ---------------------------------------------------------------------------


class CliFiles(Workload):
    """One in-process ``cli.main([...])`` call per op on files in a work directory.

    Set-up writes one K=14 Brownian path CSV per pooled seed with the io layer.
    The five calls per seed are gen-path, diagnose, averages, integrate (an
    x-only expression, which converges, so exit 0) and solve-ode.  Each call
    reads only set-up files and writes its own outputs, so every op's output
    depends on its key alone.  solve-ode uses the constant field, whose cost
    does not depend on the path: the median op falls in its band of the
    five-command mix, so a path-dependent cost there would make the median
    follow the seed.  The Picard solver itself is measured by picard-solve.
    """

    name = "cli-files"
    why = "CLI subcommands on CSV/JSON files; carries io and cli"
    K = 14
    BETA = "0.6"
    EXPR = "x*x*x-sin(x)"
    COMMANDS = ("gen-path", "diagnose", "averages", "integrate", "solve-ode")
    POOL = 6
    trace_ops = 5 * 6
    kernel = "vector"

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)

    def build(self, seed, wrap=identity):
        # The CLI builds its own fields from strings, so ``wrap`` has nothing to wrap.
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        seeds = _distinct_seeds(_rng(self.name, seed), self.POOL)
        for j, s in enumerate(seeds):
            rp_io.write_path_csv(rp.gen_brownian(self.K, s), self._file("path", j, "csv"))
        return SimpleNamespace(seeds=seeds)

    def _file(self, stem, j, ext):
        return str(self.workdir / f"{stem}{j}.{ext}")

    def key(self, i):
        return i % (len(self.COMMANDS) * self.POOL)

    def _argv(self, inputs, i):
        command = self.COMMANDS[i % 5]
        j = (i // 5) % self.POOL
        src = self._file("path", j, "csv")
        if command == "gen-path":
            return command, j, ["gen-path", "--kind", "brownian", "--K", str(self.K),
                                "--seed", str(inputs.seeds[j]), "--out", self._file("gen", j, "csv")]
        if command == "diagnose":
            return command, j, ["diagnose", "--path", src, "--beta", self.BETA, "--json",
                                "--json-out", self._file("diagnose", j, "json")]
        if command == "averages":
            return command, j, ["averages", "--path", src, "--out", self._file("pyramid", j, "csv")]
        if command == "integrate":
            return command, j, ["integrate", "--path", src, "--field", self.EXPR,
                                "--json-out", self._file("integral", j, "json")]
        return command, j, ["solve-ode", "--drivers", src, "--F", "constant", "--beta", self.BETA,
                            "--out", self._file("ode", j, "csv"), "--json-out", self._file("ode", j, "json")]

    def _outputs(self, command, j):
        return {
            "gen-path": [self._file("gen", j, "csv")],
            "diagnose": [self._file("diagnose", j, "json")],
            "averages": [self._file("pyramid", j, "csv")],
            "integrate": [self._file("integral", j, "json")],
            "solve-ode": [self._file("ode", j, "csv"), self._file("ode", j, "json")],
        }[command]

    def op(self, inputs, i):
        _command, _j, argv = self._argv(inputs, i)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rp_cli.main(argv)
        return code, out.getvalue()

    def digest(self, inputs, i, result):
        command, j, _argv = self._argv(inputs, i)
        code, stdout = result
        return _sha(code, stdout, *(Path(f).read_bytes() for f in self._outputs(command, j)))

    def check_first(self, inputs, i, result):
        command, j, _argv = self._argv(inputs, i)
        code, stdout = result
        if code != 0:
            return [f"{command} on seed {inputs.seeds[j]}: exit code {code}: {stdout.strip()}"]
        path = rp_io.read_path_csv(self._file("path", j, "csv"))
        try:
            return self._check_command(command, j, stdout, path)
        except (ValueError, KeyError, OSError) as exc:
            return [f"{command}: output does not parse: {exc!r}"]

    def _check_command(self, command, j, stdout, path):
        errors = []
        if command == "gen-path":
            data = np.loadtxt(self._file("gen", j, "csv"), delimiter=",", skiprows=1)
            if not (np.array_equal(data[:, 1], path.samples) and np.array_equal(data[:, 0], path.grid)):
                errors.append("gen-path CSV differs from gen_brownian")
            if Path(self._file("gen", j, "csv")).read_bytes() != Path(self._file("path", j, "csv")).read_bytes():
                errors.append("gen-path CSV differs from io.write_path_csv output")
        elif command == "diagnose":
            want = rp.existence_report(path.pyramid(), float(self.BETA)).to_json()
            printed = json.loads(stdout)
            saved = json.loads(Path(self._file("diagnose", j, "json")).read_text())
            if printed != want or saved != want:
                errors.append("diagnose JSON differs from existence_report")
        elif command == "averages":
            data = np.loadtxt(self._file("pyramid", j, "csv"), delimiter=",", skiprows=1)
            pyramid = rp.average_pyramid(path)
            levels = np.concatenate([pyramid.level(k) for k in range(pyramid.K)])
            ks = np.concatenate([np.full(1 << k, k) for k in range(pyramid.K)])
            ns = np.concatenate([np.arange(1 << k) for k in range(pyramid.K)])
            if data.shape != (levels.size, 3) or not (
                np.array_equal(data[:, 2], levels)
                and np.array_equal(data[:, 0], ks)
                and np.array_equal(data[:, 1], ns)
            ):
                errors.append("averages CSV differs from average_pyramid")
        elif command == "integrate":
            result = rp.integrate(rp.resolve_field(self.EXPR), path, 0.0, 1.0)
            want = {
                "value": result.value,
                "converged": bool(result.converged),
                "levels": list(result.levels),
                "level_values": [float(v) for v in result.level_values],
            }
            saved = json.loads(Path(self._file("integral", j, "json")).read_text())
            if json.loads(stdout) != want or saved != want or not want["converged"]:
                errors.append("integrate JSON differs from integrate() or did not converge")
        else:
            problem = rp.OdeProblem(
                F=rp.MatrixField.constant(1.0), drivers=[path], y0=np.array([1.0]),
                beta=float(self.BETA),
            )
            solution = rp.solve(problem, rp.SolverConfig())
            data = np.loadtxt(self._file("ode", j, "csv"), delimiter=",", skiprows=1)
            saved = json.loads(Path(self._file("ode", j, "json")).read_text())
            if not (np.array_equal(data[:, 0], solution.t) and np.array_equal(data[:, 1], solution.y[0])):
                errors.append("solve-ode CSV differs from solve()")
            if saved != json.loads(stdout) or saved["residual"] != solution.residual:
                errors.append("solve-ode sidecar differs from solve()")
        return errors

    def input_digest(self, inputs):
        return _sha(inputs.seeds, *(
            Path(self._file("path", j, "csv")).read_bytes() for j in range(self.POOL)
        ))


def make(name: str, workdir: Path) -> Workload:
    if name == CliFiles.name:
        return CliFiles(workdir)
    for cls in (IntegrateRough, PicardSolve, BrownianEnsemble):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (IntegrateRough.name, PicardSolve.name, BrownianEnsemble.name, CliFiles.name)
