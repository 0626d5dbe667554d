"""Picard fixed-point solver for systems dy = F(t, y, x) dx driven by
irregular paths.

Each sweep of the operator y -> y0 + integral of F(., y, x) dx is evaluated
with the staircase machinery, component by component: for the j-th driver the
integrand is F_ij with every argument except x_j frozen along the current
iterate.  Windows are runs of whole grid cells, accepted on sup-norm
contraction and chained; failure halves a window's cell count.

On a window the staircase verticals depend only on the drivers, the window
and the grid level, never on the iterate.  So each driver's skeleton, and
every driver's values at its times, read by stride from the samples of every
driver resolved that finely, are built once per window, kept on the problem,
and shared by all its sweeps and the residual check; so is the first
quadrature panel of every vertical that a component reading its driver
integrates over.  A sweep builds the iterate at each skeleton's times as one
read-only table, by ``np.interp``'s arithmetic, and calls the staircase
kernel's two sums: a time-only component is evaluated once, at the times,
and one reading its driver on quadrature rows, each at its column of the
times.  F's value is passed on as is when it has the shape the sum asks for.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import existence_report
from .dyadic import DyadicPath, _check_beta, _grid_span, holder_seminorm
from .errors import (BadInterval, LengthMismatch, LevelOutOfRange,
                     NonFinite, NonFiniteIterate, SchemaError, WindowUnderflow)
from .integrator import (_grid_values, _increment_skeleton, _Skeleton, _sum_at_times,
                         _sum_by_quadrature)
# Sweeps no longer call it, but bench/selftest.py looks it up on this module.
from .integrator import cumulative_increments  # noqa: F401
from .quadrature import _QUAD_TOL, _panel_grid


@dataclass(frozen=True)
class FieldComponent:
    """One entry F_ij of the system field.

    ``evaluate(t, y, x)`` is elementwise over arguments that broadcast
    against each other: y[i] and x[q] broadcast with t, and the result
    broadcasts to their common shape.  ``depends_on_driver`` says whether
    F_ij reads its own integration variable x_j.  When False the integrand
    is a pure function of time and needs no inner quadrature; t has shape
    (N,) and y, x stack N values per row.  When True, x[j] is the
    (rows, nodes) quadrature grid while t and every y[i] have shape
    (rows, 1); other drivers are spread to the grid's shape.  A time-only
    component's t, y and x are shared with the driver's other components and
    with later sweeps, so they are read-only.
    """

    evaluate: callable
    depends_on_driver: bool = False


class MatrixField:
    """m x d matrix of FieldComponents with convenience constructors."""

    def __init__(self, components: list[list[FieldComponent]]):
        if not isinstance(components, list) or not all(isinstance(row, list) for row in components):
            raise SchemaError("component matrix must be a list of rows")
        self.m = len(components)
        self.d = len(components[0]) if components else 0
        if self.d == 0:
            raise SchemaError("empty component matrix")
        if any(len(row) != self.d for row in components):
            raise SchemaError("ragged component matrix")
        if not all(isinstance(c, FieldComponent) for row in components for c in row):
            raise SchemaError("component matrix entries must be FieldComponents")
        self.components = components

    @staticmethod
    def scalar(evaluate, depends_on_driver=False) -> "MatrixField":
        return MatrixField([[FieldComponent(evaluate, depends_on_driver)]])

    @staticmethod
    def linear_in_y() -> "MatrixField":
        """F(t, y, x) = y for m = d = 1."""
        return MatrixField.scalar(lambda t, y, x: y[0])

    @staticmethod
    def constant(c: float) -> "MatrixField":
        return MatrixField.scalar(lambda t, y, x: np.full_like(np.asarray(t, dtype=float), c))


@dataclass(frozen=True)
class OdeProblem:
    """The driven system dy = F(t, y, x) dx, y(0) = y0 on [0, horizon].

    The window plans of ``picard_operator`` are cached on the problem, keyed
    by (a, b, grid_level), the way a path caches its pyramid.
    """

    F: MatrixField
    drivers: list[DyadicPath]
    y0: np.ndarray
    beta: float
    horizon: float = 1.0
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "y0", np.atleast_1d(np.asarray(self.y0, dtype=float)))
        if len(self.drivers) != self.F.d or self.y0.size != self.F.m:
            raise LengthMismatch("dimension mismatch between F, drivers, and y0")
        if not np.isfinite(self.y0).all():
            raise NonFinite("y0 must be finite")
        _check_beta(self.beta)
        if not 0.0 < self.horizon <= 1.0:
            raise BadInterval("horizon must lie in (0, 1]")


# Fixed window policy of ``solve``: the smallest window before
# ``WindowUnderflow``, the sweep cap per window, and how many trailing
# sup-norm change ratios the contraction estimate averages.
_MIN_WINDOW = 2.0 ** -8
_MAX_PICARD = 100
_CONTRACTION_WINDOW = 3


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8                 # Picard stopping and residual tolerance
    grid_level: int | None = None     # default: driver resolution - 4
    check_drivers: bool = True


@dataclass(frozen=True, eq=False)
class OdeSolution:
    t: np.ndarray
    y: np.ndarray                      # shape (m, len(t))
    windows: list[dict]
    residual: float
    converged: bool                    # residual <= tol


def picard_operator(
    problem: OdeProblem,
    y_current: np.ndarray,
    a: float,
    b: float,
    grid_level: int,
    y_start: np.ndarray | None = None,
) -> np.ndarray:
    """One application of the fixed-point map on the window [a, b].

    ``y_current`` holds the iterate on the level grid of [a, b] (shape
    (m, n_grid)) and must be finite; the return value is y_start + the
    cumulative component integrals on the same grid, with y_start of shape
    (m,).  Each component's increments are the closed staircase sums of
    ``cumulative_increments`` on driver j's cached skeleton: ``_sum_at_times``
    of a time-only F_ij's values, or ``_sum_by_quadrature`` of its
    ``_row_evaluator``, both reading the iterate from ``_iterate_table``.
    """
    m = problem.F.m
    if grid_level < 0:
        raise LevelOutOfRange(f"grid level {grid_level} is negative")
    ia, ib = _grid_span(a, b, grid_level)
    y_current = np.asarray(y_current, dtype=float)
    if y_current.shape != (m, ib - ia + 1):
        raise LengthMismatch("iterate shape does not match the window grid")
    y_start = problem.y0 if y_start is None else np.asarray(y_start, dtype=float)
    if y_start.shape != (m,):
        raise LengthMismatch(f"y_start must hold one value per component, shape ({m},)")
    if not np.isfinite(y_current).all():
        raise NonFiniteIterate("Picard iterate must be finite")
    out = np.empty_like(y_current)
    out[:] = y_start[:, None]
    for j, (sk, x_at, grid) in enumerate(_window_plan(problem, a, b, grid_level)):
        table = _iterate_table(y_current, sk, grid_level)
        for i in range(m):
            comp = problem.F.components[i][j]
            if comp.depends_on_driver:
                eval_cols = _row_evaluator(comp.evaluate, j, problem.drivers, sk.times, table)
                sums = _sum_by_quadrature(sk, eval_cols, _QUAD_TOL, grid)
            else:
                values = comp.evaluate(sk.times, table, x_at)
                sums = _sum_at_times(sk, _shaped(values, sk.times.shape))
            out[i, 1:] += np.cumsum(sums)
    if not np.isfinite(out).all():
        raise NonFiniteIterate("Picard sweep produced non-finite values")
    return out


def _iterate_table(y_current: np.ndarray, sk: _Skeleton, grid_level: int) -> np.ndarray:
    """The iterate, linearly interpolated between its grid points, at the skeleton's times.

    One read-only (m, len(times)) table, built once per sweep and shared by
    every component of the driver.  It equals ``np.interp(sk.times, t_grid,
    row)`` for every row bit for bit, by ``np.interp``'s own arithmetic: the
    time c * 2**-k past grid point j, 0 < c < span, gets slope * (c * 2**-k)
    + y[j] with slope = (y[j + 1] - y[j]) * 2**grid_level, exact since the
    cell width is 2**-grid_level, and grid points and the last point are
    copied.  A finite iterate whose slope passes the float range gives +-inf
    there, as ``np.interp`` does, and no warning.
    """
    m, n = y_current.shape
    span = sk.span
    left = y_current[:, :-1]
    table = np.empty((m, (n - 1) * span + 1))
    body = table[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"):   # silent, as np.interp is
        slope = (y_current[:, 1:] - left) * 2.0 ** grid_level
        np.multiply(slope.repeat(span, axis=1), sk.offsets, out=body)
        body += left.repeat(span, axis=1)
    body[:, ::span] = left         # grid points: exact, where slope * 0 may be nan
    table[:, -1] = y_current[:, -1]
    table.flags.writeable = False
    return table


def _window_plan(problem: OdeProblem, a: float, b: float, grid_level: int) -> list[tuple]:
    """One (skeleton, x_at, grid) triple per driver j for the window [a, b], built on first use.

    ``x_at`` holds every driver's values at the skeleton's times, shape
    (d, len(times)), read-only since F receives it; it is None when column j
    has no time-only component.  The times sit on the skeleton's level-k
    grid, so a driver resolved to level k or finer is read from its samples
    by stride, and only a coarser one, in a system of mixed resolutions, is
    interpolated by ``eval``.  ``grid`` is the first-panel quadrature grid of
    the skeleton's verticals, read-only; it is None when no component of
    column j reads x_j.
    """
    key = (a, b, grid_level)
    if key not in problem._plans:
        plan = problem._plans[key] = []
        for j, driver in enumerate(problem.drivers):
            sk = _increment_skeleton(driver, a, b, grid_level)
            column = [row[j].depends_on_driver for row in problem.F.components]
            x_at = grid = None
            if not all(column):
                n = sk.n_blocks * sk.span
                x_at = np.empty((len(problem.drivers), n + 1))
                for q, d in enumerate(problem.drivers):
                    x_at[q] = (_grid_values(d, sk.k, sk.first, sk.first + n)
                               if d.resolution_level >= sk.k else d.eval(sk.times))
                x_at.flags.writeable = False
            if any(column):
                grid = _panel_grid(sk.lo, sk.hi)
                for array in grid:
                    array.flags.writeable = False
            plan.append((sk, x_at, grid))
    return problem._plans[key]


def _row_evaluator(evaluate, j: int, drivers, times: np.ndarray, table: np.ndarray):
    """F_ij for a component reading x_j, on quadrature rows at ``columns`` of
    ``times`` and of the iterate's ``table``: t and y get (rows, 1) columns;
    the other drivers, read at t, and the value get the grid's shape."""
    def eval_cols(columns, x):
        t = times.take(columns)[:, None]
        if len(drivers) == 1:
            xx = x[None]
        else:
            xx = np.stack([x if q == j else np.broadcast_to(d.eval(t), x.shape)
                           for q, d in enumerate(drivers)])
        return _shaped(evaluate(t, table.take(columns[:, None], axis=1), xx), x.shape)

    return eval_cols


def _shaped(value, shape: tuple) -> np.ndarray:
    """F's value as floats, broadcast to ``shape`` only when it has another shape."""
    value = np.asarray(value, dtype=float)
    return value if value.shape == shape else np.broadcast_to(value, shape)


def solve(problem: OdeProblem, cfg: SolverConfig | None = None) -> OdeSolution:
    """Window-chained Picard iteration from the constant start y0.

    The horizon must sit on the level-L solver grid, and a window is a run of
    whole level-L cells.  A window is accepted when the sup-norm change drops
    below tol with an estimated contraction ratio below one; otherwise its
    cell count is halved, floored to whole cells, down to 2**-8 and one cell.
    Accepted windows feed their endpoint to the next one.  The solution is
    ``converged`` when the post-hoc fixed-point residual over the whole
    horizon is at most ``cfg.tol``.
    """
    cfg = cfg or SolverConfig()
    K = min(d.resolution_level for d in problem.drivers)
    L = cfg.grid_level if cfg.grid_level is not None else K - 4
    if L < 1 or L > K - 2:
        raise LevelOutOfRange(f"solver grid level {L} incompatible with driver resolution {K}")
    try:
        n = _grid_span(0.0, problem.horizon, L)[1]   # the horizon's level-L cells
    except BadInterval:
        raise BadInterval("horizon must sit on the solver grid") from None
    if cfg.check_drivers:
        for j, d in enumerate(problem.drivers):
            verdict = existence_report(d.pyramid(), problem.beta).verdict
            if verdict != "converging":
                warnings.warn(
                    f"driver {j}: existence diagnostic at exponent {problem.beta:.3f} is "
                    f"{verdict}; solving best-effort",
                    stacklevel=2,
                )
    t_all = np.linspace(0.0, problem.horizon, n + 1)
    y_all = np.zeros((problem.F.m, n + 1))
    windows: list[dict] = []
    y_start = problem.y0.copy()
    step = 2.0 ** -L
    i0, width = 0, n        # the window is cells i0 .. i0 + width - 1, cut at n
    while i0 < n:
        i1 = min(i0 + width, n)
        t0, t1 = i0 * step, i1 * step
        ok, y_win, iters, ratio = _picard_window(problem, y_start, t0, t1, L, cfg.tol)
        if not ok:
            width //= 2
            if width * step < max(_MIN_WINDOW, step):
                raise WindowUnderflow(f"window shrank below {_MIN_WINDOW} at t = {t0} "
                                      "without contraction")
            continue
        y_all[:, i0 : i1 + 1] = y_win
        windows.append({"start": t0, "end": t1, "iterations": iters,
                        "contraction_ratio": ratio})
        y_start = y_win[:, -1].copy()
        i0 = i1
    residual = _fixed_point_residual(problem, y_all, L)
    return OdeSolution(t=t_all, y=y_all, windows=windows, residual=residual,
                       converged=residual <= cfg.tol)


def _picard_window(problem, y_start, a, b, L, tol):
    ia, ib = _grid_span(a, b, L)
    y = np.repeat(np.asarray(y_start, dtype=float)[:, None], ib - ia + 1, axis=1)
    changes: list[float] = []
    # a non-finite sweep or sup-norm change raises NonFiniteIterate; numpy's
    # overflow and invalid-value warnings, from F or from two finite sweeps
    # far apart, would only print it first
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, _MAX_PICARD + 1):
            y_new = picard_operator(problem, y, a, b, L, y_start=y_start)
            change = float(np.abs(y_new - y).max())
            changes.append(change)
            y = y_new
            if change < tol:
                ratio = _contraction_ratio(changes)
                if ratio < 1.0:
                    return True, y, it, ratio
            if not np.isfinite(change):
                raise NonFiniteIterate("sup-norm change is not finite")
    return False, y, _MAX_PICARD, _contraction_ratio(changes)


def _contraction_ratio(changes):
    pairs = [
        changes[i + 1] / changes[i]
        for i in range(max(0, len(changes) - 1 - _CONTRACTION_WINDOW), len(changes) - 1)
        if changes[i] > 0
    ]
    if not pairs:
        return 0.0
    return float(np.mean(pairs))


def _fixed_point_residual(problem, y_all, L):
    """Post-hoc defect max_t |y(t) - y0 - integral of F dx over [0, t]|."""
    check = picard_operator(problem, y_all, 0.0, problem.horizon, L, y_start=problem.y0)
    return float(np.abs(check - y_all).max())


def continuity_experiment(
    problem_a: OdeProblem,
    problem_b: OdeProblem,
    cfg: SolverConfig | None = None,
) -> dict:
    """Solve both problems and report output distances against input distances.

    Every distance is measured on [0, horizon]: the driver differences, like
    the solution difference, are held at their horizon values to t = 1.
    """
    cfg = cfg or SolverConfig()
    sol_a = solve(problem_a, cfg)
    sol_b = solve(problem_b, cfg)
    if sol_a.t.size != sol_b.t.size:
        raise BadInterval("problems must share horizon and grid for comparison")
    sup_out = float(np.abs(sol_a.y - sol_b.y).max())
    level = int(-np.log2(sol_a.t[1]))     # t[1] = 2**-L exactly
    holder_out = _held_seminorm(sol_a.y[0] - sol_b.y[0], level, problem_a.beta)
    dx = []                               # (driver difference on [0, horizon], its level)
    for da, db in zip(problem_a.drivers, problem_b.drivers):
        K = da.resolution_level
        n = _grid_span(0.0, problem_a.horizon, K)[1]
        dx.append((da.samples[: n + 1] - db.samples[: n + 1], K))
    sup_x = max(float(np.abs(d).max()) for d, _ in dx)
    holder_x = max(_held_seminorm(d, K, problem_a.beta) for d, K in dx)
    y0_dist = float(np.abs(problem_a.y0 - problem_b.y0).max())
    input_dist = y0_dist + sup_x + holder_x
    return {
        "input_distance": {"y0": y0_dist, "sup_x": sup_x, "holder_x": holder_x},
        "output_distance": {"sup": sup_out, "holder_beta": holder_out},
        "ratio": sup_out / input_dist if input_dist > 0 else 0.0,
        "solutions": (sol_a, sol_b),
    }


def _held_seminorm(values: np.ndarray, level: int, beta: float) -> float:
    """Hölder lower bound of ``values``, on the first points of the level grid,
    held at its last value to t = 1: a path on [0, 1] with the same seminorm."""
    full = np.full((1 << level) + 1, values[-1])
    full[: values.size] = values
    return holder_seminorm(DyadicPath(full, level), beta).seminorm_lower_bound
