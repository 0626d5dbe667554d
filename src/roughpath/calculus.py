"""Computational calculus for the staircase integral.

The Green-formula route rewrites the integral over [0, s] as an oriented
double integral of the time partial between the path and the chord from
(0, g(0)) to (s, g(s)), plus a chord line integral.  For state-only integrands
the double integral vanishes and the chord term collapses to a definite
integral; for time-only integrands the identity is integration by parts.
The Itô helpers discretize the classical stochastic integrals on the sample
grid for side-by-side comparison with the staircase values.

Every time integral and Itô sum walks the same cells: the level cells that
fit in [0, s], plus one partial cell closed at (s, g(s)) when s is off the
level grid.  Time integrals put 8 Gauss nodes on each path cell; the path is
linear there, so its node values come from the cell's end samples.
"""

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicPath, _cells_within
from .errors import BadInterval, LevelOutOfRange, MissingDerivative
from .integrator import ScalarField, integrate_state_only

# A fixed rule per path cell with no error estimate; changing it would move the
# ito-residual and wiener-constant numbers.  8-point Gauss-Legendre on [-1, 1],
# bit for bit the values of numpy.polynomial.legendre.leggauss(8), written out
# so that importing the package does not import numpy.polynomial.
_XI = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                0.7966664774136267, 0.9602898564975362])
_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
               0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
               0.22238103445337443, 0.10122853629037706])
_CHUNK = 1 << 14
_U = 0.5 * (1.0 + _XI)   # Gauss nodes on [0, 1]
_FD_STEP = 1e-6


@dataclass(frozen=True)
class GreenEvaluation:
    """Pieces of the Green-route value: total = chord_term - area_term."""

    chord_slope: float
    area_term: float
    chord_term: float
    total: float


def _cells(path: DyadicPath, s: float, level: int):
    """The level cells covering [0, s] as chunks of (t_left, width, g_left, g_right).

    Whole cells come in chunks of ``_CHUNK``; when s is off the level grid, a
    last partial cell ends at (s, g(s)).
    """
    K = path.resolution_level
    if not 0 <= level <= K:
        raise LevelOutOfRange("discretization level must lie in 0 .. path resolution")
    if not 0.0 < s <= 1.0:
        raise BadInterval("s must lie in (0, 1]")
    g = path.samples[:: 1 << (K - level)]
    step = 2.0 ** -level
    n_full = _cells_within(0.0, s, level)[1] + 1
    for lo in range(0, n_full, _CHUNK):
        hi = min(lo + _CHUNK, n_full)
        yield np.arange(lo, hi) * step, np.full(hi - lo, step), g[lo:hi], g[lo + 1 : hi + 1]
    t_end = n_full * step
    if t_end < s:
        yield np.array([t_end]), np.array([s - t_end]), g[n_full : n_full + 1], path.eval([s])


def green_eval(field: ScalarField, path: DyadicPath, s: float) -> GreenEvaluation:
    """Evaluate the integral over [0, s] through the Green identity.

    The chord runs from (0, g(0)) to (s, g(s)), so the path may start
    anywhere.  The field must carry its time partial unless it is
    state-only, for which the area term is skipped outright.
    """
    if not 0.0 < s <= 1.0:
        raise BadInterval("s must lie in (0, 1]")
    needs_area = field.depends_on != "x_only"
    if needs_area and field.dt_partial is None:
        raise MissingDerivative("green_eval needs dt_partial unless the field is state-only")
    g0 = float(path.samples[0])
    slope = (float(path.eval(s)) - g0) / s

    def area(t, g):
        ell = g0 + slope * t
        xhalf = 0.5 * (g - ell)
        xmid = 0.5 * (g + ell)
        # inner Gauss panel per outer node, oriented from chord to path
        xs = xmid[..., None] + xhalf[..., None] * _XI[None, None, :]
        return (field.dt_partial(t[..., None], xs) @ _W) * xhalf

    chord_term = slope * _time_integral(lambda t, g: field.evaluate(t, g0 + slope * t), path, s)
    area_term = _time_integral(area, path, s) if needs_area else 0.0
    return GreenEvaluation(
        chord_slope=slope,
        area_term=area_term,
        chord_term=chord_term,
        total=chord_term - area_term,
    )


def integration_by_parts(field: ScalarField, path: DyadicPath, s: float) -> float:
    """Integral of a smooth time-only field against dg via parts:
    f(s)g(s) - f(0)g(0) - integral of g f' dt over [0, s]."""
    if field.depends_on != "t_only":
        raise BadInterval("integration_by_parts needs a time-only field")
    if field.dt_partial is None:
        raise MissingDerivative("integration_by_parts needs the field derivative")
    if not 0.0 < s <= 1.0:
        raise BadInterval("s must lie in (0, 1]")
    fs, f0 = field.value_at_times(np.array([s, 0.0]))
    gs, g0 = float(path.eval(s)), float(path.samples[0])
    correction = _time_integral(
        lambda t, g: g * np.asarray(field.dt_partial(t, np.zeros_like(t)), dtype=float),
        path, s,
    )
    return float(fs * gs - f0 * g0 - correction)


def _time_integral(fn, path: DyadicPath, s: float) -> float:
    """Integral of fn(t, g(t)) dt over [0, s] with 8 Gauss nodes per path cell.

    ``fn`` maps (n_cells, nodes) arrays of times and path values to values of
    that shape.
    """
    total = 0.0
    for t_left, width, g_left, g_right in _cells(path, s, path.resolution_level):
        t = t_left[:, None] + width[:, None] * _U
        g = g_left[:, None] + (g_right - g_left)[:, None] * _U
        total += float(np.asarray(fn(t, g), dtype=float) @ _W @ (0.5 * width))
    return total


def time_integral_of_state(f, path: DyadicPath, s: float) -> float:
    """Integral of f(g(tau)) d tau over [0, s] (plain time quadrature).

    The same rule as ``_time_integral``; f never reads t, so no node times
    are built.
    """
    total = 0.0
    for _, width, g_left, g_right in _cells(path, s, path.resolution_level):
        g = g_left[:, None] + (g_right - g_left)[:, None] * _U
        total += float(np.asarray(f(g), dtype=float) @ _W @ (0.5 * width))
    return total


def ito_reference(f, path: DyadicPath, s: float, level: int | None = None,
                  variant: str = "ito") -> float:
    """Grid discretization of the classical stochastic integrals.

    'ito' sums f at the left sample of each step; 'stratonovich' uses the
    state midpoint.  A trailing partial step (when s is off the level grid)
    is closed with the path value at s.
    """
    if variant not in ("ito", "stratonovich"):
        raise ValueError(f"unknown variant {variant!r}")
    level = path.resolution_level if level is None else level
    total = 0.0
    for _, _, left, right in _cells(path, s, level):
        nodes = left if variant == "ito" else 0.5 * (left + right)
        total += float(np.asarray(f(nodes), dtype=float) @ (right - left))
    return total


def ito_compare(f, paths, s: float = 1.0, fprime=None) -> dict:
    """Per-path residual of the correction identity
    [state-only integral] - [left-point sum] - 0.5 * integral of f'(g) dt.

    ``paths`` is any iterable of paths, read once in order, so a generator
    keeps at most two paths alive at once.  ``fprime`` may be analytic;
    otherwise a central finite difference with step ``_FD_STEP`` is used.
    """
    if fprime is None:
        fprime = lambda x: (f(x + _FD_STEP) - f(x - _FD_STEP)) / (2.0 * _FD_STEP)
    residuals = []
    for path in paths:
        new = integrate_state_only(f, path, 0.0, s)
        ito = ito_reference(f, path, s)
        corr = 0.5 * time_integral_of_state(fprime, path, s)
        residuals.append(new - ito - corr)
    if not residuals:
        raise ValueError("ito_compare needs at least one path")
    residuals = np.array(residuals)
    return {
        "s": s,
        "n_paths": residuals.size,
        "mean_abs_residual": float(np.abs(residuals).mean()),
        "max_abs_residual": float(np.abs(residuals).max()),
        "residuals": residuals,
    }
