"""Computational calculus for the staircase integral.

The Green-formula route rewrites the integral over [0, s] as an oriented
double integral of the time partial between the path and the chord from the
origin to (s, g(s)), plus a chord line integral.  For state-only integrands
the double integral vanishes and the chord term collapses to a definite
integral; for time-only integrands the identity is integration by parts.
The Itô helpers discretize the classical stochastic integrals on the sample
grid for side-by-side comparison with the staircase values.
"""

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicPath
from .errors import BadInterval, MissingDerivative
from .integrator import ScalarField, integrate_state_only
from .quadrature import _W, _XI

_CHUNK = 1 << 14


@dataclass(frozen=True)
class GreenEvaluation:
    """Pieces of the Green-route value: total = chord_term - area_term."""

    chord_slope: float
    area_term: float
    chord_term: float
    total: float


def _outer_panels(path: DyadicPath, s: float):
    """Dyadic panels of [0, s] aligned with the path grid (kinks at samples)."""
    K = path.resolution_level
    step = 2.0 ** -K
    n_full = int(np.floor(s / step + 1e-12))
    edges = np.arange(n_full + 1) * step
    if edges[-1] < s - 1e-15:
        edges = np.append(edges, s)
    return edges


def green_eval(field: ScalarField, path: DyadicPath, s: float) -> GreenEvaluation:
    """Evaluate the integral over [0, s] through the Green identity.

    Requires the path to start at 0 (other starts are shifted internally) and
    the field to carry its time partial unless it is state-only, for which
    the area term is skipped outright.
    """
    if not 0.0 < s <= 1.0:
        raise BadInterval("s must lie in (0, 1]")
    g0 = float(path.samples[0])
    if g0 != 0.0:
        path = path.shifted(-g0)
        field = field.shifted_in_x(g0)
    needs_area = field.depends_on != "x_only"
    if needs_area and field.dt_partial is None:
        raise MissingDerivative("green_eval needs dt_partial unless the field is state-only")
    gs = float(path.eval(s))
    slope = gs / s

    def area(t):
        ell = slope * t
        gt = np.interp(t, path.grid, path.samples)
        xhalf = 0.5 * (gt - ell)
        xmid = 0.5 * (gt + ell)
        # inner Gauss panel per outer node, oriented from chord to path
        xs = xmid[..., None] + xhalf[..., None] * _XI[None, None, :]
        return (field.dt_partial(t[..., None], xs) @ _W) * xhalf

    chord_term = slope * _time_integral(lambda t: field.evaluate(t, slope * t), path, s)
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
        lambda t: np.interp(t, path.grid, path.samples)
        * np.asarray(field.dt_partial(t, np.zeros_like(t)), dtype=float),
        path, s,
    )
    return float(fs * gs - f0 * g0 - correction)


def _time_integral(fn, path: DyadicPath, s: float) -> float:
    """Integral of fn(t) dt over [0, s] on path-aligned panels (Gauss per panel).

    ``fn`` maps an (n_panels, nodes) array of times to values of that shape;
    panels are summed in chunks of ``_CHUNK``.
    """
    edges = _outer_panels(path, s)
    total = 0.0
    for lo in range(0, edges.size - 1, _CHUNK):
        hi = min(lo + _CHUNK, edges.size - 1)
        a = edges[lo:hi]
        b = edges[lo + 1 : hi + 1]
        half = 0.5 * (b - a)
        t = 0.5 * (a + b)[:, None] + half[:, None] * _XI[None, :]
        total += float(np.einsum("ij,j,i->", np.asarray(fn(t), dtype=float), _W, half))
    return total


def time_integral_of_state(f, path: DyadicPath, s: float) -> float:
    """Integral of f(g(tau)) d tau over [0, s] (plain time quadrature)."""
    return _time_integral(
        lambda t: np.asarray(f(np.interp(t, path.grid, path.samples)), dtype=float),
        path, s,
    )


def ito_reference(f, path: DyadicPath, s: float, level: int | None = None,
                  variant: str = "ito") -> float:
    """Grid discretization of the classical stochastic integrals.

    'ito' sums f at the left sample of each step; 'stratonovich' uses the
    state midpoint.  A trailing partial step (when s is off the level grid)
    is closed with the interpolated endpoint value.
    """
    K = path.resolution_level
    level = K if level is None else level
    if level > K:
        raise BadInterval("discretization level cannot exceed the path resolution")
    if not 0.0 < s <= 1.0:
        raise BadInterval("s must lie in (0, 1]")
    stride = 1 << (K - level)
    g = path.samples[::stride]
    step = 2.0 ** -level
    n_full = int(np.floor(s / step + 1e-12))
    left = g[:n_full]
    right = g[1 : n_full + 1]
    if variant == "ito":
        nodes = left
    elif variant == "stratonovich":
        nodes = 0.5 * (left + right)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    total = float(np.asarray(f(nodes), dtype=float) @ (right - left)) if n_full else 0.0
    t_last = n_full * step
    if t_last < s - 1e-15:
        gl, gr = float(path.eval(t_last)), float(path.eval(s))
        node = gl if variant == "ito" else 0.5 * (gl + gr)
        total += float(f(node)) * (gr - gl)
    return total


def ito_compare(
    f,
    paths: list[DyadicPath],
    s: float = 1.0,
    fprime=None,
    level: int | None = None,
    fd_step: float = 1e-6,
) -> dict:
    """Per-path residual of the correction identity
    [state-only integral] - [left-point sum] - 0.5 * integral of f'(g) dt.

    ``fprime`` may be analytic; otherwise a central finite difference with
    the documented step is used.
    """
    if not paths:
        raise ValueError("ito_compare needs at least one path")
    if fprime is None:
        fprime = lambda x: (f(x + fd_step) - f(x - fd_step)) / (2.0 * fd_step)
    residuals = []
    for path in paths:
        new = integrate_state_only(f, path, 0.0, s)
        ito = ito_reference(f, path, s, level=level, variant="ito")
        corr = 0.5 * time_integral_of_state(fprime, path, s)
        residuals.append(new - ito - corr)
    residuals = np.array(residuals)
    return {
        "s": s,
        "n_paths": len(paths),
        "mean_abs_residual": float(np.abs(residuals).mean()),
        "max_abs_residual": float(np.abs(residuals).max()),
        "residuals": residuals,
    }
