"""The staircase integral and its convergence loop.

The level-k approximation replaces the path by a horizontal/vertical
staircase through the points (t_{k,n}, h_{k,n}); the line integral of
f(t, x) dx over that staircase is a sum of one-dimensional integrals over the
vertical segments.  One kernel sums them at one level for a run of equal
blocks of cells, each block closed by verticals to given end values.
``staircase_integral`` is its one-block call and ``cumulative_increments``
(behind ``indefinite_integral`` and the Picard operator) its many-block call.
``integrate`` runs the one-block sum, closed to (g(a), g(b)), over levels
until two consecutive differences fall under tolerance, so endpoint
truncation never pollutes the limit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import _cells_within, gap_functional, gap_truncation_level
from .dyadic import AveragePyramid, DyadicPath, HolderEstimate
from .errors import BadExponents, BadInterval, LevelOutOfRange, NonFinite
from .quadrature import QuadratureConfig, refine_batch


@dataclass(frozen=True)
class ScalarField:
    """Two-argument integrand f(t, x) with optional metadata.

    ``evaluate`` must be vectorized over numpy arrays and broadcast (t, x).
    ``depends_on`` unlocks exact fast paths: 't_only' integrands need no
    quadrature at all and 'x_only' integrands reduce to a single definite
    integral between path values.  Hölder metadata (exponent, constant, sup
    bound) feeds the a-posteriori error estimate when present.
    """

    evaluate: callable
    depends_on: str = "both"
    dt_partial: callable | None = None
    holder_beta_in_t: float | None = None
    holder_const_in_t: float | None = None
    sup_bound: float | None = None

    @staticmethod
    def x_only(f, **meta) -> "ScalarField":
        return ScalarField(evaluate=lambda t, x: f(x), depends_on="x_only", **meta)

    @staticmethod
    def t_only(f, dt_partial=None, **meta) -> "ScalarField":
        def lift(fn):
            return lambda t, x: fn(t) * np.ones_like(np.asarray(x, dtype=float))

        return ScalarField(
            evaluate=lift(f),
            depends_on="t_only",
            dt_partial=None if dt_partial is None else lift(dt_partial),
            **meta,
        )

    @staticmethod
    def from_path(path: DyadicPath, **meta) -> "ScalarField":
        """Time-only field that interpolates a sampled path."""
        return ScalarField.t_only(path.eval, **meta)

    def value_at_times(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluate(t, np.zeros_like(t)), dtype=float)

    def shifted_in_x(self, c: float) -> "ScalarField":
        if c == 0.0:
            return self
        f = self.evaluate
        dt = self.dt_partial
        return replace(
            self,
            evaluate=lambda t, x: f(t, x + c),
            dt_partial=None if dt is None else (lambda t, x: dt(t, x + c)),
        )


@dataclass(frozen=True)
class ConvergenceConfig:
    tol: float = 1e-8           # absolute level-to-level stopping tolerance
    min_level: int = 2
    max_level: int | None = None  # default: K - 2
    quad: QuadratureConfig = QuadratureConfig()


@dataclass(frozen=True, eq=False)
class IntegralResult:
    value: float
    level_values: np.ndarray
    levels: tuple[int, int]
    converged: bool
    error_estimate: float | None = None

    @property
    def levels_used(self) -> range:
        return range(self.levels[0], self.levels[1] + 1)


def index_range(a: float, b: float, k: int) -> tuple[int, int] | None:
    """Level-k cell indices whose parent cell lies inside [a, b].

    Cell n is [n*2**-k, (n+1)*2**-k]; its parent is the level-(k-1) cell
    containing it.  Returns (n_lo, n_hi) for the contiguous run of admitted
    cells, or None when no parent fits (b - a below roughly 2**-(k-1)).
    """
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"bad interval [{a}, {b}]")
    if k < 1:
        raise LevelOutOfRange("index_range needs k >= 1")
    p_lo, p_hi = _cells_within(a, b, k - 1)
    if p_hi < p_lo:
        return None
    return 2 * p_lo, 2 * p_hi + 1


def _vertical_batch(field: ScalarField, t_abs: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    quad: QuadratureConfig) -> np.ndarray:
    """Signed integrals of f(t_abs[i], x) for x from lo[i] to hi[i]."""

    def eval_xs(owner, x):
        return np.asarray(field.evaluate(t_abs[owner][:, None], x), dtype=float)

    return refine_batch(eval_xs, lo, hi, quad)


def _closed_sums(field: ScalarField, h: np.ndarray, k: int, first: int, span: int,
                 g: np.ndarray, quad: QuadratureConfig) -> np.ndarray:
    """Closed level-k staircase sums over consecutive blocks of ``span`` cells.

    Block i covers cells first + i*span .. first + (i+1)*span - 1 of the
    level-k averages ``h``; ``g`` holds the len(g) - 1 blocks' end values.
    Block i's staircase rises from g[i] to h[first + i*span], runs through
    the block's averages and ends at g[i + 1]: span + 1 verticals at times
    (first + i*span + j) * 2**-k for j = 0 .. span.  All verticals go into one
    quadrature batch, or one elementwise product for t_only fields, and each
    block's terms are summed in one fixed order.
    """
    n_blocks = g.size - 1
    heights = np.empty((n_blocks, span + 2))
    heights[:, 0] = g[:-1]
    heights[:, 1:-1] = h[first : first + n_blocks * span].reshape(n_blocks, span)
    heights[:, -1] = g[1:]
    lo = heights[:, :-1].ravel()
    hi = heights[:, 1:].ravel()
    n = first + span * np.arange(n_blocks)[:, None] + np.arange(span + 1)
    t_abs = n.ravel() * 2.0 ** -k
    if field.depends_on == "t_only":
        terms = field.value_at_times(t_abs) * (hi - lo)
    else:
        terms = _vertical_batch(field, t_abs, lo, hi, quad)
    return terms.reshape(n_blocks, span + 1).sum(axis=1)


def staircase_integral(
    field: ScalarField,
    pyramid: AveragePyramid,
    a: float,
    b: float,
    k: int,
    quad: QuadratureConfig | None = None,
    endpoint_values: tuple[float, float] | None = None,
) -> float:
    """Level-k staircase line integral of f(t, x) dx over [a, b].

    With ``endpoint_values=None`` this is exactly the defining sum over
    interior vertical segments.  Given the endpoint values
    (g(a), g(b)), the closing verticals join the staircase to them, which
    removes the first-order endpoint truncation; ``integrate`` uses that form.
    """
    quad = quad or QuadratureConfig()
    if k > pyramid.K - 1:
        raise LevelOutOfRange(f"level {k} needs path resolution > {k}")
    rng = index_range(a, b, k)
    if rng is None:
        raise BadInterval(f"no level-{k} parent cell fits inside [{a}, {b}]")
    n_lo, n_hi = rng
    h = pyramid.level(k)
    if endpoint_values is None:
        # The inner cells closed at the first and last averages: the field is
        # evaluated only on the defining sum's own verticals.
        n_lo, n_hi, endpoint_values = n_lo + 1, n_hi - 1, (h[n_lo], h[n_hi])
    return float(_closed_sums(field, h, k, n_lo, n_hi - n_lo + 1,
                              np.array(endpoint_values, dtype=float), quad)[0])


def _check_field_finite(field: ScalarField, path: DyadicPath) -> None:
    if field.depends_on == "t_only":
        probe_t = np.linspace(0.0, 1.0, 33)
        vals = field.value_at_times(probe_t)
    else:
        c, d = path.range()
        pad = 0.01 * (d - c) if d > c else 0.01 * max(1.0, abs(c))
        tt, xx = np.meshgrid(np.linspace(0.0, 1.0, 33), np.linspace(c - pad, d + pad, 33))
        vals = np.asarray(field.evaluate(tt, xx), dtype=float)
    if not np.isfinite(vals).all():
        raise NonFinite("field is not finite on the strip enclosing the path range")


def integrate(
    field: ScalarField,
    path: DyadicPath,
    a: float,
    b: float,
    cfg: ConvergenceConfig | None = None,
    holder: HolderEstimate | None = None,
) -> IntegralResult:
    """Run the staircase limit over levels min_level .. K-2.

    Converged means two consecutive level differences below ``cfg.tol``.  The
    result always carries the per-level history; when the field declares its
    time-Hölder data and a path Hölder estimate is supplied, an a-posteriori
    error estimate (gap-functional tail plus endpoint term with the heuristic
    constant 8) is attached.
    """
    cfg = cfg or ConvergenceConfig()
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"bad interval [{a}, {b}]")
    K = path.resolution_level
    if K < cfg.min_level + 2:
        raise LevelOutOfRange(f"path resolution {K} below min_level + 2")
    _check_field_finite(field, path)
    pyramid = path.pyramid()
    k_hi = min(cfg.max_level if cfg.max_level is not None else K - 2, K - 2)
    endpoints = (float(path.eval(a)), float(path.eval(b)))
    values = []
    levels = []
    hits = 0
    converged = False
    for k in range(max(cfg.min_level, 1), k_hi + 1):
        if index_range(a, b, k) is None:
            continue
        v = staircase_integral(field, pyramid, a, b, k, quad=cfg.quad,
                               endpoint_values=endpoints)
        values.append(v)
        levels.append(k)
        if len(values) >= 2:
            hits = hits + 1 if abs(values[-1] - values[-2]) < cfg.tol else 0
            if hits >= 2:
                converged = True
                break
    if not values:
        raise BadInterval(f"no staircase level up to {k_hi} fits inside [{a}, {b}]")
    err = None
    if (
        holder is not None
        and field.holder_beta_in_t is not None
        and field.holder_const_in_t is not None
        and field.sup_bound is not None
    ):
        k_last = levels[-1]
        mu_tail = gap_functional(
            pyramid, a, b, field.holder_beta_in_t, k_min=k_last + 1,
            k_max=gap_truncation_level(pyramid),
        )
        endpoint_scale = min(b - a, 2.0 ** -k_last) ** holder.exponent
        err = (
            field.holder_const_in_t * mu_tail
            + 8.0 * field.sup_bound * holder.seminorm_lower_bound * endpoint_scale
        )
    return IntegralResult(
        value=values[-1],
        level_values=np.array(values),
        levels=(levels[0], levels[-1]),
        converged=converged,
        error_estimate=err,
    )


def integrate_state_only(f, path: DyadicPath, a: float, b: float,
                         quad: QuadratureConfig | None = None) -> float:
    """Exact reduction for integrands f(x): the definite integral of f between
    g(a) and g(b), evaluated by adaptive quadrature (no staircase limit)."""
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"bad interval [{a}, {b}]")
    quad = quad or QuadratureConfig(tol=1e-13)
    ga, gb = float(path.eval(a)), float(path.eval(b))
    if ga == gb:
        return 0.0

    def eval_xs(_owner, x):
        return np.asarray(f(x), dtype=float)

    return float(refine_batch(eval_xs, [ga], [gb], quad)[0])


def adversarial_integrand(
    pyramid: AveragePyramid, beta: float, k_max: int
) -> tuple[DyadicPath, float]:
    """Tent-sum integrand that extracts the weighted sibling-gap sums.

    Level k < k_max contributes one tent per level-k cell, peaking at the cell
    midpoint with amplitude 2**(-(k+1)beta) * sign(h[k+1][2n+1] - h[k+1][2n])
    (zero on ties).  Its level-k_max staircase integral over [0, 1] equals

        sum_{k=1}^{k_max-1} 2**(-(k+1)beta) * sum_n |h[k+1][2n+1] - h[k+1][2n]|

    exactly, which is the returned predicted value.
    """
    if not 0.0 < beta < 1.0:
        raise BadExponents("beta must lie in (0, 1)")
    if not 2 <= k_max <= pyramid.K - 2:
        raise LevelOutOfRange(f"k_max must lie in [2, {pyramid.K - 2}]")
    K = pyramid.K
    n_samples = (1 << K) + 1
    f = np.zeros(n_samples)
    idx = np.arange(n_samples)
    predicted = 0.0
    for k in range(1, k_max):
        gaps = pyramid.child_gap(k)          # h[k+1][2n] - h[k+1][2n+1]
        amp = 2.0 ** (-(k + 1) * beta) * np.sign(-gaps)
        predicted += 2.0 ** (-(k + 1) * beta) * np.abs(gaps).sum()
        period = 1 << (K - k)
        phase = (idx % period) / period
        cell = np.minimum(idx >> (K - k), amp.size - 1)
        f += amp[cell] * (1.0 - np.abs(2.0 * phase - 1.0))
    return DyadicPath(f, K), float(predicted)


def indefinite_integral(
    field: ScalarField,
    path: DyadicPath,
    grid_level: int,
    cfg: ConvergenceConfig | None = None,
) -> np.ndarray:
    """The map t -> integral over [0, t] on the level-``grid_level`` grid.

    Increment integrals over consecutive grid cells are accumulated, so
    value(t2) - value(t1) agrees with ``integrate`` over [t1, t2] to within a
    couple of tolerances.  Returns an array of (t, value) rows.
    """
    cfg = cfg or ConvergenceConfig()
    K = path.resolution_level
    if grid_level > K - 2:
        raise LevelOutOfRange("grid_level must be <= K - 2")
    increments = cumulative_increments(field, path, 0.0, 1.0, grid_level, cfg)
    t = np.linspace(0.0, 1.0, (1 << grid_level) + 1)
    values = np.concatenate([[0.0], np.cumsum(increments)])
    return np.column_stack([t, values])


def cumulative_increments(
    field: ScalarField,
    path: DyadicPath,
    a: float,
    b: float,
    grid_level: int,
    cfg: ConvergenceConfig | None = None,
) -> np.ndarray:
    """Closed staircase integrals over every level-``grid_level`` cell of [a, b].

    [a, b] must be aligned to the grid.  Every increment is a closed
    staircase sum at the one level k = K - 2 (or ``cfg.max_level``, kept
    between grid_level + 1 and K - 1), and all increments share that level's
    vertical-segment work in one pass.
    """
    cfg = cfg or ConvergenceConfig()
    K = path.resolution_level
    G = grid_level
    scale = float(1 << G)
    ia, ib = round(a * scale), round(b * scale)
    if not (
        abs(a * scale - ia) < 1e-9 and abs(b * scale - ib) < 1e-9 and 0 <= ia < ib <= scale
    ):
        raise BadInterval(f"[{a}, {b}] must be aligned to the level-{G} grid")
    if G + 1 > K - 1:
        raise LevelOutOfRange("grid_level must leave at least one staircase level")
    g_at = path.eval((ia + np.arange(ib - ia + 1)) / scale)
    k = min(cfg.max_level if cfg.max_level is not None else K - 2, K - 1)
    k = max(k, G + 1)
    span = 1 << (k - G)                   # cells per increment
    return _closed_sums(field, path.pyramid().level(k), k, ia * span, span, g_at, cfg.quad)
