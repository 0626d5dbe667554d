"""The staircase integral and its convergence loop.

The level-k approximation replaces the path by a horizontal/vertical
staircase through the points (t_{k,n}, h_{k,n}); the line integral of
f(t, x) dx over that staircase is a sum of one-dimensional integrals over the
vertical segments.  One kernel sums them at one level for a run of equal
blocks of cells, each block closed by verticals to given end values.  It
comes in two parts: a skeleton, which holds the verticals' times and end
heights and depends only on the path, the level and the blocks, and a sum,
which evaluates one field on a skeleton.  ``staircase_integral`` builds and
sums a one-block skeleton and ``cumulative_increments`` (behind
``indefinite_integral``) a many-block one; the Picard operator builds its
window's skeletons once and sums every component's field on them.
``integrate`` runs the one-block sum, closed to (g(a), g(b)) so endpoint
truncation never pollutes the limit, over levels until two consecutive
differences, of levels that move an end of their cells, fall under tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dyadic import AveragePyramid, DyadicPath, _add_tents, _cells_within, _grid_span
from .errors import BadExponents, BadInterval, LevelOutOfRange, NonFinite
from .quadrature import _QUAD_TOL, _PanelGrid, refine_batch

_DEPENDS_ON = ("both", "t_only", "x_only")


@dataclass(frozen=True)
class ScalarField:
    """Two-argument integrand f(t, x), with its time partial when known.

    ``evaluate`` must be vectorized over numpy arrays and broadcast (t, x).
    ``depends_on`` marks the dependence class, one of 'both', 't_only' and
    'x_only': 't_only' integrands need no quadrature at all.  ``integrate``
    takes no 'x_only' shortcut; the exact reduction of an integrand f(x) to
    one definite integral between path values is ``integrate_state_only``.
    ``dt_partial`` feeds the Green route of ``calculus``.
    """

    evaluate: callable
    depends_on: str = "both"
    dt_partial: callable | None = None

    @staticmethod
    def x_only(f) -> "ScalarField":
        return ScalarField(evaluate=lambda t, x: f(x), depends_on="x_only")

    @staticmethod
    def t_only(f, dt_partial=None) -> "ScalarField":
        def lift(fn):
            return lambda t, x: fn(t) * np.ones_like(np.asarray(x, dtype=float))

        return ScalarField(
            evaluate=lift(f),
            depends_on="t_only",
            dt_partial=None if dt_partial is None else lift(dt_partial),
        )

    @staticmethod
    def from_path(path: DyadicPath) -> "ScalarField":
        """Time-only field that interpolates a sampled path."""
        return ScalarField.t_only(path.eval)

    def __post_init__(self):
        if self.depends_on not in _DEPENDS_ON:
            raise ValueError(f"unknown depends_on {self.depends_on!r}; "
                             f"expected one of {', '.join(map(repr, _DEPENDS_ON))}")

    def value_at_times(self, t: np.ndarray) -> np.ndarray:
        """f at the times ``t`` with x = 0, which a t_only field ignores."""
        return np.asarray(self.evaluate(t, np.broadcast_to(0.0, t.shape)), dtype=float)


@dataclass(frozen=True)
class ConvergenceConfig:
    tol: float = 1e-8           # absolute level-to-level stopping tolerance
    min_level: int = 2
    quad_tol: float = _QUAD_TOL


@dataclass(frozen=True, eq=False)
class IntegralResult:
    value: float
    level_values: np.ndarray
    levels: tuple[int, int]
    converged: bool


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


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """The field-free part of a closed level-k staircase sum over blocks.

    Block i covers cells first + i*span .. first + (i+1)*span - 1 of the
    level-k averages; its staircase rises from the block's start value to the
    block's first average, runs through its averages and ends at the block's
    end value: span + 1 verticals, from ``lo`` to ``hi``, at the times
    (first + offset) * 2**-k, where offset runs over i*span + j for
    j = 0 .. span.  None of it depends on the integrand, so it can be built
    once and summed for any number of fields.
    """

    k: int
    first: int
    span: int
    lo: np.ndarray
    hi: np.ndarray
    offset: np.ndarray

    @property
    def n_blocks(self) -> int:
        return self.offset.size // (self.span + 1)

    @functools.cached_property
    def times(self) -> np.ndarray:
        """The n_blocks*span + 1 distinct times, in order; read-only, as fields get them."""
        times = (self.first + np.arange(self.n_blocks * self.span + 1)) * 2.0 ** -self.k
        times.flags.writeable = False
        return times

    @functools.cached_property
    def rise(self) -> np.ndarray:
        return self.hi - self.lo


def _skeleton(h: np.ndarray, k: int, first: int, span: int, g: np.ndarray) -> _Skeleton:
    """Skeleton of the blocks of ``span`` level-k cells of the averages ``h``
    from cell ``first`` on, closed to the len(g) - 1 blocks' end values ``g``."""
    n_blocks = g.size - 1
    heights = np.empty((n_blocks, span + 2))
    heights[:, 0] = g[:-1]
    heights[:, 1:-1] = h[first : first + n_blocks * span].reshape(n_blocks, span)
    heights[:, -1] = g[1:]
    offset = (span * np.arange(n_blocks)[:, None] + np.arange(span + 1)).ravel()
    return _Skeleton(k, first, span, heights[:, :-1].ravel(), heights[:, 1:].ravel(), offset)


def _skeleton_sum(sk: _Skeleton, field: ScalarField, tol: float,
                  grid: _PanelGrid | None = None) -> np.ndarray:
    """The closed staircase sum of every block of ``sk`` for one field.

    All verticals go into one quadrature batch, each integrating f(t, x) at
    its own time t for x from its ``lo`` to its ``hi``, or, for a t_only
    field, one product with its values at the distinct times, so the end
    time that two adjacent blocks share is evaluated once.  ``grid``, when
    given, is ``_panel_grid(sk.lo, sk.hi)``, kept by a caller that sums many
    fields on one skeleton.  Block sums run in a fixed order.
    """
    if field.depends_on == "t_only":
        terms = field.value_at_times(sk.times)[sk.offset] * sk.rise
    else:
        t_abs = (sk.first + sk.offset) * 2.0 ** -sk.k

        def eval_xs(owner, x):
            return np.asarray(field.evaluate(t_abs[owner][:, None], x), dtype=float)

        terms = refine_batch(eval_xs, sk.lo, sk.hi, tol, grid=grid)
    return terms.reshape(sk.n_blocks, sk.span + 1).sum(axis=1)


def staircase_integral(
    field: ScalarField,
    pyramid: AveragePyramid,
    a: float,
    b: float,
    k: int,
    tol: float = _QUAD_TOL,
    endpoint_values: tuple[float, float] | None = None,
) -> float:
    """Level-k staircase line integral of f(t, x) dx over [a, b].

    With ``endpoint_values=None`` this is exactly the defining sum over
    interior vertical segments.  Given the endpoint values
    (g(a), g(b)), the closing verticals join the staircase to them, which
    removes the first-order endpoint truncation; ``integrate`` uses that form.
    ``tol`` is the absolute quadrature tolerance per vertical segment.
    """
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
    sk = _skeleton(h, k, n_lo, n_hi - n_lo + 1, np.array(endpoint_values, dtype=float))
    return float(_skeleton_sum(sk, field, tol)[0])


def _check_field_finite(field: ScalarField, path: DyadicPath) -> None:
    c, d = path.range()
    pad = 0.01 * (d - c) if d > c else 0.01 * max(1.0, abs(c))
    tt, xx = np.meshgrid(np.linspace(0.0, 1.0, 33), np.linspace(c - pad, d + pad, 33))
    with np.errstate(all="ignore"):    # a non-finite value is the finding, not a warning
        probe = np.asarray(field.evaluate(tt, xx), dtype=float)
    if not np.isfinite(probe).all():
        raise NonFinite("field is not finite on the strip enclosing the path range")


def integrate(
    field: ScalarField,
    path: DyadicPath,
    a: float,
    b: float,
    cfg: ConvergenceConfig | None = None,
) -> IntegralResult:
    """Run the staircase limit over levels min_level .. K-2.

    Converged means two consecutive level differences below ``cfg.tol``.  A
    level counts only when its admitted cells end somewhere other than the
    previous level's, or reach a and b exactly: on equal cells a field linear
    in t gives equal values whatever the limit.  The result carries the
    per-level history.
    """
    cfg = cfg or ConvergenceConfig()
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"bad interval [{a}, {b}]")
    K = path.resolution_level
    if K < cfg.min_level + 2:
        raise LevelOutOfRange(f"path resolution {K} below min_level + 2")
    _check_field_finite(field, path)
    pyramid = path.pyramid()
    g_ab = np.array([path.eval(a), path.eval(b)], dtype=float)
    values = []
    levels = []
    hits = 0
    converged = False
    ends = None
    for k in range(max(cfg.min_level, 1), K - 1):
        rng = index_range(a, b, k)
        if rng is None:
            continue
        sk = _skeleton(pyramid.level(k), k, rng[0], rng[1] - rng[0] + 1, g_ab)
        values.append(float(_skeleton_sum(sk, field, cfg.quad_tol)[0]))
        levels.append(k)
        prev, ends = ends, (rng[0] * 2.0 ** -k, (rng[1] + 1) * 2.0 ** -k)
        if len(values) >= 2 and (ends != prev or ends == (a, b)):
            hits = hits + 1 if abs(values[-1] - values[-2]) < cfg.tol else 0
            if hits >= 2:
                converged = True
                break
    if not values:
        raise BadInterval(f"no staircase level up to {K - 2} fits inside [{a}, {b}]")
    return IntegralResult(
        value=values[-1],
        level_values=np.array(values),
        levels=(levels[0], levels[-1]),
        converged=converged,
    )


def integrate_state_only(f, path: DyadicPath, a: float, b: float,
                         tol: float = 1e-13) -> float:
    """Exact reduction for integrands f(x): the definite integral of f between
    g(a) and g(b), evaluated by adaptive quadrature to the absolute ``tol``
    (no staircase limit)."""
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"bad interval [{a}, {b}]")
    ga, gb = float(path.eval(a)), float(path.eval(b))
    if ga == gb:
        return 0.0

    def eval_xs(_owner, x):
        return np.asarray(f(x), dtype=float)

    return float(refine_batch(eval_xs, [ga], [gb], tol)[0])


def adversarial_integrand(
    pyramid: AveragePyramid, beta: float, k_max: int
) -> tuple[DyadicPath, float]:
    """Tent-sum integrand that extracts the weighted sibling-gap sums.

    Level k < k_max contributes one tent per level-k cell, zero at the cell's
    ends and peaking at its midpoint with amplitude
    2**(-(k+1)beta) * sign(h[k+1][2n+1] - h[k+1][2n]) (zero on ties).  Its
    level-k_max staircase integral over [0, 1] equals

        sum_{k=1}^{k_max-1} 2**(-(k+1)beta) * sum_n |h[k+1][2n+1] - h[k+1][2n]|

    exactly, which is the returned predicted value.
    """
    if not 0.0 < beta < 1.0:
        raise BadExponents("beta must lie in (0, 1)")
    if not 2 <= k_max <= pyramid.K - 2:
        raise LevelOutOfRange(f"k_max must lie in [2, {pyramid.K - 2}]")
    f = np.zeros((1 << pyramid.K) + 1)
    predicted = 0.0
    for k in range(1, k_max):
        gaps = pyramid.child_gap(k)          # h[k+1][2n] - h[k+1][2n+1]
        _add_tents(f, k, 0, 2.0 ** (-(k + 1) * beta) * np.sign(-gaps))
        predicted += 2.0 ** (-(k + 1) * beta) * np.abs(gaps).sum()
    f.flags.writeable = False
    return DyadicPath(f, pyramid.K), float(predicted)


def indefinite_integral(field: ScalarField, path: DyadicPath, grid_level: int) -> np.ndarray:
    """The map t -> integral over [0, t] on the level-``grid_level`` grid.

    Increment integrals over consecutive grid cells are accumulated, so
    value(t2) - value(t1) agrees with ``integrate`` over [t1, t2] to within a
    couple of quadrature tolerances.  Returns an array of (t, value) rows.
    """
    increments = cumulative_increments(field, path, 0.0, 1.0, grid_level)
    t = np.linspace(0.0, 1.0, (1 << grid_level) + 1)
    values = np.concatenate([[0.0], np.cumsum(increments)])
    return np.column_stack([t, values])


def cumulative_increments(field: ScalarField, path: DyadicPath, a: float, b: float,
                          grid_level: int) -> np.ndarray:
    """Closed staircase integrals over every level-``grid_level`` cell of [a, b].

    [a, b] must lie exactly on the grid and ``grid_level`` in 0 .. K - 2.
    Every increment is a closed staircase sum at the one level
    k = max(K - 2, grid_level + 1), and all increments share that level's
    vertical-segment work in one pass, each vertical to the absolute
    quadrature tolerance ``quadrature._QUAD_TOL``.
    """
    return _skeleton_sum(_increment_skeleton(path, a, b, grid_level), field, _QUAD_TOL)


def _increment_skeleton(path: DyadicPath, a: float, b: float, grid_level: int) -> _Skeleton:
    """The skeleton of ``cumulative_increments``: one block per grid cell of [a, b].

    The blocks close to the path's values at the grid points, read straight
    from the samples: ``eval`` returns the sample itself at a grid point.
    """
    K = path.resolution_level
    G = grid_level
    if not 0 <= G <= K - 2:
        raise LevelOutOfRange(f"grid_level {G} not in [0, {K - 2}]")
    ia, ib = _grid_span(a, b, G)
    stride = 1 << (K - G)
    g_at = path.samples[ia * stride : ib * stride + 1 : stride]
    k = max(K - 2, G + 1)
    span = 1 << (k - G)                   # cells per increment
    return _skeleton(path.pyramid().level(k), k, ia * span, span, g_at)
