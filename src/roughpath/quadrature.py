"""One-dimensional Gauss-Kronrod quadrature with vectorized bisection refinement.

Integrands are smooth on each requested interval (the library only ever asks
for integrals of continuous fields over short vertical segments), so one
embedded 3/7-point Gauss-Kronrod panel per leaf gives both the value and an
error estimate from 7 evaluations; only leaves whose estimate misses the
tolerance are bisected.  A slice of intervals whose first panels all pass is
returned as those panels' sums; only the other slices enter bisection.  A
caller that integrates over the same intervals many times, as the Picard
sweeps do, builds their first-panel grid once and passes it in.  All
routines accept signed bounds: swapping lo and hi negates the result, which is
what oriented line integrals need.
"""

from typing import NamedTuple

import numpy as np

from .errors import NonFinite, QuadratureFailure

# The Gauss-Kronrod 3/7 rule on [-1, 1] (Kronrod 1965; Laurie, Math. Comp. 66,
# 1997): its nodes at and right of 0, outermost first.  Every second node,
# starting with the second, is a 3-point Gauss node.
_XK_HALF = (
    0.960491268708020283423507092629080,
    0.774596669241483377035853079956480,
    0.434243749346802558002071502844628,
    0.0,
)
_WK_HALF = (   # 7-point Kronrod weights, same order
    0.104656226026467265193823857192073,
    0.268488089868333440728569280666710,
    0.401397414775962222905051818618432,
    0.450916538658474142345110087045571,
)
_WG_HALF = (   # 3-point Gauss weights at the Gauss nodes above
    0.555555555555555555555555555555556,
    0.888888888888888888888888888888889,
)


def _mirror(half, left_sign=1.0):
    """The whole symmetric rule, left to right, from its half listed outermost first."""
    half = np.array(half)
    return np.concatenate([left_sign * half[:-1], half[::-1]])


_XK = _mirror(_XK_HALF, -1.0)
_WK = _mirror(_WK_HALF)
_WG = np.zeros(7)
_WG[1::2] = _mirror(_WG_HALF)
_RULE = np.stack([_WK, _WG])   # one product gives the K7 and G3 sums

# The absolute tolerance per interval: ``refine_batch``'s default, and the one
# every staircase vertical gets unless a caller sets ``ConvergenceConfig.quad_tol``.
_QUAD_TOL = 1e-10

_SLICE = 1 << 12        # intervals refined together (see refine_batch)
_GRID_RUN = 1 << 10     # rows per integrand call on a precomputed grid
_MAX_LEAVES = 1 << 17   # live leaves per slice before refinement gives up
_MAX_SPLITS = 48        # bisection depth cap


class _PanelGrid(NamedTuple):
    """One Gauss-Kronrod panel on each interval [a[r], b[r]]: its 7 abscissae,
    node-major with shape (7, n), and the half-widths and midpoints."""

    x: np.ndarray
    half: np.ndarray
    mid: np.ndarray

    def rows(self, rows: slice) -> "_PanelGrid":
        return _PanelGrid(self.x[:, rows], self.half[rows], self.mid[rows])


def _panel_grid(a, b) -> _PanelGrid:
    """The panels on [a[r], b[r]].

    The nodes are built node-major in one buffer: numpy then broadcasts along
    the long axis, and the grid needs no second (rows, 7) temporary.
    """
    half = np.subtract(b, a)
    half *= 0.5
    mid = np.add(b, a)
    mid *= 0.5
    x = _XK[:, None] * half
    x += mid
    return _PanelGrid(x, half, mid)


def refine_batch(eval_xs, lo, hi, tol: float = _QUAD_TOL, *, grid: _PanelGrid | None = None):
    """Adaptive signed integrals over a batch of intervals.

    ``eval_xs(owner, x2d) -> values`` evaluates the integrand on an
    (n_panels, nodes) grid; ``owner[r]`` is the index of the requested
    interval that row r belongs to, so per-interval parameters (e.g. the
    frozen abscissa of a vertical segment) ride along.  Each leaf gets one
    7-node Gauss-Kronrod panel.  A leaf is accepted, with its Kronrod value,
    when that value and the embedded 3-node Gauss value agree to the
    absolute ``tol``; the others are bisected, and each child gets a fresh
    panel.  The budget does not halve with each split: every leaf keeps
    ``tol``, since halving it would starve endpoint singularities of depth.
    An interval's accumulated error estimate is then at most its leaf count
    times tol; integrands here produce only short refinement chains.  A
    non-finite Kronrod sum raises ``NonFinite`` at once: splitting cannot
    cure it, and each split would double the leaves that carry it.
    Refinement that would carry more than ``_MAX_LEAVES`` leaves of one slice
    into the next split raises ``QuadratureFailure``, so a finite integrand
    that never meets ``tol`` (such as exp(1000 x), whose panel errors dwarf
    any absolute tolerance) stops within bounded memory instead of doubling
    its leaves each split.

    Intervals are refined in slices of at most ``_SLICE``.  A slice whose
    intervals all pass on their first panel is returned as those panels'
    Kronrod sums; only the other slices enter bisection.  The first panels
    come from ``grid``, the ``_panel_grid(lo, hi)`` of a caller that
    integrates over the same intervals again and again, or else from a grid
    built per slice.  The integrand sees a given grid's first panels in runs
    of ``_GRID_RUN`` rows, in order, which changes no result or error.  A
    run's temporaries of 7 nodes take 56 KiB; those of a 4096-row slice take
    224 KiB, which glibc was measured to return to the system on free (it
    trims a free top of heap above 128 KiB, or above twice a raised mmap
    threshold) and to fault back in by the next slice.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    total = np.zeros(lo.size)
    run = _SLICE if grid is None else _GRID_RUN
    # a non-finite integrand or panel sum raises NonFinite below; numpy's
    # overflow and invalid-value warnings would only print it first
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, lo.size, _SLICE):
            rows = slice(first, first + _SLICE)
            panels = None if grid is None else grid.rows(rows)
            total[rows] = _refine_slice(eval_xs, lo[rows], hi[rows], first, tol, panels, run)
    return total


def _refine_slice(eval_xs, lo, hi, first: int, tol: float, panels: _PanelGrid | None,
                  run: int):
    """refine_batch for the intervals first .. first + lo.size - 1.

    ``panels`` holds their first panels, or is None to build them from
    ``lo`` and ``hi``.  The first-panel test is false for a NaN or inf sum,
    so a slice holding one goes on into the loop, which names the first bad
    interval.
    """
    (kronrod, gauss), mid = _first_panels(eval_xs, first, lo, hi, panels, run)
    if (np.abs(kronrod - gauss) <= tol).all():
        return kronrod + 0.0   # a -0.0 sum reads +0.0, as when added into zeros
    total = np.zeros(lo.size)
    owner = np.arange(lo.size)
    a, b = lo, hi
    for split in range(_MAX_SPLITS + 1):
        if split:
            (kronrod, gauss), mid = _panel(eval_xs, first + owner, _panel_grid(a, b))
        # the Gauss nodes are Kronrod nodes, so this check covers every value
        bad = ~np.isfinite(kronrod)
        if bad.any():
            r = owner[bad][0]
            raise NonFinite(
                f"non-finite integrand on interval {first + r}: [{lo[r]:.17g}, {hi[r]:.17g}]"
            )
        done = np.abs(kronrod - gauss) <= tol
        np.add.at(total, owner[done], kronrod[done])
        if done.all():
            return total
        keep = ~done
        owner = np.concatenate([owner[keep], owner[keep]])
        if owner.size > _MAX_LEAVES:
            raise QuadratureFailure(
                f"{owner.size} subintervals still above tolerance after {split + 1} splits"
            )
        a, b = np.concatenate([a[keep], mid[keep]]), np.concatenate([mid[keep], b[keep]])
    raise QuadratureFailure(
        f"{owner.size} subintervals still above tolerance after {_MAX_SPLITS} splits"
    )


def _first_panels(eval_xs, first: int, lo, hi, panels: _PanelGrid | None, run: int):
    """``_panel`` on the slice's first panels, ``run`` rows per call.

    A grid built here from ``lo`` and ``hi`` is freed on return, before any
    bisection, as the panels of ``_panel`` are.
    """
    panels = _panel_grid(lo, hi) if panels is None else panels
    owner = np.arange(first, first + lo.size)
    if lo.size <= run:
        return _panel(eval_xs, owner, panels)
    sums = []
    for start in range(0, lo.size, run):
        rows = slice(start, start + run)
        sums.append(_panel(eval_xs, owner[rows], panels.rows(rows))[0])
    return np.concatenate(sums, axis=1), panels.mid


def _panel(eval_xs, owner, panels: _PanelGrid):
    """The (K7, G3) sums of one panel per row, and the midpoints.

    ``owner`` goes to ``eval_xs`` as is.
    """
    kg = _RULE @ eval_xs(owner, panels.x.T).T
    kg *= panels.half
    return kg, panels.mid
