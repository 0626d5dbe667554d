"""Paths on dyadic grids and their multiresolution average pyramids.

A path is a continuous function on [0, 1] known through its samples on the
uniform grid of step ``2**-K`` and evaluated in between by piecewise-linear
interpolation.  The pyramid holds, for every level ``k < K``, the exact
averages of that interpolant over the level-k dyadic cells; children average
to their parent exactly, which every downstream diagnostic relies on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadExponents, LengthMismatch, LevelOutOfRange, NonFinite


class DyadicPath:
    """Piecewise-linear path on [0, 1] sampled at step ``2**-resolution_level``."""

    __slots__ = ("resolution_level", "samples", "_grid", "_pyramid")

    def __init__(self, samples, resolution_level: int):
        if resolution_level < 1:
            raise LengthMismatch("resolution level must be >= 1")
        samples = np.ascontiguousarray(samples, dtype=float)
        expected = (1 << resolution_level) + 1
        if samples.ndim != 1 or samples.size != expected:
            raise LengthMismatch(
                f"need {expected} samples for K={resolution_level}, got {samples.size}"
            )
        if not np.isfinite(samples).all():
            raise NonFinite("path samples must be finite")
        samples.flags.writeable = False
        self.resolution_level = resolution_level
        self.samples = samples
        self._grid = None
        self._pyramid = None

    @property
    def grid(self) -> np.ndarray:
        """The abscissae n * 2**-K (exact in binary floating point)."""
        if self._grid is None:
            g = np.linspace(0.0, 1.0, self.samples.size)
            g.flags.writeable = False
            self._grid = g
        return self._grid

    def eval(self, t):
        """Piecewise-linear value(s) at ``t``; exact at grid points."""
        return np.interp(t, self.grid, self.samples)

    def __call__(self, t):
        return self.eval(t)

    def pyramid(self) -> "AveragePyramid":
        if self._pyramid is None:
            self._pyramid = average_pyramid(self)
        return self._pyramid

    def range(self) -> tuple[float, float]:
        return float(self.samples.min()), float(self.samples.max())

    def shifted(self, c: float) -> "DyadicPath":
        return DyadicPath(self.samples + c, self.resolution_level)

    def __repr__(self):
        return f"DyadicPath(K={self.resolution_level}, n={self.samples.size})"


class AveragePyramid:
    """Cell averages h[k][n] of a path for all levels k = 0 .. K-1.

    Level K-1 is the exact average of the piecewise-linear path over each
    level-(K-1) cell (trapezoid of three samples); coarser levels are exact
    pairwise means of their children, so the parent-mean identity holds to
    the last bit by construction.
    """

    __slots__ = ("source_resolution", "_levels", "_gaps", "_prefix")

    def __init__(self, levels: list[np.ndarray], source_resolution: int):
        self.source_resolution = source_resolution
        for arr in levels:
            arr.flags.writeable = False
        self._levels = levels
        self._gaps: dict[int, np.ndarray] = {}
        self._prefix: dict[int, np.ndarray] = {}

    @property
    def K(self) -> int:
        return self.source_resolution

    def level(self, k: int) -> np.ndarray:
        """h[k], an array of 2**k cell averages; 0 <= k <= K-1."""
        if not 0 <= k < self.source_resolution:
            raise LevelOutOfRange(f"level {k} not in [0, {self.source_resolution - 1}]")
        return self._levels[k]

    def child_gap(self, k: int) -> np.ndarray:
        """Signed sibling gaps h[k+1][2n] - h[k+1][2n+1], one per level-k cell."""
        if not 0 <= k <= self.source_resolution - 2:
            raise LevelOutOfRange(f"child gaps need k <= {self.source_resolution - 2}")
        if k not in self._gaps:
            child = self.level(k + 1)
            g = child[0::2] - child[1::2]
            g.flags.writeable = False
            self._gaps[k] = g
        return self._gaps[k]

    def gap_prefix(self, k: int) -> np.ndarray:
        """Prefix sums of |child_gap(k)| with a leading zero (length 2**k + 1)."""
        if k not in self._prefix:
            p = np.concatenate([[0.0], np.cumsum(np.abs(self.child_gap(k)))])
            p.flags.writeable = False
            self._prefix[k] = p
        return self._prefix[k]


def average_pyramid(path: DyadicPath) -> AveragePyramid:
    """Exact average pyramid of the path's piecewise-linear interpolant."""
    s = path.samples
    K = path.resolution_level
    cur = 0.5 * (s[:-1] + s[1:])  # level-K cell averages of the interpolant
    levels: list[np.ndarray] = [np.empty(0)] * K
    for k in range(K - 1, -1, -1):
        cur = 0.5 * (cur[0::2] + cur[1::2])
        levels[k] = cur
    return AveragePyramid(levels, K)


@dataclass(frozen=True)
class HolderEstimate:
    """Lower bound of a Hölder seminorm from a dyadic pair scan.

    The scan can only see finitely many pairs, so the reported value never
    exceeds the true seminorm of the interpolant; ``pairs_scanned`` records
    how much evidence backs the bound.
    """

    exponent: float
    seminorm_lower_bound: float
    max_lag_levels: int
    pairs_scanned: int


def holder_seminorm(path: DyadicPath, alpha: float, max_lag_levels: int = 3) -> HolderEstimate:
    """Scan dyadic point pairs (t_{j,i}, t_{j,i+l}), l <= 2**max_lag_levels, at
    every level j and return the largest Hölder quotient found."""
    if not 0.0 < alpha <= 1.0:
        raise BadExponents("alpha must lie in (0, 1]")
    K = path.resolution_level
    s = path.samples
    best = 0.0
    pairs = 0
    max_lag = 1 << max_lag_levels
    for j in range(1, K + 1):
        g = s[:: 1 << (K - j)]
        step = 2.0 ** -j
        for lag in range(1, min(max_lag, g.size - 1) + 1):
            diffs = np.abs(g[lag:] - g[:-lag])
            pairs += diffs.size
            q = diffs.max() / (lag * step) ** alpha
            if q > best:
                best = float(q)
    return HolderEstimate(alpha, best, max_lag_levels, pairs)
