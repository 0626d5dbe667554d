"""Paths on dyadic grids and their multiresolution average pyramids.

A path is a continuous function on [0, 1] known through its samples on the
uniform grid of step ``2**-K`` and evaluated in between by piecewise-linear
interpolation.  The pyramid holds, for every level ``k < K``, the exact
averages of that interpolant over the level-k dyadic cells; children average
to their parent exactly, which every downstream diagnostic relies on.

The grid arithmetic every module shares lives here and nowhere else: a
path's values on a coarser level grid (``_grid_values``), the check of an
interval [a, b] (``_check_interval``), the cells inside an interval, an
aligned interval's grid indices, tents on cells, and the sibling gaps of a
pyramid, one subtraction with one overflow report (``_sibling_gaps``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadExponents, BadInterval, LengthMismatch, LevelOutOfRange, NonFinite


class DyadicPath:
    """Piecewise-linear path on [0, 1] sampled at step ``2**-resolution_level``.

    ``samples`` is read-only.  A writeable input array is copied, so the
    caller can keep writing to it; a read-only one is shared as is.  The
    library's own generators hand over the arrays they build read-only.
    The samples' minimum and maximum are taken once, here: they are finite
    exactly when every sample is, so they are the finiteness check, and
    ``range()`` returns them.
    """

    __slots__ = ("resolution_level", "samples", "_range", "_pyramid")

    def __init__(self, samples, resolution_level: int):
        if resolution_level < 1:
            raise LengthMismatch("resolution level must be >= 1")
        source = samples
        samples = np.ascontiguousarray(samples, dtype=float)
        if samples.flags.writeable and np.may_share_memory(samples, source):
            samples = samples.copy()
        expected = (1 << resolution_level) + 1
        if samples.ndim != 1 or samples.size != expected:
            raise LengthMismatch(
                f"need {expected} samples for K={resolution_level}, got {samples.size}"
            )
        self._range = _require_finite(samples)
        samples.flags.writeable = False
        self.resolution_level = resolution_level
        self.samples = samples
        self._pyramid = None

    @property
    def grid(self) -> np.ndarray:
        """The abscissae n * 2**-K (exact in binary floating point), a fresh array."""
        return np.linspace(0.0, 1.0, self.samples.size)

    def eval(self, t):
        """Piecewise-linear value(s) at ``t``; exact at grid points.

        Equal bit for bit to ``np.interp(t, grid, samples)``: values below 0
        take the first sample, values from 1 up take the last, NaN passes
        through.  The cell of ``t`` is found in O(1) from the uniform grid
        instead of by a search, and ``np.interp`` would also copy the
        read-only samples and grid on every call.
        """
        x = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)  # NaN stays NaN
        s = self.samples
        n = s.size - 1
        j = np.fmax(x * n, 0).astype(np.intp)  # floor(t * 2**K) in [0, n]; NaN -> 0
        s0 = s[j]
        g0 = j / n                             # grid[j], exactly
        with np.errstate(invalid="ignore", over="ignore"):  # as quiet as np.interp
            v = (s[np.minimum(j + 1, n)] - s0) / (1.0 / n) * (x - g0) + s0
        return np.where(x == g0, s0, v)[()]

    def pyramid(self) -> "AveragePyramid":
        if self._pyramid is None:
            self._pyramid = average_pyramid(self)
        return self._pyramid

    def range(self) -> tuple[float, float]:
        """The smallest and the largest sample."""
        return self._range

    def __repr__(self):
        return f"DyadicPath(K={self.resolution_level}, n={self.samples.size})"


def _require_finite(samples: np.ndarray) -> tuple[float, float]:
    """The samples' (min, max); NaN and +-inf reach one of them, so both are
    finite exactly when every sample is."""
    lo, hi = float(samples.min()), float(samples.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFinite("path samples must be finite")
    return lo, hi


def _cells_within(a: float, b: float, k: int) -> tuple[int, int]:
    """Index range [c_lo, c_hi] of level-k cells fully inside [a, b]."""
    scale = float(1 << k)
    c_lo = math.ceil(a * scale - 4.0 * math.ulp(max(1.0, a * scale)))
    c_hi = math.floor(b * scale + 4.0 * math.ulp(max(1.0, b * scale))) - 1
    return c_lo, c_hi


def _check_interval(a: float, b: float) -> None:
    """Refuse an interval [a, b] outside 0 <= a < b <= 1."""
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"bad interval [{a}, {b}]")


def _grid_values(path: DyadicPath, k: int, i0: int, i1: int) -> np.ndarray:
    """The path at the level-k grid points i0 .. i1, a strided view of its
    samples, for k up to its resolution: ``eval`` returns the sample itself
    at a grid point."""
    stride = 1 << (path.resolution_level - k)
    return path.samples[i0 * stride : i1 * stride + 1 : stride]


def _grid_span(a: float, b: float, k: int) -> tuple[int, int]:
    """Indices (i, j) of a = i * 2**-k and b = j * 2**-k, which must sit exactly
    on the level-k grid with 0 <= a < b <= 1."""
    scale = float(1 << k)
    if not (0.0 <= a < b <= 1.0 and (a * scale).is_integer() and (b * scale).is_integer()):
        raise BadInterval(f"[{a}, {b}] must be aligned to the level-{k} grid")
    return int(a * scale), int(b * scale)


def _add_tents(w: np.ndarray, level: int, first: int, amplitudes: np.ndarray) -> None:
    """Add to the path samples ``w`` one tent on each level-``level`` cell
    first + c: zero at the cell's ends and ``amplitudes[c]`` at its midpoint."""
    period = (w.size - 1) >> level       # samples per cell
    cells = w[first * period : (first + amplitudes.size) * period].reshape(-1, period)
    cells += amplitudes[:, None] * (1.0 - np.abs(2.0 * (np.arange(period) / period) - 1.0))


class AveragePyramid:
    """Cell averages h[k][n] of a path for all levels k = 0 .. K-1.

    Level K-1 is the exact average of the piecewise-linear path over each
    level-(K-1) cell (trapezoid of three samples); coarser levels are exact
    pairwise means of their children, so the parent-mean identity holds to
    the last bit by construction.  All levels live in one read-only block of
    2**K - 1 values, level k at [2**k - 1, 2**(k+1) - 1), and ``level(k)`` is
    a view of it.
    """

    __slots__ = ("K", "_block")

    def __init__(self, block: np.ndarray, K: int):
        self.K = K
        block.flags.writeable = False
        self._block = block

    def level(self, k: int) -> np.ndarray:
        """h[k], an array of 2**k cell averages; 0 <= k <= K-1."""
        if not 0 <= k < self.K:
            raise LevelOutOfRange(f"level {k} not in [0, {self.K - 1}]")
        return self._block[(1 << k) - 1 : (2 << k) - 1]

    def child_gap(self, k: int) -> np.ndarray:
        """Signed sibling gaps h[k+1][2n] - h[k+1][2n+1], one per level-k cell, a fresh array."""
        if not 0 <= k <= self.K - 2:
            raise LevelOutOfRange(f"child gaps need k <= {self.K - 2}")
        return _sibling_gaps(self._block, (1 << k) - 1, (2 << k) - 1)


def _all_child_gaps(pyramid: AveragePyramid) -> np.ndarray:
    """``child_gap(k)`` for every k = 0 .. K-2 from one subtraction, a fresh
    array laid out like the block: level k's gaps at [2**k - 1, 2**(k+1) - 1)."""
    return _sibling_gaps(pyramid._block, 0, pyramid._block.size // 2)


def _sibling_gaps(block: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Gaps m = start .. stop - 1 of the pyramid ``block``, block[2m + 1] -
    block[2m + 2], a fresh array: for m in [2**k - 1, 2**(k+1) - 1) these are
    level k+1's siblings, so that run is ``child_gap(k)``.  The averages are
    finite, so only an overflow makes a gap non-finite; it raises
    ``NonFinite`` naming the lowest level it reaches."""
    pairs = block[2 * start + 1 : 2 * stop + 1].reshape(-1, 2)
    try:
        with np.errstate(over="raise"):
            return pairs[:, 0] - pairs[:, 1]
    except FloatingPointError:
        with np.errstate(over="ignore"):
            first = start + int(np.argmax(np.isinf(pairs[:, 0] - pairs[:, 1])))
        k = (first + 1).bit_length()     # the level of the siblings
        raise NonFinite(f"a level-{k} sibling gap h[{k}][2n] - h[{k}][2n+1] "
                        "overflows the float range") from None


def average_pyramid(path: DyadicPath) -> AveragePyramid:
    """Exact average pyramid of the path's piecewise-linear interpolant."""
    K = path.resolution_level
    block = np.empty((1 << K) - 1)
    _mean_levels(path.samples, block, np.empty(1 << (K - 1)))
    return AveragePyramid(block, K)


def _mean_levels(s: np.ndarray, block: np.ndarray, scratch: np.ndarray) -> None:
    """Write the pyramid of the samples ``s`` into ``block``, level k at
    [2**k - 1, 2**(k+1) - 1) as ``AveragePyramid`` reads it.

    ``scratch`` holds 2**(K-1) values.  Level K-1 is the mean of the two
    level-K cell averages mean(s[2i], s[2i+1]) and mean(s[2i+1], s[2i+2]),
    with no array of length 2**K; each coarser level is the mean of its
    children.  A mean is 0.5 * (a + b), one rounding, unless a pair sum
    passed DBL_MAX, which takes samples above DBL_MAX/2 in size: an overflow
    anywhere reaches level 0 as inf or nan, and then every level is built
    again as 0.5 * a + 0.5 * b, which cannot overflow.  Below that bound no
    sum overflows and the halving is exact, so every other pyramid keeps the
    one-rounding form.

    A NaN or infinite sample also reaches level 0 as inf or nan, so the
    samples are scanned for one (``NonFinite``) only when level 0 is not
    finite, before the fallback, which runs outside ``np.errstate``.
    """
    K = (block.size + 1).bit_length() - 1
    levels = [block[(1 << k) - 1 : (2 << k) - 1] for k in range(K)]
    with np.errstate(over="ignore", invalid="ignore"):
        _pairwise_means(s, levels, scratch, _sum_then_halve)
    if not np.isfinite(levels[0][0]):
        _require_finite(s)
        _pairwise_means(s, levels, scratch, _halve_then_sum)


def _sum_then_halve(a, b, out):
    np.add(a, b, out=out)
    out *= 0.5


def _halve_then_sum(a, b, out):
    np.multiply(a, 0.5, out=out)
    out += 0.5 * b


def _pairwise_means(s, levels, scratch, mean) -> None:
    top = levels[-1]
    mean(s[0:-1:2], s[1::2], top)      # level-K cells 2i
    mean(s[1::2], s[2::2], scratch)    # level-K cells 2i + 1
    mean(top, scratch, top)
    for k in range(len(levels) - 2, -1, -1):
        child = levels[k + 1]
        mean(child[0::2], child[1::2], levels[k])


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


def _check_beta(beta: float) -> None:
    """Refuse an exponent outside the Hölder range (0, 1] that every beta of the library takes."""
    if not 0.0 < beta <= 1.0:
        raise BadExponents("beta must lie in (0, 1]")


def holder_seminorm(path: DyadicPath, alpha: float, max_lag_levels: int = 3) -> HolderEstimate:
    """Scan dyadic point pairs (t_{j,i}, t_{j,i+l}), l <= 2**max_lag_levels, at
    every level j and return the largest Hölder quotient found."""
    if not 0.0 < alpha <= 1.0:
        raise BadExponents("alpha must lie in (0, 1]")
    if max_lag_levels < 0:
        raise LevelOutOfRange(f"max_lag_levels must be >= 0, got {max_lag_levels}")
    best = 0.0
    pairs = 0
    max_lag = 1 << max_lag_levels
    for j in range(1, path.resolution_level + 1):
        g = _grid_values(path, j, 0, 1 << j)
        step = 2.0 ** -j
        for lag in range(1, min(max_lag, g.size - 1) + 1):
            diffs = np.abs(g[lag:] - g[:-lag])
            pairs += diffs.size
            q = diffs.max() / (lag * step) ** alpha
            if q > best:
                best = float(q)
    return HolderEstimate(alpha, best, max_lag_levels, pairs)
