"""Path generators: Brownian bridges, oscillatory tent packets, a divergence
witness, and smooth test paths.

All generators are pure functions of their parameters (and seed), so outputs
are bit-reproducible and safe to share across threads.
"""

import math

import numpy as np

from .dyadic import DyadicPath, _add_tents
from .errors import BadExponents, NonFinite, ResolutionTooCoarse


def gen_brownian(K: int, seed: int) -> DyadicPath:
    """Standard Brownian motion sampled on the level-K dyadic grid.

    Midpoint (bridge) construction: level j fills the 2**(j-1) midpoints
    between the level-(j-1) points, each from an independent counter-based
    stream keyed by (seed, j).  Grid values carry the exact Brownian
    finite-dimensional laws, g(0) = 0, and refining K leaves the coarser
    values unchanged for a fixed seed.

    Each level is filled in place through strided views of the sample array
    (midpoints, left and right neighbours), with no index arrays.  The
    arithmetic is 0.5 * (left + right) + 2**(-(j+1)/2) * z in that order, so
    the samples for a given (K, seed) are those of the index-array form of
    the same recursion, bit for bit.
    """
    _check_brownian_args(K, seed)
    w = np.empty((1 << K) + 1)
    _fill_brownian(w, seed, np.empty(1 << (K - 1)))
    w.flags.writeable = False   # handed over without a copy
    return DyadicPath(w, K)


def _check_brownian_args(K: int, seed: int) -> None:
    if K < 1:
        raise ResolutionTooCoarse("K must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")


def _fill_brownian(w: np.ndarray, seed: int, z: np.ndarray) -> None:
    """Write the bridge for ``seed`` into ``w`` (2**K + 1 samples) in place.

    ``z`` is scratch of at least 2**(K-1) values: level j draws its normals
    into ``z[:count]`` from the Philox stream keyed by (seed, j).
    """
    n = w.size - 1
    K = n.bit_length() - 1
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)

    def normals(level: int, count: int) -> np.ndarray:
        key[1] = level
        out = z[:count]
        np.random.Generator(np.random.Philox(key=key)).standard_normal(out=out)
        return out

    w[0] = 0.0
    w[n] = normals(0, 1)[0]
    for j in range(1, K + 1):
        step = 1 << (K - j)
        mid = w[step:n:2 * step]
        np.add(w[0 : n - step : 2 * step], w[2 * step :: 2 * step], out=mid)
        mid *= 0.5
        zj = normals(j, mid.size)
        zj *= 2.0 ** (-(j + 1) / 2)
        mid += zj


def oscillation_levels(alpha: float, A: float, m_max: int) -> list[int]:
    """Packet frequency offsets n_m: the smallest integers >= (A + alpha*m)/(1 - alpha).

    Raises ``ResolutionTooCoarse`` when the largest offset passes the float
    range (A near DBL_MAX): no grid resolves such a packet.
    """
    _last_oscillation_level(alpha, A, m_max)
    return [math.ceil((A + alpha * m) / (1.0 - alpha) - 1e-12) for m in range(1, m_max + 1)]


def _last_oscillation_level(alpha: float, A: float, m_max: int) -> int:
    """The last entry of ``oscillation_levels``, found without building the list."""
    with np.errstate(over="ignore"):   # numpy-float arguments overflow quietly, like floats
        top = (A + alpha * m_max) / (1.0 - alpha)
    if not math.isfinite(top):
        raise ResolutionTooCoarse(f"packet level (A + alpha*m)/(1 - alpha) overflows at "
                                  f"A = {float(A)!r}; no grid resolves it")
    return math.ceil(top - 1e-12)


def gen_oscillatory(alpha: float, beta: float, A: float, m_max: int, K: int) -> DyadicPath:
    """High-frequency tent-packet path.

    Packet m lives on [2**-m, 2**-m+1] and consists of one tent of height
    2**-(n_m+m+1)*alpha on each of its 2**n_m level-(n_m+m) cells, with n_m
    from ``oscillation_levels``.  Tent signs are fixed to +1.  The path
    vanishes at every grid point outside the packet supports.  K is checked
    against the last packet before the levels are listed, so a huge m_max
    fails at once, in constant memory.
    """
    if not (alpha > 0 and beta > 0 and alpha + beta < 1):
        raise BadExponents("need alpha, beta > 0 and alpha + beta < 1")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if not 0.0 <= A < math.inf:
        raise ValueError("A must be finite and >= 0")
    needed = _last_oscillation_level(alpha, A, m_max) + m_max + 2
    if K < needed:
        raise ResolutionTooCoarse(f"K={K} too coarse; need K >= {needed}")
    n_m = oscillation_levels(alpha, A, m_max)
    w = np.zeros((1 << K) + 1)
    for m, n in enumerate(n_m, 1):
        kappa = n + m                 # tent level; packet m is its cells 2**n .. 2**(n+1) - 1
        _add_tents(w, kappa, 1 << n, np.full(1 << n, 2.0 ** (-(kappa + 1) * alpha)))
    w.flags.writeable = False
    return DyadicPath(w, K)


def counterexample_base_level(alpha: float, beta: float) -> int:
    """Coarsest tent layer index of the divergence witness construction.

    The index grows without bound as gamma = alpha + beta nears 0 or 1.
    Raises ``ResolutionTooCoarse`` when it leaves the float range: at gamma =
    1 - 2**-53, for one, 2**(1 - gamma) rounds to 1 and no grid resolves
    the construction.
    """
    gamma = alpha + beta
    rise = 2.0 ** (1.0 - gamma) - 1.0
    with np.errstate(over="ignore"):   # numpy-float arguments overflow quietly, like floats
        level = (1.0 / gamma) * math.log2(4.0 / rise) + 1.0 if rise > 0.0 else math.inf
    if not math.isfinite(level):
        raise ResolutionTooCoarse(f"base level overflows at alpha + beta = {float(gamma)!r}; "
                                  "no grid resolves it")
    return math.floor(level)


def gen_counterexample(alpha: float, beta: float, K: int) -> DyadicPath:
    """Path in the alpha-Hölder class whose existence diagnostic diverges.

    Layer k > k0 places, on every level-k dyadic cell inside the geometric
    band J_k = [2**-k(1-gamma), 2**-(k-1)(1-gamma)] (gamma = alpha + beta), a
    tent of height 2**-(k+1)*alpha on the first half of the cell, which is
    the even level-(k+1) cell 2n inside level-k cell n.  Layers run
    to the finest level the grid can represent so every resolvable diagnostic
    level keeps receiving fresh oscillation.
    """
    if not (alpha > 0 and beta > 0 and alpha + beta < 1):
        raise BadExponents("need alpha, beta > 0 and alpha + beta < 1")
    k0 = counterexample_base_level(alpha, beta)
    if K < k0 + 4:
        raise ResolutionTooCoarse(f"K={K} too coarse; need K >= {k0 + 4}")
    gamma = alpha + beta
    w = np.zeros((1 << K) + 1)
    for k in range(k0 + 1, K - 1):
        right = 2.0 ** (-(k - 1) * (1.0 - gamma))
        left = 2.0 ** (-k * (1.0 - gamma))
        scale = 1 << k
        # A band edge is often a grid point in exact arithmetic, but the
        # powers above land about 1e-13 cells off it, beyond the 4-ulp slop of
        # ``dyadic._cells_within``: at alpha = 0.01, beta = 0.34 and k = 20,
        # left * scale is 128.00000000000017, and that slop would start the
        # band at cell 129.  The 1e-9 slop keeps every such edge cell.
        m_lo = math.ceil(left * scale - 1e-9)
        m_hi = math.floor(right * scale + 1e-9) - 1
        if m_hi < m_lo:
            continue
        heights = np.zeros(2 * (m_hi - m_lo + 1))
        heights[::2] = 2.0 ** (-(k + 1) * alpha)
        _add_tents(w, k + 1, 2 * m_lo, heights)
    w.flags.writeable = False
    return DyadicPath(w, K)


_ANALYTIC = {
    "linear": lambda t: t,
    "square": lambda t: t * t,
    "sine": np.sin,
}


def gen_analytic(kind, K: int) -> DyadicPath:
    """Sample a smooth reference path: 'linear', 'square', 'sine', or any
    vectorized callable on [0, 1]."""
    fn = _ANALYTIC.get(kind, kind) if isinstance(kind, str) else kind
    if isinstance(fn, str):
        raise ValueError(f"unknown analytic path kind {kind!r}")
    t = np.linspace(0.0, 1.0, (1 << K) + 1)
    vals = np.asarray(fn(t), dtype=float)
    if not np.isfinite(vals).all():
        raise NonFinite("analytic path produced non-finite samples")
    if isinstance(kind, str):
        vals.flags.writeable = False   # a builtin kind's fresh array, handed over without a copy
    return DyadicPath(vals, K)
