"""Functionals that decide or bound whether the staircase integral exists.

Everything here is a read-only reduction of an average pyramid: Lévy areas
between successive staircases, their weighted partial sums, interval gap
functionals, the scaling norm built from them, per-level quadratic gap sums,
and the Wiener ensemble statistic.

Convention: the Lévy area between the level-k and level-(k+1) staircases is
the exact geometric area 2**-(k+1) * sum_n |h[k+1][2n] - h[k+1][2n+1]|.  All
weighted sums below use this convention consistently; reports carry the raw
arrays so callers can rescale.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dyadic import AveragePyramid
from .errors import BadExponents, BadInterval, LevelOutOfRange
from .generators import gen_brownian

WIENER_CONSTANT = math.sqrt(2.0 / (3.0 * math.pi))


def levy_area(pyramid: AveragePyramid, k: int) -> float:
    """|B_k|: area between the level-k and level-(k+1) staircases."""
    if not 0 <= k <= pyramid.K - 2:
        raise LevelOutOfRange(f"levy_area needs 0 <= k <= {pyramid.K - 2}")
    return float(2.0 ** -(k + 1) * np.abs(pyramid.child_gap(k)).sum())


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """Weighted Lévy-area summability diagnostic for one exponent beta.

    ``terms[i]`` is 2**(k(1-beta)) * |B_{k-1}| for k = levels[i]; partial sums
    are nondecreasing by construction.  The verdict is a finite-resolution
    heuristic (trend of the last four terms); the raw arrays are always
    carried so callers can apply their own rule.
    """

    beta: float
    levels: np.ndarray
    levy_areas: np.ndarray
    terms: np.ndarray
    partial_sums: np.ndarray
    verdict: str
    rule: str = "4-level trend: fitted ratio < 0.95 converging; nondecreasing diverging"

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "levels": [
                {
                    "k": int(k),
                    "B": float(b),
                    "term": float(t),
                    "partial_sum": float(p),
                }
                for k, b, t, p in zip(self.levels, self.levy_areas, self.terms, self.partial_sums)
            ],
            "verdict": self.verdict,
            "rule": self.rule,
        }


def _trend_verdict(terms: np.ndarray) -> str:
    if terms.size == 0 or not terms.any():
        return "converging"
    if terms.size < 4:
        return "inconclusive"
    tail = terms[-4:]
    scale = tail.max()
    if np.all(np.diff(tail) >= -1e-12 * scale):
        return "diverging"
    if np.all(tail > 0):
        ratio = (tail[-1] / tail[0]) ** (1.0 / 3.0)
        if ratio < 0.95:
            return "converging"
    elif tail[-1] == 0.0:
        return "converging"
    return "inconclusive"


def existence_report(pyramid: AveragePyramid, beta: float) -> DiagnosticsReport:
    """Partial sums of 2**(k(1-beta)) |B_{k-1}| over every resolvable level."""
    if not 0.0 < beta < 1.0:
        raise BadExponents("beta must lie in (0, 1)")
    ks = np.arange(1, pyramid.K)
    areas = np.array([levy_area(pyramid, k - 1) for k in ks])
    terms = 2.0 ** (ks * (1.0 - beta)) * areas
    return DiagnosticsReport(
        beta=beta,
        levels=ks,
        levy_areas=areas,
        terms=terms,
        partial_sums=np.cumsum(terms),
        verdict=_trend_verdict(terms),
    )


def base_level(a: float, b: float) -> int:
    """k0 with 2**-(k0+1) <= b - a <= 2**-(k0-1), taken as floor(log2(2/(b-a)))."""
    return math.floor(math.log2(2.0 / (b - a)) + 1e-12)


def _cells_within(a: float, b: float, k: int) -> tuple[int, int]:
    """Index range [c_lo, c_hi] of level-k cells fully inside [a, b]."""
    scale = float(1 << k)
    c_lo = math.ceil(a * scale - 4.0 * np.spacing(max(1.0, a * scale)))
    c_hi = math.floor(b * scale + 4.0 * np.spacing(max(1.0, b * scale))) - 1
    return c_lo, c_hi


def gap_functional(
    pyramid: AveragePyramid,
    a: float,
    b: float,
    beta: float,
    k_min: int | None = None,
    k_max: int | None = None,
) -> float:
    """Tail-weighted sum of sibling average gaps over [a, b].

    sum_{k > k0} 2**(-(k+1)beta + 1) * sum_{cells in [a,b]} |h[k+1][2c] - h[k+1][2c+1]|,
    truncated at level K-2 (pass k_min/k_max to move the window).
    """
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"bad interval [{a}, {b}]")
    if not 0.0 < beta < 1.0:
        raise BadExponents("beta must lie in (0, 1)")
    lo = base_level(a, b) + 1 if k_min is None else k_min
    hi = pyramid.K - 2 if k_max is None else min(k_max, pyramid.K - 2)
    total = 0.0
    for k in range(max(lo, 0), hi + 1):
        c_lo, c_hi = _cells_within(a, b, k)
        if c_hi < c_lo:
            continue
        prefix = pyramid.gap_prefix(k)
        total += 2.0 ** (-(k + 1) * beta + 1.0) * (prefix[c_hi + 1] - prefix[c_lo])
    return total


def gap_truncation_level(pyramid: AveragePyramid) -> int:
    """Finest level the gap functional can use (reported with every estimate)."""
    return pyramid.K - 2


@dataclass(frozen=True, eq=False)
class ScalingNormEstimate:
    """Sup over scanned dyadic intervals of gap_functional / (b-a)**(beta+gamma)."""

    beta: float
    gamma: float
    value: float
    argmax_interval: tuple[float, float]
    scan_depth: int
    truncation_level: int


def scaling_norm(
    pyramid: AveragePyramid, beta: float, gamma: float, scan_depth: int = 6
) -> ScalingNormEstimate:
    """Estimate the interval-scaling norm by scanning aligned dyadic cells
    [i*2**-j, (i+1)*2**-j] for every j <= scan_depth (the full interval is the
    j = 0 candidate).  Only dyadic-aligned intervals are scanned, so the value
    is a lower bound for the true sup over all intervals."""
    if beta <= 0 or gamma <= 0:
        raise BadExponents("beta and gamma must be positive")
    best = 0.0
    arg = (0.0, 1.0)
    for j in range(0, min(scan_depth, pyramid.K - 2) + 1):
        width = 2.0 ** -j
        for i in range(1 << j):
            a, b = i * width, (i + 1) * width
            mu = gap_functional(pyramid, a, b, beta)
            val = mu / width ** (beta + gamma)
            if val > best:
                best, arg = val, (a, b)
    return ScalingNormEstimate(
        beta=beta,
        gamma=gamma,
        value=best,
        argmax_interval=arg,
        scan_depth=scan_depth,
        truncation_level=gap_truncation_level(pyramid),
    )


def operator_tail_constant(pyramid: AveragePyramid, beta: float) -> float:
    """Best constant C with tail sums <= C * 2**(-beta*k0) over resolved k0.

    Returns sup_{k0} 2**(beta*k0) * sum_{k > k0} 2**(k(1-beta)) |B_{k-1}|,
    or inf when the per-level terms do not decay within resolution.
    """
    report = existence_report(pyramid, beta)
    if report.verdict == "diverging":
        return float("inf")
    total = report.partial_sums[-1]
    best = 0.0
    for i, k0 in enumerate(report.levels[:-1]):
        tail = total - report.partial_sums[i]
        best = max(best, 2.0 ** (beta * k0) * tail)
    return float(best)


def quadratic_gap_sum(pyramid: AveragePyramid, a: float, b: float, k: int) -> float:
    """Per-level sum of squared sibling gaps over cells inside [a, b]."""
    if not 0.0 <= a < b <= 1.0:
        raise BadInterval(f"bad interval [{a}, {b}]")
    if not 0 <= k <= pyramid.K - 2:
        raise LevelOutOfRange(f"quadratic_gap_sum needs 0 <= k <= {pyramid.K - 2}")
    c_lo, c_hi = _cells_within(a, b, k)
    if c_hi < c_lo:
        return 0.0
    g = pyramid.child_gap(k)
    return float(np.square(g[c_lo : c_hi + 1]).sum())


def quadratic_gap_sweep(pyramid: AveragePyramid, a: float, b: float) -> np.ndarray:
    """quadratic_gap_sum for every resolvable level, as an array over k."""
    return np.array([quadratic_gap_sum(pyramid, a, b, k) for k in range(pyramid.K - 1)])


def wiener_statistic(pyramid: AveragePyramid, k: int) -> float:
    """2**(-k/2) * sum_m |h[k+1][2m+1] - h[k+1][2m]|.

    Requires K >= k + 6 so interpolation bias in the averages stays well
    below the statistic's own dispersion.
    """
    if not 0 <= k <= pyramid.K - 6:
        raise LevelOutOfRange(f"wiener_statistic needs k <= {pyramid.K - 6}")
    return float(2.0 ** (-k / 2.0) * np.abs(pyramid.child_gap(k)).sum())


def wiener_ensemble(
    k_list,
    n_paths: int,
    K: int,
    seed: int,
    threads: int | None = None,
) -> dict:
    """Monte-Carlo summary of the Wiener statistic over fresh Brownian paths.

    Paths use seeds seed, seed+1, ..., and the reduction order is fixed, so
    the report is deterministic for any thread count.
    """
    k_list = [int(k) for k in k_list]
    for k in k_list:
        if k > K - 6:
            raise LevelOutOfRange(f"k={k} needs K >= {k + 6}")

    def stats_for(path_seed: int) -> list[float]:
        pyr = gen_brownian(K, path_seed).pyramid()
        return [wiener_statistic(pyr, k) for k in k_list]

    seeds = range(seed, seed + n_paths)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(stats_for, seeds))
    else:
        rows = [stats_for(s) for s in seeds]
    data = np.array(rows)
    report = {"K": K, "n_paths": n_paths, "seed": seed, "target": WIENER_CONSTANT, "levels": []}
    for i, k in enumerate(k_list):
        col = data[:, i]
        mean = float(col.mean())
        var = float(col.var(ddof=1)) if n_paths > 1 else 0.0
        report["levels"].append(
            {
                "k": k,
                "mean": mean,
                "variance": var,
                "stderr": math.sqrt(var / n_paths) if n_paths > 1 else 0.0,
            }
        )
    return report
