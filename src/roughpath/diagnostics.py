"""Functionals that decide or bound whether the staircase integral exists.

Everything here is a read-only reduction of an average pyramid: Lévy areas
between successive staircases, their weighted partial sums, interval gap
functionals, the scaling norm built from them, and the Wiener ensemble
statistic.

Convention: the Lévy area between the level-k and level-(k+1) staircases is
the exact geometric area 2**-(k+1) * sum_n |h[k+1][2n] - h[k+1][2n+1]|.  All
weighted sums below use this convention consistently; reports carry the raw
arrays so callers can rescale.
"""

import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dyadic import (AveragePyramid, _all_child_gaps, _cells_within, _check_beta,
                     _check_interval, _mean_levels)
from .errors import BadExponents, LevelOutOfRange
from .generators import _check_brownian_args, _fill_brownian

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
    rule: ClassVar[str] = "4-level trend: fitted ratio < 0.95 converging; nondecreasing diverging"

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
    """Partial sums of 2**(k(1-beta)) |B_{k-1}| over every resolvable level.

    Every level's sibling gaps come from one subtraction over the pyramid's
    block, and |B_{k-1}| sums level k-1's contiguous run of them, so each area
    equals ``levy_area(pyramid, k - 1)`` bit for bit; an overflowing gap raises
    ``NonFinite`` naming the lowest level it reaches.  beta takes the Hölder
    range (0, 1] of ``OdeProblem``, so ``solve`` checks every problem it
    accepts; at beta = 1 the terms are the areas themselves.
    """
    _check_beta(beta)
    ks = np.arange(1, pyramid.K)
    gaps = _all_child_gaps(pyramid)
    np.abs(gaps, out=gaps)   # in place: one transient of 2**(K-1) - 1 values, not two
    # level k - 1's gaps sit at [2**(k-1) - 1, 2**k - 1)
    areas = np.array([2.0 ** -k * gaps[(1 << (k - 1)) - 1 : (1 << k) - 1].sum()
                      for k in range(1, pyramid.K)])
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


def gap_functional(
    pyramid: AveragePyramid,
    a: float,
    b: float,
    beta: float,
) -> float:
    """Tail-weighted sum of sibling average gaps over [a, b].

    sum_{k > k0} 2**(-(k+1)beta + 1) * sum_{cells in [a,b]} |h[k+1][2c] - h[k+1][2c+1]|,
    truncated at level K-2.
    """
    _check_interval(a, b)
    _check_beta(beta)
    total = 0.0
    for k in range(base_level(a, b) + 1, pyramid.K - 1):
        c_lo, c_hi = _cells_within(a, b, k)
        if c_hi < c_lo:
            continue
        prefix = _gap_prefix(pyramid, k, c_hi + 1)
        total += 2.0 ** (-(k + 1) * beta + 1.0) * (prefix[c_hi + 1] - prefix[c_lo])
    return total


def _gap_prefix(pyramid: AveragePyramid, k: int, stop: int | None = None) -> np.ndarray:
    """Prefix sums of |child_gap(k)[:stop]| with a leading zero.

    ``np.cumsum`` adds in order, so a prefix cut at ``stop`` holds the whole
    level's first stop + 1 entries bit for bit.  The gaps are taken over the
    whole level, so an overflow anywhere in it still raises.
    """
    return np.concatenate([[0.0], np.cumsum(np.abs(pyramid.child_gap(k)[:stop]))])


@dataclass(frozen=True, eq=False)
class ScalingNormEstimate:
    """Sup over scanned dyadic intervals of gap_functional / (b-a)**(beta+gamma)."""

    beta: float
    gamma: float
    value: float
    argmax_interval: tuple[float, float]
    scan_depth: int


def scaling_norm(
    pyramid: AveragePyramid, beta: float, gamma: float, scan_depth: int = 6
) -> ScalingNormEstimate:
    """Estimate the interval-scaling norm by scanning aligned dyadic cells
    [i*2**-j, (i+1)*2**-j] for every j <= scan_depth (the full interval is the
    j = 0 candidate).  Only dyadic-aligned intervals are scanned, so the value
    is a lower bound for the true sup over all intervals.

    Each cell gets ``gap_functional``'s value bit for bit, from one gap prefix
    per level and call.  The first strictly greater value wins, by depth and
    then left to right; a NaN, 0/0 once width**(beta+gamma) underflows, never does.
    """
    _check_beta(beta)
    if not gamma > 0:   # NaN too
        raise BadExponents("gamma must be positive")
    if scan_depth < 0:
        raise LevelOutOfRange(f"scan_depth must be >= 0, got {scan_depth}")
    sums = [np.zeros(1 << j) for j in range(min(scan_depth, pyramid.K - 2) + 1)]
    for k in range(2, pyramid.K - 1):    # depth j sums levels j + 2 = base_level + 1 .. K - 2
        prefix = _gap_prefix(pyramid, k)
        for j in range(min(len(sums), k - 1)):
            sums[j] += 2.0 ** (-(k + 1) * beta + 1.0) * np.diff(prefix[:: 1 << (k - j)])
    best, arg = 0.0, (0.0, 1.0)
    for j, mu in enumerate(sums):
        width = 2.0 ** -j
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = mu / width ** (beta + gamma)
        top = np.fmax.reduce(vals)   # NaN only when every value is
        if top > best:
            i = int(np.argmax(vals == top))
            best, arg = vals[i], (i * width, (i + 1) * width)
    return ScalingNormEstimate(beta, gamma, best, arg, scan_depth)


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


def wiener_statistic(pyramid: AveragePyramid, k: int) -> float:
    """2**(-k/2) * sum_m |h[k+1][2m+1] - h[k+1][2m]|.

    Requires K >= k + 6 so interpolation bias in the averages stays well
    below the statistic's own dispersion.
    """
    if not 0 <= k <= pyramid.K - 6:
        raise LevelOutOfRange(f"wiener_statistic needs 0 <= k <= K - 6 = {pyramid.K - 6}, got {k}")
    return float(2.0 ** (-k / 2.0) * np.abs(pyramid.child_gap(k)).sum())


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not on every platform
        return os.cpu_count() or 1


def wiener_ensemble(
    k_list,
    n_paths: int,
    K: int,
    seed: int,
    threads: int | None = None,
) -> dict:
    """Monte-Carlo summary of the Wiener statistic over fresh Brownian paths.

    Paths use seeds seed, seed+1, ..., split into one contiguous chunk per
    worker thread; at most one worker runs per usable core.  Each worker
    builds its paths one after another in one workspace: 2**K + 1 samples,
    a scratch of 2**(K-1) + 1 values and the 2**K - 1 averages of the
    pyramid, about 5 MiB at K = 18.  Rows are joined in seed order and
    reduced in a fixed order, so the report is bit-identical for any thread
    count.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    _check_brownian_args(K, seed)
    k_list = [int(k) for k in k_list]
    for k in k_list:
        if not 0 <= k <= K - 6:
            raise LevelOutOfRange(f"wiener_ensemble needs 0 <= k <= K - 6 = {K - 6}, got {k}")

    threads = max(1, min(threads or 1, _usable_cores(), n_paths))
    ends = [seed + n_paths * i // threads for i in range(threads + 1)]
    chunks = [range(a, b) for a, b in zip(ends, ends[1:])]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor   # only threaded runs pay its import

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda chunk: _wiener_rows(k_list, K, chunk), chunks))
    else:
        parts = [_wiener_rows(k_list, K, chunks[0])]
    data = np.array([row for part in parts for row in part])
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


def _wiener_rows(k_list: list[int], K: int, seeds: range) -> list[list[float]]:
    """Wiener statistics of the paths ``seeds``, built one by one in one workspace.

    Each path gets the checks a fresh ``gen_brownian(K, s).pyramid()`` gets:
    finite samples and the DBL_MAX fallback of the pyramid, both in
    ``_mean_levels``.  ``z`` is the bridge's second buffer and then the
    pyramid's scratch.
    """
    w = np.empty((1 << K) + 1)
    z = np.empty((1 << (K - 1)) + 1)
    block = np.empty((1 << K) - 1)
    rows = []
    for s in seeds:
        _fill_brownian(w, s, z)
        _mean_levels(w, block, z[1:])
        # a view: the pyramid marks what it holds read-only, the workspace stays writeable
        pyr = AveragePyramid(block[:], K)
        rows.append([wiener_statistic(pyr, k) for k in k_list])
    return rows
