"""One-dimensional Gauss-Legendre quadrature with vectorized bisection refinement.

Integrands are smooth on each requested interval (the library only ever asks
for integrals of continuous fields over short vertical segments), so a fixed
low-order rule plus compare-with-two-halves refinement is both cheap and
reliable.  All routines accept signed bounds: swapping lo and hi negates the
result, which is what oriented line integrals need.
"""

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-10      # absolute refinement target per requested interval
    max_splits: int = 48    # bisection depth cap
    nodes: int = 8          # Gauss-Legendre panel order


_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_SLICE = 1 << 13        # intervals refined together (see refine_batch)


def gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _NODE_CACHE:
        _NODE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _NODE_CACHE[n]


def refine_batch(eval_xs, lo, hi, cfg: QuadratureConfig | None = None):
    """Adaptive signed integrals over a batch of intervals.

    ``eval_xs(owner, x2d) -> values`` evaluates the integrand on an
    (n_panels, nodes) grid; ``owner[r]`` is the index of the requested
    interval that row r belongs to, so per-interval parameters (e.g. the
    frozen abscissa of a vertical segment) ride along.  Each interval is
    refined by bisection until, on every leaf, the one-panel value and the
    two-half value agree to ``cfg.tol``.  The budget does not halve with each
    split: every leaf keeps ``cfg.tol``, so an interval's accumulated error
    estimate is at most its leaf count times tol.

    Intervals are refined in slices of at most ``_SLICE``, which keeps each
    (rows, nodes) temporary at 0.5 MiB for 8 nodes.  With glibc's default
    malloc settings, freed arrays of 2 MiB and more go back to the system,
    so a whole-batch temporary of that size pays fresh page faults at every
    panel.
    """
    cfg = cfg or QuadratureConfig()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    total = np.zeros(lo.size)
    for first in range(0, lo.size, _SLICE):
        rows = slice(first, first + _SLICE)
        total[rows] = _refine_slice(eval_xs, lo[rows], hi[rows], first, cfg)
    return total


def _refine_slice(eval_xs, lo, hi, first: int, cfg: QuadratureConfig):
    """refine_batch for the intervals first .. first + lo.size - 1."""
    xi, w = gauss_nodes(cfg.nodes)
    n = lo.size
    total = np.zeros(n)

    def panels(owner, a, b):
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        x = mid[:, None] + half[:, None] * xi[None, :]
        return half * (eval_xs(first + owner, x) @ w)

    owner = np.arange(n)
    a, b = lo.copy(), hi.copy()
    coarse = panels(owner, a, b)
    tol = np.full(n, cfg.tol)
    for _ in range(cfg.max_splits + 1):
        m = 0.5 * (a + b)
        left = panels(owner, a, m)
        right = panels(owner, m, b)
        fine = left + right
        done = np.abs(fine - coarse) <= tol
        np.add.at(total, owner[done], fine[done])
        if done.all():
            return total
        keep = ~done
        owner = np.concatenate([owner[keep], owner[keep]])
        a, b = np.concatenate([a[keep], m[keep]]), np.concatenate([m[keep], b[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        # The per-leaf budget stays at cfg.tol: halving it would starve endpoint
        # singularities of depth; accumulated error is then <= leaves * tol,
        # and integrands here produce only short refinement chains.
        tol = np.concatenate([tol[keep], tol[keep]])
    raise QuadratureFailure(
        f"{owner.size} subintervals still above tolerance after {cfg.max_splits} splits"
    )

