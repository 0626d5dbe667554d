"""One-dimensional Gauss-Legendre quadrature with vectorized bisection refinement.

Integrands are smooth on each requested interval (the library only ever asks
for integrals of continuous fields over short vertical segments), so a fixed
low-order rule plus compare-with-two-halves refinement is both cheap and
reliable.  All routines accept signed bounds: swapping lo and hi negates the
result, which is what oriented line integrals need.
"""

import numpy as np

from .errors import NonFinite, QuadratureFailure

_XI, _W = np.polynomial.legendre.leggauss(8)   # the one Gauss-Legendre panel rule
_SLICE = 1 << 13        # intervals refined together (see refine_batch)
_MAX_LEAVES = 1 << 17   # live leaves per slice before refinement gives up
_MAX_SPLITS = 48        # bisection depth cap


def refine_batch(eval_xs, lo, hi, tol: float = 1e-10):
    """Adaptive signed integrals over a batch of intervals.

    ``eval_xs(owner, x2d) -> values`` evaluates the integrand on an
    (n_panels, nodes) grid; ``owner[r]`` is the index of the requested
    interval that row r belongs to, so per-interval parameters (e.g. the
    frozen abscissa of a vertical segment) ride along.  Each interval is
    refined by bisection until, on every leaf, the one-panel value and the
    two-half value agree to the absolute ``tol``.  The budget does not halve
    with each split: every leaf keeps ``tol``, since halving it would starve
    endpoint singularities of depth.  An interval's accumulated error
    estimate is then at most its leaf count times tol; integrands here
    produce only short refinement chains.  A non-finite panel sum
    raises ``NonFinite`` at once: splitting cannot cure it, and each split
    would double the leaves that carry it.  Refinement that would carry more
    than ``_MAX_LEAVES`` leaves of one slice into the next split raises
    ``QuadratureFailure``, so a finite integrand that never meets ``tol``
    (such as exp(1000 x), whose panel errors dwarf any absolute tolerance)
    stops within bounded memory instead of doubling its leaves each split.

    Intervals are refined in slices of at most ``_SLICE``, which keeps each
    (rows, nodes) temporary at 0.5 MiB for 8 nodes.  With glibc's default
    malloc settings, freed arrays of 2 MiB and more go back to the system,
    so a whole-batch temporary of that size pays fresh page faults at every
    panel.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    total = np.zeros(lo.size)
    for first in range(0, lo.size, _SLICE):
        rows = slice(first, first + _SLICE)
        total[rows] = _refine_slice(eval_xs, lo[rows], hi[rows], first, tol)
    return total


def _refine_slice(eval_xs, lo, hi, first: int, tol: float):
    """refine_batch for the intervals first .. first + lo.size - 1."""
    n = lo.size
    total = np.zeros(n)

    def panels(owner, a, b):
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        x = mid[:, None] + half[:, None] * _XI[None, :]
        return half * (eval_xs(first + owner, x) @ _W)

    def check_finite(sums, owner):
        bad = ~np.isfinite(sums)
        if bad.any():
            r = owner[bad][0]
            raise NonFinite(
                f"non-finite integrand on interval {first + r}: [{lo[r]:.17g}, {hi[r]:.17g}]"
            )

    owner = np.arange(n)
    a, b = lo.copy(), hi.copy()
    coarse = panels(owner, a, b)
    check_finite(coarse, owner)
    for split in range(_MAX_SPLITS + 1):
        m = 0.5 * (a + b)
        left = panels(owner, a, m)
        right = panels(owner, m, b)
        fine = left + right
        # a finite fine sum has finite halves, so later coarse sums are finite too
        check_finite(fine, owner)
        done = np.abs(fine - coarse) <= tol
        np.add.at(total, owner[done], fine[done])
        if done.all():
            return total
        keep = ~done
        owner = np.concatenate([owner[keep], owner[keep]])
        if owner.size > _MAX_LEAVES:
            raise QuadratureFailure(
                f"{owner.size} subintervals still above tolerance after {split + 1} splits"
            )
        a, b = np.concatenate([a[keep], m[keep]]), np.concatenate([m[keep], b[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
    raise QuadratureFailure(
        f"{owner.size} subintervals still above tolerance after {_MAX_SPLITS} splits"
    )

