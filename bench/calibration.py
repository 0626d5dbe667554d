"""Machine-speed calibration of measured times.

On shared hosts the speed of a core changes by up to half from one minute to
the next, which swamps any change in the library.  A fixed kernel is timed
between ops, at least every CAL_INTERVAL_S, and each op's wall time is
multiplied by ``scale(before, after)`` = CAL_REF_S / (mean of the kernel
times bracketing it): reported times are what the op would take on a machine
where the kernel takes CAL_REF_S.  Each workload names the kernel whose
slowdown tracks its own.  Measured on a 2-core shared VM over 5 minutes, the
spread of 15 s medians fell from 9-19% unscaled to 2-3% (integrate-rough and
brownian-ensemble with "interp", cli-files with "vector", picard-solve with
either or both).
"""

import time

import numpy as np

CAL_REF_S = 1e-3
CAL_INTERVAL_S = 0.1
_POINTS = np.linspace(0.0, 1.0, 1 << 15)


def _interp_kernel(points) -> None:
    total = 0
    for i in range(12000):
        total += i * i
    doubled = points.copy()
    doubled *= 2.0
    doubled[::-1] += points


def _vector_kernel(points) -> None:
    for _ in range(4):
        np.sin(points).sum()


def _mixed_kernel(points) -> None:
    _interp_kernel(points[::2])
    _vector_kernel(points[::2])


KERNELS = {"interp": _interp_kernel, "vector": _vector_kernel, "mixed": _mixed_kernel}


def calibrate(kind: str) -> float:
    """Mean of three timings of calibration kernel ``kind``, in seconds.

    The mean, not the best, because an op pays the average contention over
    its run, and brief quiet moments would make the best look faster."""
    kernel = KERNELS[kind]
    start = time.perf_counter()
    for _ in range(3):
        kernel(_POINTS)
    return (time.perf_counter() - start) / 3


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference time, given the bracketing kernel times."""
    return CAL_REF_S / (0.5 * (before + after))
