"""CSV/JSON interchange for paths, pyramids, and reports.

Path CSV layout: header ``t,value``, rows in increasing t, abscissae exactly
n * 2**-K printed with 17 significant digits so round-trips are bit-exact.
"""

import json
import math
import re

import numpy as np

from .dyadic import AveragePyramid, DyadicPath
from .errors import NonDyadicGrid, SchemaError

GRID_TOLERANCE = 2.0 ** -40
# a double-quoted JSON string (kept) or a comment running to the end of the line
_QUOTED_OR_COMMENT = re.compile(r'("(?:[^"\\]|\\.)*")|#.*')


def write_path_csv(path: DyadicPath, filename) -> None:
    with open(filename, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(path.grid, path.samples):
            fh.write(f"{t:.17g},{v:.17g}\n")


def read_path_csv(filename) -> DyadicPath:
    """Parse and validate a path CSV; the t column must be the exact dyadic grid."""
    with open(filename) as fh:
        header = fh.readline().strip()
        if header != "t,value":
            raise SchemaError(f"expected header 't,value', got {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise SchemaError(f"malformed CSV body: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise SchemaError("expected exactly two columns")
    t, v = data[:, 0], data[:, 1]
    if np.any(np.diff(t) <= 0):
        raise SchemaError("t must be strictly increasing")
    n = t.size - 1
    K = round(math.log2(n)) if n > 0 else 0
    if n <= 0 or (1 << K) != n:
        raise SchemaError(f"row count {t.size} is not 2**K + 1 for any K >= 1")
    grid = np.arange(n + 1) / n
    if np.abs(t - grid).max() > GRID_TOLERANCE:
        raise NonDyadicGrid("t column is off the dyadic grid by more than 2**-40")
    return DyadicPath(v, K)


def write_pyramid_csv(pyramid: AveragePyramid, filename) -> None:
    with open(filename, "w") as fh:
        fh.write("k,n,h\n")
        for k in range(pyramid.K):
            for n, h in enumerate(pyramid.level(k)):
                fh.write(f"{k},{n},{h:.17g}\n")


def write_json(obj, filename) -> None:
    with open(filename, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_flat_config(filename) -> dict:
    """Flat key = value file; '#' outside a double-quoted value starts a comment.

    Values stay text, for the CLI to convert like the flags they stand for;
    a double-quoted value reads as the JSON string it spells.
    """
    out = {}
    with open(filename) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = _QUOTED_OR_COMMENT.sub(lambda m: m.group(1) or "", raw).strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = json.loads(value) if value.startswith('"') else value
    return out
