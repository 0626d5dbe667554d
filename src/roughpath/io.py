"""CSV/JSON interchange for paths, pyramids, ODE solutions and reports.

Every CSV goes through one row writer, which prints each float with 17
significant digits so round-trips are bit-exact.  The layouts:

- path: header ``t,value``, rows in increasing t, abscissae exactly n * 2**-K;
- average pyramid: header ``k,n,h``, levels k = 0 .. K-1 in order;
- ODE solution: header ``t,y1,..,ym``;
- Itô residuals: header ``seed,residual``.

The path reader rejects a header-only file, a NaN or non-increasing time
column, a row count other than 2**K + 1 for K >= 1, and times off the
dyadic grid.
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
_FLOAT = "%.17g"        # enough digits to read every double back bit-exact
_BLOCK_ROWS = 1 << 12   # rows formatted per write: the text held at once stays small


def _write_rows(fh, row: str, columns) -> None:
    """Write ``row % values`` for every row of ``columns`` to ``fh``.

    ``columns`` are equal-length numpy arrays or sequences of Python numbers;
    arrays are read through ``tolist``, so every value is a Python int or
    float and a column of Python ints (seeds) keeps its full width.  Each
    block of ``_BLOCK_ROWS`` rows is one %-format of ``row`` repeated.
    """
    width = len(columns)
    n = len(columns[0])
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        values = [None] * ((hi - lo) * width)
        for j, column in enumerate(columns):
            part = column[lo:hi]
            values[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
        fh.write((row * (hi - lo)) % tuple(values))


def write_path_csv(path: DyadicPath, filename) -> None:
    with open(filename, "w") as fh:
        fh.write("t,value\n")
        _write_rows(fh, f"{_FLOAT},{_FLOAT}\n", [path.grid, path.samples])


def read_path_csv(filename) -> DyadicPath:
    """Parse and validate a path CSV; the t column must be the exact dyadic grid."""
    with open(filename) as fh:
        header = fh.readline().strip()
        if header != "t,value":
            raise SchemaError(f"expected header 't,value', got {header!r}")
        # np.loadtxt only warns on a body without data rows
        body = fh.tell()
        if not any(line.split("#", 1)[0].strip() for line in iter(fh.readline, "")):
            raise SchemaError("no data rows after the header")
        fh.seek(body)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise SchemaError(f"malformed CSV body: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise SchemaError("expected exactly two columns")
    t, v = data[:, 0], data[:, 1]
    if not (np.diff(t) > 0).all():   # NaN fails too
        raise SchemaError("t must be strictly increasing")
    n = t.size - 1
    K = round(math.log2(n)) if n > 0 else 0
    if n < 2 or (1 << K) != n:
        raise SchemaError(f"row count {t.size} is not 2**K + 1 for any K >= 1")
    grid = np.arange(n + 1) / n
    if not np.abs(t - grid).max() <= GRID_TOLERANCE:
        raise NonDyadicGrid("t column is off the dyadic grid by more than 2**-40")
    return DyadicPath(v, K)


def write_pyramid_csv(pyramid: AveragePyramid, filename) -> None:
    with open(filename, "w") as fh:
        fh.write("k,n,h\n")
        for k in range(pyramid.K):
            _write_rows(fh, f"{k},%d,{_FLOAT}\n", [range(1 << k), pyramid.level(k)])


def write_solution_csv(solution, filename) -> None:
    """The grid times and components of an ``OdeSolution``, one row per time."""
    m = solution.y.shape[0]
    with open(filename, "w") as fh:
        fh.write("t," + ",".join(f"y{i + 1}" for i in range(m)) + "\n")
        _write_rows(fh, ",".join([_FLOAT] * (m + 1)) + "\n", [solution.t, *solution.y])


def write_residuals_csv(seeds, residuals, filename) -> None:
    """One ``seed,residual`` row per path; ``seeds`` holds Python ints of any size."""
    with open(filename, "w") as fh:
        fh.write("seed,residual\n")
        _write_rows(fh, f"%d,{_FLOAT}\n", [seeds, residuals])


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
