"""CSV/JSON interchange for paths, pyramids, and reports.

Path CSV layout: header ``t,value``, rows in increasing t, abscissae exactly
n * 2**-K printed with 17 significant digits so round-trips are bit-exact.
"""

import json
import math

import numpy as np

from .dyadic import AveragePyramid, DyadicPath
from .errors import NonDyadicGrid, SchemaError

GRID_TOLERANCE = 2.0 ** -40

DIAGNOSE_SCHEMA = {
    "type": "object",
    "required": ["beta", "levels", "verdict"],
    "properties": {
        "beta": {"type": "number"},
        "verdict": {"type": "string"},
        "levels": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["k", "B", "term", "partial_sum"],
                "properties": {
                    "k": {"type": "number"},
                    "B": {"type": "number"},
                    "term": {"type": "number"},
                    "partial_sum": {"type": "number"},
                },
            },
        },
    },
}


def validate_schema(obj, schema, where="$") -> None:
    """Minimal structural validation (types and required keys)."""
    kind = schema.get("type")
    if kind == "object":
        if not isinstance(obj, dict):
            raise SchemaError(f"{where}: expected object")
        for key in schema.get("required", []):
            if key not in obj:
                raise SchemaError(f"{where}: missing key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                validate_schema(obj[key], sub, f"{where}.{key}")
    elif kind == "array":
        if not isinstance(obj, list):
            raise SchemaError(f"{where}: expected array")
        sub = schema.get("items")
        if sub:
            for i, item in enumerate(obj):
                validate_schema(item, sub, f"{where}[{i}]")
    elif kind == "number":
        if not isinstance(obj, (int, float)):
            raise SchemaError(f"{where}: expected number")
    elif kind == "string":
        if not isinstance(obj, str):
            raise SchemaError(f"{where}: expected string")


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
    """Flat key = value file; '#' starts a comment; values parse as JSON scalars."""
    out = {}
    with open(filename) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                out[key] = json.loads(value)
            except json.JSONDecodeError:
                out[key] = value
    return out
