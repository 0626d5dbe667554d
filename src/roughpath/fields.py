"""Named integrands and a small expression grammar over (t, x).

The CLI accepts either a builtin field name or an arithmetic expression in
``t`` and ``x`` using +, -, *, /, ** and the functions sin, cos, exp, abs,
pow, sqrt, log.  Expressions compile to vectorized numpy callables; the
dependence class is inferred from which variables appear.  Expressions above
a fixed length or nesting depth are rejected with ``SchemaError``: compiling
and evaluating them recurse once per level of nesting.
"""

import ast

import numpy as np

from .errors import SchemaError
from .integrator import ScalarField

_MAX_CHARS = 2000         # field expression length cap
_MAX_DEPTH = 200          # syntax-tree levels, counting operator and context nodes

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "pow": np.power,
    "sqrt": np.sqrt,
    "log": np.log,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def _compile(node, names: set):
    if isinstance(node, ast.Expression):
        return _compile(node.body, names)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        value = float(node.value)
        return lambda t, x: value
    if isinstance(node, ast.Name):
        if node.id not in ("t", "x"):
            raise SchemaError(f"unknown name {node.id!r} in field expression")
        names.add(node.id)
        return (lambda t, x: t) if node.id == "t" else (lambda t, x: x)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left = _compile(node.left, names)
        right = _compile(node.right, names)
        return lambda t, x: op(left(t, x), right(t, x))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _compile(node.operand, names)
        if isinstance(node.op, ast.USub):
            return lambda t, x: -inner(t, x)
        return inner
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id not in _FUNCS or node.keywords:
            raise SchemaError(f"unsupported function {node.func.id!r}")
        fn = _FUNCS[node.func.id]
        args = [_compile(arg, names) for arg in node.args]
        return lambda t, x: fn(*(a(t, x) for a in args))
    raise SchemaError(f"unsupported syntax in field expression: {ast.dump(node)}")


def _check_depth(tree: ast.AST) -> None:
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise SchemaError(f"field expression nests deeper than {_MAX_DEPTH} levels")
        stack.extend((child, depth + 1) for child in ast.iter_child_nodes(node))


def field_from_expression(expr: str) -> ScalarField:
    if len(expr) > _MAX_CHARS:
        raise SchemaError(f"field expression longer than {_MAX_CHARS} characters")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise SchemaError(f"cannot parse field expression: {exc}") from exc
    except (RecursionError, MemoryError) as exc:
        raise SchemaError(f"field expression too deeply nested to parse: {exc!r}") from exc
    _check_depth(tree)
    names: set = set()
    fn = _compile(tree, names)
    if names == {"t", "x"}:
        # every node is elementwise, so the value already has the broadcast shape
        return ScalarField(evaluate=lambda t, x: np.asarray(fn(t, x), dtype=float))
    ones = lambda t, x: np.ones(np.broadcast(np.asarray(t), np.asarray(x)).shape)
    return ScalarField(
        evaluate=lambda t, x: np.asarray(fn(t, x), dtype=float) * ones(t, x),
        depends_on="t_only" if names == {"t"} else "x_only",
    )


BUILTIN_FIELDS = {
    "one": ScalarField.x_only(lambda x: np.ones_like(np.asarray(x, dtype=float))),
    "x": ScalarField.x_only(lambda x: x),
    "x2": ScalarField.x_only(lambda x: np.square(x)),
    "tx": ScalarField(
        evaluate=lambda t, x: t * x,
        depends_on="both",
        dt_partial=lambda t, x: x * np.ones_like(t * x),
    ),
    "sin_t_x": ScalarField(
        evaluate=lambda t, x: np.sin(t) * x,
        depends_on="both",
        dt_partial=lambda t, x: np.cos(t) * x,
    ),
    "t_plus_x2": ScalarField(
        evaluate=lambda t, x: t + np.square(x),
        depends_on="both",
        dt_partial=lambda t, x: np.ones_like(t + x),
    ),
    "sin2x_expx": ScalarField.x_only(lambda x: np.sin(2.0 * x) * np.exp(x)),
}


def resolve_field(spec: str) -> ScalarField:
    """Builtin name first, else compile as an expression."""
    if spec in BUILTIN_FIELDS:
        return BUILTIN_FIELDS[spec]
    return field_from_expression(spec)
