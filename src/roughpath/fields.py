"""Named integrands and a small expression grammar over (t, x).

The CLI accepts either a builtin field name or an arithmetic expression in
``t`` and ``x`` using +, -, *, /, ** and the functions sin, cos, exp, abs,
pow, sqrt, log.  Expressions compile to vectorized numpy callables; the
dependence class is inferred from which variables appear.  An expression
evaluates into its own temporaries.  On float64 arguments every array that
an operand yields, other than ``t`` and ``x`` themselves, is one the
expression made: a unary operator writes into it, and a binary one into the
first such operand of the broadcast shape of (t, x).  Such a value of that
shape is returned as it is; any other value is brought to the shape by the
rule of ``ScalarField``'s one-variable lifts.  So an expression never writes
``t``, ``x`` or a constant and never returns one of its arguments.
Expressions above a fixed length or nesting depth are rejected with
``SchemaError``: compiling and evaluating them recurse once per level of
nesting.
"""

import ast
import operator

import numpy as np

from .errors import SchemaError
from .integrator import ScalarField, _at_broadcast_shape

_ARRAY = np.ndarray       # bound once: every operator call tests its operands' type
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


def _compile(node):
    """``node`` as ``call(t, x, shape)``, evaluated with ``shape = _shape(t, x)``."""
    if isinstance(node, ast.Expression):
        return _compile(node.body)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        value = float(node.value)
        return lambda t, x, shape: value
    if isinstance(node, ast.Name):
        if node.id not in ("t", "x"):
            raise SchemaError(f"unknown name {node.id!r} in field expression")
        return (lambda t, x, shape: t) if node.id == "t" else (lambda t, x, shape: x)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _operator(_BINOPS[type(node.op)], _compile(node.left), _compile(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _compile(node.operand)
        return _operator(np.negative, inner) if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id not in _FUNCS or node.keywords:
            raise SchemaError(f"unsupported function {node.func.id!r}")
        fn = _FUNCS[node.func.id]
        if len(node.args) != fn.nin:
            # a surplus argument would reach the ufunc as its output array
            raise SchemaError(f"{node.func.id} takes {fn.nin} argument(s), got {len(node.args)}")
        return _operator(fn, *map(_compile, node.args))
    raise SchemaError(f"unsupported syntax in field expression: {ast.dump(node)}")


def _operator(fn, *operands):
    """The ufunc ``fn`` on one or two compiled operands, compiled.

    With ``shape`` set, an array operand other than t and x is one the
    expression made: a unary operator writes into it, a binary one into the
    first such operand of the broadcast shape.  Otherwise numpy gives a fresh
    value; unary minus uses the operator, so a negated constant stays a float.
    """
    if len(operands) == 1:
        (inner,) = operands
        plain = operator.neg if fn is np.negative else fn

        def unary(t, x, shape):
            value = inner(t, x, shape)
            if shape is not None and value is not t and value is not x and type(value) is _ARRAY:
                return fn(value, out=value)
            return plain(value)

        return unary
    left, right = operands

    def binary(t, x, shape):
        values = (left(t, x, shape), right(t, x, shape))
        for out in values:
            if out is not t and out is not x and type(out) is _ARRAY and out.shape == shape:
                return fn(*values, out=out)
        return fn(*values)

    return binary


def _shape(t, x):
    """The broadcast shape of t and x when they are float64 arrays of one or
    more dimensions that broadcast together; else None, and every operator
    returns a fresh value, as numpy gives it for these arguments."""
    if not (type(t) is type(x) is np.ndarray and t.ndim and x.ndim
            and t.dtype == np.float64 and x.dtype == np.float64):
        return None
    try:
        return np.broadcast(t, x).shape
    except ValueError:   # the operator that meets the mismatch names it
        return None


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
    call = _compile(tree)

    def evaluate(t, x):
        shape = _shape(t, x)
        value = call(t, x, shape)
        if value is not t and value is not x and type(value) is _ARRAY and value.shape == shape:
            return value
        return _at_broadcast_shape(value, t, x)

    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} & {"t", "x"}
    depends_on = "both" if len(names) == 2 else "t_only" if names == {"t"} else "x_only"
    return ScalarField(evaluate=evaluate, depends_on=depends_on)


BUILTIN_FIELDS = {
    "one": ScalarField.x_only(lambda x: 1.0),
    "x": ScalarField.x_only(lambda x: x),
    "x2": ScalarField.x_only(lambda x: np.square(x)),
    "tx": ScalarField(
        evaluate=lambda t, x: t * x,
        depends_on="both",
        dt_partial=lambda t, x: _at_broadcast_shape(x, t, x),
    ),
    "sin_t_x": ScalarField(
        evaluate=lambda t, x: np.sin(t) * x,
        depends_on="both",
        dt_partial=lambda t, x: np.cos(t) * x,
    ),
    "t_plus_x2": ScalarField(
        evaluate=lambda t, x: t + np.square(x),
        depends_on="both",
        dt_partial=lambda t, x: _at_broadcast_shape(1.0, t, x),
    ),
    "sin2x_expx": ScalarField.x_only(lambda x: np.sin(2.0 * x) * np.exp(x)),
}


def resolve_field(spec: str) -> ScalarField:
    """Builtin name first, else compile as an expression."""
    if spec in BUILTIN_FIELDS:
        return BUILTIN_FIELDS[spec]
    return field_from_expression(spec)
