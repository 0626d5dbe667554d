"""Named integrands and a small expression grammar over (t, x).

The CLI accepts either a builtin field name or an arithmetic expression in
``t`` and ``x`` using +, -, *, /, ** and the functions sin, cos, exp, abs,
pow, sqrt, log.  Expressions compile to vectorized numpy callables; the
dependence class is inferred from which variables appear.  An expression
evaluates into its own temporaries: on float64 arguments each call takes the
broadcast shape of (t, x) once, a unary operator writes into an operand that
the expression made, and a binary one into the first such operand that has
the broadcast shape, so few result-sized arrays are live at once.  A value of
that shape that the expression made is returned as it is; any other value (a
bare argument, a constant, a one-variable array of a smaller shape) is
multiplied into fresh ones of the broadcast shape, by the rule that
``ScalarField.t_only`` and ``ScalarField.x_only`` also follow.  It never
writes ``t``, ``x`` or a constant and never returns one of its arguments.
Expressions above a fixed length or nesting depth are rejected
with ``SchemaError``: compiling and evaluating them recurse once per level
of nesting.
"""

import ast
import operator

import numpy as np

from .errors import SchemaError
from .integrator import ScalarField, _at_broadcast_shape

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
    """``node`` as (call, variables, made): ``call(t, x, shape)`` evaluates it
    with ``shape = _shape(t, x)``, ``variables`` is the frozenset of argument
    names it reads, and ``made`` says that its value is one the expression
    made: an array when ``shape`` is set, never an argument or a constant."""
    if isinstance(node, ast.Expression):
        return _compile(node.body)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        value = float(node.value)
        return (lambda t, x, shape: value), frozenset(), False
    if isinstance(node, ast.Name):
        if node.id not in ("t", "x"):
            raise SchemaError(f"unknown name {node.id!r} in field expression")
        call = (lambda t, x, shape: t) if node.id == "t" else (lambda t, x, shape: x)
        return call, frozenset([node.id]), False
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _operator(_BINOPS[type(node.op)],
                         [_compile(node.left), _compile(node.right)])
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _compile(node.operand)
        return _operator(np.negative, [inner]) if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id not in _FUNCS or node.keywords:
            raise SchemaError(f"unsupported function {node.func.id!r}")
        fn = _FUNCS[node.func.id]
        if len(node.args) != fn.nin:
            # a surplus argument would reach the ufunc as its output array
            raise SchemaError(f"{node.func.id} takes {fn.nin} argument(s), got {len(node.args)}")
        return _operator(fn, [_compile(arg) for arg in node.args])
    raise SchemaError(f"unsupported syntax in field expression: {ast.dump(node)}")


def _operator(fn, operands: list):
    """The ufunc ``fn`` on one or two compiled operands, compiled.

    With ``shape`` set, a unary operator writes into its operand when the
    expression made it, and a binary one into the first operand that the
    expression made and that has the broadcast shape ``shape``, which the
    result then has too.  Otherwise the result is a fresh value, as numpy
    gives it; unary minus uses the operator, so that a negated constant
    stays a Python float.
    """
    calls = [call for call, _, _ in operands]
    variables = frozenset().union(*(v for _, v, _ in operands))
    made = [i for i, (_, _, m) in enumerate(operands) if m]
    if len(calls) == 1:
        (inner,) = calls
        plain = operator.neg if fn is np.negative else fn
        if not made:
            return (lambda t, x, shape: plain(inner(t, x, shape))), variables, bool(variables)

        def unary(t, x, shape):
            value = inner(t, x, shape)
            return plain(value) if shape is None else fn(value, out=value)

        return unary, variables, True
    left, right = calls

    def binary(t, x, shape):
        values = (left(t, x, shape), right(t, x, shape))
        if shape is not None:
            for i in made:
                if values[i].shape == shape:
                    return fn(*values, out=values[i])
        return fn(*values)

    return binary, variables, bool(variables)


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
    call, names, made = _compile(tree)

    def evaluate(t, x):
        shape = _shape(t, x)
        value = call(t, x, shape)
        if made and shape is not None and value.shape == shape:
            return value
        return _at_broadcast_shape(value, t, x)

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
