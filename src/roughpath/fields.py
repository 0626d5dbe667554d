"""Named integrands and a small expression grammar over (t, x).

The CLI accepts either a builtin field name or an arithmetic expression in
``t`` and ``x`` using +, -, *, /, ** and the functions sin, cos, exp, abs,
pow, sqrt, log.  Expressions compile to vectorized numpy callables; the
dependence class is inferred from which variables appear.  An expression
evaluates into its own temporaries: on float64 arguments each operator
writes its result into an array that the expression made itself and that
already has the result's shape, so few result-sized arrays are live at once.
It never writes ``t``, ``x`` or a constant and never returns one of its
arguments.  Expressions above a fixed length or nesting depth are rejected
with ``SchemaError``: compiling and evaluating them recurse once per level
of nesting.
"""

import ast
import operator

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

_ARGS = ("t", "x")


def _compile(node):
    """``node`` as (call, variables, made): ``call(t, x, full)`` evaluates it
    with ``full = _full_arguments(t, x)``, ``variables`` is the frozenset of
    argument names it reads, and ``made`` says that its value is one the
    expression made: an array when ``full`` is set, never an argument or a
    constant."""
    if isinstance(node, ast.Expression):
        return _compile(node.body)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        value = float(node.value)
        return (lambda t, x, full: value), frozenset(), False
    if isinstance(node, ast.Name):
        if node.id not in _ARGS:
            raise SchemaError(f"unknown name {node.id!r} in field expression")
        call = (lambda t, x, full: t) if node.id == "t" else (lambda t, x, full: x)
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

    With ``full`` set, the result goes into an operand that the expression
    made and that has the result's shape: one that reads all of this node's
    variables always has it, and one that reads fewer has it when its
    variable's argument has the broadcast shape.  Otherwise the result is a
    fresh value, as numpy gives it; unary minus uses the operator, so that a
    negated constant stays a Python float.
    """
    calls = [call for call, _, _ in operands]
    variables = frozenset().union(*(v for _, v, _ in operands))
    plain = operator.neg if fn is np.negative else fn
    # (operand, None) for one that has the result's shape, then (operand,
    # argument index) for one that reads the single variable of that argument
    # and has the shape when the argument does; the first that holds is used
    owned = [(i, v) for i, (_, v, made) in enumerate(operands) if made]
    targets = ([(i, None) for i, v in owned if v == variables]
               + [(i, _ARGS.index(min(v))) for i, v in owned if v != variables])
    if len(calls) == 1:
        (inner,) = calls
        if not targets:
            return (lambda t, x, full: plain(inner(t, x, full))), variables, bool(variables)

        def unary(t, x, full):
            value = inner(t, x, full)
            return plain(value) if full is None else fn(value, out=value)

        return unary, variables, True
    left, right = calls

    def binary(t, x, full):
        values = (left(t, x, full), right(t, x, full))
        if full is not None:
            for i, arg in targets:
                if arg is None or full[arg]:
                    return fn(*values, out=values[i])
        return fn(*values)

    return binary, variables, bool(variables)


def _full_arguments(t, x):
    """(t has the broadcast shape, x has it) when t and x are float64 arrays
    of one or more dimensions that broadcast together; else None, and every
    operator returns a fresh value, as numpy gives it for these arguments."""
    if not (type(t) is type(x) is np.ndarray and t.ndim and x.ndim
            and t.dtype == np.float64 and x.dtype == np.float64):
        return None
    if t.shape == x.shape:
        return True, True
    try:
        shape = np.broadcast(t, x).shape
    except ValueError:   # the operator that meets the mismatch names it
        return None
    return t.shape == shape, x.shape == shape


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
    if names == {"t", "x"}:
        # every node is elementwise, so the value already has the broadcast shape
        return ScalarField(
            evaluate=lambda t, x: np.asarray(call(t, x, _full_arguments(t, x)), dtype=float))
    arg = _ARGS.index(min(names)) if names else None

    def evaluate(t, x):
        full = _full_arguments(t, x)
        value = call(t, x, full)
        if made and full is not None and full[arg]:
            return value   # an array made here, of the broadcast shape
        ones = np.ones(np.broadcast(np.asarray(t), np.asarray(x)).shape)
        return np.multiply(np.asarray(value, dtype=float), ones, out=ones)

    return ScalarField(evaluate=evaluate, depends_on="t_only" if names == {"t"} else "x_only")


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
