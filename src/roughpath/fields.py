"""Integrands f(t, x): ``ScalarField``, the builtins and the expression grammar.

A field value has the broadcast shape of (t, x) whichever variables it reads:
``_at_broadcast_shape`` brings any other value to it, for the one-variable
lifts and for compiled expressions.  A variable that a one-variable field
ignores is read as ``_placeholder`` zeros, built in O(1).

The CLI accepts a builtin field name or an arithmetic expression in ``t``,
``x`` and numbers using +, -, *, /, ** and the functions sin, cos, exp, abs,
pow, sqrt, log; each builtin is such an expression, with its time partial as
another.  Expressions compile to vectorized numpy callables; the dependence
class is inferred from which variables appear.  An expression evaluates into
its own temporaries: on float64 arguments every array that an operand
yields, other than ``t`` and ``x`` themselves, is one the expression made.
A unary operator writes into it, and a binary one into the first such
operand of the broadcast shape, which is returned as it is.  So an
expression never writes ``t``, ``x`` or a constant and never returns one of
its arguments.  Expressions above a fixed length or nesting depth are
rejected with ``SchemaError``: compiling and evaluating them recurse once per
level of nesting.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import SchemaError

_ARRAY = np.ndarray       # bound once: every operator call tests its operands' type
_MAX_CHARS = 2000         # field expression length cap
_MAX_DEPTH = 200          # syntax-tree levels, counting operator and context nodes
_DEPENDS_ON = ("both", "t_only", "x_only")
_ZERO = np.zeros(1)       # the buffer of every placeholder
_ZERO.flags.writeable = False

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


def _placeholder(shape) -> np.ndarray:
    """Zeros of ``shape`` for a variable the field ignores: a read-only view
    with zero strides over one stored zero, built in O(1) where ``np.zeros``
    would fill an array of that shape."""
    return np.ndarray(shape, float, _ZERO, 0, (0,) * len(shape))


def _at_broadcast_shape(value, t, x) -> np.ndarray:
    """``value`` times fresh ones of the broadcast shape of (t, x), in float64.

    A field value has that shape whichever variables it reads; the product
    keeps every bit of ``value`` and is never one of the arguments.
    """
    ones = np.ones(np.broadcast(t, x).shape)
    return np.multiply(np.asarray(value, dtype=float), ones, out=ones)


@dataclass(frozen=True)
class ScalarField:
    """Two-argument integrand f(t, x), with its time partial when known.

    ``evaluate`` must be vectorized over numpy arrays and return a value of
    the broadcast shape of (t, x).  The one-variable lifts ``x_only`` and
    ``t_only`` reach it by multiplying f's value into fresh ones of that shape.
    ``depends_on`` marks the dependence class, one of 'both', 't_only' and
    'x_only': 't_only' integrands need no quadrature at all.  ``integrate``
    takes no 'x_only' shortcut; the exact reduction of an integrand f(x) to
    one definite integral between path values is ``integrate_state_only``.
    ``dt_partial`` feeds the Green route of ``calculus``.
    """

    evaluate: callable
    depends_on: str = "both"
    dt_partial: callable | None = None

    @staticmethod
    def x_only(f) -> "ScalarField":
        return ScalarField(evaluate=lambda t, x: _at_broadcast_shape(f(x), t, x),
                           depends_on="x_only")

    @staticmethod
    def t_only(f, dt_partial=None) -> "ScalarField":
        lift = lambda fn: lambda t, x: _at_broadcast_shape(fn(t), t, x)
        return ScalarField(lift(f), "t_only", None if dt_partial is None else lift(dt_partial))

    def __post_init__(self):
        if self.depends_on not in _DEPENDS_ON:
            raise ValueError(f"unknown depends_on {self.depends_on!r}; "
                             f"expected one of {', '.join(map(repr, _DEPENDS_ON))}")

    def value_at_times(self, t: np.ndarray) -> np.ndarray:
        """f at the times ``t`` with x a placeholder of zeros, which a t_only field ignores."""
        return np.asarray(self.evaluate(t, _placeholder(t.shape)), dtype=float)


def _compile(node):
    """``node`` as ``call(t, x, shape)``, evaluated with ``shape = _shape(t, x)``."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):   # bool is an int subclass
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
    call = _compile(tree.body)

    def evaluate(t, x):
        shape = _shape(t, x)
        value = call(t, x, shape)
        if value is not t and value is not x and type(value) is _ARRAY and value.shape == shape:
            return value
        return _at_broadcast_shape(value, t, x)

    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} & {"t", "x"}
    depends_on = "both" if len(names) == 2 else "t_only" if names == {"t"} else "x_only"
    return ScalarField(evaluate=evaluate, depends_on=depends_on)


# name -> (f, its time partial or None), each an expression of the grammar;
# x*x is np.multiply, which rounds as np.square does
_BUILTINS = {
    "one": ("1", None),
    "x": ("x", None),
    "x2": ("x*x", None),
    "tx": ("t*x", "x"),
    "sin_t_x": ("sin(t)*x", "cos(t)*x"),
    "t_plus_x2": ("t+x*x", "1"),
    "sin2x_expx": ("sin(2*x)*exp(x)", None),
}

BUILTIN_FIELDS = {
    name: replace(
        field_from_expression(f),
        dt_partial=None if partial is None else field_from_expression(partial).evaluate,
    )
    for name, (f, partial) in _BUILTINS.items()
}


def resolve_field(spec: str) -> ScalarField:
    """Builtin name first, else compile as an expression."""
    if spec in BUILTIN_FIELDS:
        return BUILTIN_FIELDS[spec]
    return field_from_expression(spec)
