"""Tiny expression grammar for analytic forcings in batch configs.

Accepts arithmetic over the variables x and y, the constants pi and e,
the functions sin, cos, exp, and numeric literals, e.g.
``"sin(pi*y) + 0.5*x**2"``.  Anything else is rejected; expressions are
compiled through the ast module, never eval'd raw.
"""

import ast
import math

import numpy as np

from .errors import ConfigError

__all__ = ["compile_expression"]

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTS = {"pi": math.pi, "e": math.e}
_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}
_UNARY = {ast.UAdd: lambda v: v, ast.USub: np.negative}


def _compile(node):
    """Validate ``node`` against the grammar and return its evaluator env -> value."""
    if isinstance(node, ast.Expression):
        return _compile(node.body)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op, left, right = _BINOPS[type(node.op)], _compile(node.left), _compile(node.right)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        op, operand = _UNARY[type(node.op)], _compile(node.operand)
        return lambda env: op(operand(env))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ConfigError(f"unknown function in forcing expression: {ast.dump(node.func)}")
        if len(node.args) != 1 or node.keywords:
            raise ConfigError("forcing functions take exactly one argument")
        fn, arg = _FUNCS[node.func.id], _compile(node.args[0])
        return lambda env: fn(arg(env))
    if isinstance(node, ast.Name):
        if node.id in ("x", "y"):
            return lambda env: env[node.id]
        if node.id in _CONSTS:
            return lambda env: _CONSTS[node.id]
        raise ConfigError(f"unknown name in forcing expression: {node.id!r}")
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric literal: {node.value!r}")
        return lambda env: node.value
    raise ConfigError(f"unsupported syntax in forcing expression: {type(node).__name__}")


def compile_expression(text):
    """Compile an expression string into a vectorized fn(x, y)."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse forcing expression {text!r}: {exc}") from exc
    evaluate = _compile(tree)

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            out = evaluate({"x": x, "y": y})
        if not np.all(np.isfinite(out)):
            raise ConfigError(f"forcing expression {text!r} is not finite at every sample")
        return np.broadcast_to(np.asarray(out, dtype=float), np.broadcast_shapes(x.shape, y.shape)).copy()

    fn.source = text
    return fn
