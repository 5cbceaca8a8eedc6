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


def _check(node):
    if isinstance(node, ast.Expression):
        _check(node.body)
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        _check(node.left)
        _check(node.right)
    elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        _check(node.operand)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ConfigError(f"unknown function in forcing expression: {ast.dump(node.func)}")
        if len(node.args) != 1 or node.keywords:
            raise ConfigError("forcing functions take exactly one argument")
        _check(node.args[0])
    elif isinstance(node, ast.Name):
        if node.id not in ("x", "y") and node.id not in _CONSTS:
            raise ConfigError(f"unknown name in forcing expression: {node.id!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric literal: {node.value!r}")
    else:
        raise ConfigError(f"unsupported syntax in forcing expression: {type(node).__name__}")


def _evaluate(node, env):
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, env)
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        return _UNARY[type(node.op)](_evaluate(node.operand, env))
    if isinstance(node, ast.Call):
        return _FUNCS[node.func.id](_evaluate(node.args[0], env))
    if isinstance(node, ast.Name):
        return env[node.id] if node.id in env else _CONSTS[node.id]
    if isinstance(node, ast.Constant):
        return node.value
    raise ConfigError("unreachable expression node")


def compile_expression(text):
    """Compile an expression string into a vectorized fn(x, y)."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse forcing expression {text!r}: {exc}") from exc
    _check(tree)

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            out = _evaluate(tree, {"x": x, "y": y})
        if not np.all(np.isfinite(out)):
            raise ConfigError(f"forcing expression {text!r} is not finite at every sample")
        return np.broadcast_to(np.asarray(out, dtype=float), np.broadcast_shapes(x.shape, y.shape)).copy()

    fn.source = text
    return fn
