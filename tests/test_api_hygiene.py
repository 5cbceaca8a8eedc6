"""Every name a submodule exports is used by the program, not only by tests.

A name in a ``src/cpflow`` submodule's ``__all__`` must be referenced
somewhere in ``src/``, ``demos/`` or ``perfbench/`` outside its own
definition: as a name, an attribute or an imported name.  Code that only
tests call belongs in the test modules.

Values a library entry point cannot use raise a typed ``DomainError``
there, not a raw Python error or a nan result.
"""

import ast
import math
from pathlib import Path

import pytest

from cpflow.errors import DomainError
from cpflow.nonlinear import contraction_ball_radius, forcing_headroom
from cpflow.profiles import Profile
from cpflow.spectral import build_grid

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cpflow"
SUBMODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def exported(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def references(tree, skip=None):
    """Names, attributes and imported names in ``tree``, outside the definition ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def program_files():
    for sub in ("src", "demos", "perfbench"):
        yield from sorted((ROOT / sub).rglob("*.py"))


def unreferenced():
    trees = {path: ast.parse(path.read_text()) for path in program_files()}
    missing = []
    for module in SUBMODULES:
        for name in exported(module):
            if not any(name in references(tree, skip=name if path == module else None)
                       for path, tree in trees.items()):
                missing.append(f"{module.stem}.{name}")
    return missing


def test_scan_sees_the_library_modules():
    names = {m.stem for m in SUBMODULES if exported(m)}
    assert names >= {"channel", "forcing", "nonlinear", "os_solver", "profiles", "spectral", "spectrum",
                     "verify"}


def test_every_exported_name_is_used_by_the_program():
    assert unreferenced() == []


@pytest.mark.parametrize("source, skip, want", [
    ("def f():\n    return g()\n\ny = f()\n", "f", {"f", "y"}),
    ("def f():\n    return f()\n", "f", set()),  # recursion is not a use
    ("from .m import f\nx = m.f\n", None, {"f", "m", "x"}),
])
def test_reference_scan(source, skip, want):
    assert references(ast.parse(source), skip=skip) == want


@pytest.mark.parametrize("call", [
    lambda: build_grid(8.5),
    lambda: Profile(math.nan, 0.0, 1.0),
    lambda: Profile(-1.0, math.inf, 1.0),
    lambda: contraction_ball_radius(0, 0),
    lambda: contraction_ball_radius(-1, 1),
    lambda: forcing_headroom(math.nan, 1),
    lambda: forcing_headroom(1, -1),
], ids=["grid-degree-8.5", "profile-nan", "profile-inf", "ball-zero", "ball-negative",
        "headroom-nan", "headroom-negative-delta"])
def test_hostile_library_calls_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
