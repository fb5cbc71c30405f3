"""Checks on the package source itself.

Every parameter of a function in ``src/parabolab`` is read by its body.  A
parameter that a function accepts and never reads looks like it decides
something; callers then thread it through for nothing.  ``self``, ``cls``
and names that start with ``_`` (a hook's argument that a given hook does
not need) are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "parabolab"


def _parameters(fn: ast.AST) -> list:
    args = fn.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [a.arg for a in every if a is not None]


def _unused_parameters(tree: ast.AST) -> list:
    """(line, function, parameter) for each parameter its function's body
    never reads; a read inside a nested function counts."""
    unused = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        unused += [(fn.lineno, name, arg) for arg in _parameters(fn)
                   if arg not in read and arg not in ("self", "cls") and not arg.startswith("_")]
    return unused


def test_every_parameter_is_read():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name}:{line} {fn}({arg})" for path in sources
             for line, fn, arg in _unused_parameters(ast.parse(path.read_text(), str(path)))]
    assert found == [], found


def test_the_check_finds_an_unused_parameter():
    tree = ast.parse("def f(a, b, _c, *args, d, **kwargs):\n"
                     "    def g(e):\n"
                     "        return a + e\n"
                     "    return g(args)\n"
                     "h = lambda x, y: x\n")
    assert [(fn, arg) for _, fn, arg in _unused_parameters(tree)] == [
        ("f", "b"), ("f", "d"), ("f", "kwargs"), ("<lambda>", "y")]
