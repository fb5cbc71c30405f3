"""Checks on the package source itself.

Every parameter of a function in ``src/parabolab`` is read by its body.  A
parameter that a function accepts and never reads looks like it decides
something; callers then thread it through for nothing.  ``self``, ``cls``
and names that start with ``_`` (a hook's argument that a given hook does
not need) are exempt.

Every public module-level function or class of the package is loaded
somewhere in the package's modules: the package holds what the program
runs, and an oracle that only tests call lives with the tests.  The names
in ``NO_CALLER_IN_SRC`` are exempt, each for its stated reason.
``__init__.py`` only re-exports, so its imports count neither as a caller
nor as a definition; its ``__all__`` lists exactly the public names it
imports, each of which resolves.
"""

from __future__ import annotations

import ast
from pathlib import Path

import parabolab

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "parabolab"

# public names with no caller in the package, and why each stays there
NO_CALLER_IN_SRC = {
    # perfbench/tracer.py patches these to time its layers, until the timers
    # move inside the loop (ROADMAP item 1)
    "operators.derivative": "tracer-bound",
    "geometry.surface_diffusion_rhs": "tracer-bound",
    "geometry.willmore_rhs": "tracer-bound",
    # the README documents them as the paper's checks; tests run them
    "evolution.lipschitz_probe": "paper check: Lipschitz moduli of A, F1 and the solution map",
    "norms.verify_interpolation_inequality": "paper check: the interpolation inequality",
}


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


def _modules() -> dict:
    """Module name -> syntax tree, for every module but ``__init__.py``."""
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in paths}


def _uncalled(modules: dict) -> list:
    """``module.name`` of each public module-level function or class that no
    module loads, by its name or as an attribute (``module.name``)."""
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in modules.values() for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [f"{mod}.{node.name}" for mod, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in loaded]


def test_every_public_function_has_a_caller():
    uncalled = set(_uncalled(_modules()))
    without_reason = sorted(uncalled - set(NO_CALLER_IN_SRC))
    assert not without_reason, "no caller in the package: " + ", ".join(without_reason)
    # an exemption whose name gained a caller, or went, is stale
    stale = sorted(set(NO_CALLER_IN_SRC) - uncalled)
    assert not stale, "stale exemptions: " + ", ".join(stale)


def test_the_check_finds_a_function_without_a_caller():
    modules = {
        "a": ast.parse("class Used:\n    pass\n"
                       "class Unused:\n    pass\n"
                       "def helper():\n    return Used()\n"
                       "def _private():\n    pass\n"
                       "def orphan(x):\n    return x\n"),
        "b": ast.parse("from . import a\n"
                       "def run():\n    return a.helper()\n"
                       "def recursive():\n    return recursive\n"
                       "async def waiter():\n    pass\n"
                       "run()\n"),
    }
    # a function that only refers to itself is loaded, so the check lets it pass
    assert _uncalled(modules) == ["a.Unused", "a.orphan", "b.waiter"]


def test_all_lists_exactly_the_public_names_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(parabolab.__all__) == sorted(n for n in imported if not n.startswith("_"))
    assert len(set(parabolab.__all__)) == len(parabolab.__all__)
    assert [n for n in parabolab.__all__ if not hasattr(parabolab, n)] == []
