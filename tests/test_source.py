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

Every public method, property or classmethod of a module-level class is
loaded as an attribute (``x.name``) somewhere in the package, so that a
local variable of the same name does not count as its caller.  The match is
by name, not by class: a method name that two classes define is loaded when
either is, so ``ExponentConfig.order_int`` could hide behind
``AbstractProblem.order_int``.  Dunder and ``_`` methods, and overrides of a
method of a base class outside the package, which that base's machinery
calls, are exempt; so are the members in ``MEMBERS_WITHOUT_CALLER``.

Every optional parameter of a module-level function, or of a method of a
module-level class, is passed, by position or by keyword, by some call in
the package of that name (a class's name for its ``__init__``); a call with
``*args`` or ``**kwargs`` passes all of them.  A default that no caller
overrides is a constant that looks like a knob.  The options of a function
in ``NO_CALLER_IN_SRC`` or ``MEMBERS_WITHOUT_CALLER``, whose callers live
outside the package, and those in ``OPTIONS_WITHOUT_CALLER``, are exempt.

Every optional parameter is also omitted by some call in the package of
that name, so that the program takes its default; a call with ``*args`` or
``**kwargs`` omits none.  A default that every caller overrides is a value
that a later caller who leaves the parameter out gets silently, such as a
norm measured at q = 2 in a run at q = 4; the value belongs at the calls.
With the check before it, a parameter has a default only where the program
uses both the default and another value.  The same functions are exempt,
and those in ``DEFAULTS_NOT_TAKEN``.

An exemption whose reason is perfbench or its tracer names a function,
method or option that ``perfbench/*.py`` mentions, so that it goes when
its reason does.

Each ``scripts/*.py`` has a ``tests/test_<stem>.py`` that imports or runs
it, so that no script goes untested.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import parabolab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parabolab"

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

# public methods with no attribute load in the package, and why each stays there
MEMBERS_WITHOUT_CALLER = {
    # perfbench/workloads.py builds and reads its fields with them, until the
    # per-layer half of the benchmark is rebuilt (ROADMAP item 12)
    "grids.GridFunction.from_scalar": "perfbench-bound",
    "grids.GridFunction.scalar": "perfbench-bound",
    "operators.SpectralProxy.synthesize": "perfbench-bound",
}

# optional parameters that no call in the package passes, and why each stays
OPTIONS_WITHOUT_CALLER = {
    # the console script calls main() with none; perfbench and the tests pass argv
    "cli.main(argv)": "the command line of a call from Python",
}

# optional parameters that every call in the package passes, and why each stays
DEFAULTS_NOT_TAKEN = {
    # the run passes its checkpoint hook; perfbench/workloads.py's ladder
    # continues without one, until the plate rung is rebuilt (ROADMAP item 12)
    "evolution.continue_solution(on_window)": "perfbench-bound",
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


def _methods(cls: ast.ClassDef) -> list:
    return [node for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _unloaded_members(modules: dict, namespaces: dict) -> list:
    """``module.Class.name`` of each public method, property or classmethod
    of a module-level class that no module loads as an attribute, unless it
    overrides a member of a base class outside ``modules``; ``namespaces``
    maps each module to the namespace that holds its classes."""
    loaded = {node.attr for tree in modules.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = {(mod, node.name): node for mod, tree in modules.items() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    own = {namespaces[mod][name] for mod, name in classes}
    unloaded = []
    for (mod, name), node in classes.items():
        outside = [base for base in namespaces[mod][name].__mro__[1:] if base not in own]
        unloaded += [f"{mod}.{name}.{fn.name}" for fn in _methods(node)
                     if not fn.name.startswith("_") and fn.name not in loaded
                     and not any(hasattr(base, fn.name) for base in outside)]
    return unloaded


def test_every_public_method_has_a_caller():
    modules = _modules()
    namespaces = {mod: vars(importlib.import_module(f"parabolab.{mod}")) for mod in modules}
    unloaded = set(_unloaded_members(modules, namespaces))
    without_reason = sorted(unloaded - set(MEMBERS_WITHOUT_CALLER))
    assert not without_reason, "no attribute load in the package: " + ", ".join(without_reason)
    stale = sorted(set(MEMBERS_WITHOUT_CALLER) - unloaded)
    assert not stale, "stale exemptions: " + ", ".join(stale)


def test_the_check_finds_a_method_without_a_caller():
    source = ("import argparse\n"
              "class Parser(argparse.ArgumentParser):\n"
              "    def error(self, message):\n        raise ValueError(message)\n"
              "class Box:\n"
              "    def __len__(self):\n        return 0\n"
              "    def _private(self):\n        pass\n"
              "    @property\n    def size(self):\n        return 1\n"
              "    @property\n    def width(self):\n        return 2\n"
              "    @classmethod\n    def empty(cls):\n        return cls()\n"
              "    def grow(self):\n        return self.size\n"
              "    def shrink(self):\n        return self\n"
              "def run(box):\n"
              "    shrink = 1\n"
              "    return box.grow(), shrink, Box.empty\n")
    namespace: dict = {}
    exec(compile(source, "a", "exec"), namespace)
    # a dunder, a private method, an override of argparse's and the loaded
    # names pass; a method whose name only a local variable holds does not
    assert _unloaded_members({"a": ast.parse(source)}, {"a": namespace}) == [
        "a.Box.width", "a.Box.shrink"]


def _options(fn: ast.AST, method: bool) -> list:
    """(position or None, name) of each optional parameter of ``fn``; the
    position counts the arguments of a call, so a method's ``self`` or
    ``cls`` is not one, and a keyword-only parameter has none."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args][1 if method else 0:]
    optional = positional[len(positional) - len(args.defaults):] if args.defaults else []
    return ([(positional.index(a), a.arg) for a in optional]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _passes(call: ast.Call, position, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name`` of ``position``; a call
    with ``*args`` or ``**kwargs`` passes every parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _option_calls(modules: dict) -> list:
    """(``module.function(parameter)``, [whether each call of the function's
    name passes it]) for each optional parameter; for a method,
    ``module.Class.method``."""
    calls: dict = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    found = []
    for mod, tree in modules.items():
        functions = [(f"{mod}.{fn.name}", fn.name, fn, False) for fn in tree.body
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for fn in _methods(cls):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                called = cls.name if fn.name == "__init__" else fn.name
                functions.append((f"{mod}.{cls.name}.{fn.name}", called, fn, not static))
        for qualified, called, fn, method in functions:
            found += [(f"{qualified}({name})",
                       [_passes(c, position, name) for c in calls.get(called, [])])
                      for position, name in _options(fn, method)]
    return found


def _unpassed_options(modules: dict) -> list:
    """Each optional parameter that no call of the function's name passes."""
    return [option for option, passed in _option_calls(modules) if not any(passed)]


def _untaken_defaults(modules: dict) -> list:
    """Each optional parameter that every call of the function's name
    passes, so that none takes its default."""
    return [option for option, passed in _option_calls(modules) if all(passed)]


def test_every_option_is_passed():
    exempt = set(NO_CALLER_IN_SRC) | set(MEMBERS_WITHOUT_CALLER)
    unpassed = set(_unpassed_options(_modules()))
    without_reason = sorted(u for u in unpassed - set(OPTIONS_WITHOUT_CALLER)
                            if u.split("(")[0] not in exempt)
    assert not without_reason, "no call in the package passes: " + ", ".join(without_reason)
    stale = sorted(set(OPTIONS_WITHOUT_CALLER) - unpassed)
    assert not stale, "stale exemptions: " + ", ".join(stale)


def test_the_check_finds_an_option_no_call_passes():
    modules = {
        "a": ast.parse("def f(x, by_keyword=1, by_position=2, never=3, *, kw_only=4):\n"
                       "    return x\n"
                       "class C:\n"
                       "    def __init__(self, size=0):\n        pass\n"
                       "    def m(self, through_kwargs=None):\n        pass\n"
                       "    @staticmethod\n    def s(first=0):\n        pass\n"),
        "b": ast.parse("from .a import C, f\n"
                       "f(0, by_keyword=1)\n"
                       "f(0, 1, 2)\n"
                       "C(5).m(**{})\n"
                       "C.s(1)\n"),
    }
    assert _unpassed_options(modules) == ["a.f(never)", "a.f(kw_only)"]


def test_every_default_is_taken():
    exempt = set(NO_CALLER_IN_SRC) | set(MEMBERS_WITHOUT_CALLER)
    untaken = set(_untaken_defaults(_modules()))
    without_reason = sorted(u for u in untaken - set(DEFAULTS_NOT_TAKEN)
                            if u.split("(")[0] not in exempt)
    assert not without_reason, ("every call in the package passes, so no call takes the "
                                "default of: " + ", ".join(without_reason))
    stale = sorted(set(DEFAULTS_NOT_TAKEN) - untaken)
    assert not stale, "stale exemptions: " + ", ".join(stale)


def test_the_check_finds_a_default_no_call_takes():
    modules = {
        "a": ast.parse("def f(x, by_position=1, by_keyword=2, omitted=3, *, kw_only=4,\n"
                       "      kw_omitted=5):\n"
                       "    return x\n"
                       "def g(through_args=0):\n    pass\n"
                       "class C:\n"
                       "    def __init__(self, size=0):\n        pass\n"
                       "    def m(self, through_kwargs=None):\n        pass\n"
                       "    @staticmethod\n    def s(first=0):\n        pass\n"),
        "b": ast.parse("from .a import C, f, g\n"
                       "f(0, 1, by_keyword=2, kw_only=4)\n"
                       "f(0, 1, 2, 3, kw_only=4, kw_omitted=5)\n"
                       "g(*[1])\n"
                       "C(5).m(**{})\n"
                       "C.s()\n"),
    }
    # a call with *args or **kwargs passes every parameter, so it takes no default
    assert _untaken_defaults(modules) == [
        "a.f(by_position)", "a.f(by_keyword)", "a.f(kw_only)", "a.g(through_args)",
        "a.C.__init__(size)", "a.C.m(through_kwargs)"]


def _bare_name(entry: str) -> str:
    """The function or method an exemption names: ``module.Class.method`` or
    ``module.function(parameter)`` gives ``method`` or ``function``."""
    return entry.split("(")[0].rsplit(".", 1)[-1]


def _unbound_exemptions(exemptions: dict, source: str) -> list:
    """The exemptions whose reason names perfbench or its tracer and whose
    function or method is not a word of ``source``."""
    return sorted(entry for entry, reason in exemptions.items()
                  if ("perfbench" in reason or "tracer" in reason)
                  and not re.search(rf"\b{re.escape(_bare_name(entry))}\b", source))


def test_perfbench_exemptions_name_what_perfbench_uses():
    source = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    exemptions = {**NO_CALLER_IN_SRC, **MEMBERS_WITHOUT_CALLER, **OPTIONS_WITHOUT_CALLER,
                  **DEFAULTS_NOT_TAKEN}
    assert any("perfbench" in reason or "tracer" in reason for reason in exemptions.values())
    assert _unbound_exemptions(exemptions, source) == []


def test_the_check_finds_an_exemption_perfbench_does_not_use():
    exemptions = {"a.used": "tracer-bound", "a.C.method": "perfbench-bound",
                  "a.f(x)": "perfbench-bound", "a.gone": "perfbench-bound",
                  "a.C.gone_too": "tracer-bound", "a.g(y)": "perfbench-bound",
                  "a.elsewhere": "paper check"}
    source = ("from parabolab import a\n"
              "patch(a, 'used')\n"
              "a.C().method(a.f(1))\n"
              "gone_soon = a.g_two\n")
    # a word inside a longer name does not count, and another reason is not checked
    assert _unbound_exemptions(exemptions, source) == ["a.C.gone_too", "a.g(y)", "a.gone"]


def _runs_script(test: ast.AST, script: Path) -> bool:
    """Whether a test module names the script's file in a string, as a path
    to load or run, or imports the script's module."""
    for node in ast.walk(test):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value == script.name or node.value.endswith("/" + script.name):
                return True
        if isinstance(node, ast.Import) and any(a.name == script.stem for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == script.stem:
            return True
    return False


def test_every_script_has_a_test():
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    for script in scripts:
        test = ROOT / "tests" / f"test_{script.stem}.py"
        assert test.exists(), f"{script.name} has no {test.name}"
        assert _runs_script(ast.parse(test.read_text()), script), \
            f"{test.name} neither loads nor imports {script.name}"


def test_the_check_finds_a_script_no_test_runs():
    script = Path("scripts/tool.py")
    assert _runs_script(ast.parse('SCRIPT = ROOT / "scripts" / "tool.py"'), script)
    assert _runs_script(ast.parse('subprocess.run(["python", "scripts/tool.py"])'), script)
    assert _runs_script(ast.parse("import tool"), script)
    assert not _runs_script(ast.parse('"""The statistics of ``tool.py``."""\nimport toolbox'),
                            script)
