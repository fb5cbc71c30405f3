"""Per-layer spans and counts, recorded from outside the program.

The tracer wraps parabolab's public functions where the modules bind them
(``from .x import y`` makes one binding per importing module, so a wrapper is
installed on each binding it must catch).  Each wrapped call records a span
(name, start, end, parent) in memory; self times are derived from the spans
after the pass, and ``uninstall`` puts every original binding back.

Layer metrics (``_s`` is self time: the span minus its child spans):

- ``operators``: ``scipy.sparse.linalg.factorized`` (factor) and the solve
  callable it returns (solve), ``derivative``, the problem's ``assemble_A``
  hook (assemble), ``eigendecompose``;
- ``evolution``: ``continue_solution``, ``reference_solution``,
  ``picard_map``, ``omega_limit``, plus window, halving and Picard-iteration
  counts read from the returned window states;
- ``problems``: the ``F1``/``F2``/``apply_A`` hooks (rhs), ``build_problem``;
- ``geometry``: ``willmore_rhs``/``surface_diffusion_rhs``,
  ``leading_coefficient``;
- ``norms``: ``E1mu_norm`` as bound in ``evolution`` (residual), the
  ``E0mu_norm``/``E1mu_norm``/``smoothing_check`` bindings in ``cli``
  (diagnostics), and a count of ``x1_norm`` calls;
- ``grids``: a count of ``GridFunction.__init__`` calls;
- ``checkpoint``: save/load with bytes written and read;
- ``symbols``: ``ellipticity_scan`` and ``ls_scan`` as bound in ``cli``;
- ``config``/``exponents``: config loading and validation, and
  ``admissibility_report`` as bound in ``cli``;
- ``cli``: the self time of ``execute_run``.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter
from time import perf_counter

# Span names; each yields ``<name>_s`` (self time) and, where listed in
# COUNTED, ``<name>_calls``.
SPANS = (
    "operators.factor", "operators.solve", "operators.derivative",
    "operators.assemble", "operators.eigendecompose",
    "evolution.continue", "evolution.reference", "evolution.picard_map",
    "evolution.omega",
    "problems.rhs", "problems.build",
    "geometry.rhs", "geometry.leading_coefficient",
    "norms.residual", "norms.diagnostics",
    "checkpoint.save", "checkpoint.load",
    "symbols.scan", "config.load", "exponents.admissibility", "cli",
)
COUNTED = (
    "operators.factor", "operators.solve", "operators.derivative",
    "operators.assemble", "operators.eigendecompose", "problems.rhs",
    "norms.residual", "checkpoint.save", "checkpoint.load",
)
# Counters that are not span counts.
COUNTERS = (
    "evolution.windows", "evolution.halvings", "evolution.picard_iters",
    "norms.x1_calls", "grids.gridfunction_allocs",
    "checkpoint.bytes_written", "checkpoint.bytes_read",
)
# The cli layer's metric is named after what it measures.
_SELF_NAMES = {"cli": "cli.self_s"}


def metric_names() -> list:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = [_SELF_NAMES.get(s, f"{s}_s") for s in SPANS]
    names += [f"{s}_calls" for s in COUNTED]
    names += list(COUNTERS)
    names.append("evolution.accept_ratio")
    return names


def count_metric_names() -> list:
    """The metrics that must repeat exactly between traced passes."""
    return [f"{s}_calls" for s in COUNTED] + list(COUNTERS)


class Tracer:
    """Records spans and counts while installed; restores everything on uninstall."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._undo: list = []

    # ------------------------------------------------------------ wrappers

    def span(self, name: str, fn):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factorized(self, fn):
        timed = self.span("operators.factor", fn)

        def wrapper(*args, **kwargs):
            return self.span("operators.solve", timed(*args, **kwargs))

        return wrapper

    def _hooked(self, prob):
        hooks = {"assemble_A": self.span("operators.assemble", prob.assemble_A),
                 "F1": self.span("problems.rhs", prob.F1),
                 "F2": self.span("problems.rhs", prob.F2)}
        if prob.apply_A is not None:
            hooks["apply_A"] = self.span("problems.rhs", prob.apply_A)
        return dataclasses.replace(prob, **hooks)

    def _continue(self, fn):
        timed = self.span("evolution.continue", fn)
        counts = self.counts

        def wrapper(u0, prob, *args, **kwargs):
            state = timed(u0, self._hooked(prob), *args, **kwargs)
            counts["evolution.windows"] += len(state.windows)
            counts["evolution.halvings"] += sum(w.halvings for w in state.windows)
            counts["evolution.picard_iters"] += sum(w.iterations for w in state.windows)
            return state

        return wrapper

    def _save(self, fn):
        timed = self.span("checkpoint.save", fn)

        def wrapper(path, *args, **kwargs):
            timed(path, *args, **kwargs)
            self.counts["checkpoint.bytes_written"] += os.path.getsize(path)

        return wrapper

    def _load(self, fn):
        timed = self.span("checkpoint.load", fn)

        def wrapper(path, *args, **kwargs):
            result = timed(path, *args, **kwargs)
            self.counts["checkpoint.bytes_read"] += os.path.getsize(path)
            return result

        return wrapper

    # ------------------------------------------------------------ install

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        """Replace every module-level binding of ``original`` with ``wrapper``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        import scipy.sparse.linalg

        from parabolab import (checkpoint, cli, config, evolution, geometry, grids,
                               norms, operators, problems, symbols)

        modules = (checkpoint, cli, config, evolution, geometry, grids, norms,
                   operators, problems, symbols)
        self._patch(scipy.sparse.linalg, "factorized",
                    self._factorized(scipy.sparse.linalg.factorized))
        self._patch_everywhere(modules, operators.derivative,
                               self.span("operators.derivative", operators.derivative))
        self._patch_everywhere(modules, operators.eigendecompose,
                               self.span("operators.eigendecompose",
                                         operators.eigendecompose))
        self._patch_everywhere(modules, evolution.continue_solution,
                               self._continue(evolution.continue_solution))
        self._patch(evolution, "reference_solution",
                    self.span("evolution.reference", evolution.reference_solution))
        self._patch(evolution, "picard_map",
                    self.span("evolution.picard_map", evolution.picard_map))
        self._patch(cli, "omega_limit", self.span("evolution.omega", cli.omega_limit))
        self._patch(config, "build_problem",
                    self.span("problems.build", config.build_problem))
        for attr in ("willmore_rhs", "surface_diffusion_rhs"):
            self._patch(geometry, attr, self.span("geometry.rhs", getattr(geometry, attr)))
        self._patch(geometry, "leading_coefficient",
                    self.span("geometry.leading_coefficient", geometry.leading_coefficient))
        self._patch(evolution, "E1mu_norm", self.span("norms.residual", evolution.E1mu_norm))
        for attr in ("E0mu_norm", "E1mu_norm", "smoothing_check"):
            self._patch(cli, attr, self.span("norms.diagnostics", getattr(cli, attr)))
        self._patch_everywhere(modules, norms.x1_norm,
                               self.count("norms.x1_calls", norms.x1_norm))
        self._patch(grids.GridFunction, "__init__",
                    self.count("grids.gridfunction_allocs", grids.GridFunction.__init__))
        self._patch(checkpoint, "save_trajectory", self._save(checkpoint.save_trajectory))
        self._patch(checkpoint, "load_trajectory", self._load(checkpoint.load_trajectory))
        for attr in ("ellipticity_scan", "ls_scan"):
            self._patch(cli, attr, self.span("symbols.scan", getattr(cli, attr)))
        for attr in ("load_run_config", "load_json", "validate_run_config"):
            self._patch(config, attr, self.span("config.load", getattr(config, attr)))
        self._patch(cli, "admissibility_report",
                    self.span("exponents.admissibility", cli.admissibility_report))
        self._patch(cli, "execute_run", self.span("cli", cli.execute_run))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def metrics(self) -> dict:
        """Self time and call count per span name, plus the counters."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            self_s[self.names[i]] += self.ends[i] - self.starts[i] - child[i]
            calls[self.names[i]] += 1
        out = {_SELF_NAMES.get(s, f"{s}_s"): self_s[s] for s in SPANS}
        out.update({f"{s}_calls": calls[s] for s in COUNTED})
        out.update({c: self.counts[c] for c in COUNTERS})
        windows, halvings = self.counts["evolution.windows"], self.counts["evolution.halvings"]
        out["evolution.accept_ratio"] = windows / (windows + halvings) if windows else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write the spans as CSV: index, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n")
