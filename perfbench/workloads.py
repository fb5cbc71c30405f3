"""The four benchmark workloads: input generation, one timed pass, and the
correctness gates that turn a wrong answer into a failed operation.

Every workload is defined by ``prepare`` (builds the inputs from the seed;
counted as set-up), ``execute`` (the timed pass through parabolab's public
entry points) and ``check`` (the gates; not timed).  An operation is a ladder
rung, a ``parabolab run`` invocation or a sweep cell.  ``check`` returns one
boolean per operation.

Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

WORKLOADS = ("ladder-1d", "rd-2d", "willmore-2d", "sweep-1d")
SCALES = ("full", "tiny")

# The seed jitters the amplitude of the free initial data within this band.
AMPLITUDE_JITTER = 0.05

# criterion 04: observed orders of the refinement ladder
MIN_LADDER_ORDER = 1.9
LADDER_MU, LADDER_P = 0.9, 2.0
LADDER_NODES = {"full": (33, 65, 129), "tiny": (9, 17, 33)}
HEAT_T, PLATE_T = 0.1, 0.01

# 2D runs at q = 4: with q = 2 and n = 2 the condition 4/p + n/q < 3 fails.
RUN_CONFIGS = {"rd-2d": "rd-2d.json", "willmore-2d": "willmore-2d.json"}
# 2D grid nodes and time steps per window at the tiny scale
TINY_RUN = {"nodes": 12, "time_steps": 10}

SWEEP_TEMPLATE = REPO_ROOT / "configs" / "heat.json"
SWEEP_AXES = {
    "full": {"grid.nodes": [33, 65, 129], "exponents.mu": ["4/5", "9/10"]},
    "tiny": {"grid.nodes": [17, 33], "exponents.mu": ["9/10"]},
}
# Final-state error allowed against 1 + a e^{-pi^2 t} cos(pi x), as a multiple
# of the leading semidiscrete error a t e^{-pi^2 t} pi^4 h^2 / 12.
SWEEP_ERROR_FACTOR = 2.0


@dataclass
class Outcome:
    """What one pass produced: a flag per operation and a note per failure."""

    ok: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, ok: bool, note: str = "") -> None:
        self.ok.append(bool(ok))
        if not ok:
            self.notes.append(note)


def _amplitude(seed: int, base: float) -> float:
    rng = random.Random(f"perfbench-{seed}")
    return base * (1.0 + AMPLITUDE_JITTER * (2.0 * rng.random() - 1.0))


# ---------------------------------------------------------------- ladder-1d

def _prepare_ladder(seed: int, scale: str, work: Path) -> dict:
    from parabolab.evolution import AbstractProblem, FixedPointConfig
    from parabolab.grids import BoundaryCondition, Grid, GridFunction
    from parabolab.operators import eigendecompose, reference_operator
    from parabolab.problems import linear_heat_spec, rd_problem

    def zero_rhs(v):
        return GridFunction.from_scalar(v.grid, np.zeros(v.grid.shape))

    amp = _amplitude(seed, 1.0)
    rungs = []
    for nodes in LADDER_NODES[scale]:
        grid = Grid(1, nodes)
        x = grid.axis_coords()
        steps = (nodes - 1) ** 2 // 4
        rungs.append({
            "half": "heat", "nodes": nodes, "horizon": HEAT_T,
            "u0": GridFunction.from_scalar(grid, amp * np.cos(np.pi * x)),
            "prob": rd_problem(linear_heat_spec(grid)),
            "cfg": FixedPointConfig(window=HEAT_T, time_steps=steps, mu=LADDER_MU,
                                    p=LADDER_P, tol=1e-12),
            "exact": amp * np.exp(-np.pi ** 2 * HEAT_T) * np.cos(np.pi * x),
        })
    for nodes in LADDER_NODES[scale]:
        grid = Grid(1, nodes)
        op = reference_operator(grid, "fourth")
        proxy = eigendecompose(op)
        coeffs = np.zeros((len(proxy.eigenvalues), 1))
        coeffs[0, 0] = 1.0
        phi = proxy.synthesize(coeffs).scalar
        u0 = GridFunction.from_scalar(grid, amp * phi / np.max(np.abs(phi)))
        steps = (nodes - 1) ** 2 // 4
        rungs.append({
            "half": "plate", "nodes": nodes, "horizon": PLATE_T, "u0": u0,
            "prob": AbstractProblem(assemble_A=lambda v, op=op: op, F1=zero_rhs,
                                    F2=zero_rhs, bc=BoundaryCondition.CLAMPED,
                                    order="fourth", name="plate"),
            "cfg": FixedPointConfig(window=PLATE_T, time_steps=steps, mu=LADDER_MU,
                                    p=LADDER_P, tol=1e-13),
            "exact": np.exp(-float(proxy.eigenvalues[0]) * PLATE_T) * u0.scalar,
        })
    return {"rungs": rungs}


def _execute_ladder(inputs: dict) -> dict:
    # looked up at call time so that a traced pass goes through the wrapper
    from parabolab import evolution

    results = []
    for rung in inputs["rungs"]:
        try:
            state = evolution.continue_solution(rung["u0"], rung["prob"], rung["cfg"],
                                                horizon=rung["horizon"])
        except Exception:  # a crashing rung is a failed operation, not a crash
            results.append({"error": traceback.format_exc(limit=3)})
            continue
        results.append({"state": state})
    return {"results": results}


def _check_ladder(inputs: dict, produced: dict) -> Outcome:
    out = Outcome()
    rungs = inputs["rungs"]
    errors = []
    for rung, res in zip(rungs, produced["results"]):
        state = res.get("state")
        if state is None or state.trajectory is None or state.blow_up:
            errors.append(None)
            continue
        final = state.trajectory.states[-1].scalar
        single = len(state.windows) == 1 and state.windows[0].converged
        errors.append(float(np.max(np.abs(final - rung["exact"]))) if single else None)
    for half in ("heat", "plate"):
        idx = [i for i, r in enumerate(rungs) if r["half"] == half]
        errs = [errors[i] for i in idx]
        orders = []
        if all(e is not None and e > 0.0 for e in errs):
            orders = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
        half_ok = bool(orders) and min(orders) >= MIN_LADDER_ORDER
        for i in idx:
            res = produced["results"][i]
            note = res.get("error") or (
                f"{half} rung {rungs[i]['nodes']}: orders {orders} "
                f"(need >= {MIN_LADDER_ORDER}), error {errors[i]}")
            out.add(half_ok and errors[i] is not None, note)
    return out


# ---------------------------------------------------------------- run workloads

def _prepare_run(name: str, seed: int, scale: str, work: Path) -> dict:
    cfg = json.loads((BENCH_DIR / "configs" / RUN_CONFIGS[name]).read_text())
    cfg["initial"]["amplitude"] = _amplitude(seed, cfg["initial"]["amplitude"])
    if scale == "tiny":
        cfg["grid"]["nodes"] = TINY_RUN["nodes"]
        cfg["solver"]["time_steps"] = TINY_RUN["time_steps"]
    out = work / name
    cfg["output"]["dir"] = str(out)
    path = work / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return {"argv": ["run", "--config", str(path), "--out", str(out),
                     "--seed", str(seed)], "out": out}


def _execute_cli(inputs: dict) -> dict:
    from parabolab import cli

    try:
        return {"code": cli.main(inputs["argv"])}
    except Exception:  # a crash is a failed operation
        return {"error": traceback.format_exc(limit=3)}


def _check_run(inputs: dict, produced: dict) -> Outcome:
    out = Outcome()
    if "error" in produced:
        out.add(False, produced["error"])
        return out
    summary_file = inputs["out"] / "summary.json"
    if produced["code"] != 0 or not summary_file.exists():
        out.add(False, f"exit code {produced['code']}")
        return out
    summary = json.loads(summary_file.read_text())
    windows = summary.get("windows") or []
    converged = bool(windows) and all(w and w.get("converged") for w in windows)
    out.add(summary.get("status") == "ok" and converged,
            f"status {summary.get('status')!r}, windows converged: {converged}")
    return out


# ---------------------------------------------------------------- sweep-1d

def _prepare_sweep(seed: int, scale: str, work: Path) -> dict:
    cfg = json.loads(SWEEP_TEMPLATE.read_text())
    amp = _amplitude(seed, cfg["initial"]["amplitude"])
    cfg["initial"]["amplitude"] = amp
    out = work / "sweep"
    cfg["output"]["dir"] = str(out)
    template = work / "heat.json"
    template.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    axes = work / "axes.json"
    axes.write_text(json.dumps(SWEEP_AXES[scale], sort_keys=True) + "\n")
    return {"argv": ["sweep", "--config", str(template), "--axes", str(axes),
                     "--out", str(out), "--seed", str(seed)],
            "out": out, "initial": cfg["initial"], "horizon": cfg["solver"]["horizon"],
            "n_cells": operation_count("sweep-1d", scale)}


def _check_sweep(inputs: dict, produced: dict) -> Outcome:
    from parabolab.checkpoint import load_trajectory

    out = Outcome()
    n = inputs["n_cells"]
    if "error" in produced or produced["code"] != 0:
        for _ in range(n):
            out.add(False, produced.get("error") or f"sweep exit code {produced['code']}")
        return out
    summary = json.loads((inputs["out"] / "sweep_summary.json").read_text())
    cells = summary["cells"]
    if len(cells) != n:
        for _ in range(n):
            out.add(False, f"{len(cells)} cells in the sweep summary, expected {n}")
        return out
    init = inputs["initial"]
    amp, offset, k = init["amplitude"], init["offset"], init["wavenumber"]
    for cell in cells:
        if cell["exit_code"] != 0:
            out.add(False, f"cell {cell['cell']}: exit code {cell['exit_code']}")
            continue
        traj, _meta = load_trajectory(inputs["out"] / f"cell_{cell['cell']:04d}" / "trajectory.npz")
        t = float(traj.times[-1])
        grid = traj.grid
        decay = math.exp(-(k * math.pi) ** 2 * t)
        exact = offset + amp * decay * np.cos(k * np.pi * grid.axis_coords())
        err = float(np.max(np.abs(traj.states[-1].scalar - exact)))
        tol = SWEEP_ERROR_FACTOR * amp * t * decay * (k * math.pi) ** 4 * grid.h ** 2 / 12.0
        reached = abs(t - inputs["horizon"]) <= 1e-12
        out.add(reached and err <= tol,
                f"cell {cell['cell']}: t={t}, error {err:.3e} > {tol:.3e}")
    return out


# ---------------------------------------------------------------- dispatch

def operation_count(name: str, scale: str) -> int:
    """Operations one pass attempts: ladder rungs, run invocations or sweep cells."""
    if name == "ladder-1d":
        return 2 * len(LADDER_NODES[scale])
    if name == "sweep-1d":
        return math.prod(len(v) for v in SWEEP_AXES[scale].values())
    return 1


def prepare(name: str, seed: int, scale: str, work: Path) -> dict:
    if name == "ladder-1d":
        return _prepare_ladder(seed, scale, work)
    if name in RUN_CONFIGS:
        return _prepare_run(name, seed, scale, work)
    if name == "sweep-1d":
        return _prepare_sweep(seed, scale, work)
    raise ValueError(f"unknown workload {name!r}")


def execute(name: str, inputs: dict) -> dict:
    if name == "ladder-1d":
        return _execute_ladder(inputs)
    return _execute_cli(inputs)


def check(name: str, inputs: dict, produced: dict) -> Outcome:
    if name == "ladder-1d":
        return _check_ladder(inputs, produced)
    if name == "sweep-1d":
        return _check_sweep(inputs, produced)
    return _check_run(inputs, produced)
