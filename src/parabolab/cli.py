"""Command-line harness.

Subcommands: ``check`` (exponent admissibility), ``symbol`` (ellipticity and
boundary-condition root scans), ``run`` (continuation solve with per-window
checkpoints and diagnostics), ``norms`` (weighted norms of a saved
trajectory), ``omega`` (late-time clustering), ``sweep`` (cartesian parameter
sweeps).  Exit codes: 0 ok, 2 admissibility failure, 3 nonconvergence,
4 I/O or configuration error.

All emitted files are deterministic: JSON with sorted keys, CSV floats via
``repr``, binary checkpoints with fixed field order.  Identical config and
seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import shutil
import sys
from copy import deepcopy
from pathlib import Path

import numpy as np

from . import __version__
from . import checkpoint as ckpt
from . import config as cfgmod
from .evolution import NonconvergenceError, StateConstraintError, continue_solution, omega_limit
from .exponents import admissibility_report
from .grids import BoundaryCondition, Grid, GridFunction
from .norms import E0mu_norm, E1mu_norm, WeightedTrajectory, glue, smoothing_check
from .operators import (SolverError, derivative, derivative_values, eigendecompose,
                        reference_operator)
from .problems import ProblemSpecError, spectrum_positivity_check
from .symbols import default_lambda_grid, ellipticity_scan, ls_scan

EXIT_OK = 0
EXIT_ADMISSIBILITY = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4

_FAMILY_ORDER = cfgmod.FAMILY_ORDER
_FAMILY_BC = cfgmod.FAMILY_BC


def _emit_json(obj: dict, path=None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with ckpt.atomic_open(path) as fh:
            fh.write(text.encode())


def _cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (np.floating,)):
        return repr(float(x))
    return "" if x is None else str(x)


def _write_csv(path, header, rows) -> None:
    def dump(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(c) for c in row])

    if path is None:
        dump(sys.stdout)
    else:
        with ckpt.atomic_open(path) as fh, \
                io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
            dump(text)


def _require(ok: bool, message: str) -> None:
    """Reject a command-line option before anything is written (exit 4)."""
    if not ok:
        raise cfgmod.ConfigError(message)


def _print_violations(report: dict) -> None:
    for v in report.get("violated", []):
        print(f"admissibility violated: {v}", file=sys.stderr)


# ---------------------------------------------------------------- check

def cmd_check(args) -> int:
    cfg = cfgmod.load_json(args.config)
    if not cfgmod.is_flat_exponent_config(cfg):
        cfgmod.validate_run_config(cfg)
    ec = cfgmod.exponent_config(cfg)
    try:
        se = cfgmod.structure_exponents(cfg, ec)
        report = admissibility_report(ec, se)
    except ValueError as exc:
        report = admissibility_report(ec)
        report["violated"] = report["violated"] + [str(exc)]
        report["admissible"] = False
    _emit_json(report, args.json)
    if not report["admissible"]:
        _print_violations(report)
        return EXIT_ADMISSIBILITY
    return EXIT_OK


# ---------------------------------------------------------------- symbol

def _gradient_samples(field: GridFunction, bc: BoundaryCondition) -> np.ndarray:
    grid = field.grid
    grads = []
    for axis in range(grid.dim):
        sig = [0] * grid.dim
        sig[axis] = 1
        grads.append(derivative(field, tuple(sig), bc).scalar)
    return np.stack(grads, axis=-1).reshape(-1, grid.dim)


def _symbol_report(cfg: dict, field: GridFunction | None, b_range, n_lambda) -> dict:
    family = cfg["problem"]["family"]
    grid = cfgmod.build_grid(cfg)
    out: dict = {"family": family}
    if _FAMILY_ORDER[family] == "second":
        _problem, spec = cfgmod.build_problem(cfg, grid)
        rep = spectrum_positivity_check(spec.a, spec.u_box)
        out["spectrum"] = rep.as_dict()
        out["ok"] = rep.ok
        return out
    if field is None:
        _problem, _spec = cfgmod.build_problem(cfg, grid)
        field = cfgmod.build_initial(cfg, grid, 1)
    samples = _gradient_samples(field, BoundaryCondition.CLAMPED)
    erep = ellipticity_scan(samples)
    lo, hi, count = b_range
    bs = np.geomspace(lo, hi, int(count))
    lrep = ls_scan(bs, default_lambda_grid(modulus_max=1e6, n_moduli=n_lambda))
    out["ellipticity"] = erep.as_dict()
    out["lopatinskii_shapiro"] = lrep.as_dict()
    out["ok"] = bool(erep.min_ratio > 0.0 and lrep.min_normalized > 0.0)
    return out


def cmd_symbol(args) -> int:
    lo, hi, count = args.b_range
    _require(0.0 < lo < hi < math.inf and count >= 1,
             f"--b-range LO:HI:COUNT needs 0 < LO < HI < inf and COUNT >= 1, "
             f"got {lo!r}:{hi!r}:{count}")
    _require(args.lambda_points >= 1,
             f"--lambda-points must be >= 1, got {args.lambda_points}")
    cfg = cfgmod.load_run_config(args.config)
    field = None
    if args.field:
        traj, _meta = ckpt.load_trajectory(args.field)
        field = traj.states[-1]
    report = _symbol_report(cfg, field, args.b_range, args.lambda_points)
    _emit_json(report, args.json)
    if not report["ok"]:
        print("symbol check failed: degenerate principal symbol or root collision",
              file=sys.stderr)
        return EXIT_ADMISSIBILITY
    return EXIT_OK


# ---------------------------------------------------------------- run

def _timeseries_rows(traj: WeightedTrajectory, bc: BoundaryCondition, order: int):
    """One row per sample; the L2 and X1 columns are the trajectory's own
    sample norms at q = 2, which the diagnostics reuse when they share q."""
    grid = traj.grid
    w = grid.trapezoid_weights()
    vals = traj.state_values
    spatial = tuple(range(1, grid.dim + 1))
    energy = 0.0
    for axis in range(grid.dim):
        sig = [0] * grid.dim
        sig[axis] = 1
        du = derivative_values(vals, grid, tuple(sig), bc)
        energy = energy + 0.5 * np.sum(w[..., None] * du * du, axis=spatial + (-1,))
    columns = [
        traj.times,
        np.max(np.abs(vals), axis=spatial + (-1,)),
        traj.sample_norms("states", 2.0),
        traj.sample_norms("x1", 2.0, order, bc),
        np.sum(w * vals[..., 0], axis=spatial),
        energy,
    ]
    return np.column_stack(columns).tolist()


_TIMESERIES_HEADER = ["time", "sup_norm", "l2_norm", "x1_norm", "mass", "dirichlet_energy"]


def _window_files(out_dir: Path) -> list:
    return sorted(out_dir.glob("window_*.npz"))


def _glue_windows(loaded: list, out_dir: Path, mu: float, p: float) -> WeightedTrajectory:
    """Join the ``(trajectory, meta)`` windows read from the checkpoints under
    ``out_dir`` into one absolute-time trajectory."""
    try:
        return glue([(float(meta.get("t_start", 0.0)), traj) for traj, meta in loaded], mu, p)
    except ValueError as exc:
        raise ckpt.CheckpointError(f"window files under {out_dir}: {exc}") from exc


def _append_run(prev: WeightedTrajectory, new_windows: list,
                run: WeightedTrajectory) -> WeightedTrajectory:
    """``prev`` followed by the samples that this invocation glued in memory.

    ``new_windows`` holds the meta and local sample times of each new window.
    The new samples' absolute times are rebuilt from them as ``glue`` computes
    them, so a resumed run reproduces the bytes of an uninterrupted one.
    """
    times = [meta["t_start"] + local[1:] for meta, local in new_windows]
    return WeightedTrajectory(np.concatenate([prev.times, *times]),
                              np.concatenate([prev.state_values, run.state_values[1:]]),
                              np.concatenate([prev.deriv_values, run.deriv_values[1:]]),
                              prev.mu, prev.p)


def _diagnostics_report(traj: WeightedTrajectory, diag: dict, order: int,
                        bc: BoundaryCondition, q: float) -> dict:
    T = traj.horizon
    out: dict = {}
    intervals = diag.get("norm_intervals", 4)
    if isinstance(intervals, int):
        edges = np.linspace(0.0, T, intervals + 1)
        intervals = [[float(edges[i]), float(edges[i + 1])] for i in range(len(edges) - 1)]
    rows = []
    for lo, hi in intervals:
        rows.append({
            "t_lo": lo, "t_hi": hi,
            "E0mu": E0mu_norm(traj, interval=(lo, hi), q=q),
            "E1mu": E1mu_norm(traj, interval=(lo, hi), q=q, order=order, bc=bc),
        })
    out["norm_intervals"] = rows
    out["E1mu_total"] = E1mu_norm(traj, q=q, order=order, bc=bc)
    delta = diag.get("smoothing_delta", T / 2.0)
    # a run that ended before the configured delta has no smoothing window
    if delta <= T and np.any((traj.times > delta / 2.0) & (traj.times < delta)):
        out["smoothing"] = smoothing_check(traj, delta, q=q, order=order, bc=bc).as_dict()
    if "omega_count" in diag or "omega_fraction" in diag:
        count = diag.get("omega_count", 8)
        frac = diag.get("omega_fraction", 0.5)
        thresh = diag.get("omega_threshold", 1e-4)
        sample_times = np.linspace(T * (1.0 - frac), T, count)
        proxy = eigendecompose(reference_operator(traj.grid,
                                                  "second" if order == 2 else "fourth"))
        rep = omega_limit(traj, sample_times, proxy, threshold=thresh)
        out["omega"] = rep.summary()
    return out


def execute_run(cfg: dict, out_dir: Path, seed: int, force: bool = False,
                resume: bool = False) -> int:
    """Full run pipeline; returns the exit code.

    The artifacts are always written, except that a run whose first window
    collapses has no trajectory, time series or diagnostics to write.
    """
    grid = cfgmod.build_grid(cfg)
    ec = cfgmod.exponent_config(cfg, grid)
    fingerprint = cfgmod.config_fingerprint(cfg)
    done = _window_files(out_dir) if resume else []
    last_window = ckpt.load_trajectory(done[-1]) if done else None
    if last_window and last_window[1].get("config_sha256") != fingerprint:
        raise ckpt.CheckpointError(
            f"cannot resume in {out_dir}: its window checkpoints were written under "
            "another config (only solver.horizon and output may change)")
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        se = cfgmod.structure_exponents(cfg, ec)
        adm = admissibility_report(ec, se)
    except ValueError as exc:
        adm = admissibility_report(ec)
        adm["violated"] = adm["violated"] + [str(exc)]
        adm["admissible"] = False
    _emit_json(adm, out_dir / "admissibility.json")
    if not adm["admissible"] and not force:
        _print_violations(adm)
        _emit_json({"status": "inadmissible", "exit_code": EXIT_ADMISSIBILITY,
                    "violated": adm["violated"], "seed": seed},
                   out_dir / "summary.json")
        return EXIT_ADMISSIBILITY

    problem, _spec = cfgmod.build_problem(cfg, grid)
    fp = cfgmod.build_solver(cfg, ec)
    horizon = cfgmod.horizon_of(cfg)
    diag = cfg.get("diagnostics", {})
    family = cfg["problem"]["family"]
    bc = problem.bc
    order = problem.order_int

    if diag.get("symbol_scan"):
        field = cfgmod.build_initial(cfg, grid, problem.ncomp)
        srep = _symbol_report(cfg, field if problem.ncomp == 1 else None,
                              (1e-6, 1e6, 13), 12)
        _emit_json(srep, out_dir / "symbol.json")

    base_meta = {
        "bc": bc.value, "family": family, "name": cfg.get("name", family),
        "order": problem.order, "seed": seed, "version": __version__,
    }

    t0 = 0.0
    u_start = cfgmod.build_initial(cfg, grid, problem.ncomp)
    start_index = 0
    if last_window:
        traj, meta = last_window
        t0 = float(meta["t_start"]) + float(traj.times[-1])
        u_start = traj.states[-1]
        start_index = int(meta["index"]) + 1
    elif not resume:
        for f in _window_files(out_dir):
            f.unlink()

    # meta and local sample times of each window this invocation runs
    new_windows: list = []

    def save_window(idx: int, t_start: float, wstate) -> None:
        meta = dict(base_meta)
        meta["index"] = start_index + idx
        meta["t_start"] = t_start
        meta["window_summary"] = wstate.summary()
        meta["config_sha256"] = fingerprint
        ckpt.save_trajectory(out_dir / f"window_{start_index + idx:04d}.npz",
                             wstate.trajectory, meta)
        new_windows.append((meta, wstate.trajectory.times))

    status = "ok"
    reason = None
    run = None
    try:
        if t0 < horizon - 1e-12 * max(1.0, horizon):
            state = continue_solution(u_start, problem, fp, horizon, t0=t0,
                                      on_window=save_window)
            run = state.trajectory
            if state.blow_up:
                status = "blow_up"
                reason = state.reason
    except (SolverError, StateConstraintError) as exc:
        status = "blow_up"
        reason = str(exc)

    summary = {
        "status": status,
        "exit_code": EXIT_OK if status == "ok" else EXIT_NONCONVERGENCE,
        "reason": reason,
        "name": cfg.get("name", family),
        "family": family,
        "seed": seed,
        "horizon": horizon,
        "t_reached": t0,
        "n_windows": 0,
        "windows": [],
        "admissible": bool(adm["admissible"]),
    }
    # the windows this invocation ran are glued in memory (``run``), and only
    # those of earlier invocations are read back; without ``run`` (nothing
    # left to run, a collapsed first window, a run that broke off) every
    # window is read back
    if run is None:
        done, new_windows = _window_files(out_dir), []
    loaded = [ckpt.load_trajectory(f) for f in done]
    metas = [meta for _, meta in loaded] + [meta for meta, _ in new_windows]
    traj = _glue_windows(loaded, out_dir, fp.mu, fp.p) if loaded else None
    if run is not None:
        traj = run if traj is None else _append_run(traj, new_windows, run)
    # a run whose first window collapsed has no trajectory to measure
    if traj is not None:
        ckpt.save_trajectory(out_dir / "trajectory.npz", traj, base_meta)
        rows = _timeseries_rows(traj, bc, order)
        _write_csv(out_dir / "timeseries.csv", _TIMESERIES_HEADER, rows)
        diagnostics = _diagnostics_report(traj, diag, order, bc, fp.q)
        _emit_json(diagnostics, out_dir / "diagnostics.json")

        first, last = (dict(zip(_TIMESERIES_HEADER, row)) for row in (rows[0], rows[-1]))
        summary.update({
            "t_reached": last["time"],
            "n_windows": len(metas),
            # from the window meta, so a resumed run lists its earlier windows too
            "windows": [m.get("window_summary") for m in metas],
            "final_sup_norm": last["sup_norm"],
            "final_l2_norm": last["l2_norm"],
            "mass_drift": abs(last["mass"] - first["mass"]) / max(abs(first["mass"]), 1e-300),
        })
    _emit_json(summary, out_dir / "summary.json")
    if status != "ok":
        print(f"run ended early: {reason}", file=sys.stderr)
        for wsum in summary["windows"]:
            print(f"window ledger: {json.dumps(wsum, sort_keys=True)}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = cfgmod.load_run_config(args.config)
    out = args.out or cfg.get("output", {}).get("dir")
    if out is None:
        raise cfgmod.ConfigError("no output directory: pass --out or set output.dir")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    return execute_run(cfg, Path(out), seed, force=args.force, resume=args.resume)


# ---------------------------------------------------------------- norms

def cmd_norms(args) -> int:
    traj, meta = ckpt.load_trajectory(args.checkpoint)
    mu = args.mu if args.mu is not None else traj.mu
    p = args.p if args.p is not None else traj.p
    q = args.q
    T = traj.horizon
    delta = args.delta if args.delta is not None else T / 2.0
    _require(0.0 < mu <= 1.0, f"--mu must lie in (0, 1], got {mu!r}")
    _require(p > 1.0, f"--p must exceed 1, got {p!r}")
    _require(q >= 1.0, f"--q must be >= 1, got {q!r}")
    _require(args.intervals >= 1, f"--intervals must be >= 1, got {args.intervals}")
    _require(0.0 < delta <= T, f"--delta must lie in (0, {T!r}], the saved horizon; "
                               f"got {delta!r}")
    if (mu, p) != (traj.mu, traj.p):
        traj = dataclasses.replace(traj, mu=mu, p=p)
    order = 2 if meta.get("order", "second") == "second" else 4
    bc = BoundaryCondition(meta.get("bc", "neumann"))
    edges = np.linspace(0.0, T, args.intervals + 1)
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows.append([
            float(lo), float(hi),
            E0mu_norm(traj, interval=(lo, hi), q=q),
            E1mu_norm(traj, interval=(lo, hi), q=q, order=order, bc=bc),
        ])
    rows.append([0.0, float(T),
                 E0mu_norm(traj, q=q),
                 E1mu_norm(traj, q=q, order=order, bc=bc)])
    _write_csv(args.csv, ["t_lo", "t_hi", "E0mu", "E1mu"], rows)
    report = {
        "mu": traj.mu, "p": traj.p, "q": q, "horizon": T,
        "E1mu_total": rows[-1][3],
    }
    if np.any((traj.times > delta / 2.0) & (traj.times < delta)):
        report["smoothing"] = smoothing_check(traj, delta, q=q, order=order, bc=bc).as_dict()
    else:
        report["smoothing"] = None
    _emit_json(report, args.json)
    return EXIT_OK


# ---------------------------------------------------------------- omega

def cmd_omega(args) -> int:
    traj, meta = ckpt.load_trajectory(args.checkpoint)
    order = meta.get("order", "second")
    T = traj.horizon
    _require(args.count >= 2, f"--count must be >= 2, got {args.count}")
    _require(0.0 < args.fraction <= 1.0, f"--fraction must lie in (0, 1], got {args.fraction!r}")
    _require(args.threshold > 0.0, f"--threshold must be > 0, got {args.threshold!r}")
    _require(args.theta is None or 0.0 <= args.theta <= 1.0,
             f"--theta must lie in [0, 1], got {args.theta!r}")
    if args.times:
        try:
            sample_times = [float(s) for s in args.times.split(",")]
        except ValueError:
            raise cfgmod.ConfigError(f"--times must be comma separated numbers, "
                                     f"got {args.times!r}") from None
        _require(len(sample_times) >= 2, "--times needs at least two sample times")
        for t in sample_times:
            _require(0.0 <= t <= T, f"--times {t!r} lies outside the saved range [0, {T!r}]")
    else:
        sample_times = np.linspace(T * (1.0 - args.fraction), T, args.count)
    proxy = eigendecompose(reference_operator(traj.grid, order))
    rep = omega_limit(traj, sample_times, proxy, threshold=args.threshold,
                      theta=args.theta)
    out = rep.summary()
    out["sample_times"] = [float(t) for t in sample_times]
    _emit_json(out, args.json)
    return EXIT_OK if rep.converged else EXIT_NONCONVERGENCE


# ---------------------------------------------------------------- sweep

def _set_by_path(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    cur = cfg
    for k in keys[:-1]:
        cur = cur.setdefault(k, {})
    cur[keys[-1]] = value


def _sweep_metrics(cell_dir: Path) -> dict:
    out = {"t_reached": None, "n_windows": None, "final_sup_norm": None,
           "final_l2_norm": None, "mass_drift": None, "max_contraction": None,
           "min_symbol_ratio": None}
    summary_file = cell_dir / "summary.json"
    if not summary_file.exists():
        return out
    summary = json.loads(summary_file.read_text())
    for key in ("t_reached", "n_windows", "final_sup_norm", "final_l2_norm", "mass_drift"):
        out[key] = summary.get(key)
    factors = [f for wsum in summary.get("windows") or [] if wsum
               for f in wsum.get("contraction_factors", [])]
    if factors:
        out["max_contraction"] = max(factors)
    symbol_file = cell_dir / "symbol.json"
    if symbol_file.exists():
        srep = json.loads(symbol_file.read_text())
        if "ellipticity" in srep:
            out["min_symbol_ratio"] = srep["ellipticity"].get("min_ratio")
        elif "spectrum" in srep:
            out["min_symbol_ratio"] = srep["spectrum"].get("min_real_part")
    return out


def cmd_sweep(args) -> int:
    template = cfgmod.load_run_config(args.config)
    axes = cfgmod.load_json(args.axes)
    if not isinstance(axes, dict) or not axes:
        raise cfgmod.ConfigError("axes file must be a nonempty JSON object of path -> list")
    for key, vals in axes.items():
        if not isinstance(vals, list) or not vals:
            raise cfgmod.ConfigError(f"axis {key!r} must map to a nonempty list")
    out_root = Path(args.out) if args.out else Path(template.get("output", {}).get("dir", "sweep"))
    out_root.mkdir(parents=True, exist_ok=True)
    keys = sorted(axes.keys())
    cells = list(itertools.product(*[axes[k] for k in keys]))
    rows = []
    cell_reports = []
    for idx, values in enumerate(cells):
        cell_dir = out_root / f"cell_{idx:04d}"
        cfg = deepcopy(template)
        for k, v in zip(keys, values):
            _set_by_path(cfg, k, v)
        cfg.setdefault("output", {})["dir"] = str(cell_dir)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        try:
            cfgmod.validate_run_config(cfg)
            code = execute_run(cfg, cell_dir, seed, force=args.force)
        except (cfgmod.ConfigError, ProblemSpecError, ckpt.CheckpointError) as exc:
            print(f"cell {idx}: {exc}", file=sys.stderr)
            code = EXIT_IO
        except (SolverError, NonconvergenceError, StateConstraintError) as exc:
            print(f"cell {idx}: {exc}", file=sys.stderr)
            code = EXIT_NONCONVERGENCE
        metrics = _sweep_metrics(cell_dir)
        rows.append([idx, *values, code, *[metrics[k] for k in sorted(metrics)]])
        cell_reports.append({"cell": idx, "overrides": dict(zip(keys, values)),
                             "exit_code": code, **metrics})
    header = ["cell", *keys, "exit_code", *sorted(_sweep_metrics(Path("/nonexistent")))]
    _write_csv(out_root / "summary.csv", header, rows)
    sweep_summary = {"axes": {k: axes[k] for k in keys}, "cells": cell_reports,
                     "n_cells": len(cells)}
    orders = _refinement_orders(axes, keys, cell_reports)
    if orders:
        sweep_summary["observed_orders"] = orders
    _emit_json(sweep_summary, out_root / "sweep_summary.json")
    return EXIT_OK


def _refinement_orders(axes: dict, keys: list, cell_reports: list) -> dict:
    """Observed convergence orders along a pure grid.nodes refinement axis."""
    if "grid.nodes" not in axes or len(axes["grid.nodes"]) < 2:
        return {}
    if any(len(axes[k]) > 1 for k in keys if k != "grid.nodes"):
        return {}
    cells = sorted(cell_reports, key=lambda c: c["overrides"]["grid.nodes"])
    drifts = [c["mass_drift"] for c in cells]
    nodes = [c["overrides"]["grid.nodes"] for c in cells]
    out: dict = {}
    if all(isinstance(d, float) and d > 0 for d in drifts) and len(drifts) >= 2:
        rates = []
        for i in range(len(drifts) - 1):
            ratio_h = (nodes[i + 1] - 1) / (nodes[i] - 1)
            rates.append(math.log(drifts[i] / drifts[i + 1]) / math.log(ratio_h))
        out["mass_drift"] = rates
    sups = [c["final_sup_norm"] for c in cells]
    if all(isinstance(s, float) for s in sups) and len(sups) >= 3:
        rates = []
        for i in range(len(sups) - 2):
            d1 = abs(sups[i] - sups[i + 1])
            d2 = abs(sups[i + 1] - sups[i + 2])
            if d1 > 0 and d2 > 0:
                ratio_h = (nodes[i + 1] - 1) / (nodes[i] - 1)
                rates.append(math.log(d1 / d2) / math.log(ratio_h))
        if rates:
            out["final_sup_norm"] = rates
    return out


# ---------------------------------------------------------------- entry

def _b_range(value: str):
    try:
        lo, hi, count = value.split(":")
        return float(lo), float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI:COUNT, got {value!r}") from None


class _ArgumentParser(argparse.ArgumentParser):
    """Rejects a malformed command line as a configuration error (exit 4);
    argparse's own code 2 is the admissibility code here.  Subparsers
    inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="parabolab",
        description="Numerical laboratory for quasilinear parabolic evolution problems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="exponent admissibility report")
    p.add_argument("--config", required=True)
    p.add_argument("--json", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("symbol", help="principal symbol and boundary root scan")
    p.add_argument("--config", required=True)
    p.add_argument("--field", default=None, help="trajectory checkpoint; final state is sampled")
    p.add_argument("--b-range", type=_b_range, default=(1e-6, 1e6, 13),
                   help="LO:HI:COUNT geometric grid for the tangential parameter")
    p.add_argument("--lambda-points", type=int, default=12)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("run", help="continuation solve with checkpoints and diagnostics")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true",
                   help="run even if the exponent check fails")
    p.add_argument("--resume", action="store_true",
                   help="continue from existing window checkpoints")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("norms", help="weighted norms of a saved trajectory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--intervals", type=int, default=4)
    p.add_argument("--delta", type=float, default=None, help="smoothing split time")
    p.add_argument("--csv", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("omega", help="late-time cluster report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--times", default=None, help="comma separated absolute sample times")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("sweep", help="cartesian parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--axes", required=True,
                   help="JSON object mapping dotted config paths to value lists")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (cfgmod.ConfigError, ckpt.CheckpointError, ProblemSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonconvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        for r in exc.residuals:
            print(f"residual: {r!r}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
