"""Command-line harness.

Subcommands: ``check`` (exponent admissibility), ``symbol`` (ellipticity and
boundary-condition root scans), ``run`` (continuation solve with per-window
checkpoints and diagnostics), ``norms`` (weighted norms of a saved
trajectory), ``omega`` (late-time clustering), ``sweep`` (cartesian parameter
sweeps).  Exit codes: 0 ok, 2 admissibility failure, 3 nonconvergence,
4 I/O, configuration, size-limit or out-of-memory error.

All emitted files are deterministic: JSON with sorted keys, CSV floats via
``repr``, binary checkpoints with fixed field order.  Identical config and
seed give byte-identical outputs.  JSON is strict, never ``NaN`` or
``Infinity``: a ``run`` or ``norms`` whose norms overflow exits 4 instead.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import sys
from copy import deepcopy
from pathlib import Path

import numpy as np

from . import __version__
from . import checkpoint as ckpt
from . import config as cfgmod
from .evolution import NonconvergenceError, StateConstraintError, continue_solution, omega_limit
from .exponents import ORDER_INT, ORDER_SECOND, admissibility_report
from .geometry import slope_field
from .grids import BoundaryCondition, GridFunction
from .norms import E0mu_norm, E1mu_norm, WeightedTrajectory, glue, smoothing_check
from .operators import (DESK_EIG_CAP, SolverError, derivative_values, eigendecompose,
                        reference_operator, unit_sigma)
from .problems import ProblemSpecError
from .symbols import default_lambda_grid, ellipticity_scan, ls_scan

EXIT_OK = 0
EXIT_ADMISSIBILITY = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4

_ORDER_NAME = {n: name for name, n in ORDER_INT.items()}

# defaults of the boundary root scan, for `symbol` and a run's symbol report
SYMBOL_B_RANGE, SYMBOL_LAMBDA_POINTS = (1e-6, 1e6, 13), 12
# the most (b, lambda) points of a scan, COUNT * (1 + 9 * lambda_points)
MAX_SCAN_POINTS = 10 ** 6


_NONCONVERGENCE = (NonconvergenceError, SolverError, StateConstraintError)
# the errors every command reports as an exit code, never as a traceback
_FAILURES = (cfgmod.ConfigError, ckpt.CheckpointError, ProblemSpecError, OSError,
             MemoryError, *_NONCONVERGENCE)


def _exit_code(exc: BaseException) -> int:
    """3 for a solver that failed, 4 for a bad input or an i/o error."""
    return EXIT_NONCONVERGENCE if isinstance(exc, _NONCONVERGENCE) else EXIT_IO


def _emit_json(obj: dict, path=None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
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


def _is_finite(report) -> bool:
    """Whether every number in a JSON-like report is finite."""
    try:
        json.dumps(report, allow_nan=False)
    except ValueError:
        return False
    return True


def _require(ok: bool, message: str) -> None:
    """Reject an option or config value as a configuration error (exit 4)."""
    if not ok:
        raise cfgmod.ConfigError(message)


def _print_violations(report: dict) -> None:
    for v in report.get("violated", []):
        print(f"admissibility violated: {v}", file=sys.stderr)


def _admissibility(exps: cfgmod.Exponents) -> dict:
    """The admissibility report; structure exponents that cannot be formed
    or checked are one more violation."""
    violation = exps.violation
    if exps.structure is not None:
        try:
            return admissibility_report(exps.config, exps.structure)
        except ValueError as exc:
            violation = str(exc)
    report = admissibility_report(exps.config)
    report["violated"] = report["violated"] + [violation]
    report["admissible"] = False
    return report


# ---------------------------------------------------------------- check

def cmd_check(args) -> int:
    doc = cfgmod.load_json(args.config)
    report = _admissibility(cfgmod.flat_exponents(doc) if cfgmod.is_flat_exponent_config(doc)
                            else cfgmod.validate_run_config(doc).exponents)
    _emit_json(report, args.json)
    if not report["admissible"]:
        _print_violations(report)
        return EXIT_ADMISSIBILITY
    return EXIT_OK


# ---------------------------------------------------------------- symbol

def _symbol_report(rc: cfgmod.RunConfig, spec, field: GridFunction | None, b_range,
                   n_lambda) -> dict:
    """The symbol report of the configured problem, whose spec is ``spec``;
    a flow is scanned at the gradients of ``field``, a scalar height, by
    default the configured initial field.  A second-order problem reports the
    positivity check that its spec passed when it was built."""
    out: dict = {"family": rc.family}
    if rc.order == ORDER_SECOND:
        out["spectrum"] = spec.positivity.as_dict()
        out["ok"] = spec.positivity.ok
        return out
    if field is None:
        field = cfgmod.build_initial(rc)
    erep = ellipticity_scan(slope_field(field.values, field.grid).reshape(-1, field.grid.dim))
    lrep = ls_scan(np.geomspace(*b_range), default_lambda_grid(modulus_max=1e6, n_moduli=n_lambda))
    out["ellipticity"] = erep.as_dict()
    out["lopatinskii_shapiro"] = lrep.as_dict()
    out["ok"] = bool(erep.min_ratio > 0.0 and lrep.min_normalized > 0.0)
    return out


def cmd_symbol(args) -> int:
    lo, hi, count = args.b_range
    # up to HI = 1e150, b^2 and the terms of the boundary quartic stay finite
    _require(0.0 < lo < hi <= 1e150 and count >= 1,
             f"--b-range LO:HI:COUNT needs 0 < LO < HI <= 1e150 and COUNT >= 1, "
             f"got {lo!r}:{hi!r}:{count}")
    _require(args.lambda_points >= 1,
             f"--lambda-points must be >= 1, got {args.lambda_points}")
    points = count * (1 + 9 * args.lambda_points)
    _require(points <= MAX_SCAN_POINTS,
             f"--b-range COUNT {count} with --lambda-points {args.lambda_points} makes "
             f"{points} scan points, more than {MAX_SCAN_POINTS}")
    rc = cfgmod.load_run_config(args.config)
    field = None
    if args.field:
        traj, order, bc = _load_saved(args.field)
        field = traj.states[-1]
        _require(rc.order == ORDER_SECOND or field.ncomp == 1, f"a flow is scanned at a "
                 f"scalar height field, got one of {field.ncomp} components")
        # the gradients of a field computed for another problem say nothing of this one
        _require((order, bc, field.grid.dim) == (ORDER_INT[rc.order], rc.bc, rc.grid.dim),
                 f"--field {args.field} holds a field of order {order}, {bc.value} boundary "
                 f"conditions and dimension {field.grid.dim}, not one of the {rc.family} "
                 f"config: order {ORDER_INT[rc.order]}, {rc.bc.value}, dimension {rc.grid.dim}")
    _problem, spec = cfgmod.build_problem(rc)
    report = _symbol_report(rc, spec, field, args.b_range, args.lambda_points)
    _emit_json(report, args.json)
    if not report["ok"]:
        print("symbol check failed: degenerate principal symbol or root collision",
              file=sys.stderr)
        return EXIT_ADMISSIBILITY
    return EXIT_OK


# ---------------------------------------------------------------- run

def _timeseries_rows(traj: WeightedTrajectory, order: int):
    """One row per sample; the L2 and X1 columns are the trajectory's own
    sample norms at q = 2, which the diagnostics reuse when they share q."""
    grid = traj.grid
    w = grid.trapezoid_weights()
    vals = traj.state_values
    spatial = tuple(range(1, grid.dim + 1))
    energy = 0.0
    for axis in range(grid.dim):
        du = derivative_values(vals, grid, unit_sigma(axis, grid.dim))
        energy = energy + 0.5 * np.sum(w[..., None] * du * du, axis=spatial + (-1,))
    columns = [
        traj.times,
        np.max(np.abs(vals), axis=spatial + (-1,)),
        traj.sample_norms("states", 2.0),
        traj.sample_norms("x1", 2.0, order),
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
    except (TypeError, ValueError) as exc:
        raise ckpt.CheckpointError(f"window files under {out_dir}: {exc}") from exc


def _interval_norms(traj: WeightedTrajectory, intervals, q: float, order: int) -> list:
    """``[t_lo, t_hi, E0mu, E1mu]`` for each ``(t_lo, t_hi)`` of ``intervals``,
    or of that many equal parts of the trajectory; the norms are None for an
    interval that ends after the trajectory."""
    if isinstance(intervals, int):
        edges = np.linspace(0.0, traj.horizon, intervals + 1).tolist()
        intervals = zip(edges[:-1], edges[1:])
    return [[lo, hi, E0mu_norm(traj, interval=(lo, hi), q=q),
             E1mu_norm(traj, interval=(lo, hi), q=q, order=order)]
            if hi <= traj.horizon + 1e-12 * traj.horizon else [lo, hi, None, None]
            for lo, hi in intervals]


def _smoothing(traj: WeightedTrajectory, delta: float, q: float, order: int):
    """The smoothing report at ``delta`` as a dict, or None when no sample
    lies inside (delta/2, delta), as after a run that ended before delta."""
    if delta <= traj.horizon and np.any((traj.times > delta / 2.0) & (traj.times < delta)):
        return smoothing_check(traj, delta, q=q, order=order).as_dict()
    return None


def _omega(traj: WeightedTrajectory, order: int, sample_times, threshold: float, theta=None):
    """``omega_limit`` in the proxy metric of the reference operator of ``order``."""
    op = reference_operator(traj.grid, _ORDER_NAME[order])
    _require(op.n_active <= DESK_EIG_CAP, f"{op.n_active} unknowns exceed the dense "
                                          f"eigendecomposition cap {DESK_EIG_CAP}")
    return omega_limit(traj, sample_times, eigendecompose(op), threshold=threshold, theta=theta)


def _diagnostics_report(traj: WeightedTrajectory, diag: cfgmod.Diagnostics, order: int,
                        q: float) -> dict:
    T = traj.horizon
    rows = _interval_norms(traj, diag.norm_intervals, q, order)
    out: dict = {"norm_intervals": [dict(zip(("t_lo", "t_hi", "E0mu", "E1mu"), row))
                                    for row in rows]}
    out["E1mu_total"] = E1mu_norm(traj, q=q, order=order)
    delta = T / 2.0 if diag.smoothing_delta is None else diag.smoothing_delta
    smoothing = _smoothing(traj, delta, q, order)
    if smoothing is not None:
        out["smoothing"] = smoothing
    if diag.omega:
        sample_times = np.linspace(T * (1.0 - diag.omega_fraction), T, diag.omega_count)
        out["omega"] = _omega(traj, order, sample_times, diag.omega_threshold).summary()
    return out


# the files a run writes besides its window checkpoints
_RUN_FILES = ("admissibility.json", "symbol.json", "trajectory.npz", "timeseries.csv",
              "diagnostics.json", "summary.json")


def execute_run(rc: cfgmod.RunConfig, out_dir: Path, seed: int, force: bool = False,
                resume: bool = False) -> tuple:
    """Full run pipeline; returns the exit code, and the summary and symbol
    report (None without ``diagnostics.symbol_scan``) that it wrote.

    A problem or initial field that cannot be built raises before anything
    is written.  A run with no window to resume from first removes
    what an earlier run left in ``out_dir``.  The artifacts are always written,
    except that a run whose first window collapses has no trajectory, time
    series or diagnostics to write.
    """
    fp = rc.solver
    # a problem error surfaces here, before anything is written
    problem, spec = cfgmod.build_problem(rc)
    u_init = cfgmod.build_initial(rc)
    fingerprint = cfgmod.config_fingerprint(rc.doc)
    # the windows of earlier invocations, each read once and glued before
    # anything is written
    loaded = [ckpt.load_trajectory(f) for f in _window_files(out_dir)] if resume else []
    if loaded and loaded[-1][1].get("config_sha256") != fingerprint:
        raise ckpt.CheckpointError(
            f"cannot resume in {out_dir}: its window checkpoints were written under "
            "another config (only solver.horizon and output may change)")
    traj = _glue_windows(loaded, out_dir, fp.mu, fp.p) if loaded else None
    out_dir.mkdir(parents=True, exist_ok=True)
    if not loaded:
        for f in [*_window_files(out_dir), *map(out_dir.joinpath, _RUN_FILES)]:
            f.unlink(missing_ok=True)
    adm = _admissibility(rc.exponents)
    _emit_json(adm, out_dir / "admissibility.json")
    if not adm["admissible"] and not force:
        _print_violations(adm)
        summary = {"status": "inadmissible", "exit_code": EXIT_ADMISSIBILITY,
                   "violated": adm["violated"], "seed": seed}
        _emit_json(summary, out_dir / "summary.json")
        return EXIT_ADMISSIBILITY, summary, None

    horizon = rc.horizon
    order = problem.order_int

    srep = None
    if rc.diagnostics.symbol_scan:
        srep = _symbol_report(rc, spec, u_init, SYMBOL_B_RANGE, SYMBOL_LAMBDA_POINTS)
        _emit_json(srep, out_dir / "symbol.json")

    base_meta = {
        "bc": problem.bc.value, "family": rc.family, "name": rc.name,
        "order": problem.order, "seed": seed, "version": __version__,
    }

    metas = [meta for _, meta in loaded]
    start_index = int(metas[-1]["index"]) + 1 if metas else 0

    def save_window(idx: int, t_start: float, wstate) -> None:
        meta = dict(base_meta)
        meta["index"] = start_index + idx
        meta["t_start"] = t_start
        meta["window_summary"] = wstate.summary()
        meta["config_sha256"] = fingerprint
        ckpt.save_trajectory(out_dir / f"window_{start_index + idx:04d}.npz",
                             wstate.trajectory, meta)
        metas.append(meta)

    # a resumed run continues the glued windows of earlier invocations
    state = continue_solution(traj if loaded else u_init, problem, fp, horizon,
                              on_window=save_window)
    traj = state.trajectory
    status, reason = ("blow_up", state.reason) if state.blow_up else ("ok", None)

    summary = {
        "status": status,
        "exit_code": EXIT_OK if status == "ok" else EXIT_NONCONVERGENCE,
        "reason": reason,
        "name": rc.name,
        "family": rc.family,
        "seed": seed,
        "horizon": horizon,
        "t_reached": 0.0,
        "n_windows": 0,
        "windows": [],
        "admissible": bool(adm["admissible"]),
    }
    # a run whose first window collapsed has no trajectory to measure
    if traj is not None:
        # an overflow shows up as a non-finite norm, which is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            diagnostics = _diagnostics_report(traj, rc.diagnostics, order, fp.q)
        _require(_is_finite(diagnostics),
                 f"exponents.q {fp.q!r} with exponents.p {fp.p!r} and exponents.mu "
                 f"{fp.mu!r} gives a diagnostic norm beyond floating point")
        ckpt.save_trajectory(out_dir / "trajectory.npz", traj, base_meta)
        rows = _timeseries_rows(traj, order)
        _write_csv(out_dir / "timeseries.csv", _TIMESERIES_HEADER, rows)
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
    return summary["exit_code"], summary, srep


def cmd_run(args) -> int:
    rc = cfgmod.load_run_config(args.config)
    out = args.out or rc.output_dir
    if out is None:
        raise cfgmod.ConfigError("no output directory: pass --out or set output.dir")
    seed = args.seed if args.seed is not None else rc.seed
    return execute_run(rc, Path(out), seed, force=args.force, resume=args.resume)[0]


# ---------------------------------------------------------------- norms

def _load_saved(path):
    """A saved trajectory with the differential order and bc it was computed for."""
    traj, meta = ckpt.load_trajectory(path)
    order, bc = meta.get("order", ORDER_SECOND), meta.get("bc", "neumann")
    # only a string names one; a JSON list or object is not even hashable
    if not (isinstance(order, str) and order in ORDER_INT
            and isinstance(bc, str) and bc in {b.value for b in BoundaryCondition}):
        raise ckpt.CheckpointError(f"checkpoint {path}: unknown order or bc {order!r}, {bc!r}")
    return traj, ORDER_INT[order], BoundaryCondition(bc)


def cmd_norms(args) -> int:
    traj, order, _bc = _load_saved(args.checkpoint)
    mu = args.mu if args.mu is not None else traj.mu
    p = args.p if args.p is not None else traj.p
    q = args.q
    T = traj.horizon
    delta = args.delta if args.delta is not None else T / 2.0
    _require(0.0 < mu <= 1.0, f"--mu must lie in (0, 1], got {mu!r}")
    _require(1.0 < p < math.inf, f"--p must lie in (1, inf), got {p!r}")
    _require(1.0 <= q < math.inf, f"--q must lie in [1, inf), got {q!r}")
    _require(1 <= args.intervals <= cfgmod.MAX_NORM_INTERVALS,
             f"--intervals must lie in [1, {cfgmod.MAX_NORM_INTERVALS}], got {args.intervals}")
    _require(0.0 < delta <= T, f"--delta must lie in (0, {T!r}], the saved horizon; "
                               f"got {delta!r}")
    if (mu, p) != (traj.mu, traj.p):
        traj = dataclasses.replace(traj, mu=mu, p=p)
    # an overflow shows up as a non-finite norm, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _interval_norms(traj, args.intervals, q, order)
        rows += _interval_norms(traj, [(0.0, T)], q, order)
        smoothing = _smoothing(traj, delta, q, order)
    _require(_is_finite([rows, smoothing]), f"--q {q!r} with --p {p!r} and --mu {mu!r} gives "
                                            "a norm beyond floating point")
    _write_csv(args.csv, ["t_lo", "t_hi", "E0mu", "E1mu"], rows)
    report = {
        "mu": traj.mu, "p": traj.p, "q": q, "horizon": T,
        "E1mu_total": rows[-1][3], "smoothing": smoothing,
    }
    _emit_json(report, args.json)
    return EXIT_OK


# ---------------------------------------------------------------- omega

def cmd_omega(args) -> int:
    traj, order, _bc = _load_saved(args.checkpoint)
    T = traj.horizon
    # omega's distance matrix is dense
    _require(2 <= args.count <= DESK_EIG_CAP,
             f"--count must lie in [2, {DESK_EIG_CAP}], got {args.count}")
    _require(0.0 < args.fraction <= 1.0, f"--fraction must lie in (0, 1], got {args.fraction!r}")
    _require(0.0 < args.threshold < math.inf,
             f"--threshold must lie in (0, inf), got {args.threshold!r}")
    _require(args.theta is None or 0.0 <= args.theta <= 1.0,
             f"--theta must lie in [0, 1], got {args.theta!r}")
    if args.times:
        try:
            sample_times = [float(s) for s in args.times.split(",")]
        except ValueError:
            raise cfgmod.ConfigError(f"--times must be comma separated numbers, "
                                     f"got {args.times!r}") from None
        _require(2 <= len(sample_times) <= DESK_EIG_CAP,
                 f"--times needs 2 to {DESK_EIG_CAP} sample times, got {len(sample_times)}")
        for t in sample_times:
            _require(0.0 <= t <= T, f"--times {t!r} lies outside the saved range [0, {T!r}]")
    else:
        sample_times = np.linspace(T * (1.0 - args.fraction), T, args.count)
    rep = _omega(traj, order, sample_times, args.threshold, args.theta)
    out = rep.summary()
    out["sample_times"] = [float(t) for t in sample_times]
    _emit_json(out, args.json)
    return EXIT_OK if rep.converged else EXIT_NONCONVERGENCE


# ---------------------------------------------------------------- sweep

def _set_by_path(doc: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc.setdefault(key, {})
        if not isinstance(doc, dict):
            raise cfgmod.ConfigError(f"{dotted} runs through {key}, which is not an object")
    doc[last] = value


# the columns a sweep reports for each cell, in the order of its CSV
_SWEEP_METRICS = ("final_l2_norm", "final_sup_norm", "mass_drift", "max_contraction",
                  "min_symbol_ratio", "n_windows", "t_reached")


def _sweep_metrics(summary: dict | None, srep: dict | None) -> dict:
    """A cell's metrics from the summary and symbol report its run returned;
    all None for a cell that raised."""
    out = dict.fromkeys(_SWEEP_METRICS)
    if summary is None:
        return out
    out.update((key, summary.get(key)) for key in
               ("t_reached", "n_windows", "final_sup_norm", "final_l2_norm", "mass_drift"))
    factors = [f for wsum in summary.get("windows") or [] if wsum
               for f in wsum["contraction_factors"]]
    out["max_contraction"] = max(factors, default=None)
    if srep is not None:
        out["min_symbol_ratio"] = (srep["ellipticity"]["min_ratio"] if "ellipticity" in srep
                                   else srep["spectrum"]["min_real_part"])
    return out


def cmd_sweep(args) -> int:
    template = cfgmod.load_run_config(args.config)
    axes = cfgmod.load_json(args.axes)
    if not isinstance(axes, dict) or not axes:
        raise cfgmod.ConfigError("axes file must be a nonempty JSON object of path -> list")
    for key, vals in axes.items():
        if not isinstance(vals, list) or not vals:
            raise cfgmod.ConfigError(f"axis {key!r} must map to a nonempty list")
    out_root = Path(args.out or ("sweep" if template.output_dir is None
                                 else template.output_dir))
    out_root.mkdir(parents=True, exist_ok=True)
    keys = sorted(axes.keys())
    cells = list(itertools.product(*[axes[k] for k in keys]))
    rows = []
    cell_reports = []
    for idx, values in enumerate(cells):
        cell_dir = out_root / f"cell_{idx:04d}"
        summary = srep = None
        try:
            doc = deepcopy(template.doc)
            for k, v in zip([*keys, "output.dir"], [*values, str(cell_dir)]):
                _set_by_path(doc, k, v)
            rc = cfgmod.validate_run_config(doc)
            seed = args.seed if args.seed is not None else rc.seed
            code, summary, srep = execute_run(rc, cell_dir, seed, force=args.force)
        except _FAILURES as exc:
            print(f"cell {idx}: {exc}", file=sys.stderr)
            code = _exit_code(exc)
        metrics = _sweep_metrics(summary, srep)
        rows.append([idx, *values, code, *[metrics[k] for k in _SWEEP_METRICS]])
        cell_reports.append({"cell": idx, "overrides": dict(zip(keys, values)),
                             "exit_code": code, **metrics})
    header = ["cell", *keys, "exit_code", *_SWEEP_METRICS]
    _write_csv(out_root / "summary.csv", header, rows)
    sweep_summary = {"axes": {k: axes[k] for k in keys}, "cells": cell_reports,
                     "n_cells": len(cells)}
    orders = _refinement_orders(axes, keys, cell_reports)
    if orders:
        sweep_summary["observed_orders"] = orders
    _emit_json(sweep_summary, out_root / "sweep_summary.json")
    return EXIT_OK


def _refinement_orders(axes: dict, keys: list, cell_reports: list) -> dict:
    """Observed convergence orders along a pure grid.nodes refinement axis,
    over the cells that exited 0, one per node count.  The axis holds the raw
    values of the axes file, so a cell that did not run may hold any JSON
    value there."""
    if "grid.nodes" not in axes or len(axes["grid.nodes"]) < 2:
        return {}
    if any(len(axes[k]) > 1 for k in keys if k != "grid.nodes"):
        return {}
    by_nodes: dict = {}
    for c in cell_reports:
        n = c["overrides"]["grid.nodes"]
        if c["exit_code"] == EXIT_OK and type(n) is int:
            by_nodes.setdefault(n, c)
    nodes = sorted(by_nodes)
    cells = [by_nodes[n] for n in nodes]
    drifts = [c["mass_drift"] for c in cells]
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
    p.add_argument("--b-range", type=_b_range, default=SYMBOL_B_RANGE,
                   help="LO:HI:COUNT geometric grid for the tangential parameter")
    p.add_argument("--lambda-points", type=int, default=SYMBOL_LAMBDA_POINTS)
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
    p.add_argument("--count", type=int, default=cfgmod.OMEGA_COUNT)
    p.add_argument("--fraction", type=float, default=cfgmod.OMEGA_FRACTION)
    p.add_argument("--threshold", type=float, default=cfgmod.OMEGA_THRESHOLD)
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
    except _FAILURES as exc:
        if isinstance(exc, NonconvergenceError):
            print(f"solver did not converge: {exc}", file=sys.stderr)
            for r in exc.residuals:
                print(f"residual: {r!r}", file=sys.stderr)
        else:
            print(f"{'i/o error' if isinstance(exc, OSError) else 'error'}: {exc}",
                  file=sys.stderr)
        return _exit_code(exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
