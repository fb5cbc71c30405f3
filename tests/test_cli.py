"""End-to-end command tests driven through main(argv).

Exit code contract: 0 success, 2 admissibility failure, 3 nonconvergence or
blow-up, 4 configuration or I/O problems.  Determinism contract: identical
config and seed give byte-identical artifacts, and an interrupted run resumed
from its window checkpoints reproduces the uninterrupted bytes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest
from conftest import count_eigh
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parabolab
from parabolab import cli, evolution, norms, problems
from parabolab.checkpoint import load_trajectory, save_trajectory
from parabolab.cli import main
from parabolab.config import Diagnostics
from parabolab.evolution import NonconvergenceError, StateConstraintError
from parabolab.grids import Grid
from parabolab.norms import E0mu_norm, WeightedTrajectory
from parabolab.operators import SolverError


def write_cfg(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def heat_cfg(**over):
    cfg = {
        "problem": {"family": "heat"},
        "grid": {"dim": 1, "nodes": 24},
        "exponents": {"p": 2, "q": 2, "mu": "9/10"},
        "solver": {"window": 0.02, "time_steps": 8, "horizon": 0.04, "tol": 1e-10},
        "initial": {"kind": "cosine", "amplitude": 0.5, "offset": 1.0},
        "diagnostics": {"norm_intervals": 2},
        "seed": 0,
    }
    cfg.update(over)
    return cfg


# a two-component reaction-diffusion system with a = I
_COUPLED_RD = {"family": "reaction_diffusion", "ncomp": 2, "a": [[1.0, 0.0], [0.0, 1.0]],
               "u_box": [[-2.0, 2.0], [-2.0, 2.0]]}
# a scalar reaction-diffusion problem whose a(u) = -1 is not positive
_NEGATIVE_RD = {"family": "reaction_diffusion", "a": [[-1.0]], "u_box": [[-2.0, 2.0]]}
# an initial field of 3 values, for a grid of more nodes
_SHORT_VALUES = {"kind": "values", "values": [1, 2, 3]}
# initial fields that vanish on the boundary, and one that does not
_SINE_SQUARED = {"kind": "sine_squared", "amplitude": 0.001}
_COSINE = {"kind": "cosine", "amplitude": 0.001}
# f(1e40) = 1e360 overflows, so every window attempt fails and the first
# window collapses before any checkpoint exists
_NON_FINITE_RHS = {
    "problem": {"family": "reaction_diffusion", "ncomp": 1,
                "a": [[[1]]], "f": [[0] * 9 + [1]],
                "u_box": [[-1e300, 1e300]]},
    "grid": {"dim": 1, "nodes": 9},
    "exponents": {"p": 2, "q": 2, "mu": "9/10"},
    "solver": {"window": 0.01, "time_steps": 4, "horizon": 0.02, "max_iter": 5},
    "initial": {"kind": "constant", "value": 1e40},
    "seed": 0,
}


@pytest.fixture(scope="module")
def long_heat_run(tmp_path_factory):
    """One long spectral heat solve shared by norms/omega/symbol tests."""
    root = tmp_path_factory.mktemp("longheat")
    cfg = heat_cfg(
        grid={"dim": 1, "nodes": 48},
        solver={"window": 0.25, "time_steps": 25, "horizon": 1.0,
                "tol": 1e-10, "propagator": "spectral"},
    )
    cfg_path = write_cfg(root / "cfg.json", cfg)
    out = root / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def two_component_checkpoint(tmp_path_factory):
    """A saved two-component reaction-diffusion trajectory, which no flow can
    be scanned at."""
    path = tmp_path_factory.mktemp("coupled") / "trajectory.npz"
    states = np.ones((2,) + Grid(1, 9).shape + (2,))
    save_trajectory(path, WeightedTrajectory(np.array([0.0, 1.0]), states, states, 0.9, 2.0),
                    {"order": "second", "bc": "neumann"})
    return path


@pytest.fixture(scope="module")
def willmore_checkpoint(tmp_path_factory):
    """A saved clamped fourth-order 1D height field, as a willmore config's
    symbol scan can use, on fewer nodes than the config's grid."""
    path = tmp_path_factory.mktemp("willmore") / "trajectory.npz"
    x = Grid(1, 17).axis_coords()
    states = np.stack([0.001 * np.sin(np.pi * x) ** 2] * 2)[..., None]
    save_trajectory(path, WeightedTrajectory(np.array([0.0, 1.0]), states, 0.0 * states,
                                             0.95, 2.0), {"order": "fourth", "bc": "clamped"})
    return path


# ---------------------------------------------------------------- check

def test_check_admissible_flat(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "flat.json", {"p": 2, "q": 2, "n": 1, "mu": "9/10"})
    assert main(["check", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["admissible"] is True
    assert report["dimensional"]["mu0_exact"] == "3/4"


def test_check_inadmissible_quotes_inequality(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "flat.json", {"p": 2, "q": 2, "n": 1, "mu": "7/10"})
    assert main(["check", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "mu > mu_0 = 1/p + n/2q" in captured.err
    report = json.loads(captured.out)
    assert report["admissible"] is False
    assert any("mu > mu_0" in v for v in report["violated"])


def test_check_run_config_and_json_file(tmp_path):
    cfg = write_cfg(tmp_path / "run.json", heat_cfg())
    dest = tmp_path / "report.json"
    assert main(["check", "--config", cfg, "--json", str(dest)]) == 0
    assert json.loads(dest.read_text())["admissible"] is True


def test_check_fourth_order_window(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "flat4.json",
                    {"p": 2, "q": 2, "n": 1, "mu": "19/20", "order": "fourth"})
    assert main(["check", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["beta_window"]["lo_exact"] == "19/24"
    # upper end carries the default 1/1000 safety margin: 13/15 - 1/1000
    assert report["beta_window"]["hi_exact"] == "2597/3000"


@pytest.mark.parametrize("layout", ["flat", "run"])
@pytest.mark.parametrize("epsilon,hi,empty", [("1/20", "49/60", False), ("1/5", "2/3", True)])
def test_check_reports_the_window_at_the_configured_epsilon(tmp_path, capsys, layout, epsilon,
                                                            hi, empty):
    # the upper end is 13/15 - epsilon; at 1/5 it falls below the lower end
    # 19/24, and the structure exponents cannot be formed
    exponents = {"p": 2, "q": 2, "mu": "19/20", "epsilon": epsilon}
    doc = dict(exponents, n=1, order="fourth")
    if layout == "run":
        doc = json.loads((Path(__file__).resolve().parent.parent / "configs"
                          / "willmore.json").read_text())
        doc["exponents"] = exponents
    assert main(["check", "--config", write_cfg(tmp_path / "cfg.json", doc)]) == 2
    window = json.loads(capsys.readouterr().out)["beta_window"]
    assert (window["lo_exact"], window["hi_exact"], window["empty"]) == ("19/24", hi, empty)


@pytest.mark.parametrize("command,layout", [("check", "flat"), ("check", "run"), ("run", "run")])
@pytest.mark.parametrize("epsilon", ["-1/10", -0.5])
def test_a_negative_epsilon_exits_4_before_writing(tmp_path, capsys, command, layout, epsilon):
    # the parse rejects it where it resolves epsilon, as it rejects p = 1:
    # no report or window is computed at a slack no structure pair admits
    exponents = {"p": 2, "q": 2, "mu": "19/20", "epsilon": epsilon}
    doc = dict(exponents, n=1, order="fourth")
    out = tmp_path / "out"
    if layout == "run":
        doc = json.loads((Path(__file__).resolve().parent.parent / "configs"
                          / "willmore.json").read_text())
        doc["exponents"] = exponents
        doc["output"] = {"dir": str(out)}
    assert main([command, "--config", write_cfg(tmp_path / "cfg.json", doc)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exponents.epsilon must be >= 0, got {epsilon!r}" in captured.err
    assert not out.exists()


def test_a_zero_epsilon_is_admissible(tmp_path, capsys):
    doc = {"p": 2, "q": 2, "n": 1, "mu": "19/20", "order": "fourth", "epsilon": 0}
    assert main(["check", "--config", write_cfg(tmp_path / "cfg.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out)["beta_window"]["hi_exact"] == "13/15"


# ---------------------------------------------------------------- run

def test_run_writes_artifacts(tmp_path, long_heat_run):
    out = long_heat_run
    for name in ("admissibility.json", "summary.json", "trajectory.npz",
                 "timeseries.csv", "diagnostics.json", "window_0000.npz",
                 "window_0003.npz"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["exit_code"] == 0
    assert summary["n_windows"] == 4
    assert summary["t_reached"] == pytest.approx(1.0)
    assert summary["admissible"] is True
    assert summary["mass_drift"] < 1e-11
    with open(out / "timeseries.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "sup_norm", "l2_norm", "x1_norm", "mass",
                       "dirichlet_energy"]
    assert len(rows) == 1 + 4 * 25 + 1
    # mass column is the conserved trapezoid integral, 1.0 for this start
    masses = [float(r[4]) for r in rows[1:]]
    assert np.allclose(masses, 1.0, atol=1e-13)
    diags = json.loads((out / "diagnostics.json").read_text())
    assert len(diags["norm_intervals"]) == 2
    assert diags["E1mu_total"] > 0.0
    assert diags["smoothing"]["inequality_holds"] is True


def test_run_byte_identical_rerun(tmp_path):
    cfg_path = write_cfg(tmp_path / "cfg.json", heat_cfg())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg_path, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(b)]) == 0
    for name in ("trajectory.npz", "timeseries.csv", "summary.json",
                 "window_0000.npz", "window_0001.npz"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # overwriting in place clears stale windows and reproduces the bytes
    assert main(["run", "--config", cfg_path, "--out", str(a)]) == 0
    assert len(list(a.glob("window_*.npz"))) == 2
    assert (a / "trajectory.npz").read_bytes() == (b / "trajectory.npz").read_bytes()


def test_run_resume_reproduces_uninterrupted_bytes(tmp_path):
    full = write_cfg(tmp_path / "full.json", heat_cfg())
    half_cfg = heat_cfg()
    half_cfg["solver"]["horizon"] = 0.02
    half = write_cfg(tmp_path / "half.json", half_cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", full, "--out", str(a)]) == 0
    assert main(["run", "--config", half, "--out", str(b)]) == 0
    assert len(list(b.glob("window_*.npz"))) == 1
    assert main(["run", "--config", full, "--out", str(b), "--resume"]) == 0
    for name in ("trajectory.npz", "timeseries.csv", "window_0001.npz", "summary.json",
                 "diagnostics.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # the resumed summary lists the window run before the interruption too
    assert len(json.loads((b / "summary.json").read_text())["windows"]) == 2


def test_run_resumed_over_several_windows_reproduces_uninterrupted_bytes(tmp_path):
    # the resumed windows reach five times the resume time, so their absolute
    # times are not exact differences from it
    long_cfg = heat_cfg()
    long_cfg["solver"]["horizon"] = 0.1
    full = write_cfg(tmp_path / "full.json", long_cfg)
    half_cfg = heat_cfg()
    half_cfg["solver"]["horizon"] = 0.02
    half = write_cfg(tmp_path / "half.json", half_cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", full, "--out", str(a)]) == 0
    assert main(["run", "--config", half, "--out", str(b)]) == 0
    assert main(["run", "--config", full, "--out", str(b), "--resume"]) == 0
    assert sorted(f.name for f in a.iterdir()) == sorted(f.name for f in b.iterdir())
    for f in a.iterdir():
        assert f.read_bytes() == (b / f.name).read_bytes(), f.name


def test_run_reads_back_only_the_windows_of_earlier_invocations(tmp_path, monkeypatch):
    loads = []
    load = cli.ckpt.load_trajectory

    def counted(path):
        loads.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(cli.ckpt, "load_trajectory", counted)
    half_cfg = heat_cfg()
    half_cfg["solver"]["horizon"] = 0.02
    half = write_cfg(tmp_path / "half.json", half_cfg)
    full = write_cfg(tmp_path / "full.json", heat_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", full, "--out", str(out)]) == 0
    assert len(list(out.glob("window_*.npz"))) == 2
    assert loads == []                      # a fresh run glues its windows in memory
    assert main(["run", "--config", half, "--out", str(out)]) == 0
    assert main(["run", "--config", full, "--out", str(out), "--resume"]) == 0
    assert loads == ["window_0000.npz"]


def _run_files(out: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@settings(max_examples=40, deadline=None)
@given(boundary=st.integers(2, 6).flatmap(lambda w: st.tuples(st.just(w), st.integers(1, w))),
       window=st.sampled_from([0.005, 0.01, 0.02]),
       propagator=st.sampled_from(["euler", "spectral"]))
# 0.03 - 0.02 falls one ulp short of the window
@example(boundary=(4, 3), window=0.01, propagator="euler")
# a resume of a finished run runs no window and rewrites the same bytes
@example(boundary=(3, 3), window=0.01, propagator="euler")
def test_resume_at_any_window_boundary_reproduces_the_uninterrupted_bytes(
        boundary, window, propagator):
    n_windows, k = boundary
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def run(horizon, out, *flags):
            cfg = heat_cfg()
            cfg["solver"].update(window=window, horizon=horizon, propagator=propagator)
            path = write_cfg(root / f"{horizon!r}.json", cfg)
            assert main(["run", "--config", path, "--out", str(root / out), *flags]) == 0

        # the horizons as a config would spell them
        full, stop = (float(f"{n * window:.12g}") for n in (n_windows, k))
        run(full, "full")
        run(stop, "resumed")
        run(full, "resumed", "--resume")
        assert _run_files(root / "full") == _run_files(root / "resumed")


def test_resume_with_a_shorter_horizon_keeps_the_run_so_far(tmp_path):
    def cfg(horizon):
        c = heat_cfg()
        c["solver"]["horizon"] = horizon
        return write_cfg(tmp_path / f"{horizon!r}.json", c)

    full, short = cfg(0.06), cfg(0.02)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", full, "--out", str(a)]) == 0
    assert main(["run", "--config", full, "--out", str(b)]) == 0
    assert main(["run", "--config", short, "--out", str(b), "--resume"]) == 0
    summary = json.loads((b / "summary.json").read_text())
    assert summary["t_reached"] == json.loads((a / "summary.json").read_text())["t_reached"]
    assert summary["t_reached"] == pytest.approx(0.06)
    assert summary["n_windows"] == 3
    for name in ("trajectory.npz", "timeseries.csv", "window_0002.npz"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("solver,n_windows", [
    ({"horizon": 1e-13}, 1),
    ({"window": 1e-12, "horizon": 1.5e-12}, 2),
    ({"window": 4e-13, "horizon": 1e-12}, 3),
], ids=["one", "two", "three"])
def test_a_horizon_below_one_is_solved_to_its_end(tmp_path, solver, n_windows):
    cfg = tiny_cfg()
    cfg["solver"].update(solver)
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path / "cfg.json", cfg),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["n_windows"] == n_windows
    assert summary["t_reached"] == solver["horizon"]


# a run that writes every kind of file, into the directory a rerun reuses
def _earlier_run_cfg():
    cfg = heat_cfg(diagnostics={"norm_intervals": 2, "symbol_scan": True})
    cfg["solver"]["horizon"] = 0.06
    return cfg


@pytest.mark.parametrize("cfg", [
    heat_cfg(), heat_cfg(exponents={"p": 2, "q": 2, "mu": "7/10"}), _NON_FINITE_RHS,
], ids=["ok", "inadmissible", "collapse"])
def test_a_rerun_leaves_only_the_files_of_its_own_run(tmp_path, capsys, cfg):
    used, empty = tmp_path / "used", tmp_path / "empty"
    earlier = write_cfg(tmp_path / "earlier.json", _earlier_run_cfg())
    assert main(["run", "--config", earlier, "--out", str(used)]) == 0
    assert {"symbol.json", "window_0002.npz"} <= set(_run_files(used))
    cfg_path = write_cfg(tmp_path / "cfg.json", cfg)
    with np.errstate(over="ignore"):
        code = main(["run", "--config", cfg_path, "--out", str(empty)])
        assert main(["run", "--config", cfg_path, "--out", str(used)]) == code
    assert _run_files(used) == _run_files(empty)


@pytest.mark.parametrize("edit", [
    {"grid": {"dim": 1, "nodes": 32}},
    {"exponents": {"p": 2, "q": 2, "mu": "4/5"}},
], ids=["nodes", "mu"])
def test_run_resume_refuses_edited_config(tmp_path, capsys, edit):
    half_cfg = heat_cfg()
    half_cfg["solver"]["horizon"] = 0.02
    half = write_cfg(tmp_path / "half.json", half_cfg)
    edited = write_cfg(tmp_path / "edited.json", heat_cfg(**edit))
    out = tmp_path / "out"
    assert main(["run", "--config", half, "--out", str(out)]) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert main(["run", "--config", edited, "--out", str(out), "--resume"]) == 4
    assert "another config" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    # the fingerprint lives in the window meta only
    _, window_meta = load_trajectory(out / "window_0000.npz")
    _, traj_meta = load_trajectory(out / "trajectory.npz")
    assert len(window_meta["config_sha256"]) == 64
    assert "config_sha256" not in traj_meta


def test_module_entry_point_runs(tmp_path):
    cfg_path = write_cfg(tmp_path / "cfg.json", heat_cfg())
    out = tmp_path / "out"
    env = dict(os.environ)
    src = str(Path(parabolab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "parabolab.cli", "run", "--config", cfg_path, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "summary.json").read_text())["status"] == "ok"


def test_a_run_leaves_scipy_linalg_and_sparse_unimported(tmp_path):
    # the banded LAPACK routines load without the scipy.linalg package, whose
    # import (with scipy.sparse and the array-API layer) costs more start-up
    # time than a bundled 1D run takes
    env = dict(os.environ)
    src = str(Path(parabolab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    configs = Path(__file__).resolve().parent.parent / "configs"
    code = "\n".join([
        "import sys, parabolab.cli",
        "unwanted = ('scipy.sparse', 'scipy.linalg', 'scipy._lib._array_api')",
        "print(sorted(m for m in unwanted if m in sys.modules))",
        # heat.json takes the spectral propagator, reaction_diffusion.json implicit Euler
        "for name in ('heat.json', 'reaction_diffusion.json'):",
        f"    out = {str(tmp_path)!r} + '/' + name",
        f"    assert parabolab.cli.main(['run', '--config', {str(configs)!r} + '/' + name,"
        f" '--out', out]) == 0",
        "print(sorted(m for m in unwanted if m in sys.modules))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


def test_run_inadmissible_gate_and_force(tmp_path, capsys):
    cfg = heat_cfg(exponents={"p": 2, "q": 2, "mu": "7/10"})
    cfg_path = write_cfg(tmp_path / "bad.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert "mu > mu_0" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "inadmissible"
    assert not (out / "trajectory.npz").exists()
    # --force runs anyway (mu = 7/10 still defines a weighted norm)
    assert main(["run", "--config", cfg_path, "--out", str(out), "--force"]) == 0
    assert (out / "trajectory.npz").exists()
    assert json.loads((out / "summary.json").read_text())["admissible"] is False


def test_run_blow_up_exits_3_with_ledger(tmp_path, capsys):
    cfg = {
        "problem": {"family": "reaction_diffusion", "ncomp": 1,
                    "a": [[1.0]], "f": [[0.0, 0.0, 1.0]],
                    "u_box": [[-1e6, 1e6]]},
        "grid": {"dim": 1, "nodes": 17},
        "exponents": {"p": 2, "q": 2, "mu": "9/10"},
        "solver": {"window": 0.02, "time_steps": 10, "horizon": 1.0,
                   "max_iter": 40, "tol": 1e-8, "blowup_threshold": 100.0},
        "initial": {"kind": "constant", "value": 2.0},
        # within the horizon, but beyond the time the run reaches
        "diagnostics": {"smoothing_delta": 0.9, "norm_intervals": [[0.0, 0.2], [0.0, 0.9]]},
        "seed": 0,
    }
    cfg_path = write_cfg(tmp_path / "blow.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "run ended early" in err
    assert "window ledger" in err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "blow_up"
    assert "threshold" in summary["reason"]
    # (1/c)(1 - c/M) = 0.49 for c = 2, M = 100
    assert summary["t_reached"] == pytest.approx(0.49, abs=0.03)
    diags = json.loads((out / "diagnostics.json").read_text())
    assert "smoothing" not in diags
    reached, beyond = diags["norm_intervals"]
    assert reached["E0mu"] > 0.0 and reached["E1mu"] > 0.0
    assert beyond == {"t_lo": 0.0, "t_hi": 0.9, "E0mu": None, "E1mu": None}


def test_run_non_finite_rhs_exits_3(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path / "nonfinite.json", _NON_FINITE_RHS)
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 3
    assert "non-finite right-hand side" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "blow_up"
    assert summary["n_windows"] == 0
    assert summary["t_reached"] == 0.0
    assert not (out / "trajectory.npz").exists()


def test_run_without_output_dir_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "noout.json", heat_cfg())
    assert main(["run", "--config", cfg]) == 4
    assert "output" in capsys.readouterr().err


# ---------------------------------------------------------------- norms/omega

def test_norms_command(tmp_path, long_heat_run):
    snap = str(long_heat_run / "trajectory.npz")
    csv_path = tmp_path / "norms.csv"
    json_path = tmp_path / "norms.json"
    assert main(["norms", "--checkpoint", snap, "--csv", str(csv_path),
                 "--json", str(json_path)]) == 0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_lo", "t_hi", "E0mu", "E1mu"]
    assert len(rows) == 1 + 4 + 1          # intervals plus the total row
    assert float(rows[-1][0]) == 0.0 and float(rows[-1][1]) == pytest.approx(1.0)
    traj, _ = load_trajectory(snap)
    assert float(rows[-1][2]) == pytest.approx(E0mu_norm(traj, None, 2.0), rel=1e-12)
    report = json.loads(json_path.read_text())
    assert report["E1mu_total"] == pytest.approx(float(rows[-1][3]), rel=1e-12)
    assert report["smoothing"]["inequality_holds"] is True


def test_norms_reweighting_flag(tmp_path, long_heat_run, capsys):
    snap = str(long_heat_run / "trajectory.npz")
    assert main(["norms", "--checkpoint", snap, "--mu", "1.0",
                 "--json", str(tmp_path / "r.json")]) == 0
    out = capsys.readouterr().out          # csv went to stdout
    rows = list(csv.reader(out.splitlines()))
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["mu"] == 1.0
    # dropping the weight can only increase the norm
    traj, _ = load_trajectory(snap)
    assert float(rows[-1][2]) >= E0mu_norm(traj, None, 2.0) - 1e-12


def test_omega_converged_and_early(tmp_path, long_heat_run, capsys):
    snap = str(long_heat_run / "trajectory.npz")
    dest = tmp_path / "omega.json"
    assert main(["omega", "--checkpoint", snap, "--count", "6",
                 "--fraction", "0.08", "--json", str(dest)]) == 0
    rep = json.loads(dest.read_text())
    assert rep["converged"] is True and rep["n_clusters"] == 1
    assert len(rep["sample_times"]) == 6
    # early samples have not settled: exit 3
    assert main(["omega", "--checkpoint", snap, "--times", "0.05,0.1,0.15,0.2",
                 "--json", str(tmp_path / "early.json")]) == 3
    assert json.loads((tmp_path / "early.json").read_text())["converged"] is False


# ---------------------------------------------------------------- symbol

def test_symbol_second_order_spectrum(tmp_path, capsys):
    cfg = heat_cfg(problem={"family": "reaction_diffusion", "ncomp": 1,
                            "a": [[[1.0, 0.0, 1.0]]], "u_box": [[-2.0, 2.0]]})
    cfg_path = write_cfg(tmp_path / "rd.json", cfg)
    assert main(["symbol", "--config", cfg_path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is True
    assert rep["spectrum"]["min_real_part"] == pytest.approx(1.0)


def test_symbol_fourth_order_scan(tmp_path, long_heat_run, willmore_checkpoint, capsys):
    cfg = heat_cfg(problem={"family": "willmore"},
                   exponents={"p": 2, "q": 2, "mu": "19/20"},
                   initial={"kind": "sine_squared", "amplitude": 0.001})
    cfg_path = write_cfg(tmp_path / "will.json", cfg)
    assert main(["symbol", "--config", cfg_path, "--b-range", "0.001:1000:5",
                 "--lambda-points", "6"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is True
    assert rep["ellipticity"]["min_ratio"] > 0.99   # nearly flat graph
    assert rep["lopatinskii_shapiro"]["min_normalized"] > 0.0
    assert rep["lopatinskii_shapiro"]["max_residual"] < 1e-9
    # a saved trajectory of a clamped fourth-order problem can supply the
    # gradient samples
    assert main(["symbol", "--config", cfg_path, "--field", str(willmore_checkpoint),
                 "--b-range", "0.001:1000:5", "--lambda-points", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    # the 1D Neumann heat trajectory was computed for another problem
    assert main(["symbol", "--config", cfg_path, "--field",
                 str(long_heat_run / "trajectory.npz"),
                 "--b-range", "0.001:1000:5", "--lambda-points", "6"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: --field ") and "order 2, neumann" in err, err


def test_symbol_checks_positivity_once(capsys, monkeypatch):
    # every positivity check samples the state box once, whichever module
    # binds spectrum_positivity_check
    calls = []
    box_samples = problems._box_samples

    def counted(*args, **kwargs):
        calls.append(args)
        return box_samples(*args, **kwargs)

    monkeypatch.setattr(problems, "_box_samples", counted)
    config = Path(__file__).resolve().parent.parent / "configs" / "reaction_diffusion.json"
    assert main(["symbol", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["spectrum"]["ok"] is True
    assert len(calls) == 1


def test_symbol_field_of_several_components_exits_4(tmp_path, two_component_checkpoint,
                                                     capsys):
    config = Path(__file__).resolve().parent.parent / "configs" / "willmore.json"
    json_path = tmp_path / "s.json"
    assert main(["symbol", "--config", str(config), "--field", str(two_component_checkpoint),
                 "--json", str(json_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: a flow is scanned at a scalar height field, got one of 2 "
                          "components") and "Traceback" not in err, err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- sweep

def test_sweep_over_mu_continues_past_failures(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path / "tmpl.json", heat_cfg())
    axes_path = write_cfg(tmp_path / "axes.json",
                          {"exponents.mu": ["7/10", "4/5", "9/10"]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--axes", str(axes_path),
                 "--out", str(out)]) == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["cell", "exponents.mu", "exit_code"]
    codes = [int(r[2]) for r in rows[1:]]
    assert codes == [2, 0, 0]              # inadmissible cell does not stop the sweep
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["n_cells"] == 3
    assert summary["cells"][0]["exit_code"] == 2
    assert summary["cells"][1]["t_reached"] == pytest.approx(0.04)
    assert (out / "cell_0000" / "admissibility.json").exists()
    assert not (out / "cell_0000" / "trajectory.npz").exists()
    assert (out / "cell_0002" / "trajectory.npz").exists()


@pytest.mark.parametrize("template,axes", [
    (heat_cfg(problem=_COUPLED_RD), {"solver.propagator": ["euler", "spectral"]}),
    (heat_cfg(), {"exponents.p": [2, "1/0"]}),
    (heat_cfg(), {"initial": [heat_cfg()["initial"], _SHORT_VALUES]}),
    (heat_cfg(problem=dict(_NEGATIVE_RD, a=[[1.0]])), {"problem.a": [[[1.0]], [[-1.0]]]}),
    (heat_cfg(problem={"family": "willmore"}), {"initial": [_SINE_SQUARED, _COSINE]}),
])
def test_sweep_records_a_cell_it_cannot_run_as_exit_4(tmp_path, capsys, template, axes):
    cfg_path = write_cfg(tmp_path / "tmpl.json", template)
    axes_path = write_cfg(tmp_path / "axes.json", axes)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--axes", axes_path, "--out", str(out)]) == 0
    assert "cell 1: " in capsys.readouterr().err
    with open(out / "summary.csv") as fh:
        assert [int(row[2]) for row in list(csv.reader(fh))[1:]] == [0, 4]
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [c["exit_code"] for c in summary["cells"]] == [0, 4]
    assert (out / "cell_0000" / "trajectory.npz").exists()
    assert not (out / "cell_0001").exists()


def test_sweep_into_a_used_directory_reports_no_metrics_for_a_failing_cell(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path / "tmpl.json", heat_cfg())
    out = tmp_path / "sweep"
    for mu, code in (("9/10", 0), ("1/0", 4)):
        axes_path = write_cfg(tmp_path / "axes.json", {"exponents.mu": [mu]})
        assert main(["sweep", "--config", cfg_path, "--axes", axes_path,
                     "--out", str(out)]) == 0
        cell = json.loads((out / "sweep_summary.json").read_text())["cells"][0]
        assert cell["exit_code"] == code
        assert (cell["t_reached"] is None) == (code != 0)
    assert [cell[key] for key in cli._SWEEP_METRICS] == [None] * len(cli._SWEEP_METRICS)
    with open(out / "summary.csv") as fh:
        assert list(csv.reader(fh))[1][3:] == [""] * len(cli._SWEEP_METRICS)


def test_sweep_records_an_io_error_of_a_cell_as_exit_4(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path / "tmpl.json", heat_cfg())
    axes_path = write_cfg(tmp_path / "axes.json", {"exponents.mu": ["9/10", "4/5"]})
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "cell_0000").write_text("a file where the cell's directory would go\n")
    assert main(["sweep", "--config", cfg_path, "--axes", axes_path, "--out", str(out)]) == 0
    assert "cell 0: " in capsys.readouterr().err
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [c["exit_code"] for c in summary["cells"]] == [4, 0]
    with open(out / "summary.csv") as fh:
        assert [int(row[2]) for row in list(csv.reader(fh))[1:]] == [4, 0]
    assert (out / "cell_0001" / "trajectory.npz").exists()


def test_sweep_grid_refinement_reports_orders(tmp_path):
    cfg = heat_cfg()
    cfg["solver"]["horizon"] = 0.02        # one window per cell
    cfg_path = write_cfg(tmp_path / "tmpl.json", cfg)
    axes_path = write_cfg(tmp_path / "axes.json", {"grid.nodes": [17, 33, 65]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--axes", str(axes_path),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    orders = summary.get("observed_orders", {})
    assert "final_sup_norm" in orders
    assert orders["final_sup_norm"][0] == pytest.approx(2.0, abs=0.5)


@pytest.mark.parametrize("nodes", [[17, 17], [17, "x"], [17, None]],
                         ids=["repeated", "string", "null"])
def test_sweep_refinement_without_two_node_counts_reports_no_orders(tmp_path, capsys, nodes):
    cfg = heat_cfg()
    cfg["solver"]["horizon"] = 0.02
    cfg_path = write_cfg(tmp_path / "tmpl.json", cfg)
    axes_path = write_cfg(tmp_path / "axes.json", {"grid.nodes": nodes})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--axes", str(axes_path),
                 "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [c["exit_code"] for c in summary["cells"]] == [0, 0 if nodes[1] == 17 else 4]
    assert "observed_orders" not in summary


def test_sweep_decomposes_each_distinct_operator_once(tmp_path, monkeypatch):
    """Both windows and the omega diagnostic of a heat cell decompose -Lap,
    and the cells of one node count share it: one call per node count."""
    calls = count_eigh(monkeypatch)
    axes_path = write_cfg(tmp_path / "axes.json",
                          {"grid.nodes": [17, 33], "exponents.mu": ["4/5", "9/10"]})
    config = Path(__file__).resolve().parent.parent / "configs" / "heat.json"
    assert main(["sweep", "--config", str(config), "--axes", axes_path,
                 "--out", str(tmp_path / "sweep")]) == 0
    assert sorted(calls) == [17, 33]


def test_run_decomposes_its_operator_once(tmp_path, monkeypatch):
    calls = count_eigh(monkeypatch)
    config = Path(__file__).resolve().parent.parent / "configs" / "heat.json"
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert calls == [64]


# ---------------------------------------------------------------- errors

def test_missing_or_bad_inputs_exit_4(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["check", "--config", str(bad)]) == 4
    assert main(["norms", "--checkpoint", str(tmp_path / "nope.npz")]) == 4
    schema_bad = write_cfg(tmp_path / "schema.json", heat_cfg(grid={"dim": 5, "nodes": 8}))
    assert main(["run", "--config", schema_bad, "--out", str(tmp_path / "o")]) == 4


def test_norms_delta_outside_the_horizon_exits_4(tmp_path, long_heat_run, capsys):
    snap = str(long_heat_run / "trajectory.npz")
    csv_path, json_path = tmp_path / "n.csv", tmp_path / "n.json"
    for delta in ("1.5", "0"):              # the saved horizon is 1.0
        assert main(["norms", "--checkpoint", snap, "--delta", delta, "--csv",
                     str(csv_path), "--json", str(json_path)]) == 4
        assert "error: --delta must lie in (0, 1.0]" in capsys.readouterr().err
    assert not csv_path.exists() and not json_path.exists()


def test_an_interval_past_a_short_horizon_has_no_norms():
    # the end of the run is taken within 1e-12 of its horizon, not within
    # an absolute 1e-12, which would cover four more horizons of this run
    grid = Grid(1, 9)
    ones = np.ones((5,) + grid.shape + (1,))
    traj = WeightedTrajectory(np.linspace(0.0, 1e-13, 5), ones, 0.0 * ones, 0.9, 2.0)
    past, whole = cli._interval_norms(traj, [(0.0, 5e-13), (0.0, 1e-13)], 2.0, 2)
    assert past == [0.0, 5e-13, None, None]
    assert whole[2] == E0mu_norm(traj, None, 2.0) and whole[3] is not None


@pytest.mark.parametrize("command,option,value", [
    ("norms", "--q", "0.5"),
    ("norms", "--mu", "1.5"),
    ("norms", "--p", "1"),
    ("norms", "--intervals", "-1"),
    ("norms", "--intervals", "10001"),
    ("norms", "--intervals", "1000000000"),
    ("norms", "--intervals", "0"),
    ("norms", "--q", "inf"),
    ("norms", "--q", "nan"),
    ("norms", "--p", "inf"),
    ("norms", "--mu", "nan"),
    ("norms", "--delta", "inf"),
    ("norms", "--q", "1e10"),             # finite, but the norms overflow
    ("omega", "--count", "1"),
    ("omega", "--fraction", "2"),
    ("omega", "--fraction", "nan"),
    ("omega", "--theta", "3"),
    ("omega", "--theta", "nan"),
    ("omega", "--threshold", "0"),
    ("omega", "--threshold", "inf"),
    ("omega", "--times", "0.5,nan"),
    ("omega", "--times", "0.5,2.0"),      # the saved horizon is 1.0
    ("omega", "--times", "0.5"),
    ("omega", "--times", "0.5,x"),
    ("omega", "--count", "4097"),
    ("omega", "--count", "100000"),
    pytest.param("omega", "--times", ",".join(["0.5"] * 4097), id="omega---times-4097-times"),
    ("symbol", "--b-range", "0:1:5"),
    ("symbol", "--b-range", "1:10:0"),
    ("symbol", "--b-range", "10:1:5"),
    ("symbol", "--b-range", "nan:1:5"),
    ("symbol", "--b-range", "1:inf:5"),
    ("symbol", "--b-range", "1e-3:1e300:5"),  # the boundary quartic overflows
    ("symbol", "--lambda-points", "0"),
    ("symbol", "--b-range", "1:10:1000000000"),  # beyond 10^6 scan points
])
def test_out_of_range_options_exit_4(tmp_path, long_heat_run, capsys, command, option,
                                     value):
    csv_path, json_path = tmp_path / "n.csv", tmp_path / "n.json"
    if command == "symbol":
        # a fourth-order config, whose scan uses both options
        source = ["--config", str(Path(__file__).resolve().parent.parent / "configs"
                                  / "willmore.json")]
    else:
        source = ["--checkpoint", str(long_heat_run / "trajectory.npz")]
    argv = [command, *source, option, value, "--json", str(json_path)]
    if command == "norms":
        argv += ["--csv", str(csv_path)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "norms --checkpoint CKPT --q abc --json OUT/n.json --csv OUT/n.csv",
    "norms --checkpoint CKPT --intervals 2.5 --json OUT/n.json --csv OUT/n.csv",
    "symbol --config CONFIGS/willmore.json --b-range 1:10:x --json OUT/s.json",
    "run --config CONFIGS/heat.json --seed x --out OUT/run",
    "omega --checkpoint CKPT --count x --json OUT/o.json",
    "run --out OUT/run",
])
def test_malformed_command_line_exits_4(tmp_path, long_heat_run, capsys, argv):
    # argparse's own exit code 2 is the admissibility code here
    configs = Path(__file__).resolve().parent.parent / "configs"
    argv = (argv.replace("CKPT", str(long_heat_run / "trajectory.npz"))
            .replace("CONFIGS", str(configs)).replace("OUT", str(tmp_path)).split())
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"usage: parabolab {argv[0]}")
    assert f"parabolab {argv[0]}: error: " in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc,code", [
    (OSError("no space left on device"), 4),
    (MemoryError("Unable to allocate 59.6 GiB"), 4),
    (NonconvergenceError("window collapsed", halvings=0, residuals=[0.5]), 3),
    (SolverError("zero pivot"), 3),
    (StateConstraintError("state outside the admissible region"), 3),
], ids=["OSError", "MemoryError", "NonconvergenceError", "SolverError",
        "StateConstraintError"])
def test_main_maps_each_failure_to_its_exit_code(monkeypatch, capsys, exc, code):
    def fail(_args):
        raise exc

    monkeypatch.setattr(cli, "cmd_check", fail)
    assert main(["check", "--config", "unread.json"]) == code
    err = capsys.readouterr().err
    assert str(exc) in err and "Traceback" not in err, err


def _out_of_memory(*_args):
    raise MemoryError("Unable to allocate 59.6 GiB for an array with shape (2001, 4000000)")


def _run_out_of_memory(tmp_path, capsys, nodes):
    """A run of tiny_cfg on ``nodes`` nodes, whose window set-up fails."""
    cfg = tiny_cfg()
    cfg["grid"]["nodes"] = nodes
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path / "cfg.json", cfg),
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 59.6 GiB"), err
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_run_out_of_memory_exits_4(tmp_path, capsys, monkeypatch):
    # 33 unknowns and 4 steps per window take banded steps
    monkeypatch.setattr(evolution, "step_factors", _out_of_memory)
    _run_out_of_memory(tmp_path, capsys, 33)


def test_run_out_of_memory_in_the_eigenbasis_exits_4(tmp_path, capsys, monkeypatch):
    # 12 unknowns and 4 steps per window march in the eigenbasis
    monkeypatch.setattr(evolution, "eigendecompose", _out_of_memory)
    _run_out_of_memory(tmp_path, capsys, 12)


def _sweep_out_of_memory(tmp_path, capsys, monkeypatch, setup, nodes):
    """A sweep of tiny_cfg over 33 and 12 nodes whose window set-up
    ``setup`` fails on ``nodes`` nodes."""
    original = getattr(evolution, setup)

    def fail_on(A0, *args):
        if A0.grid.n_nodes == nodes:
            _out_of_memory()
        return original(A0, *args)

    monkeypatch.setattr(evolution, setup, fail_on)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_cfg(tmp_path / "cfg.json", tiny_cfg()),
                 "--axes", write_cfg(tmp_path / "axes.json", {"grid.nodes": [33, 12]}),
                 "--out", str(out)]) == 0
    cells = json.loads((out / "sweep_summary.json").read_text())["cells"]
    failing = [33, 12].index(nodes)
    assert [c["exit_code"] for c in cells] == [4 if i == failing else 0 for i in range(2)]
    assert f"cell {failing}: Unable to allocate 59.6 GiB" in capsys.readouterr().err


def test_sweep_records_a_cell_out_of_memory_as_exit_4(tmp_path, capsys, monkeypatch):
    # the 33-node cell takes banded steps
    _sweep_out_of_memory(tmp_path, capsys, monkeypatch, "step_factors", 33)


def test_sweep_records_a_cell_out_of_memory_in_the_eigenbasis_as_exit_4(tmp_path, capsys,
                                                                       monkeypatch):
    # the 12-node cell marches in the eigenbasis
    _sweep_out_of_memory(tmp_path, capsys, monkeypatch, "eigendecompose", 12)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-h"])
    assert exc.value.code == 0
    assert "usage: parabolab run" in capsys.readouterr().out


def test_diagnostics_measure_each_trajectory_once(monkeypatch):
    grid = Grid(2, 9)
    times = np.linspace(0.0, 1.0, 9) ** 2
    x, y = np.meshgrid(*(grid.axis_coords(),) * 2, indexing="ij")
    shape = np.cos(np.pi * x) * np.cos(np.pi * y)
    states = np.exp(-times)[:, None, None, None] * shape[None, :, :, None]
    traj = WeightedTrajectory(times, states, -states, 0.9, 2.0)
    passes = []
    x1_norms = norms.x1_norms

    def counted(values, grid, q=2.0, order=2, **kwargs):
        passes.append((q, order))
        return x1_norms(values, grid, q, order, **kwargs)

    monkeypatch.setattr(norms, "x1_norms", counted)
    diag = Diagnostics(norm_intervals=4, smoothing_delta=0.8)
    report = cli._diagnostics_report(traj, diag, 4, 4.0)
    assert len(report["norm_intervals"]) == 4 and "smoothing" in report
    assert passes == [(4.0, 4)]
    # the time series at q = 2 makes its own pass, which diagnostics at q = 2 reuse
    cli._timeseries_rows(traj, 4)
    cli._diagnostics_report(traj, diag, 4, 2.0)
    assert passes[1:] == [(2.0, 4)]


def test_failed_csv_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "table.csv"
    cli._write_csv(path, ["a", "b"], [[1.0, 2.0]])
    before = path.read_bytes()
    assert before == b"a,b\n1.0,2.0\n"

    def rows():
        yield [3.0, 4.0]
        raise OSError("disk full")

    with pytest.raises(OSError):
        cli._write_csv(path, ["a", "b"], rows())
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["table.csv"]


def test_run_rejects_smoothing_delta_beyond_the_horizon(tmp_path, capsys):
    cfg = heat_cfg(diagnostics={"norm_intervals": 2, "smoothing_delta": 0.05})
    cfg_path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 4
    assert "error: diagnostics.smoothing_delta 0.05 exceeds the horizon 0.04" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit,message", [
    ({"diagnostics": {"norm_intervals": [[0.03, 0.01]]}}, "diagnostics.norm_intervals [0.03"),
    ({"diagnostics": {"norm_intervals": [[0.0, 0.05]]}}, "diagnostics.norm_intervals [0.0"),
    ({"diagnostics": {"norm_intervals": [[-0.01, 0.02]]}}, "diagnostics.norm_intervals [-0.01"),
    # 65^2 = 4225 unknowns, beyond the dense eigendecomposition cap
    ({"grid": {"dim": 2, "nodes": 65},
      "solver": {"window": 0.02, "time_steps": 8, "propagator": "spectral"}}, "4225 unknowns"),
    ({"grid": {"dim": 2, "nodes": 65}, "diagnostics": {"omega_count": 4}}, "4225 unknowns"),
    ({"solver": {"window": 0.02, "time_steps": 8, "radius": 1.0}}, "config invalid at solver"),
    ({"solver": {"window": 0.02, "time_steps": 8, "contraction_target": 0.5}},
     "config invalid at solver"),
    ({"problem": _COUPLED_RD, "solver": {"window": 0.02, "time_steps": 8,
                                         "propagator": "spectral"}},
     "propagator 'spectral' needs one component, got problem.ncomp 2"),
    # the size limits: the omega report's dense distance matrix, and the norm intervals
    ({"diagnostics": {"omega_count": 4097}}, "diagnostics.omega_count 4097 exceeds the 4096"),
    ({"diagnostics": {"omega_count": 100000}}, "diagnostics.omega_count 100000 exceeds"),
    ({"diagnostics": {"norm_intervals": 10001}},
     "diagnostics.norm_intervals asks for 10001 intervals, more than 10000"),
    ({"diagnostics": {"norm_intervals": [[0.0, 0.01]] * 10001}},
     "diagnostics.norm_intervals asks for 10001 intervals"),
])
def test_run_rejects_a_config_it_cannot_run_or_measure(tmp_path, capsys, edit, message):
    cfg_path = write_cfg(tmp_path / "cfg.json", heat_cfg(**edit))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--force"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("propagator", ["euler", "spectral"])
@pytest.mark.parametrize("problem,given", [
    ({"family": "heat", "ncomp": 2}, "problem.ncomp 2"),
    ({"family": "heat", "a": [[1.0]]}, "problem.a"),
    ({"family": "heat", "u_box": [[-2.0, 2.0]], "margin": 0.1}, "problem.u_box, problem.margin"),
    ({"family": "willmore", "ncomp": 3, "f": [0], "b": [0]},
     "problem.ncomp 3, problem.f, problem.b"),
])
def test_a_family_without_tables_rejects_their_keys(tmp_path, capsys, propagator, problem,
                                                     given):
    solver = {"window": 0.02, "time_steps": 8, "propagator": propagator}
    cfg_path = write_cfg(tmp_path / "cfg.json", heat_cfg(problem=problem, solver=solver))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--force"]) == 4
    err = capsys.readouterr().err
    family = problem["family"]
    assert err.startswith(f"error: {given} given for family {family!r}, which has one "
                          f"component and no coefficient tables") and "Traceback" not in err
    assert not out.exists()
    # one component, said outright, is what the family has
    one = write_cfg(tmp_path / "one.json",
                    heat_cfg(problem={"family": "heat", "ncomp": 1}, solver=solver))
    assert main(["run", "--config", one, "--out", str(out)]) == 0


@pytest.mark.parametrize("options,points", [
    # COUNT times 1 + 9 lambda points, 13 * 109 by default
    (["--lambda-points", "1000000000"], 13 * 9_000_000_001),
    (["--b-range", "1:10:1000", "--lambda-points", "112"], 1000 * 1009),
])
def test_symbol_scan_beyond_a_million_points_exits_4(tmp_path, capsys, options, points):
    willmore = Path(__file__).resolve().parent.parent / "configs" / "willmore.json"
    assert main(["symbol", "--config", str(willmore), *options,
                 "--json", str(tmp_path / "s.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: --b-range COUNT ") and "Traceback" not in err, err
    assert f"makes {points} scan points, more than 1000000" in err, err
    assert list(tmp_path.iterdir()) == []


def test_omega_beyond_the_eigendecomposition_cap_exits_4(tmp_path, capsys):
    grid = Grid(2, 65)
    states = np.zeros((2,) + grid.shape + (1,))
    snap = tmp_path / "big.npz"
    save_trajectory(snap, WeightedTrajectory(np.array([0.0, 1.0]), states, states, 0.9, 2.0),
                    {"order": "second", "bc": "neumann"})
    assert main(["omega", "--checkpoint", str(snap), "--json", str(tmp_path / "o.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: 4225 unknowns exceed") and "Traceback" not in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("command", ["norms", "omega"])
@pytest.mark.parametrize("meta", [{"order": "sixth"}, {"bc": "periodic"}])
def test_checkpoint_of_unknown_order_or_bc_exits_4(tmp_path, long_heat_run, capsys, command,
                                                   meta):
    traj, saved = load_trajectory(long_heat_run / "trajectory.npz")
    snap = tmp_path / "odd.npz"
    save_trajectory(snap, traj, {**saved, **meta})
    out = tmp_path / "out.json"
    assert main([command, "--checkpoint", str(snap), "--json", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {snap}: unknown order or bc")
    assert not out.exists()


def _rewrite_meta(path: Path, meta) -> None:
    """Replace the JSON meta of the checkpoint at ``path`` with ``meta``,
    which ``save_trajectory`` would refuse unless it is a dict."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["meta"] = np.array(json.dumps(meta))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("command", ["norms", "omega", "symbol", "run"])
@pytest.mark.parametrize("meta", [[1], 3, "x", {"order": []}, {"order": {}}, {"bc": [1]}],
                         ids=["list", "number", "string", "order-list", "order-object",
                              "bc-list"])
def test_checkpoint_meta_of_the_wrong_type_exits_4(tmp_path, long_heat_run, capsys, command,
                                                   meta):
    cfg = write_cfg(tmp_path / "cfg.json", heat_cfg())
    if command == "run":
        out = tmp_path / "out"
        half_cfg = heat_cfg()
        half_cfg["solver"]["horizon"] = 0.02
        assert main(["run", "--config", write_cfg(tmp_path / "half.json", half_cfg),
                     "--out", str(out)]) == 0
        _rewrite_meta(out / "window_0000.npz", meta)
        argv = ["run", "--config", cfg, "--out", str(out), "--resume"]
    else:
        snap = tmp_path / "odd.npz"
        snap.write_bytes((long_heat_run / "trajectory.npz").read_bytes())
        _rewrite_meta(snap, meta)
        argv = {"norms": ["norms", "--checkpoint", str(snap)],
                "omega": ["omega", "--checkpoint", str(snap)],
                "symbol": ["symbol", "--config", cfg, "--field", str(snap)]}[command]
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err


def test_resume_over_a_window_start_of_the_wrong_type_exits_4(tmp_path, capsys):
    half_cfg = heat_cfg()
    half_cfg["solver"]["horizon"] = 0.02
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path / "half.json", half_cfg),
                 "--out", str(out)]) == 0
    _, meta = load_trajectory(out / "window_0000.npz")
    _rewrite_meta(out / "window_0000.npz", {**meta, "t_start": [0.0]})
    capsys.readouterr()
    assert main(["run", "--config", write_cfg(tmp_path / "full.json", heat_cfg()),
                 "--out", str(out), "--resume"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: window files under {out}: ") and "Traceback" not in err, err


def test_truncated_window_file_exits_4(tmp_path, capsys):
    half_cfg = heat_cfg()
    half_cfg["solver"]["horizon"] = 0.02
    half = write_cfg(tmp_path / "half.json", half_cfg)
    full = write_cfg(tmp_path / "full.json", heat_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", half, "--out", str(out)]) == 0
    window = out / "window_0000.npz"
    window.write_bytes(window.read_bytes()[: window.stat().st_size // 2])
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert main(["run", "--config", full, "--out", str(out), "--resume"]) == 4
    assert "error: cannot read checkpoint" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    assert main(["norms", "--checkpoint", str(window)]) == 4
    assert main(["omega", "--checkpoint", str(window)]) == 4


def test_resume_over_a_missing_window_exits_4_before_writing(tmp_path, capsys):
    short_cfg = heat_cfg()
    short_cfg["solver"]["horizon"] = 0.06
    long_cfg = heat_cfg()
    long_cfg["solver"]["horizon"] = 0.08
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path / "short.json", short_cfg),
                 "--out", str(out)]) == 0
    (out / "window_0001.npz").unlink()
    before = _run_files(out)
    assert main(["run", "--config", write_cfg(tmp_path / "long.json", long_cfg),
                 "--out", str(out), "--resume"]) == 4
    assert "windows do not abut" in capsys.readouterr().err
    assert _run_files(out) == before


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "parabolab" in capsys.readouterr().out


# ---------------------------------------------------------------- exit-code contract

# every option draws from values in its range or from the edges: 0, negative,
# nan, inf, huge, and malformed strings
_EDGES = ["0", "-1", "nan", "inf", "-inf", "1e10", "1e-300", "2.5", "abc", ""]
_TIMES_EDGES = ["0.5", "0.5,nan", "0.5,inf", "-1,0.5", "0.5,2", "a,b", "", "nan"]
# an integer beyond every size limit: --count's 4096, --intervals' 10^4, and
# the symbol scan's 10^6 points
_HUGE = "1000000000"
_B_RANGE_EDGES = ["1e-3:1e300:9", "0:1:5", "nan:1:5", "1:inf:5", "10:1:5", "1:10:0",
                  "1:10:x", "1:10", "nan", "", f"1:10:{_HUGE}"]
# (values in range, edges) per option.  --intervals scales the work linearly
# and goes up to 10^3; omega's pairwise distances grow with the square of
# --count, and the symbol scan with the product of its sizes, so those stop
# at 64
_OPTIONS = {
    "norms": {"--mu": (["0.5", "0.95", "1"], _EDGES), "--p": (["1.5", "2", "4"], _EDGES),
              "--q": (["1", "2", "3.5"], _EDGES), "--delta": (["0.1", "0.5", "1"], _EDGES),
              "--intervals": (["1", "3", "1000"], _EDGES + [_HUGE])},
    "omega": {"--count": (["2", "6", "64"], _EDGES + [_HUGE]),
              "--fraction": (["0.1", "0.5", "1"], _EDGES),
              "--threshold": (["1e-6", "1e-4", "10"], _EDGES),
              "--theta": (["0", "0.5", "1"], _EDGES),
              "--times": (["0.5,1", "0,0.25,0.5,0.75,1"], _TIMES_EDGES)},
    "symbol": {"--b-range": (["1e-3:1e3:9", "1e-300:1e150:64", "1:2:1"], _B_RANGE_EDGES),
               "--lambda-points": (["1", "12", "64"], _EDGES + [_HUGE]),
               # a checkpoint of two components, which no flow can be scanned at, and
               # one of the heat problem
               "--field": (["FIELD"], ["missing.npz", "", "CKPT2", "CKPT"])},
}


def _argv(command):
    options = st.fixed_dictionaries({}, optional={
        name: st.sampled_from(valid) | st.sampled_from(edges)
        for name, (valid, edges) in _OPTIONS[command].items()})
    return options.map(lambda opts: [command] + [a for pair in opts.items() for a in pair])


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


@settings(max_examples=300)
@given(argv=st.sampled_from(sorted(_OPTIONS)).flatmap(_argv))
@example(argv=["norms", "--q", "1e10"])
@example(argv=["norms", "--q", "inf"])
@example(argv=["symbol", "--b-range", "1e-3:1e300:9"])
@example(argv=["omega", "--count", _HUGE])
@example(argv=["norms", "--intervals", _HUGE])
@example(argv=["symbol", "--lambda-points", _HUGE])
@example(argv=["symbol", "--b-range", f"1:10:{_HUGE}"])
@example(argv=["symbol", "--field", "CKPT2"])
@example(argv=["symbol", "--field", "CKPT"])
@example(argv=["symbol", "--field", "FIELD"])
def test_option_edges_keep_the_exit_code_contract(long_heat_run, two_component_checkpoint,
                                                  willmore_checkpoint, argv):
    """Any option value exits 0, 2, 3 or 4 without a traceback; exit 4 writes
    nothing, and every file a command writes is strict JSON or CSV with
    finite numbers.  (A failed symbol check, exit 2, and a non-converged
    omega report, exit 3, still write their report.)"""
    ckpt = str(long_heat_run / "trajectory.npz")
    source = (["--config", str(Path(__file__).resolve().parent.parent / "configs"
                               / "willmore.json")]
              if argv[0] == "symbol" else ["--checkpoint", ckpt])
    argv = [{"CKPT": ckpt, "CKPT2": str(two_component_checkpoint),
             "FIELD": str(willmore_checkpoint)}.get(a, a) for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        outputs = ["--json", str(out / "report.json")]
        if argv[0] == "norms":
            outputs += ["--csv", str(out / "table.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv[:1] + source + argv[1:] + outputs)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in err.getvalue()
        written = sorted(out.iterdir())
        if code == 4:
            assert written == [], argv
            return
        for path in written:
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=_reject_constant)
            else:
                cells = [c for row in csv.reader(path.read_text().splitlines()[1:]) for c in row]
                assert all(math.isfinite(float(c)) for c in cells), argv


# ---------------------------------------------------------------- config edges

def tiny_cfg():
    """Heat on 12 nodes, two windows of 4 steps."""
    return heat_cfg(grid={"dim": 1, "nodes": 12},
                    solver={"window": 0.01, "time_steps": 4, "horizon": 0.02, "tol": 1e-10})


# the edges of a config value: 0, negative, fractional, huge (a float, and an
# integer literal beyond floating point), the non-standard JSON literals NaN
# and +-Infinity, strings that are no number, and values of the wrong JSON type
_VALUE_EDGES = [0, -1, 1.5, 1e308, 10 ** 400, math.nan, math.inf, -math.inf, "1/0", "abc",
                True, None, [2]]
# values in range for each field the draws vary ("n" only in the flat layout
# of `check`)
_CONFIG_FIELDS = {
    "exponents.p": [2, "5/2", 3.0],
    "exponents.q": [2, 4],
    "exponents.mu": ["9/10", 0.8, 1],
    "exponents.beta": ["3/4", 0.7],
    "exponents.epsilon": ["1/1000", 0.01],
    "exponents.pairs": [[[1, "3/4"], [2, "2/5"]]],
    "n": [1, 2],
    "solver.window": [0.01, 0.005],
    "solver.horizon": [0.02, 0.01],
    "solver.time_steps": [2, 4],
    "solver.max_iter": [1, 25],
    "solver.tol": [1e-10, 1e-4],
    "solver.grading": [1, 2.5],
    "solver.propagator": ["euler", "spectral"],
    "solver.max_halvings": [0, 2],
    "solver.blowup_threshold": [1e6, 0.5],
    "initial.amplitude": [0.5, 0],
    "diagnostics.norm_intervals": [1, 3, [[0, 0.01]]],
    "diagnostics.smoothing_delta": [0.01, 0.02],
    "diagnostics.omega_count": [2, 4],
    "diagnostics.omega_fraction": [0.5, 1],
    "diagnostics.omega_threshold": [1e-4, 10],
    "diagnostics.symbol_scan": [True, False],
}


# values beyond a size limit: the omega report's 4096 samples, and 10^4 norm
# intervals, as a count and as a list
_LIMIT_EDGES = {
    "diagnostics.omega_count": [100000],
    "diagnostics.norm_intervals": [10 ** 9, [[0, 0.01]] * 10001],
}


def _edges(field):
    if field == "exponents.pairs":
        return _VALUE_EDGES + [[[1, v]] for v in _VALUE_EDGES]
    return _VALUE_EDGES + _LIMIT_EDGES.get(field, [])


def _edits():
    fields = st.lists(st.sampled_from(sorted(_CONFIG_FIELDS)), min_size=1, max_size=3,
                      unique=True)
    return fields.flatmap(lambda keys: st.tuples(*[
        st.tuples(st.just(k), st.sampled_from(_CONFIG_FIELDS[k]) | st.sampled_from(_edges(k)))
        for k in keys]))


def _set_path(cfg: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    for key in parents:
        cfg = cfg.setdefault(key, {})
    cfg[last] = value


def _tree(root: Path) -> list:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def _main_quietly(argv):
    """Exit code and stderr of ``main(argv)``."""
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


# the error of a run whose diagnostics overflow, after its window checkpoints
_DIAGNOSTICS_OVERFLOW = "gives a diagnostic norm beyond floating point"


@pytest.mark.parametrize("config,edit,message,written", [
    ("reaction_diffusion", ("problem.u_box", [[-1e160, 1e160]]),
     "a(u) is not finite on the state box [[-1e+160, 1e+160]]", []),
    ("willmore", ("initial.amplitude", 1e200),
     "the symbol scan of the willmore config gives a number beyond floating point",
     ["admissibility.json"]),
], ids=["rd-box", "willmore-amplitude"])
def test_a_run_beyond_floating_point_in_its_symbol_exits_4(tmp_path, config, edit, message,
                                                            written):
    # the problem of the box is not built, so the run writes nothing; the
    # flow's symbol report is rejected before symbol.json is written
    doc = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / f"{config}.json").read_text())
    _set_path(doc, *edit)
    out = tmp_path / "out"
    code, err = _main_quietly(["run", "--config", write_cfg(tmp_path / "cfg.json", doc),
                               "--out", str(out)])
    assert code == 4 and err == f"error: {message}\n", err
    assert (_tree(out) if out.exists() else []) == written


# magnitudes up to 1e300 of either sign, with the edges near which a(u) on
# the state box, or the squared slopes of a flow, leave floating point
_MAGNITUDES = st.one_of(st.sampled_from([1.0, 1e150, 1e160, 1e200, 1e300]),
                        st.floats(-1e300, 1e300))


@settings(max_examples=30)
# the reproductions: a(u) = 1 + u^2 overflows on this box, and so does the
# symbol scan of these slopes
@example(family="reaction_diffusion", values=(1e160, 1.0, 0.0, 1.0))
@example(family="willmore", values=(1e200, 1.0, 1.0, 1.0))
@given(family=st.sampled_from(["reaction_diffusion", "willmore", "surface_diffusion"]),
       values=st.tuples(_MAGNITUDES, _MAGNITUDES, _MAGNITUDES, _MAGNITUDES))
def test_symbol_keeps_the_exit_code_contract_at_extreme_magnitudes(family, values):
    """`symbol` on a reaction-diffusion config whose state box and a(u) =
    a0 + a1 u + a2 u^2 reach 1e300, or on a flow whose initial amplitude
    does, exits 0, 2 or 4 without a traceback, and writes its report only
    when it exits 0 or 2."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    name = "reaction_diffusion" if family == "reaction_diffusion" else "willmore"
    doc = json.loads((configs / f"{name}.json").read_text())
    doc["problem"]["family"] = family
    if family == "reaction_diffusion":
        bound, *a = values
        doc["problem"].update(u_box=[[-abs(bound), abs(bound)]], margin=0.0, a=[[a]])
    else:
        doc["initial"]["amplitude"] = values[0]
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "symbol.json"
        code, _err = _main_quietly(["symbol", "--config", write_cfg(Path(tmp) / "cfg.json", doc),
                                    "--json", str(report)])
        assert code in (0, 2, 4), (family, values)
        assert report.exists() == (code != 4), (family, values, code)


@settings(max_examples=150)
@given(command=st.sampled_from(["check", "check-flat", "run", "sweep"]), edits=_edits())
@example(command="run", edits=(("solver.grading", 1e308),))
@example(command="run", edits=(("exponents.q", 1e308),))
@example(command="run", edits=(("solver.horizon", 1e308),))
@example(command="run", edits=(("diagnostics.omega_count", 100000),))
@example(command="sweep", edits=(("diagnostics.norm_intervals", 10 ** 9),))
# a first step of 0.01 2^-1040, a subnormal float: exit 4 at the parse
@example(command="run", edits=(("solver.grading", 1040), ("solver.time_steps", 2),
                               ("solver.horizon", 0.020000000002)))
def test_config_edges_keep_the_exit_code_contract(command, edits):
    """Any config value makes check, run and sweep exit 0, 2, 3 or 4 without
    a traceback, and every JSON file they write is strict JSON.  Exit 4
    writes nothing, except that a run whose diagnostics overflow keeps the
    checkpoints it wrote and writes no diagnostics.  The sweep varies the
    last drawn field over a value in range and the drawn value; when it
    runs, it writes both summaries, and each cell records the exit code a
    run of that cell's config gives."""
    cfg = tiny_cfg()
    flat = dict(cfg["exponents"], n=1)
    *fixed, (axis, value) = edits
    for path, v in edits if command != "sweep" else fixed:
        if path == "n":
            flat["n"] = v
        elif command == "check-flat" and path.startswith("exponents."):
            flat[path.split(".")[1]] = v
        else:
            _set_path(cfg, path, v)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg_path = write_cfg(root / "cfg.json", flat if command == "check-flat" else cfg)
        out = root / "out"
        argv = {"check": ["check", "--config", cfg_path, "--json", str(out)],
                "check-flat": ["check", "--config", cfg_path, "--json", str(out)],
                "run": ["run", "--config", cfg_path, "--out", str(out)],
                "sweep": ["sweep", "--config", cfg_path, "--out", str(out),
                          "--axes", write_cfg(root / "axes.json", {
                              axis: [_CONFIG_FIELDS[axis][0], value]})]}[command]
        before = _tree(root)
        code, err = _main_quietly(argv)
        for path in [out] if out.is_file() else out.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
        if code == 4:
            if _DIAGNOSTICS_OVERFLOW in err:
                assert command == "run" and not (out / "diagnostics.json").exists()
            else:
                assert _tree(root) == before, (command, edits)
            return
        if command != "sweep":
            return
        assert (out / "summary.csv").exists() and (out / "sweep_summary.json").exists()
        cells = json.loads((out / "sweep_summary.json").read_text())["cells"]
        cell = deepcopy(cfg)
        _set_path(cell, axis, value)
        cell_code, cell_err = _main_quietly(["run", "--config",
                                             write_cfg(root / "cell.json", cell),
                                             "--out", str(root / "cell")])
        assert cells[1]["exit_code"] == cell_code, (edits, cells[1])
        if cell_code == 4:
            assert (out / "cell_0001").exists() == (_DIAGNOSTICS_OVERFLOW in cell_err)
            assert not (out / "cell_0001" / "diagnostics.json").exists()


# initial fields and coefficient tables that pass the schema but do not parse
_RD = {"family": "reaction_diffusion", "a": [[1.0]], "u_box": [[-2.0, 2.0]]}
_MALFORMED = [
    ("initial", {"kind": "values", "values": [[1.0] * 6, [1.0] * 5]}),    # ragged
    ("initial", {"kind": "values", "values": ["a"] * 12}),
    ("initial", {"kind": "values", "values": [[1.0] * 12]}),              # shape (1, 12)
    ("initial", {"kind": "values"}),
    ("initial", {"kind": "constant", "value": [[1.0]]}),
    ("initial", {"kind": "constant", "value": ["a"]}),
    ("initial", [{"kind": "constant", "value": [1.0]}]),
    ("initial", {"kind": "cosine", "amplitude": 1e308, "offset": 1e308}),  # overflows
    ("problem", dict(_RD, a=[[{"x": 1}]])),
    ("problem", dict(_RD, a=[[{"terms": 5}]])),
    ("problem", dict(_RD, a=[[{"terms": [{"powers": [0]}]}]])),            # no coeff
    ("problem", dict(_RD, a=[[{"terms": [{"powers": ["a"], "coeff": 1.0}]}]])),
    ("problem", dict(_RD, a=[[{"terms": [{"powers": [1.5], "coeff": 1.0}]}]])),
    ("problem", dict(_RD, f=[[0.0, [1.0]]])),
    ("problem", dict(_RD, f=[[0.0, None]])),
    ("problem", dict(_RD, f=[[[[1.0]]]])),
]


@pytest.mark.parametrize("command,path,value", [
    *[("run", path, value) for path, value in [
        ("solver.grading", math.inf), ("initial.amplitude", math.nan),
        ("solver.horizon", math.nan), ("solver.horizon", math.inf),
        ("solver.blowup_threshold", math.nan)]],
    *[(command, f"exponents.{key}", value) for command in ("check", "run")
      for key, value in [("p", "1/0"), ("q", "1/0"), ("mu", "1/0"), ("beta", "1/0"),
                         ("epsilon", "1/0"), ("pairs", [[1, "1/0"]])]],
    *[("check-flat", key, value) for key, value in [
        ("p", True), ("p", None), ("p", [2]), ("beta", None), ("pairs", 5), ("n", 1.5)]],
    *[("run", path, value) for path, value in [
        ("initial", _SHORT_VALUES), ("problem", _NEGATIVE_RD),
        # a clamped problem whose initial field does not vanish on the boundary
        ("problem", {"family": "willmore"})]],
    *[pytest.param("run", path, 10 ** 400, id=f"run-{path}-10**400")
      for path in ("solver.horizon", "grid.nodes")],
    *[(command, path, value) for command in ("run", "symbol", "sweep")
      for path, value in _MALFORMED],
    # last, so that the ids pytest numbers by position above keep their numbers
    *[pytest.param("check-flat", key, value, id=f"check-flat-{key}-{value!r}")
      for key, value in [("extra", 1), ("order", ["x"]), ("n", 0)]],
    # a flow's A(h) is symmetric in its pairing only at zero slope
    *[pytest.param(command, ("problem", "initial", "solver.propagator"),
                   ({"family": family}, _SINE_SQUARED, "spectral"),
                   id=f"{command}-{family}-spectral")
      for command in ("check", "run") for family in ("surface_diffusion", "willmore")],
])
def test_config_values_that_do_not_parse_exit_4(tmp_path, tmp_path_factory, capsys, command,
                                                path, value):
    cfg = tiny_cfg()
    if command == "check-flat":
        cfg = {**cfg["exponents"], "n": 1, path: value}
    elif isinstance(path, tuple):
        for one_path, one_value in zip(path, value):
            _set_path(cfg, one_path, one_value)
    else:
        _set_path(cfg, path, value)
    cfg_path = write_cfg(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    axes = write_cfg(tmp_path_factory.mktemp("axes") / "axes.json", {"seed": [0, 1]})
    argv = {"run": ["run", "--config", cfg_path, "--out", str(out)],
            "symbol": ["symbol", "--config", cfg_path, "--json", str(out)],
            "sweep": ["sweep", "--config", cfg_path, "--axes", axes, "--out", str(out)],
            }.get(command, ["check", "--config", cfg_path, "--json", str(out)])
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert "np.float64" not in err, err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("path,value", _MALFORMED)
def test_sweep_records_a_cell_that_does_not_parse_as_exit_4(tmp_path, capsys, path, value):
    cfg_path = write_cfg(tmp_path / "tmpl.json", tiny_cfg())
    axes_path = write_cfg(tmp_path / "axes.json", {path: [tiny_cfg()[path], value]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--axes", axes_path, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "cell 1: " in err and "Traceback" not in err, err
    cells = json.loads((out / "sweep_summary.json").read_text())["cells"]
    assert [c["exit_code"] for c in cells] == [0, 4]
    assert not (out / "cell_0001").exists()


@pytest.mark.parametrize("command", ["check", "run"])
def test_integer_literal_beyond_the_int_digit_limit_exits_4(tmp_path, capsys, command):
    # json.dumps cannot write an int of 5000 digits, so the literal goes in as text
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_cfg()).replace('"horizon": 0.02',
                                                       '"horizon": 1' + "0" * 4999))
    out = tmp_path / "out"
    argv = (["run", "--config", str(cfg_path), "--out", str(out)] if command == "run"
            else ["check", "--config", str(cfg_path), "--json", str(out)])
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "5000 digits" in err, err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_a_window_too_short_for_its_grading_collapses_with_exit_3(tmp_path, capsys):
    # the configured window grades (its first step is 0.01 2^-1000, a normal
    # float), but the first window, cut to the horizon, and each of its
    # halvings underflow the first step to zero length
    cfg = tiny_cfg()
    cfg["solver"].update(grading=1000, time_steps=2, horizon=1e-24)
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path / "cfg.json", cfg),
                 "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "blow_up" and summary["t_reached"] == 0.0
    assert summary["reason"].startswith("window collapse: window collapsed after 20 halvings: "
                                        "reference solve failed: grading 1000 leaves a step "
                                        "of zero length among the 2 steps of a window")


def test_a_failed_freeze_collapses_the_first_window_with_exit_3(tmp_path, capsys):
    # a(u) = (u^2 - 1/4)(u^2 - 3/10) is positive at the box samples -2..2
    # and changes sign over the initial state, so the spectral propagator
    # cannot decompose A(u1): the window ends without a halving
    cfg = heat_cfg(problem={"family": "reaction_diffusion", "ncomp": 1,
                            "a": [[[0.075, 0, -0.55, 0, 1]]], "f": [0], "b": [[[0]]],
                            "u_box": [[-2.0, 2.0]]},
                   initial={"kind": "cosine", "amplitude": 0.3, "offset": 0.52})
    cfg["solver"]["propagator"] = "spectral"
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path / "cfg.json", cfg),
                 "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "blow_up" and summary["t_reached"] == 0.0
    assert summary["reason"].startswith("window collapse: window collapsed without halving: "
                                        "freezing A(u1) failed: operator not symmetric")


def test_a_subnormal_first_step_exits_4_before_writing(tmp_path, capsys):
    # a first step of 0.01 2^-1040, about 8.5e-316, on which the weighted
    # norms overflow: the parse rejects it, as it rejects a zero step
    doc = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "heat.json").read_text())
    doc["solver"].update(grading=1040, time_steps=2, window=0.01)
    out = tmp_path / "out"
    assert main(["run", "--config", write_cfg(tmp_path / "cfg.json", doc),
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == ("error: bad solver section: grading 1040 leaves a step of subnormal "
                   "length 8.48798317e-316 among the 2 steps of a window of length 0.01 "
                   "at t = 0.0\n"), err
    assert not out.exists()


@pytest.mark.parametrize("key", ["q", "p"])
def test_run_whose_diagnostics_overflow_exits_4(tmp_path, capsys, key):
    # the windows converge, and then the q- or p-norms of the diagnostics overflow
    cfg = tiny_cfg()
    cfg["exponents"][key] = 1e308
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", write_cfg(tmp_path / "cfg.json", cfg),
                     "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: exponents.q ") and _DIAGNOSTICS_OVERFLOW in err, err
    assert f"exponents.{key} 1e+308" in err
    assert sorted(p.name for p in out.iterdir()) == [
        "admissibility.json", "window_0000.npz", "window_0001.npz"]
    json.loads((out / "admissibility.json").read_text(), parse_constant=_reject_constant)
