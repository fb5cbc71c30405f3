"""End-to-end command tests driven through main(argv).

Exit code contract: 0 success, 2 admissibility failure, 3 nonconvergence or
blow-up, 4 configuration or I/O problems.  Determinism contract: identical
config and seed give byte-identical artifacts, and an interrupted run resumed
from its window checkpoints reproduces the uninterrupted bytes.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import parabolab
from parabolab import cli, norms
from parabolab.checkpoint import load_trajectory
from parabolab.cli import main
from parabolab.grids import BoundaryCondition, Grid
from parabolab.norms import E0mu_norm, WeightedTrajectory


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
    assert loads and set(loads) == {"window_0000.npz"}


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
        "diagnostics": {"smoothing_delta": 0.9},
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
    assert "smoothing" not in json.loads((out / "diagnostics.json").read_text())


def test_run_non_finite_rhs_exits_3(tmp_path, capsys):
    # f(1e40) = 1e360 overflows, so every window attempt fails and the first
    # window collapses before any checkpoint exists
    cfg = {
        "problem": {"family": "reaction_diffusion", "ncomp": 1,
                    "a": [[[1]]], "f": [[0] * 9 + [1]],
                    "u_box": [[-1e300, 1e300]]},
        "grid": {"dim": 1, "nodes": 9},
        "exponents": {"p": 2, "q": 2, "mu": "9/10"},
        "solver": {"window": 0.01, "time_steps": 4, "horizon": 0.02, "max_iter": 5},
        "initial": {"kind": "constant", "value": 1e40},
        "seed": 0,
    }
    cfg_path = write_cfg(tmp_path / "nonfinite.json", cfg)
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
    assert float(rows[-1][2]) == pytest.approx(E0mu_norm(traj), rel=1e-12)
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
    assert float(rows[-1][2]) >= E0mu_norm(traj) - 1e-12


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


def test_symbol_fourth_order_scan(tmp_path, long_heat_run, capsys):
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
    # a saved trajectory can supply the gradient samples
    assert main(["symbol", "--config", cfg_path, "--field",
                 str(long_heat_run / "trajectory.npz"),
                 "--b-range", "0.001:1000:5", "--lambda-points", "6"]) == 0


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


@pytest.mark.parametrize("command,option,value", [
    ("norms", "--q", "0.5"),
    ("norms", "--mu", "1.5"),
    ("norms", "--p", "1"),
    ("norms", "--intervals", "-1"),
    ("norms", "--intervals", "0"),
    ("omega", "--count", "1"),
    ("omega", "--fraction", "2"),
    ("omega", "--theta", "3"),
    ("omega", "--threshold", "0"),
    ("omega", "--times", "0.5,2.0"),      # the saved horizon is 1.0
    ("omega", "--times", "0.5"),
    ("omega", "--times", "0.5,x"),
    ("symbol", "--b-range", "0:1:5"),
    ("symbol", "--b-range", "1:10:0"),
    ("symbol", "--b-range", "10:1:5"),
    ("symbol", "--lambda-points", "0"),
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

    def counted(values, grid, q=2.0, order=2, bc=BoundaryCondition.NEUMANN):
        passes.append((q, order, bc))
        return x1_norms(values, grid, q, order, bc)

    monkeypatch.setattr(norms, "x1_norms", counted)
    diag = {"norm_intervals": 4, "smoothing_delta": 0.8}
    report = cli._diagnostics_report(traj, diag, 4, BoundaryCondition.CLAMPED, 4.0)
    assert len(report["norm_intervals"]) == 4 and "smoothing" in report
    assert passes == [(4.0, 4, BoundaryCondition.CLAMPED)]
    # the time series at q = 2 makes its own pass, which diagnostics at q = 2 reuse
    cli._timeseries_rows(traj, BoundaryCondition.CLAMPED, 4)
    cli._diagnostics_report(traj, diag, 4, BoundaryCondition.CLAMPED, 2.0)
    assert passes[1:] == [(2.0, 4, BoundaryCondition.CLAMPED)]


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "parabolab" in capsys.readouterr().out
