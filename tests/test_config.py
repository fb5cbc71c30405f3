"""Configuration parsing and object construction tests."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from parabolab.config import (ConfigError, build_grid, build_initial,
                              build_problem, build_solver, exponent_config,
                              horizon_of, is_flat_exponent_config, load_json,
                              load_run_config, structure_exponents,
                              validate_run_config)
from parabolab.exponents import ORDER_FOURTH, ORDER_SECOND
from parabolab.grids import Grid

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def minimal_cfg(**over):
    cfg = {
        "problem": {"family": "heat"},
        "grid": {"dim": 1, "nodes": 16},
        "exponents": {"p": 2, "q": 2, "mu": "9/10"},
        "solver": {"window": 0.05, "time_steps": 8},
    }
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------- loading

def test_load_json_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_json(bad)


def test_schema_validation():
    validate_run_config(minimal_cfg())
    with pytest.raises(ConfigError) as exc:
        validate_run_config(minimal_cfg(problem={"family": "advection"}))
    assert "problem/family" in str(exc.value)
    cfg = minimal_cfg()
    del cfg["solver"]
    with pytest.raises(ConfigError):
        validate_run_config(cfg)
    with pytest.raises(ConfigError):
        validate_run_config(minimal_cfg(grid={"dim": 3, "nodes": 16}))


def test_smoothing_delta_must_not_exceed_the_horizon():
    # the horizon defaults to the window, 0.05
    validate_run_config(minimal_cfg(diagnostics={"smoothing_delta": 0.05}))
    with pytest.raises(ConfigError) as exc:
        validate_run_config(minimal_cfg(diagnostics={"smoothing_delta": 0.06}))
    assert "smoothing_delta" in str(exc.value)
    cfg = minimal_cfg(diagnostics={"smoothing_delta": 0.06})
    cfg["solver"]["horizon"] = 0.1
    validate_run_config(cfg)


def test_load_run_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_cfg()))
    cfg = load_run_config(path)
    assert cfg["problem"]["family"] == "heat"


def test_bundled_configs_validate():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) >= 4
    for path in paths:
        cfg = load_run_config(path)
        assert "problem" in cfg


# ---------------------------------------------------------------- exponents

def test_flat_exponent_config():
    flat = {"p": 2, "q": 2, "n": 1, "mu": "9/10"}
    assert is_flat_exponent_config(flat)
    assert not is_flat_exponent_config(minimal_cfg())
    ec = exponent_config(flat)
    assert ec.mu == Fraction(9, 10)
    assert ec.order == ORDER_SECOND
    ec4 = exponent_config({"p": 2, "q": 2, "n": 1, "mu": "19/20", "order": ORDER_FOURTH})
    assert ec4.order == ORDER_FOURTH
    with pytest.raises(ConfigError):
        exponent_config({"p": 2, "q": 2, "mu": "9/10"})  # no n, no grid


def test_nested_exponent_config_infers_n_and_order():
    cfg = minimal_cfg(problem={"family": "willmore"},
                      exponents={"p": 2, "q": 2, "mu": "19/20"})
    ec = exponent_config(cfg)
    assert ec.n == 1
    assert ec.order == ORDER_FOURTH
    cfg2 = minimal_cfg(grid={"dim": 2, "nodes": 16})
    assert exponent_config(cfg2).n == 2
    with pytest.raises(ConfigError):
        exponent_config(minimal_cfg(exponents={"p": 2, "q": 2, "mu": "banana"}))


def test_structure_exponents_default_beta_is_midpoint():
    cfg = minimal_cfg()
    ec = exponent_config(cfg)
    se = structure_exponents(cfg, ec)
    assert se.beta == Fraction(53, 80)   # midpoint of (5/8, 7/10)
    cfg_b = minimal_cfg(exponents={"p": 2, "q": 2, "mu": "9/10", "beta": "2/3"})
    se_b = structure_exponents(cfg_b, exponent_config(cfg_b))
    assert se_b.beta == Fraction(2, 3)


def test_structure_exponents_explicit_pairs_and_epsilon():
    cfg = minimal_cfg(exponents={"p": 2, "q": 2, "mu": "9/10", "beta": "2/3",
                                 "pairs": [["1", "2/3"], ["2", "2/5"]]})
    se = structure_exponents(cfg, exponent_config(cfg))
    assert se.pairs == ((Fraction(1), Fraction(2, 3)), (Fraction(2), Fraction(2, 5)))
    cfg4 = minimal_cfg(problem={"family": "willmore"},
                       exponents={"p": 2, "q": 2, "mu": "19/20", "beta": "5/6",
                                  "epsilon": "1/2000"})
    se4 = structure_exponents(cfg4, exponent_config(cfg4))
    assert se4.epsilon == Fraction(1, 2000)


# ---------------------------------------------------------------- building

def test_build_grid():
    grid = build_grid(minimal_cfg())
    assert grid == Grid(1, 16)


def test_build_problem_families():
    grid = Grid(1, 16)
    prob, spec = build_problem(minimal_cfg(), grid)
    assert prob.name == "heat" and prob.order == "second"
    rd = minimal_cfg(problem={
        "family": "reaction_diffusion", "ncomp": 1,
        "a": [[[1.0, 0.0, 1.0]]], "u_box": [[-2.0, 2.0]]})
    prob2, spec2 = build_problem(rd, grid)
    assert prob2.order == "second"
    assert spec2.a(np.array([[1.0]]))[0, 0, 0] == pytest.approx(2.0)
    prob3, spec3 = build_problem(minimal_cfg(problem={"family": "willmore"}), grid)
    assert prob3.order == "fourth" and spec3.kind == "willmore"
    with pytest.raises(ConfigError):
        build_problem(minimal_cfg(problem={"family": "reaction_diffusion"}), grid)


def test_build_initial_variants():
    grid = Grid(1, 9)
    x = grid.axis_coords()
    zero = build_initial({}, grid, 2)
    assert zero.values.shape == grid.shape + (2,)
    assert np.all(zero.values == 0.0)

    cos = build_initial({"initial": {"kind": "cosine", "amplitude": 0.5,
                                     "wavenumber": 2, "offset": 1.0}}, grid, 1)
    assert np.allclose(cos.scalar, 1.0 + 0.5 * np.cos(2 * np.pi * x))

    sin2 = build_initial({"initial": {"kind": "sine_squared", "amplitude": 2.0}}, grid, 1)
    assert np.allclose(sin2.scalar, 2.0 * np.sin(np.pi * x) ** 2)

    const = build_initial({"initial": {"kind": "constant", "value": [1.0, -1.0]}}, grid, 2)
    assert np.all(const.values[..., 0] == 1.0) and np.all(const.values[..., 1] == -1.0)

    per_comp = build_initial({"initial": [{"kind": "constant", "value": 3.0},
                                          {"kind": "cosine"}]}, grid, 2)
    assert np.all(per_comp.values[..., 0] == 3.0)

    vals = build_initial({"initial": {"kind": "values",
                                      "values": list(np.arange(9.0))}}, grid, 1)
    assert vals.scalar[-1] == 8.0

    with pytest.raises(ConfigError):
        build_initial({"initial": {"kind": "values", "values": [1.0, 2.0]}}, grid, 1)
    with pytest.raises(ConfigError):
        build_initial({"initial": {"kind": "sawtooth"}}, grid, 1)
    with pytest.raises(ConfigError):
        build_initial({"initial": [{"kind": "constant"}]}, grid, 2)


def test_build_solver_and_horizon():
    cfg = minimal_cfg(solver={"window": 0.05, "time_steps": 8, "horizon": 0.2,
                              "tol": 1e-8, "propagator": "spectral"})
    ec = exponent_config(cfg)
    sc = build_solver(cfg, ec)
    assert sc.window == 0.05 and sc.time_steps == 8
    assert sc.tol == 1e-8 and sc.propagator == "spectral"
    assert sc.mu == 0.9 and sc.p == 2.0
    assert horizon_of(cfg) == 0.2
    assert horizon_of(minimal_cfg()) == 0.05  # defaults to one window
    bad = minimal_cfg(solver={"window": 0.05, "time_steps": 1})
    with pytest.raises(ConfigError):
        build_solver(bad, ec)
