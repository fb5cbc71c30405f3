"""Configuration ingestion: JSON loading, schema validation, object building.

Two layouts are understood:

* the full run configuration (sections ``problem``, ``grid``, ``exponents``,
  ``solver``, optional ``initial`` / ``diagnostics`` / ``output`` / ``seed``),
  validated against the bundled JSON schema;

* a flat exponent table (keys ``p``, ``q``, ``n``, ``mu``, ``order``, and
  optionally ``beta``, ``pairs``, ``epsilon``) as accepted by the ``check``
  subcommand.

Exponent values may be numbers or exact fraction strings such as ``"9/10"``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np
import jsonschema

from .evolution import AbstractProblem, FixedPointConfig
from .exponents import (ExponentConfig, StructureExponents, ORDER_FOURTH,
                        ORDER_SECOND, as_number, beta_window)
from .grids import BoundaryCondition, Grid, GridFunction
from .problems import (FlowSpec, PolynomialMap, ReactionDiffusionSpec,
                       flow_problem, linear_heat_spec, rd_problem)


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


FAMILY_ORDER = {
    "heat": ORDER_SECOND,
    "reaction_diffusion": ORDER_SECOND,
    "surface_diffusion": ORDER_FOURTH,
    "willmore": ORDER_FOURTH,
}

FAMILY_BC = {
    "heat": BoundaryCondition.NEUMANN,
    "reaction_diffusion": BoundaryCondition.NEUMANN,
    "surface_diffusion": BoundaryCondition.CLAMPED,
    "willmore": BoundaryCondition.CLAMPED,
}


def _schema() -> dict:
    text = resources.files("parabolab").joinpath("schema/run_config.schema.json").read_text()
    return json.loads(text)


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def validate_run_config(cfg: dict) -> None:
    try:
        jsonschema.validate(cfg, _schema())
    except jsonschema.ValidationError as exc:
        path = "/".join(str(k) for k in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc
    delta = cfg.get("diagnostics", {}).get("smoothing_delta")
    if delta is not None and delta > horizon_of(cfg):
        raise ConfigError(f"diagnostics.smoothing_delta {delta!r} exceeds the horizon "
                          f"{horizon_of(cfg)!r}")


def load_run_config(path) -> dict:
    cfg = load_json(path)
    validate_run_config(cfg)
    return cfg


def is_flat_exponent_config(cfg: dict) -> bool:
    return "p" in cfg and "mu" in cfg and "problem" not in cfg


def build_grid(cfg: dict) -> Grid:
    g = cfg["grid"]
    return Grid(dim=g["dim"], nodes_per_axis=g["nodes"])


def exponent_config(cfg: dict, grid: Optional[Grid] = None) -> ExponentConfig:
    """ExponentConfig from either layout; n and order fall back to grid/problem."""
    if is_flat_exponent_config(cfg):
        sec = cfg
        n = sec.get("n")
        order = sec.get("order", ORDER_SECOND)
    else:
        sec = cfg["exponents"]
        n = sec.get("n")
        if n is None:
            n = (grid or build_grid(cfg)).dim
        order = FAMILY_ORDER[cfg["problem"]["family"]]
    if n is None:
        raise ConfigError("exponent config needs 'n' (or a grid section)")
    try:
        return ExponentConfig(p=as_number(sec["p"]), q=as_number(sec["q"]),
                              n=int(n), mu=as_number(sec["mu"]), order=order)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad exponent section: {exc}") from exc


def structure_exponents(cfg: dict, ec: ExponentConfig) -> StructureExponents:
    """Structure exponents with the configured beta, or the window midpoint."""
    sec = cfg if is_flat_exponent_config(cfg) else cfg["exponents"]
    eps = as_number(sec["epsilon"]) if "epsilon" in sec else None
    if "beta" in sec:
        beta = as_number(sec["beta"])
    else:
        beta = beta_window(ec, epsilon=eps).midpoint()
    kw = {"epsilon": eps} if eps is not None else {}
    if "pairs" in sec:
        pairs = tuple((as_number(r), as_number(b)) for r, b in sec["pairs"])
        return StructureExponents(beta=beta, pairs=pairs, **kw)
    return StructureExponents.for_problem(ec, beta, **kw)


def _polymap(entry, shape, nvars, default=None) -> PolynomialMap:
    if entry is None:
        if default is None:
            raise ConfigError(f"missing coefficient table of shape {shape}")
        return PolynomialMap.constant(default)
    return PolynomialMap.from_table(entry, shape, nvars)


def build_problem(cfg: dict, grid: Grid):
    """Returns (AbstractProblem, spec object) for the configured family."""
    sec = cfg["problem"]
    family = sec["family"]
    if family == "heat":
        spec = linear_heat_spec(grid)
        return rd_problem(spec), spec
    if family == "reaction_diffusion":
        N = sec.get("ncomp", 1)
        if "a" not in sec or "u_box" not in sec:
            raise ConfigError("reaction_diffusion needs 'a' and 'u_box'")
        spec = ReactionDiffusionSpec(
            grid=grid, ncomp=N,
            a=_polymap(sec["a"], (N, N), N),
            f=_polymap(sec.get("f"), (N,), N, default=np.zeros(N)),
            b=_polymap(sec.get("b"), (N, N, N), N, default=np.zeros((N, N, N))),
            u_box=np.asarray(sec["u_box"], dtype=float),
            margin=sec.get("margin", 0.0),
            name=cfg.get("name", family),
        )
        return rd_problem(spec), spec
    spec = FlowSpec(grid=grid, kind=family, name=cfg.get("name", ""))
    return flow_problem(spec), spec


def _field_values(entry: dict, grid: Grid) -> np.ndarray:
    kind = entry["kind"]
    xs = grid.coords()
    if kind == "constant":
        return np.full(grid.shape, float(entry.get("value", 0.0)))
    if kind == "cosine":
        amp = entry.get("amplitude", 1.0)
        k = entry.get("wavenumber", 1)
        off = entry.get("offset", 0.0)
        prof = np.ones(grid.shape)
        for x in xs:
            prof = prof * np.cos(k * np.pi * x)
        return off + amp * prof
    if kind == "sine_squared":
        amp = entry.get("amplitude", 1.0)
        k = entry.get("wavenumber", 1)
        prof = np.ones(grid.shape)
        for x in xs:
            prof = prof * np.sin(k * np.pi * x) ** 2
        return amp * prof
    if kind == "values":
        vals = np.asarray(entry["values"], dtype=float)
        if vals.shape != grid.shape:
            raise ConfigError(f"values shape {vals.shape} does not match grid {grid.shape}")
        return vals
    raise ConfigError(f"unknown initial field kind {kind!r}")


def build_initial(cfg: dict, grid: Grid, ncomp: int) -> GridFunction:
    entry = cfg.get("initial")
    if entry is None:
        return GridFunction.zeros(grid, ncomp)
    if isinstance(entry, list):
        if len(entry) != ncomp:
            raise ConfigError(f"{len(entry)} initial fields for {ncomp} components")
        comps = [_field_values(e, grid) for e in entry]
        return GridFunction(grid, np.stack(comps, axis=-1))
    if entry["kind"] == "constant" and isinstance(entry.get("value"), list):
        vals = [np.full(grid.shape, float(v)) for v in entry["value"]]
        if len(vals) != ncomp:
            raise ConfigError(f"{len(vals)} constant values for {ncomp} components")
        return GridFunction(grid, np.stack(vals, axis=-1))
    field = _field_values(entry, grid)
    return GridFunction(grid, np.repeat(field[..., None], ncomp, axis=-1))


def build_solver(cfg: dict, ec: ExponentConfig) -> FixedPointConfig:
    sec = dict(cfg["solver"])
    sec.pop("horizon", None)
    try:
        return FixedPointConfig(mu=float(ec.mu), p=float(ec.p), q=float(ec.q), **sec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver section: {exc}") from exc


def config_fingerprint(cfg: dict) -> str:
    """sha256 of the canonical config JSON without ``solver.horizon`` and
    ``output``, the two sections a resumed run may change."""
    solver = {k: v for k, v in cfg["solver"].items() if k != "horizon"}
    body = {k: v for k, v in cfg.items() if k != "output"} | {"solver": solver}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def horizon_of(cfg: dict) -> float:
    sec = cfg["solver"]
    return float(sec.get("horizon", sec["window"]))
