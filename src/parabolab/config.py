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

import functools
import hashlib
import json
import math
from importlib import resources
from typing import Optional

import numpy as np
import jsonschema

from .evolution import AbstractProblem, FixedPointConfig
from .exponents import (ExponentConfig, StructureExponents, ORDER_FOURTH,
                        ORDER_SECOND, as_number, beta_window)
from .grids import BoundaryCondition, Grid, GridFunction
from .operators import DESK_EIG_CAP, active_flat_indices
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

# a run config may span at most this many windows of solver.window, so that
# a horizon far beyond the window fails before anything is written instead
# of gluing windows without end
MAX_WINDOWS = 10_000
# a run's diagnostics and `norms` measure at most this many intervals
MAX_NORM_INTERVALS = 10_000


def _schema() -> dict:
    text = resources.files("parabolab").joinpath("schema/run_config.schema.json").read_text()
    return json.loads(text)


@functools.cache
def _validator():
    """The run-config validator, checked and compiled once per process.  Its
    integers exclude floats such as 4.0 or 1e308, which numpy refuses as counts."""
    schema = _schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    types = cls.TYPE_CHECKER.redefine(
        "integer", lambda _checker, x: isinstance(x, int) and not isinstance(x, bool))
    return jsonschema.validators.extend(cls, type_checker=types)(schema)


def _finite(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"{literal} is not a finite number")
    return value


def _integer(literal: str) -> int:
    try:
        value = int(literal)
        float(value)
    except (OverflowError, ValueError):
        # int() refuses literals of more digits than sys.get_int_max_str_digits()
        raise ConfigError(f"an integer literal of {len(literal.lstrip('-'))} digits is "
                          "beyond floating point") from None
    return value


def load_json(path) -> dict:
    """The JSON document at ``path``; NaN, +-Infinity and numbers beyond
    floating point, integers among them, raise ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_finite, parse_float=_finite,
                             parse_int=_integer)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def validate_run_config(cfg: dict) -> None:
    # the error that jsonschema.validate would raise
    exc = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
    if exc is not None:
        path = "/".join(str(k) for k in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc
    diag = cfg.get("diagnostics", {})
    horizon = horizon_of(cfg)
    window = cfg["solver"]["window"]
    if horizon / window > MAX_WINDOWS:
        raise ConfigError(f"solver.horizon {horizon!r} spans more than {MAX_WINDOWS} windows "
                          f"of solver.window {window!r}")
    delta = diag.get("smoothing_delta")
    if delta is not None and delta > horizon:
        raise ConfigError(f"diagnostics.smoothing_delta {delta!r} exceeds the horizon "
                          f"{horizon!r}")
    intervals = diag.get("norm_intervals")
    n_intervals = len(intervals) if isinstance(intervals, list) else intervals or 0
    if n_intervals > MAX_NORM_INTERVALS:
        raise ConfigError(f"diagnostics.norm_intervals asks for {n_intervals} intervals, "
                          f"more than {MAX_NORM_INTERVALS}")
    if diag.get("omega_count", 0) > DESK_EIG_CAP:
        raise ConfigError(f"diagnostics.omega_count {diag['omega_count']} exceeds the "
                          f"{DESK_EIG_CAP} samples of the omega report")
    if isinstance(intervals, list):
        for lo, hi in intervals:
            if not 0.0 <= lo < hi <= horizon:
                raise ConfigError(f"diagnostics.norm_intervals [{lo!r}, {hi!r}] needs "
                                  f"0 <= lo < hi <= the horizon {horizon!r}")
    spectral = cfg["solver"].get("propagator") == "spectral"
    ncomp = cfg["problem"].get("ncomp", 1)
    if spectral and ncomp > 1:
        raise ConfigError(f"propagator 'spectral' needs one component, got problem.ncomp {ncomp}")
    # the spectral stepper and the omega report diagonalize a dense operator
    if spectral or omega_requested(diag):
        n = len(active_flat_indices(build_grid(cfg), 1, FAMILY_BC[cfg["problem"]["family"]]))
        if n > DESK_EIG_CAP:
            raise ConfigError(f"{n} unknowns exceed the dense eigendecomposition cap "
                              f"{DESK_EIG_CAP} of propagator 'spectral' and the omega report")


def omega_requested(diag: dict) -> bool:
    """Whether a run's diagnostics include the late-time cluster report."""
    return "omega_count" in diag or "omega_fraction" in diag


def load_run_config(path) -> dict:
    cfg = load_json(path)
    validate_run_config(cfg)
    return cfg


def is_flat_exponent_config(cfg: dict) -> bool:
    return "p" in cfg and "mu" in cfg and "problem" not in cfg


def build_grid(cfg: dict) -> Grid:
    g = cfg["grid"]
    return Grid(dim=g["dim"], nodes_per_axis=g["nodes"])


def _check_exponent_values(sec: dict) -> None:
    """ConfigError for an exponent value that is not a number or a fraction string."""
    value = sec.get("pairs")
    try:
        values = [sec[key] for key in ("p", "q", "mu", "beta", "epsilon") if key in sec]
        values += [x for rho, beta in sec.get("pairs", []) for x in (rho, beta)]
        for value in values:
            as_number(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"exponent value {value!r} is not a number, a fraction string "
                          "or a list of [rho, beta] pairs of them") from None


def exponent_config(cfg: dict, grid: Optional[Grid] = None) -> ExponentConfig:
    """ExponentConfig from either layout; n and order fall back to grid/problem.
    Any exponent value of the section that does not parse raises ConfigError."""
    if is_flat_exponent_config(cfg):
        sec = cfg
        n = sec.get("n")
        order = sec.get("order", ORDER_SECOND)
    else:
        sec = cfg["exponents"]
        n = (grid or build_grid(cfg)).dim
        order = FAMILY_ORDER[cfg["problem"]["family"]]
    if n is None:
        raise ConfigError("exponent config needs 'n' (or a grid section)")
    _check_exponent_values(sec)
    try:
        return ExponentConfig(p=as_number(sec["p"]), q=as_number(sec["q"]),
                              n=n, mu=as_number(sec["mu"]), order=order)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad exponent section: {exc}") from exc


def structure_exponents(cfg: dict, ec: ExponentConfig) -> StructureExponents:
    """Structure exponents with the configured beta, or the window midpoint."""
    sec = cfg if is_flat_exponent_config(cfg) else cfg["exponents"]
    kw = {"epsilon": sec["epsilon"]} if "epsilon" in sec else {}
    beta = sec["beta"] if "beta" in sec else beta_window(ec, **kw).midpoint()
    if "pairs" in sec:
        return StructureExponents(beta=beta, pairs=sec["pairs"], **kw)
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
    """The configured initial field; for a family with clamped boundary
    conditions it must vanish on the boundary, where they pin the state."""
    entry = cfg.get("initial")
    if entry is None:
        return GridFunction.zeros(grid, ncomp)
    if isinstance(entry, list):
        if len(entry) != ncomp:
            raise ConfigError(f"{len(entry)} initial fields for {ncomp} components")
        values = np.stack([_field_values(e, grid) for e in entry], axis=-1)
    elif entry["kind"] == "constant" and isinstance(entry.get("value"), list):
        vals = [np.full(grid.shape, float(v)) for v in entry["value"]]
        if len(vals) != ncomp:
            raise ConfigError(f"{len(vals)} constant values for {ncomp} components")
        values = np.stack(vals, axis=-1)
    else:
        values = np.repeat(_field_values(entry, grid)[..., None], ncomp, axis=-1)
    family = cfg.get("problem", {}).get("family")
    if FAMILY_BC.get(family) == BoundaryCondition.CLAMPED:
        # the tolerance of the window joints in ``continue_solution``
        edge = float(np.max(np.abs(values[~grid.interior_mask()])))
        if edge > 1e-8 * max(1.0, float(np.max(np.abs(values)))):
            raise ConfigError(f"initial field reaches {edge:.3e} on the boundary, where the "
                              f"clamped {family} problem needs it to vanish")
    return GridFunction(grid, values)


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
