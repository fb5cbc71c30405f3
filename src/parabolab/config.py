"""Configuration ingestion: one parse from a JSON run document to a ``RunConfig``.

``validate_run_config(doc)`` checks the document against the bundled
``schema/run_config.schema.json``, the one table of its keys, JSON types and
ranges (an error reads ``config invalid at <path>: ...``), then what a schema
cannot say: the cross-field and size limits, the exponents, the solver
section, the coefficient tables against ``problem.ncomp`` and the initial
field against the grid.  The frozen ``RunConfig`` it returns, defaults filled
in, is all that a run, ``check``, ``symbol`` or sweep cell reads;
``build_problem`` and ``build_initial`` raise no configuration error, only
the ProblemSpecError of a problem that is not well posed.  jsonschema stays
out of the runtime; the tests check that it agrees with this parse.

``check`` also takes a flat exponent table, checked against the schema's
``definitions/exponent_table``, which admits no other key, and then by the
same exponent parser.  Exponent values may be numbers or exact fraction
strings such as ``"9/10"``.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .evolution import FixedPointConfig
from .exponents import (ExponentConfig, StructureExponents, ORDER_FOURTH,
                        ORDER_SECOND, as_number, beta_window)
from .grids import BoundaryCondition, Grid, GridFunction
from .operators import DESK_EIG_CAP, active_flat_indices
from .problems import (FlowSpec, PolynomialMap, ProblemSpecError, ReactionDiffusionSpec,
                       flow_problem, is_real, linear_heat_spec, rd_problem)


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

# the problem keys of reaction_diffusion alone; another family has one
# component and rejects them
RD_TABLES = ("a", "f", "b", "u_box", "margin")

# a run config may span at most this many windows of solver.window, so that
# a horizon far beyond the window fails before anything is written instead
# of gluing windows without end
MAX_WINDOWS = 10_000
# a run's diagnostics and `norms` measure at most this many intervals
MAX_NORM_INTERVALS = 10_000
# defaults of the late-time cluster report, for `omega` and a run's diagnostics
OMEGA_COUNT, OMEGA_FRACTION, OMEGA_THRESHOLD = 8, 0.5, 1e-4


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


# ---------------------------------------------------------------- keys, types, ranges

# the keys, JSON types and ranges of a run document and of a flat exponent
# table; the defaults live in what the parse builds
_SCHEMA = json.loads((Path(__file__).parent / "schema" / "run_config.schema.json").read_text())
# the JSON types of the schema: a bool is neither an integer nor a number,
# and an integer is never a float such as 4.0, which numpy refuses as a count
_TYPES = {"integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
          "number": is_real, "string": lambda x: isinstance(x, str),
          "boolean": lambda x: isinstance(x, bool), "array": lambda x: isinstance(x, list),
          "object": lambda x: isinstance(x, dict)}


def _invalid(path: str, message: str) -> ConfigError:
    return ConfigError(f"config invalid at {path or '<root>'}: {message}")


def _resolve(sub: dict) -> tuple:
    """``sub``, or the definition that its ``$ref`` names, and its JSON types."""
    if "$ref" in sub:  # "#/definitions/<name>"
        sub = _SCHEMA["definitions"][sub["$ref"].split("/")[-1]]
    types = sub.get("type", [])
    return sub, [types] if isinstance(types, str) else types


def _check(value, sub: dict, path: str = "") -> None:
    """Raise ConfigError unless ``value`` meets ``sub``, a subschema of the
    bundled schema.  ``oneOf`` checks the first alternative whose type admits
    the value, or the first one when none does; ``minItems`` is an exact
    count (an equal ``maxItems`` goes with it), and ``properties`` lists
    every key that an object admits (``additionalProperties`` is false)."""
    sub, types = _resolve(sub)
    if "oneOf" in sub:
        alts = [_resolve(alt) for alt in sub["oneOf"]]
        sub, types = next((alt for alt in alts if any(_TYPES[t](value) for t in alt[1])),
                          alts[0])
    if types and not any(_TYPES[t](value) for t in types):
        raise _invalid(path, f"{value!r} is not of type {' or '.join(types)}")
    if "enum" in sub and value not in sub["enum"]:
        raise _invalid(path, f"{value!r} is not one of {sub['enum']}")
    for key, fails, relation in (("minimum", operator.lt, ">="),
                                 ("exclusiveMinimum", operator.le, ">"),
                                 ("maximum", operator.gt, "<=")):
        if key in sub and fails(value, sub[key]):
            raise _invalid(path, f"{value!r} is not {relation} {sub[key]!r}")
    if "minItems" in sub and len(value) != sub["minItems"]:
        raise _invalid(path, f"{value!r} does not hold {sub['minItems']} items")
    for i, item in enumerate(value if "items" in sub else ()):
        _check(item, sub["items"], f"{path}/{i}")
    if "properties" in sub:
        unknown = [k for k in value if k not in sub["properties"]]
        missing = [k for k in sub.get("required", ()) if k not in value]
        if unknown or missing:
            raise _invalid(path, f"unknown key {unknown[0]!r}" if unknown
                           else f"missing key {missing[0]!r}")
        for key, item in value.items():
            _check(item, sub["properties"][key], f"{path}/{key}" if path else key)


# ---------------------------------------------------------------- the parsed config

@dataclass(frozen=True)
class Exponents:
    """The exponent section.  ``structure`` is None when the structure
    exponents cannot be formed, for the reason ``violation``."""

    config: ExponentConfig
    structure: Optional[StructureExponents]
    violation: str = ""


@dataclass(frozen=True)
class Diagnostics:
    """What a run measures: ``norm_intervals`` equal parts, or a list of
    ``[lo, hi]``; ``smoothing_delta`` None is half the horizon reached;
    ``omega`` is whether the late-time cluster report is asked for."""

    norm_intervals: Union[int, list] = 4
    smoothing_delta: Optional[float] = None
    omega: bool = False
    omega_count: int = OMEGA_COUNT
    omega_fraction: float = OMEGA_FRACTION
    omega_threshold: float = OMEGA_THRESHOLD
    symbol_scan: bool = False


@dataclass(frozen=True)
class RunConfig:
    """A parsed run document, defaults filled in.  ``ncomp`` counts the
    state's components (1 but for reaction_diffusion, whose spec arguments
    ``a``/``f``/``b``/``u_box``/``margin`` are ``tables``).  ``doc`` is the
    document, which the resume fingerprint hashes and a sweep edits."""

    doc: dict = field(repr=False, compare=False)
    name: str
    seed: int
    family: str
    ncomp: int
    tables: dict
    grid: Grid
    exponents: Exponents
    solver: FixedPointConfig
    horizon: float
    initial: GridFunction = field(repr=False, compare=False)
    diagnostics: Diagnostics
    output_dir: Optional[str]

    @property
    def order(self) -> str:
        return FAMILY_ORDER[self.family]

    @property
    def bc(self) -> BoundaryCondition:
        return FAMILY_BC[self.family]


def is_flat_exponent_config(doc) -> bool:
    return isinstance(doc, dict) and "p" in doc and "mu" in doc and "problem" not in doc


def _parse_exponents(sec: dict, n: int, order: str) -> Exponents:
    """The exponents of ``sec`` (keys p, q, mu, optional beta, epsilon,
    pairs) in dimension ``n`` at differential ``order``.  A value that does
    not parse, or an ExponentConfig out of range, raises ConfigError; beta
    defaults to the midpoint of the beta window."""
    try:
        values = [sec[key] for key in ("p", "q", "mu", "beta", "epsilon") if key in sec]
        values += [x for rho, beta in sec.get("pairs", []) for x in (rho, beta)]
        for value in values:
            as_number(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"exponent value {value!r} is not a number, a fraction string "
                          "or a list of [rho, beta] pairs of them") from None
    try:
        ec = ExponentConfig(p=as_number(sec["p"]), q=as_number(sec["q"]), n=n,
                            mu=as_number(sec["mu"]), order=order)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad exponent section: {exc}") from exc
    kw = {"epsilon": sec["epsilon"]} if "epsilon" in sec else {}
    try:
        beta = sec["beta"] if "beta" in sec else beta_window(ec, **kw).midpoint()
        if "pairs" in sec:
            return Exponents(ec, StructureExponents(beta=beta, pairs=sec["pairs"], **kw))
        return Exponents(ec, StructureExponents.for_problem(ec, beta, **kw))
    except ValueError as exc:
        return Exponents(ec, None, str(exc))


def flat_exponents(doc: dict) -> Exponents:
    """The exponents of a flat exponent table, the layout of ``check``."""
    _check(doc, _SCHEMA["definitions"]["exponent_table"])
    return _parse_exponents(doc, doc["n"], doc.get("order", ORDER_SECOND))


def _numbers(value, what: str) -> np.ndarray:
    """``value``, a number or a nested list of numbers of equal lengths, as a
    float array."""
    try:
        arr = np.array(value, dtype=object)
        if all(is_real(x) for x in arr.flat):
            return arr.astype(float)
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"{what} is not a number or a nested list of numbers of equal lengths")


def _field_values(entry: dict, grid: Grid, where: str) -> np.ndarray:
    kind, amp, k = entry["kind"], entry.get("amplitude", 1.0), entry.get("wavenumber", 1)
    if kind == "constant":
        value = entry.get("value", 0.0)
        if not is_real(value):
            raise ConfigError(f"{where}.value {value!r} is not a number")
        return np.full(grid.shape, float(value))
    if kind in ("cosine", "sine_squared"):
        prof = np.ones(grid.shape)
        for x in grid.coords():
            prof = prof * (np.cos(k * np.pi * x) if kind == "cosine"
                           else np.sin(k * np.pi * x) ** 2)
        return entry.get("offset", 0.0) + amp * prof if kind == "cosine" else amp * prof
    if "values" not in entry:
        raise ConfigError(f"{where} of kind 'values' has no 'values'")
    vals = _numbers(entry["values"], f"{where}.values")
    if vals.shape != grid.shape:
        raise ConfigError(f"values shape {vals.shape} does not match grid {grid.shape}")
    return vals


# an amplitude near the largest float overflows, and is rejected as not finite
@np.errstate(over="ignore", invalid="ignore")
def _initial(entry, grid: Grid, ncomp: int) -> GridFunction:
    """The initial field of ``ncomp`` components on ``grid``, zero without
    an ``initial`` section."""
    if entry is None:
        values = np.zeros(grid.shape + (ncomp,))
    elif isinstance(entry, list):
        if len(entry) != ncomp:
            raise ConfigError(f"{len(entry)} initial fields for {ncomp} components")
        values = np.stack([_field_values(e, grid, f"initial[{i}]")
                           for i, e in enumerate(entry)], axis=-1)
    elif entry["kind"] == "constant" and isinstance(entry.get("value"), list):
        vals = _numbers(entry["value"], "initial.value")
        if vals.shape != (ncomp,):
            raise ConfigError(f"initial.value {entry['value']!r} does not hold one number "
                              f"for each of {ncomp} components")
        values = np.stack([np.full(grid.shape, v) for v in vals], axis=-1)
    else:
        values = np.repeat(_field_values(entry, grid, "initial")[..., None], ncomp, axis=-1)
    if not np.all(np.isfinite(values)):
        raise ConfigError("the initial field is not finite")
    values.flags.writeable = False
    return GridFunction(grid, values)


def _tables(sec: dict) -> dict:
    """The spec arguments of a reaction_diffusion problem section, f and b
    zero when not given."""
    N = sec.get("ncomp", 1)
    if "a" not in sec or "u_box" not in sec:
        raise ConfigError("reaction_diffusion needs 'a' and 'u_box'")
    tables = {"u_box": tuple(map(tuple, sec["u_box"])), "margin": sec.get("margin", 0.0)}
    for key, shape in (("a", (N, N)), ("f", (N,)), ("b", (N, N, N))):
        try:
            tables[key] = (PolynomialMap.constant(np.zeros(shape)) if sec.get(key) is None
                           else PolynomialMap.from_table(sec[key], shape, N))
        except ProblemSpecError as exc:
            raise ConfigError(f"problem.{key}: {exc}") from None
    return tables


def validate_run_config(doc: dict) -> RunConfig:
    """The one parse of a run document into a RunConfig; any fault of the
    document raises ConfigError (see the module docstring)."""
    _check(doc, _SCHEMA)
    solver = doc["solver"]
    diag = doc.get("diagnostics", {})
    problem = doc["problem"]
    family = problem["family"]
    ncomp = problem.get("ncomp", 1)
    rd = family == "reaction_diffusion"
    if not rd:
        given = [f"problem.ncomp {ncomp}"] if ncomp != 1 else []
        given += [f"problem.{key}" for key in RD_TABLES if key in problem]
        if given:
            raise ConfigError(f"{', '.join(given)} given for family {family!r}, which has "
                              f"one component and no coefficient tables")
    window = solver["window"]
    horizon = float(solver.get("horizon", window))
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
    spectral = solver.get("propagator") == "spectral"
    if spectral and ncomp > 1:
        raise ConfigError(f"propagator 'spectral' needs one component, got problem.ncomp {ncomp}")
    if spectral and FAMILY_ORDER[family] == ORDER_FOURTH:
        raise ConfigError(f"propagator 'spectral' needs an operator symmetric in its pairing, "
                          f"and the {family} family's A(h) is one only at zero slope")
    grid = Grid(dim=doc["grid"]["dim"], nodes_per_axis=doc["grid"]["nodes"])
    omega = "omega_count" in diag or "omega_fraction" in diag
    # the spectral stepper and the omega report diagonalize a dense operator
    if spectral or omega:
        n = len(active_flat_indices(grid, 1, FAMILY_BC[family]))
        if n > DESK_EIG_CAP:
            raise ConfigError(f"{n} unknowns exceed the dense eigendecomposition cap "
                              f"{DESK_EIG_CAP} of propagator 'spectral' and the omega report")
    exponents = _parse_exponents(doc["exponents"], grid.dim, FAMILY_ORDER[family])
    ec = exponents.config
    try:
        fp = FixedPointConfig(mu=float(ec.mu), p=float(ec.p), q=float(ec.q),
                              **{k: v for k, v in solver.items() if k != "horizon"})
    except ValueError as exc:
        raise ConfigError(f"bad solver section: {exc}") from exc
    return RunConfig(
        doc=doc, name=doc.get("name", family), seed=doc.get("seed", 0), family=family,
        ncomp=ncomp, tables=_tables(problem) if rd else {}, grid=grid,
        exponents=exponents, solver=fp, horizon=horizon,
        initial=_initial(doc.get("initial"), grid, ncomp),
        diagnostics=Diagnostics(**diag, omega=omega), output_dir=doc.get("output", {}).get("dir"))


def load_run_config(path) -> RunConfig:
    return validate_run_config(load_json(path))


# ---------------------------------------------------------------- building

def build_problem(rc: RunConfig):
    """Returns (AbstractProblem, spec object) for the configured family."""
    if rc.family == "heat":
        spec = linear_heat_spec(rc.grid)
        return rd_problem(spec), spec
    if rc.family == "reaction_diffusion":
        spec = ReactionDiffusionSpec(grid=rc.grid, ncomp=rc.ncomp, name=rc.name, **rc.tables)
        return rd_problem(spec), spec
    spec = FlowSpec(grid=rc.grid, kind=rc.family, name=rc.name)
    return flow_problem(spec), spec


def build_initial(rc: RunConfig) -> GridFunction:
    """The configured initial field.  For a family with clamped boundary
    conditions it must vanish on the boundary, where they pin the state;
    one that does not raises ProblemSpecError."""
    values = rc.initial.values
    if rc.bc == BoundaryCondition.CLAMPED:
        # the tolerance of the window joints in ``continue_solution``
        edge = float(np.max(np.abs(values[~rc.grid.interior_mask()])))
        if edge > 1e-8 * max(1.0, float(np.max(np.abs(values)))):
            raise ProblemSpecError(f"initial field reaches {edge:.3e} on the boundary, where "
                                   f"the clamped {rc.family} problem needs it to vanish")
    return rc.initial


def config_fingerprint(doc: dict) -> str:
    """sha256 of the canonical config JSON without ``solver.horizon`` and
    ``output``, the two sections a resumed run may change."""
    solver = {k: v for k, v in doc["solver"].items() if k != "horizon"}
    body = {k: v for k, v in doc.items() if k != "output"} | {"solver": solver}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
