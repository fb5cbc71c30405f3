"""Configuration parsing and object construction tests."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from copy import deepcopy
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parabolab
from parabolab import config
from parabolab.config import (FAMILY_BC, FAMILY_ORDER, MAX_WINDOWS, OMEGA_COUNT, ConfigError,
                              RunConfig, build_initial, build_problem, flat_exponents,
                              is_flat_exponent_config, load_json, load_run_config,
                              validate_run_config)
from parabolab.evolution import PROPAGATORS
from parabolab.exponents import ORDER_FOURTH, ORDER_SECOND
from parabolab.grids import Grid
from parabolab.problems import ProblemSpecError

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


def test_horizon_spans_at_most_max_windows():
    cfg = minimal_cfg()
    cfg["solver"]["horizon"] = 0.05 * MAX_WINDOWS
    validate_run_config(cfg)
    for horizon in (0.05 * (MAX_WINDOWS + 1), 1e308):
        cfg["solver"]["horizon"] = horizon
        with pytest.raises(ConfigError, match="spans more than"):
            validate_run_config(cfg)


def test_load_run_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_cfg()))
    rc = load_run_config(path)
    assert rc.family == "heat" and rc.doc == minimal_cfg()
    # the defaults are filled in
    assert (rc.name, rc.seed, rc.horizon, rc.output_dir) == ("heat", 0, 0.05, None)
    assert rc.diagnostics.norm_intervals == 4 and rc.diagnostics.smoothing_delta is None
    assert not rc.diagnostics.omega and rc.diagnostics.omega_count == OMEGA_COUNT


def test_bundled_configs_validate():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) >= 4
    for path in paths:
        assert isinstance(load_run_config(path), RunConfig)


# ---------------------------------------------------------------- exponents

def test_flat_exponent_config():
    flat = {"p": 2, "q": 2, "n": 1, "mu": "9/10"}
    assert is_flat_exponent_config(flat)
    assert not is_flat_exponent_config(minimal_cfg())
    assert not is_flat_exponent_config(5)
    ec = flat_exponents(flat).config
    assert ec.mu == Fraction(9, 10)
    assert ec.order == ORDER_SECOND
    ec4 = flat_exponents({"p": 2, "q": 2, "n": 1, "mu": "19/20", "order": ORDER_FOURTH}).config
    assert ec4.order == ORDER_FOURTH
    with pytest.raises(ConfigError):
        flat_exponents({"p": 2, "q": 2, "mu": "9/10"})  # no n, no grid
    # a misspelt key fails instead of falling back to its default
    for key, value, message in [("Beta", "2/3", "<root>: unknown key 'Beta'"),
                                ("order", ["x"], "order: ['x'] is not one of"),
                                ("n", 0, "n: 0 is not >= 1")]:
        with pytest.raises(ConfigError, match=f"^config invalid at {re.escape(message)}"):
            flat_exponents({**flat, key: value})


def test_nested_exponent_config_infers_n_and_order():
    cfg = minimal_cfg(problem={"family": "willmore"},
                      exponents={"p": 2, "q": 2, "mu": "19/20"})
    ec = validate_run_config(cfg).exponents.config
    assert ec.n == 1
    assert ec.order == ORDER_FOURTH
    cfg2 = minimal_cfg(grid={"dim": 2, "nodes": 16})
    assert validate_run_config(cfg2).exponents.config.n == 2
    with pytest.raises(ConfigError):
        validate_run_config(minimal_cfg(exponents={"p": 2, "q": 2, "mu": "banana"}))


def test_structure_exponents_default_beta_is_midpoint():
    se = validate_run_config(minimal_cfg()).exponents.structure
    assert se.beta == Fraction(53, 80)   # midpoint of (5/8, 7/10)
    cfg_b = minimal_cfg(exponents={"p": 2, "q": 2, "mu": "9/10", "beta": "2/3"})
    assert validate_run_config(cfg_b).exponents.structure.beta == Fraction(2, 3)
    # an empty beta window is an admissibility violation, not a parse error
    empty = validate_run_config(minimal_cfg(exponents={"p": 2, "q": 2, "mu": "3/4"}))
    assert empty.exponents.structure is None and "window is empty" in empty.exponents.violation


def test_structure_exponents_explicit_pairs_and_epsilon():
    cfg = minimal_cfg(exponents={"p": 2, "q": 2, "mu": "9/10", "beta": "2/3",
                                 "pairs": [["1", "2/3"], ["2", "2/5"]]})
    se = validate_run_config(cfg).exponents.structure
    assert se.pairs == ((Fraction(1), Fraction(2, 3)), (Fraction(2), Fraction(2, 5)))
    cfg4 = minimal_cfg(problem={"family": "willmore"},
                       exponents={"p": 2, "q": 2, "mu": "19/20", "beta": "5/6",
                                  "epsilon": "1/2000"})
    se4 = validate_run_config(cfg4).exponents.structure
    assert se4.epsilon == Fraction(1, 2000)


# ---------------------------------------------------------------- building

def test_build_grid():
    assert validate_run_config(minimal_cfg()).grid == Grid(1, 16)


def test_build_problem_families():
    prob, spec = build_problem(validate_run_config(minimal_cfg()))
    assert prob.name == "heat" and prob.order == "second"
    rd = minimal_cfg(problem={
        "family": "reaction_diffusion", "ncomp": 1,
        "a": [[[1.0, 0.0, 1.0]]], "u_box": [[-2.0, 2.0]]})
    prob2, spec2 = build_problem(validate_run_config(rd))
    assert prob2.order == "second"
    assert spec2.a(np.array([[1.0]]))[0, 0, 0] == pytest.approx(2.0)
    prob3, spec3 = build_problem(validate_run_config(minimal_cfg(problem={"family": "willmore"})))
    assert prob3.order == "fourth" and spec3.kind == "willmore"
    with pytest.raises(ConfigError):
        validate_run_config(minimal_cfg(problem={"family": "reaction_diffusion"}))


def _initial(entry=None, ncomp=1, family="reaction_diffusion"):
    """The initial field of a config on 9 nodes, of ``ncomp`` components."""
    problem = {"family": family}
    if family == "reaction_diffusion":
        problem.update(ncomp=ncomp, a=np.eye(ncomp).tolist(), u_box=[[-9.0, 9.0]] * ncomp)
    cfg = minimal_cfg(grid={"dim": 1, "nodes": 9}, problem=problem)
    if entry is not None:
        cfg["initial"] = entry
    return build_initial(validate_run_config(cfg))


def test_build_initial_variants():
    x = Grid(1, 9).axis_coords()
    zero = _initial(ncomp=2)
    assert zero.values.shape == (9, 2)
    assert np.all(zero.values == 0.0)

    cos = _initial({"kind": "cosine", "amplitude": 0.5, "wavenumber": 2, "offset": 1.0})
    assert np.allclose(cos.scalar, 1.0 + 0.5 * np.cos(2 * np.pi * x))

    sin2 = _initial({"kind": "sine_squared", "amplitude": 2.0})
    assert np.allclose(sin2.scalar, 2.0 * np.sin(np.pi * x) ** 2)

    const = _initial({"kind": "constant", "value": [1.0, -1.0]}, ncomp=2)
    assert np.all(const.values[..., 0] == 1.0) and np.all(const.values[..., 1] == -1.0)

    per_comp = _initial([{"kind": "constant", "value": 3.0}, {"kind": "cosine"}], ncomp=2)
    assert np.all(per_comp.values[..., 0] == 3.0)

    vals = _initial({"kind": "values", "values": list(np.arange(9.0))})
    assert vals.scalar[-1] == 8.0

    with pytest.raises(ConfigError):
        _initial({"kind": "values", "values": [1.0, 2.0]})
    with pytest.raises(ConfigError):
        _initial({"kind": "sawtooth"})
    with pytest.raises(ConfigError):
        _initial([{"kind": "constant"}], ncomp=2)
    # a clamped problem pins its state to zero on the boundary
    assert _initial({"kind": "sine_squared"}, family="willmore").values[0, 0] < 1e-30
    with pytest.raises(ProblemSpecError, match="on the boundary"):
        _initial({"kind": "cosine"}, family="willmore")


def test_build_solver_and_horizon():
    cfg = minimal_cfg(solver={"window": 0.05, "time_steps": 8, "horizon": 0.2,
                              "tol": 1e-8, "propagator": "spectral"})
    rc = validate_run_config(cfg)
    sc = rc.solver
    assert sc.window == 0.05 and sc.time_steps == 8
    assert sc.tol == 1e-8 and sc.propagator == "spectral"
    assert sc.mu == 0.9 and sc.p == 2.0
    assert rc.horizon == 0.2
    assert validate_run_config(minimal_cfg()).horizon == 0.05  # defaults to one window
    bad = minimal_cfg(solver={"window": 0.05, "time_steps": 1})
    with pytest.raises(ConfigError):
        validate_run_config(bad)


# ---------------------------------------------------------------- the schema

def _schema_validator(sub=None):
    """The bundled schema's validator, of its root or of the definition
    ``sub``; its integers exclude floats such as 4.0 and bools, as the
    parser's do."""
    schema = json.loads(resources.files("parabolab").joinpath(
        "schema/run_config.schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    types = cls.TYPE_CHECKER.redefine(
        "integer", lambda _checker, x: isinstance(x, int) and not isinstance(x, bool))
    if sub is not None:
        schema = {"definitions": schema["definitions"], "$ref": f"#/definitions/{sub}"}
    return jsonschema.validators.extend(cls, type_checker=types)(schema)


_SCHEMA = _schema_validator()
_TABLE = _schema_validator("exponent_table")
_BUNDLED = {path.name: load_json(path) for path in sorted(
    [*CONFIG_DIR.glob("*.json"), *(CONFIG_DIR.parent / "perfbench" / "configs").glob("*.json")])}
# the flat exponent table of each bundled config, as ``check`` reads it
_FLAT = {name: {**doc["exponents"], "n": doc["grid"]["dim"],
                "order": FAMILY_ORDER[doc["problem"]["family"]]}
         for name, doc in _BUNDLED.items()}
# values of the wrong JSON type, or at the edges of any field: small
# integers (a larger grid would only cost memory), floats of integral value,
# huge floats, strings, bools, null, arrays and objects
_TYPE_EDGES = ["abc", True, None, [], {}, 2, 1.5, 4.0]
_EDGE_VALUES = _TYPE_EDGES + [0, -1, 1, 8, 100, 0.0, -0.5, 1e-300, 1e308, "1/0", "9/10", "",
                              False, [2], [[0, 1]], [[1, 2, 3]], {"kind": "constant"},
                              {"kind": "values", "values": []}]


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _resolve(sub: dict) -> dict:
    return _at(_SCHEMA.schema, sub["$ref"].split("/")[1:]) if "$ref" in sub else sub


def _objects(sub, path=()):
    """(path, subschema) of ``sub`` and of every object under it that the
    schema documents, an initial field among them."""
    sub = _resolve(sub)
    if "properties" in sub:
        yield path, sub
    for alt in sub.get("oneOf", ()):
        yield from _objects(alt, path)
    for key, child in sub.get("properties", {}).items():
        yield from _objects(child, path + (key,))


def _bounds(sub: dict) -> list:
    """Values at and around each bound and choice that ``sub`` states."""
    out = []
    for alt in map(_resolve, _resolve(sub).get("oneOf", [sub])):
        for key in ("minimum", "exclusiveMinimum", "maximum"):
            if key in alt:
                b = alt[key]
                out += [b, b - 1, b + 1, float(b), b - 1e-9, b + 1e-9]
        out += alt.get("enum", []) + (["bogus"] if "enum" in alt else [])
    return out


def _edits(values, root=None) -> list:
    """Every single edit of a document of the schema ``root``, by default a
    run document: ("set", path, value) puts a value at a documented key,
    with ``values`` besides the key's own bounds, or an unknown key into a
    documented object; ("drop", path, None) drops a required key."""
    objects = list(_objects(_SCHEMA.schema if root is None else root))
    return ([("set", path + (key,), v) for path, obj in objects
             for key, child in obj["properties"].items() for v in _bounds(child) + values]
            + [("set", path + ("radius",), 1.0) for path, _ in objects]
            + [("drop", path + (key,), None) for path, obj in objects
               for key in obj.get("required", [])])


def _apply(doc: dict, edit) -> dict:
    """``doc`` with ``edit`` applied, creating missing objects on its path;
    unchanged where that path runs through a value that is not an object."""
    kind, path, value = edit
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else None
    if isinstance(node, dict):
        if kind == "set":
            node[path[-1]] = deepcopy(value)
        else:
            node.pop(path[-1], None)
    return doc


def _assert_agree(doc, schema=_SCHEMA, parse=validate_run_config) -> None:
    """``parse`` rejects ``doc`` as ``config invalid at`` a section that
    ``schema`` faults when the schema rejects it; when the schema accepts
    it, any fault the parser finds is one that no schema states."""
    sections = {str(e.absolute_path[0]) if e.absolute_path else "<root>"
                for e in schema.iter_errors(doc)}
    try:
        parse(doc)
        message = ""
    except ConfigError as exc:
        message = str(exc)
    if sections:
        assert message.startswith("config invalid at "), (doc, sections, message)
        assert message[len("config invalid at "):].split(":")[0].split("/")[0] in sections, \
            (doc, sections, message)
    else:
        assert "config invalid at" not in message, (doc, message)


def test_every_documented_bound_agrees_with_the_parser():
    for base in ("heat.json", "reaction_diffusion.json"):
        for edit in _edits(_TYPE_EDGES):
            _assert_agree(_apply(deepcopy(_BUNDLED[base]), edit))


def test_every_flat_table_edit_agrees_with_the_parser():
    for table in _FLAT.values():
        for edit in _edits(_EDGE_VALUES, _TABLE.schema):
            _assert_agree(_apply(deepcopy(table), edit), _TABLE, flat_exponents)


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(sorted(_BUNDLED)),
       edits=st.lists(st.sampled_from(_edits(_EDGE_VALUES)), min_size=1, max_size=3))
def test_the_schema_and_the_parser_agree_on_edited_configs(base, edits):
    doc = deepcopy(_BUNDLED[base])
    for edit in edits:
        _apply(doc, edit)
    _assert_agree(doc)


@settings(max_examples=100, deadline=None)
@given(base=st.sampled_from(sorted(_FLAT)),
       edits=st.lists(st.sampled_from(_edits(_EDGE_VALUES, _TABLE.schema)), min_size=2,
                      max_size=3))
def test_the_schema_and_the_parser_agree_on_edited_flat_tables(base, edits):
    table = deepcopy(_FLAT[base])
    for edit in edits:
        _apply(table, edit)
    _assert_agree(table, _TABLE, flat_exponents)


# the keywords that config._check reads, and the annotations it skips
_CHECKED = {"type", "enum", "minimum", "exclusiveMinimum", "maximum", "minItems", "maxItems",
            "items", "properties", "required", "additionalProperties", "$ref", "oneOf"}
_ANNOTATIONS = {"$schema", "title", "description", "definitions"}


def _subschemas(sub: dict):
    """``sub`` and every subschema under it, definitions among them."""
    yield sub
    for child in [*sub.get("definitions", {}).values(), *sub.get("properties", {}).values(),
                  *sub.get("oneOf", []), *([sub["items"]] if "items" in sub else [])]:
        yield from _subschemas(child)


def test_the_parser_reads_every_keyword_of_the_schema():
    """A keyword that the parse does not implement would leave its
    constraint unchecked, and an enum out of step with the code would admit
    a value that the run cannot take."""
    schema = _SCHEMA.schema
    for sub in _subschemas(schema):
        assert set(sub) <= _CHECKED | _ANNOTATIONS, sub
        types = sub.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(config._TYPES), sub
        assert isinstance(sub.get("items", {}), dict), sub
        # the parse reads minItems as an exact count, and properties as
        # every key that an object admits
        assert sub.get("minItems") == sub.get("maxItems"), sub
        assert ("properties" in sub) == (sub.get("additionalProperties") is False), sub
        if "$ref" in sub:
            assert sub["$ref"].split("/")[:2] == ["#", "definitions"], sub
            assert sub["$ref"].split("/")[-1] in schema["definitions"], sub
    run = schema["properties"]
    assert run["problem"]["properties"]["family"]["enum"] == list(FAMILY_ORDER)
    assert list(FAMILY_ORDER) == list(FAMILY_BC)
    assert set(run["solver"]["properties"]["propagator"]["enum"]) == set(PROPAGATORS)
    orders = schema["definitions"]["exponent_table"]["properties"]["order"]["enum"]
    assert orders == [ORDER_SECOND, ORDER_FOURTH] and set(orders) == set(FAMILY_ORDER.values())


def test_importing_the_cli_leaves_jsonschema_out():
    env = dict(os.environ)
    src = str(Path(parabolab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, parabolab.cli, parabolab.config as c; "
            f"c.load_run_config({str(CONFIG_DIR / 'heat.json')!r}); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
