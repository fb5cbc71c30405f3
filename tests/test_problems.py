"""Problem-family oracles.

Stacked right-hand side: each problem's G hook, evaluated on a stack of
samples (in blocks of samples when the stack is large), agrees sample by
sample with F1 + F2 - A(v) v from the one-field hooks and the assembled
operator (for the flows on the interior, the clamped operator's unknowns),
and for the flows with the one-field geometry right-hand sides.

Flow residual: F2(h) = A(h) h + G(h) on the unknowns subtracts the full
fourth-order part from the normal-velocity right-hand side, so it vanishes at
h = 0 and decays cubically in the graph amplitude (measured slope 3.0 per
decade); it is 0 where the clamped condition pins h.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import surface_fields
from parabolab import problems
from parabolab.evolution import StateConstraintError
from parabolab.geometry import surface_diffusion_rhs, willmore_rhs
from parabolab.grids import BoundaryCondition, Grid, GridFunction
from parabolab.operators import derivative, neumann_laplacian, reference_operator
from parabolab.problems import (FlowSpec, PolynomialMap, ProblemSpecError,
                                ReactionDiffusionSpec, flow_problem,
                                linear_heat_spec, rd_problem,
                                spectrum_positivity_check)

CLA = BoundaryCondition.CLAMPED


def scalar_spec(grid, a_series, f_series=(0.0,), b_const=0.0, box=2.0, margin=0.0):
    return ReactionDiffusionSpec(
        grid=grid, ncomp=1,
        a=PolynomialMap.scalar_series(a_series, shape=(1, 1), out_index=(0, 0)),
        f=PolynomialMap.scalar_series(f_series, shape=(1,), out_index=(0,)),
        b=PolynomialMap.constant(np.full((1, 1, 1), float(b_const))),
        u_box=np.array([[-box, box]]), margin=margin)


# ---------------------------------------------------------------- polynomials

def test_polynomial_map_evaluation():
    # 1 + 2u + 3u^2 at u = 2 is 17
    p = PolynomialMap.scalar_series([1.0, 2.0, 3.0], shape=(1,), out_index=(0,))
    out = p(np.array([[2.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(17.0)
    c = PolynomialMap.constant(np.array([[1.0, 0.5], [0.0, 2.0]]))
    got = c(np.array([[9.9]]))
    assert np.array_equal(got[0], [[1.0, 0.5], [0.0, 2.0]])


def test_polynomial_map_multivariate():
    # out[0] = u0 * u1, out[1] = u0^2, two state variables
    p = PolynomialMap(shape=(2,), nvars=2,
                      terms=(((0,), (1, 1), 1.0), ((1,), (2, 0), 1.0)))
    out = p(np.array([[3.0, 4.0]]))
    assert np.allclose(out[0], [12.0, 9.0])


def test_polynomial_map_from_table():
    p = PolynomialMap.from_table([[ [1.0, 0.0, 1.0] ]], shape=(1, 1), nvars=1)
    assert p(np.array([[2.0]]))[0, 0, 0] == pytest.approx(5.0)
    q = PolynomialMap.from_table(
        [{"terms": [{"powers": [1, 1], "coeff": 2.0}]}, 3.0], shape=(2,), nvars=2)
    out = q(np.array([[2.0, 5.0]]))
    assert np.allclose(out[0], [20.0, 3.0])
    with pytest.raises(ProblemSpecError):
        PolynomialMap.from_table([[1.0]], shape=(2,), nvars=1)  # wrong length
    with pytest.raises(ProblemSpecError):
        PolynomialMap.from_table(["x"], shape=(1,), nvars=1)
    with pytest.raises(ProblemSpecError):
        PolynomialMap.from_table([[1.0, 2.0]], shape=(1,), nvars=2)  # series needs nvars 1


@pytest.mark.parametrize("table,shape,nvars", [
    ([{"x": 1}], (1,), 1),
    ([{"terms": 5}], (1,), 1),
    ([{"terms": [5]}], (1,), 1),
    ([{"terms": [{"powers": [1]}]}], (1,), 1),                       # no coeff
    ([{"terms": [{"powers": ["a"], "coeff": 1.0}]}], (1,), 1),
    ([{"terms": [{"powers": [1.5], "coeff": 1.0}]}], (1,), 1),
    ([{"terms": [{"powers": [-1], "coeff": 1.0}]}], (1,), 1),
    ([{"terms": [{"powers": [1], "coeff": "2"}]}], (1,), 1),
    ([{"terms": [], "extra": 1}], (1,), 1),
    ([[1.0, [2.0]]], (1,), 1),                                       # a list in a series
    ([[1.0, None]], (1,), 1),
    ([[[[1.0]]]], (1,), 1),
    ([True], (1,), 1),
    ([None], (1,), 1),
    ([[1.0, 2.0]], (1, 1), 1),                                       # a level too shallow
])
def test_polynomial_map_from_table_rejects_malformed_leaves(table, shape, nvars):
    with pytest.raises(ProblemSpecError):
        PolynomialMap.from_table(table, shape=shape, nvars=nvars)


def test_polynomial_map_validation():
    with pytest.raises(ProblemSpecError):
        PolynomialMap(shape=(1,), nvars=1, terms=(((0, 0), (1,), 1.0),))
    with pytest.raises(ProblemSpecError):
        PolynomialMap(shape=(1,), nvars=2, terms=(((0,), (1,), 1.0),))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_polynomial_map_agrees_with_direct_evaluation(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="shape"))
    nvars = data.draw(st.integers(1, 3), label="nvars")
    out_index = st.tuples(*(st.integers(0, n - 1) for n in shape))
    term = st.tuples(out_index, st.tuples(*[st.integers(0, 3)] * nvars),
                     st.floats(-10.0, 10.0))
    terms = tuple(data.draw(st.lists(term, max_size=6), label="terms"))
    pm = PolynomialMap(shape=shape, nvars=nvars, terms=terms)
    lead = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2), label="lead"))
    u = data.draw(arrays(np.float64, lead + (nvars,), elements=st.floats(-3.0, 3.0)),
                  label="u")
    _assert_agrees_with_direct_evaluation(pm, u, lead)


def test_polynomial_map_subnormal_result():
    # a recorded draw: 2 u0 u2^2 is subnormal, and the two evaluation orders
    # differ by one subnormal ulp, which 1e-13 * scale alone would reject
    pm = PolynomialMap(shape=(1, 1), nvars=3, terms=(((0, 0), (1, 0, 2), 2.0),))
    _assert_agrees_with_direct_evaluation(pm, np.array([[1.5, 1.78e-159, 1.78e-159]]), (1,))


def _assert_agrees_with_direct_evaluation(pm, u, lead):
    out = pm(u)
    assert out.shape == lead + pm.shape
    for point in np.ndindex(lead):
        expect = np.zeros(pm.shape)
        scale = np.zeros(pm.shape)
        for idx, powers, coeff in pm.terms:
            mono = coeff * float(np.prod([u[point][a] ** k for a, k in enumerate(powers)]))
            expect[idx] += mono
            scale[idx] += abs(mono)
        # relative precision ends at the smallest normal number; below it the
        # spacing of doubles is absolute
        bound = 1e-13 * np.maximum(scale, np.finfo(float).tiny)
        assert np.all(np.abs(out[point] - expect) <= bound)


# ---------------------------------------------------------------- positivity

def test_positivity_identity_matrix():
    a = PolynomialMap.constant(np.eye(2))
    rep = spectrum_positivity_check(a, [[-1.0, 1.0], [-1.0, 1.0]])
    assert rep.ok
    assert rep.min_real_part == pytest.approx(1.0)


def test_positivity_one_plus_u_squared():
    a = PolynomialMap.scalar_series([1.0, 0.0, 1.0], shape=(1, 1), out_index=(0, 0))
    rep = spectrum_positivity_check(a, [[-2.0, 2.0]])
    assert rep.ok
    assert rep.min_real_part == pytest.approx(1.0)  # minimum at u = 0
    assert rep.worst_state == (0.0,)


def test_spec_rejects_nonpositive_diffusion():
    grid = Grid(1, 9)
    with pytest.raises(ProblemSpecError) as exc:
        scalar_spec(grid, a_series=[0.0, 1.0], box=1.0)  # a = u changes sign
    assert "positivity" in str(exc.value)
    with pytest.raises(ProblemSpecError):
        scalar_spec(grid, a_series=[0.0, 0.0, 1.0], box=1.0)  # a = u^2 touches 0


def test_spec_shape_and_box_validation():
    grid = Grid(1, 9)
    good = PolynomialMap.constant(np.array([[1.0]]))
    with pytest.raises(ProblemSpecError):
        ReactionDiffusionSpec(grid=grid, ncomp=2, a=good,
                              f=PolynomialMap.constant(np.zeros(2)),
                              b=PolynomialMap.constant(np.zeros((2, 2, 2))),
                              u_box=np.array([[-1, 1], [-1, 1]]))
    with pytest.raises(ProblemSpecError):
        scalar_spec(grid, a_series=[1.0], box=-1.0)  # lo >= hi


# ---------------------------------------------------------------- rd problems

def test_heat_apply_is_negative_laplacian():
    grid = Grid(1, 33)
    prob = rd_problem(linear_heat_spec(grid))
    rng = np.random.default_rng(1)
    u = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    lap = derivative(u, 2).scalar
    assert np.allclose(prob.assemble_A(u).apply(u).scalar, -lap, rtol=1e-11, atol=1e-11)
    assert prob.order == "second" and prob.order_int == 2
    assert prob.name == "heat"


def test_state_dependent_diffusion_value():
    grid = Grid(1, 25)
    prob = rd_problem(scalar_spec(grid, a_series=[1.0, 0.0, 1.0]))
    x = grid.axis_coords()
    v = GridFunction.from_scalar(grid, 0.5 * np.cos(np.pi * x))
    rng = np.random.default_rng(3)
    u = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    lap = derivative(u, 2).scalar
    expected = -(1.0 + v.scalar ** 2) * lap
    assert np.allclose(prob.assemble_A(v).apply(u).scalar, expected, rtol=1e-10)


def test_system_coupling_matrix():
    grid = Grid(1, 17)
    a = PolynomialMap.constant(np.array([[1.0, 0.5], [0.0, 2.0]]))
    spec = ReactionDiffusionSpec(
        grid=grid, ncomp=2, a=a,
        f=PolynomialMap.constant(np.zeros(2)),
        b=PolynomialMap.constant(np.zeros((2, 2, 2))),
        u_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    prob = rd_problem(spec)
    rng = np.random.default_rng(5)
    u = GridFunction(grid, rng.uniform(-0.9, 0.9, size=grid.shape + (2,)))
    lap = np.stack([derivative(u, 2).values[..., i] for i in range(2)], axis=-1)
    expected = np.stack([-(lap[..., 0] + 0.5 * lap[..., 1]), -2.0 * lap[..., 1]], axis=-1)
    assert np.allclose(prob.assemble_A(u).apply(u).values, expected, rtol=1e-10)


def test_quadratic_gradient_term():
    grid = Grid(1, 25)
    prob = rd_problem(scalar_spec(grid, a_series=[1.0], b_const=2.0))
    x = grid.axis_coords()
    u = GridFunction.from_scalar(grid, 0.3 * np.cos(2 * np.pi * x))
    du = derivative(u, 1).scalar
    assert np.allclose(prob.F2(u).scalar, 2.0 * du ** 2, rtol=1e-13)
    prob_f = rd_problem(scalar_spec(grid, a_series=[1.0], f_series=[0.5, -1.0]))
    assert np.allclose(prob_f.F1(u).scalar, 0.5 - u.scalar, rtol=1e-13)


def test_box_constraint_enforced():
    grid = Grid(1, 9)
    prob = rd_problem(scalar_spec(grid, a_series=[1.0], box=1.0, margin=0.1))
    inside = GridFunction.from_scalar(grid, np.full(grid.shape, 0.5))
    outside = GridFunction.from_scalar(grid, np.full(grid.shape, 0.95))
    assert prob.state_constraint(inside.values)
    assert not prob.state_constraint(outside.values)  # margin shrinks the box
    # the constraint takes stacks of samples too
    assert not prob.state_constraint(np.stack([inside.values, outside.values]))
    with pytest.raises(StateConstraintError):
        prob.assemble_A(outside)
    with pytest.raises(StateConstraintError):
        prob.F1(outside)


# ---------------------------------------------------------------- flows

def test_flow_spec_validation():
    grid = Grid(1, 16)
    with pytest.raises(ProblemSpecError):
        FlowSpec(grid=grid, kind="mean_curvature")
    spec = FlowSpec(grid=grid, kind="willmore")
    assert spec.name == "willmore"


def test_flat_graph_is_equilibrium():
    for kind in ("surface_diffusion", "willmore"):
        grid = Grid(1, 32)
        prob = flow_problem(FlowSpec(grid=grid, kind=kind))
        h = GridFunction.zeros(grid)
        assert np.max(np.abs(prob.F2(h).values)) <= 1e-12
        assert np.max(np.abs(prob.F1(h).values)) == 0.0
        assert prob.order == "fourth" and prob.bc == CLA
        # frozen operator at the flat state is the clamped bilaplacian
        ref = reference_operator(grid, "fourth")
        assert np.array_equal(prob.assemble_A(h).toarray(), ref.toarray())


def test_flow_leading_coefficient_1d():
    # in 1d the frozen operator is beta^4 D4 with beta from the same gradient;
    # for a u that the clamped condition pins to 0 at the walls it agrees
    # with the stencil on the interior, the operator's unknowns
    grid = Grid(1, 40)
    rng = np.random.default_rng(11)
    x = grid.axis_coords()
    h = GridFunction.from_scalar(grid, 0.3 * np.sin(np.pi * x) ** 2)
    prob = flow_problem(FlowSpec(grid=grid, kind="surface_diffusion"))
    u = GridFunction.from_scalar(grid, rng.normal(size=grid.shape) * grid.interior_mask())
    beta4 = surface_fields(h).beta ** 4
    expected = beta4 * derivative(u, 4).scalar
    got = prob.assemble_A(h).apply(u).scalar
    assert np.allclose(got[1:-1], expected[1:-1], rtol=1e-12, atol=1e-12)
    assert np.all(got[[0, -1]] == 0.0)


def test_flow_residual_cubic_in_amplitude():
    grid = Grid(1, 48)
    x = grid.axis_coords()
    prof = np.sin(np.pi * x) ** 2
    for kind, rhs_fn in (("surface_diffusion", surface_diffusion_rhs),
                         ("willmore", willmore_rhs)):
        prob = flow_problem(FlowSpec(grid=grid, kind=kind))
        sups = []
        for eps in (1e-6, 1e-5, 1e-4):
            h = GridFunction.from_scalar(grid, eps * prof)
            f2 = prob.F2(h).values
            sups.append(np.max(np.abs(f2)))
            # decomposition identity F2 = A h + G on the unknowns, 0 where
            # the clamped condition pins h
            op = prob.assemble_A(h)
            manual = op.dot(op.gather(h.values)) + op.gather(rhs_fn(h).values)
            assert np.array_equal(op.gather(f2), manual)
            assert np.array_equal(f2[[0, -1]], np.zeros((2, 1)))
            assert not np.signbit(f2[[0, -1]]).any()
        slopes = [np.log10(sups[i + 1] / sups[i]) for i in range(2)]
        assert min(slopes) > 2.5


# ---------------------------------------------------------------- stacked G

def _drawn_rd_spec(data, grid, ncomp):
    """a(u) upper triangular with diagonal 1 + c u_0^2 (positive on the box),
    f and b with drawn constant, linear and quadratic terms."""
    coef = st.floats(-1.0, 1.0)
    zero = (0,) * ncomp
    lin = [tuple(int(i == k) for i in range(ncomp)) for k in range(ncomp)]
    sq0 = tuple(2 * int(i == 0) for i in range(ncomp))
    a_terms = []
    for i in range(ncomp):
        a_terms.append(((i, i), zero, 1.0))
        a_terms.append(((i, i), sq0, data.draw(st.floats(0.0, 1.0))))
        for j in range(i + 1, ncomp):
            a_terms.append(((i, j), lin[j], data.draw(coef)))
    f_terms = [((i,), pw, data.draw(coef)) for i in range(ncomp) for pw in [zero] + lin + [sq0]]
    b_terms = [((i, a, b), pw, data.draw(coef)) for i in range(ncomp)
               for a in range(ncomp) for b in range(ncomp) for pw in (zero, lin[0])]
    return ReactionDiffusionSpec(
        grid=grid, ncomp=ncomp,
        a=PolynomialMap(shape=(ncomp, ncomp), nvars=ncomp, terms=tuple(a_terms)),
        f=PolynomialMap(shape=(ncomp,), nvars=ncomp, terms=tuple(f_terms)),
        b=PolynomialMap(shape=(ncomp, ncomp, ncomp), nvars=ncomp, terms=tuple(b_terms)),
        u_box=np.array([[-2.0, 2.0]] * ncomp))


def _per_sample_G(prob, grid, stack):
    out = []
    for vals in stack:
        v = GridFunction(grid, vals)
        out.append(prob.F1(v).values + prob.F2(v).values - prob.assemble_A(v).apply(v).values)
    return np.stack(out)


def _assert_close(got, want, rtol):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * max(np.max(np.abs(want)), 1e-300)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rd_stacked_G_matches_per_sample_hooks(data):
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = Grid(dim, data.draw(st.integers(8, 17 if dim == 1 else 10), label="nodes"))
    ncomp = data.draw(st.integers(1, 2), label="ncomp")
    n_samples = data.draw(st.integers(1, 7), label="samples")
    # small node budgets split the stack into blocks of a few samples
    block_nodes = data.draw(st.sampled_from([1, 2 * grid.n_nodes, problems._BLOCK_NODES]))
    with mock.patch.object(problems, "_BLOCK_NODES", block_nodes):
        prob = rd_problem(_drawn_rd_spec(data, grid, ncomp))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    stack = rng.uniform(-1.5, 1.5, size=(n_samples,) + grid.shape + (ncomp,))
    _assert_close(prob.G(stack), _per_sample_G(prob, grid, stack), 1e-12)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_flow_stacked_G_matches_geometry_rhs(data):
    kind = data.draw(st.sampled_from(["surface_diffusion", "willmore"]), label="kind")
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = Grid(dim, data.draw(st.integers(8, 24 if dim == 1 else 12), label="nodes"))
    n_samples = data.draw(st.integers(1, 7), label="samples")
    block_nodes = data.draw(st.sampled_from([1, 2 * grid.n_nodes, problems._BLOCK_NODES]))
    with mock.patch.object(problems, "_BLOCK_NODES", block_nodes):
        prob = flow_problem(FlowSpec(grid=grid, kind=kind))
    rhs_fn = surface_diffusion_rhs if kind == "surface_diffusion" else willmore_rhs
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    amp = data.draw(st.floats(1e-4, 0.3), label="amplitude")
    prof = np.ones(grid.shape)
    for x in grid.coords():
        prof = prof * np.sin(np.pi * x) ** 2
    stack = amp * rng.uniform(0.5, 1.5, size=(n_samples, 1) + (1,) * dim) * prof[..., None]
    stack = stack + 1e-3 * amp * rng.normal(size=stack.shape) * grid.interior_mask()[..., None]
    want = np.stack([rhs_fn(GridFunction(grid, vals)).values for vals in stack])
    _assert_close(prob.G(stack), want, 1e-12)
    # G is the split's F1 + F2 - A(h) h up to the cancellation of A(h) h, on
    # the unknowns of the clamped operator, the interior
    inner = (slice(None),) + (slice(1, -1),) * dim
    _assert_close(prob.G(stack)[inner], _per_sample_G(prob, grid, stack)[inner], 1e-9)
