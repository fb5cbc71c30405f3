"""Graph-geometry oracles.

In one dimension the nodal formulas collapse algebraically: with g = D1 h and
w = D2 h one has mask = beta^2, H = beta^3 w, and expanding the normal-second-
derivative assembly gives tr L^2 = beta^6 w^2 = H^2 identically in the nodal
values.  That identity holds to roundoff for any field, so it pins down every
sign and factor in the assembly without appealing to continuum convergence.

Continuum oracles: a circle arc of radius r has curvature 1/r; the paraboloid
(x^2 + y^2)/2 has H = 2 and tr L^2 = 2 at the vertex, where the discrete
derivatives of the quadratic are exact.

Reference oracle: the library assembles tr L^2 in Hessian form.  The test-local
``reference_trace_L_squared`` is the expansion it replaces, through second
derivatives of the unit normal and hence third derivatives of h, whose terms
cancel algebraically; both must agree to rounding on any field.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import surface_fields
from parabolab import geometry, operators
from parabolab.geometry import (leading_coefficient, surface_diffusion_rhs,
                                surface_diffusion_values, willmore_rhs,
                                willmore_values)
from parabolab.grids import Grid, GridFunction
from parabolab.operators import derivative, derivative_values


def height(grid, fn):
    return GridFunction.from_scalar(grid, fn(grid.axis_coords()))


def random_profile(grid, rng, amp=0.5):
    x = grid.axis_coords()
    vals = np.zeros_like(x)
    for k in range(1, 5):
        vals += amp * rng.uniform(-1, 1) / k * np.sin(k * np.pi * x)
    return GridFunction.from_scalar(grid, vals)


# ---------------------------------------------------------------- invariants

def test_flat_graph_is_trivial():
    grid = Grid(1, 33)
    h = GridFunction.zeros(grid)
    beta, nu, H, trl2 = surface_fields(h)
    assert np.allclose(beta, 1.0)
    assert nu.shape == grid.shape + (2,)
    assert np.allclose(nu[..., 0], 0.0)
    assert np.allclose(nu[..., 1], 1.0)
    assert np.allclose(H, 0.0)
    assert np.allclose(trl2, 0.0)
    assert np.allclose(surface_diffusion_rhs(h).scalar, 0.0)
    assert np.allclose(willmore_rhs(h).scalar, 0.0)


def test_unit_normal_and_tilt_bounds():
    grid = Grid(1, 41)
    rng = np.random.default_rng(2)
    for _ in range(5):
        h = random_profile(grid, rng)
        fields = surface_fields(h)
        norm = np.sqrt(np.sum(fields.normal ** 2, axis=-1))
        assert np.max(np.abs(norm - 1.0)) < 1e-10
        b = fields.beta
        assert np.all(b > 0.0) and np.all(b <= 1.0 + 1e-12)


def test_tilted_plane_interior():
    # planes are flat: H = 0 and tr L^2 = 0 away from the reflection ghosts
    grid = Grid(1, 41)
    a = 0.75
    h = height(grid, lambda x: a * x)
    sl = slice(2, -2)
    beta, _nu, H, trl2 = surface_fields(h)
    assert np.allclose(beta[sl], 1.0 / np.sqrt(1.0 + a * a))
    assert np.allclose(H[sl], 0.0, atol=1e-10)
    assert np.allclose(trl2[sl], 0.0, atol=1e-10)


# ---------------------------------------------------------------- 1d identities

def test_mean_curvature_is_beta_cubed_hxx():
    grid = Grid(1, 33)
    rng = np.random.default_rng(5)
    h = random_profile(grid, rng)
    beta, _nu, H, _trl2 = surface_fields(h)
    w = derivative(h, 2).scalar
    assert np.allclose(H, beta ** 3 * w, rtol=1e-12, atol=1e-12)


def test_trace_L_squared_equals_H_squared_1d():
    grid = Grid(1, 33)
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = random_profile(grid, rng)
        _beta, _nu, H, trl2 = surface_fields(h)
        assert np.allclose(trl2, H ** 2, rtol=1e-10, atol=1e-10)


def test_willmore_minus_surface_diffusion_1d():
    # with tr L^2 = H^2 the lower-order Willmore term is -H^3/(2 beta)
    grid = Grid(1, 33)
    rng = np.random.default_rng(9)
    h = random_profile(grid, rng)
    beta, _nu, H, _trl2 = surface_fields(h)
    gap = willmore_rhs(h).scalar - surface_diffusion_rhs(h).scalar
    assert np.allclose(gap, -H ** 3 / (2.0 * beta), rtol=1e-9, atol=1e-11)


def test_circle_arc_curvature():
    grid = Grid(1, 201)
    r = 2.0
    h = height(grid, lambda x: np.sqrt(r * r - (x - 0.5) ** 2))
    sl = slice(2, -2)
    _beta, _nu, H, trl2 = surface_fields(h)
    assert np.allclose(H[sl], -1.0 / r, atol=1e-3)
    assert np.allclose(trl2[sl], 1.0 / r ** 2, atol=1e-3)


# ---------------------------------------------------------------- 2d oracles

def test_paraboloid_vertex_exact():
    # derivatives of the quadratic are stencil-exact away from the walls
    grid = Grid(2, 65)
    x = grid.axis_coords()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    h = GridFunction.from_scalar(grid, ((xx - 0.5) ** 2 + (yy - 0.5) ** 2) / 2.0)
    c = 32  # center node
    _beta, nu, H, trl2 = surface_fields(h)
    assert H[c, c] == pytest.approx(2.0, abs=1e-9)
    assert trl2[c, c] == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(nu[c, c], [0.0, 0.0, 1.0], atol=1e-12)


def test_laplace_beltrami_flat_reduces_to_laplacian():
    grid = Grid(2, 17)
    rng = np.random.default_rng(11)
    phi = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    # the surface Laplacian of phi along the flat graph, as _flow_values takes it of H
    g, hess, beta, mask = geometry._surface(np.zeros(grid.shape), grid)
    H = geometry._mean_curvature(beta, mask, hess)
    lb = geometry._laplace_beltrami(g, beta, mask, H, *geometry._jet(phi.scalar, grid))
    lap = derivative(phi, (2, 0)).scalar + derivative(phi, (0, 2)).scalar
    assert np.allclose(lb, lap, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------- coefficient

def test_leading_coefficient_flat_is_identity_tensor():
    a = leading_coefficient(np.zeros((3, 2)))
    eye = np.eye(2)
    expected = np.einsum("ij,kl->ijkl", eye, eye)
    assert np.array_equal(a[0], expected)
    assert a.shape == (3, 2, 2, 2, 2)


def test_leading_coefficient_1d_value():
    # scalar slope g: a_1111 = (1 - beta^2 g^2)^2 = 1/(1 + g^2)^2
    a = leading_coefficient(np.array([[1.0]]))
    assert a[0, 0, 0, 0, 0] == pytest.approx(0.25, rel=1e-14)


def test_leading_coefficient_symmetry_and_ellipticity():
    rng = np.random.default_rng(13)
    for _ in range(50):
        g = rng.normal(scale=2.0, size=(2,))
        a = leading_coefficient(g)
        assert np.allclose(a, np.transpose(a, (1, 0, 2, 3)))
        assert np.allclose(a, np.transpose(a, (0, 1, 3, 2)))
        assert np.allclose(a, np.transpose(a, (2, 3, 0, 1)))
        xi = rng.normal(size=(2,))
        quart = np.einsum("ijkl,i,j,k,l->", a, xi, xi, xi, xi)
        beta2 = 1.0 / (1.0 + g @ g)
        mask = np.eye(2) - beta2 * np.outer(g, g)
        assert quart == pytest.approx((xi @ mask @ xi) ** 2, rel=1e-12)
        # uniform lower bound beta^4 |xi|^4
        assert quart >= beta2 ** 2 * (xi @ xi) ** 2 - 1e-12


# ---------------------------------------------------------------- reference

def _reference_tensors(values, grid):
    """g, Hess h and the third derivatives d_i d_j d_k h of nodal values
    (..., *grid.shape, 1) as (..., dim[, dim[, dim]]) arrays."""
    dim = grid.dim

    def d(*axes):
        sig = [0] * dim
        for a in axes:
            sig[a] += 1
        return derivative_values(values, grid, tuple(sig))[..., 0]

    g = np.stack([d(i) for i in range(dim)], axis=-1)
    hess = np.stack([np.stack([d(i, j) for j in range(dim)], axis=-1)
                     for i in range(dim)], axis=-2)
    third = np.stack([np.stack([np.stack([d(i, j, k) for k in range(dim)], axis=-1)
                                for j in range(dim)], axis=-2)
                      for i in range(dim)], axis=-3)
    return g, hess, third


def reference_flows(values, grid):
    """tr L^2, the surface-diffusion rhs and the Willmore rhs of nodal values
    (..., *grid.shape, 1), with tr L^2 = -(delta_ij - beta^2 g_i g_j)(d_i d_j nu | nu)
    and d_i d_j nu expanded through d_i beta = -beta^3 (d_i g | g) and
    d_i d_j beta."""
    g, hess, third = _reference_tensors(values, grid)
    beta = 1.0 / np.sqrt(1.0 + np.sum(g ** 2, axis=-1))
    mask = (np.eye(grid.dim)
            - beta[..., None, None] ** 2 * g[..., :, None] * g[..., None, :])
    hg = np.einsum("...im,...m->...i", hess, g)            # (d_i g | g)
    dbeta = -beta[..., None] ** 3 * hg
    tg = np.einsum("...ijm,...m->...ij", third, g)         # (d_i d_j g | g)
    hh = np.einsum("...im,...jm->...ij", hess, hess)       # (d_i g | d_j g)
    d2beta = (-3.0 * beta[..., None, None] ** 2 * dbeta[..., :, None] * hg[..., None, :]
              - beta[..., None, None] ** 3 * tg
              - beta[..., None, None] ** 3 * hh)
    # d_i d_j nu: spatial components m and the vertical component d2beta
    spatial = (-d2beta[..., :, :, None] * g[..., None, None, :]
               - dbeta[..., None, :, None] * hess[..., :, None, :]
               - dbeta[..., :, None, None] * hess[..., None, :, :]
               - beta[..., None, None, None] * third)
    dots = (np.einsum("...ijm,...m->...ij", spatial, -beta[..., None] * g)
            + d2beta * beta[..., None, None])
    trl2 = -np.einsum("...ij,...ij->...", mask, dots)

    H = np.einsum("...ij,...ij->...", mask, hess) * beta
    grad_H, hess_H, _ = _reference_tensors(H[..., None], grid)
    advect = np.einsum("...m,...m->...", g, grad_H)
    inner = hess_H - beta[..., None, None] ** 2 * hess * advect[..., None, None]
    lb = np.einsum("...kl,...kl->...", mask, inner)
    return trl2, -lb / beta, (-lb + H * (0.5 * H ** 2 - trl2)) / beta


def _assert_rel(got, want, rtol):
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(got - want)) <= rtol * scale


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hessian_form_matches_third_derivative_reference(data):
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = Grid(dim, data.draw(st.integers(8, 40 if dim == 1 else 16), label="nodes"))
    n_samples = data.draw(st.integers(1, 4), label="samples")
    amp = data.draw(st.floats(1e-4, 0.5), label="amplitude")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    prof = np.ones(grid.shape)
    for x in grid.coords():
        prof = prof * np.sin(np.pi * x) ** 2
    stack = amp * rng.uniform(0.5, 1.5, size=(n_samples, 1) + (1,) * dim) * prof[..., None]
    stack = stack + 1e-2 * amp * rng.normal(size=stack.shape) * grid.interior_mask()[..., None]

    trl2, sd, wm = reference_flows(stack, grid)
    for vals, want in zip(stack, trl2):
        _assert_rel(surface_fields(GridFunction(grid, vals)).trace_L_sq, want, 1e-12)
    _assert_rel(surface_diffusion_values(stack, grid)[..., 0], sd, 1e-12)
    _assert_rel(willmore_values(stack, grid)[..., 0], wm, 1e-12)


@pytest.mark.parametrize("rhs", [willmore_values, surface_diffusion_values])
def test_stacked_2d_flow_takes_ten_stencil_passes(rhs):
    # g, Hess h, grad H and Hess H: five passes each, d_0 d_1 reusing d_0
    grid = Grid(2, 12)
    stack = 0.1 * np.random.default_rng(3).normal(size=(4,) + grid.shape + (1,))
    with mock.patch.object(operators, "_axis_stencil_apply",
                           wraps=operators._axis_stencil_apply) as spy:
        rhs(stack, grid)
    assert spy.call_count == 10
