"""Differential geometry of graph surfaces x -> (x, h(x)).

All quantities are assembled from nodal derivatives of the height field h
with clamped-consistent reflection ghosts.  With g = grad h and the tilt
factor beta = 1/sqrt(1 + |g|^2):

    normal        nu = beta * (-g, 1)
    mean curv.    H = (delta_ij - beta^2 g_i g_j) beta d_i d_j h   (summed)
    LB operator   Lap_Gamma phi = (delta_kl - beta^2 g_k g_l)
                      (d_k d_l phi - beta^2 d_k d_l h * g_m d_m phi)
    tr L^2        -(delta_ij - beta^2 g_i g_j) (d_i d_j nu | nu)

The second derivatives of nu are expanded through derivatives of beta,

    d_j beta    = -beta^3 (d_j g | g)
    d_i d_j beta = -3 beta^2 (d_i beta)(d_j g | g) - beta^3 (d_i d_j g | g)
                   - beta^3 (d_j g | d_i g)
    d_i d_j nu  = (d_i d_j beta)(-g, 1) - (d_j beta)(d_i g, 0)
                  - (d_i beta)(d_j g, 0) - beta (d_i d_j g, 0),

which in one dimension collapses to the identity tr L^2 = H^2 (H = beta^3 h'').

Normal-velocity flows in graph form:

    surface diffusion   dh/dt = -(1/beta) Lap_Gamma H
    Willmore            dh/dt = (1/beta) (-Lap_Gamma H + H (H^2/2 - tr L^2))

and the frozen leading coefficient of both is the rank-4 tensor

    a_ijkl(g) = (delta_kl - beta^2 g_k g_l)(delta_ij - beta^2 g_i g_j).

Each formula is written once, on nodal values with leading axes (a stack of
samples).  ``surface_diffusion_values``/``willmore_values`` are the stacked
right-hand sides of the flow problems; the GridFunction functions are
one-field wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import BoundaryCondition, Grid, GridFunction
from .operators import derivative_values

_BC = BoundaryCondition.CLAMPED


def _partial(values: np.ndarray, grid: Grid, axes, bc) -> np.ndarray:
    """d_{axes} of the scalar field in ``values`` (..., *grid.shape, 1)."""
    sig = [0] * grid.dim
    for a in axes:
        sig[a] += 1
    return derivative_values(values, grid, tuple(sig), bc)[..., 0]


# The derivative tensors take nodal values (..., *grid.shape, 1), leading axes
# being samples, and append their index axes to grid.shape.

def _grad(values: np.ndarray, grid: Grid, bc) -> np.ndarray:
    return np.stack([_partial(values, grid, (i,), bc) for i in range(grid.dim)], axis=-1)


def _hess(values: np.ndarray, grid: Grid, bc) -> np.ndarray:
    dim = grid.dim
    out = np.zeros(values.shape[:-1] + (dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            d = _partial(values, grid, (i, j), bc)
            out[..., i, j] = d
            out[..., j, i] = d
    return out


def _third(values: np.ndarray, grid: Grid, bc) -> np.ndarray:
    dim = grid.dim
    out = np.zeros(values.shape[:-1] + (dim, dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            for k in range(dim):
                d = _partial(values, grid, (i, j, k), bc)
                out[..., i, j, k] = d
                out[..., j, i, k] = d
    return out


def _beta_of(grad: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(1.0 + np.sum(grad ** 2, axis=-1))


def _mask_of(grad: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """delta_ij - beta^2 g_i g_j at every node."""
    dim = grad.shape[-1]
    eye = np.eye(dim)
    return eye - beta[..., None, None] ** 2 * grad[..., :, None] * grad[..., None, :]


def _tilt(values: np.ndarray, grid: Grid, bc):
    """g = grad h, beta and mask of the graph of h."""
    g = _grad(values, grid, bc)
    beta = _beta_of(g)
    return g, beta, _mask_of(g, beta)


# Pointwise formulas in the derivative tensors of h (g, hess, third) and of
# phi (grad_phi, hess_phi); beta and mask are the functions of g above.

def _mean_curvature(beta, mask, hess) -> np.ndarray:
    return np.einsum("...ij,...ij->...", mask, hess) * beta


def _laplace_beltrami(g, beta, mask, hess, grad_phi, hess_phi) -> np.ndarray:
    advect = np.einsum("...m,...m->...", g, grad_phi)
    inner = hess_phi - beta[..., None, None] ** 2 * hess * advect[..., None, None]
    return np.einsum("...kl,...kl->...", mask, inner)


def _trace_L_squared(g, beta, mask, hess, third) -> np.ndarray:
    # hess[..., i, m] = d_i g_m, third[..., i, j, m] = d_i d_j g_m
    hg = np.einsum("...im,...m->...i", hess, g)            # (d_i g | g)
    dbeta = -beta[..., None] ** 3 * hg
    tg = np.einsum("...ijm,...m->...ij", third, g)         # (d_i d_j g | g)
    hh = np.einsum("...im,...jm->...ij", hess, hess)       # (d_i g | d_j g)
    d2beta = (
        -3.0 * beta[..., None, None] ** 2 * dbeta[..., :, None] * hg[..., None, :]
        - beta[..., None, None] ** 3 * tg
        - beta[..., None, None] ** 3 * hh
    )

    # assemble d_i d_j nu as spatial part (components m) and vertical part
    spatial = (
        -d2beta[..., :, :, None] * g[..., None, None, :]
        - dbeta[..., None, :, None] * hess[..., :, None, :]
        - dbeta[..., :, None, None] * hess[..., None, :, :]
        - beta[..., None, None, None] * third
    )
    vertical = d2beta
    nu_spatial = -beta[..., None] * g
    nu_vertical = beta
    dots = (
        np.einsum("...ijm,...m->...ij", spatial, nu_spatial)
        + vertical * nu_vertical[..., None, None]
    )
    return -np.einsum("...ij,...ij->...", mask, dots)


def _flow_values(values: np.ndarray, grid: Grid, bc, willmore: bool) -> np.ndarray:
    """Normal-velocity flow rhs on nodal values (..., *grid.shape, 1), each
    derivative of h and of H taken once."""
    g, beta, mask = _tilt(values, grid, bc)
    hess = _hess(values, grid, bc)
    H = _mean_curvature(beta, mask, hess)
    Hv = H[..., None]
    lb = _laplace_beltrami(g, beta, mask, hess, _grad(Hv, grid, bc), _hess(Hv, grid, bc))
    if not willmore:
        return (-lb / beta)[..., None]
    trl2 = _trace_L_squared(g, beta, mask, hess, _third(values, grid, bc))
    return ((-lb + H * (0.5 * H ** 2 - trl2)) / beta)[..., None]


def surface_diffusion_values(values: np.ndarray, grid: Grid,
                             bc: BoundaryCondition = _BC) -> np.ndarray:
    """dh/dt = -(1/beta) Lap_Gamma(H) on nodal values (..., *grid.shape, 1)."""
    return _flow_values(values, grid, bc, willmore=False)


def willmore_values(values: np.ndarray, grid: Grid,
                    bc: BoundaryCondition = _BC) -> np.ndarray:
    """dh/dt = (1/beta) (-Lap_Gamma H + H (H^2/2 - tr L^2)) on nodal values
    (..., *grid.shape, 1)."""
    return _flow_values(values, grid, bc, willmore=True)


def tilt_factor(h: GridFunction, bc: BoundaryCondition = _BC) -> GridFunction:
    """beta = 1/sqrt(1 + |grad h|^2); always in (0, 1]."""
    return GridFunction.from_scalar(h.grid, _beta_of(_grad(h.values, h.grid, bc)))


def unit_normal(h: GridFunction, bc: BoundaryCondition = _BC) -> GridFunction:
    """Upward unit normal beta * (-grad h, 1), dim+1 components."""
    g = _grad(h.values, h.grid, bc)
    beta = _beta_of(g)
    comps = np.concatenate([-g, np.ones(g.shape[:-1] + (1,))], axis=-1)
    return GridFunction(h.grid, beta[..., None] * comps)


def mean_curvature(h: GridFunction, bc: BoundaryCondition = _BC) -> GridFunction:
    _g, beta, mask = _tilt(h.values, h.grid, bc)
    H = _mean_curvature(beta, mask, _hess(h.values, h.grid, bc))
    return GridFunction.from_scalar(h.grid, H)


def laplace_beltrami(h: GridFunction, phi: GridFunction,
                     bc: BoundaryCondition = _BC) -> GridFunction:
    """Surface Laplacian of the scalar phi along the graph of h."""
    if phi.grid != h.grid:
        raise ValueError("phi must live on the grid of h")
    grid = h.grid
    g, beta, mask = _tilt(h.values, grid, bc)
    out = _laplace_beltrami(g, beta, mask, _hess(h.values, grid, bc),
                            _grad(phi.values, grid, bc), _hess(phi.values, grid, bc))
    return GridFunction.from_scalar(grid, out)


def trace_L_squared(h: GridFunction, bc: BoundaryCondition = _BC) -> GridFunction:
    """Squared Frobenius norm of the shape operator, via second derivatives
    of the unit normal."""
    grid = h.grid
    g, beta, mask = _tilt(h.values, grid, bc)
    out = _trace_L_squared(g, beta, mask, _hess(h.values, grid, bc),
                           _third(h.values, grid, bc))
    return GridFunction.from_scalar(grid, out)


def surface_diffusion_rhs(h: GridFunction, bc: BoundaryCondition = _BC) -> GridFunction:
    """dh/dt = -(1/beta) Lap_Gamma(H)."""
    return GridFunction(h.grid, surface_diffusion_values(h.values, h.grid, bc))


def willmore_rhs(h: GridFunction, bc: BoundaryCondition = _BC) -> GridFunction:
    """dh/dt = (1/beta) (-Lap_Gamma H + H (H^2/2 - tr L^2))."""
    return GridFunction(h.grid, willmore_values(h.values, h.grid, bc))


def leading_coefficient(grad: np.ndarray) -> np.ndarray:
    """Frozen fourth-order coefficient tensor a_ijkl(grad h).

    ``grad`` has shape (..., n); the result has shape (..., n, n, n, n) with
    a_ijkl = (delta_kl - beta^2 g_k g_l)(delta_ij - beta^2 g_i g_j).
    """
    grad = np.asarray(grad, dtype=float)
    beta = _beta_of(grad)
    mask = _mask_of(grad, beta)
    return np.einsum("...ij,...kl->...ijkl", mask, mask)


@dataclass(frozen=True)
class GeometryFields:
    beta: GridFunction
    normal: GridFunction
    mean_curvature: GridFunction
    trace_L_sq: GridFunction


def geometry_fields(h: GridFunction, bc: BoundaryCondition = _BC) -> GeometryFields:
    """All pointwise fields at once, with the basic invariants asserted."""
    beta = tilt_factor(h, bc)
    nu = unit_normal(h, bc)
    H = mean_curvature(h, bc)
    trl2 = trace_L_squared(h, bc)
    b = beta.scalar
    if np.any(b <= 0.0) or np.any(b > 1.0 + 1e-12):
        raise ValueError("tilt factor left (0, 1]")
    norm = np.sqrt(np.sum(nu.values ** 2, axis=-1))
    if np.max(np.abs(norm - 1.0)) > 1e-10:
        raise ValueError("normal field is not unit length")
    return GeometryFields(beta=beta, normal=nu, mean_curvature=H, trace_L_sq=trl2)
