"""Differential geometry of graph surfaces x -> (x, h(x)).

All quantities are assembled from nodal first and second derivatives of the
height field h with clamped-consistent reflection ghosts.  With g = grad h,
the tilt factor beta = 1/sqrt(1 + |g|^2) and mask_ij = delta_ij - beta^2 g_i g_j:

    normal        nu = beta * (-g, 1)
    shape op.     L = beta * mask * Hess h               (a dim x dim matrix)
    mean curv.    H = tr L = beta * mask_ij d_i d_j h    (summed)
    tr L^2        beta^2 tr(mask Hess mask Hess)
    LB operator   Lap_Gamma phi = mask_kl (d_k d_l phi - beta^2 d_k d_l h * g_m d_m phi)
                                = mask_kl d_k d_l phi - beta H (g | grad phi)

tr L^2 is -(delta_ij - beta^2 g_i g_j)(d_i d_j nu | nu), and no third
derivative of h enters it: differentiating (d_j nu | nu) = 0 gives
(d_i d_j nu | nu) = -(d_i nu | d_j nu), and with
d_i nu = (d_i beta)(-g, 1) - beta (d_i g, 0) and d_i beta = -beta^3 (d_i g | g),

    (d_i nu | d_j nu) = beta^2 (sum_m hess_im hess_jm - beta^2 hg_i hg_j),
    hg_i = sum_m hess_im g_m,

whose contraction with mask is beta^2 tr(mask Hess mask Hess).  Expanding
d_i d_j nu through d_i d_j beta instead brings in d_i d_j g, whose terms
cancel exactly, so they added nothing but rounding.  In one dimension,
mask = beta^2 and tr L^2 = beta^6 (h'')^2 = H^2.

Normal-velocity flows in graph form:

    surface diffusion   dh/dt = -(1/beta) Lap_Gamma H
    Willmore            dh/dt = (1/beta) (-Lap_Gamma H + H (H^2/2 - tr L^2))

and the frozen leading coefficient of both is the rank-4 tensor

    a_ijkl(g) = (delta_kl - beta^2 g_k g_l)(delta_ij - beta^2 g_i g_j).

Each formula is written once, on nodal values with leading axes (a stack of
samples), as explicit sums over the dim <= 2 components.  Every derivative
is one stencil pass over the stack: d_i d_j h, i < j, is the d_j pass over
the stored d_i h, which is the arithmetic of ``derivative_values`` at
sigma = e_i + e_j.  A flow right-hand side takes the 2 dim + dim (dim - 1)/2
passes of h and as many of H: 4 in 1D and 10 in 2D, Willmore or surface
diffusion.  ``surface_diffusion_values``/``willmore_values`` are the stacked
right-hand sides of the flow problems; ``surface_diffusion_rhs`` and
``willmore_rhs`` are their one-field wrappers.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .grids import Grid, GridFunction
from .operators import derivative_values, unit_sigma


def _sum(terms) -> np.ndarray:
    return reduce(add, terms)


# Fields are (..., *grid.shape) arrays, leading axes being samples; vectors
# are lists of them and symmetric matrices nested lists sharing the
# off-diagonal entry.

def _pass(field: np.ndarray, grid: Grid, axis: int, order: int) -> np.ndarray:
    """One stencil pass, d_axis^order of ``field``."""
    return derivative_values(field[..., None], grid, unit_sigma(axis, grid.dim, order))[..., 0]


def _grad(field: np.ndarray, grid: Grid) -> list:
    return [_pass(field, grid, i, 1) for i in range(grid.dim)]


def _jet(field: np.ndarray, grid: Grid):
    """grad and Hess of ``field``, each derivative one pass."""
    g = _grad(field, grid)
    hess = [[None] * grid.dim for _ in range(grid.dim)]
    for i in range(grid.dim):
        hess[i][i] = _pass(field, grid, i, 2)
        for j in range(i + 1, grid.dim):
            hess[i][j] = hess[j][i] = _pass(g[i], grid, j, 1)
    return g, hess


def _tilt(g: list) -> np.ndarray:
    """beta = 1/sqrt(1 + |g|^2) of the slope components g."""
    return 1.0 / np.sqrt(1.0 + _sum(gi * gi for gi in g))


def _mask(g: list, beta: np.ndarray) -> list:
    """delta_ij - beta^2 g_i g_j."""
    dim = len(g)
    b2 = beta * beta
    mask = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        bg = b2 * g[i]
        mask[i][i] = 1.0 - bg * g[i]
        for j in range(i + 1, dim):
            mask[i][j] = mask[j][i] = -(bg * g[j])
    return mask


def _surface(h: np.ndarray, grid: Grid):
    """g, Hess h, beta and mask of the graph of ``h``."""
    g, hess = _jet(h, grid)
    beta = _tilt(g)
    return g, hess, beta, _mask(g, beta)


def _contract(a: list, b: list) -> np.ndarray:
    """sum_ij a_ij b_ij of two symmetric matrices."""
    dim = len(a)
    return _sum([a[i][i] * b[i][i] for i in range(dim)]
                + [2.0 * (a[i][j] * b[i][j]) for i in range(dim) for j in range(i + 1, dim)])


def _mean_curvature(beta, mask, hess) -> np.ndarray:
    return beta * _contract(mask, hess)


def _trace_L_squared(beta, mask, hess) -> np.ndarray:
    # beta^2 tr(M M) with M = mask Hess, not symmetric
    dim = len(mask)
    m = [[_sum(mask[i][k] * hess[k][j] for k in range(dim)) for j in range(dim)]
         for i in range(dim)]
    return beta * beta * _sum(m[i][j] * m[j][i] for i in range(dim) for j in range(dim))


def _laplace_beltrami(g, beta, mask, H, grad_phi, hess_phi) -> np.ndarray:
    advect = _sum(gi * pi for gi, pi in zip(g, grad_phi))
    return _contract(mask, hess_phi) - beta * H * advect


def _flow_values(values: np.ndarray, grid: Grid, willmore: bool) -> np.ndarray:
    """Normal-velocity flow rhs on nodal values (..., *grid.shape, 1), each
    derivative of h and of H taken once."""
    g, hess, beta, mask = _surface(values[..., 0], grid)
    H = _mean_curvature(beta, mask, hess)
    lb = _laplace_beltrami(g, beta, mask, H, *_jet(H, grid))
    if not willmore:
        return (-lb / beta)[..., None]
    trl2 = _trace_L_squared(beta, mask, hess)
    return ((-lb + H * (0.5 * H ** 2 - trl2)) / beta)[..., None]


def surface_diffusion_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    """dh/dt = -(1/beta) Lap_Gamma(H) on nodal values (..., *grid.shape, 1)."""
    return _flow_values(values, grid, willmore=False)


def willmore_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    """dh/dt = (1/beta) (-Lap_Gamma H + H (H^2/2 - tr L^2)) on nodal values
    (..., *grid.shape, 1)."""
    return _flow_values(values, grid, willmore=True)


def slope_field(values: np.ndarray, grid: Grid) -> np.ndarray:
    """grad h of nodal heights (..., *grid.shape, 1), stacked as
    (..., *grid.shape, dim), one stencil pass per axis."""
    return np.stack(_grad(values[..., 0], grid), axis=-1)


# the one-field wrappers are what perfbench/tracer.py times as geometry.rhs,
# until its rebuild on timers from inside (ROADMAP item 1)
def surface_diffusion_rhs(h: GridFunction) -> GridFunction:
    """dh/dt = -(1/beta) Lap_Gamma(H)."""
    return GridFunction(h.grid, surface_diffusion_values(h.values, h.grid))


def willmore_rhs(h: GridFunction) -> GridFunction:
    """dh/dt = (1/beta) (-Lap_Gamma H + H (H^2/2 - tr L^2))."""
    return GridFunction(h.grid, willmore_values(h.values, h.grid))


def leading_coefficient(grad: np.ndarray) -> np.ndarray:
    """Frozen fourth-order coefficient tensor a_ijkl(grad h).

    ``grad`` has shape (..., n); the result has shape (..., n, n, n, n) with
    a_ijkl = (delta_kl - beta^2 g_k g_l)(delta_ij - beta^2 g_i g_j).
    """
    grad = np.asarray(grad, dtype=float)
    beta = 1.0 / np.sqrt(1.0 + np.sum(grad ** 2, axis=-1))
    mask = (np.eye(grad.shape[-1])
            - beta[..., None, None] ** 2 * grad[..., :, None] * grad[..., None, :])
    return np.einsum("...ij,...kl->...ijkl", mask, mask)
