"""Stencil, assembly, and eigendecomposition tests.

The polynomial-exactness oracles follow from the stencil orders: the centered
second difference is exact on cubics, the centered fourth difference on
quintics (away from reflection ghosts).  The mirrored Neumann Laplacian has
the exact discrete eigenpairs cos(k*pi*x), lambda_k = (2/h^2)(1 - cos(k*pi*h)),
valid up to the boundary because cosine is even about both walls.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse

from parabolab.grids import BoundaryCondition, Grid, GridFunction
from parabolab.operators import (BandedCholesky, BandedLU, LinearOperator,
                                 NotPositiveDefiniteError, SolverError, derivative,
                                 diff_matrix_1d, eigendecompose,
                                 assemble_coefficient_operator, neumann_laplacian,
                                 operator_from_full_matrix, reference_operator,
                                 solve_banded)

NEU = BoundaryCondition.NEUMANN
CLA = BoundaryCondition.CLAMPED


def f1(grid, fn):
    return GridFunction.from_scalar(grid, fn(grid.axis_coords()))


# ---------------------------------------------------------------- stencils

@pytest.mark.parametrize("order,poly,dpoly", [
    (1, lambda x: x ** 2, lambda x: 2 * x),
    (2, lambda x: x ** 3, lambda x: 6 * x),
    (3, lambda x: x ** 4, lambda x: 24 * x),
    (4, lambda x: x ** 5, lambda x: 120 * x),
])
def test_interior_polynomial_exactness(order, poly, dpoly):
    grid = Grid(1, 33)
    x = grid.axis_coords()
    du = derivative(f1(grid, poly), order, NEU).scalar
    margin = 2  # stay clear of the reflected ghosts
    assert np.allclose(du[margin:-margin], dpoly(x)[margin:-margin],
                       rtol=0, atol=1e-9)


def test_derivative_bad_sigma():
    grid = Grid(1, 16)
    u = f1(grid, lambda x: x)
    with pytest.raises(ValueError):
        derivative(u, 5, NEU)
    with pytest.raises(ValueError):
        derivative(u, (2, 2), NEU)  # dimension mismatch in 1D
    g2 = Grid(2, 16)
    with pytest.raises(ValueError):
        derivative(GridFunction.zeros(g2), (3, 3), NEU)  # |sigma| > 4


def test_neumann_second_derivative_cosine_exact():
    grid = Grid(1, 48)
    x = grid.axis_coords()
    h = grid.h
    for k in (1, 2, 5):
        u = f1(grid, lambda x: np.cos(k * np.pi * x))
        lam = 2.0 / h ** 2 * (1.0 - np.cos(k * np.pi * h))
        d2 = derivative(u, 2, NEU).scalar
        # exact at every node including the walls (even reflection)
        assert np.max(np.abs(d2 + lam * u.scalar)) < 1e-9 * lam


def test_derivative_matches_matrix_1d():
    grid = Grid(1, 21)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=grid.shape)
    u = GridFunction.from_scalar(grid, vals)
    for order in (1, 2, 3, 4):
        for bc in (NEU, CLA):
            mat = diff_matrix_1d(grid.nodes_per_axis, grid.h, order, bc)
            assert np.allclose(derivative(u, order, bc).scalar, mat @ vals)


def test_derivative_2d_mixed_matches_kron():
    grid = Grid(2, 12)
    rng = np.random.default_rng(1)
    vals = rng.normal(size=grid.shape)
    u = GridFunction.from_scalar(grid, vals)
    n, h = grid.nodes_per_axis, grid.h
    d1 = diff_matrix_1d(n, h, 1, NEU)
    d2 = diff_matrix_1d(n, h, 2, NEU)
    mixed = scipy.sparse.kron(d2, d1) @ vals.ravel()
    assert np.allclose(derivative(u, (2, 1), NEU).scalar.ravel(), mixed)


def test_diff_matrix_order0_identity():
    mat = diff_matrix_1d(9, 0.125, 0, NEU)
    assert (mat != scipy.sparse.identity(9)).nnz == 0


def test_clamped_plate_row_next_to_wall():
    # with u0 pinned and the ghost mirrored, the first interior row of the
    # fourth difference is (7, -4, 1)/h^4
    grid = Grid(1, 12)
    op = reference_operator(grid, "fourth")
    h4 = grid.h ** 4
    row = op.matrix[0].toarray().ravel() * h4
    assert np.allclose(row[:3], [7.0, -4.0, 1.0])
    assert np.allclose(row[3:], 0.0)


# ---------------------------------------------------------------- operators

def test_active_sets():
    grid = Grid(1, 10)
    op2 = reference_operator(grid, "second")
    assert op2.n_active == 10
    op4 = reference_operator(grid, "fourth")
    assert op4.n_active == 8
    g2 = Grid(2, 10)
    assert reference_operator(g2, "second").n_active == 100
    assert reference_operator(g2, "fourth").n_active == 64


def test_restrict_extend_roundtrip():
    grid = Grid(1, 14)
    rng = np.random.default_rng(3)
    op = reference_operator(grid, "second")
    u = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    assert np.array_equal(op.extend(op.restrict(u)).values, u.values)
    # clamped: boundary values are zeroed by the roundtrip
    op4 = reference_operator(grid, "fourth")
    v = op4.extend(op4.restrict(u))
    assert v.scalar[0] == 0.0 and v.scalar[-1] == 0.0
    assert np.array_equal(v.scalar[1:-1], u.scalar[1:-1])


def test_shifted_adds_identity():
    grid = Grid(1, 12)
    op = reference_operator(grid, "second")
    sh = op.shifted(2.5)
    diff = (sh.matrix - op.matrix).toarray()
    assert np.allclose(diff, 2.5 * np.eye(op.n_active))


def test_neumann_laplacian_weighted_symmetry():
    for grid in (Grid(1, 20), Grid(2, 12)):
        op = operator_from_full_matrix(grid, 1, NEU, -neumann_laplacian(grid))
        assert op.symmetric_defect() < 1e-14


def test_clamped_bilaplacian_spd():
    grid = Grid(1, 24)
    op = reference_operator(grid, "fourth")
    assert op.symmetric_defect() < 1e-14
    dense = op.matrix.toarray()
    lam = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert lam.min() > 0.0


def test_2d_bilaplacian_matches_coefficient_assembly():
    grid = Grid(2, 10)
    ref = reference_operator(grid, "fourth")
    ones = np.ones(grid.shape)
    built = assemble_coefficient_operator(
        grid, {(4, 0): ones, (0, 4): ones, (2, 2): 2.0 * ones}, CLA
    )
    assert (ref.matrix != built.matrix).nnz == 0


def test_coefficient_operator_applies_nodal_weights():
    grid = Grid(1, 16)
    rng = np.random.default_rng(5)
    c = 1.0 + rng.uniform(size=grid.shape)
    vals = rng.normal(size=grid.shape)
    u = GridFunction.from_scalar(grid, vals)
    op = assemble_coefficient_operator(grid, {(2,): c}, NEU)
    manual = c * derivative(u, 2, NEU).scalar
    assert np.allclose(op.apply(u).scalar, manual)


# ---------------------------------------------------------------- solves

def test_banded_solve_matches_dense():
    grid = Grid(1, 30)
    rng = np.random.default_rng(7)
    op = reference_operator(grid, "second").shifted(1.0)
    rhs = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    x = solve_banded(op, rhs)
    dense = np.linalg.solve(op.matrix.toarray(), op.restrict(rhs))
    assert np.allclose(op.restrict(x), dense, atol=1e-11)


def test_banded_solve_clamped_fourth():
    grid = Grid(1, 26)
    rng = np.random.default_rng(9)
    op = reference_operator(grid, "fourth").shifted(0.5)
    rhs = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    x = solve_banded(op, rhs)
    res = op.matrix @ op.restrict(x) - op.restrict(rhs)
    assert np.max(np.abs(res)) < 1e-8


def test_singular_solve_raises():
    grid = Grid(1, 9)
    diag = scipy.sparse.diags([1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    op = operator_from_full_matrix(grid, 1, NEU, diag)
    rhs = GridFunction.from_scalar(grid, np.ones(grid.shape))
    with pytest.raises(SolverError):
        solve_banded(op, rhs)


def test_banded_cholesky_errors():
    op = reference_operator(Grid(1, 9), "second")
    ab = op.to_symmetric_banded()
    with pytest.raises(NotPositiveDefiniteError):
        BandedCholesky(ab, op.weights, scale=-1.0)      # -A is negative semidefinite
    factor = BandedCholesky(ab, op.weights, scale=1e-2, shift=1.0)
    with pytest.raises(SolverError):
        factor.solve(np.full(op.n_active, np.inf))


@pytest.mark.parametrize("factor,routine", [("lu", "dgbtrs"), ("cholesky", "dpbtrs")])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_banded_solves_check_finiteness(factor, routine, bad):
    # solve is checked; _solve, the march's per-step solve, is the same
    # LAPACK solve unchecked
    op = reference_operator(Grid(1, 9), "second")
    if factor == "lu":
        f = BandedLU(*op.to_banded(), scale=1e-2, shift=1.0)
    else:
        f = BandedCholesky(op.to_symmetric_banded(), op.weights, scale=1e-2, shift=1.0)
    b = np.linspace(-1.0, 1.0, op.n_active)
    assert f.solve(b).tobytes() == f._solve(b).tobytes()
    b[3] = bad
    with pytest.raises(SolverError,
                       match=f"^banded solve failed: {routine} info 0 or non-finite values$"):
        f.solve(b)
    assert not np.all(np.isfinite(f._solve(b)))


# ---------------------------------------------------------------- spectra

def test_neumann_laplacian_exact_eigenpairs():
    grid = Grid(1, 40)
    h = grid.h
    n = grid.nodes_per_axis
    op = reference_operator(grid, "second")
    proxy = eigendecompose(op)
    expected = np.sort([2.0 / h ** 2 * (1.0 - np.cos(k * np.pi * h)) for k in range(n)])
    assert np.allclose(proxy.eigenvalues, expected, rtol=1e-12, atol=1e-9)
    # cos(k pi x) is an exact discrete eigenvector
    x = grid.axis_coords()
    for k in (1, 3):
        v = np.cos(k * np.pi * x)
        lam = 2.0 / h ** 2 * (1.0 - np.cos(k * np.pi * h))
        assert np.max(np.abs(op.matrix @ v - lam * v)) < 1e-8 * lam


def test_proxy_orthonormal_and_roundtrip():
    grid = Grid(1, 32)
    proxy = eigendecompose(reference_operator(grid, "second"))
    rng = np.random.default_rng(11)
    u = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    c = proxy.coefficients(u)
    assert c.shape == (32, 1)
    back = proxy.synthesize(c)
    assert np.allclose(back.values, u.values, atol=1e-10)


def test_proxy_roundtrip_clamped():
    grid = Grid(1, 28)
    proxy = eigendecompose(reference_operator(grid, "fourth"))
    rng = np.random.default_rng(13)
    vals = rng.normal(size=grid.shape)
    vals[0] = vals[-1] = 0.0
    u = GridFunction.from_scalar(grid, vals)
    back = proxy.synthesize(proxy.coefficients(u))
    assert np.allclose(back.values, u.values, atol=1e-9)


def test_eigendecompose_guards():
    grid = Grid(1, 12)
    ref = reference_operator(grid, "second")
    asym = scipy.sparse.csr_matrix(np.triu(np.ones((12, 12))))
    op = LinearOperator(grid, 1, NEU, asym, ref.active, ref.weights)
    with pytest.raises(SolverError):
        eigendecompose(op, symmetric=True)
    big = Grid(2, 80)  # 6400 unknowns > cap
    with pytest.raises(ValueError):
        eigendecompose(reference_operator(big, "second"))


def test_clamped_bilaplacian_smallest_eigenvalue_near_continuum():
    # first clamped-plate eigenvalue on [0,1] is (4.7300407...)^4 ~ 500.564
    grid = Grid(1, 96)
    proxy = eigendecompose(reference_operator(grid, "fourth"))
    lam1 = proxy.eigenvalues[0]
    exact = 4.730040744862704 ** 4
    assert abs(lam1 - exact) / exact < 5e-3
