"""Stencil, assembly, and eigendecomposition tests.

The polynomial-exactness oracles follow from the stencil orders: the centered
second difference is exact on cubics, the centered fourth difference on
quintics (away from reflection ghosts).  The mirrored Neumann Laplacian has
the exact discrete eigenpairs cos(k*pi*x), lambda_k = (2/h^2)(1 - cos(k*pi*h)),
valid up to the boundary because cosine is even about both walls.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from conftest import count_eigh
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolab import operators
from parabolab.grids import BoundaryCondition, Grid, GridFunction
from parabolab.operators import (STENCILS, BandedCholesky, BandedLU, Diagonals, LinearOperator,
                                 NotPositiveDefiniteError, SolverError, active_flat_indices,
                                 block_rows, derivative, diff_matrix_1d, eigendecompose,
                                 assemble_coefficient_operator, neumann_laplacian,
                                 operator_from_full_matrix, reference_operator, scaled_bands)
from parabolab.problems import (FlowSpec, PolynomialMap, ReactionDiffusionSpec,
                                _fourth_order_coeffs, flow_problem, rd_problem)

NEU = BoundaryCondition.NEUMANN
CLA = BoundaryCondition.CLAMPED


def f1(grid, fn):
    return GridFunction.from_scalar(grid, fn(grid.axis_coords()))


def _from_dense(a):
    """The matrix of the dense ``a``, storing its nonzero entries."""
    n = len(a)
    offsets = np.arange(1 - n, n)
    rows = np.arange(n)
    cols = rows + offsets[:, None]
    inside = (cols >= 0) & (cols < n)
    return Diagonals(offsets, np.where(inside, a[rows, np.clip(cols, 0, n - 1)], 0.0))


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
    du = derivative(f1(grid, poly), order).scalar
    margin = 2  # stay clear of the reflected ghosts
    assert np.allclose(du[margin:-margin], dpoly(x)[margin:-margin],
                       rtol=0, atol=1e-9)


def test_derivative_bad_sigma():
    grid = Grid(1, 16)
    u = f1(grid, lambda x: x)
    with pytest.raises(ValueError):
        derivative(u, 5)
    with pytest.raises(ValueError):
        derivative(u, (2, 2))  # dimension mismatch in 1D
    g2 = Grid(2, 16)
    with pytest.raises(ValueError):
        derivative(GridFunction.zeros(g2), (3, 3))  # |sigma| > 4


def test_neumann_second_derivative_cosine_exact():
    grid = Grid(1, 48)
    x = grid.axis_coords()
    h = grid.h
    for k in (1, 2, 5):
        u = f1(grid, lambda x: np.cos(k * np.pi * x))
        lam = 2.0 / h ** 2 * (1.0 - np.cos(k * np.pi * h))
        d2 = derivative(u, 2).scalar
        # exact at every node including the walls (even reflection)
        assert np.max(np.abs(d2 + lam * u.scalar)) < 1e-9 * lam


def test_derivative_matches_matrix_1d():
    grid = Grid(1, 21)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=grid.shape)
    u = GridFunction.from_scalar(grid, vals)
    for order in (1, 2, 3, 4):
        mat = diff_matrix_1d(grid.nodes_per_axis, grid.h, order)
        assert np.allclose(derivative(u, order).scalar, mat.dot(vals))


def test_derivative_2d_mixed_matches_kron():
    grid = Grid(2, 12)
    rng = np.random.default_rng(1)
    vals = rng.normal(size=grid.shape)
    u = GridFunction.from_scalar(grid, vals)
    n, h = grid.nodes_per_axis, grid.h
    d1 = diff_matrix_1d(n, h, 1)
    d2 = diff_matrix_1d(n, h, 2)
    mixed = d2.kron(d1).dot(vals.ravel())
    assert np.allclose(derivative(u, (2, 1)).scalar.ravel(), mixed)


def test_diff_matrix_order0_identity():
    mat = diff_matrix_1d(9, 0.125, 0)
    assert list(mat.offsets) == [0] and np.array_equal(mat.toarray(), np.eye(9))


def test_clamped_plate_row_next_to_wall():
    # with u0 pinned and the ghost mirrored, the first interior row of the
    # fourth difference is (7, -4, 1)/h^4
    grid = Grid(1, 12)
    op = reference_operator(grid, "fourth")
    h4 = grid.h ** 4
    row = op.toarray()[0] * h4
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
    # one assembly per grid and order, shared by every caller
    assert reference_operator(Grid(1, 10), "fourth") is op4


def test_gather_scatter_roundtrip():
    """gather and scatter for both boundary conditions, one and two
    components, in 1D and 2D, on stacks with no, one and two leading axes:
    scatter(gather(v)) is v on the active unknowns and +0.0 elsewhere,
    gather(scatter(x)) is x, and under Neumann both are views of their
    input.  ``apply`` of the identity is the single-field case."""
    rng = np.random.default_rng(3)
    for dim, bc, ncomp in [(d, b, c) for d in (1, 2) for b in (NEU, CLA) for c in (1, 2)]:
        grid = Grid(dim, 14 if dim == 1 else 9)
        op = operator_from_full_matrix(grid, ncomp, bc, Diagonals.identity(grid.n_nodes * ncomp))
        kept = np.zeros(grid.n_nodes * ncomp, dtype=bool)
        kept[active_flat_indices(grid, ncomp, bc)] = True
        kept = kept.reshape(grid.shape + (ncomp,))
        for lead in ((), (3,), (2, 3)):
            v = rng.normal(size=lead + grid.shape + (ncomp,))
            x = op.gather(v)
            assert x.shape == lead + (op.n_active,)
            back = op.scatter(x)
            assert back.shape == v.shape
            assert _bits(back[..., kept]) == _bits(v[..., kept])
            assert np.all(back[..., ~kept] == 0.0) and not np.signbit(back[..., ~kept]).any()
            assert _bits(op.gather(op.scatter(x))) == _bits(x)
            # peak memory counts on no copy where every unknown is active
            assert np.shares_memory(x, v) == np.shares_memory(back, x) == (bc == NEU)
            for wrong in (v[..., :1] if ncomp == 2 else np.concatenate([v, v], axis=-1),
                          np.zeros(lead + (grid.nodes_per_axis + 1,) * dim + (ncomp,)),
                          np.zeros(ncomp)):
                with pytest.raises(ValueError):
                    op.gather(wrong)
            for wrong in (x[..., 1:], x[..., :1], np.zeros(lead + (op.n_active + 1,))):
                with pytest.raises(ValueError):
                    op.scatter(wrong)
        u = GridFunction(grid, v[0, 0])
        assert _bits(op.apply(u).values) == _bits(back[0, 0])


def test_shifted_adds_identity():
    grid = Grid(1, 12)
    op = reference_operator(grid, "second")
    sh = op.shifted(2.5)
    diff = sh.toarray() - op.toarray()
    assert np.allclose(diff, 2.5 * np.eye(op.n_active))


def test_neumann_laplacian_weighted_symmetry():
    for grid in (Grid(1, 20), Grid(2, 12)):
        op = operator_from_full_matrix(grid, 1, NEU, neumann_laplacian(grid).scaled(-1.0))
        assert op.symmetric_defect() < 1e-14


def test_clamped_bilaplacian_spd():
    grid = Grid(1, 24)
    op = reference_operator(grid, "fourth")
    assert op.symmetric_defect() < 1e-14
    dense = op.toarray()
    lam = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert lam.min() > 0.0


def test_2d_bilaplacian_matches_coefficient_assembly():
    grid = Grid(2, 10)
    ref = reference_operator(grid, "fourth")
    ones = np.ones(grid.shape)
    built = assemble_coefficient_operator(
        grid, {(4, 0): ones, (0, 4): ones, (2, 2): 2.0 * ones}, CLA
    )
    assert np.array_equal(ref.toarray(), built.toarray())


def test_coefficient_operator_applies_nodal_weights():
    grid = Grid(1, 16)
    rng = np.random.default_rng(5)
    c = 1.0 + rng.uniform(size=grid.shape)
    vals = rng.normal(size=grid.shape)
    u = GridFunction.from_scalar(grid, vals)
    op = assemble_coefficient_operator(grid, {(2,): c}, NEU)
    manual = c * derivative(u, 2).scalar
    assert np.allclose(op.apply(u).scalar, manual)


# ---------------------------------------------------------------- solves

def test_banded_solve_matches_dense():
    grid = Grid(1, 30)
    rng = np.random.default_rng(7)
    op = reference_operator(grid, "second").shifted(1.0)
    rhs = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    # solve writes x over its argument, so it gets a copy
    x = BandedLU(*op.to_banded()).solve(op.gather(rhs.values).copy())
    dense = np.linalg.solve(op.toarray(), op.gather(rhs.values))
    assert np.allclose(x, dense, atol=1e-11)


def test_banded_solve_clamped_fourth():
    grid = Grid(1, 26)
    rng = np.random.default_rng(9)
    op = reference_operator(grid, "fourth").shifted(0.5)
    rhs = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    x = BandedLU(*op.to_banded()).solve(op.gather(rhs.values).copy())
    res = op.dot(x) - op.gather(rhs.values)
    assert np.max(np.abs(res)) < 1e-8


def test_singular_solve_raises():
    grid = Grid(1, 9)
    diag = _from_dense(np.diag([1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
    op = operator_from_full_matrix(grid, 1, NEU, diag)
    rhs = GridFunction.from_scalar(grid, np.ones(grid.shape))
    with pytest.raises(SolverError):
        BandedLU(*op.to_banded()).solve(op.gather(rhs.values).copy())


def test_banded_cholesky_errors():
    op = reference_operator(Grid(1, 9), "second")
    ab = op.to_symmetric_banded()
    with pytest.raises(NotPositiveDefiniteError):
        # -A is negative semidefinite
        BandedCholesky(scaled_bands(ab, [-1.0], -1, 0.0)[0].T, op.weights)
    factor = BandedCholesky(scaled_bands(ab, [1e-2], -1, op.weights)[0].T, op.weights)
    # solve leaves the finiteness check to its caller, the implicit Euler march
    assert not np.all(np.isfinite(factor.solve(np.full(op.n_active, np.inf))))


def _gb_storage(dense: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """``dense`` in LAPACK gbtrf storage, with the kl fill rows."""
    n = len(dense)
    ab = np.zeros((2 * kl + ku + 1, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            ab[kl + ku + i - j, j] = dense[i, j]
    return ab


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24), kl=st.integers(0, 3), ku=st.integers(0, 3), spd=st.booleans(),
       row=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_in_place_solves_have_the_bits_of_a_solve_into_a_new_array(n, kl, ku, spd, row, seed):
    # a diagonally dominant band, general or symmetric positive definite
    # (upper band ku), solved in place in one row of a stack of three
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1.0, 1.0, (n, n))
    if spd:
        dense = np.triu(dense) + np.triu(dense, 1).T
        kl = ku
    dense = np.tril(np.triu(dense, -kl), ku)
    dense += np.diag(np.sum(np.abs(dense), axis=1) + 1.0)
    stack = rng.uniform(-1.0, 1.0, (3, n))
    before = stack.copy()
    if spd:
        w = rng.uniform(0.5, 2.0, n)
        # with no subdiagonal, gbtrf storage is pbtrf's upper band storage
        factor = BandedCholesky(_gb_storage(dense, 0, ku), w)
        fresh, info = operators._lapack.dpbtrs(factor.c, w * stack[row])
    else:
        factor = BandedLU(_gb_storage(dense, kl, ku), (kl, ku))
        fresh, info = operators._lapack.dgbtrs(factor.lu, kl, ku, stack[row], factor.piv)
    assert info == 0
    x = factor.solve(stack[row])
    assert np.shares_memory(x, stack[row])
    assert stack[row].tobytes() == fresh.tobytes()
    others = [k for k in range(3) if k != row]
    assert stack[others].tobytes() == before[others].tobytes()


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
        assert np.max(np.abs(op.dot(v) - lam * v)) < 1e-8 * lam


def test_proxy_orthonormal_and_roundtrip():
    grid = Grid(1, 32)
    proxy = eigendecompose(reference_operator(grid, "second"))
    rng = np.random.default_rng(11)
    u = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    c = proxy.coefficients(u.values)
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
    back = proxy.synthesize(proxy.coefficients(u.values))
    assert np.allclose(back.values, u.values, atol=1e-9)


def test_eigendecompose_guards():
    grid = Grid(1, 12)
    ref = reference_operator(grid, "second")
    asym = _from_dense(np.triu(np.ones((12, 12))))
    op = LinearOperator(grid, 1, asym, ref.active, ref.weights)
    with pytest.raises(SolverError):
        eigendecompose(op)
    big = Grid(2, 80)  # 6400 unknowns > cap
    with pytest.raises(ValueError):
        eigendecompose(reference_operator(big, "second"))


@st.composite
def _paired_operators(draw):
    """A random scalar operator symmetric in its pairing: M = W^-1 S, S
    symmetric and banded, W the positive pairing weights."""
    n, band = draw(st.integers(8, 20)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = np.triu(np.tril(rng.uniform(-1.0, 1.0, (n, n)), band), -band)
    w = rng.uniform(0.5, 2.0, n)
    return LinearOperator(Grid(1, n), 1, _from_dense((s + s.T) / w[:, None]), np.arange(n), w)


def _like(op, data=None, weights=None):
    """A new operator with copies of the arrays of ``op``, or the given ones."""
    m = op.matrix
    matrix = Diagonals(m.offsets.copy(), m.data.copy() if data is None else data)
    return LinearOperator(op.grid, 1, matrix, op.active.copy(),
                          op.weights.copy() if weights is None else weights)


@settings(max_examples=30, deadline=None)
@given(_paired_operators(), st.data())
def test_eigendecompose_reuses_a_decomposition_of_the_same_bytes(op, data):
    with pytest.MonkeyPatch.context() as m:
        calls = count_eigh(m)
        first = eigendecompose(op)
        assert eigendecompose(_like(op)) is first and len(calls) == 1
        for a in (first.eigenvalues, first.modes):
            with pytest.raises(ValueError):
                a[0] = 0.0
        m.setattr(operators, "_EIG_CACHE", {})
        fresh = eigendecompose(_like(op))
        assert fresh is not first and len(calls) == 2
        assert _bits(fresh.eigenvalues) == _bits(first.eigenvalues)
        assert _bits(fresh.modes) == _bits(first.modes)
        # one weight, or one nonzero entry, 1 ulp up
        weights = op.weights.copy()
        i = data.draw(st.integers(0, op.n_active - 1))
        weights[i] = np.nextafter(weights[i], np.inf)
        diag, row = np.nonzero(op.matrix.data)
        e = data.draw(st.integers(0, len(row) - 1))
        entries = op.matrix.data.copy()
        entries[diag[e], row[e]] = np.nextafter(entries[diag[e], row[e]], np.inf)
        for other in (_like(op, weights=weights), _like(op, data=entries)):
            assert eigendecompose(other) is not fresh
        assert len(calls) == 4


@settings(max_examples=20, deadline=None)
@given(_paired_operators())
def test_eigendecompose_keeps_no_failure(op):
    dense = op.toarray()
    dense[0, 1] += 1.0
    skew = LinearOperator(op.grid, 1, _from_dense(dense), op.active, op.weights)
    with pytest.MonkeyPatch.context() as m:
        calls = count_eigh(m)
        for _ in range(2):
            with pytest.raises(SolverError):
                eigendecompose(skew)
        assert calls == [] and operators._EIG_CACHE == {}


@settings(max_examples=60, deadline=None)
@given(st.lists(_paired_operators(), min_size=2, max_size=4), st.integers(500, 12000), st.data())
def test_eigendecompose_keeps_at_most_its_byte_budget(pool, budget, data):
    """The cache against a model: entries of modes, eigenvalues, key bytes
    and the proxy's copy of the operator (about 1 to 6 kB here), least
    recently used first, none larger than the budget, the oldest evicted
    while the total exceeds it."""
    order = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=10))
    model = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(operators, "_EIG_CACHE", {})
        m.setattr(operators, "EIG_CACHE_BYTES", budget)
        for op in (pool[i] for i in order):
            proxy = eigendecompose(op)
            size = (proxy.modes.nbytes + proxy.eigenvalues.nbytes
                    + 2 * sum(a.nbytes for a in (op.active, op.weights, op.matrix.offsets,
                                                 op.matrix.data)))
            model = [(p, s) for p, s in model if p is not proxy]
            if size <= budget:
                model.append((proxy, size))
                while sum(s for _, s in model) > budget:
                    model.pop(0)
            kept = list(operators._EIG_CACHE.values())
            assert [s for _, s in kept] == [s for _, s in model]
            assert all(p is q for (p, _), (q, _) in zip(kept, model))
            assert sum(s for _, s in kept) <= budget


def test_a_kept_proxy_operator_keeps_no_state_from_dot(monkeypatch):
    count_eigh(monkeypatch)
    op = reference_operator(Grid(1, 33), "second")
    proxy = eigendecompose(op)
    state = _state(proxy.operator.matrix)
    op.dot(np.ones(op.n_active))
    proxy.operator.dot(np.ones((3, op.n_active)))
    assert _state(proxy.operator.matrix) == state
    assert operators._EIG_CACHE[next(iter(operators._EIG_CACHE))][0] is proxy


def test_clamped_bilaplacian_smallest_eigenvalue_near_continuum():
    # first clamped-plate eigenvalue on [0,1] is (4.7300407...)^4 ~ 500.564
    grid = Grid(1, 96)
    proxy = eigendecompose(reference_operator(grid, "fourth"))
    lam1 = proxy.eigenvalues[0]
    exact = 4.730040744862704 ** 4
    assert abs(lam1 - exact) / exact < 5e-3


# ---------------------------------------------------------------- the CSR reference
# The scipy.sparse assembly of the same operators gives bit for bit the same
# dense matrix, symmetric band, symmetric defect and eigenpairs.  CSR also
# stores the exact zeros of a stencil fold and of a zero block, which widen
# its band; the diagonals keep no zero diagonal, so their band is that of
# CSR's nonzero entries.  CSR sums each row in the order it lists the row's
# entries (backwards after a row scaling), the diagonals by ascending
# diagonal, so their products agree with CSR's within a roundoff bound and
# are bit for bit the sums of ``_by_diagonal``.

def _csr_mirrored(n, off):
    idx = np.abs(np.arange(off, n + off))
    return np.where(idx > n - 1, 2 * (n - 1) - idx, idx)


def _csr_diff_matrix_1d(n, h, order):
    if order == 0:
        return scipy.sparse.identity(n, format="csr")
    offsets, coeffs = STENCILS[order]
    terms = [(off, c) for off, c in zip(offsets, coeffs) if c != 0.0]
    cols = np.stack([_csr_mirrored(n, off) for off, _ in terms], axis=1)
    rows = np.repeat(np.arange(n), len(terms))
    data = np.tile([c / h ** order for _, c in terms], n)
    return scipy.sparse.csr_matrix((data, (rows, cols.ravel())), shape=(n, n))


def _csr_reduce(grid, ncomp, bc, full):
    active = active_flat_indices(grid, ncomp, bc)
    mat = scipy.sparse.csr_matrix(full)
    if len(active) != mat.shape[0]:
        mat = mat[active][:, active]
    return mat.tocsr()


def _csr_laplacian(grid):
    n = grid.nodes_per_axis
    d2 = _csr_diff_matrix_1d(n, grid.h, 2)
    if grid.dim == 1:
        return d2
    eye = scipy.sparse.identity(n, format="csr")
    return (scipy.sparse.kron(d2, eye) + scipy.sparse.kron(eye, d2)).tocsr()


def _csr_reference(grid, order):
    if order == "second":
        return _csr_reduce(grid, 1, NEU, -_csr_laplacian(grid))
    n = grid.nodes_per_axis
    d2, d4 = _csr_diff_matrix_1d(n, grid.h, 2), _csr_diff_matrix_1d(n, grid.h, 4)
    if grid.dim == 1:
        return _csr_reduce(grid, 1, CLA, d4)
    eye = scipy.sparse.identity(n, format="csr")
    full = (scipy.sparse.kron(d4, eye) + scipy.sparse.kron(eye, d4)
            + 2.0 * scipy.sparse.kron(d2, d2)).tocsr()
    return _csr_reduce(grid, 1, CLA, full)


def _csr_coefficients(grid, coeffs, bc, ncomp=1):
    n = grid.nodes_per_axis
    total = None
    for sigma, c in coeffs.items():
        mats = [_csr_diff_matrix_1d(n, grid.h, s) for s in sigma]
        dmat = mats[0] if grid.dim == 1 else scipy.sparse.kron(mats[0], mats[1], format="csr")
        term = scipy.sparse.diags(np.asarray(c, dtype=float).ravel()) @ dmat
        total = term if total is None else total + term
    if ncomp > 1:
        total = scipy.sparse.kron(total, scipy.sparse.identity(ncomp), format="csr")
    return _csr_reduce(grid, ncomp, bc, total)


def _csr_diffusion(grid, av):
    """-a(v) Lap for the (n_nodes, N, N) diffusion matrices ``av``."""
    N, n_nodes = av.shape[1], grid.n_nodes
    blocks = scipy.sparse.bsr_matrix((av, np.arange(n_nodes), np.arange(n_nodes + 1)),
                                     shape=(n_nodes * N, n_nodes * N))
    big_lap = scipy.sparse.kron(_csr_laplacian(grid), scipy.sparse.identity(N), format="csr")
    return _csr_reduce(grid, N, NEU, -(blocks @ big_lap))


def _csr_to_banded(mat):
    coo = mat.tocoo()
    offsets = coo.row - coo.col
    kl = int(max(offsets.max(initial=0), 0))
    ku = int(max(-offsets.min(initial=0), 0))
    ab = np.zeros((2 * kl + ku + 1, mat.shape[0]), order="F")
    ab[kl + ku + offsets, coo.col] = coo.data
    return ab, (kl, ku)


def _csr_to_symmetric_banded(mat, w):
    coo = (scipy.sparse.diags(w) @ mat).tocoo()
    offsets = coo.col - coo.row
    upper = offsets >= 0
    kd = int(offsets.max(initial=0))
    ab = np.zeros((kd + 1, mat.shape[0]), order="F")
    ab[kd - offsets[upper], coo.col[upper]] = coo.data[upper]
    return ab


def _csr_symmetric_defect(mat, w):
    wm = scipy.sparse.diags(w) @ mat
    diff = (wm - wm.T).tocoo()
    scale = max(np.max(np.abs(wm.data)) if wm.nnz else 0.0, 1e-300)
    defect = np.max(np.abs(diff.data)) if diff.nnz else 0.0
    return float(defect / scale)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _state(obj):
    """The attributes of ``obj``, each by the identity of its value."""
    return {name: id(value) for name, value in vars(obj).items()}


def _by_diagonal(diag, x):
    """The product with each vector along the last axis of ``x``: each row
    adds its terms inside the matrix to zero by ascending diagonal, one
    diagonal at a time over the whole stack, with no blocks."""
    n = diag.n
    out = np.zeros(x.shape)
    for off, d in zip(diag.offsets, diag.data):
        lo, hi = max(0, -off), min(n, n - off)
        out[..., lo:hi] += d[lo:hi] * x[..., lo + off:hi + off]
    return out


def _roundoff(diag, x):
    """How far two sums of the same row terms, in any order, may differ:
    twice the bound on the rounding error of one, which is ndiag eps/2 (to
    first order) times the sum of the terms' moduli."""
    return 2 * len(diag.offsets) * np.finfo(float).eps * (np.abs(x) @ np.abs(diag.toarray()).T)


def assert_same_matrix(diag, csr, seed=0):
    """Bitwise the same dense matrix, no zero diagonal kept, and products
    with a stack and with one vector bitwise ``_by_diagonal`` and within
    ``_roundoff`` of CSR's."""
    assert _bits(diag.toarray()) == _bits(csr.toarray())
    assert np.all(np.any(diag.data != 0.0, axis=1))
    # a stack of several blocks of vectors, with leading axes and strided rows
    wide = np.random.default_rng(seed).normal(size=(2, 150, diag.n + 1))
    for x in (wide[..., 1:], wide[0, 0, 1:]):
        got = diag.dot(x)
        assert _bits(got) == _bits(_by_diagonal(diag, x))
        want = (csr @ x.reshape(-1, diag.n).T).T.reshape(x.shape)
        assert np.all(np.abs(got - want) <= _roundoff(diag, x))


def assert_same_operator(op, csr):
    assert_same_matrix(op.matrix, csr)
    ab, bands = op.to_banded()
    nonzero = csr.copy()
    nonzero.eliminate_zeros()
    ref_ab, ref_bands = _csr_to_banded(nonzero)
    # a zero in the band reads +0.0 or -0.0 on either side
    assert bands == ref_bands and _bits(ab + 0.0) == _bits(ref_ab + 0.0)
    assert _bits(op.to_symmetric_banded()) == _bits(_csr_to_symmetric_banded(csr, op.weights))
    assert op.symmetric_defect() == _csr_symmetric_defect(csr, op.weights)


@pytest.mark.parametrize("n", [8, 13])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("bc", [NEU, CLA])
def test_diff_matrix_1d_matches_csr(n, order, bc):
    """The 1D matrix, reduced to the unknowns ``bc`` keeps (every node for
    Neumann, the interior for clamped), matches the CSR reduction."""
    grid = Grid(1, n)
    active = active_flat_indices(grid, 1, bc)
    full = diff_matrix_1d(n, grid.h, order)
    assert_same_matrix(full if len(active) == n else full.take(active),
                       _csr_reduce(grid, 1, bc, _csr_diff_matrix_1d(n, grid.h, order)))


@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_and_reference_operators_match_csr(dim):
    grid = Grid(dim, 9)
    assert_same_matrix(neumann_laplacian(grid), _csr_laplacian(grid))
    for order in ("second", "fourth"):
        op = reference_operator(grid, order)
        assert_same_operator(op, _csr_reference(grid, order))
        for kappa in (0.0, 2.5, -1.0):
            ref = (_csr_reference(grid, order) + kappa * scipy.sparse.identity(op.n_active))
            assert_same_operator(op.shifted(kappa), ref.tocsr())


def _random_coefficients(grid, rng, max_order=4):
    """Random nodal coefficients, some of them zero, on random multi-indices."""
    sigmas = [s for s in np.ndindex(*(max_order + 1,) * grid.dim) if sum(s) <= max_order]
    picked = rng.choice(len(sigmas), size=min(6, len(sigmas)), replace=False)
    coeffs = {}
    for k in picked:
        c = rng.normal(size=grid.shape)
        c[rng.uniform(size=grid.shape) < 0.2] = 0.0
        coeffs[tuple(int(s) for s in sigmas[k])] = c
    return coeffs


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bc", [NEU, CLA])
@pytest.mark.parametrize("ncomp", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_coefficient_operator_matches_csr(dim, bc, ncomp, seed):
    grid = Grid(dim, 9)
    coeffs = _random_coefficients(grid, np.random.default_rng(seed))
    op = assemble_coefficient_operator(grid, coeffs, bc, ncomp)
    assert_same_operator(op, _csr_coefficients(grid, coeffs, bc, ncomp))
    # a single order alone, for every order
    for order in range(5):
        sigma = (order,) + (0,) * (dim - 1)
        one = {sigma: coeffs[next(iter(coeffs))]}
        assert_same_operator(assemble_coefficient_operator(grid, one, bc),
                             _csr_coefficients(grid, one, bc))


def test_a_cancelled_entry_reads_zero_and_adds_nothing():
    # a third term cancels the diagonal of D2 + D4 exactly at the interior
    # nodes; the diagonal stays, for the boundary rows
    grid = Grid(1, 9)
    ones = np.ones(grid.shape)
    centre = -2.0 / grid.h ** 2 + 6.0 / grid.h ** 4
    coeffs = {(2,): ones, (4,): ones, (0,): np.full(grid.shape, -centre)}
    x = np.random.default_rng(2).normal(size=(4, 9))
    for bc in (NEU, CLA):
        op = assemble_coefficient_operator(grid, coeffs, bc)
        i = list(op.active).index(4)
        assert op.matrix.data[list(op.matrix.offsets).index(0), i] == 0.0
        # the same product as the matrix of the other entries alone
        rest = Diagonals.from_entries(op.n_active, *op.matrix.entries())
        v = x[:, :op.n_active]
        assert _bits(op.dot(v)) == _bits(rest.dot(v))
        assert_same_operator(op, _csr_coefficients(grid, coeffs, bc))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("ncomp", [1, 2, 3])
@pytest.mark.parametrize("coupled", [True, False])
def test_diffusion_operator_matches_csr(dim, ncomp, coupled):
    grid = Grid(dim, 9)
    rng = np.random.default_rng(ncomp)
    # random nodal diffusion matrices, diagonal ones storing exact zeros
    av = rng.uniform(0.5, 1.5, size=(grid.n_nodes, ncomp, ncomp))
    if not coupled:
        av *= np.eye(ncomp)
    op = operator_from_full_matrix(grid, ncomp, NEU,
                                   block_rows(av, neumann_laplacian(grid)).scaled(-1.0))
    ref = _csr_diffusion(grid, av)
    assert_same_operator(op, ref)
    assert_same_operator(op.shifted(1.5), (ref + 1.5 * scipy.sparse.identity(op.n_active)).tocsr())
    # the reaction-diffusion family assembles the same, here for a constant a
    a = np.eye(ncomp) + (0.2 * np.triu(np.ones((ncomp, ncomp)), 1) if coupled else 0.0)
    spec = ReactionDiffusionSpec(grid=grid, ncomp=ncomp, a=PolynomialMap.constant(a),
                                 f=PolynomialMap.constant(np.zeros(ncomp)),
                                 b=PolynomialMap.constant(np.zeros((ncomp,) * 3)),
                                 u_box=np.array([[-2.0, 2.0]] * ncomp))
    v = GridFunction(grid, rng.uniform(-1.0, 1.0, size=grid.shape + (ncomp,)))
    assert_same_operator(rd_problem(spec).assemble_A(v),
                         _csr_diffusion(grid, np.broadcast_to(a, av.shape)))


@pytest.mark.parametrize("kind", ["willmore", "surface_diffusion"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("seed", range(2))
def test_flow_operator_matches_csr(kind, dim, seed):
    grid = Grid(dim, 10)
    rng = np.random.default_rng(seed)
    values = 0.05 * rng.normal(size=grid.shape)
    values[~grid.interior_mask()] = 0.0
    h = GridFunction.from_scalar(grid, values)
    op = flow_problem(FlowSpec(grid=grid, kind=kind)).assemble_A(h)
    assert_same_operator(op, _csr_coefficients(grid, _fourth_order_coeffs(grid, h), CLA))


# ---------------------------------------------------------------- the diagonal storage

def _rd_operator(grid, a):
    """The reaction-diffusion operator -a Lap for the constant (N, N) ``a``."""
    N = len(a)
    spec = ReactionDiffusionSpec(grid=grid, ncomp=N, a=PolynomialMap.constant(a),
                                 f=PolynomialMap.constant(np.zeros(N)),
                                 b=PolynomialMap.constant(np.zeros((N,) * 3)),
                                 u_box=np.array([[-2.0, 2.0]] * N))
    return rd_problem(spec).assemble_A(GridFunction.zeros(grid, N))


@pytest.mark.parametrize("case", ["1d-second", "1d-fourth", "2d-second", "2d-fourth",
                                  "1d-coupled-rd", "2d-coupled-rd"])
def test_a_non_finite_entry_stays_in_its_vector(case):
    """Rows near a vector's ends have diagonals reaching into the next or the
    previous vector of a stack; an inf or a nan there reaches no row of
    another vector, which gets bitwise its product alone."""
    dim, kind = int(case[0]), case.split("-", 1)[1]
    grid = Grid(dim, 33 if dim == 1 else 10)
    if kind == "coupled-rd":
        op = _rd_operator(grid, np.array([[1.0, 0.3], [-0.2, 0.8]]))
    else:
        op = reference_operator(grid, kind)
    n = op.n_active
    step = operators._DOT_BLOCK // n
    x = np.random.default_rng(dim).normal(size=(2 * step + 3, n))
    # one vector inside the first block, one at the start of the second
    bad = [step // 2, step]
    x[bad, 0], x[bad, -1] = np.inf, np.nan
    got = op.dot(x)
    assert not np.isfinite(got[bad]).all()
    for v in sorted(set(range(len(x))) - set(bad)):
        assert np.isfinite(got[v]).all()
        assert _bits(got[v]) == _bits(op.dot(x[v]))


_ENTRIES = st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0])


def _dense_matrices(n, m=None):
    """(n, m) arrays of a few exact values, zero in most places."""
    m = n if m is None else m
    return st.lists(_ENTRIES, min_size=n * m, max_size=n * m).map(
        lambda v: np.array(v).reshape(n, m))


def _assert_is_dense(m, dense, vectors):
    """``m`` holds bitwise the entries of ``dense`` (a zero reads +0.0), no
    zero diagonal, and nothing outside the matrix; its products with a stack
    of ``vectors`` vectors are bitwise ``_by_diagonal`` and within
    ``_roundoff`` of numpy's, and leave the attributes of ``m`` as they
    were."""
    assert _bits(m.toarray()) == _bits(dense + 0.0)
    assert np.all(np.diff(m.offsets) > 0)
    assert np.all(np.any(m.data != 0.0, axis=1))
    cols = np.arange(m.n) + m.offsets[:, None]
    assert not np.any(m.data[(cols < 0) | (cols >= m.n)])
    x = np.random.default_rng(m.n).normal(size=(vectors, m.n))
    state = _state(m)
    got = m.dot(x)
    assert _state(m) == state
    assert _bits(got) == _bits(_by_diagonal(m, x))
    assert np.all(np.abs(got - x @ dense.T) <= _roundoff(m, x))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_algebra_matches_dense_numpy(data):
    n = data.draw(st.integers(1, 6))
    # a stack shorter than a block of the product, one block, or a partial
    # last block
    step = operators._DOT_BLOCK // n
    vectors = data.draw(st.one_of(st.just(step), st.integers(1, 2 * step + 1)))
    a = data.draw(_dense_matrices(n))
    # b is -a wherever ``cancel``, so that a + b cancels exactly there
    cancel = data.draw(_dense_matrices(n)) != 0.0
    b = np.where(cancel, -a, data.draw(_dense_matrices(n)))
    where = data.draw(_dense_matrices(n)) != 0.0  # the entries given, zeros among them
    rows, cols = np.nonzero(where)
    A = Diagonals.from_entries(n, rows, cols - rows, a[rows, cols])
    a = np.where(where, a, 0.0)
    _assert_is_dense(A, a, vectors)
    B = _from_dense(b)
    _assert_is_dense(B, b, vectors)
    _assert_is_dense(A.plus(B), a + b, vectors)
    _assert_is_dense(B.plus(B.scaled(-1.0)), np.zeros((n, n)), vectors)
    nb = data.draw(st.integers(1, 3))
    other = data.draw(_dense_matrices(nb))
    _assert_is_dense(A.kron(_from_dense(other)), np.kron(a, other), vectors)
    index = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    _assert_is_dense(A.take(index), a[np.ix_(index, index)], vectors)
    c = data.draw(_dense_matrices(1, n))[0]
    _assert_is_dense(A.scaled_rows(c), c[:, None] * a, vectors)
    blocks = data.draw(_dense_matrices(n, nb * nb)).reshape(n, nb, nb)
    _assert_is_dense(block_rows(blocks, A),
                     np.einsum("iab,ij->iajb", blocks, a).reshape(n * nb, n * nb), vectors)
    value = data.draw(_ENTRIES)
    _assert_is_dense(Diagonals.identity(n, value), value * np.eye(n), vectors)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_uncoupled_diffusion_keeps_the_band_of_its_nodes(dim, ncomp):
    """N uncoupled components take the band (N s, N s), s the node stride;
    CSR's stored zeros of the zero blocks widened it to N s + N - 1."""
    grid = Grid(dim, 9)
    stride = grid.nodes_per_axis ** (dim - 1)
    av = np.random.default_rng(ncomp).uniform(0.5, 1.5, (grid.n_nodes, ncomp, ncomp))
    av *= np.eye(ncomp)
    op = operator_from_full_matrix(grid, ncomp, NEU,
                                   block_rows(av, neumann_laplacian(grid)).scaled(-1.0))
    assert op.to_banded()[1] == (ncomp * stride,) * 2
    assert _csr_to_banded(_csr_diffusion(grid, av))[1] == (ncomp * stride + ncomp - 1,) * 2
    assert _rd_operator(grid, np.diag(np.arange(1.0, ncomp + 1))).to_banded()[1] == (
        ncomp * stride,) * 2


def test_an_operator_product_leaves_numpy_ma_unimported():
    # np.unique and np.union1d import numpy.ma on their first call, which
    # costs more than a small run's assembly
    env = dict(os.environ)
    src = str(Path(operators.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from parabolab.grids import Grid",
        "from parabolab.operators import reference_operator",
        "for dim in (1, 2):",
        "    for order in ('second', 'fourth'):",
        "        op = reference_operator(Grid(dim, 9), order).shifted(1.0)",
        "        op.dot(np.ones((3, op.n_active)))",
        "        op.to_banded()",
        "print('numpy.ma' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("dim,order", [(1, "second"), (1, "fourth"), (2, "second"),
                                       (2, "fourth")])
def test_eigendecompose_matches_eigh(dim, order):
    grid = Grid(dim, 12)
    op = reference_operator(grid, order)
    proxy = eigendecompose(op)
    sqw = np.sqrt(op.weights)
    sym = (_csr_reference(grid, order).toarray() * sqw[:, None]) / sqw[None, :]
    lam, vecs = scipy.linalg.eigh(0.5 * (sym + sym.T))
    assert _bits(proxy.eigenvalues) == _bits(lam)
    assert _bits(proxy.modes) == _bits(vecs / sqw[:, None])


def test_lapack_fallback_gives_the_same_bits(monkeypatch):
    """With the load of scipy's LAPACK extension by file path failing, the
    operators take ``scipy.linalg.lapack``, with bitwise the same factors and
    eigenpairs."""
    import importlib.util

    def fail(*args, **kwargs):
        raise ImportError("no direct load")

    grid = Grid(1, 16)
    op = reference_operator(grid, "second").shifted(0.5)
    plate = reference_operator(grid, "fourth")

    def results():
        ab, bands = op.to_banded()
        lu = BandedLU(ab, bands)
        chol = BandedCholesky(op.to_symmetric_banded(), op.weights)
        b = np.linspace(-1.0, 1.0, op.n_active)
        proxy = eigendecompose(plate)
        return [lu.lu, lu.piv, lu.solve(b.copy()), chol.c, chol.solve(b.copy()),
                proxy.eigenvalues, proxy.modes]

    monkeypatch.setattr(operators, "_EIG_CACHE", {})
    direct = results()
    with monkeypatch.context() as m:
        m.setattr(importlib.util, "spec_from_file_location", fail)
        fallback = operators._load_lapack()
    assert fallback.__name__ == "scipy.linalg.lapack"
    monkeypatch.setattr(operators, "_lapack", fallback)
    # the plate must be decomposed again, by the fallback's dsyevr
    operators._EIG_CACHE.clear()
    calls = []
    dsyevr = fallback.dsyevr
    monkeypatch.setattr(fallback, "dsyevr", lambda *a, **k: calls.append(1) or dsyevr(*a, **k))
    for a, b in zip(direct, results()):
        assert a.dtype == b.dtype and _bits(a) == _bits(b)
    assert calls == [1]
