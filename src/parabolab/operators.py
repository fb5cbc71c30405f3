"""Finite-difference operators on tensor grids.

Second-order central stencils throughout, with ghost nodes supplied by even
(symmetric) reflection about the boundary node.  For Neumann data the
reflection enforces the zero normal derivative; for clamped data it is the
quadratic extrapolation consistent with u = 0 and du/dn = 0, with the
boundary value itself pinned to zero at the operator level (interior
reduction).  The resulting 1D building blocks are the classical stencils

    order 1: (-1/2, 0, 1/2) / h
    order 2: (1, -2, 1) / h^2
    order 3: (-1/2, 1, 0, -1, 1/2) / h^3
    order 4: (1, -4, 6, -4, 1) / h^4

and e.g. the clamped fourth-derivative row next to a wall becomes
(7, -4, 1)/h^4, the classical clamped-plate stencil.

The discrete L2 pairing is trapezoid-weighted; the mirrored Neumann Laplacian
is symmetric in that pairing, the reduced clamped bilaplacian in the plain
interior pairing, and ``eigendecompose`` symmetrizes accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse

from .grids import BoundaryCondition, Grid, GridFunction

# offsets and coefficients of the centered stencils, by derivative order
STENCILS = {
    1: ((-1, 0, 1), (-0.5, 0.0, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 0, 1, 2), (-0.5, 1.0, 0.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}

# dense/spectral diagnostics are capped at this many unknowns
DESK_EIG_CAP = 4096


class SolverError(RuntimeError):
    """Raised when a direct linear solve fails (singular pivot etc.)."""


class NotPositiveDefiniteError(SolverError):
    """A Cholesky factorization met a non-positive pivot."""


def _axis_stencil_apply(values: np.ndarray, axis: int, order: int, h: float) -> np.ndarray:
    offsets, coeffs = STENCILS[order]
    n = values.shape[axis]
    out = np.zeros_like(values)
    shifted = np.empty_like(values)
    for off, c in zip(offsets, coeffs):
        if c == 0.0:
            continue
        idx = np.abs(np.arange(off, n + off))  # ghost nodes mirror about the boundary
        idx = np.where(idx > n - 1, 2 * (n - 1) - idx, idx)
        np.take(values, idx, axis=axis, out=shifted, mode="clip")
        shifted *= c
        out += shifted
    out /= h ** order
    return out


def derivative_values(values: np.ndarray, grid: Grid, sigma,
                      bc: BoundaryCondition) -> np.ndarray:
    """D^sigma of nodal values of shape ``(..., *grid.shape, ncomp)``, with
    reflection ghosts, applied one spatial axis at a time.

    Leading axes, such as the samples of a trajectory, are carried along.
    ``sigma`` is a multi-index (an int is accepted in 1D).  Each component
    must be <= 4 and the total order |sigma| <= 4.  Both boundary conditions
    use the symmetric reflection ghost rule; they differ only in which nodes
    an assembled operator treats as unknowns.
    """
    if isinstance(sigma, int):
        sigma = (sigma,)
    sigma = tuple(int(s) for s in sigma)
    if len(sigma) != grid.dim:
        raise ValueError(f"sigma {sigma} does not match grid dimension {grid.dim}")
    if any(s < 0 or s > 4 for s in sigma) or sum(sigma) > 4:
        raise ValueError(f"unsupported multi-index {sigma}: components <= 4, |sigma| <= 4")
    if not isinstance(bc, BoundaryCondition):
        raise TypeError(f"bc must be a BoundaryCondition, got {bc!r}")
    vals = values
    for axis, s in enumerate(sigma):
        if s == 0:
            continue
        vals = _axis_stencil_apply(vals, axis - grid.dim - 1, s, grid.h)
    return vals.copy() if vals is values else vals


def derivative(u: GridFunction, sigma, bc: BoundaryCondition) -> GridFunction:
    """D^sigma u; see ``derivative_values``."""
    return GridFunction(u.grid, derivative_values(u.values, u.grid, sigma, bc))


def diff_matrix_1d(n: int, h: float, order: int, bc: BoundaryCondition) -> scipy.sparse.csr_matrix:
    """1D derivative matrix over all n nodes with reflection ghosts folded in.

    order 0 returns the identity.  Rows are produced for every node including
    the boundary; clamped reduction (dropping boundary rows/columns) is done
    by the operator assembly, not here.
    """
    if order == 0:
        return scipy.sparse.identity(n, format="csr")
    offsets, coeffs = STENCILS[order]
    rows, cols, data = [], [], []
    for i in range(n):
        for off, c in zip(offsets, coeffs):
            if c == 0.0:
                continue
            j = i + off
            if j < 0:
                j = -j
            elif j > n - 1:
                j = 2 * (n - 1) - j
            rows.append(i)
            cols.append(j)
            data.append(c / h ** order)
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def _active_flat_indices(grid: Grid, ncomp: int, bc: BoundaryCondition) -> np.ndarray:
    total = grid.n_nodes * ncomp
    if bc == BoundaryCondition.NEUMANN:
        return np.arange(total)
    mask = np.repeat(grid.interior_mask().ravel(), ncomp)
    return np.flatnonzero(mask)


@dataclass
class LinearOperator:
    """Sparse operator on the active unknowns of a grid.

    For Neumann problems every node is active; for clamped problems only the
    interior nodes are (boundary values are pinned to zero, so dropping their
    columns is exact).  ``weights`` are the pairing weights of the active
    unknowns; symmetry statements are relative to that pairing.
    """

    grid: Grid
    ncomp: int
    bc: BoundaryCondition
    matrix: scipy.sparse.csr_matrix
    active: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = len(self.active)
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match {n} active unknowns"
            )
        if len(self.weights) != n:
            raise ValueError("weights length does not match active unknowns")

    @property
    def n_active(self) -> int:
        return len(self.active)

    def restrict(self, u: GridFunction) -> np.ndarray:
        if u.ncomp != self.ncomp or u.grid != self.grid:
            raise ValueError("field does not match operator layout")
        return u.values.ravel()[self.active]

    def extend(self, vec: np.ndarray) -> GridFunction:
        full = np.zeros(self.grid.n_nodes * self.ncomp)
        full[self.active] = vec
        return GridFunction(self.grid, full.reshape(self.grid.shape + (self.ncomp,)))

    def apply(self, u: GridFunction) -> GridFunction:
        return self.extend(self.matrix @ self.restrict(u))

    def shifted(self, kappa: float) -> "LinearOperator":
        """A + kappa*I on the active unknowns."""
        mat = (self.matrix + kappa * scipy.sparse.identity(self.n_active)).tocsr()
        return LinearOperator(self.grid, self.ncomp, self.bc, mat, self.active, self.weights)

    def symmetric_defect(self) -> float:
        """max |WM - (WM)^T| relative to max |WM|, W the pairing weights."""
        wm = scipy.sparse.diags(self.weights) @ self.matrix
        diff = (wm - wm.T).tocoo()
        scale = max(np.max(np.abs(wm.data)) if wm.nnz else 0.0, 1e-300)
        defect = np.max(np.abs(diff.data)) if diff.nnz else 0.0
        return float(defect / scale)

    def to_banded(self):
        """(ab, (kl, ku)) in LAPACK ``gbtrf`` storage.

        Entry (i, j) sits at ``ab[kl + ku + i - j, j]``; the top ``kl`` rows
        are the fill space the LU factorization writes into.
        """
        coo = self.matrix.tocoo()
        offsets = coo.row - coo.col
        kl = int(max(offsets.max(initial=0), 0))
        ku = int(max(-offsets.min(initial=0), 0))
        ab = np.zeros((2 * kl + ku + 1, self.n_active), order="F")
        ab[kl + ku + offsets, coo.col] = coo.data
        return ab, (kl, ku)

    def to_symmetric_banded(self) -> np.ndarray:
        """diag(weights) @ matrix in LAPACK ``pbtrf`` upper storage.

        Entry (i, j), i <= j, sits at ``ab[kd + i - j, j]``; the lower
        triangle is not stored, so this is only meaningful for an operator
        that is symmetric in its pairing.
        """
        coo = (scipy.sparse.diags(self.weights) @ self.matrix).tocoo()
        offsets = coo.col - coo.row
        upper = offsets >= 0
        kd = int(offsets.max(initial=0))
        ab = np.zeros((kd + 1, self.n_active), order="F")
        ab[kd - offsets[upper], coo.col[upper]] = coo.data[upper]
        return ab


def operator_from_full_matrix(grid: Grid, ncomp: int, bc: BoundaryCondition,
                              full_matrix) -> LinearOperator:
    """Reduce a full-grid matrix to the active unknowns of ``bc``."""
    active = _active_flat_indices(grid, ncomp, bc)
    mat = scipy.sparse.csr_matrix(full_matrix)
    if len(active) != mat.shape[0]:
        mat = mat[active][:, active]
    weights = np.repeat(grid.trapezoid_weights().ravel(), ncomp)[active]
    return LinearOperator(grid, ncomp, bc, mat.tocsr(), active, weights)


def assemble_coefficient_operator(grid: Grid, coeffs: dict, bc: BoundaryCondition,
                                  ncomp: int = 1) -> LinearOperator:
    """sum_sigma diag(c_sigma) D^sigma as a LinearOperator (scalar blocks).

    ``coeffs`` maps multi-indices to nodal coefficient arrays of shape
    ``grid.shape``.  With ncomp > 1 the scalar operator acts componentwise.
    """
    n = grid.nodes_per_axis
    total = None
    for sigma, c in coeffs.items():
        if isinstance(sigma, int):
            sigma = (sigma,)
        mats = [diff_matrix_1d(n, grid.h, s, bc) for s in sigma]
        if grid.dim == 1:
            dmat = mats[0]
        else:
            dmat = scipy.sparse.kron(mats[0], mats[1], format="csr")
        term = scipy.sparse.diags(np.asarray(c, dtype=float).ravel()) @ dmat
        total = term if total is None else total + term
    if total is None:
        raise ValueError("no coefficient terms given")
    if ncomp > 1:
        total = scipy.sparse.kron(total, scipy.sparse.identity(ncomp), format="csr")
    return operator_from_full_matrix(grid, ncomp, bc, total)


def neumann_laplacian(grid: Grid) -> scipy.sparse.csr_matrix:
    """Full-grid mirrored-stencil Laplacian (scalar)."""
    n = grid.nodes_per_axis
    d2 = diff_matrix_1d(n, grid.h, 2, BoundaryCondition.NEUMANN)
    if grid.dim == 1:
        return d2
    eye = scipy.sparse.identity(n, format="csr")
    return (scipy.sparse.kron(d2, eye) + scipy.sparse.kron(eye, d2)).tocsr()


def reference_operator(grid: Grid, order: str) -> LinearOperator:
    """Positive model operator of each class: -Laplacian (Neumann) for
    second order, the clamped bilaplacian for fourth order."""
    if order == "second":
        return operator_from_full_matrix(
            grid, 1, BoundaryCondition.NEUMANN, -neumann_laplacian(grid)
        )
    if order == "fourth":
        n = grid.nodes_per_axis
        bc = BoundaryCondition.CLAMPED
        d2 = diff_matrix_1d(n, grid.h, 2, bc)
        d4 = diff_matrix_1d(n, grid.h, 4, bc)
        if grid.dim == 1:
            full = d4
        else:
            eye = scipy.sparse.identity(n, format="csr")
            full = (
                scipy.sparse.kron(d4, eye)
                + scipy.sparse.kron(eye, d4)
                + 2.0 * scipy.sparse.kron(d2, d2)
            ).tocsr()
        return operator_from_full_matrix(grid, 1, bc, full)
    raise ValueError(f"order must be 'second' or 'fourth', got {order!r}")


def _solve_error(routine: str, info: int) -> SolverError:
    return SolverError(f"banded solve failed: {routine} info {info} or non-finite values")


class BandedLU:
    """LU factors of ``shift*I + scale*M`` for M in ``to_banded`` storage
    (LAPACK gbtrf/gbtrs).

    A zero pivot raises SolverError, and so does a ``solve`` that returns
    non-finite values.  ``_solve`` is the same LAPACK solve without the
    finiteness check, for the implicit Euler march, which checks its whole
    output once.
    """

    __slots__ = ("lu", "piv", "kl", "ku")

    def __init__(self, ab: np.ndarray, bands: tuple, scale: float = 1.0,
                 shift: float = 0.0):
        kl, ku = bands
        a = scale * ab
        a[kl + ku] += shift
        lu, piv, info = scipy.linalg.lapack.dgbtrf(a, kl, ku, overwrite_ab=1)
        if info != 0:
            raise SolverError(f"banded LU failed: dgbtrf info {info} (zero pivot?)")
        self.lu, self.piv, self.kl, self.ku = lu, piv, kl, ku

    def _solve(self, b: np.ndarray) -> np.ndarray:
        x, info = scipy.linalg.lapack.dgbtrs(self.lu, self.kl, self.ku, b, self.piv)
        if info != 0:
            raise _solve_error("dgbtrs", info)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._solve(b)
        if not np.all(np.isfinite(x)):
            raise _solve_error("dgbtrs", 0)
        return x


class BandedCholesky:
    """Cholesky factor of ``diag(w) @ (shift*I + scale*M)`` for M symmetric in
    the pairing w, with ``diag(w) @ M`` in ``to_symmetric_banded`` storage
    (LAPACK pbtrf/pbtrs).

    ``solve(b)`` solves ``(shift*I + scale*M) x = b`` through the right-hand
    side ``w*b``.  A matrix that is not positive definite raises
    NotPositiveDefiniteError; a ``solve`` that returns non-finite values
    raises SolverError.  ``_solve`` is the same LAPACK solve without the
    finiteness check, for the implicit Euler march, which checks its whole
    output once.
    """

    __slots__ = ("c", "w")

    def __init__(self, ab: np.ndarray, w: np.ndarray, scale: float = 1.0,
                 shift: float = 0.0):
        a = scale * ab
        a[-1] += shift * w
        c, info = scipy.linalg.lapack.dpbtrf(a, overwrite_ab=1)
        if info != 0:
            raise NotPositiveDefiniteError(
                f"banded Cholesky failed: dpbtrf info {info} (not positive definite)")
        self.c, self.w = c, w

    def _solve(self, b: np.ndarray) -> np.ndarray:
        x, info = scipy.linalg.lapack.dpbtrs(self.c, self.w * b)
        if info != 0:
            raise _solve_error("dpbtrs", info)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._solve(b)
        if not np.all(np.isfinite(x)):
            raise _solve_error("dpbtrs", 0)
        return x


def solve_banded(op: LinearOperator, rhs: GridFunction) -> GridFunction:
    """Direct banded solve op @ x = rhs."""
    ab, bands = op.to_banded()
    return op.extend(BandedLU(ab, bands).solve(op.restrict(rhs)))


class SpectralProxy:
    """Eigendecomposition of a reference operator, used for proxy norms.

    ``modes`` are eigenvectors orthonormal in the weighted discrete pairing,
    eigenvalues are sorted ascending.  A field u decomposes as
    u = sum_k c_k phi_k with c = modes^T W u.
    """

    def __init__(self, operator: LinearOperator, eigenvalues: np.ndarray,
                 modes: np.ndarray, orthonormal: bool = True):
        self.operator = operator
        self.eigenvalues = eigenvalues
        self.modes = modes
        self.orthonormal = orthonormal
        if orthonormal and len(eigenvalues) <= 512:
            gram = modes.T @ (modes * operator.weights[:, None])
            defect = np.max(np.abs(gram - np.eye(len(eigenvalues))))
            if defect > 1e-10:
                raise SolverError(f"eigenbasis not orthonormal: defect {defect:.2e}")

    @property
    def grid(self) -> Grid:
        return self.operator.grid

    def coefficients(self, u: GridFunction) -> np.ndarray:
        """Modal coefficients, shape (n_modes, ncomp)."""
        if u.grid != self.grid:
            raise ValueError("field grid does not match proxy grid")
        w = self.operator.weights
        flat = u.values.reshape(-1, u.ncomp)
        node_idx = self.operator.active  # scalar operator: active indexes nodes
        vec = flat[node_idx, :]
        return self.modes.T @ (vec * w[:, None])

    def synthesize(self, coeffs: np.ndarray) -> GridFunction:
        vec = self.modes @ coeffs
        ncomp = coeffs.shape[1] if coeffs.ndim == 2 else 1
        full = np.zeros((self.grid.n_nodes, ncomp))
        full[self.operator.active, :] = vec.reshape(len(self.operator.active), ncomp)
        return GridFunction(self.grid, full.reshape(self.grid.shape + (ncomp,)))


def eigendecompose(op: LinearOperator, symmetric: bool = True) -> SpectralProxy:
    """Dense eigendecomposition of a (weight-)symmetric operator.

    Only intended at desk scale; raises beyond DESK_EIG_CAP unknowns so large
    runs can skip spectral diagnostics explicitly.
    """
    n = op.n_active
    if n > DESK_EIG_CAP:
        raise ValueError(f"{n} unknowns exceed the dense eigendecomposition cap {DESK_EIG_CAP}")
    if op.ncomp != 1:
        raise ValueError("eigendecompose expects a scalar operator")
    if symmetric:
        defect = op.symmetric_defect()
        if defect > 1e-8:
            raise SolverError(f"operator not symmetric in the discrete pairing: defect {defect:.2e}")
        sqw = np.sqrt(op.weights)
        sym = (op.matrix.toarray() * sqw[:, None]) / sqw[None, :]
        sym = 0.5 * (sym + sym.T)
        lam, vecs = scipy.linalg.eigh(sym)
        modes = vecs / sqw[:, None]
        return SpectralProxy(op, lam, modes, orthonormal=True)
    lam, vecs = scipy.linalg.eig(op.matrix.toarray())
    order = np.argsort(lam.real)
    lam = lam[order].real
    vecs = vecs[:, order].real
    norms = np.sqrt(np.sum(op.weights[:, None] * vecs ** 2, axis=0))
    return SpectralProxy(op, lam, vecs / norms[None, :], orthonormal=False)
