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
interior pairing; ``eigendecompose`` takes only such operators and symmetrizes
accordingly.
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


def _mirrored(n: int, off: int) -> np.ndarray:
    """The node ``i + off`` for each node i of n, with ghost nodes mirrored
    about the boundary."""
    idx = np.abs(np.arange(off, n + off))
    return np.where(idx > n - 1, 2 * (n - 1) - idx, idx)


def _axis_stencil_apply(values: np.ndarray, axis: int, order: int, h: float) -> np.ndarray:
    offsets, coeffs = STENCILS[order]
    n = values.shape[axis]
    out = np.zeros_like(values)
    shifted = np.empty_like(values)
    for off, c in zip(offsets, coeffs):
        if c == 0.0:
            continue
        np.take(values, _mirrored(n, off), axis=axis, out=shifted, mode="clip")
        shifted *= c
        out += shifted
    out /= h ** order
    return out


def unit_sigma(axis: int, dim: int, order: int = 1) -> tuple:
    """The multi-index of d_axis^order in ``dim`` dimensions."""
    return tuple(order if i == axis else 0 for i in range(dim))


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
    terms = [(off, c) for off, c in zip(offsets, coeffs) if c != 0.0]
    # row by row in stencil order, the order in which coinciding ghost entries add up
    cols = np.stack([_mirrored(n, off) for off, _ in terms], axis=1)
    rows = np.repeat(np.arange(n), len(terms))
    data = np.tile([c / h ** order for _, c in terms], n)
    return scipy.sparse.csr_matrix((data, (rows, cols.ravel())), shape=(n, n))


def active_flat_indices(grid: Grid, ncomp: int, bc: BoundaryCondition) -> np.ndarray:
    """Flat indices of the unknowns an operator under ``bc`` keeps."""
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
    active = active_flat_indices(grid, ncomp, bc)
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


def scaled_bands(ab: np.ndarray, scales, row: int, shift) -> np.ndarray:
    """``scales[k]*ab`` with ``shift`` added to band row ``row``, for every
    k, built in one array operation.

    ``ab`` is LAPACK band storage, (rows, n); the result is a C-ordered
    (K, n, rows) stack, so that each ``stack[k].T`` is F-contiguous band
    storage that a factor can overwrite in place.  ``shift`` is a scalar or
    an (n,) array.
    """
    stack = np.asarray(scales, dtype=float)[:, None, None] * ab.T
    stack[:, :, row] += shift
    return stack


class BandedLU:
    """LU factors of ``ab``, a matrix in ``to_banded`` storage, factored in
    place (LAPACK gbtrf/gbtrs).  A zero pivot raises SolverError."""

    __slots__ = ("lu", "piv", "kl", "ku")
    routine = "dgbtrs"

    def __init__(self, ab: np.ndarray, bands: tuple):
        kl, ku = bands
        lu, piv, info = scipy.linalg.lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
        if info != 0:
            raise SolverError(f"banded LU failed: dgbtrf info {info} (zero pivot?)")
        self.lu, self.piv, self.kl, self.ku = lu, piv, kl, ku

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = scipy.linalg.lapack.dgbtrs(self.lu, self.kl, self.ku, b, self.piv)
        if info != 0:
            raise SolverError(f"banded solve failed: {self.routine} info {info}")
        return x


class BandedCholesky:
    """Cholesky factor of ``ab``, ``diag(w) @ M`` in ``to_symmetric_banded``
    storage for M symmetric in the pairing w, factored in place (LAPACK
    pbtrf/pbtrs); ``solve(b)`` solves ``M x = b`` through the right-hand side
    ``w*b``.  A matrix that is not positive definite raises
    NotPositiveDefiniteError."""

    __slots__ = ("c", "w")
    routine = "dpbtrs"

    def __init__(self, ab: np.ndarray, w: np.ndarray):
        c, info = scipy.linalg.lapack.dpbtrf(ab, overwrite_ab=1)
        if info != 0:
            raise NotPositiveDefiniteError(
                f"banded Cholesky failed: dpbtrf info {info} (not positive definite)")
        self.c, self.w = c, w

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = scipy.linalg.lapack.dpbtrs(self.c, self.w * b)
        if info != 0:
            raise SolverError(f"banded solve failed: {self.routine} info {info}")
        return x


# A0 takes Cholesky steps when diag(weights) @ A0 is symmetric to this
# relative defect, a rounding-level bound.
SYMMETRIC_DEFECT = 1e-14


def _lu_factors(A0: LinearOperator, dts) -> list:
    ab, bands = A0.to_banded()
    return [BandedLU(a.T, bands) for a in scaled_bands(ab, dts, sum(bands), 1.0)]


def step_factors(A0: LinearOperator, dts: np.ndarray) -> list:
    """One banded factor of I + dt*A0 for each dt of ``dts``, the implicit
    Euler steps of a window, each factored in place in one ``scaled_bands``
    stack.  A factor's ``solve`` raises SolverError on a LAPACK error, and
    leaves the finiteness of its output to the caller.

    The factor is a Cholesky factor of W(I + dt*A0), W = diag(weights),
    when every weight is positive and W A0 is symmetric to SYMMETRIC_DEFECT.
    That holds for the heat problem and for reaction-diffusion with a
    diagonal, positive a(u) (always so for one component), whose operator
    -a(u) Lap pairs with w/a(u), and for the reference operators, the
    clamped plate among them.  The geometric flows and coupled
    reaction-diffusion take an LU factor, as does a step whose
    W(I + dt*A0) is not positive definite.
    """
    w = A0.weights
    if not (np.all(w > 0.0) and A0.symmetric_defect() <= SYMMETRIC_DEFECT):
        return _lu_factors(A0, dts)
    stack = scaled_bands(A0.to_symmetric_banded(), dts, -1, w)
    factors = []
    for k, dt in enumerate(dts):
        try:
            factors.append(BandedCholesky(stack[k].T, w))
        except NotPositiveDefiniteError:
            factors += _lu_factors(A0, [dt])
    return factors


class SpectralProxy:
    """Eigendecomposition of a reference operator, used for proxy norms.

    ``modes`` are eigenvectors orthonormal in the weighted discrete pairing
    (checked up to 512 modes), eigenvalues sorted ascending.  A field u
    decomposes as u = sum_k c_k phi_k with c = modes^T W u.
    """

    def __init__(self, operator: LinearOperator, eigenvalues: np.ndarray,
                 modes: np.ndarray):
        self.operator = operator
        self.eigenvalues = eigenvalues
        self.modes = modes
        if len(eigenvalues) <= 512:
            gram = modes.T @ (modes * operator.weights[:, None])
            defect = np.max(np.abs(gram - np.eye(len(eigenvalues))))
            if defect > 1e-10:
                raise SolverError(f"eigenbasis not orthonormal: defect {defect:.2e}")

    @property
    def grid(self) -> Grid:
        return self.operator.grid

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Modal coefficients, shape ``(..., n_modes, ncomp)``, of the fields
        ``values`` of shape ``(..., *grid.shape, ncomp)``."""
        grid = self.grid
        if values.shape[values.ndim - grid.dim - 1:-1] != grid.shape:
            raise ValueError("field grid does not match proxy grid")
        w = self.operator.weights
        flat = values.reshape(values.shape[:-grid.dim - 1] + (grid.n_nodes, values.shape[-1]))
        node_idx = self.operator.active  # scalar operator: active indexes nodes
        vec = flat[..., node_idx, :]
        return self.modes.T @ (vec * w[:, None])

    def synthesize(self, coeffs: np.ndarray) -> GridFunction:
        vec = self.modes @ coeffs
        ncomp = coeffs.shape[1] if coeffs.ndim == 2 else 1
        full = np.zeros((self.grid.n_nodes, ncomp))
        full[self.operator.active, :] = vec.reshape(len(self.operator.active), ncomp)
        return GridFunction(self.grid, full.reshape(self.grid.shape + (ncomp,)))


def eigendecompose(op: LinearOperator) -> SpectralProxy:
    """Dense eigendecomposition of a scalar operator symmetric in its pairing.

    Only intended at desk scale: raises ValueError beyond DESK_EIG_CAP
    unknowns, and SolverError for an operator that is not symmetric.
    """
    n = op.n_active
    if n > DESK_EIG_CAP:
        raise ValueError(f"{n} unknowns exceed the dense eigendecomposition cap {DESK_EIG_CAP}")
    if op.ncomp != 1:
        raise ValueError("eigendecompose expects a scalar operator")
    defect = op.symmetric_defect()
    if defect > 1e-8:
        raise SolverError(f"operator not symmetric in the discrete pairing: defect {defect:.2e}")
    sqw = np.sqrt(op.weights)
    sym = (op.matrix.toarray() * sqw[:, None]) / sqw[None, :]
    sym = 0.5 * (sym + sym.T)
    lam, vecs = scipy.linalg.eigh(sym)
    return SpectralProxy(op, lam, vecs / sqw[:, None])
