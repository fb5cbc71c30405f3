"""Finite-difference operators on tensor grids.

Second-order central stencils throughout, with ghost nodes supplied by even
(symmetric) reflection about the boundary node.  This is the one ghost rule
for both boundary conditions, so a derivative or a full-grid matrix does not
depend on the condition; the condition only chooses which unknowns an
assembled operator keeps (``active_flat_indices``).  For Neumann data the
reflection enforces the zero normal derivative and every node is kept; for
clamped data it is the quadratic extrapolation consistent with u = 0 and
du/dn = 0, and the boundary value itself is pinned to zero by keeping only
the interior nodes (interior reduction); ``LinearOperator.gather`` and
``scatter`` map nodal stacks to an operator's unknowns and back.  The
resulting 1D building blocks are the classical stencils

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

An assembled matrix is a ``Diagonals``: the offsets of the diagonals that
hold a nonzero entry and an (ndiag, n) array of their entries by row.  Each
row of a product sums by ascending diagonal, and ``Diagonals.dot``
multiplies a whole stack of vectors at once, each vector's rows from that
vector's entries alone, with tiles made per call: a matrix keeps no state
from its products.  No sparse package is imported.

The banded factors (dgbtrf/dgbtrs, dpbtrf/dpbtrs) and the dense eigensolver
(dsyevr, called as ``scipy.linalg.eigh`` calls it) come from scipy's compiled
LAPACK wrappers, ``scipy.linalg._flapack``, loaded from their file: the
import of the ``scipy.linalg`` package, which brings SciPy's sparse package
and its array-API layer with it, takes longer than a bundled 1D run.  If
that load fails, the routines come from ``scipy.linalg.lapack``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def _load_lapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, loaded
    from their file, so that neither the ``scipy.linalg`` package nor what
    its import pulls in (the sparse package, the array-API layer) is
    imported.  If that load fails, the package's ``scipy.linalg.lapack``,
    which exports the same routines."""
    try:
        linalg = Path(importlib.util.find_spec("scipy").submodule_search_locations[0]) / "linalg"
        suffixes = importlib.machinery.EXTENSION_SUFFIXES
        path = next(path for path in (linalg / f"_flapack{s}" for s in suffixes) if path.is_file())
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # loading registers the module; a later import of scipy.linalg then
        # makes its own module object, with these functions, as its attribute
        sys.modules.pop(spec.name, None)
        return module
    except (ImportError, OSError, AttributeError, StopIteration):
        import scipy.linalg.lapack
        return scipy.linalg.lapack


_lapack = _load_lapack()


@functools.lru_cache(maxsize=None)
def _mirrored(n: int, off: int) -> np.ndarray:
    """The node ``i + off`` for each node i of n, with ghost nodes mirrored
    about the boundary; one read-only array per (n, off)."""
    idx = np.abs(np.arange(off, n + off))
    idx = np.where(idx > n - 1, 2 * (n - 1) - idx, idx)
    idx.flags.writeable = False
    return idx


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


def derivative_values(values: np.ndarray, grid: Grid, sigma) -> np.ndarray:
    """D^sigma of nodal values of shape ``(..., *grid.shape, ncomp)``, with
    reflection ghosts, applied one spatial axis at a time.

    Leading axes, such as the samples of a trajectory, are carried along.
    ``sigma`` is a multi-index (an int is accepted in 1D).  Each component
    must be <= 4 and the total order |sigma| <= 4.
    """
    if isinstance(sigma, int):
        sigma = (sigma,)
    sigma = tuple(int(s) for s in sigma)
    if len(sigma) != grid.dim:
        raise ValueError(f"sigma {sigma} does not match grid dimension {grid.dim}")
    if any(s < 0 or s > 4 for s in sigma) or sum(sigma) > 4:
        raise ValueError(f"unsupported multi-index {sigma}: components <= 4, |sigma| <= 4")
    vals = values
    for axis, s in enumerate(sigma):
        if s == 0:
            continue
        vals = _axis_stencil_apply(vals, axis - grid.dim - 1, s, grid.h)
    return vals.copy() if vals is values else vals


def derivative(u: GridFunction, sigma) -> GridFunction:
    """D^sigma u; see ``derivative_values``."""
    return GridFunction(u.grid, derivative_values(u.values, u.grid, sigma))


def _diagonal_index(offsets: np.ndarray):
    """(diag, k): the distinct values of the integer array ``offsets``,
    ascending, and the place of each entry's value among them; unlike
    ``np.unique``, without importing ``numpy.ma`` on the first call."""
    low = offsets.min(initial=0)
    present = np.bincount((offsets - low).ravel()) > 0
    diag = np.flatnonzero(present) + low
    return diag, (np.cumsum(present) - 1)[offsets - low]


@dataclass(eq=False)
class Diagonals:
    """An n x n matrix by diagonals.

    ``data[k, i]`` is the entry (i, i + offsets[k]), offsets ascending, and
    0 where that column falls outside the matrix.  A diagonal with no
    nonzero entry is not kept, so the band of a factor spans only the
    diagonals that hold a nonzero entry.  A product sums each row by
    ascending diagonal.
    """

    offsets: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        used = np.any(self.data != 0.0, axis=1)
        if not used.all():
            self.offsets, self.data = self.offsets[used], self.data[used]

    @classmethod
    def identity(cls, n: int) -> "Diagonals":
        return cls(np.zeros(1, dtype=np.intp), np.ones((1, n)))

    @classmethod
    def from_entries(cls, n: int, rows: np.ndarray, offsets: np.ndarray,
                     values: np.ndarray) -> "Diagonals":
        """The matrix with entry (rows[e], rows[e] + offsets[e]) = values[e],
        each inside the matrix, no two at the same place, and 0 elsewhere."""
        diag, k = _diagonal_index(offsets)
        data = np.zeros((len(diag), n))
        data[k, rows] = values
        return cls(diag, data)

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def entries(self):
        """(rows, offsets, values) of the nonzero entries."""
        k, rows = np.nonzero(self.data)
        return rows, self.offsets[k], self.data[k, rows]

    def scaled_rows(self, c: np.ndarray) -> "Diagonals":
        """diag(c) @ self.  An entry 0 stays 0 whatever c, so that an
        overflowed coefficient reaches no column outside the matrix."""
        return Diagonals(self.offsets, np.where(self.data != 0.0, c * self.data, 0.0))

    def plus(self, other: "Diagonals") -> "Diagonals":
        """self + other."""
        offsets = _diagonal_index(np.concatenate([self.offsets, other.offsets]))[0]
        data = np.zeros((len(offsets), self.n))
        data[np.searchsorted(offsets, self.offsets)] = self.data
        data[np.searchsorted(offsets, other.offsets)] += other.data
        return Diagonals(offsets, data)

    def kron(self, other: "Diagonals") -> "Diagonals":
        """The Kronecker product self (x) other."""
        nb = other.n
        offsets = (self.offsets[:, None] * nb + other.offsets).ravel()
        shape = (offsets.size, self.n * nb)
        data = (self.data[:, None, :, None] * other.data[None, :, None, :]).reshape(shape)
        keep = (self.data != 0.0)[:, None, :, None] & (other.data != 0.0)[None, :, None, :]
        k, rows = np.nonzero(keep.reshape(shape))
        return Diagonals.from_entries(self.n * nb, rows, offsets[k], data[k, rows])

    def take(self, index: np.ndarray) -> "Diagonals":
        """The submatrix on the rows and columns ``index`` (ascending)."""
        position = np.full(self.n, -1)
        position[index] = np.arange(len(index))
        rows, offsets, values = self.entries()
        row, col = position[rows], position[rows + offsets]
        kept = (row >= 0) & (col >= 0)
        row, col = row[kept], col[kept]
        return Diagonals.from_entries(len(index), row, col - row, values[kept])

    def toarray(self) -> np.ndarray:
        rows, offsets, values = self.entries()
        dense = np.zeros((self.n, self.n))
        dense[rows, rows + offsets] = values
        return dense

    def dot(self, x: np.ndarray) -> np.ndarray:
        """The product with each vector along the last axis of ``x``; every
        row adds its terms to zero by ascending diagonal.  The tiles are
        made per call and sized to the stack, so a matrix keeps no state."""
        n, offsets = self.n, self.offsets.tolist()
        x = np.asarray(x)
        out = np.zeros(x.shape)
        vectors, sums = x.reshape(-1, n), out.reshape(-1, n)
        step = max(1, min(_DOT_BLOCK // n, len(vectors)))
        flat_x, flat_sums = vectors.ravel(), sums.ravel()
        term = np.zeros(step * n)
        tiles = np.tile(self.data, step)  # each diagonal tiled over a block
        # edge rows: rows i < left and i >= n - right reach past their vector
        left, right = -min([0, *offsets]), max([0, *offsets])
        edge = np.array([*range(min(left, n)), *range(max(left, n - right), n)], dtype=np.intp)
        # an overflow or inf - inf among the terms leaves inf or nan in the
        # sums, without a warning; edge rows also see other vectors' entries
        with np.errstate(all="ignore"):
            # the vectors a block at a time, each diagonal as one contiguous
            # product; where x[i + offset] falls outside row i's vector, row
            # i is an edge row, and its sums are made again below from its
            # own vector alone
            for start in range(0, len(flat_x), step * n):
                size = min(step * n, len(flat_x) - start)
                block = flat_x[start:start + size]
                for off, tiled in zip(offsets, tiles):
                    lo, hi = max(0, -off), size - max(0, off)
                    np.multiply(block[lo + off:hi + off], tiled[lo:hi], out=term[lo:hi])
                    flat_sums[start:start + size] += term[:size]
            if len(edge):
                edge_sums = np.zeros((len(vectors), len(edge)))
                # a column past the matrix is clipped to it, its entry 0
                for off, d in zip(offsets, self.data[:, edge]):
                    edge_sums += vectors.take(edge + off, axis=1, mode="clip") * d
                sums[:, edge] = edge_sums
        return out


# vector entries per block of ``Diagonals.dot``: 64 KB of sums, of one
# term and of each tiled diagonal, which stay in cache while a block's
# terms are added (16384 was slower on the 1D benchmark stacks)
_DOT_BLOCK = 8192


def diff_matrix_1d(n: int, h: float, order: int) -> Diagonals:
    """1D derivative matrix over all n nodes with reflection ghosts folded in.

    order 0 returns the identity.  Rows are produced for every node including
    the boundary; clamped reduction (dropping boundary rows/columns) is done
    by the operator assembly, not here.
    """
    if order == 0:
        return Diagonals.identity(n)
    offsets, coeffs = STENCILS[order]
    terms = [(off, c) for off, c in zip(offsets, coeffs) if c != 0.0]
    rows = np.arange(n)
    folded = np.stack([_mirrored(n, off) for off, _ in terms]) - rows
    diag, k = _diagonal_index(folded)
    data = np.zeros((len(diag), n))
    # in stencil order, the order in which coinciding ghost entries add up
    for kk, (_, c) in zip(k, terms):
        data[kk, rows] += c / h ** order
    return Diagonals(diag, data)


def active_flat_indices(grid: Grid, ncomp: int, bc: BoundaryCondition) -> np.ndarray:
    """Flat indices of the unknowns an operator under ``bc`` keeps."""
    total = grid.n_nodes * ncomp
    if bc == BoundaryCondition.NEUMANN:
        return np.arange(total)
    mask = np.repeat(grid.interior_mask().ravel(), ncomp)
    return np.flatnonzero(mask)


@dataclass
class LinearOperator:
    """Operator on the active unknowns of a grid, its matrix by diagonals.

    For Neumann problems every node is active; for clamped problems only the
    interior nodes are (boundary values are pinned to zero, so dropping their
    columns is exact).  ``weights`` are the pairing weights of the active
    unknowns; symmetry statements are relative to that pairing.
    """

    grid: Grid
    ncomp: int
    matrix: Diagonals
    active: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = len(self.active)
        if self.matrix.n != n:
            raise ValueError(
                f"matrix of {self.matrix.n} rows does not match {n} active unknowns"
            )
        if len(self.weights) != n:
            raise ValueError("weights length does not match active unknowns")

    @property
    def n_active(self) -> int:
        return len(self.active)

    def gather(self, values: np.ndarray) -> np.ndarray:
        """The active unknowns ``(..., n_active)`` of a stack of nodal values
        ``(..., *grid.shape, ncomp)``; a reshaped view when every unknown is
        active (Neumann)."""
        layout = self.grid.shape + (self.ncomp,)
        if values.shape[-len(layout):] != layout:
            raise ValueError(f"values of shape {values.shape} do not end in {layout}")
        flat = values.reshape(values.shape[:-len(layout)] + (self.grid.n_nodes * self.ncomp,))
        return flat if self.n_active == flat.shape[-1] else flat[..., self.active]

    def scatter(self, vecs: np.ndarray) -> np.ndarray:
        """The nodal values ``(..., *grid.shape, ncomp)`` of the vectors of
        active unknowns ``vecs``, ``(..., n_active)``, +0.0 at pinned nodes; a
        reshaped view when every unknown is active (Neumann)."""
        if vecs.shape[-1:] != (self.n_active,):
            raise ValueError(f"vectors of shape {vecs.shape} do not hold {self.n_active} unknowns")
        lead, total = vecs.shape[:-1], self.grid.n_nodes * self.ncomp
        full = vecs
        if self.n_active != total:
            full = np.zeros(lead + (total,))
            full[..., self.active] = vecs
        return full.reshape(lead + self.grid.shape + (self.ncomp,))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A x for each vector of active unknowns along the last axis of ``x``."""
        return self.matrix.dot(x)

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def symmetric_defect(self) -> float:
        """max |WM - (WM)^T| relative to max |WM|, W the pairing weights."""
        n = self.n_active
        wm = self.weights * self.matrix.data
        scale = max(np.max(np.abs(wm), initial=0.0), 1e-300)
        diagonals = dict(zip(self.matrix.offsets, wm))
        diffs = [np.zeros(0)]
        for off, d in diagonals.items():
            lo, hi = max(0, -off), min(n, n - off)
            # (WM)^T on this diagonal is WM's diagonal -off, read from row i + off
            mirror = diagonals.get(-off)
            diffs.append(d[lo:hi] - mirror[lo + off:hi + off] if mirror is not None else d[lo:hi])
        defect = np.max(np.abs(np.concatenate(diffs)), initial=0.0)
        return float(defect / scale)

    @functools.cached_property
    def pairs_symmetrically(self) -> bool:
        """Whether every pairing weight is positive and W M is symmetric to
        SYMMETRIC_DEFECT: the test for Cholesky steps and for the modal
        march, made once per operator."""
        return bool(np.all(self.weights > 0.0)
                    and self.symmetric_defect() <= SYMMETRIC_DEFECT)

    def to_banded(self):
        """(ab, (kl, ku)) in LAPACK ``gbtrf`` storage.

        Entry (i, j) sits at ``ab[kl + ku + i - j, j]``; the top ``kl`` rows
        are the fill space the LU factorization writes into.  The band spans
        the kept diagonals.
        """
        offsets, n = self.matrix.offsets, self.n_active
        kl = int(max(-offsets.min(initial=0), 0))
        ku = int(max(offsets.max(initial=0), 0))
        ab = np.zeros((2 * kl + ku + 1, n), order="F")
        for off, d in zip(offsets, self.matrix.data):
            lo, hi = max(0, -off), min(n, n - off)
            ab[kl + ku - off, lo + off:hi + off] = d[lo:hi]
        return ab, (kl, ku)

    def to_symmetric_banded(self) -> np.ndarray:
        """diag(weights) @ matrix in LAPACK ``pbtrf`` upper storage.

        Entry (i, j), i <= j, sits at ``ab[kd + i - j, j]``; the lower
        triangle is not stored, so this is only meaningful for an operator
        that is symmetric in its pairing.  kd is the widest kept upper
        diagonal.
        """
        n = self.n_active
        wm = self.weights * self.matrix.data + 0.0
        upper = [(off, d) for off, d in zip(self.matrix.offsets, wm) if off >= 0]
        kd = max((int(off) for off, _ in upper), default=0)
        ab = np.zeros((kd + 1, n), order="F")
        for off, d in upper:
            ab[kd - off, off:] = d[:n - off]
        return ab


def operator_from_full_matrix(grid: Grid, ncomp: int, bc: BoundaryCondition,
                              full_matrix: Diagonals) -> LinearOperator:
    """Reduce a full-grid matrix to the active unknowns of ``bc``."""
    active = active_flat_indices(grid, ncomp, bc)
    mat = full_matrix if len(active) == full_matrix.n else full_matrix.take(active)
    weights = np.repeat(grid.trapezoid_weights().ravel(), ncomp)[active]
    return LinearOperator(grid, ncomp, mat, active, weights)


@functools.lru_cache(maxsize=64)
def _derivative_matrix(n: int, h: float, sigma: tuple) -> Diagonals:
    """The full-grid matrix of D^sigma on n nodes per axis, the Kronecker
    product of the axes' ``diff_matrix_1d``; one per argument set, which
    no caller changes."""
    mats = [diff_matrix_1d(n, h, s) for s in sigma]
    return mats[0] if len(mats) == 1 else mats[0].kron(mats[1])


def assemble_coefficient_operator(grid: Grid, coeffs: dict,
                                  bc: BoundaryCondition) -> LinearOperator:
    """sum_sigma diag(c_sigma) D^sigma as a LinearOperator on one component.

    ``coeffs`` maps multi-indices to nodal coefficient arrays of shape
    ``grid.shape``.
    """
    n = grid.nodes_per_axis
    total = None
    for sigma, c in coeffs.items():
        if isinstance(sigma, int):
            sigma = (sigma,)
        term = _derivative_matrix(n, grid.h, tuple(sigma)).scaled_rows(
            np.asarray(c, dtype=float).ravel())
        total = term if total is None else total.plus(term)
    if total is None:
        raise ValueError("no coefficient terms given")
    return operator_from_full_matrix(grid, 1, bc, total)


def block_rows(blocks: np.ndarray, mat: Diagonals) -> Diagonals:
    """The product of the block diagonal matrix of the (n, N, N) ``blocks``
    with mat (x) I_N, for an n x n matrix ``mat``: the entry (i, a), (j, b)
    is blocks[i, a, b] * mat[i, j].  With one component it is the row
    scaling diag(blocks) @ mat.
    """
    N = blocks.shape[1]
    if N == 1:
        return mat.scaled_rows(blocks[:, 0, 0])
    i, offsets, values = mat.entries()
    a, b = np.divmod(np.arange(N * N), N)
    rows = i[:, None] * N + a
    return Diagonals.from_entries(mat.n * N, rows.ravel(),
                                  (offsets[:, None] * N + (b - a)).ravel(),
                                  (blocks[i][:, a, b] * values[:, None]).ravel())


@functools.lru_cache(maxsize=64)
def reference_operator(grid: Grid, order: str) -> LinearOperator:
    """Positive model operator of each class, assembled from its constant
    coefficients: -Laplacian (Neumann) for second order, the clamped
    bilaplacian d_x^4 + d_y^4 + 2 d_x^2 d_y^2 for fourth order; one per grid
    and order, which no caller changes."""
    dim = grid.dim
    if order == "second":
        bc, coeffs = BoundaryCondition.NEUMANN, {unit_sigma(ax, dim, 2): -1.0 for ax in range(dim)}
    elif order == "fourth":
        bc, coeffs = BoundaryCondition.CLAMPED, {unit_sigma(ax, dim, 4): 1.0 for ax in range(dim)}
        if dim == 2:
            coeffs[(2, 2)] = 2.0
    else:
        raise ValueError(f"order must be 'second' or 'fourth', got {order!r}")
    return assemble_coefficient_operator(
        grid, {sigma: np.full(grid.shape, c) for sigma, c in coeffs.items()}, bc)


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
    place (LAPACK gbtrf/gbtrs); ``solve(b)`` writes x over ``b``, a contiguous
    float vector, and returns it.  A zero pivot raises SolverError."""

    __slots__ = ("lu", "piv", "kl", "ku")
    routine = "dgbtrs"

    def __init__(self, ab: np.ndarray, bands: tuple):
        kl, ku = bands
        lu, piv, info = _lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
        if info != 0:
            raise SolverError(f"banded LU failed: dgbtrf info {info} (zero pivot?)")
        self.lu, self.piv, self.kl, self.ku = lu, piv, kl, ku

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = _lapack.dgbtrs(self.lu, self.kl, self.ku, b, self.piv, overwrite_b=1)
        if info != 0:
            raise SolverError(f"banded solve failed: {self.routine} info {info}")
        return x


class BandedCholesky:
    """Cholesky factor of ``ab``, ``diag(w) @ M`` in ``to_symmetric_banded``
    storage for M symmetric in the pairing w, factored in place (LAPACK
    pbtrf/pbtrs); ``solve(b)`` solves ``M x = b`` in place, through the
    right-hand side ``w*b`` formed over ``b``, a contiguous float vector, and
    returns x written over it.  A matrix that is not positive definite
    raises NotPositiveDefiniteError."""

    __slots__ = ("c", "w")
    routine = "dpbtrs"

    def __init__(self, ab: np.ndarray, w: np.ndarray):
        c, info = _lapack.dpbtrf(ab, overwrite_ab=1)
        if info != 0:
            raise NotPositiveDefiniteError(
                f"banded Cholesky failed: dpbtrf info {info} (not positive definite)")
        self.c, self.w = c, w

    def solve(self, b: np.ndarray) -> np.ndarray:
        b *= self.w
        x, info = _lapack.dpbtrs(self.c, b, overwrite_b=1)
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
    if not A0.pairs_symmetrically:
        return _lu_factors(A0, dts)
    w = A0.weights
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
        ``values`` of shape ``(..., *grid.shape, ncomp)``, each component a
        field of the scalar operator."""
        op = self.operator
        comps = op.gather(np.moveaxis(values, -1, -self.grid.dim - 1)[..., None])
        return self.modes.T @ np.swapaxes(comps * op.weights, -1, -2)

    def synthesize(self, coeffs: np.ndarray) -> GridFunction:
        """The field sum_k coeffs[k] phi_k, ``coeffs`` of shape ``(n_modes,)``
        or ``(n_modes, ncomp)``."""
        comps = np.reshape(self.modes @ coeffs, (self.operator.n_active, -1)).T
        return GridFunction(self.grid, np.moveaxis(self.operator.scatter(comps)[..., 0], 0, -1))


# eigendecompose keeps decompositions (modes, eigenvalues, key and the
# proxy's operator) of at most this many bytes in all: every 1D proxy of the
# bundled configs, no 2D omega proxy (48^2 nodes: 42 MB)
EIG_CACHE_BYTES = 1 << 22
_EIG_CACHE: dict = {}  # key -> (proxy, bytes), least recently used first


def eigendecompose(op: LinearOperator) -> SpectralProxy:
    """Dense eigendecomposition of a scalar operator symmetric in its pairing.

    Only intended at desk scale: raises ValueError beyond DESK_EIG_CAP
    unknowns, and SolverError for an operator that ``pairs_symmetrically``
    rejects, the one symmetry test of the steps and the decompositions; a
    failure is not kept, so it raises on every call.

    One decomposition per distinct operator: an operator whose grid, ncomp
    and the bytes of ``active``, ``weights``, ``matrix.offsets`` and
    ``matrix.data`` equal those of one decomposed before gets the same
    SpectralProxy back, whose ``eigenvalues`` and ``modes`` are read-only.
    The kept proxies total at most EIG_CACHE_BYTES, the least recently used
    evicted first; a larger proxy is not kept.
    """
    n = op.n_active
    if n > DESK_EIG_CAP:
        raise ValueError(f"{n} unknowns exceed the dense eigendecomposition cap {DESK_EIG_CAP}")
    if op.ncomp != 1:
        raise ValueError("eigendecompose expects a scalar operator")
    key = (op.grid, op.ncomp) + tuple((a.dtype.str, a.shape, a.tobytes()) for a in
                                      (op.active, op.weights, op.matrix.offsets, op.matrix.data))
    proxy, size = _EIG_CACHE.pop(key, (None, 0))
    if proxy is None:
        if not op.pairs_symmetrically:
            raise SolverError(f"operator not symmetric in the discrete pairing: defect "
                              f"{op.symmetric_defect():.2e}, or a pairing weight not positive")
        sqw = np.sqrt(op.weights)
        sym = (op.toarray() * sqw[:, None]) / sqw[None, :]
        sym = 0.5 * (sym + sym.T)
        lam, vecs = _symmetric_eigh(sym)
        proxy = SpectralProxy(op, lam, vecs / sqw[:, None])
        proxy.eigenvalues.flags.writeable = proxy.modes.flags.writeable = False
        # modes, eigenvalues, the key's bytes, and the same arrays in op
        size = lam.nbytes + proxy.modes.nbytes + 2 * sum(len(part[2]) for part in key[2:])
    if size <= EIG_CACHE_BYTES:
        _EIG_CACHE[key] = (proxy, size)
        while sum(kept for _, kept in _EIG_CACHE.values()) > EIG_CACHE_BYTES:
            del _EIG_CACHE[next(iter(_EIG_CACHE))]
    return proxy


def _symmetric_eigh(sym: np.ndarray):
    """(eigenvalues ascending, orthonormal eigenvectors) of the symmetric
    ``sym`` by LAPACK dsyevr on its lower triangle, with the workspace query,
    the call and the checks of ``scipy.linalg.eigh``."""
    if not np.all(np.isfinite(sym)):
        raise ValueError("array must not contain infs or NaNs")
    lwork, liwork, info = _lapack.dsyevr_lwork(len(sym), lower=1)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    lam, vecs, _, _, info = _lapack.dsyevr(sym, compute_v=1, lower=1, lwork=int(lwork),
                                           liwork=int(liwork))
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed: info {info}")
    return lam, vecs
