"""Uniform tensor grids on [0,1]^d and nodal fields living on them.

A ``GridFunction`` is one checked field at the edges of the API (initial
states, problem hooks, report fields); code that computes works on nodal
arrays of shape ``(..., *grid.shape, ncomp)`` with leading sample axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class BoundaryCondition(str, Enum):
    """Supported boundary conditions.

    NEUMANN (zero normal derivative) pairs with second-order operators;
    CLAMPED (zero value and zero normal derivative) with fourth-order ones.
    """

    NEUMANN = "neumann"
    CLAMPED = "clamped"


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0,1]^dim with the same node count per axis.

    Nodes include both endpoints, so the spacing is 1/(nodes_per_axis - 1).
    """

    dim: int
    nodes_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.nodes_per_axis < 8:
            raise ValueError(f"nodes_per_axis must be >= 8, got {self.nodes_per_axis}")

    @property
    def h(self) -> float:
        return 1.0 / (self.nodes_per_axis - 1)

    @property
    def shape(self) -> tuple:
        return (self.nodes_per_axis,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.nodes_per_axis ** self.dim

    def axis_coords(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nodes_per_axis)

    def coords(self) -> list:
        """Meshgrid coordinate arrays, one per axis, each of shape ``self.shape``."""
        x = self.axis_coords()
        if self.dim == 1:
            return [x]
        return list(np.meshgrid(x, x, indexing="ij"))

    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights of the trapezoid rule, shape ``self.shape``.

        These define the discrete L2 pairing in which the mirrored Neumann
        Laplacian is symmetric.
        """
        w1 = np.full(self.nodes_per_axis, self.h)
        w1[0] *= 0.5
        w1[-1] *= 0.5
        if self.dim == 1:
            return w1
        return np.outer(w1, w1)

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        if self.dim == 1:
            mask[1:-1] = True
        else:
            mask[1:-1, 1:-1] = True
        return mask


class NonFiniteError(ValueError):
    """A field would hold inf or nan values."""


# up to this many entries, a field's, the bool array of np.isfinite is at
# most 4 KB and costs less than the errstate that the sum needs (about 1 us
# a call), which a march that builds one field per sample would pay per sample
_SMALL = 4096


def all_finite(values: np.ndarray) -> bool:
    """Whether every entry of ``values``, a field or a stack of them, is
    finite, with no warning.  Beyond ``_SMALL`` entries it reads the array
    in one pass with no temporary of its size: a finite sum settles it; a
    sum that is not finite comes from a NaN or inf entry, or from finite
    entries whose sum overflows, which the extremes tell apart (NaN or
    infinite where an entry is)."""
    if values.size <= _SMALL:
        return bool(np.isfinite(values).all())
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(values.sum()):
            return True
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


class GridFunction:
    """Finite nodal field on a Grid; values have shape ``grid.shape + (ncomp,)``."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape[: grid.dim] != grid.shape or values.ndim != grid.dim + 1:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape} + (ncomp,)"
            )
        if not all_finite(values):
            raise NonFiniteError("GridFunction values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def _unchecked(cls, grid: Grid, values: np.ndarray) -> "GridFunction":
        """A field on ``values`` as given, a float array of shape
        ``grid.shape + (ncomp,)``, without ``__init__``'s checks: for callers
        that have checked a whole stack of samples at once."""
        field = cls.__new__(cls)
        field.grid = grid
        field.values = values
        return field

    @classmethod
    def from_scalar(cls, grid: Grid, values) -> "GridFunction":
        values = np.asarray(values, dtype=float)
        return cls(grid, values[..., np.newaxis])

    @classmethod
    def zeros(cls, grid: Grid, ncomp: int = 1) -> "GridFunction":
        return cls(grid, np.zeros(grid.shape + (ncomp,)))

    @property
    def ncomp(self) -> int:
        return self.values.shape[-1]

    @property
    def scalar(self) -> np.ndarray:
        if self.ncomp != 1:
            raise ValueError(f"field has {self.ncomp} components, not scalar")
        return self.values[..., 0]

    def __repr__(self):
        return (
            f"GridFunction(dim={self.grid.dim}, nodes={self.grid.nodes_per_axis}, "
            f"ncomp={self.ncomp})"
        )
