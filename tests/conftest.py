"""Shared test settings.

Property tests draw the same examples on every run: the hypothesis profile
below derives each test's random seed from the test itself and keeps no
example database, so a run neither depends on an earlier one nor flips on a
new random draw.  Each test keeps its own ``max_examples``.

The oracles that more than one test module reads live here too: the
weighted norm of a constant trajectory, the pointwise fields of a graph
surface, read from the geometry kernels that the flow right-hand sides run,
and an operator plus a multiple of the identity.
"""

import dataclasses
from typing import NamedTuple

import numpy as np
from hypothesis import settings

from parabolab import geometry, operators

settings.register_profile("parabolab", derandomize=True, database=None, deadline=None)
settings.load_profile("parabolab")


def count_eigh(monkeypatch) -> list:
    """The size of each dense eigensolver call from now on, which starts
    from an empty eigendecomposition cache (``monkeypatch`` undoes both)."""
    monkeypatch.setattr(operators, "_EIG_CACHE", {})
    calls = []
    eigh = operators._symmetric_eigh
    monkeypatch.setattr(operators, "_symmetric_eigh",
                        lambda sym: calls.append(len(sym)) or eigh(sym))
    return calls


def plus_identity(op: operators.LinearOperator, kappa: float) -> operators.LinearOperator:
    """A + kappa I on the active unknowns of ``op``, its matrix the sum that
    ``Diagonals.plus`` makes."""
    eye = operators.Diagonals(np.zeros(1, dtype=np.intp), np.full((1, op.n_active), kappa))
    return dataclasses.replace(op, matrix=op.matrix.plus(eye))


def weighted_time_factor(T: float, p: float, mu: float) -> float:
    """Weighted norm of a constant unit trajectory on (0, T]:

    sigma(T) = T^(1/p + 1 - mu) / (1 + (1 - mu) p)^(1/p).
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    return T ** (1.0 / p + 1.0 - mu) / (1.0 + (1.0 - mu) * p) ** (1.0 / p)


class SurfaceFields(NamedTuple):
    beta: np.ndarray
    normal: np.ndarray
    H: np.ndarray
    trace_L_sq: np.ndarray


def surface_fields(h) -> SurfaceFields:
    """The tilt factor beta = 1/sqrt(1 + |grad h|^2), the upward unit normal
    beta (-grad h, 1) (dim + 1 components on the last axis), the mean
    curvature H and tr L^2 of the graph of the scalar GridFunction ``h``,
    each derivative of h taken once, as ``geometry._flow_values`` takes it."""
    g, hess, beta, mask = geometry._surface(h.scalar, h.grid)
    normal = np.stack([-(beta * gi) for gi in g] + [beta], axis=-1)
    return SurfaceFields(beta, normal, geometry._mean_curvature(beta, mask, hess),
                         geometry._trace_L_squared(beta, mask, hess))
