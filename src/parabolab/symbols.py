"""Principal symbol positivity and the boundary (Lopatinskii-Shapiro) check
for the frozen fourth-order graph operator.

Interior: with beta^2 = 1/(1 + |g|^2), g = grad v frozen at a point, the
principal symbol is

    a(g, xi) = (|xi|^2 - beta^2 (g . xi)^2)^2 >= beta^4 |xi|^4,

the right-hand side being the sharp lower bound (attained for xi parallel
to g); the classical coarser bound (1 - |g|/sqrt(1+|g|^2))^2 is also
reported for comparison.

Boundary: after freezing and flattening, the ODE in the normal variable is

    b^2 h - 2 b h'' + h'''' = -lambda h,   Re lambda >= 0,

with characteristic quartic z^4 - 2 b z^2 + (b^2 + lambda) = 0, i.e.
(z^2 - b)^2 = -lambda.  For lambda != 0 exactly two roots have negative real
part and the solvability determinant is |z2 - z1|; at lambda = 0 the stable
root -sqrt(b) is double and the (h, h') initial-value matrix for the basis
{e^{z1 x}, x e^{z1 x}} has determinant 1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np


def coarse_ellipticity_bound(grad_norm: float) -> float:
    """(1 - g/sqrt(1+g^2))^2, the coarser pointwise lower bound at |grad| = g."""
    g = float(grad_norm)
    return (1.0 - g / np.sqrt(1.0 + g * g)) ** 2


def sharp_ellipticity_bound(grad_norm: float) -> float:
    """beta^4 = 1/(1+g^2)^2, the sharp lower bound at |grad| = g."""
    g = float(grad_norm)
    return 1.0 / (1.0 + g * g) ** 2


def _directions(dim: int) -> np.ndarray:
    """The unit directions of the scan: both of 1D, 64 equally spaced in 2D."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    ang = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


@dataclass(frozen=True)
class EllipticityReport:
    min_ratio: float
    argmin_sample: int
    argmin_direction: tuple
    max_gradient: float
    coarse_bound: float
    sharp_bound: float

    def as_dict(self) -> dict:
        return {
            "min_ratio": self.min_ratio,
            "argmin_sample": self.argmin_sample,
            "argmin_direction": list(self.argmin_direction),
            "max_gradient": self.max_gradient,
            "coarse_bound": self.coarse_bound,
            "sharp_bound": self.sharp_bound,
        }


def ellipticity_scan(grad_samples) -> EllipticityReport:
    """Minimum of the symbol over gradient samples x unit directions.

    ``grad_samples`` is (m, dim).  Ratios are a(g, xi)/|xi|^4 = a(g, xi) on
    unit directions; both lower bounds are evaluated at the largest sampled
    gradient so the report can assert min_ratio >= bound.
    """
    g = np.atleast_2d(np.asarray(grad_samples, dtype=float))
    m, dim = g.shape
    dirs = _directions(dim)
    gnorm2 = np.sum(g ** 2, axis=1)
    beta2 = 1.0 / (1.0 + gnorm2)
    dots = g @ dirs.T                                 # (m, ndir)
    vals = (1.0 - beta2[:, None] * dots ** 2) ** 2    # |xi| = 1
    idx = np.unravel_index(np.argmin(vals), vals.shape)
    gmax = float(np.sqrt(np.max(gnorm2)))
    return EllipticityReport(
        min_ratio=float(vals[idx]),
        argmin_sample=int(idx[0]),
        argmin_direction=tuple(dirs[idx[1]]),
        max_gradient=gmax,
        coarse_bound=coarse_ellipticity_bound(gmax),
        sharp_bound=sharp_ellipticity_bound(gmax),
    )


_cmath_sqrt = np.frompyfunc(cmath.sqrt, 1, 1)


def _sqrt(z: np.ndarray) -> np.ndarray:
    """cmath.sqrt elementwise; np.sqrt can differ from it in the last bit."""
    return _cmath_sqrt(z).astype(complex)


def _abs(z: np.ndarray) -> np.ndarray:
    """abs of Python's complex numbers; np.abs can differ from it in the last bit."""
    return np.hypot(z.real, z.imag)


def _quartic_residuals(z: np.ndarray, b: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """|z^4 - 2 b z^2 + (b^2 + lambda)| / (|z|^4 + 2 b |z|^2 + |b^2 + lambda|),
    rounded as Python's complex numbers round it: the products, which numpy's
    complex multiply rounds differently, in real parts, the powers of |z| by pow."""
    zr, zi = z.real, z.imag
    z2r, z2i = zr * zr - zi * zi, zr * zi + zi * zr
    z4r, z4i = z2r * z2r - z2i * z2i, z2r * z2i + z2i * z2r
    c = b * b + lam
    num = np.hypot(z4r - 2.0 * b * z2r + c.real, z4i - 2.0 * b * z2i + c.imag)
    mod = _abs(z)
    scale = np.float_power(mod, 4) + 2.0 * b * np.float_power(mod, 2) + _abs(c)
    return num / np.maximum(scale, 1e-300)


def _boundary_roots(b: np.ndarray, lam: np.ndarray) -> tuple:
    """The stable roots z1, z2, the confluent mask, |det| and the quartic
    residuals of z1 and z2 at each point of the broadcast arrays ``b``
    (float) and ``lam`` (complex), as the module docstring derives them.
    No root touches the imaginary axis when lambda != 0, since a purely
    imaginary z forces lambda real and negative."""
    b, lam = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(lam, dtype=complex))
    if np.any(bad := ~(b > 0.0)):
        raise ValueError(f"b must be positive, got {b[bad][0]}")
    if np.any(bad := lam.real < 0.0):
        raise ValueError(f"Re lambda must be >= 0, got {lam[bad][0]}")
    # at lambda = 0, of either sign, s is a zero and both roots are -sqrt(b)
    s = _sqrt(-lam)
    z1, z2 = -_sqrt(b + s), -_sqrt(b - s)
    if np.any(bad := (z1.real >= 0.0) | (z2.real >= 0.0)):
        raise ArithmeticError(f"stable-root selection failed at b={b[bad][0]}, "
                              f"lambda={lam[bad][0]}: roots {z1[bad][0]}, {z2[bad][0]}")
    confluent = lam == 0
    det = np.where(confluent, 1.0, _abs(z2 - z1))
    # past b ~ 1e154 the quartic overflows: raise, as Python's complex powers do
    with np.errstate(over="raise", invalid="raise"):
        residuals = (_quartic_residuals(z1, b, lam), _quartic_residuals(z2, b, lam))
    return z1, z2, confluent, det, residuals


@dataclass(frozen=True)
class LSScanReport:
    min_normalized: float
    argmin_b: float
    argmin_lambda: complex
    n_evaluated: int
    max_residual: float

    def as_dict(self) -> dict:
        return {
            "min_normalized": self.min_normalized,
            "argmin_b": self.argmin_b,
            "argmin_lambda": [self.argmin_lambda.real, self.argmin_lambda.imag],
            "n_evaluated": self.n_evaluated,
            "max_residual": self.max_residual,
        }


def default_lambda_grid(n_moduli: int) -> list:
    """``n_moduli`` moduli log-spaced in [1e-3, 1e6] x 9 phases in
    [-pi/2, pi/2], plus lambda = 0."""
    moduli = np.geomspace(1e-3, 1e6, n_moduli)
    phases = np.linspace(-np.pi / 2.0, np.pi / 2.0, 9)
    return [0j] + [complex(r * np.cos(ph), r * np.sin(ph)) for r in moduli for ph in phases]


def ls_scan(b_values, lambda_values) -> LSScanReport:
    """Minimum of |det| / (|z1| + |z2|) over the (b, lambda) grid, b major.

    The normalization makes values comparable across b scales; a positive
    minimum is the numerical Lopatinskii-Shapiro verdict.  The first of
    equal minima is reported.
    """
    bs = np.asarray(b_values, dtype=float)
    lams = np.asarray(lambda_values, dtype=complex)
    if not bs.size or not lams.size:
        raise ValueError("empty scan grid")
    z1, z2, _confluent, det, residuals = _boundary_roots(bs[:, None], lams[None, :])
    vals = det / (_abs(z1) + _abs(z2))
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    return LSScanReport(min_normalized=float(vals[i, j]), argmin_b=float(bs[i]),
                        argmin_lambda=complex(lams[j]), n_evaluated=vals.size,
                        max_residual=float(np.max(residuals)))
