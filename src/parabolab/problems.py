"""Concrete problem families for the window solver.

Two classes are bundled:

* reaction-diffusion systems with state-dependent diffusion,

      du/dt = a(u) Lap u + f(u) + sum_j b(u)[d_j u, d_j u],

  split as A(v) = -a(v) Lap (Neumann), F1 = f, F2 the quadratic gradient
  term; coefficients are polynomial tables in the components of u, and a(u)
  must have spectrum in the open right half plane over the state box U.

* graph-form geometric flows (surface diffusion, Willmore), clamped,

      dh/dt = G(h),   A(h) u = sum_sigma a_sigma(grad h) D^sigma u,

  with the frozen fourth-order coefficient from ``leading_coefficient`` and
  F2 the computable residual A(h) h + G(h) on the unknowns, 0 at pinned
  nodes, never a symbolic expansion of the lower-order coefficients.

Both families hand the solver the stacked right-hand side
G(v) = F1(v) + F2(v) - A(v) v as the problem's ``G`` hook, evaluated on a
stack of samples a block of samples at a time: for reaction-diffusion
a(v) Lap v + f(v) + sum_j b(v)[d_j v, d_j v], for the flows the geometry
right-hand side itself, so that A(h) h is never formed only to cancel.

The frozen operators, the one implementation of A(v) u, are assembled by
diagonals (``operators.Diagonals``): -a(v) Lap as the node blocks a(v)
times the mirrored Laplacian (``operators.block_rows``), the flows' A(h)
from the nodal coefficients of each multi-index
(``operators.assemble_coefficient_operator``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import geometry
from .grids import BoundaryCondition, Grid, GridFunction
from .operators import (LinearOperator, assemble_coefficient_operator, block_rows,
                        derivative_values, neumann_laplacian, operator_from_full_matrix,
                        unit_sigma)
from .evolution import AbstractProblem, StateConstraintError


class ProblemSpecError(ValueError):
    """Raised when a problem specification violates its structural rules."""


def is_real(x) -> bool:
    """Whether ``x`` is a JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_power(k) -> bool:
    return isinstance(k, int) and not isinstance(k, bool) and k >= 0


@dataclass(frozen=True)
class PolynomialMap:
    """Polynomial map R^nvars -> R^shape given by a flat term list.

    Each term is (out_index, powers, coeff): out_index indexes the output
    array, powers the monomial exponents of the state components.
    """

    shape: tuple
    nvars: int
    terms: tuple

    def __post_init__(self):
        for out_idx, powers, _ in self.terms:
            if len(out_idx) != len(self.shape):
                raise ProblemSpecError(f"output index {out_idx} does not match shape {self.shape}")
            if len(powers) != self.nvars:
                raise ProblemSpecError(f"powers {powers} do not match nvars {self.nvars}")

    def __call__(self, u_values: np.ndarray) -> np.ndarray:
        u = np.asarray(u_values, dtype=float)
        base = u.shape[:-1]
        out = np.zeros(base + self.shape)
        for out_idx, powers, coeff in self.terms:
            mono = np.full(base, float(coeff))
            for a, k in enumerate(powers):
                if k:
                    mono = mono * u[..., a] ** k
            out[(Ellipsis,) + tuple(out_idx)] += mono
        return out

    @classmethod
    def constant(cls, arr) -> "PolynomialMap":
        arr = np.asarray(arr, dtype=float)
        nvars = 1
        terms = []
        for idx in np.ndindex(arr.shape):
            if arr[idx] != 0.0:
                terms.append((idx, (0,), float(arr[idx])))
        return cls(shape=arr.shape, nvars=nvars, terms=tuple(terms))

    @classmethod
    def from_table(cls, table, shape, nvars) -> "PolynomialMap":
        """Build from a JSON-style nested table.

        Leaves may be a number (constant), a list of numbers (univariate
        series, only when nvars == 1), or {"terms": [{"powers": [...],
        "coeff": c}, ...]} with nonnegative integer powers.  Any other leaf
        raises ProblemSpecError.
        """
        shape = tuple(shape)
        terms = []

        def leaf(entry, idx):
            if isinstance(entry, dict) and set(entry) == {"terms"} \
                    and isinstance(entry["terms"], list):
                for t in entry["terms"]:
                    if not (isinstance(t, dict) and set(t) == {"powers", "coeff"}
                            and is_real(t["coeff"]) and isinstance(t["powers"], list)
                            and all(_is_power(k) for k in t["powers"])):
                        raise ProblemSpecError(f"cannot interpret coefficient term {t!r}")
                    if len(t["powers"]) != nvars:
                        raise ProblemSpecError(f"powers {t['powers']} do not match nvars {nvars}")
                    terms.append((idx, tuple(t["powers"]), float(t["coeff"])))
            elif isinstance(entry, list) and all(is_real(c) for c in entry):
                if nvars != 1:
                    raise ProblemSpecError("series leaves need nvars == 1")
                for k, c in enumerate(entry):
                    if c != 0:
                        terms.append((idx, (k,), float(c)))
            elif is_real(entry):
                if entry != 0:
                    terms.append((idx, (0,) * nvars, float(entry)))
            else:
                raise ProblemSpecError(f"cannot interpret coefficient leaf {entry!r}")

        def walk(node, idx, depth):
            if depth == len(shape):
                leaf(node, idx)
                return
            if not isinstance(node, list) or len(node) != shape[depth]:
                raise ProblemSpecError(f"table level {depth} does not match shape {shape}")
            for i, sub in enumerate(node):
                walk(sub, idx + (i,), depth + 1)

        walk(table, (), 0)
        return cls(shape=shape, nvars=nvars, terms=tuple(terms))


def _box_samples(u_box: np.ndarray) -> np.ndarray:
    """The 5^ncomp lattice points of the box, or, beyond 4096 of them, 512
    seeded uniform draws and the corners."""
    ncomp = u_box.shape[0]
    axes = [np.linspace(lo, hi, 5) for lo, hi in u_box]
    if 5 ** ncomp <= 4096:
        pts = np.array(list(product(*axes)))
    else:
        rng = np.random.default_rng(0)
        pts = rng.uniform(u_box[:, 0], u_box[:, 1], size=(512, ncomp))
        corners = np.array(list(product(*[(lo, hi) for lo, hi in u_box])))
        pts = np.vstack([pts, corners])
    return pts


@dataclass(frozen=True)
class PositivityReport:
    min_real_part: float
    ok: bool
    worst_state: tuple

    def as_dict(self) -> dict:
        return {
            "min_real_part": self.min_real_part,
            "ok": self.ok,
            "worst_state": list(self.worst_state),
        }


def spectrum_positivity_check(a: PolynomialMap, u_box) -> PositivityReport:
    """Minimum real part of the eigenvalues of a(u) over a sample of the box."""
    u_box = np.asarray(u_box, dtype=float)
    pts = _box_samples(u_box)
    mins = np.min(np.linalg.eigvals(a(pts)).real, axis=-1)
    k = int(np.argmin(mins))  # the first of equal minima
    worst = float(mins[k])
    return PositivityReport(min_real_part=worst, ok=worst > 0.0,
                            worst_state=tuple(pts[k].tolist()))


@dataclass(frozen=True)
class ReactionDiffusionSpec:
    """State box, coefficient tables, and grid of one reaction-diffusion system."""

    grid: Grid
    ncomp: int
    a: PolynomialMap
    f: PolynomialMap
    b: PolynomialMap
    u_box: np.ndarray
    margin: float = 0.0
    name: str = "reaction-diffusion"
    # the check of a(u) on u_box that the spec passed when it was built
    positivity: PositivityReport = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "u_box", np.asarray(self.u_box, dtype=float))
        N = self.ncomp
        if self.a.shape != (N, N) or self.f.shape != (N,) or self.b.shape != (N, N, N):
            raise ProblemSpecError(
                f"coefficient shapes {self.a.shape}, {self.f.shape}, {self.b.shape} "
                f"do not match {N} components"
            )
        if self.u_box.shape != (N, 2) or np.any(self.u_box[:, 0] >= self.u_box[:, 1]):
            raise ProblemSpecError("u_box must be (ncomp, 2) with lo < hi")
        rep = spectrum_positivity_check(self.a, self.u_box)
        object.__setattr__(self, "positivity", rep)
        if not rep.ok:
            raise ProblemSpecError(
                f"a(u) loses positivity on the state box: min Re eigenvalue "
                f"{rep.min_real_part:.3e} at u = {rep.worst_state}"
            )


def linear_heat_spec(grid: Grid) -> ReactionDiffusionSpec:
    """Scalar heat equation as the degenerate table (a = 1, f = 0, b = 0)."""
    return ReactionDiffusionSpec(
        grid=grid, ncomp=1,
        a=PolynomialMap.constant(np.array([[1.0]])),
        f=PolynomialMap.constant(np.zeros(1)),
        b=PolynomialMap.constant(np.zeros((1, 1, 1))),
        u_box=np.array([[-1e6, 1e6]]),
        name="heat",
    )


# Stacked right-hand sides are evaluated this many grid nodes at a time (7
# samples of a 48^2 grid), which bounds their temporaries to a few MB.
_BLOCK_NODES = 16384


def _in_blocks(fn, grid: Grid):
    """``fn`` on a stack of nodal values, evaluated a block of samples at a
    time."""
    block = max(1, _BLOCK_NODES // grid.n_nodes)

    def blocked(values: np.ndarray) -> np.ndarray:
        samples = values.reshape((-1,) + values.shape[-grid.dim - 1:])
        out = np.empty_like(samples)
        for start in range(0, len(samples), block):
            out[start:start + block] = fn(samples[start:start + block])
        return out.reshape(values.shape)

    return blocked


def rd_problem(spec: ReactionDiffusionSpec) -> AbstractProblem:
    grid = spec.grid
    N = spec.ncomp
    bc = BoundaryCondition.NEUMANN
    lap_scalar = neumann_laplacian(grid)
    lo = spec.u_box[:, 0] + spec.margin
    hi = spec.u_box[:, 1] - spec.margin

    def in_box(values: np.ndarray) -> bool:
        return bool(np.all(values >= lo) and np.all(values <= hi))

    def require_in_box(v: GridFunction):
        if not in_box(v.values):
            raise StateConstraintError(f"state left the box of '{spec.name}'")

    # a(v) Lap v and sum_j b(v)[d_j v, d_j v] on nodal values with leading axes

    def diffusion(v: np.ndarray) -> np.ndarray:
        lap = np.zeros_like(v)
        for axis in range(grid.dim):
            lap += derivative_values(v, grid, unit_sigma(axis, grid.dim, 2))
        return np.einsum("...ij,...j->...i", spec.a(v), lap)

    def gradient_term(v: np.ndarray) -> np.ndarray:
        bv = spec.b(v)
        out = np.zeros_like(v)
        for axis in range(grid.dim):
            dv = derivative_values(v, grid, unit_sigma(axis, grid.dim))
            out += np.einsum("...iab,...a,...b->...i", bv, dv, dv)
        return out

    def assemble_A(v: GridFunction) -> LinearOperator:
        require_in_box(v)
        av = spec.a(v.values).reshape(-1, N, N)
        op = operator_from_full_matrix(grid, N, bc, block_rows(av, lap_scalar).scaled(-1.0))
        # -a Lap with a diagonal and positive is symmetric in the pairing w/a
        diag = np.diagonal(av, axis1=1, axis2=2)
        if np.all(diag > 0.0) and np.array_equal(av, diag[..., None] * np.eye(N)):
            op = dataclasses.replace(op, weights=op.weights / diag.ravel())
        return op

    def F1(v: GridFunction) -> GridFunction:
        require_in_box(v)
        return GridFunction(grid, spec.f(v.values))

    def F2(v: GridFunction) -> GridFunction:
        require_in_box(v)
        return GridFunction(grid, gradient_term(v.values))

    def G(values: np.ndarray) -> np.ndarray:
        return diffusion(values) + spec.f(values) + gradient_term(values)

    return AbstractProblem(
        assemble_A=assemble_A, F1=F1, F2=F2, bc=bc, state_constraint=in_box,
        order="second", name=spec.name, G=_in_blocks(G, grid),
    )


@dataclass(frozen=True)
class FlowSpec:
    grid: Grid
    kind: str
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("surface_diffusion", "willmore"):
            raise ProblemSpecError(
                f"kind must be 'surface_diffusion' or 'willmore', got {self.kind!r}"
            )
        if not self.name:
            object.__setattr__(self, "name", self.kind)


def _fourth_order_coeffs(grid: Grid, h: GridFunction) -> dict:
    """Per-multi-index nodal coefficients of A(h) from the rank-4 tensor."""
    a4 = geometry.leading_coefficient(geometry.slope_field(h.values, grid))
    coeffs: dict = {}
    for idx in product(range(grid.dim), repeat=4):
        sigma = tuple(idx.count(ax) for ax in range(grid.dim))
        c = a4[(Ellipsis,) + idx]
        coeffs[sigma] = coeffs[sigma] + c if sigma in coeffs else c.copy()
    return coeffs


def flow_problem(spec: FlowSpec) -> AbstractProblem:
    """Graph flow dh/dt = G(h) with G the geometry rhs, evaluated on the
    whole stack of samples; F2 = A(h) h + G(h) completes the split form."""
    grid = spec.grid
    bc = BoundaryCondition.CLAMPED
    rhs_values = (geometry.surface_diffusion_values if spec.kind == "surface_diffusion"
                  else geometry.willmore_values)

    def assemble_A(hfield: GridFunction) -> LinearOperator:
        return assemble_coefficient_operator(grid, _fourth_order_coeffs(grid, hfield), bc)

    def F1(_h: GridFunction) -> GridFunction:
        return GridFunction.zeros(grid, 1)

    def G(values: np.ndarray) -> np.ndarray:
        return rhs_values(values, grid)

    def F2(hfield: GridFunction) -> GridFunction:
        op, h = assemble_A(hfield), hfield.values
        return GridFunction(grid, op.scatter(op.dot(op.gather(h)) + op.gather(G(h))))

    return AbstractProblem(
        assemble_A=assemble_A, F1=F1, F2=F2, bc=bc, order="fourth", name=spec.name,
        G=_in_blocks(G, grid),
    )
