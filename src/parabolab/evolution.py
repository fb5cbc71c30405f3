"""Frozen-coefficient Picard iteration on time windows, window gluing, and
long-time diagnostics.

One window of the solve freezes the leading operator at the window's initial
state u1 and iterates the affine map

    T(v):  du/dt + A(u1) u = F1(v) + F2(v) + (A(u1) - A(v)) v,  u(0) = u1,

whose fixed point solves the quasilinear problem on (0, T].  Since A(u1) is
frozen, the map needs the nonlinearity only through

    G(v) = F1(v) + F2(v) - A(v) v,

the quasilinear split of Koehne-Pruess-Wilke, here with singular lower-order
terms F2: the right-hand side of T is G(v) + A(u1) v.  Residuals are
measured in the weighted solution norm E1mu with window-local time; an
empirical contraction factor >= 1 (or any evaluation failure) halves the
window and restarts.  ``continue_solution`` glues accepted windows until a
horizon, a norm threshold, or window collapse, reporting a lower bound for
the existence time in the latter cases.

Time stepping is implicit Euler on the graded grid t_k = T (k/K)^gamma with
gamma = max(1, 1/(mu - 1/p)); a spectral stepper (exact exponential plus a
phi1 Duhamel term in the frozen operator's eigenbasis) is available for
symmetric scalar operators and makes window gluing exact up to roundoff.

A trajectory is two stacked arrays (``norms.WeightedTrajectory``).  The
steppers fill one (K+1, n_active) array, which ``_assemble_trajectory``
scatters onto the grid once, or takes as the states when every node is
active (Neumann), and the Picard right-hand side is one call of
the problem's G hook on the whole stack of samples, followed by one sparse
product with A(u1).  Problems without a G hook fall back to their F1, F2
and apply_A hooks, one sample at a time, accumulating each sample's terms in
place in the output row; that fallback is slated for deletion once every
caller supplies G.  Either way the stack is checked for finiteness once,
not per sample.  ``continue_solution`` glues the windows' arrays and
releases each window's trajectory once ``on_window`` has seen it.

The stepping machinery is built once per window attempt and shared by the
reference solve and every Picard iteration.  Implicit Euler factors each
I + dt_k*A(u1) once, in 1D and 2D alike, as one LAPACK banded factor chosen
from what A(u1) shows.  Its march forms every increment dt_k*rhs_{k+1} in one
product, solves each step with the factor's unchecked LAPACK solve, and
checks the whole (K+1, n_active) output for finiteness once per run; a
non-finite run raises the SolverError of the first step that went
non-finite, as a checked solve would have.  The factors are

* banded Cholesky of W(I + dt_k*A(u1)), W the diagonal of the operator's
  pairing weights (``operators.BandedCholesky``), when every weight is
  positive and W A(u1) is symmetric to rounding.  That holds for the heat
  problem and for reaction-diffusion with a diagonal, positive a(u1) (always
  so for one component), whose operator -a(u1) Lap pairs with w/a(u1), and
  for the reference operators, the clamped plate among them;
* banded LU (``operators.BandedLU``) otherwise: the geometric flows and
  coupled reaction-diffusion, and any step whose W(I + dt_k*A(u1)) is not
  positive definite.

The limit is 2D memory: the band of an m^2-node operator is about m wide, so
one factor takes O(m^3) bytes and a window holds K of them.  For the
second-order operator -a(u) Lap, a Cholesky factor stores m + 1 band rows
and an LU factor 3m + 1.  Per factor, two passes on a 2-core Intel Xeon VM
with one BLAS thread:

    nodes                     48^2       64^2       96^2       128^2
    Cholesky  size (MB)       0.90       2.1        7.2        17
              factor (ms)     2.7        5.2-6.5    19-23      43-47
              solve (ms)      0.12-0.13  0.27-0.29  0.77-0.84  2.0-2.5
    LU        size (MB)       2.7        6.3        21         50
              factor (ms)     3.9-4.2    12         39-42      102-110
              solve (ms)      0.25-0.38  0.67-0.71  1.9-2.2    8.1-8.3

The bundled configs are 1D; the largest 2D case in ``perfbench/configs`` has
48^2 nodes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import BoundaryCondition, Grid, GridFunction, NonFiniteError
from .norms import (E1mu_norm, WeightedTrajectory, difference, glue, lq_norm, proxy_norm,
                    x1_norm)
from .operators import (BandedCholesky, BandedLU, LinearOperator, NotPositiveDefiniteError,
                        SolverError, SpectralProxy, eigendecompose, reference_operator)


class StateConstraintError(ValueError):
    """A state left the admissible region during evaluation."""


class NonconvergenceError(RuntimeError):
    def __init__(self, message: str, halvings: int = 0, residuals=()):
        super().__init__(message)
        self.halvings = halvings
        self.residuals = tuple(residuals)


def _always_admissible(_values: np.ndarray) -> bool:
    return True


@dataclass
class AbstractProblem:
    """Quasilinear problem in the split form du/dt + A(u) u = F1(u) + F2(u).

    ``assemble_A`` must return the frozen leading operator as a matrix;
    ``apply_A`` is an optional mat-free version of A(v) u.
    ``state_constraint`` guards coefficient evaluation (the open set U): it
    takes nodal values of shape ``(..., *grid.shape, ncomp)``, a single
    state or a stack of samples, and says whether all of them lie in U.

    ``G`` is the optional stacked right-hand side the window solver uses,

        G(v) = F1(v) + F2(v) - A(v) v.

    It takes nodal values of shape ``(..., *grid.shape, ncomp)`` and returns
    an array of the same shape, each sample evaluated on its own; leading
    axes are samples, so G must not mix them.  It may assume that its input
    satisfies ``state_constraint`` and may return non-finite values, which
    the caller rejects.  G does not depend on the frozen operator, so it is
    invariant under ``kappa_shift``.  Without it, ``G_values`` evaluates
    F1 + F2 - apply one sample at a time, in place in the output row, and
    leaves the finiteness check to the caller.
    """

    assemble_A: Callable[[GridFunction], LinearOperator]
    F1: Callable[[GridFunction], GridFunction]
    F2: Callable[[GridFunction], GridFunction]
    bc: BoundaryCondition
    state_constraint: Callable[[np.ndarray], bool] = _always_admissible
    apply_A: Optional[Callable[[GridFunction, GridFunction], GridFunction]] = None
    order: str = "second"
    ncomp: int = 1
    name: str = ""
    G: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def order_int(self) -> int:
        return 2 if self.order == "second" else 4

    def apply(self, v: GridFunction, u: GridFunction) -> GridFunction:
        if self.apply_A is not None:
            return self.apply_A(v, u)
        return self.assemble_A(v).apply(u)

    def G_values(self, values: np.ndarray, grid: Grid) -> np.ndarray:
        """G on a stack of nodal values; see the class docstring."""
        if self.G is not None:
            return self.G(values)
        samples = values.reshape((-1,) + grid.shape + (values.shape[-1],))
        out = np.empty_like(samples)
        for k, vals in enumerate(samples):
            v = GridFunction(grid, vals)
            row = out[k]
            np.add(self.F1(v).values, self.F2(v).values, out=row)
            row -= self.apply(v, v).values
        return out.reshape(values.shape)


@dataclass
class FixedPointConfig:
    """Window solver parameters (see module docstring for semantics)."""

    window: float
    time_steps: int
    mu: float
    p: float
    q: float = 2.0
    radius: float = 1.0
    contraction_target: float = 0.5
    max_iter: int = 25
    tol: float = 1e-9
    grading: Optional[float] = None
    propagator: str = "euler"
    max_halvings: int = 20
    blowup_threshold: float = 1e6

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.time_steps < 2:
            raise ValueError(f"need at least 2 time steps, got {self.time_steps}")
        if self.max_halvings < 0:
            raise ValueError(f"max_halvings must be >= 0, got {self.max_halvings}")
        if not (0.0 < self.mu <= 1.0) or self.p <= 1.0 or self.mu <= 1.0 / self.p:
            raise ValueError(f"need 1/p < mu <= 1, got mu={self.mu}, p={self.p}")
        if self.propagator not in ("euler", "spectral"):
            raise ValueError(f"propagator must be 'euler' or 'spectral', got {self.propagator!r}")

    def gamma(self) -> float:
        if self.grading is not None:
            return self.grading
        return max(1.0, 1.0 / (self.mu - 1.0 / self.p))


def graded_times(T: float, steps: int, gamma: float) -> np.ndarray:
    """t_k = T (k/K)^gamma, k = 0..K; gamma = 1 recovers the uniform grid."""
    k = np.arange(steps + 1, dtype=float)
    return T * (k / steps) ** gamma


# A0 takes Cholesky steps when diag(weights) @ A0 is symmetric to this
# relative defect, a rounding-level bound.
SYMMETRIC_DEFECT = 1e-14


class _EulerStepper:
    """Implicit Euler with one banded factor of I + dt_k*A0 per step.

    The factor is a Cholesky factor of W(I + dt_k*A0), W = diag(weights),
    when every weight is positive and W A0 is symmetric to SYMMETRIC_DEFECT,
    and an LU factor otherwise, or for a step whose W(I + dt_k*A0) is not
    positive definite.
    """

    def __init__(self, A0: LinearOperator, times: np.ndarray):
        self.A0 = A0
        self.times = times
        sym = None
        if np.all(A0.weights > 0.0) and A0.symmetric_defect() <= SYMMETRIC_DEFECT:
            sym = A0.to_symmetric_banded()
        band = None
        self.factors = []
        for dt in np.diff(times):
            if sym is not None:
                try:
                    self.factors.append(BandedCholesky(sym, A0.weights, scale=dt, shift=1.0))
                    continue
                except NotPositiveDefiniteError:
                    pass
            if band is None:
                band = A0.to_banded()
            self.factors.append(BandedLU(*band, scale=dt, shift=1.0))

    def run(self, u_init: np.ndarray, rhs: Optional[np.ndarray]) -> np.ndarray:
        """The (K+1, n) states from u_init, with one finiteness check over
        all of them rather than one per solve."""
        us = np.empty((len(self.times), len(u_init)))
        us[0] = u_init
        # step k solves with b_k = us[k] + dt_k*rhs[k+1], added in place to
        # the increment (addition commutes, so the bits are the same)
        bs = us[:-1] if rhs is None else np.diff(self.times)[:, None] * rhs[1:]
        for k, factor in enumerate(self.factors):
            b = bs[k]
            if rhs is not None:
                b += us[k]
            us[k + 1] = factor._solve(b)
        if not np.all(np.isfinite(us)):
            # a non-finite value stays non-finite in later steps, so the
            # first non-finite state names the failing step, whose checked
            # solve raises that step's SolverError
            k = max(int(np.argmin(np.isfinite(us).all(axis=1))) - 1, 0)
            self.factors[k].solve(bs[k])
        return us


def _phi1(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    small = np.abs(z) < 1e-8
    out[small] = 1.0 + z[small] / 2.0
    zs = z[~small]
    out[~small] = np.expm1(zs) / zs
    return out


class _SpectralStepper:
    """Exact exponential for the frozen part, phi1 (exponential-integrator)
    treatment of the rhs; exact for rhs = 0 and for constant rhs."""

    def __init__(self, A0: LinearOperator, times: np.ndarray):
        self.A0 = A0
        self.times = times
        self.proxy = eigendecompose(A0, symmetric=True)
        self.lam = self.proxy.eigenvalues
        self.wmodes = self.proxy.modes * A0.weights[:, None]

    def _modal(self, vec: np.ndarray) -> np.ndarray:
        return self.wmodes.T @ vec

    def run(self, u_init: np.ndarray, rhs: Optional[np.ndarray]) -> np.ndarray:
        c = self._modal(u_init)
        us = np.tile(u_init, (len(self.times), 1))
        for k, dt in enumerate(np.diff(self.times)):
            decay = np.exp(-self.lam * dt)
            c = decay * c
            if rhs is not None:
                c = c + dt * _phi1(-self.lam * dt) * self._modal(rhs[k + 1])
            us[k + 1] = self.proxy.modes @ c
        return us


@dataclass
class _Machinery:
    A0: LinearOperator
    times: np.ndarray
    stepper: object


def _build_machinery(prob: AbstractProblem, u_freeze: GridFunction,
                     times: np.ndarray, cfg: FixedPointConfig) -> _Machinery:
    if not prob.state_constraint(u_freeze.values):
        raise StateConstraintError("freeze state outside the admissible region")
    A0 = prob.assemble_A(u_freeze)
    if cfg.propagator == "spectral":
        stepper = _SpectralStepper(A0, times)
    else:
        stepper = _EulerStepper(A0, times)
    return _Machinery(A0=A0, times=times, stepper=stepper)


def _assemble_trajectory(mach: _Machinery, vecs: np.ndarray, rhs: Optional[np.ndarray],
                         cfg: FixedPointConfig) -> WeightedTrajectory:
    """Scatter the (K+1, n_active) stepper output onto the grid; the time
    derivative is -A0 u + rhs at t = 0 and the backward difference after."""
    A0 = mach.A0
    r0 = rhs[0] if rhs is not None else 0.0
    dvecs = np.empty_like(vecs)
    dvecs[0] = r0 - A0.matrix @ vecs[0]
    dvecs[1:] = np.diff(vecs, axis=0) / np.diff(mach.times)[:, None]
    full = (len(vecs), A0.grid.n_nodes * A0.ncomp)
    if A0.n_active == full[1]:
        # every unknown is active (Neumann): the arrays are the states
        states, derivs = vecs, dvecs
    else:
        states = np.zeros(full)
        states[:, A0.active] = vecs
        derivs = np.zeros(full)
        derivs[:, A0.active] = dvecs
    shape = (len(vecs),) + A0.grid.shape + (A0.ncomp,)
    return WeightedTrajectory(mach.times, states.reshape(shape), derivs.reshape(shape),
                              cfg.mu, cfg.p)


def reference_solution(u0: GridFunction, prob: AbstractProblem, cfg: FixedPointConfig,
                       times: Optional[np.ndarray] = None,
                       _mach: Optional[_Machinery] = None) -> WeightedTrajectory:
    """Trajectory of the frozen homogeneous problem dw/dt + A(u0) w = 0, w(0) = u0."""
    mach = _mach
    if mach is None:
        if times is None:
            times = graded_times(cfg.window, cfg.time_steps, cfg.gamma())
        mach = _build_machinery(prob, u0, times, cfg)
    vecs = mach.stepper.run(mach.A0.restrict(u0), None)
    return _assemble_trajectory(mach, vecs, None, cfg)


def _picard_rhs(v: WeightedTrajectory, prob: AbstractProblem,
                A0: LinearOperator) -> np.ndarray:
    """The (K+1, n_active) rhs samples G(v) + A0 v, from one G evaluation
    on the whole stack."""
    values = v.state_values
    if not prob.state_constraint(values):
        raise StateConstraintError("iterate left the admissible region")
    try:
        g = prob.G_values(values, A0.grid)
    except NonFiniteError as exc:
        raise StateConstraintError("non-finite right-hand side") from exc
    if not np.all(np.isfinite(g)):
        raise StateConstraintError("non-finite right-hand side")
    n = len(values)
    rhs = g.reshape(n, -1)[:, A0.active]
    rhs += (A0.matrix @ values.reshape(n, -1)[:, A0.active].T).T
    return rhs


def picard_map(v: WeightedTrajectory, u1: GridFunction, u0: GridFunction,
               prob: AbstractProblem, cfg: FixedPointConfig,
               _mach: Optional[_Machinery] = None) -> WeightedTrajectory:
    """One application of the frozen-coefficient solve map T (see module docs)."""
    mach = _mach
    if mach is None:
        mach = _build_machinery(prob, u0, v.times, cfg)
    rhs = _picard_rhs(v, prob, mach.A0)
    vecs = mach.stepper.run(mach.A0.restrict(u1), rhs)
    return _assemble_trajectory(mach, vecs, rhs, cfg)


@dataclass
class SolverWindowState:
    converged: bool
    window: float
    halvings: int
    iterations: int
    residuals: tuple
    contraction_factors: tuple
    trajectory: Optional[WeightedTrajectory]
    halving_reasons: tuple = ()

    def summary(self) -> dict:
        return {
            "converged": self.converged,
            "window": self.window,
            "halvings": self.halvings,
            "iterations": self.iterations,
            "residuals": list(self.residuals),
            "contraction_factors": list(self.contraction_factors),
            "halving_reasons": list(self.halving_reasons),
        }


def fixed_point_solve(u1: GridFunction, prob: AbstractProblem,
                      cfg: FixedPointConfig) -> SolverWindowState:
    """Iterate T to tolerance on one window, halving the window on stall."""
    if not prob.state_constraint(u1.values):
        raise StateConstraintError("initial state outside the admissible region")
    T = cfg.window
    halvings = 0
    last_residuals: tuple = ()
    reasons: list = []
    while halvings <= cfg.max_halvings:
        times = graded_times(T, cfg.time_steps, cfg.gamma())
        residuals: list = []
        factors: list = []
        try:
            mach = _build_machinery(prob, u1, times, cfg)
            v = reference_solution(u1, prob, cfg, _mach=mach)
        except (SolverError, StateConstraintError, NonFiniteError) as exc:
            reason = f"reference solve failed: {exc}"
        else:
            for iterations in range(1, cfg.max_iter + 1):
                try:
                    u = picard_map(v, u1, u1, prob, cfg, _mach=mach)
                    d = difference(u, v)
                except (SolverError, StateConstraintError, NonFiniteError) as exc:
                    reason = f"iteration failed: {exc}"
                    break
                # drop the old iterate before the norm, and the difference after
                # it, so that neither lives through the next Picard map
                v = u
                r = E1mu_norm(d, q=cfg.q, order=prob.order_int, bc=prob.bc)
                del d
                if not math.isfinite(r):
                    reason = "non-finite residual"
                    break
                residuals.append(r)
                if len(residuals) >= 2 and residuals[-2] > 0.0:
                    fac = r / residuals[-2]
                    factors.append(fac)
                    if fac >= 1.0:
                        reason = f"contraction factor {fac:.3g} >= 1"
                        break
                if r <= cfg.tol:
                    return SolverWindowState(
                        converged=True, window=T, halvings=halvings,
                        iterations=iterations, residuals=tuple(residuals),
                        contraction_factors=tuple(factors), trajectory=v,
                        halving_reasons=tuple(reasons),
                    )
            else:
                reason = f"tolerance not reached in {cfg.max_iter} iterations"
        reasons.append(reason)
        last_residuals = tuple(residuals)
        T /= 2.0
        halvings += 1
    raise NonconvergenceError(
        f"window collapsed after {cfg.max_halvings} halvings: {reasons[-1]}",
        halvings=cfg.max_halvings, residuals=last_residuals,
    )


@dataclass
class ContinuationState:
    windows: list
    t_plus_estimate: float
    blow_up: bool
    reason: Optional[str]
    trajectory: Optional[WeightedTrajectory]

    def summary(self) -> dict:
        return {
            "windows": [w.summary() for w in self.windows],
            "t_plus_estimate": (self.t_plus_estimate
                                if math.isfinite(self.t_plus_estimate) else "inf"),
            "blow_up": self.blow_up,
            "reason": self.reason,
        }


def continue_solution(u0: GridFunction, prob: AbstractProblem, cfg: FixedPointConfig,
                      horizon: float, t0: float = 0.0,
                      on_window: Optional[Callable] = None) -> ContinuationState:
    """Glue solver windows from t0 until the horizon or until breakdown.

    Each new window freezes at (and restarts from) the previous endpoint; the
    glued trajectory keeps a single sample at each joint.  On breakdown
    (window collapse, constraint violation, norm threshold), ``blow_up`` is
    set and ``t_plus_estimate`` is the reached time, a certified lower bound
    for the existence time; otherwise it is +inf as far as this run can see.
    ``on_window(index, t_start, window_state)`` fires after each accepted
    window, e.g. for checkpointing.  After it has run, the window's
    trajectory is released: ``windows[i].trajectory`` is None in the
    returned state, whose glued ``trajectory`` holds the only copy of the
    samples.
    """
    if horizon <= t0:
        raise ValueError(f"horizon {horizon} must exceed the start time {t0}")
    t = t0
    u = u0
    windows: list = []
    blow_up = False
    reason = None
    pieces: list = []
    while t < horizon - 1e-12 * max(1.0, horizon):
        wcfg = dataclasses.replace(cfg, window=min(cfg.window, horizon - t))
        try:
            st = fixed_point_solve(u, prob, wcfg)
        except NonconvergenceError as exc:
            blow_up = True
            reason = f"window collapse: {exc}"
            break
        except StateConstraintError as exc:
            blow_up = True
            reason = f"state constraint: {exc}"
            break
        windows.append(st)
        traj = st.trajectory
        joint_gap = float(np.max(np.abs(traj.state_values[0] - u.values)))
        if joint_gap > 1e-8 * max(1.0, u.sup_norm()):
            raise SolverError(f"window joint mismatch {joint_gap:.3e}")
        pieces.append((t, traj))
        t_start = t
        t = float(t + traj.times[-1])
        u = GridFunction(traj.grid, traj.state_values[-1])
        if on_window is not None:
            on_window(len(windows) - 1, t_start, st)
        st.trajectory = None
        if u.sup_norm() >= cfg.blowup_threshold:
            blow_up = True
            reason = f"sup norm reached blow-up threshold {cfg.blowup_threshold:g}"
            break
    # trajectory time is local to the start of this continuation run
    trajectory = glue(pieces, cfg.mu, cfg.p, t0) if pieces else None
    return ContinuationState(
        windows=windows,
        t_plus_estimate=t if blow_up else math.inf,
        blow_up=blow_up,
        reason=reason,
        trajectory=trajectory,
    )


def kappa_shift(prob: AbstractProblem, kappa: float) -> AbstractProblem:
    """Equivalent reformulation A + kappa*I, F1 + kappa*id.

    G = F1 + F2 - A(v) v is invariant under the shift and passes through
    unchanged; F1 and apply_A are shifted for the callers that use them
    (the Lipschitz probe, and ``G_values`` when there is no G hook).  At the
    discrete fixed point the shift cancels identically, so converged
    trajectories agree with the unshifted problem to solver tolerance.
    """

    def assemble(v):
        return prob.assemble_A(v).shifted(kappa)

    def apply_shifted(v, u):
        return prob.apply(v, u) + kappa * u

    def f1(v):
        return prob.F1(v) + kappa * v

    return AbstractProblem(
        assemble_A=assemble, F1=f1, F2=prob.F2, bc=prob.bc,
        state_constraint=prob.state_constraint, apply_A=apply_shifted,
        order=prob.order, ncomp=prob.ncomp,
        name=f"{prob.name}+shift" if prob.name else "shifted", G=prob.G,
    )


@dataclass(frozen=True)
class LipschitzReport:
    L_A: float
    L_F1: float
    c_dependence: float
    n_pairs: int
    skipped: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _smooth_modes(grid: Grid, bc: BoundaryCondition, ncomp: int, k: int) -> GridFunction:
    xs = grid.coords()
    if bc == BoundaryCondition.NEUMANN:
        prof = np.cos(k * np.pi * xs[0])
        for x in xs[1:]:
            prof = prof * np.cos(k * np.pi * x)
    else:
        prof = np.sin(k * np.pi * xs[0]) ** 2
        for x in xs[1:]:
            prof = prof * np.sin(k * np.pi * x) ** 2
    vals = np.repeat(prof[..., None], ncomp, axis=-1)
    return GridFunction(grid, vals)


def lipschitz_probe(prob: AbstractProblem, u_center: GridFunction,
                    cfg: FixedPointConfig, n_samples: int = 6,
                    radius: float = 0.05, seed: int = 0,
                    proxy: Optional[SpectralProxy] = None,
                    with_solutions: bool = True) -> LipschitzReport:
    """Empirical Lipschitz moduli of A and F1, and of the data-to-solution map.

    Ratios are measured between randomly perturbed states near ``u_center``:
    operator differences in L2 against proxy trace-norm distances of the
    states (theta = mu - 1/p), normalized by the top norm of fixed probe
    fields.  Identical pairs are skipped (0/0 guards).
    """
    grid = u_center.grid
    rng = np.random.default_rng(seed)
    if proxy is None:
        proxy = eigendecompose(reference_operator(grid, prob.order))
    theta_low = cfg.mu - 1.0 / cfg.p
    modes = [_smooth_modes(grid, prob.bc, u_center.ncomp, k) for k in (1, 2, 3)]
    samples = []
    skipped = 0
    for _ in range(n_samples):
        pert = GridFunction.zeros(grid, u_center.ncomp)
        for m in modes:
            pert = pert + float(rng.uniform(-1.0, 1.0)) * m
        scale = pert.sup_norm()
        if scale > 0:
            pert = (radius / scale) * pert
        w = u_center + pert
        if prob.state_constraint(w.values):
            samples.append(w)
        else:
            skipped += 1
    probes = modes[:2]
    L_A = 0.0
    L_F1 = 0.0
    n_pairs = 0
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            d = proxy_norm(samples[i] - samples[j], theta_low, proxy)
            if d <= 0.0:
                skipped += 1
                continue
            n_pairs += 1
            for v in probes:
                num = lq_norm(prob.apply(samples[i], v) - prob.apply(samples[j], v))
                L_A = max(L_A, num / (d * x1_norm(v, 2.0, prob.order_int, prob.bc)))
            L_F1 = max(L_F1, lq_norm(prob.F1(samples[i]) - prob.F1(samples[j])) / d)
    c_dep = 0.0
    if with_solutions and len(samples) >= 2:
        base = fixed_point_solve(u_center, prob, cfg)
        for w in samples[:2]:
            d = proxy_norm(w - u_center, theta_low, proxy)
            if d <= 0.0:
                continue
            other = fixed_point_solve(w, prob, cfg)
            if other.window != base.window:
                continue
            dist = E1mu_norm(difference(other.trajectory, base.trajectory),
                             q=cfg.q, order=prob.order_int, bc=prob.bc)
            c_dep = max(c_dep, dist / d)
    return LipschitzReport(L_A=L_A, L_F1=L_F1, c_dependence=c_dep,
                           n_pairs=n_pairs, skipped=skipped)


@dataclass
class OmegaLimitReport:
    cluster_points: list
    diameter: float
    converged: bool
    n_clusters: int
    distances_to_final: list

    def summary(self) -> dict:
        return {
            "n_clusters": self.n_clusters,
            "diameter": self.diameter,
            "converged": self.converged,
            "distances_to_final": self.distances_to_final,
        }


def omega_limit(traj: WeightedTrajectory, sample_times, proxy: SpectralProxy,
                threshold: float = 1e-4, theta: Optional[float] = None) -> OmegaLimitReport:
    """Cluster late-time states in the trace-proxy metric.

    ``theta`` defaults to 1 - 1/p (the natural unweighted trace scale).
    Clusters come from single-linkage with the given threshold; the run is
    ``converged`` when a single cluster remains and the pairwise spread over
    the later half of the samples does not exceed that of the earlier half.
    """
    sample_times = list(sample_times)
    if len(sample_times) < 2:
        raise ValueError("need at least two sample times")
    if theta is None:
        theta = 1.0 - 1.0 / traj.p
    states = [traj.state_at(t) for t in sample_times]
    m = len(states)
    dist = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            dist[i, j] = dist[j, i] = proxy_norm(states[i] - states[j], theta, proxy)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if dist[i, j] <= threshold:
                parent[find(i)] = find(j)
    labels = [find(i) for i in range(m)]
    roots = sorted(set(labels), key=labels.index)
    clusters = [[i for i in range(m) if find(i) == r] for r in roots]
    half = m // 2
    spread_early = float(np.max(dist[:half or 1, :half or 1])) if half >= 1 else 0.0
    spread_late = float(np.max(dist[half:, half:]))
    final_cluster = next(c for c in clusters if (m - 1) in c)
    diameter = float(np.max(dist[np.ix_(final_cluster, final_cluster)])) if len(final_cluster) > 1 else 0.0
    converged = len(clusters) == 1 and (spread_late <= spread_early + 1e-15
                                        or diameter <= threshold)
    points = [(1.0 / len(c)) * GridFunction(traj.grid, np.sum([states[i].values for i in c], axis=0))
              for c in clusters]
    return OmegaLimitReport(
        cluster_points=points, diameter=diameter, converged=converged,
        n_clusters=len(clusters),
        distances_to_final=[float(dist[i, m - 1]) for i in range(m)],
    )
