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
measured in E1mu with window-local time.  The ball radius and contraction
constant of the fixed-point argument are not solver inputs: an empirical
contraction factor >= 1 (or any evaluation failure) halves the window and
restarts.  ``continue_solution`` glues accepted windows until a horizon, a
norm threshold or window collapse, reporting a lower bound for the
existence time in the latter cases.

Time stepping is implicit Euler on the graded grid t_k = T (k/K)^gamma with
gamma = max(1, 1/(mu - 1/p)); the spectral propagator (exact exponential
plus a phi1 Duhamel term in the frozen operator's eigenbasis) makes window
gluing exact up to roundoff for symmetric scalar operators of at most
``operators.DESK_EIG_CAP`` unknowns.

A trajectory is two stacked arrays (``norms.WeightedTrajectory``).  The
steppers fill one (K+1, n_active) array, which ``_assemble_trajectory``
puts onto the grid with ``LinearOperator.scatter``, and the Picard
right-hand side is one call of the problem's G hook on the whole stack of
samples plus one stacked product with A(u1), both read through
``LinearOperator.gather``; problems without a G hook fall back to their
hooks (see ``AbstractProblem``).  Either way the stack is checked for
finiteness once, not per sample.  ``continue_solution`` continues a state
or a run so far and glues the windows' arrays once, at the end, so a run
holds its samples twice while it glues them.  The diagnostics
(``omega_limit``, ``lipschitz_probe``) measure stacked states too.

Each window attempt builds one stepper, which holds A(u1) and the sample
times and serves the reference solve and every Picard iteration.  The
spectral propagator, and implicit Euler where A(u1) is scalar and symmetric
in its pairing and the window has n <= 256 unknowns and K >= n^2/100 steps
(``_marches_in_eigenbasis``: one eigendecomposition then costs less than
the banded steps), march in the eigenbasis of A(u1) with no LAPACK call per
step (``_ModalStepper``).  ``operators.eigendecompose`` keeps what it
decomposed, keyed by the operator's content, so a run makes one
decomposition per distinct operator, not per window: the windows of a
linear problem and the omega diagnostic share one.  Every other window
(the geometric flows, coupled reaction-diffusion, large 2D grids, short
windows on fine grids) factors each I + dt_k*A(u1) once, as one LAPACK
banded factor from ``operators.step_factors``, Cholesky where A(u1) is
symmetric in its pairing and LU otherwise (``_EulerStepper``).  Either
march checks its whole (K+1, n_active) output for finiteness once per run;
a non-finite run raises a SolverError that names the modal march, or the
solve routine of the first step that went non-finite.

The modal march advances in chunks of ``MODAL_CHUNK`` steps and flushes its
subnormal coefficients to zero after each chunk, so that decaying modes do
not spend thousands of steps, and the product that maps them back, in
subnormal arithmetic; steps whose rhs row is exactly zero, which is nearly
every step of a linear problem's Picard march, advance as one accumulated
product.  A Picard iterate whose difference to the previous one is exactly
zero, states and derivatives, is an exact fixed point: its residual is 0.0,
the value ``E1mu_norm`` would return, without measuring it.

The limit of the banded march is 2D memory: the band of an m^2-node
operator is about m wide, so one factor takes O(m^3) bytes and a window
holds K of them.  For the second-order operator -a(u) Lap, a Cholesky
factor stores m + 1 band rows and an LU factor 3m + 1.  Per factor, two
passes on a 2-core Intel Xeon VM with one BLAS thread:

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
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exponents import ORDER_INT
from .grids import BoundaryCondition, Grid, GridFunction, NonFiniteError, all_finite
from .norms import (TIME_SLACK, E1mu_norm, WeightedTrajectory, difference, glue, lq_norms,
                    proxy_norms, x1_norm)
from .operators import (LinearOperator, SolverError, SpectralProxy, eigendecompose,
                        reference_operator, step_factors)


# the largest gap between a window's first state and the state it starts
# from, relative to the state's sup norm or 1, whichever is larger
JOINT_TOL = 1e-8


class StateConstraintError(ValueError):
    """A state left the admissible region during evaluation."""


class NonconvergenceError(RuntimeError):
    def __init__(self, message: str, halvings: int, residuals):
        super().__init__(message)
        self.halvings = halvings
        self.residuals = tuple(residuals)


def _always_admissible(_values: np.ndarray) -> bool:
    return True


@dataclass
class AbstractProblem:
    """Quasilinear problem in the split form du/dt + A(u) u = F1(u) + F2(u).

    ``assemble_A`` returns the frozen leading operator A(v) as a matrix, the
    one implementation of A(v) u.  ``state_constraint`` guards coefficient
    evaluation (the open set U): it takes nodal values of shape
    ``(..., *grid.shape, ncomp)``, a single state or a stack of samples, and
    says whether all of them lie in U.

    ``G`` is the optional stacked right-hand side the window solver uses,

        G(v) = F1(v) + F2(v) - A(v) v.

    It takes nodal values of shape ``(..., *grid.shape, ncomp)`` and returns
    an array of the same shape, each sample evaluated on its own; leading
    axes are samples, so G must not mix them.  It may assume that its input
    satisfies ``state_constraint`` and may return non-finite values, which
    the caller rejects.  G does not depend on the frozen operator, so it is
    invariant under a shift A + kappa*I, F1 + kappa*id.

    Without G, ``G_values`` falls back to the hooks.  It checks the input
    stack for finiteness once (NonFiniteError), then hands each sample to
    F1, F2 and ``assemble_A`` as an unchecked GridFunction view,
    accumulating F1 + F2 in place in the output row, and subtracts A(v) v
    as one stacked product for each run of consecutive samples whose
    operator is the same object, so a constant operator costs one product
    per stack.  The finiteness check of the result is left to the caller.
    """

    assemble_A: Callable[[GridFunction], LinearOperator]
    F1: Callable[[GridFunction], GridFunction]
    F2: Callable[[GridFunction], GridFunction]
    bc: BoundaryCondition
    state_constraint: Callable[[np.ndarray], bool] = _always_admissible
    order: str = "second"
    name: str = ""
    G: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # not a field, and always None: perfbench/tracer.py still reads it; the
    # tracer's rebuild on timers from inside (ROADMAP item 1) deletes it
    apply_A = None

    @property
    def order_int(self) -> int:
        return ORDER_INT[self.order]

    def G_values(self, values: np.ndarray, grid: Grid) -> np.ndarray:
        """G on a stack of nodal values; see the class docstring."""
        if self.G is not None:
            return self.G(values)
        if not all_finite(values):
            raise NonFiniteError("GridFunction values must be finite")
        samples = values.reshape((-1,) + grid.shape + (values.shape[-1],))
        out = np.empty_like(samples)
        run_op, run_start = None, 0
        for k, vals in enumerate(samples):
            v = GridFunction._unchecked(grid, vals)
            np.add(self.F1(v).values, self.F2(v).values, out=out[k])
            op = self.assemble_A(v)
            if op is not run_op:
                if run_op is not None:
                    run = run_op.gather(samples[run_start:k])
                    out[run_start:k] -= run_op.scatter(run_op.dot(run))
                run_op, run_start = op, k
        if run_op is not None:
            run = run_op.gather(samples[run_start:])
            out[run_start:] -= run_op.scatter(run_op.dot(run))
        return out.reshape(values.shape)


PROPAGATORS = ("euler", "spectral")


@dataclass
class FixedPointConfig:
    """Window solver parameters (see module docstring for semantics)."""

    window: float
    time_steps: int
    mu: float
    p: float
    q: float = 2.0
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
        if self.propagator not in PROPAGATORS:
            raise ValueError(f"propagator must be 'euler' or 'spectral', got {self.propagator!r}")

    def gamma(self) -> float:
        if self.grading is not None:
            return self.grading
        return max(1.0, 1.0 / (self.mu - 1.0 / self.p))

    def ungradeable(self, T: float, t0: float = 0.0) -> Optional[str]:
        """Why the graded grid of a window of length T, placed at the time
        t0, has a step of zero length, or one below the least normal float,
        on which the weighted norms overflow; None when it has none."""
        steps = np.diff(t0 + graded_times(T, self.time_steps, self.gamma()))
        if not np.all(steps >= np.finfo(float).tiny):
            short = float(np.min(steps))
            length = f"subnormal length {short!r}" if short > 0.0 else "zero length"
            return (f"grading {self.gamma()!r} leaves a step of {length} among the "
                    f"{self.time_steps} steps of a window of length {T!r} at t = {t0!r}")


def graded_times(T: float, steps: int, gamma: float) -> np.ndarray:
    """t_k = T (k/K)^gamma, k = 0..K; gamma = 1 recovers the uniform grid."""
    k = np.arange(steps + 1, dtype=float)
    return T * (k / steps) ** gamma


class _EulerStepper:
    """Implicit Euler with one banded factor of I + dt_k*A0 per step, from
    ``operators.step_factors``: the march of every window that
    ``_marches_in_eigenbasis`` leaves out."""

    def __init__(self, A0: LinearOperator, times: np.ndarray):
        self.A0 = A0
        self.times = times
        self.dts = np.diff(times)
        self.factors = step_factors(A0, self.dts)

    def run(self, u_init: np.ndarray, rhs: Optional[np.ndarray]) -> np.ndarray:
        """The (K+1, n) states from u_init, with one finiteness check over
        all of them rather than one per solve.  Each step solves in place in
        its row of the output, so a run allocates no other array that size."""
        us = np.empty((len(self.times), len(u_init)))
        us[0] = u_init
        # step k solves in place with b_k = dt_k*rhs[k+1] + us[k] in row k+1
        # (addition commutes, so the bits are those of us[k] + dt_k*rhs[k+1])
        if rhs is not None:
            np.multiply(self.dts[:, None], rhs[1:], out=us[1:])
        for k, factor in enumerate(self.factors):
            if rhs is None:
                us[k + 1] = us[k]
            else:
                us[k + 1] += us[k]
            factor.solve(us[k + 1])
        if not all_finite(us):
            # a non-finite value stays non-finite in later steps, so the
            # first non-finite state names the failing step
            k = max(int(np.argmin(np.isfinite(us).all(axis=1))) - 1, 0)
            raise SolverError(f"banded solve failed: {self.factors[k].routine} info 0 "
                              "or non-finite values")
        return us


def _phi1(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    small = np.abs(z) < 1e-8
    out[small] = 1.0 + z[small] / 2.0
    zs = z[~small]
    out[~small] = np.expm1(zs) / zs
    return out


def _euler_tables(dts: np.ndarray, lam: np.ndarray):
    """Implicit Euler on mode lambda: a = 1/(1 + dt*lambda), g = a*dt."""
    den = 1.0 + dts[:, None] * lam
    if not den.all():
        raise SolverError("modal march failed: a step is singular, 1 + dt*lambda = 0")
    a = 1.0 / den
    return a, a * dts[:, None]


def _spectral_tables(dts: np.ndarray, lam: np.ndarray):
    """The exact exponential a = exp(-dt*lambda) and the phi1 Duhamel weight
    g = dt*phi1(-dt*lambda); exact for rhs = 0 and for constant rhs."""
    z = -lam * dts[:, None]
    return np.exp(z), dts[:, None] * _phi1(z)


# steps of the modal march between two flushes of its subnormal coefficients
MODAL_CHUNK = 256
_TINY = np.finfo(float).tiny


class _ModalStepper:
    """The march in the eigenbasis of a scalar A0 symmetric in its pairing:
    ``tables(dts, eigenvalues)`` gives the (K, n) tables a, g of the modal
    recurrence c_{k+1} = a_k c_k + g_k rhat_{k+1}, rhat the rhs's modal
    coefficients, which one product forms for all steps; one more product
    maps the coefficients back.  The eigenbasis comes from
    ``eigendecompose``: one decomposition per distinct operator, which
    windows with the same A0 share.

    The recurrence runs in chunks of ``MODAL_CHUNK`` steps.  A stretch of
    steps whose rhs row g_k rhat_{k+1} is exactly zero (every step, without
    a rhs or with an all-zero one, which skips the projection) advances as
    one accumulated product, c_{k+1} = c_k a_k, which is the step's value up
    to the sign of a zero; the other steps add their row one at a time.
    After each chunk every coefficient below ``np.finfo(float).tiny`` in
    magnitude is set to 0.0 (flush to zero): a decaying mode would
    otherwise sink through the subnormal range, where x86 arithmetic is
    10-70 times slower, over thousands of steps and then slow the product
    that maps the coefficients back.  Normal values, NaN and inf are
    untouched, so a march that holds no subnormal coefficient gives the
    per-step values bit for bit."""

    def __init__(self, A0: LinearOperator, times: np.ndarray, tables):
        self.A0 = A0
        self.times = times
        proxy = eigendecompose(A0)
        self.modes = proxy.modes
        self.wmodes = proxy.modes * A0.weights[:, None]
        self.a, self.g = tables(np.diff(times), proxy.eigenvalues)

    def run(self, u_init: np.ndarray, rhs: Optional[np.ndarray]) -> np.ndarray:
        a = self.a
        c = np.empty((len(a) + 1, len(u_init)))
        c[0] = u_init @ self.wmodes
        live = np.zeros(len(a), dtype=bool)  # the steps whose rhs row is not all zero
        if rhs is not None and rhs[1:].any():
            np.multiply(np.matmul(rhs[1:], self.wmodes, out=c[1:]), self.g, out=c[1:])
            live = c[1:].any(axis=1)
        _flush_subnormal(c[:1])
        for start in range(0, len(a), MODAL_CHUNK):
            stop = min(start + MODAL_CHUNK, len(a))
            k = start
            for j in (start + np.flatnonzero(live[start:stop])).tolist():
                if j > k:
                    _accumulate(c, a, k, j)
                c[j + 1] += a[j] * c[j]
                k = j + 1
            if stop > k:
                _accumulate(c, a, k, stop)
            _flush_subnormal(c[start + 1:stop + 1])
        us = np.empty((len(c), len(u_init)))
        us[0] = u_init
        np.matmul(c[1:], self.modes.T, out=us[1:])
        if not all_finite(us):
            raise SolverError("modal march failed: non-finite values")
        return us


def _accumulate(c: np.ndarray, a: np.ndarray, start: int, stop: int):
    """c[k+1] = c[k]*a[k] for the rhs-free steps start <= k < stop, in place."""
    c[start + 1:stop + 1] = a[start:stop]
    np.multiply.accumulate(c[start:stop + 1], axis=0, out=c[start:stop + 1])


def _flush_subnormal(block: np.ndarray):
    """Set the subnormal entries of ``block`` (and zeros of either sign) to
    0.0 in place; NaN and inf compare false and stay."""
    np.copyto(block, 0.0, where=np.abs(block) < _TINY)


def _marches_in_eigenbasis(A0: LinearOperator, steps: int) -> bool:
    """Whether implicit Euler on A0 marches in its eigenbasis, which costs
    less than banded steps here: for n = 65 to 257 unknowns and K steps,
    set-up and marches of a window break even near n^2 = 40-130 K over two
    marches and n^2 = 80-160 K over ten, with a dense rhs or a zero one
    (1D heat and plate operators, 2-core Intel Xeon VM, one BLAS thread);
    at n <= 33 fixed costs decide, and the break-even lies at K = 20-60
    steps, a tenth of a millisecond either way.  Beyond about 256 unknowns
    a modal step, two products with the modes, costs more than a banded
    solve."""
    n = A0.n_active
    return A0.ncomp == 1 and n <= 256 and n * n <= 100 * steps and A0.pairs_symmetrically


def _build_machinery(prob: AbstractProblem, u_freeze: GridFunction,
                     times: np.ndarray, cfg: FixedPointConfig):
    """The stepper of one window attempt; it holds A0 and the sample times."""
    if not prob.state_constraint(u_freeze.values):
        raise StateConstraintError("freeze state outside the admissible region")
    A0 = prob.assemble_A(u_freeze)
    if cfg.propagator == "spectral":
        return _ModalStepper(A0, times, _spectral_tables)
    if _marches_in_eigenbasis(A0, len(times) - 1):
        return _ModalStepper(A0, times, _euler_tables)
    return _EulerStepper(A0, times)


def _assemble_trajectory(stepper, vecs: np.ndarray, rhs: Optional[np.ndarray],
                         cfg: FixedPointConfig) -> WeightedTrajectory:
    """Scatter the (K+1, n_active) stepper output onto the grid; the time
    derivative is -A0 u + rhs at t = 0 and the backward difference after."""
    A0 = stepper.A0
    r0 = rhs[0] if rhs is not None else 0.0
    dvecs = np.empty_like(vecs)
    dvecs[0] = r0 - A0.dot(vecs[0])
    np.subtract(vecs[1:], vecs[:-1], out=dvecs[1:])
    dvecs[1:] /= np.diff(stepper.times)[:, None]
    return WeightedTrajectory(stepper.times, A0.scatter(vecs), A0.scatter(dvecs),
                              cfg.mu, cfg.p)


def reference_solution(u0: GridFunction, cfg: FixedPointConfig, stepper) -> WeightedTrajectory:
    """Trajectory of the frozen homogeneous problem dw/dt + A(u0) w = 0, w(0) = u0,
    on the sample times of ``stepper``, the window's, which holds A(u0)."""
    vecs = stepper.run(stepper.A0.gather(u0.values), None)
    return _assemble_trajectory(stepper, vecs, None, cfg)


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
    if not all_finite(g):
        raise StateConstraintError("non-finite right-hand side")
    # G(v) is added into the fresh product (same bits), so G's output is never written
    rhs = A0.dot(A0.gather(values))
    rhs += A0.gather(g)
    return rhs


def picard_map(v: WeightedTrajectory, u1: GridFunction, prob: AbstractProblem,
               cfg: FixedPointConfig, stepper) -> WeightedTrajectory:
    """One application of T (see module docs), started from u1; ``stepper``,
    the window's, holds A(u1) and the sample times of ``v``."""
    rhs = _picard_rhs(v, prob, stepper.A0)
    vecs = stepper.run(stepper.A0.gather(u1.values), rhs)
    return _assemble_trajectory(stepper, vecs, rhs, cfg)


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


# every non-finite value of a window attempt becomes its halving reason, so
# numpy's overflow and invalid-value warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def fixed_point_solve(u1: GridFunction, prob: AbstractProblem,
                      cfg: FixedPointConfig, t0: float = 0.0) -> SolverWindowState:
    """Iterate T to tolerance on one window, halving the window on stall.
    ``t0`` is the window's start in the run's time: an attempt whose sample
    times are not distinct there fails, and so does every halving of it."""
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
            if (reason := cfg.ungradeable(T, t0)) is not None:
                raise SolverError(reason)
            stepper = _build_machinery(prob, u1, times, cfg)
            v = reference_solution(u1, cfg, stepper)
        except (SolverError, StateConstraintError, NonFiniteError) as exc:
            reason = f"reference solve failed: {exc}"
        else:
            for iterations in range(1, cfg.max_iter + 1):
                try:
                    u = picard_map(v, u1, prob, cfg, stepper)
                    d = difference(u, v)
                except (SolverError, StateConstraintError, NonFiniteError) as exc:
                    reason = f"iteration failed: {exc}"
                    break
                # drop the old iterate before the norm, and the difference after
                # it, so that neither lives through the next Picard map
                v = u
                # an exact fixed point: E1mu_norm would measure zeros to 0.0
                exact = not (d.state_values.any() or d.deriv_values.any())
                r = 0.0 if exact else E1mu_norm(d, q=cfg.q, order=prob.order_int)
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
    """The new windows of a ``continue_solution`` and the run's trajectory
    from t = 0; None when it started from a state and ran no window."""

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


def continue_solution(start: GridFunction | WeightedTrajectory, prob: AbstractProblem,
                      cfg: FixedPointConfig, horizon: float,
                      on_window: Optional[Callable] = None) -> ContinuationState:
    """Glue solver windows onto ``start`` until the horizon, within
    ``TIME_SLACK`` of it, or until breakdown.

    ``start`` is the initial state at t = 0 or the trajectory of the run so
    far, continued from its last state and time; the returned trajectory
    begins with its samples, in run time.  Each new window freezes at (and
    restarts from) the previous endpoint, and a joint keeps one sample.  On
    breakdown (window collapse, constraint violation, norm threshold),
    ``blow_up`` is set and ``t_plus_estimate`` is the reached time, a
    certified lower bound for the existence time; otherwise it is +inf as
    far as this run can see.  ``on_window(index, t_start, window_state)``
    fires after each accepted window (index among the new windows, start in
    run time), e.g. for checkpointing; then ``windows[i].trajectory`` is
    released, its arrays held for the final glue only.
    """
    if isinstance(start, WeightedTrajectory):
        pieces: list = [(0.0, start)]
        t, u = start.horizon, GridFunction(start.grid, start.state_values[-1])
    elif horizon <= 0.0:
        raise ValueError(f"horizon {horizon} must be positive")
    else:
        pieces, t, u = [], 0.0, start
    windows: list = []
    blow_up = False
    reason = None
    end_tol = TIME_SLACK * horizon
    while t < horizon - end_tol:
        # a remainder within end_tol of a window takes the whole window, so that a
        # run resumed at a window boundary solves the windows of an uninterrupted one
        wcfg = dataclasses.replace(
            cfg, window=cfg.window if horizon - t > cfg.window - end_tol else horizon - t)
        try:
            st = fixed_point_solve(u, prob, wcfg, t)
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
        if joint_gap > JOINT_TOL * max(1.0, float(np.max(np.abs(u.values)))):
            raise SolverError(f"window joint mismatch {joint_gap:.3e}")
        pieces.append((t, traj))
        t_start = t
        t = float(t + traj.times[-1])
        u = GridFunction(traj.grid, traj.state_values[-1])
        if on_window is not None:
            on_window(len(windows) - 1, t_start, st)
        st.trajectory = None
        if np.max(np.abs(u.values)) >= cfg.blowup_threshold:
            blow_up = True
            reason = f"sup norm reached blow-up threshold {cfg.blowup_threshold:g}"
            break
    trajectory = glue(pieces, cfg.mu, cfg.p) if pieces else None
    return ContinuationState(
        windows=windows,
        t_plus_estimate=t if blow_up else math.inf,
        blow_up=blow_up,
        reason=reason,
        trajectory=trajectory,
    )


@dataclass(frozen=True)
class LipschitzReport:
    L_A: float
    L_F1: float
    c_dependence: float
    n_pairs: int
    skipped: int


def _smooth_modes(grid: Grid, bc: BoundaryCondition, ncomp: int, k: int) -> np.ndarray:
    xs = grid.coords()
    if bc == BoundaryCondition.NEUMANN:
        prof = np.cos(k * np.pi * xs[0])
        for x in xs[1:]:
            prof = prof * np.cos(k * np.pi * x)
    else:
        prof = np.sin(k * np.pi * xs[0]) ** 2
        for x in xs[1:]:
            prof = prof * np.sin(k * np.pi * x) ** 2
    return np.repeat(prof[..., None], ncomp, axis=-1)


def lipschitz_probe(prob: AbstractProblem, u_center: GridFunction,
                    cfg: FixedPointConfig, n_samples: int = 6,
                    radius: float = 0.05, seed: int = 0,
                    with_solutions: bool = True) -> LipschitzReport:
    """Empirical Lipschitz moduli of A and F1, and of the data-to-solution map.

    Ratios are measured between randomly perturbed states near ``u_center``:
    operator differences in L2 against proxy trace-norm distances of the
    states (theta = mu - 1/p), normalized by the top norm of fixed probe
    fields.  Identical pairs are skipped (0/0 guards).  Each hook is
    evaluated once per perturbed state.
    """
    grid = u_center.grid
    rng = np.random.default_rng(seed)
    proxy = eigendecompose(reference_operator(grid, prob.order))
    theta_low = cfg.mu - 1.0 / cfg.p
    modes = [_smooth_modes(grid, prob.bc, u_center.ncomp, k) for k in (1, 2, 3)]
    samples = []
    skipped = 0
    for _ in range(n_samples):
        pert = np.zeros_like(u_center.values)
        for m in modes:
            pert = pert + float(rng.uniform(-1.0, 1.0)) * m
        scale = float(np.max(np.abs(pert)))
        if scale > 0:
            pert = (radius / scale) * pert
        w = u_center.values + pert
        if prob.state_constraint(w):
            samples.append(GridFunction(grid, w))
        else:
            skipped += 1
    probes = np.stack(modes[:2])
    tops = [x1_norm(GridFunction(grid, v), 2.0, prob.order_int) for v in probes]
    lq = functools.partial(lq_norms, grid=grid, q=2.0)
    # each hook once per perturbed state, A(w) on both probes in one product
    dists = _pair_distances([w.values for w in samples],
                            lambda diffs: proxy_norms(diffs, theta_low, proxy))
    products = [op.scatter(op.dot(op.gather(probes))) for op in map(prob.assemble_A, samples)]
    applied = [_pair_distances([Av[i] for Av in products], lq) for i in range(len(probes))]
    f1 = _pair_distances([prob.F1(w).values for w in samples], lq)
    # the pairs i < j of distinct samples
    apart = np.triu(dists > 0.0, 1)
    n_pairs = int(np.sum(apart))
    skipped += len(samples) * (len(samples) - 1) // 2 - n_pairs
    d = dists[apart]
    L_A = float(max(np.max(Av[apart] / (d * top), initial=0.0)
                    for Av, top in zip(applied, tops)))
    L_F1 = float(np.max(f1[apart] / d, initial=0.0))
    c_dep = 0.0
    if with_solutions and len(samples) >= 2:
        base = fixed_point_solve(u_center, prob, cfg)
        for w in samples[:2]:
            d = float(proxy_norms(w.values - u_center.values, theta_low, proxy))
            if d <= 0.0:
                continue
            other = fixed_point_solve(w, prob, cfg)
            if other.window != base.window:
                continue
            dist = E1mu_norm(difference(other.trajectory, base.trajectory),
                             q=cfg.q, order=prob.order_int)
            c_dep = max(c_dep, dist / d)
    return LipschitzReport(L_A=L_A, L_F1=L_F1, c_dependence=c_dep,
                           n_pairs=n_pairs, skipped=skipped)


def _pair_distances(fields, norms) -> np.ndarray:
    """The symmetric matrix of ``norms(fields[i] - fields[j])``, one ``norms``
    call per row on the stacked differences of fields (those of coefficients
    move the bits; |a|^2 + |b|^2 - 2 a.b cancels on nearly equal fields)."""
    stack = np.asarray(fields)
    m = len(stack)
    dist = np.zeros((m, m))
    for i in range(m - 1):
        dist[i, i + 1:] = dist[i + 1:, i] = norms(stack[i] - stack[i + 1:])
    return dist


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
                threshold: float, theta: Optional[float]) -> OmegaLimitReport:
    """Cluster late-time states in the trace-proxy metric.

    ``theta`` None is 1 - 1/p (the natural unweighted trace scale).
    Clusters come from single-linkage with the given threshold; the run is
    ``converged`` when a single cluster remains and the pairwise spread over
    the later half of the samples does not exceed that of the earlier half.
    """
    sample_times = list(sample_times)
    if len(sample_times) < 2:
        raise ValueError("need at least two sample times")
    if theta is None:
        theta = 1.0 - 1.0 / traj.p
    states = traj.states_at(sample_times)
    m = len(states)
    dist = _pair_distances(states, lambda diffs: proxy_norms(diffs, theta, proxy))
    # single linkage: each sample takes the least label of its links' labels
    # until none changes, which labels every cluster by its first sample
    links = dist <= threshold
    labels = np.arange(m)
    while not np.array_equal(least := np.min(np.where(links, labels[labels], m), axis=1), labels):
        labels = least
    # the distinct labels ascending (np.unique would import numpy.ma)
    clusters = [np.flatnonzero(labels == first) for first in np.flatnonzero(np.bincount(labels))]
    half = m // 2
    spread_early = float(np.max(dist[:half or 1, :half or 1])) if half >= 1 else 0.0
    spread_late = float(np.max(dist[half:, half:]))
    final_cluster = np.flatnonzero(labels == labels[m - 1])
    diameter = float(np.max(dist[np.ix_(final_cluster, final_cluster)])) if len(final_cluster) > 1 else 0.0
    converged = len(clusters) == 1 and (spread_late <= spread_early + 1e-15
                                        or diameter <= threshold)
    points = [GridFunction(traj.grid, np.sum(states[c], axis=0) * (1.0 / len(c)))
              for c in clusters]
    return OmegaLimitReport(
        cluster_points=points, diameter=diameter, converged=converged,
        n_clusters=len(clusters),
        distances_to_final=[float(dist[i, m - 1]) for i in range(m)],
    )
