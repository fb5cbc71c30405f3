"""Window solver oracles.

Implicit Euler on the mirrored Laplacian is exactly diagonal on the discrete
eigenvector cos(k pi x): every step multiplies the mode by 1/(1 + lambda dt)
with lambda = (2/h^2)(1 - cos(k pi h)).  That product formula is the stepper
oracle; the spectral propagator must reproduce exp(-lambda t) instead.

The blow-up surrogate is du/dt = u^2 from the constant state c (the Laplacian
vanishes on constants): the solution c/(1 - c t) hits the threshold M at
t = (1/c)(1 - c/M).  With c = 2, M = 100 the crossing is at 0.49, and the
Picard iteration on a window of length T converges iff T is below the
existence time 1/c = 0.5, which forces the window halvings 1.0 -> 0.5 -> 0.25.

The banded implicit Euler stepper, and on operators symmetric in their
pairing the modal one, are checked against scipy's sparse direct solve of
I + dt*A, step by step, for frozen operators A(u) assembled at drawn states.
Steps stay at dt <= 1e-2 on small grids, where I + dt*A is well enough
conditioned for the solvers to agree to 1e-12; a drawn shift A + kappa*I,
kappa < 0 (the operator of ``kappa_shift``), makes the long steps negative
definite with the same conditioning and keeps the short ones positive
definite.
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from conftest import plus_identity
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parabolab import evolution
from parabolab.config import (build_initial, build_problem, load_run_config,
                              validate_run_config)
from parabolab.evolution import (AbstractProblem, ContinuationState,
                                 FixedPointConfig, LipschitzReport, NonconvergenceError,
                                 StateConstraintError, continue_solution,
                                 fixed_point_solve, graded_times, lipschitz_probe, omega_limit, picard_map,
                                 reference_solution)
from parabolab.grids import BoundaryCondition, Grid, GridFunction, NonFiniteError
from parabolab.norms import (E0mu_norm, E1mu_norm, WeightedTrajectory, difference, lq_norms,
                             x1_norm)
from parabolab.operators import (BandedCholesky, BandedLU, Diagonals, SolverError, eigendecompose,
                                 operator_from_full_matrix, reference_operator, scaled_bands)
from parabolab.problems import (FlowSpec, PolynomialMap, ReactionDiffusionSpec,
                                flow_problem, linear_heat_spec, rd_problem)

MU, P = 0.9, 2.0


def heat_problem(nodes=32):
    grid = Grid(1, nodes)
    return grid, rd_problem(linear_heat_spec(grid))


def square_problem(nodes=17, box=1e6):
    # du/dt = Lap u + u^2; on constants this is the scalar ODE du/dt = u^2
    grid = Grid(1, nodes)
    spec = ReactionDiffusionSpec(
        grid=grid, ncomp=1,
        a=PolynomialMap.constant(np.array([[1.0]])),
        f=PolynomialMap.from_table([[0.0, 0.0, 1.0]], shape=(1,), nvars=1),
        b=PolynomialMap.constant(np.zeros((1, 1, 1))),
        u_box=np.array([[-box, box]]), name="square")
    return grid, rd_problem(spec)


def constant_state(grid, c):
    return GridFunction.from_scalar(grid, np.full(grid.shape, float(c)))


def eigenmode(grid, k, amp=1.0):
    lam = 2.0 / grid.h ** 2 * (1.0 - np.cos(k * np.pi * grid.h))
    u = GridFunction.from_scalar(grid, amp * np.cos(k * np.pi * grid.axis_coords()))
    return u, lam


def window_stepper(prob, u0, cfg):
    """The stepper of one window of ``cfg`` frozen at ``u0``, as the first
    attempt of ``fixed_point_solve`` builds it."""
    times = graded_times(cfg.window, cfg.time_steps, cfg.gamma())
    return evolution._build_machinery(prob, u0, times, cfg)


# ---------------------------------------------------------------- scaffolding

def test_graded_times_values():
    assert np.allclose(graded_times(1.0, 4, 1.0), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(graded_times(1.0, 4, 2.0), [0.0, 1 / 16, 1 / 4, 9 / 16, 1.0])
    assert graded_times(2.0, 10, 2.5)[-1] == 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        FixedPointConfig(window=0.0, time_steps=10, mu=MU, p=P)
    with pytest.raises(ValueError):
        FixedPointConfig(window=0.1, time_steps=1, mu=MU, p=P)
    with pytest.raises(ValueError):
        FixedPointConfig(window=0.1, time_steps=10, mu=0.4, p=2.0)  # mu <= 1/p
    with pytest.raises(ValueError):
        FixedPointConfig(window=0.1, time_steps=10, mu=MU, p=P, propagator="rk4")
    with pytest.raises(ValueError):
        FixedPointConfig(window=0.1, time_steps=10, mu=MU, p=P, max_halvings=-1)
    cfg = FixedPointConfig(window=0.1, time_steps=10, mu=MU, p=P)
    assert cfg.gamma() == pytest.approx(1.0 / (MU - 1.0 / P))
    assert FixedPointConfig(window=0.1, time_steps=10, mu=1.0, p=P).gamma() == 2.0
    assert FixedPointConfig(window=0.1, time_steps=10, mu=MU, p=P,
                            grading=1.0).gamma() == 1.0


# ---------------------------------------------------------------- steppers

def test_euler_eigenmode_product_formula():
    grid, prob = heat_problem(32)
    u0, lam = eigenmode(grid, 3)
    cfg = FixedPointConfig(window=0.01, time_steps=16, mu=MU, p=P)
    traj = reference_solution(u0, cfg, window_stepper(prob, u0, cfg))
    dts = np.diff(traj.times)
    factor = 1.0
    for m, dt in enumerate(dts, start=1):
        factor /= 1.0 + lam * dt
        assert np.allclose(traj.states[m].values, factor * u0.values,
                           rtol=1e-12, atol=1e-13)
    # initial slope is -A u0 = -lambda u0
    assert np.allclose(traj.deriv_values[0], -lam * u0.values, rtol=1e-9)


def _coupled_diffusion(grid):
    # a(u) = [[1 + u0^2, u1/5], [u0/5, 1 + u1^2]]
    terms = (((0, 0), (0, 0), 1.0), ((0, 0), (2, 0), 1.0), ((0, 1), (0, 1), 0.2),
             ((1, 0), (1, 0), 0.2), ((1, 1), (0, 0), 1.0), ((1, 1), (0, 2), 1.0))
    return rd_problem(ReactionDiffusionSpec(
        grid=grid, ncomp=2, a=PolynomialMap(shape=(2, 2), nvars=2, terms=terms),
        f=PolynomialMap.constant(np.zeros(2)), b=PolynomialMap.constant(np.zeros((2, 2, 2))),
        u_box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), name="coupled"))


def _scalar_diffusion(grid):
    return rd_problem(ReactionDiffusionSpec(
        grid=grid, ncomp=1,
        a=PolynomialMap.from_table([[[1.0, 0.0, 1.0]]], shape=(1, 1), nvars=1),
        f=PolynomialMap.constant(np.zeros(1)), b=PolynomialMap.constant(np.zeros((1, 1, 1))),
        u_box=np.array([[-2.0, 2.0]]), name="scalar"))


def _plate(grid):
    # the clamped bilaplacian of the refinement ladder, whatever the state
    return lambda _state: reference_operator(grid, "fourth")


def _flow(kind):
    return lambda grid: flow_problem(FlowSpec(grid, kind)).assemble_A


# frozen operators A(state), and the factor their implicit Euler steps take
ORACLE_CASES = {
    "heat-1d": (Grid(1, 17), 1, lambda g: rd_problem(linear_heat_spec(g)).assemble_A,
                BandedCholesky),
    "neumann-1d": (Grid(1, 17), 1, lambda g: _scalar_diffusion(g).assemble_A, BandedCholesky),
    "neumann-2d": (Grid(2, 12), 1, lambda g: _scalar_diffusion(g).assemble_A, BandedCholesky),
    "plate-1d": (Grid(1, 17), 1, _plate, BandedCholesky),
    "plate-2d": (Grid(2, 12), 1, _plate, BandedCholesky),
    "clamped-1d": (Grid(1, 17), 1, _flow("willmore"), BandedLU),
    "neumann-2d-ncomp2": (Grid(2, 12), 2, lambda g: _coupled_diffusion(g).assemble_A, BandedLU),
    "clamped-2d": (Grid(2, 12), 1, _flow("surface_diffusion"), BandedLU),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_euler_stepper_matches_sparse_solve(case, data):
    grid, ncomp, build, factor = ORACLE_CASES[case]
    # the state sets the coefficient fields of the frozen operator A(state)
    state = data.draw(arrays(np.float64, grid.shape + (ncomp,),
                             elements=st.floats(-1.0, 1.0)), label="state")
    A = build(grid)(GridFunction(grid, state))
    if data.draw(st.booleans(), label="shift"):
        # long steps of length `long`, short ones of at most `short`: with
        # rho >= |lambda| for every eigenvalue of A, the shift kappa puts the
        # spectrum of I + dt*(A + kappa) under -1 on a long step and within
        # 1/2 of 1 on a short one
        rho = float(np.max(np.sum(np.abs(A.toarray()), axis=1)))
        long = data.draw(st.floats(1e-4, 1e-2), label="long")
        kappa = -(2.0 + long * rho) / long
        short = long / (4.0 * (1.0 + long * rho))
        dts = [long if is_long else short * f for is_long, f in data.draw(st.lists(
            st.tuples(st.booleans(), st.floats(1e-6, 1.0)), min_size=1, max_size=3),
            label="steps")]
        A = plus_identity(A, kappa)
    else:
        dts = data.draw(st.lists(st.floats(1e-8, 1e-2), min_size=1, max_size=3), label="dts")
    times = np.concatenate([[0.0], np.cumsum(dts)])
    n = A.n_active
    u0 = data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)), label="u0")
    rhs = None
    if data.draw(st.booleans(), label="with_rhs"):
        rhs = data.draw(arrays(np.float64, (len(times), n), elements=st.floats(-1.0, 1.0)),
                        label="rhs")
    eye = scipy.sparse.identity(n, format="csc")
    want = [u0]
    for k, dt in enumerate(dts):
        b = want[-1] if rhs is None else want[-1] + dt * rhs[k + 1]
        want.append(scipy.sparse.linalg.spsolve(eye + dt * scipy.sparse.csc_matrix(A.toarray()), b))
    steppers = [evolution._EulerStepper(A, times)]
    # the operators that take Cholesky steps march in their eigenbasis too
    if factor is BandedCholesky and ncomp == 1:
        assert A.pairs_symmetrically
        steppers.append(evolution._ModalStepper(A, times, evolution._euler_tables))
    for stepper in steppers:
        got = stepper.run(u0, rhs)
        for x, y in zip(got, want):
            assert np.max(np.abs(x - y)) <= 1e-12 * max(np.max(np.abs(y)), 1e-300)


def test_euler_stepper_singular_step_raises():
    # A = -I makes I + dt*A vanish at dt = 1
    grid = Grid(1, 9)
    A = operator_from_full_matrix(grid, 1, BoundaryCondition.NEUMANN,
                                  Diagonals.identity(grid.n_nodes).scaled(-1.0))
    with pytest.raises(SolverError):
        evolution._EulerStepper(A, np.array([0.0, 0.5, 1.5]))


def test_modal_singular_step_raises():
    # the same A = -I marches in its eigenbasis, where 1 + dt*lambda = 0
    grid = Grid(1, 9)
    A = operator_from_full_matrix(grid, 1, BoundaryCondition.NEUMANN,
                                  Diagonals.identity(grid.n_nodes).scaled(-1.0))
    assert evolution._marches_in_eigenbasis(A, 2)
    with pytest.raises(SolverError, match="^modal march failed: a step is singular"):
        evolution._ModalStepper(A, np.array([0.0, 0.5, 1.5]), evolution._euler_tables)


def _frozen(grid, prob, time_steps, propagator="euler", ncomp=1):
    """The stepper of a window of ``prob`` frozen at a bump state of
    ``ncomp`` components."""
    bump = 1.0 + 0.3 * np.sin(np.pi * grid.axis_coords()) ** 2
    state = np.broadcast_to(bump[:, None], grid.shape + (ncomp,))
    cfg = FixedPointConfig(window=0.01, time_steps=time_steps, mu=MU, p=P,
                           propagator=propagator)
    return window_stepper(prob, GridFunction(grid, state), cfg)


@pytest.mark.parametrize("make,time_steps,propagator,march", [
    # the criterion-04 ladder: n^2 <= 100 K at n = 33, 65, 129 and K = (n - 1)^2/4
    (lambda: heat_problem(33), 256, "euler", "_ModalStepper"),
    (lambda: heat_problem(129), 4096, "euler", "_ModalStepper"),
    (lambda: (Grid(1, 129), AbstractProblem(_plate(Grid(1, 129)), None, None,
                                            BoundaryCondition.CLAMPED, order="fourth")),
     4096, "euler", "_ModalStepper"),
    # a window too short to pay for the eigenbasis takes banded steps
    (lambda: heat_problem(129), 50, "euler", "_EulerStepper"),
    (lambda: heat_problem(129), 50, "spectral", "_ModalStepper"),
    # more unknowns than the cap, however many steps
    (lambda: heat_problem(257), 4096, "euler", "_EulerStepper"),
    # not symmetric in the pairing, or not scalar
    (lambda: (Grid(1, 33), flow_problem(FlowSpec(Grid(1, 33), "willmore"))), 4096, "euler",
     "_EulerStepper"),
    (lambda: (Grid(1, 33), _coupled_diffusion(Grid(1, 33)), 2), 4096, "euler", "_EulerStepper"),
], ids=["heat-33", "heat-129", "plate-129", "heat-129-short", "heat-129-short-spectral",
        "heat-257", "willmore", "coupled"])
def test_window_march_follows_the_cost_rule(make, time_steps, propagator, march):
    grid, prob, *ncomp = make()
    assert type(_frozen(grid, prob, time_steps, propagator, *ncomp)).__name__ == march


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_euler_stepper_factorization_path(case):
    grid, ncomp, build, factor = ORACLE_CASES[case]
    # a state at which every coefficient field varies over the grid
    bump = np.ones(grid.shape)
    for x in grid.coords():
        bump = bump * np.sin(np.pi * x) ** 2
    state = 0.3 * bump[..., None] * np.array([1.0, -1.0][:ncomp])
    A = build(grid)(GridFunction(grid, state))
    times = graded_times(0.01, 4, 2.0)
    stepper = evolution._EulerStepper(A, times)
    assert [type(f) for f in stepper.factors] == [factor] * 4
    # each factor has the bits of a standalone factor of its step, and
    # overwrites its slice of one (K, n, rows) stack of the window's bands
    for f, dt in zip(stepper.factors, np.diff(times)):
        if factor is BandedCholesky:
            alone = _cholesky_of_step(A, dt)
            assert _same_bits(f.c, alone.c)
        else:
            alone = _lu_of_step(A, dt)
            assert _same_bits(f.lu, alone.lu) and np.array_equal(f.piv, alone.piv)
    factored = [f.c if factor is BandedCholesky else f.lu for f in stepper.factors]
    stack = factored[0].base
    assert stack is not None and stack.shape == (4, A.n_active, factored[0].shape[0])
    assert all(a.base is stack for a in factored)


def _cholesky_of_step(A, dt):
    """A standalone Cholesky factor of W(I + dt*A)."""
    return BandedCholesky(scaled_bands(A.to_symmetric_banded(), [dt], -1, A.weights)[0].T,
                          A.weights)


def _lu_of_step(A, dt):
    """A standalone LU factor of I + dt*A."""
    ab, (kl, ku) = A.to_banded()
    return BandedLU(scaled_bands(ab, [dt], kl + ku, 1.0)[0].T, (kl, ku))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_euler_stepper_indefinite_step_falls_back_to_lu():
    # A = -I is symmetric, and I + dt*A = -I at dt = 2 is indefinite
    grid = Grid(1, 9)
    A = operator_from_full_matrix(grid, 1, BoundaryCondition.NEUMANN,
                                  Diagonals.identity(grid.n_nodes).scaled(-1.0))
    stepper = evolution._EulerStepper(A, np.array([0.0, 0.5, 2.5]))
    assert [type(f) for f in stepper.factors] == [BandedCholesky, BandedLU]
    alone = _lu_of_step(A, 2.0)
    assert _same_bits(stepper.factors[1].lu, alone.lu)
    u0 = np.linspace(-1.0, 1.0, grid.n_nodes)
    us = stepper.run(u0, None)
    assert np.allclose(us[1], 2.0 * u0, rtol=1e-14, atol=0.0)
    assert np.allclose(us[2], -us[1], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("case,factor,routine", [("heat-1d", BandedCholesky, "dpbtrs"),
                                                 ("clamped-1d", BandedLU, "dgbtrs")])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_march_raises_the_failing_steps_error(case, factor, routine, bad):
    # the march checks its output once; a non-finite rhs row mid-window
    # raises the error of the checked solve of the step that met it
    grid, ncomp, build, _factor = ORACLE_CASES[case]
    bump = 0.3 * np.sin(np.pi * grid.axis_coords()) ** 2
    A = build(grid)(GridFunction.from_scalar(grid, bump))
    stepper = evolution._EulerStepper(A, graded_times(0.01, 6, 2.0))
    assert [type(f) for f in stepper.factors] == [factor] * 6
    u0 = np.linspace(-1.0, 1.0, A.n_active)
    rhs = np.ones((7, A.n_active))
    assert np.all(np.isfinite(stepper.run(u0, rhs)))
    rhs[3, A.n_active // 2] = bad
    with pytest.raises(SolverError,
                       match=f"^banded solve failed: {routine} info 0 or non-finite values$"):
        stepper.run(u0, rhs)
    with pytest.raises(SolverError, match=routine):
        stepper.run(np.full(A.n_active, bad), None)


@pytest.mark.parametrize("case", ["neumann-2d", "clamped-2d"])
def test_a_banded_march_allocates_only_its_states(case):
    # every step solves in place in its row of the (K+1, n) output, so the
    # march's peak is that array and a constant, with a rhs or without: at
    # most numpy's ufunc buffer (getbufsize() entries) and small objects;
    # K is large enough that a (K+1, n) array of bools exceeds that
    grid, ncomp, build, factor = ORACLE_CASES[case]
    bump = 0.3 * np.ones(grid.shape)
    for x in grid.coords():
        bump = bump * np.sin(np.pi * x) ** 2
    A = build(grid)(GridFunction.from_scalar(grid, bump))
    steps, n = 800, A.n_active
    stepper = evolution._EulerStepper(A, graded_times(0.01, steps, 2.0))
    assert [type(f) for f in stepper.factors] == [factor] * steps
    u0 = np.linspace(-1.0, 1.0, n)
    for rhs in (None, np.ones((steps + 1, n))):
        tracemalloc.start()
        try:
            us = stepper.run(u0, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(us))
        assert peak <= (steps + 1) * n * 8 + np.getbufsize() * 8 + 4096


@pytest.mark.parametrize("tables", ["_euler_tables", "_spectral_tables"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_modal_march_raises_the_marchs_error(tables, bad):
    grid, ncomp, build, _factor = ORACLE_CASES["heat-1d"]
    A = build(grid)(GridFunction.from_scalar(grid, 0.3 * np.sin(np.pi * grid.axis_coords())))
    stepper = evolution._ModalStepper(A, graded_times(0.01, 6, 2.0), getattr(evolution, tables))
    u0 = np.linspace(-1.0, 1.0, A.n_active)
    rhs = np.ones((7, A.n_active))
    assert np.all(np.isfinite(stepper.run(u0, rhs)))
    rhs[3, A.n_active // 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for args in ((u0, rhs), (np.full(A.n_active, bad), None)):
            with pytest.raises(SolverError, match="^modal march failed: non-finite values$"):
                stepper.run(*args)


TINY = np.finfo(float).tiny


def _modal_march_per_step(stepper, u_init, rhs):
    """The modal march one step at a time, with no flush: the coefficients
    and the states it maps them to."""
    c = np.empty((len(stepper.a) + 1, len(u_init)))
    c[0] = u_init @ stepper.wmodes
    if rhs is None:
        c[1:] = stepper.a
        c = np.multiply.accumulate(c, axis=0)
    else:
        np.multiply(np.matmul(rhs[1:], stepper.wmodes, out=c[1:]), stepper.g, out=c[1:])
        for k, ak in enumerate(stepper.a):
            c[k + 1] += ak * c[k]
    us = np.empty((len(c), len(u_init)))
    us[0] = u_init
    np.matmul(c[1:], stepper.modes.T, out=us[1:])
    return c, us


def _has_subnormal(x):
    return bool(np.any((x != 0.0) & (np.abs(x) < TINY)))


# entries of the drawn initial states and right-hand sides: zeros of both
# signs and values that project to subnormal coefficients; a drawn NaN or
# inf may then replace one of them
MARCH_ENTRIES = st.one_of(st.floats(-1.0, 1.0),
                          st.sampled_from([0.0, -0.0, 1e-300, -3e-305, 5e-310, 1e-320]))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_modal_march_matches_the_per_step_recurrence(data):
    # bit for bit up to the sign of a zero where the per-step march holds no
    # subnormal coefficient; otherwise the flushed coefficients, each below
    # TINY, move a state by at most n * TINY * max|mode|
    grid, _ncomp, build, _factor = ORACLE_CASES[data.draw(
        st.sampled_from(["heat-1d", "plate-1d"]), label="case")]
    A = build(grid)(GridFunction.from_scalar(grid, np.zeros(grid.shape)))
    chunk = evolution.MODAL_CHUNK
    K = data.draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5]), label="K")
    times = graded_times(data.draw(st.sampled_from([1e-3, 0.1, 10.0]), label="T"), K,
                         data.draw(st.sampled_from([1.0, 2.5]), label="gamma"))
    stepper = evolution._ModalStepper(A, times, getattr(evolution, data.draw(
        st.sampled_from(["_euler_tables", "_spectral_tables"]), label="tables")))
    n = A.n_active
    scale = data.draw(st.sampled_from([1.0, 1e-290, 1e-300]), label="scale")
    u_init = scale * data.draw(arrays(np.float64, n, elements=MARCH_ENTRIES), label="u_init")
    kind = data.draw(st.sampled_from(["none", "zero", "rows", "dense"]), label="rhs")
    rhs = None
    if kind == "zero":
        rhs = data.draw(arrays(np.float64, (K + 1, n), elements=st.sampled_from([0.0, -0.0])),
                        label="zeros")
    elif kind != "none":
        rhs = data.draw(arrays(np.float64, (K + 1, n), elements=MARCH_ENTRIES), label="entries")
        if kind == "rows":
            # a few live rows among zero ones
            keep = data.draw(st.sets(st.integers(0, K), max_size=3), label="live")
            rhs[[k for k in range(K + 1) if k not in keep]] = 0.0
    bad = data.draw(st.sampled_from([None, None, np.nan, np.inf, -np.inf]), label="bad")
    if bad is not None:
        target = u_init if rhs is None or data.draw(st.booleans(), label="in_u") else rhs
        target.flat[data.draw(st.integers(0, target.size - 1), label="at")] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        c, want = _modal_march_per_step(stepper, u_init, rhs)
        if not np.isfinite(want).all():
            with pytest.raises(SolverError, match="^modal march failed: non-finite values$"):
                stepper.run(u_init, rhs)
            return
        got = stepper.run(u_init, rhs)
    if _has_subnormal(c):
        bound = n * TINY * max(1.0, float(np.max(np.abs(stepper.modes))))
        assert np.max(np.abs(got - want)) <= bound
    else:
        assert np.array_equal(got, want)


class _Spy(np.ndarray):
    """Modes that record the coefficients a product maps back through them."""

    seen: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _Spy.seen.append(np.array(inputs[0]))
        inputs = tuple(np.asarray(x) for x in inputs)
        kwargs = {k: tuple(np.asarray(x) for x in v) if k == "out" else v
                  for k, v in kwargs.items()}
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("with_rhs", [False, True])
def test_the_plate_march_maps_back_no_subnormal_coefficient(with_rhs):
    # the 129-node ladder rung: 4096 graded steps of the clamped plate, whose
    # high modes decay through the subnormal range long before the last step
    grid = Grid(1, 129)
    A = reference_operator(grid, "fourth")
    stepper = evolution._ModalStepper(A, graded_times(0.01, 4096, 2.5), evolution._euler_tables)
    stepper.modes = stepper.modes.view(_Spy)
    u_init = A.gather(np.sin(np.pi * grid.axis_coords())[:, None] ** 2)
    rhs = np.zeros((4097, A.n_active)) if with_rhs else None
    _Spy.seen = []
    us = stepper.run(u_init, rhs)
    (coefficients,) = _Spy.seen
    assert coefficients.shape == (4096, A.n_active)
    assert not _has_subnormal(coefficients)
    # the high modes are flushed, not only small
    assert np.count_nonzero(coefficients[-1] == 0.0) > A.n_active // 2
    # the first mode, exp(-lambda_1 T) ~ 0.007 of its start, is still there
    assert np.isfinite(us).all() and np.max(np.abs(us[-1])) > 1e-3


def _overflowing_window(nodes):
    """The reason a window of the heat problem on ``nodes`` nodes collapses
    when its march overflows.

    A constant G = 1e308 adds dt*1e308 to the state in each step, so the
    first Picard march of a window of length 8, 4 or 2 overflows;
    fixed_point_solve reports the overflow as a halving reason, with no
    numpy warning beside it."""
    grid, prob = heat_problem(nodes)
    prob = dataclasses.replace(prob, G=lambda values: np.full_like(values, 1e308))
    cfg = FixedPointConfig(window=8.0, time_steps=4, mu=MU, p=P, max_halvings=2)
    with warnings.catch_warnings(), pytest.raises(NonconvergenceError) as exc:
        warnings.simplefilter("error", RuntimeWarning)
        fixed_point_solve(GridFunction.zeros(grid), prob, cfg)
    assert exc.value.halvings == 2 and exc.value.residuals == ()
    return str(exc.value)


def test_window_meeting_a_non_finite_march_halves():
    # 33 unknowns and 4 steps take banded steps
    assert _overflowing_window(33) == ("window collapsed after 2 halvings: iteration failed: "
                                       "banded solve failed: dpbtrs info 0 or non-finite values")


def test_window_meeting_a_non_finite_modal_march_halves():
    # 9 unknowns and 4 steps march in the eigenbasis
    assert _overflowing_window(9) == ("window collapsed after 2 halvings: iteration failed: "
                                      "modal march failed: non-finite values")


def test_spectral_stepper_accepts_variable_diffusion():
    # -a(u) Lap is symmetric in the pairing w/a, so its eigenbasis exists
    grid = Grid(1, 17)
    prob = _scalar_diffusion(grid)
    u0 = GridFunction.from_scalar(grid, 1.0 + 0.3 * np.cos(np.pi * grid.axis_coords()))
    A = prob.assemble_A(u0)
    assert np.array_equal(A.weights, grid.trapezoid_weights() / (1.0 + u0.scalar ** 2))
    cfg = FixedPointConfig(window=0.005, time_steps=20, mu=MU, p=P, propagator="spectral")
    st = fixed_point_solve(u0, prob, cfg)
    assert st.converged and st.halvings == 0


def test_spectral_stepper_exact_exponential():
    grid, prob = heat_problem(32)
    u0, lam = eigenmode(grid, 2, amp=0.5)
    cfg = FixedPointConfig(window=0.05, time_steps=10, mu=MU, p=P,
                           propagator="spectral")
    traj = reference_solution(u0, cfg, window_stepper(prob, u0, cfg))
    for m, t in enumerate(traj.times):
        assert np.allclose(traj.states[m].values, np.exp(-lam * t) * u0.values,
                           rtol=1e-11, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(nodes=st.integers(9, 33), diffusivity=st.floats(0.5, 2.0),
       window=st.sampled_from([0.005, 0.01, 0.02]), grading=st.sampled_from([1.0, 2.5]),
       amps=st.lists(st.floats(0.1, 1.0) | st.floats(-1.0, -0.1), min_size=1, max_size=3))
def test_euler_and_spectral_propagators_agree_to_first_order(nodes, diffusivity, window,
                                                             grading, amps):
    """On a symmetric heat problem the implicit Euler and the exact spectral
    propagator differ by O(dt): at most lambda * dt_max * max|amplitude| for
    the largest eigenvalue lambda of the data, and half as much when the
    steps double."""
    grid = Grid(1, nodes)
    prob = rd_problem(ReactionDiffusionSpec(
        grid=grid, ncomp=1, a=PolynomialMap.constant(np.array([[diffusivity]])),
        f=PolynomialMap.constant(np.zeros(1)), b=PolynomialMap.constant(np.zeros((1, 1, 1))),
        u_box=np.array([[-1e6, 1e6]])))
    x = grid.axis_coords()
    u0 = GridFunction.from_scalar(grid, sum(a * np.cos((k + 1) * np.pi * x)
                                            for k, a in enumerate(amps)))
    diffs = []
    for steps in (32, 64, 128):
        cfgs = [FixedPointConfig(window=window, time_steps=steps, mu=MU, p=P, grading=grading,
                                 propagator=propagator) for propagator in ("euler", "spectral")]
        euler, spectral = (reference_solution(u0, cfg, window_stepper(prob, u0, cfg)).state_values
                           for cfg in cfgs)
        diffs.append(float(np.max(np.abs(euler - spectral))))
    lam = diffusivity * (len(amps) * np.pi) ** 2
    # the graded grid's longest step is at most grading * window / steps
    assert diffs[0] <= lam * grading * window / 32 * max(map(abs, amps))
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 1.8 <= coarse / fine <= 2.2, diffs


# ---------------------------------------------------------------- picard

def _rough_data_derivative_errors(grading):
    """E0mu error of the time derivative of the implicit Euler heat solution
    from rough data, against the exact semi-discrete -A e^{-tA} u0, at
    K = 256, 512, 1024 steps on (0, 0.1]."""
    grid = Grid(1, 129)
    prob = rd_problem(linear_heat_spec(grid))
    # |x - 1/2|^(1/2) lies in the trace space of mu - 1/p = 0.4, not of mu = 0.9
    u0 = GridFunction.from_scalar(grid, np.abs(grid.axis_coords() - 0.5) ** 0.5)
    proxy = eigendecompose(prob.assemble_A(u0))
    lam = proxy.eigenvalues
    c = proxy.coefficients(u0.values)[:, 0]
    errors = []
    for K in (256, 512, 1024):
        cfg = FixedPointConfig(window=0.1, time_steps=K, mu=MU, p=P, grading=grading)
        traj = reference_solution(u0, cfg, window_stepper(prob, u0, cfg))
        exact = (proxy.modes @ (-(lam * c)[:, None] * np.exp(-np.outer(lam, traj.times)))).T
        err = traj.deriv_values - exact[..., None]
        errors.append(E0mu_norm(WeightedTrajectory(traj.times, err, None, MU, P), None, 2.0))
    return np.array(errors)


def test_graded_grid_keeps_first_order_on_rough_data():
    # the grading t_k = T (k/K)^gamma, gamma = 1/(mu - 1/p), resolves the
    # t^(mu - 1) growth of du/dt; the uniform grid loses the order entirely
    graded = _rough_data_derivative_errors(None)
    uniform = _rough_data_derivative_errors(1.0)
    assert np.all(np.log2(graded[:-1] / graded[1:]) >= 0.9), graded
    assert np.all(np.log2(uniform[:-1] / uniform[1:]) < 0.5), uniform
    assert np.all(graded < uniform)


def _maximal_regularity_ratio(op, order, p, q, mu, K, T=0.1):
    """||u||_E1mu / ||f||_E0mu for implicit Euler from u0 = 0 on the graded
    grid, f = t^(-(1 - mu) - 1/p + 0.05) |x - 0.37|^0.3: a forcing just
    inside E0mu, singular at t = 0 (its t = 0 sample, which no step reads,
    is set to 0) and rough at the point x = (0.37, ..., 0.37)."""
    grid = op.grid
    cfg = FixedPointConfig(window=T, time_steps=K, mu=mu, p=p, q=q)
    times = graded_times(T, K, cfg.gamma())
    space = np.sqrt(sum((x - 0.37) ** 2 for x in grid.coords())) ** 0.3
    amp = np.concatenate([[0.0], times[1:] ** (-(1.0 - mu) - 1.0 / p + 0.05)])
    f = amp[:, None] * space.ravel()
    stepper = evolution._EulerStepper(op, times)
    rhs = f[:, op.active]
    u = evolution._assemble_trajectory(stepper, stepper.run(np.zeros(op.n_active), rhs),
                                       rhs, cfg)
    f_traj = WeightedTrajectory(times, f.reshape((K + 1,) + grid.shape + (1,)), None, mu, p)
    return E1mu_norm(u, q=q, order=order) / E0mu_norm(f_traj, None, q)


@pytest.mark.parametrize("p,q,mu", [(2.0, 2.0, 1.0), (4.0, 4.0, 0.6), (1.5, 4.0, 0.9)])
@pytest.mark.parametrize("order", [2, 4])
def test_discrete_maximal_regularity(order, p, q, mu):
    # implicit Euler keeps maximal L_p-regularity uniformly in the step size
    # (Kovacs, Li & Lubich, SIAM J. Numer. Anal. 54 (2016)), and the discrete
    # E1mu norm, whose X1 part is the graph norm of the reference operator,
    # is uniform in the mesh: ||u||_E1mu / ||f||_E0mu stays within 20 % over
    # K and n, in 1D and in 2D, for Neumann -Lap + I and the clamped Lap^2
    def operator(grid):
        if order == 2:
            return plus_identity(reference_operator(grid, "second"), 1.0)
        return reference_operator(grid, "fourth")

    for cases in ([(Grid(1, n), K) for n in (33, 129) for K in (32, 512)],
                  [(Grid(2, n), 32) for n in (17, 33)]):
        ratios = np.array([_maximal_regularity_ratio(operator(grid), order, p, q, mu, K)
                           for grid, K in cases])
        assert ratios.max() / ratios.min() <= 1.2, ratios


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["reaction_diffusion", "willmore"])
def test_quasilinear_loop_keeps_first_order_in_time(name):
    # self-convergence of the whole loop (Picard iteration, windows, gluing)
    # with implicit Euler: the final states at K = 32, 64, 128, 256 steps per
    # window; the 1D reaction-diffusion windows march in the eigenbasis from
    # K = 41 on (64 unknowns), the Willmore windows take LU steps
    rc = load_run_config(CONFIGS / f"{name}.json")
    prob, _spec = build_problem(rc)
    u0 = build_initial(rc)
    finals = []
    for K in (32, 64, 128, 256):
        cfg = dataclasses.replace(rc.solver, time_steps=K, propagator="euler")
        state = continue_solution(u0, prob, cfg, horizon=rc.horizon)
        assert not state.blow_up and len(state.windows) == 2
        finals.append(state.trajectory.state_values[-1])
    gaps = np.array([np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])])
    # the time error stays far above the Picard tolerance
    assert np.all(gaps >= 100.0 * rc.solver.tol), gaps
    orders = np.log2(gaps[:-1] / gaps[1:])
    assert np.all((0.9 <= orders) & (orders <= 1.1)), orders


def _largest_contraction_factors(nodes, profile=None):
    """The largest contraction factor of one window of length 4e-3 / 2^k,
    k = 0..5, of K = 50 steps, on the bundled reaction-diffusion problem at
    ``nodes`` nodes, from 1 + 0.6 profile(x), or from the config's own
    cosine without a profile."""
    doc = json.loads((CONFIGS / "reaction_diffusion.json").read_text())
    doc["grid"]["nodes"] = nodes
    rc = validate_run_config(doc)
    prob, _spec = build_problem(rc)
    u0 = (build_initial(rc) if profile is None
          else GridFunction.from_scalar(rc.grid, 1.0 + 0.6 * profile(rc.grid.axis_coords())))
    factors = []
    for k in range(6):
        cfg = dataclasses.replace(rc.solver, window=4e-3 / 2 ** k, time_steps=50)
        state = fixed_point_solve(u0, prob, cfg)
        assert state.halvings == 0
        factors.append(max(state.contraction_factors))
    return np.array(factors)


@pytest.mark.parametrize("nodes", [65, 129])
def test_contraction_factor_falls_with_the_window(nodes):
    # the local existence proof makes the Picard map a contraction whose
    # constant tends to 0 with the window length T, as T for smooth data
    # (the iterates leave u0 in the trace space at rate T) and more slowly
    # for data of lower regularity; slopes are log2 ratios per halving of T
    smooth = _largest_contraction_factors(nodes)
    kink = _largest_contraction_factors(nodes, lambda x: np.abs(x - 0.5) - 0.25)
    smooth_slopes = np.log2(smooth[:-1] / smooth[1:])
    kink_slopes = np.log2(kink[:-1] / kink[1:])
    assert np.all((0.85 <= smooth_slopes[-3:]) & (smooth_slopes[-3:] <= 1.15)), smooth_slopes
    assert np.all(smooth_slopes > 0.0) and np.all(kink_slopes > 0.0), (smooth, kink)
    assert np.mean(kink_slopes) < np.mean(smooth_slopes), (kink_slopes, smooth_slopes)


def test_linear_problem_converges_immediately():
    # frozen operator equals the true operator, so T(v) is already the fixed
    # point and the first residual vanishes to roundoff
    grid, prob = heat_problem(32)
    u0, _ = eigenmode(grid, 1, amp=0.5)
    cfg = FixedPointConfig(window=0.02, time_steps=12, mu=MU, p=P, tol=1e-8)
    st = fixed_point_solve(u0, prob, cfg)
    assert st.converged
    assert st.halvings == 0
    assert st.iterations <= 2
    assert st.window == cfg.window
    assert st.trajectory is not None
    assert st.residuals[-1] <= cfg.tol
    d = st.summary()
    assert d["converged"] is True and d["halvings"] == 0


def test_exact_fixed_point_is_not_measured(monkeypatch):
    # the ladder's clamped plate: A(v) is A0 whatever v, so the Picard rhs
    # -A0 v + A0 v cancels exactly, T(v) reproduces v bit for bit, and the
    # all-zero difference has residual 0.0 without a norm evaluation
    grid = Grid(1, 33)
    op = reference_operator(grid, "fourth")

    def zero(v):
        return GridFunction.from_scalar(v.grid, np.zeros(v.grid.shape))

    prob = AbstractProblem(assemble_A=lambda v: op, F1=zero, F2=zero,
                           bc=BoundaryCondition.CLAMPED, order="fourth", name="plate")
    u0 = GridFunction.from_scalar(grid, np.sin(np.pi * grid.axis_coords()) ** 2)
    cfg = FixedPointConfig(window=0.01, time_steps=256, mu=MU, p=P, tol=1e-13)
    calls = []
    monkeypatch.setattr(evolution, "E1mu_norm", lambda *a, **k: calls.append(a) or 1.0)
    st = fixed_point_solve(u0, prob, cfg)
    assert st.converged and st.iterations == 1 and st.halvings == 0
    assert st.residuals == (0.0,) and st.contraction_factors == ()
    assert calls == []
    # E1mu_norm gives the same 0.0 for that difference
    v = reference_solution(u0, cfg, window_stepper(prob, u0, cfg))
    d = difference(picard_map(v, u0, prob, cfg, window_stepper(prob, u0, cfg)), v)
    assert not (d.state_values.any() or d.deriv_values.any())
    assert E1mu_norm(d, q=cfg.q, order=4) == 0.0


def test_equal_states_with_unequal_derivatives_are_measured(monkeypatch):
    # a rhs that is nonzero only at t = 0 leaves the states of T(v) those of
    # the reference solve, but not its initial slope -A0 u + rhs(0): the
    # first difference is measured, and the second, all zero, is not.  At
    # mu = 1 the t = 0 sample carries weight, so the first residual is not 0
    grid = Grid(1, 33)
    op = reference_operator(grid, "fourth")
    u0 = GridFunction.from_scalar(grid, np.sin(np.pi * grid.axis_coords()) ** 2)

    def G(values):
        flat = values.reshape(len(values), -1)
        out = np.zeros_like(flat)
        out[:, op.active] = -op.dot(np.take(flat, op.active, axis=1))
        first = np.all(flat[:, op.active] == u0.values.reshape(-1)[op.active], axis=1)
        out[first] += 1.0
        return out.reshape(values.shape)

    prob = AbstractProblem(assemble_A=lambda v: op, F1=None, F2=None,
                           bc=BoundaryCondition.CLAMPED, order="fourth", G=G)
    cfg = FixedPointConfig(window=0.01, time_steps=256, mu=1.0, p=P, tol=1e-13)
    calls = []
    measured = evolution.E1mu_norm
    monkeypatch.setattr(evolution, "E1mu_norm",
                        lambda *a, **k: calls.append(a) or measured(*a, **k))
    st = fixed_point_solve(u0, prob, cfg)
    assert st.converged and st.iterations == 2
    assert st.residuals[0] > 0.0 and st.residuals[1] == 0.0 and len(calls) == 1


def test_picard_map_fixed_point_residual():
    grid, prob = heat_problem(24)
    u0, _ = eigenmode(grid, 1, amp=0.3)
    cfg = FixedPointConfig(window=0.02, time_steps=10, mu=MU, p=P)
    v = reference_solution(u0, cfg, window_stepper(prob, u0, cfg))
    u = picard_map(v, u0, prob, cfg, window_stepper(prob, u0, cfg))
    gap = np.max(np.abs(u.state_values - v.state_values))
    assert gap < 1e-10


def kappa_shift(prob: AbstractProblem, kappa: float) -> AbstractProblem:
    """The equivalent reformulation A + kappa*I, F1 + kappa*id.

    G = F1 + F2 - A(v) v is invariant under the shift and passes through
    unchanged; F1 is shifted for the callers that read it (the Lipschitz
    probe, and ``G_values`` when there is no G hook).  At the discrete fixed
    point the shift cancels identically, so converged trajectories agree
    with the unshifted problem to solver tolerance.
    """

    def assemble(v):
        return plus_identity(prob.assemble_A(v), kappa)

    def f1(v):
        return GridFunction(v.grid, prob.F1(v).values + kappa * v.values)

    return AbstractProblem(
        assemble_A=assemble, F1=f1, F2=prob.F2, bc=prob.bc,
        state_constraint=prob.state_constraint, order=prob.order,
        name=f"{prob.name}+shift" if prob.name else "shifted", G=prob.G,
    )


@settings(max_examples=15, deadline=None)
@given(kappa=st.floats(0.0, 10.0))
@example(kappa=3.0)
def test_kappa_shift_equivalence(kappa):
    grid, prob = heat_problem(24)
    u0, _ = eigenmode(grid, 2, amp=0.4)
    cfg = FixedPointConfig(window=0.02, time_steps=10, mu=MU, p=P, tol=1e-11)
    shifted_prob = kappa_shift(prob, kappa)
    assert shifted_prob.G is prob.G          # G = F1 + F2 - A(v)v is shift-invariant
    base = fixed_point_solve(u0, prob, cfg)
    shifted = fixed_point_solve(u0, shifted_prob, cfg)
    assert shifted.converged
    gap = np.max(np.abs(base.trajectory.state_values - shifted.trajectory.state_values))
    assert gap < 1e-6


def _counted(prob, calls):
    """``prob`` with each hook named in ``calls`` counting its calls there."""
    def count(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    hooks = {name: getattr(prob, name) for name in calls}
    return dataclasses.replace(prob, **{name: count(name, fn)
                                        for name, fn in hooks.items() if fn is not None})


@pytest.mark.parametrize("kind", ["reaction_diffusion", "willmore", "surface_diffusion"])
def test_one_G_call_per_picard_map(kind):
    grid = Grid(1, 20)
    x = grid.axis_coords()
    if kind == "reaction_diffusion":
        _, prob = square_problem(nodes=20)
        u0 = GridFunction.from_scalar(grid, 0.5 + 0.1 * np.cos(np.pi * x))
        window = 0.02
    else:
        prob = flow_problem(FlowSpec(grid=grid, kind=kind))
        u0 = GridFunction.from_scalar(grid, 0.01 * np.sin(np.pi * x) ** 2)
        window = 1e-4
    calls = dict.fromkeys(("F1", "F2", "G"), 0)
    prob = _counted(prob, calls)
    cfg = FixedPointConfig(window=window, time_steps=8, mu=MU, p=P, tol=1e-10)
    st_ = fixed_point_solve(u0, prob, cfg)
    assert st_.converged and st_.iterations >= 2
    assert calls == {"F1": 0, "F2": 0, "G": st_.iterations}
    v = reference_solution(u0, cfg, window_stepper(prob, u0, cfg))
    picard_map(v, u0, prob, cfg, window_stepper(prob, u0, cfg))
    assert calls["G"] == st_.iterations + 1


def test_problem_without_G_uses_its_hooks_per_sample():
    # the same rd problem with G removed: F1, F2 and assemble_A once per
    # sample (and once more to freeze A(u0)), and the same iterate up to
    # rounding
    grid, prob = square_problem(nodes=20)
    u0 = GridFunction.from_scalar(grid, 0.5 + 0.1 * np.cos(np.pi * grid.axis_coords()))
    cfg = FixedPointConfig(window=0.02, time_steps=8, mu=MU, p=P)
    calls = dict.fromkeys(("F1", "F2", "assemble_A", "G"), 0)
    hooks_only = _counted(dataclasses.replace(prob, G=None), calls)
    v = reference_solution(u0, cfg, window_stepper(prob, u0, cfg))
    u = picard_map(v, u0, prob, cfg, window_stepper(prob, u0, cfg))
    w = picard_map(v, u0, hooks_only, cfg, window_stepper(hooks_only, u0, cfg))
    n = len(v.times)
    assert calls == {"F1": n, "F2": n, "assemble_A": n + 1, "G": 0}
    scale = np.max(np.abs(u.state_values))
    assert np.max(np.abs(u.state_values - w.state_values)) <= 1e-13 * scale


@pytest.mark.parametrize("value", [np.inf, np.finfo(float).max])
def test_problem_without_G_rejects_a_non_finite_rhs(value):
    # F1 = F2 is `value` at one sample: an infinite field cannot be built,
    # and two of the largest finite ones overflow in F1 + F2
    grid = Grid(1, 17)
    op = reference_operator(grid, "second")
    u0 = GridFunction.from_scalar(grid, np.cos(np.pi * grid.axis_coords()))
    cfg = FixedPointConfig(window=0.01, time_steps=4, mu=MU, p=P)

    def hook(w):
        hit = np.array_equal(w.values, v.state_values[2])
        return GridFunction(grid, np.full_like(w.values, value if hit else 0.0))

    prob = AbstractProblem(assemble_A=lambda w: op, F1=hook, F2=hook,
                           bc=BoundaryCondition.NEUMANN)
    v = reference_solution(u0, cfg, window_stepper(prob, u0, cfg))
    with np.errstate(over="ignore"), \
            pytest.raises(StateConstraintError, match="non-finite right-hand side"):
        picard_map(v, u0, prob, cfg, window_stepper(prob, u0, cfg))


def _fallback_cases():
    """(problem without G, stack of samples) for each shape of the fallback."""
    rng = np.random.default_rng(3)
    plate = Grid(1, 17)
    op = reference_operator(plate, "fourth")

    def square(w):
        return GridFunction(w.grid, w.values ** 2)

    def cosine(w):
        return GridFunction(w.grid, np.cos(w.values))

    constant = AbstractProblem(assemble_A=lambda w: op, F1=square, F2=cosine,
                               bc=BoundaryCondition.CLAMPED, order="fourth", name="plate")
    plate2 = Grid(2, 10)
    op2 = reference_operator(plate2, "fourth")
    constant2 = dataclasses.replace(constant, assemble_A=lambda w: op2)
    # two operator objects in runs: the sign of the first value picks one
    ops = {True: op, False: plus_identity(reference_operator(plate, "fourth"), 1.0)}
    runs = dataclasses.replace(constant, assemble_A=lambda w: ops[bool(w.values[0, 0] > 0.0)])
    signs = np.array([1.0, 1.0, -1.0, -1.0, -1.0, 1.0, -1.0])
    runs_stack = rng.uniform(0.1, 1.0, (7, 17, 1))
    runs_stack[:, 0, 0] *= signs
    grid = Grid(1, 20)
    scalar = _scalar_diffusion(grid)
    coupled = _coupled_diffusion(Grid(2, 9))
    return {
        "constant-1d": (constant, plate, rng.uniform(-1.0, 1.0, (9, 17, 1))),
        "constant-2d": (constant2, plate2, rng.uniform(-1.0, 1.0, (5, 10, 10, 1))),
        "constant-runs": (runs, plate, runs_stack),
        "state-dependent": (dataclasses.replace(scalar, G=None), grid,
                            rng.uniform(-1.0, 1.0, (9, 20, 1))),
        "state-dependent-ncomp2": (dataclasses.replace(coupled, G=None),
                                   Grid(2, 9), rng.uniform(-1.0, 1.0, (4, 9, 9, 2))),
    }


@pytest.mark.parametrize("case", ["constant-1d", "constant-2d", "constant-runs",
                                  "state-dependent", "state-dependent-ncomp2"])
def test_fallback_equals_per_sample_hooks_bitwise(case):
    # F1 + F2 - A(v) v of each sample, with A(v) v as one sparse product per
    # run of samples sharing an operator, has the bits of the per-sample sum
    prob, grid, stack = _fallback_cases()[case]
    want = []
    for v in (GridFunction(grid, vals) for vals in stack):
        op = prob.assemble_A(v)
        want.append(prob.F1(v).values + prob.F2(v).values - op.scatter(op.dot(op.gather(v.values))))
    want = np.stack(want)
    calls = dict.fromkeys(("F1", "F2", "assemble_A"), 0)
    counted = _counted(prob, calls)
    got = counted.G_values(stack, grid)
    assert _same_bits(got, want)
    n = len(stack)
    assert calls == {"F1": n, "F2": n, "assemble_A": n}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_fallback_checks_the_stack_once(bad):
    # one non-finite sample fails the whole stack before any hook runs, and
    # the Picard right-hand side reports it as non-finite
    prob, grid, stack = _fallback_cases()["constant-1d"]
    calls = dict.fromkeys(("F1", "F2", "assemble_A"), 0)
    counted = _counted(prob, calls)
    stack[4, 8, 0] = bad
    with pytest.raises(NonFiniteError):
        counted.G_values(stack, grid)
    assert calls == {"F1": 0, "F2": 0, "assemble_A": 0}
    A0 = prob.assemble_A(None)
    with pytest.raises(StateConstraintError, match="^non-finite right-hand side$"):
        evolution._picard_rhs(types.SimpleNamespace(state_values=stack), counted, A0)


def test_initial_state_outside_box_raises():
    grid, prob = square_problem(nodes=9, box=2.0)
    with pytest.raises(StateConstraintError):
        fixed_point_solve(constant_state(grid, 3.0),  prob,
                          FixedPointConfig(window=0.01, time_steps=4, mu=MU, p=P))


# ---------------------------------------------------------------- halvings

def test_hostile_window_halves_until_contraction():
    grid, prob = square_problem()
    u0 = constant_state(grid, 2.0)
    cfg = FixedPointConfig(window=1.0, time_steps=20, mu=MU, p=P,
                           max_iter=40, tol=1e-8, blowup_threshold=1e12)
    st = fixed_point_solve(u0, prob, cfg)
    assert st.converged
    assert st.halvings == 2        # 1.0 and 0.5 exceed the existence time 0.5
    assert st.window == pytest.approx(0.25)
    assert all(f < 1.0 for f in st.contraction_factors)
    assert len(st.halving_reasons) == 2
    assert st.summary()["halving_reasons"] == list(st.halving_reasons)
    assert all(r.startswith("contraction factor") for r in st.halving_reasons)


def test_a_window_too_short_for_its_grading_is_a_failed_attempt():
    # the first graded step of the window is the least subnormal number,
    # which every halving rounds to zero
    grid, prob = square_problem()
    cfg = FixedPointConfig(window=1.0, time_steps=2, mu=MU, p=P, grading=1074,
                           max_halvings=3)
    with pytest.raises(NonconvergenceError, match="after 3 halvings: reference solve failed: "
                       "grading 1074 leaves a step of zero length among the 2 steps of a "
                       "window of length 0.125 at t = 0.0$"):
        fixed_point_solve(constant_state(grid, 2.0), prob, cfg)
    # the same holds for a step that vanishes against the window's start: the
    # second window starts at 0.01, where 0.01 (1/2)^60 is below half an ulp
    cfg = FixedPointConfig(window=0.01, time_steps=2, mu=MU, p=P, grading=60)
    state = continue_solution(constant_state(grid, 0.1), prob, cfg, 0.02)
    assert state.blow_up and len(state.windows) == 1 and state.t_plus_estimate == 0.01
    assert state.reason.endswith("at t = 0.01")
    assert len(state.trajectory.times) == 3


def test_machinery_built_once_per_window_attempt(monkeypatch):
    builds = []
    original = evolution._build_machinery

    def counting(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(evolution, "_build_machinery", counting)
    grid, prob = square_problem()
    cfg = FixedPointConfig(window=1.0, time_steps=20, mu=MU, p=P,
                           max_iter=40, tol=1e-8, blowup_threshold=1e12)
    st = fixed_point_solve(constant_state(grid, 2.0), prob, cfg)
    assert st.halvings == 2
    assert len(builds) == 1 + st.halvings
    builds.clear()
    grid, prob = heat_problem(24)
    st = fixed_point_solve(eigenmode(grid, 1, amp=0.5)[0], prob,
                           FixedPointConfig(window=0.02, time_steps=8, mu=MU, p=P))
    assert st.halvings == 0 and len(builds) == 1


def test_window_collapse_raises_nonconvergence():
    grid, prob = square_problem()
    u0 = constant_state(grid, 2.0)
    cfg = FixedPointConfig(window=1.0, time_steps=20, mu=MU, p=P,
                           max_iter=40, tol=1e-8, max_halvings=0,
                           blowup_threshold=1e12)
    with pytest.raises(NonconvergenceError) as exc:
        fixed_point_solve(u0, prob, cfg)
    assert exc.value.halvings == 0


# ---------------------------------------------------------------- continuation

def test_continuation_glues_windows():
    grid, prob = heat_problem(24)
    u0, _ = eigenmode(grid, 1, amp=0.5)
    cfg = FixedPointConfig(window=0.05, time_steps=8, mu=MU, p=P, tol=1e-9)
    seen = []
    st = continue_solution(u0, prob, cfg, horizon=0.15,
                           on_window=lambda i, t, w: seen.append((i, t)))
    assert not st.blow_up
    assert st.t_plus_estimate == np.inf
    assert len(st.windows) == 3
    traj = st.trajectory
    assert len(traj.times) == 3 * 8 + 1
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(0.15)
    assert [i for i, _ in seen] == [0, 1, 2]
    assert np.allclose([t for _, t in seen], [0.0, 0.05, 0.10])
    assert "inf" == st.summary()["t_plus_estimate"]


def test_continuation_from_interior_start_time():
    grid, prob = heat_problem(24)
    u0, _ = eigenmode(grid, 1, amp=0.5)
    cfg = FixedPointConfig(window=0.05, time_steps=8, mu=MU, p=P)
    starts_once = []
    once = continue_solution(u0, prob, cfg, horizon=0.2,
                             on_window=lambda i, t, w: starts_once.append(t))
    first = continue_solution(u0, prob, cfg, horizon=0.1)
    seen = []
    st = continue_solution(first.trajectory, prob, cfg, horizon=0.2,
                           on_window=lambda i, t, w: seen.append((i, t)))
    # the continuation is in run time and begins with the run so far, so it
    # is the uninterrupted run bit for bit
    for name in ("times", "state_values", "deriv_values"):
        assert np.array_equal(getattr(st.trajectory, name), getattr(once.trajectory, name))
    # the new windows are indexed from 0 and start in run time
    assert [i for i, _ in seen] == [0, 1]
    assert [t for _, t in seen] == starts_once[2:]
    assert np.allclose([t for _, t in seen], [0.1, 0.15])
    with pytest.raises(ValueError):
        continue_solution(u0, prob, cfg, horizon=0.0)
    # a start that reaches the horizon, or passes it, runs no window
    for horizon in (0.2, 0.15):
        done = continue_solution(st.trajectory, prob, cfg, horizon=horizon)
        assert done.windows == [] and not done.blow_up
        assert np.array_equal(done.trajectory.times, once.trajectory.times)


def test_continuation_keeps_one_copy_of_the_samples():
    grid, prob = heat_problem(24)
    u0, _ = eigenmode(grid, 1, amp=0.5)
    cfg = FixedPointConfig(window=0.05, time_steps=8, mu=MU, p=P, tol=1e-9)
    seen = []
    st = continue_solution(u0, prob, cfg, horizon=0.15,
                           on_window=lambda i, t, w: seen.append(w.trajectory.state_values))
    # each window's trajectory is released once on_window has seen it, and
    # the glued trajectory keeps one sample per joint
    assert all(w.trajectory is None for w in st.windows)
    assert np.array_equal(st.trajectory.state_values,
                          np.concatenate([seen[0]] + [s[1:] for s in seen[1:]]))


def test_overflowing_trajectory_collapses_to_blow_up():
    # u0 is finite, but -A0 u0 (the time derivative at t = 0) overflows, so
    # every window attempt fails and the first window collapses
    grid = Grid(1, 17)
    op = reference_operator(grid, "second")

    def zero(v):
        return GridFunction.zeros(v.grid)

    prob = AbstractProblem(assemble_A=lambda v: op, F1=zero, F2=zero,
                           bc=BoundaryCondition.NEUMANN)
    u0 = GridFunction.from_scalar(grid, 1e306 * np.cos(np.pi * grid.axis_coords()))
    cfg = FixedPointConfig(window=0.01, time_steps=4, mu=MU, p=P, max_halvings=3)
    with np.errstate(over="ignore", invalid="ignore"):
        st = continue_solution(u0, prob, cfg, horizon=0.02)
    assert st.blow_up
    assert "non-finite trajectory" in st.reason
    assert st.windows == [] and st.trajectory is None
    assert st.t_plus_estimate == 0.0


def test_blow_up_detection_time():
    grid, prob = square_problem()
    u0 = constant_state(grid, 2.0)
    cfg = FixedPointConfig(window=0.02, time_steps=20, mu=MU, p=P,
                           max_iter=40, tol=1e-10, blowup_threshold=100.0)
    st = continue_solution(u0, prob, cfg, horizon=1.0)
    assert st.blow_up
    assert "threshold" in st.reason
    # threshold crossing of c/(1 - c t) at (1/c)(1 - c/M) = 0.49
    assert st.t_plus_estimate == pytest.approx(0.49, abs=0.03)
    assert np.max(np.abs(st.trajectory.state_values[-1])) >= 100.0
    assert len(st.windows) >= 10


def test_constraint_violation_flags_blow_up():
    grid, prob = square_problem(box=10.0)
    u0 = constant_state(grid, 2.0)
    cfg = FixedPointConfig(window=0.02, time_steps=20, mu=MU, p=P,
                           max_iter=40, tol=1e-10, blowup_threshold=1e6)
    st = continue_solution(u0, prob, cfg, horizon=1.0)
    assert st.blow_up
    # the box is hit near c/(1 - c t) = 10 - margin, i.e. t ~ 0.4
    assert 0.3 < st.t_plus_estimate < 0.5


# ---------------------------------------------------------------- diagnostics

def test_omega_limit_heat_reaches_mean():
    grid, prob = heat_problem(64)
    x = grid.axis_coords()
    u0 = GridFunction.from_scalar(grid, 1.0 + 0.5 * np.cos(np.pi * x))
    cfg = FixedPointConfig(window=0.25, time_steps=30, mu=MU, p=P,
                           propagator="spectral", tol=1e-10)
    st = continue_solution(u0, prob, cfg, horizon=1.0)
    proxy = eigendecompose(reference_operator(grid, "second"))
    rep = omega_limit(st.trajectory, np.linspace(0.9, 1.0, 6), proxy, threshold=1e-4,
                      theta=None)
    assert rep.converged
    assert rep.n_clusters == 1
    assert rep.diameter < 2e-4
    point = rep.cluster_points[0]
    assert np.max(np.abs(point.scalar - 1.0)) < 1e-4
    # early samples are still moving: every sample is its own cluster
    early = omega_limit(st.trajectory, np.linspace(0.05, 0.2, 5), proxy, threshold=1e-4,
                        theta=None)
    assert not early.converged
    assert early.n_clusters == 5
    with pytest.raises(ValueError):
        omega_limit(st.trajectory, [0.5], proxy, threshold=1e-4, theta=None)


def test_lipschitz_probe_linear_problem():
    grid, prob = heat_problem(24)
    u0 = constant_state(grid, 1.0)
    cfg = FixedPointConfig(window=0.02, time_steps=8, mu=MU, p=P, tol=1e-9)
    rep = lipschitz_probe(prob, u0, cfg, n_samples=4, seed=1)
    assert rep.L_A == 0.0          # coefficient does not depend on the state
    assert rep.L_F1 == 0.0
    assert rep.n_pairs > 0
    assert np.isfinite(rep.c_dependence)


def test_lipschitz_probe_sees_state_dependence():
    grid = Grid(1, 24)
    spec = ReactionDiffusionSpec(
        grid=grid, ncomp=1,
        a=PolynomialMap.from_table([[[1.0, 0.0, 1.0]]], shape=(1, 1), nvars=1),
        f=PolynomialMap.from_table([[0.0, 1.0]], shape=(1,), nvars=1),
        b=PolynomialMap.constant(np.zeros((1, 1, 1))),
        u_box=np.array([[-2.0, 2.0]]), name="rd")
    prob = rd_problem(spec)
    cfg = FixedPointConfig(window=0.01, time_steps=8, mu=MU, p=P)
    rep = lipschitz_probe(prob, constant_state(grid, 0.5), cfg,
                          n_samples=4, seed=2, with_solutions=False)
    assert rep.L_A > 0.0
    assert rep.L_F1 > 0.0
    assert rep.c_dependence == 0.0


# ------------------------------------------- per-pair references of the diagnostics
#
# omega_limit and lipschitz_probe measure distances with one stacked
# proxy_norms call per sample; these references take one state difference and
# one single-field proxy norm per pair of samples, with the arithmetic the
# diagnostics had when they did so, and the reports must agree bit for bit.

def _reference_proxy_norm(values, theta, proxy):
    """|| (I + L)^theta u ||_{L2} of one field u, from its own modal coefficients."""
    vec = values.reshape(-1, values.shape[-1])[proxy.operator.active, :]
    c = proxy.modes.T @ (vec * proxy.operator.weights[:, None])
    scale = (1.0 + np.clip(proxy.eigenvalues, 0.0, None)) ** theta
    return float(np.sqrt(np.sum((scale[:, None] * c) ** 2)))


def _reference_state_at(traj, t):
    times = traj.times
    i = int(np.searchsorted(times, t))
    if i < len(times) and times[i] == t:
        return traj.state_values[i]
    i = min(max(i, 1), len(times) - 1)
    lam = (t - times[i - 1]) / (times[i] - times[i - 1])
    return traj.state_values[i - 1] * float(1.0 - lam) + traj.state_values[i] * float(lam)


def _reference_omega(traj, sample_times, proxy, threshold):
    """The summary and cluster points of ``omega_limit``, pair by pair."""
    theta = 1.0 - 1.0 / traj.p
    states = [_reference_state_at(traj, t) for t in sample_times]
    m = len(states)
    dist = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            dist[i, j] = dist[j, i] = _reference_proxy_norm(states[i] - states[j], theta, proxy)
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
    diameter = (float(np.max(dist[np.ix_(final_cluster, final_cluster)]))
                if len(final_cluster) > 1 else 0.0)
    converged = len(clusters) == 1 and (spread_late <= spread_early + 1e-15
                                        or diameter <= threshold)
    points = [np.sum([states[i] for i in c], axis=0) * float(1.0 / len(c)) for c in clusters]
    summary = {"n_clusters": len(clusters), "diameter": diameter, "converged": converged,
               "distances_to_final": [float(dist[i, m - 1]) for i in range(m)]}
    return summary, points


def _settling_trajectory(grid, ncomp, seed):
    """Random states that settle on a random limit at rate e^{-8t}."""
    rng = np.random.default_rng(seed)
    times = graded_times(1.0, 40, 2.5)
    decay = np.exp(-8.0 * times).reshape((-1,) + (1,) * (grid.dim + 1))
    states = (rng.normal(size=grid.shape + (ncomp,))
              + decay * rng.normal(size=(len(times),) + grid.shape + (ncomp,)))
    return WeightedTrajectory(times, states, None, MU, P)


@pytest.mark.parametrize("dim, ncomp, order", [(1, 1, "second"), (2, 1, "second"),
                                               (1, 2, "second"), (2, 2, "fourth")])
def test_omega_limit_equals_the_per_pair_reference_bitwise(dim, ncomp, order):
    grid = Grid(dim, 13 if dim == 1 else 9)
    traj = _settling_trajectory(grid, ncomp, seed=dim + 10 * ncomp)
    proxy = eigendecompose(reference_operator(grid, order))
    # sample times between samples and on them, t = 0 and a repeat included
    sample_times = list(np.linspace(0.0, 1.0, 24)) + list(traj.times[-4:])
    seen = set()
    for threshold in (1e-3, 0.05, 0.5, 1e4):
        rep = omega_limit(traj, sample_times, proxy, threshold=threshold, theta=None)
        summary, points = _reference_omega(traj, sample_times, proxy, threshold)
        assert rep.summary() == summary
        assert len(rep.cluster_points) == len(points)
        for got, want in zip(rep.cluster_points, points):
            assert np.array_equal(got.values, want)
        seen.add(rep.n_clusters)
    # the thresholds give one cluster and at least two counts of several
    assert 1 in seen and len(seen) >= 3


def _reference_lipschitz(prob, u_center, cfg, n_samples, radius, seed, proxy,
                         with_solutions):
    """``lipschitz_probe`` with A(w) assembled and applied to one probe at a
    time, and F1(w), evaluated afresh for both samples of every pair."""
    grid = u_center.grid
    rng = np.random.default_rng(seed)
    theta_low = cfg.mu - 1.0 / cfg.p
    modes = []
    for k in (1, 2, 3):
        xs = grid.coords()
        if prob.bc == BoundaryCondition.NEUMANN:
            prof = np.cos(k * np.pi * xs[0])
            for x in xs[1:]:
                prof = prof * np.cos(k * np.pi * x)
        else:
            prof = np.sin(k * np.pi * xs[0]) ** 2
            for x in xs[1:]:
                prof = prof * np.sin(k * np.pi * x) ** 2
        modes.append(np.repeat(prof[..., None], u_center.ncomp, axis=-1))
    samples = []
    skipped = 0
    for _ in range(n_samples):
        pert = np.zeros(grid.shape + (u_center.ncomp,))
        for m in modes:
            pert = pert + m * float(rng.uniform(-1.0, 1.0))
        scale = float(np.max(np.abs(pert)))
        if scale > 0:
            pert = pert * float(radius / scale)
        w = GridFunction(grid, u_center.values + pert)
        if prob.state_constraint(w.values):
            samples.append(w)
        else:
            skipped += 1
    probes = [GridFunction(grid, m) for m in modes[:2]]
    L_A = 0.0
    L_F1 = 0.0
    n_pairs = 0
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            d = _reference_proxy_norm(samples[i].values - samples[j].values, theta_low, proxy)
            if d <= 0.0:
                skipped += 1
                continue
            n_pairs += 1
            A_i, A_j = prob.assemble_A(samples[i]), prob.assemble_A(samples[j])
            for v in probes:
                diff = (A_i.scatter(A_i.dot(A_i.gather(v.values)))
                        - A_j.scatter(A_j.dot(A_j.gather(v.values))))
                num = lq_norms(diff, grid, 2.0)
                L_A = max(L_A, num / (d * x1_norm(v, 2.0, prob.order_int)))
            diff = prob.F1(samples[i]).values - prob.F1(samples[j]).values
            L_F1 = max(L_F1, lq_norms(diff, grid, 2.0) / d)
    c_dep = 0.0
    if with_solutions and len(samples) >= 2:
        base = fixed_point_solve(u_center, prob, cfg)
        for w in samples[:2]:
            d = _reference_proxy_norm(w.values - u_center.values, theta_low, proxy)
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


def _bump(grid, amp, ncomp=1):
    prof = np.ones(grid.shape)
    for x in grid.coords():
        prof = prof * np.sin(np.pi * x) ** 2
    return GridFunction(grid, np.repeat(amp * prof[..., None], ncomp, axis=-1))


def _lipschitz_cases():
    """(problem, centre state, whether to probe the solution map) by name."""
    g1, g2 = Grid(1, 16), Grid(2, 9)
    _, heat = heat_problem(16)
    scalar = _scalar_diffusion(g1)
    return {
        "heat-1d": (heat, _bump(g1, 0.3), True),
        "rd-1d": (scalar, _bump(g1, 0.5), True),
        "rd-1d-shifted": (kappa_shift(scalar, 2.0), _bump(g1, 0.5), False),
        "willmore-1d": (flow_problem(FlowSpec(g1, "willmore")), _bump(g1, 0.05), False),
        "rd-2d": (_scalar_diffusion(g2), _bump(g2, 0.5), False),
        "rd-2d-ncomp2": (_coupled_diffusion(g2), _bump(g2, 0.5, ncomp=2), False),
    }


@pytest.mark.parametrize("case", ["heat-1d", "rd-1d", "rd-1d-shifted", "willmore-1d",
                                  "rd-2d", "rd-2d-ncomp2"])
def test_lipschitz_probe_equals_the_per_pair_reference_bitwise(case):
    prob, u_center, with_solutions = _lipschitz_cases()[case]
    cfg = FixedPointConfig(window=0.005, time_steps=6, mu=MU, p=P, tol=1e-9)
    proxy = eigendecompose(reference_operator(u_center.grid, prob.order))
    rep = lipschitz_probe(prob, u_center, cfg, seed=5, with_solutions=with_solutions)
    want = _reference_lipschitz(prob, u_center, cfg, 6, 0.05, 5, proxy, with_solutions)
    assert rep == want
    assert rep.n_pairs == 15
    if case != "heat-1d":
        assert rep.L_A > 0.0
    if with_solutions:
        assert rep.c_dependence > 0.0
