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

The banded implicit Euler stepper is checked against scipy's sparse direct
solve of I + dt*A, step by step, for frozen operators A(u) assembled at drawn
states.  Steps stay at dt <= 1e-2 on small grids, where I + dt*A is well
enough conditioned for the two solvers to agree to 1e-12.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parabolab import evolution
from parabolab.evolution import (AbstractProblem, ContinuationState,
                                 FixedPointConfig, NonconvergenceError,
                                 StateConstraintError, continue_solution,
                                 fixed_point_solve, graded_times, kappa_shift,
                                 lipschitz_probe, omega_limit, picard_map,
                                 reference_solution)
from parabolab.grids import BoundaryCondition, Grid, GridFunction
from parabolab.operators import (BandedCholesky, BandedLU, SolverError, eigendecompose,
                                 operator_from_full_matrix, reference_operator)
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
        f=PolynomialMap.scalar_series([0.0, 0.0, 1.0], shape=(1,), out_index=(0,)),
        b=PolynomialMap.constant(np.zeros((1, 1, 1))),
        u_box=np.array([[-box, box]]), name="square")
    return grid, rd_problem(spec)


def constant_state(grid, c):
    return GridFunction.from_scalar(grid, np.full(grid.shape, float(c)))


def eigenmode(grid, k, amp=1.0):
    lam = 2.0 / grid.h ** 2 * (1.0 - np.cos(k * np.pi * grid.h))
    u = GridFunction.from_scalar(grid, amp * np.cos(k * np.pi * grid.axis_coords()))
    return u, lam


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
    traj = reference_solution(u0, prob, cfg)
    dts = np.diff(traj.times)
    factor = 1.0
    for m, dt in enumerate(dts, start=1):
        factor /= 1.0 + lam * dt
        assert np.allclose(traj.states[m].values, factor * u0.values,
                           rtol=1e-12, atol=1e-13)
    # initial slope is -A u0 = -lambda u0
    assert np.allclose(traj.derivs[0].values, -lam * u0.values, rtol=1e-9)


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
        a=PolynomialMap.scalar_series([1.0, 0.0, 1.0], shape=(1, 1), out_index=(0, 0)),
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
    grid, ncomp, build, _factor = ORACLE_CASES[case]
    # the state sets the coefficient fields of the frozen operator A(state)
    state = data.draw(arrays(np.float64, grid.shape + (ncomp,),
                             elements=st.floats(-1.0, 1.0)), label="state")
    A = build(grid)(GridFunction(grid, state))
    dts = data.draw(st.lists(st.floats(1e-8, 1e-2), min_size=1, max_size=3), label="dts")
    times = np.concatenate([[0.0], np.cumsum(dts)])
    n = A.n_active
    u0 = data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)), label="u0")
    rhs = list(data.draw(arrays(np.float64, (len(times), n), elements=st.floats(-1.0, 1.0)),
                         label="rhs"))
    got = evolution._EulerStepper(A, times).run(u0, rhs)
    eye = scipy.sparse.identity(n, format="csc")
    want = [u0]
    for k, dt in enumerate(dts):
        want.append(scipy.sparse.linalg.spsolve((eye + dt * A.matrix).tocsc(),
                                                want[-1] + dt * rhs[k + 1]))
    for x, y in zip(got, want):
        assert np.max(np.abs(x - y)) <= 1e-12 * max(np.max(np.abs(y)), 1e-300)


def test_euler_stepper_singular_step_raises():
    # A = -I makes I + dt*A vanish at dt = 1
    grid = Grid(1, 9)
    A = operator_from_full_matrix(grid, 1, BoundaryCondition.NEUMANN,
                                  -scipy.sparse.identity(grid.n_nodes))
    with pytest.raises(SolverError):
        evolution._EulerStepper(A, np.array([0.0, 0.5, 1.5]))


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_euler_stepper_factorization_path(case):
    grid, ncomp, build, factor = ORACLE_CASES[case]
    # a state at which every coefficient field varies over the grid
    bump = np.ones(grid.shape)
    for x in grid.coords():
        bump = bump * np.sin(np.pi * x) ** 2
    state = 0.3 * bump[..., None] * np.array([1.0, -1.0][:ncomp])
    A = build(grid)(GridFunction(grid, state))
    stepper = evolution._EulerStepper(A, graded_times(0.01, 4, 2.0))
    assert [type(f) for f in stepper.factors] == [factor] * 4


def test_euler_stepper_indefinite_step_falls_back_to_lu():
    # A = -I is symmetric, and I + dt*A = -I at dt = 2 is indefinite
    grid = Grid(1, 9)
    A = operator_from_full_matrix(grid, 1, BoundaryCondition.NEUMANN,
                                  -scipy.sparse.identity(grid.n_nodes))
    stepper = evolution._EulerStepper(A, np.array([0.0, 0.5, 2.5]))
    assert [type(f) for f in stepper.factors] == [BandedCholesky, BandedLU]
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


def test_window_meeting_a_non_finite_march_halves():
    # a constant G = 1e308 adds dt*1e308 to the state in each step, so the
    # first Picard march of a window of length 8, 4 or 2 overflows
    grid, prob = heat_problem(9)
    prob = dataclasses.replace(prob, G=lambda values: np.full_like(values, 1e308))
    cfg = FixedPointConfig(window=8.0, time_steps=4, mu=MU, p=P, max_halvings=2)
    with np.errstate(over="ignore"), pytest.raises(NonconvergenceError) as exc:
        fixed_point_solve(GridFunction.zeros(grid), prob, cfg)
    assert exc.value.halvings == 2 and exc.value.residuals == ()
    assert str(exc.value) == ("window collapsed after 2 halvings: iteration failed: "
                              "banded solve failed: dpbtrs info 0 or non-finite values")


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
    traj = reference_solution(u0, prob, cfg)
    for m, t in enumerate(traj.times):
        assert np.allclose(traj.states[m].values, np.exp(-lam * t) * u0.values,
                           rtol=1e-11, atol=1e-13)


# ---------------------------------------------------------------- picard

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


def test_picard_map_fixed_point_residual():
    grid, prob = heat_problem(24)
    u0, _ = eigenmode(grid, 1, amp=0.3)
    cfg = FixedPointConfig(window=0.02, time_steps=10, mu=MU, p=P)
    v = reference_solution(u0, prob, cfg)
    u = picard_map(v, u0, u0, prob, cfg)
    gap = max((a - b).sup_norm() for a, b in zip(u.states, v.states))
    assert gap < 1e-10


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
    gap = max((a - b).sup_norm() for a, b in
              zip(base.trajectory.states, shifted.trajectory.states))
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
    calls = dict.fromkeys(("F1", "F2", "apply_A", "G"), 0)
    prob = _counted(prob, calls)
    cfg = FixedPointConfig(window=window, time_steps=8, mu=MU, p=P, tol=1e-10)
    st_ = fixed_point_solve(u0, prob, cfg)
    assert st_.converged and st_.iterations >= 2
    assert calls == {"F1": 0, "F2": 0, "apply_A": 0, "G": st_.iterations}
    v = reference_solution(u0, prob, cfg)
    picard_map(v, u0, u0, prob, cfg)
    assert calls["G"] == st_.iterations + 1


def test_problem_without_G_uses_its_hooks_per_sample():
    # the same rd problem with G removed: F1, F2 and apply_A once per sample,
    # and the same iterate up to rounding
    grid, prob = square_problem(nodes=20)
    u0 = GridFunction.from_scalar(grid, 0.5 + 0.1 * np.cos(np.pi * grid.axis_coords()))
    cfg = FixedPointConfig(window=0.02, time_steps=8, mu=MU, p=P)
    calls = dict.fromkeys(("F1", "F2", "apply_A", "G"), 0)
    hooks_only = _counted(dataclasses.replace(prob, G=None), calls)
    v = reference_solution(u0, prob, cfg)
    u = picard_map(v, u0, u0, prob, cfg)
    w = picard_map(v, u0, u0, hooks_only, cfg)
    n = len(v.times)
    assert calls == {"F1": n, "F2": n, "apply_A": n, "G": 0}
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
    v = reference_solution(u0, prob, cfg)
    with np.errstate(over="ignore"), \
            pytest.raises(StateConstraintError, match="non-finite right-hand side"):
        picard_map(v, u0, u0, prob, cfg)


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
    seen = []
    st = continue_solution(u0, prob, cfg, horizon=0.2, t0=0.1,
                           on_window=lambda i, t, w: seen.append(t))
    # trajectory time is local, checkpoint times are absolute
    assert st.trajectory.times[0] == 0.0
    assert st.trajectory.times[-1] == pytest.approx(0.1)
    assert np.allclose(seen, [0.1, 0.15])
    with pytest.raises(ValueError):
        continue_solution(u0, prob, cfg, horizon=0.05, t0=0.1)


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
    assert st.trajectory.states[-1].sup_norm() >= 100.0
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
    rep = omega_limit(st.trajectory, np.linspace(0.9, 1.0, 6), proxy, threshold=1e-4)
    assert rep.converged
    assert rep.n_clusters == 1
    assert rep.diameter < 2e-4
    point = rep.cluster_points[0]
    assert np.max(np.abs(point.scalar - 1.0)) < 1e-4
    # early samples are still moving: every sample is its own cluster
    early = omega_limit(st.trajectory, np.linspace(0.05, 0.2, 5), proxy, threshold=1e-4)
    assert not early.converged
    assert early.n_clusters == 5
    with pytest.raises(ValueError):
        omega_limit(st.trajectory, [0.5], proxy)


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
        a=PolynomialMap.scalar_series([1.0, 0.0, 1.0], shape=(1, 1), out_index=(0, 0)),
        f=PolynomialMap.scalar_series([0.0, 1.0], shape=(1,), out_index=(0,)),
        b=PolynomialMap.constant(np.zeros((1, 1, 1))),
        u_box=np.array([[-2.0, 2.0]]), name="rd")
    prob = rd_problem(spec)
    cfg = FixedPointConfig(window=0.01, time_steps=8, mu=MU, p=P)
    rep = lipschitz_probe(prob, constant_state(grid, 0.5), cfg,
                          n_samples=4, seed=2, with_solutions=False)
    assert rep.L_A > 0.0
    assert rep.L_F1 > 0.0
    assert rep.c_dependence == 0.0
