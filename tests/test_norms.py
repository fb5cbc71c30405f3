"""Weighted-norm oracles.

The time quadrature is checked against closed forms: for states f(t) U the
weighted integral factorizes into a time factor (an explicit power integral)
and a spatial factor, and the spatial factors for cos(pi x) are discretely
exact because the mirror stencils reproduce cosine eigenvectors node for node:

    |cos(pi x)|_L2      = sqrt(1/2)                     (trapezoid, exact)
    |D1 cos(pi x)|_L2   = sin(pi h)/h * sqrt(1/2)
    |D2 cos(pi x)|_L2   = (2/h^2)(1 - cos(pi h)) * sqrt(1/2)

Sampling on the graded grid t_k = (k/K)^2.5 makes the trapezoid pullback of
t^0.2 polynomial, so the quadrature converges at second order and K = 2000
reaches relative 1e-6 against the closed form.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parabolab.grids import BoundaryCondition, Grid, GridFunction, NonFiniteError
from parabolab.norms import (E0mu_norm, E1mu_norm, WeightedTrajectory,
                             difference, lq_norm, lq_norms, proxy_norm,
                             smoothing_check, verify_interpolation_inequality,
                             weighted_time_factor, x1_norm, x1_norms)
from parabolab.operators import STENCILS, eigendecompose, reference_operator

MU, P = 0.9, 2.0


def cos_field(grid, k=1, amp=1.0):
    return GridFunction.from_scalar(grid, amp * np.cos(k * np.pi * grid.axis_coords()))


def graded_times(T=1.0, K=2000, gamma=2.5):
    return T * (np.arange(K + 1) / K) ** gamma


def stack(fields):
    return np.stack([f.values for f in fields])


def make_traj(times, state_fn, deriv_fn, grid, mu=MU, p=P):
    states = stack(state_fn(t) for t in times)
    derivs = None if deriv_fn is None else stack(deriv_fn(t) for t in times)
    return WeightedTrajectory(np.asarray(times), states, derivs, mu, p)


# ---------------------------------------------------------------- factors

def test_weighted_time_factor_closed_forms():
    # mu = 1 removes the weight entirely
    assert weighted_time_factor(4.0, 2.0, 1.0) == pytest.approx(2.0)
    # p = 2, mu = 1/2: integral of t dt = T^2/2
    assert weighted_time_factor(1.0, 2.0, 0.5) == pytest.approx(1.0 / np.sqrt(2.0))
    assert weighted_time_factor(0.0, 2.0, 0.9) == 0.0
    with pytest.raises(ValueError):
        weighted_time_factor(-1.0, 2.0, 0.9)


def test_lq_norm_constants_and_components():
    grid = Grid(1, 17)
    u = GridFunction.from_scalar(grid, np.full(grid.shape, 3.0))
    assert lq_norm(u) == pytest.approx(3.0, abs=1e-14)
    vals = np.zeros(grid.shape + (2,))
    vals[..., 0], vals[..., 1] = 3.0, 4.0
    uv = GridFunction(grid, vals)
    assert lq_norm(uv, 2.0) == pytest.approx(5.0, abs=1e-13)
    assert lq_norm(uv, 4.0) == pytest.approx(5.0, abs=1e-13)
    with pytest.raises(ValueError):
        lq_norm(u, 0.5)


def test_x1_norm_cosine_closed_form():
    grid = Grid(1, 41)
    h = grid.h
    u = cos_field(grid)
    root_half = np.sqrt(0.5)
    expected = root_half * (1.0 + np.sin(np.pi * h) / h
                            + 2.0 / h ** 2 * (1.0 - np.cos(np.pi * h)))
    assert x1_norm(u, 2.0, 2) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ValueError):
        x1_norm(u, order=3)


def reference_lq(values, grid, q):
    """The per-sample L_q norm, written out."""
    mag = np.sqrt(np.sum(values ** 2, axis=-1))
    return float(np.sum(grid.trapezoid_weights() * mag ** q) ** (1.0 / q))


def reference_x1(values, grid, q, order):
    """The per-sample X1 norm with np.pad reflection ghosts."""
    total = reference_lq(values, grid, q)
    for sigma in np.ndindex(*(order + 1,) * grid.dim):
        if not 1 <= sum(sigma) <= order:
            continue
        vals = values
        for axis, s in enumerate(sigma):
            if s == 0:
                continue
            offsets, coeffs = STENCILS[s]
            half = -offsets[0]
            pad = [(0, 0)] * vals.ndim
            pad[axis] = (half, half)
            padded = np.pad(vals, pad, mode="reflect")
            out = np.zeros_like(vals)
            for off, c in zip(offsets, coeffs):
                sl = [slice(None)] * vals.ndim
                sl[axis] = slice(half + off, half + off + vals.shape[axis])
                out += c * padded[tuple(sl)]
            vals = out / grid.h ** s
        total += reference_lq(vals, grid, q)
    return total


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_norms_match_per_sample_norms(data):
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = Grid(dim, data.draw(st.integers(8, 20 if dim == 1 else 11), label="nodes"))
    ncomp = data.draw(st.integers(1, 2), label="ncomp")
    q = data.draw(st.sampled_from([2.0, 4.0]), label="q")
    order = data.draw(st.sampled_from([2, 4]), label="order")
    bc = data.draw(st.sampled_from(list(BoundaryCondition)), label="bc")
    samples = data.draw(st.integers(1, 4), label="samples")
    values = data.draw(arrays(np.float64, (samples,) + grid.shape + (ncomp,),
                              elements=st.floats(-1e3, 1e3)), label="values")
    lq = lq_norms(values, grid, q)
    x1 = x1_norms(values, grid, q, order, bc)
    assert lq.shape == x1.shape == (samples,)
    for k in range(samples):
        u = GridFunction(grid, values[k])
        for stacked, single, ref in ((lq[k], lq_norm(u, q), reference_lq(values[k], grid, q)),
                                     (x1[k], x1_norm(u, q, order, bc),
                                      reference_x1(values[k], grid, q, order))):
            assert abs(stacked - single) <= 1e-14 * abs(single)
            assert abs(stacked - ref) <= 1e-14 * abs(ref)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lq_norms_equal_the_euclidean_reference_bitwise(data):
    # one component takes |v| for sqrt(v**2): the same bits wherever v**2
    # neither underflows nor overflows, which holds for these magnitudes
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = Grid(dim, data.draw(st.integers(8, 12), label="nodes"))
    ncomp = data.draw(st.sampled_from([1, 2]), label="ncomp")
    q = data.draw(st.sampled_from([1.0, 2.0, 3.5, 4.0]), label="q")
    samples = data.draw(st.integers(1, 3), label="samples")
    magnitude = st.just(0.0) | st.floats(1e-150, 1e150)
    element = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())
    values = data.draw(arrays(np.float64, (samples,) + grid.shape + (ncomp,),
                              elements=element), label="values")
    with np.errstate(over="ignore", under="ignore"):
        got = lq_norms(values, grid, q)
        mag = np.sqrt(np.sum(values ** 2, axis=-1)) ** q * grid.trapezoid_weights()
        want = np.sum(mag, axis=tuple(range(-dim, 0))) ** (1.0 / q)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- trajectory

def test_trajectory_validation():
    grid = Grid(1, 9)
    u = GridFunction.zeros(grid)
    with pytest.raises(ValueError):
        WeightedTrajectory(np.array([0.1, 0.2]), stack((u, u)), None, MU, P)
    with pytest.raises(ValueError):
        WeightedTrajectory(np.array([0.0, 0.2, 0.2]), stack((u, u, u)), None, MU, P)
    with pytest.raises(ValueError):
        WeightedTrajectory(np.array([0.0, 0.2]), stack((u,)), None, MU, P)
    with pytest.raises(ValueError):
        WeightedTrajectory(np.array([0.0, 0.2]), stack((u, u)), None, 1.2, P)
    with pytest.raises(ValueError):
        WeightedTrajectory(np.array([0.0, 0.2]), stack((u, u)), None, MU, 1.0)
    # states and derivatives on different grids
    other = GridFunction.zeros(Grid(1, 11))
    with pytest.raises(ValueError):
        WeightedTrajectory(np.array([0.0, 0.2]), stack((u, u)), stack((other, other)), MU, P)
    with pytest.raises(NonFiniteError):
        WeightedTrajectory(np.array([0.0, 0.2]), stack((u, u)) + np.array([[[0.0]], [[np.inf]]]),
                           None, MU, P)


def test_state_at_linear_interpolation():
    grid = Grid(1, 21)
    U = cos_field(grid)
    times = graded_times(K=40)
    traj = make_traj(times, lambda t: U * t, None, grid)
    # stored samples come back verbatim
    assert traj.state_at(times[7]) is traj.states[7]
    mid = traj.state_at(0.3)
    assert np.allclose(mid.values, 0.3 * U.values, atol=1e-12)
    with pytest.raises(ValueError):
        traj.state_at(1.5)


def test_difference_requires_matching_grids():
    grid = Grid(1, 9)
    U = cos_field(grid)
    ta = make_traj([0.0, 0.5, 1.0], lambda t: U * t, None, grid)
    tb = make_traj([0.0, 0.5, 1.0], lambda t: U * (2 * t), None, grid)
    d = difference(tb, ta)
    assert np.allclose(d.states[2].values, U.values)
    tc = make_traj([0.0, 0.4, 1.0], lambda t: U * t, None, grid)
    with pytest.raises(ValueError):
        difference(ta, tc)


# ---------------------------------------------------------------- quadrature

def test_E0_constant_matches_sigma():
    grid = Grid(1, 11)
    U = GridFunction.from_scalar(grid, np.ones(grid.shape))
    traj = make_traj(graded_times(), lambda t: U, None, grid)
    assert E0mu_norm(traj) == pytest.approx(weighted_time_factor(1.0, P, MU), rel=1e-6)


def test_E0_linear_state_closed_form():
    grid = Grid(1, 11)
    U = GridFunction.from_scalar(grid, np.ones(grid.shape))
    traj = make_traj(graded_times(), lambda t: U * t, None, grid)
    # integral of t^0.2 t^2 dt on (0,1) = 1/3.2
    assert E0mu_norm(traj) == pytest.approx(np.sqrt(1.0 / 3.2), rel=1e-6)


def test_E1_factorizes_into_closed_forms():
    grid = Grid(1, 41)
    h = grid.h
    U = cos_field(grid)
    traj = make_traj(graded_times(), lambda t: U * t, lambda t: U, grid)
    X = np.sqrt(0.5)
    X1 = X * (1.0 + np.sin(np.pi * h) / h + 2.0 / h ** 2 * (1.0 - np.cos(np.pi * h)))
    C = np.sqrt(1.0 / 3.2)
    sigma = weighted_time_factor(1.0, P, MU)
    expected = C * X + sigma * X + C * X1
    assert E1mu_norm(traj) == pytest.approx(expected, rel=1e-5)


def test_E1_requires_derivatives():
    grid = Grid(1, 9)
    U = cos_field(grid)
    traj = make_traj([0.0, 0.5, 1.0], lambda t: U * t, None, grid)
    with pytest.raises(ValueError):
        E1mu_norm(traj)
    E0mu_norm(traj)  # state norms fine without derivs


def test_interval_additivity_at_sample_points():
    grid = Grid(1, 9)
    U = cos_field(grid)
    times = graded_times(K=64)
    traj = make_traj(times, lambda t: U * (1.0 + t), None, grid)
    a = float(times[32])
    total = E0mu_norm(traj) ** P
    split = E0mu_norm(traj, (0.0, a)) ** P + E0mu_norm(traj, (a, 1.0)) ** P
    assert split == pytest.approx(total, rel=1e-12)
    with pytest.raises(ValueError):
        E0mu_norm(traj, (0.0, 2.0))
    with pytest.raises(ValueError):
        E0mu_norm(traj, (0.5, 0.5))


def test_with_mu_drops_weight():
    grid = Grid(1, 9)
    U = GridFunction.from_scalar(grid, np.ones(grid.shape))
    traj = make_traj(np.linspace(0.0, 1.0, 501), lambda t: U, None, grid)
    plain = traj.with_mu(1.0)
    assert E0mu_norm(plain) == pytest.approx(1.0, rel=1e-12)
    assert E0mu_norm(traj) < 1.0  # weight only shrinks mass near t = 0


def test_trajectory_arrays_are_read_only():
    grid = Grid(1, 9)
    U = cos_field(grid)
    states = stack((U, U * 0.5))
    traj = WeightedTrajectory(np.array([0.0, 1.0]), states, -states, MU, P)
    for arr in (traj.times, traj.state_values, traj.deriv_values,
                traj.states[0].values, traj.sample_norms("x1")):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    states[0] = 7.0                        # the caller's own array stays writable
    with pytest.raises(ValueError, match="no stored time derivatives"):
        WeightedTrajectory(np.array([0.0, 1.0]), states, None, MU, P).sample_norms("derivs")


def test_with_mu_shares_the_sample_norms():
    grid = Grid(1, 9)
    traj = make_traj([0.0, 0.5, 1.0], lambda t: cos_field(grid) * (1 + t),
                     lambda t: cos_field(grid), grid)
    E1mu_norm(traj, order=4)
    plain = traj.with_mu(1.0)
    assert plain.sample_norms("x1", 2.0, 4) is traj.sample_norms("x1", 2.0, 4)
    assert plain.mu == 1.0 and traj.mu == MU


@pytest.mark.parametrize("dim,order,passes", [(1, 2, 2), (1, 4, 4), (2, 2, 5), (2, 4, 14)])
def test_x1_norms_share_axis_passes(monkeypatch, dim, order, passes):
    from parabolab import norms
    calls = []
    derivative_values = norms.derivative_values

    def counted(values, grid, sigma, bc):
        calls.append(sigma)
        return derivative_values(values, grid, sigma, bc)

    monkeypatch.setattr(norms, "derivative_values", counted)
    grid = Grid(dim, 8)
    x1_norms(np.ones((3,) + grid.shape + (1,)), grid, 2.0, order)
    assert len(calls) == passes
    assert all(sum(1 for s in sigma if s) == 1 for sigma in calls)


def _draw_interval(data, T):
    lo = data.draw(st.floats(0.0, T), label="lo")
    hi = data.draw(st.floats(0.0, T), label="hi")
    if lo == hi:
        lo, hi = 0.0, T
    return (min(lo, hi), max(lo, hi))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_memoized_norms_equal_those_of_a_fresh_trajectory(data):
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = Grid(dim, data.draw(st.integers(8, 16 if dim == 1 else 10), label="nodes"))
    order = data.draw(st.sampled_from([2, 4]), label="order")
    bc = data.draw(st.sampled_from(list(BoundaryCondition)), label="bc")
    q = data.draw(st.sampled_from([2.0, 4.0]), label="q")
    K = data.draw(st.integers(2, 8), label="K")
    steps = data.draw(arrays(np.float64, K, elements=st.floats(0.01, 1.0)), label="steps")
    times = np.concatenate([[0.0], np.cumsum(steps)])
    shape = (K + 1,) + grid.shape + (1,)
    states = data.draw(arrays(np.float64, shape, elements=st.floats(-10, 10)), label="states")
    derivs = data.draw(arrays(np.float64, shape, elements=st.floats(-10, 10)), label="derivs")
    traj = WeightedTrajectory(times, states, derivs, MU, P)
    T = traj.horizon
    for _ in range(3):
        interval = _draw_interval(data, T)
        fresh = WeightedTrajectory(times.copy(), states.copy(), derivs.copy(), MU, P)
        assert E0mu_norm(traj, interval, q) == E0mu_norm(fresh, interval, q)
        fresh = WeightedTrajectory(times.copy(), states.copy(), derivs.copy(), MU, P)
        assert (E1mu_norm(traj, interval, q, order, bc)
                == E1mu_norm(fresh, interval, q, order, bc))
    # a sample times[k] lies inside the smoothing window (delta/2, delta)
    k = data.draw(st.integers(1, K - 1), label="k")
    delta = min(T, 1.5 * times[k])
    fresh = WeightedTrajectory(times.copy(), states.copy(), derivs.copy(), MU, P)
    assert (smoothing_check(traj, delta, q, order, bc)
            == smoothing_check(fresh, delta, q, order, bc))
    assert E1mu_norm(traj, None, q, order, bc) == E1mu_norm(fresh, None, q, order, bc)


# ---------------------------------------------------------------- smoothing

def test_smoothing_inequality_holds_on_decaying_trajectory():
    grid = Grid(1, 21)
    U = cos_field(grid)
    times = graded_times(K=200)
    traj = make_traj(times, lambda t: U * np.exp(-t), lambda t: U * (-np.exp(-t)), grid)
    rep = smoothing_check(traj, 0.5)
    assert rep.inequality_holds
    assert rep.weighted > 0.0 and rep.unweighted_tail > 0.0
    d = rep.as_dict()
    assert set(d) == {"delta", "weighted", "unweighted_tail", "inequality_holds"}


def test_smoothing_validation():
    grid = Grid(1, 9)
    U = cos_field(grid)
    traj = make_traj([0.0, 0.5, 1.0], lambda t: U, lambda t: U * 0.0, grid)
    with pytest.raises(ValueError):
        smoothing_check(traj, 2.0)
    with pytest.raises(ValueError):
        smoothing_check(traj, 0.1)  # (0.05, 0.1) holds no sample


# ---------------------------------------------------------------- proxy scale

def test_proxy_norm_theta_zero_is_l2():
    grid = Grid(1, 32)
    proxy = eigendecompose(reference_operator(grid, "second"))
    rng = np.random.default_rng(17)
    u = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    assert proxy_norm(u, 0.0, proxy) == pytest.approx(lq_norm(u, 2.0), abs=1e-10)
    with pytest.raises(ValueError):
        proxy_norm(u, 1.5, proxy)


def test_proxy_norm_rejects_non_orthonormal_basis():
    grid = Grid(1, 16)
    proxy = eigendecompose(reference_operator(grid, "second"), symmetric=False)
    assert not proxy.orthonormal
    u = cos_field(grid)
    with pytest.raises(ValueError):
        proxy_norm(u, 0.5, proxy)


def test_interpolation_constant_never_exceeds_one():
    grid = Grid(1, 32)
    proxy = eigendecompose(reference_operator(grid, "second"))
    x = grid.axis_coords()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        k1, k2 = rng.choice(np.arange(1, 16), size=2, replace=False)
        a, b = rng.normal(size=2)
        u = GridFunction.from_scalar(
            grid, a * np.cos(k1 * np.pi * x) + b * np.cos(k2 * np.pi * x))
        rep = verify_interpolation_inequality(u, beta=2.0 / 3.0, mu=MU, p=P, proxy=proxy)
        assert rep.alpha == pytest.approx(4.0 / 9.0, rel=1e-12)
        worst = max(worst, rep.holds_with_c)
        assert rep.holds_with_c <= 1.0 + 1e-8
    assert worst > 0.5  # the bound is active, not vacuous


def test_interpolation_equality_on_eigenvectors():
    # single spectral mode: Hoelder is tight, c = 1 exactly
    grid = Grid(1, 24)
    proxy = eigendecompose(reference_operator(grid, "second"))
    u = cos_field(grid, k=3, amp=0.7)
    rep = verify_interpolation_inequality(u, beta=0.6, mu=MU, p=P, proxy=proxy)
    assert rep.holds_with_c == pytest.approx(1.0, abs=1e-9)


def test_interpolation_argument_validation():
    grid = Grid(1, 16)
    proxy = eigendecompose(reference_operator(grid, "second"))
    u = cos_field(grid)
    with pytest.raises(ValueError):
        verify_interpolation_inequality(u, beta=0.2, mu=MU, p=P, proxy=proxy)
    with pytest.raises(ValueError):
        verify_interpolation_inequality(u, beta=0.6, mu=0.3, p=2.0, proxy=proxy)
