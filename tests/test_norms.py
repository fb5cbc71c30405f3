"""Weighted-norm oracles.

The time quadrature is checked against closed forms: for states f(t) U the
weighted integral factorizes into a time factor (an explicit power integral)
and a spatial factor.  The spatial factors are discretely exact for the
eigenmodes phi of the reference operator A_ref, because A_ref phi = lambda phi
holds node for node, so the X1 graph norm is

    |phi|_X1 = ||phi||_q + ||A_ref phi||_q = (1 + lambda) ||phi||_q

for every q; cos(k pi x) is a mode of the mirrored Neumann -Laplacian with
lambda = (4/h^2) sin^2(k pi h/2), and |cos(pi x)|_L2 = sqrt(1/2) under the
trapezoid rule.

Sampling on the graded grid t_k = (k/K)^2.5 makes the trapezoid pullback of
t^0.2 polynomial, so the quadrature converges at second order and K = 2000
reaches relative 1e-6 against the closed form.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import weighted_time_factor
from parabolab.grids import Grid, GridFunction, NonFiniteError
from parabolab.norms import (E0mu_norm, E1mu_norm, WeightedTrajectory,
                             difference, glue, lq_norms, proxy_norm,
                             smoothing_check, verify_interpolation_inequality,
                             x1_norm, x1_norms)
from parabolab.operators import STENCILS, eigendecompose, reference_operator

MU, P = 0.9, 2.0


def cos_field(grid, k=1, amp=1.0):
    return GridFunction.from_scalar(grid, amp * np.cos(k * np.pi * grid.axis_coords()))


def graded_times(T=1.0, K=2000, gamma=2.5):
    return T * (np.arange(K + 1) / K) ** gamma


def stack(fields):
    return np.stack([f.values for f in fields])


def make_traj(times, state_fn, deriv_fn, grid, mu=MU, p=P):
    """A trajectory of the nodal arrays ``state_fn(t)`` and ``deriv_fn(t)``."""
    states = np.stack([state_fn(t) for t in times])
    derivs = None if deriv_fn is None else np.stack([deriv_fn(t) for t in times])
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
    assert lq_norms(u.values, grid, 2.0) == pytest.approx(3.0, abs=1e-14)
    vals = np.zeros(grid.shape + (2,))
    vals[..., 0], vals[..., 1] = 3.0, 4.0
    uv = GridFunction(grid, vals)
    assert lq_norms(uv.values, grid, 2.0) == pytest.approx(5.0, abs=1e-13)
    assert lq_norms(uv.values, grid, 4.0) == pytest.approx(5.0, abs=1e-13)
    with pytest.raises(ValueError):
        lq_norms(u.values, grid, 0.5)


def neumann_eigenvalue(grid, k):
    """The eigenvalue of cos(k pi x) under the mirrored Neumann -Laplacian."""
    return 4.0 / grid.h ** 2 * np.sin(k * np.pi * grid.h / 2.0) ** 2


def test_x1_norm_cosine_closed_form():
    # 1D cosines, and a 2D product of cosines, whose eigenvalue is the sum
    line = Grid(1, 41)
    cases = [(cos_field(line, k), neumann_eigenvalue(line, k)) for k in (1, 3, 7)]
    grid = Grid(2, 17)
    x, y = grid.coords()
    product = GridFunction.from_scalar(grid, np.cos(2 * np.pi * x) * np.cos(5 * np.pi * y))
    cases.append((product, neumann_eigenvalue(grid, 2) + neumann_eigenvalue(grid, 5)))
    for u, lam in cases:
        for q in (1.0, 2.0, 3.5, 4.0):
            expected = (1.0 + lam) * lq_norms(u.values, u.grid, q)
            assert x1_norm(u, q, 2) == pytest.approx(expected, rel=1e-13)
    u, lam = cases[0]
    assert x1_norm(u, 2.0, 2) == pytest.approx(np.sqrt(0.5) * (1.0 + lam), rel=1e-13)
    with pytest.raises(ValueError):
        x1_norm(u, 2.0, 3)


@pytest.mark.parametrize("dim,nodes", [(1, 33), (2, 12)])
def test_x1_norm_of_clamped_modes_closed_form(dim, nodes):
    # the modes of the clamped bilaplacian vanish on the boundary, where
    # A_ref has no row
    grid = Grid(dim, nodes)
    proxy = eigendecompose(reference_operator(grid, "fourth"))
    unit = np.eye(len(proxy.eigenvalues))
    for k in (0, 4, len(proxy.eigenvalues) - 1):
        mode = proxy.synthesize(unit[k])
        for q in (1.0, 2.0, 4.0):
            expected = (1.0 + proxy.eigenvalues[k]) * lq_norms(mode.values, grid, q)
            assert x1_norm(mode, q, 4) == pytest.approx(expected, rel=1e-11)


def reference_lq(values, grid, q):
    """The per-sample L_q norm, written out."""
    mag = np.sqrt(np.sum(values ** 2, axis=-1))
    return float(np.sum(grid.trapezoid_weights() * mag ** q) ** (1.0 / q))


def reflected_derivative(vals, grid, axis, s):
    """D_axis^s of nodal values of shape ``(*grid.shape, ncomp)`` with np.pad
    reflection ghosts."""
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
    return out / grid.h ** s


def reference_x1(values, grid, q, order):
    """The per-sample X1 graph norm, A_ref written out with np.pad ghosts: the
    Neumann -Laplacian at order 2; at order 4 the bilaplacian of the field with
    its boundary values set to 0, read on the interior only."""
    axes = range(grid.dim)
    if order == 2:
        applied = -sum(reflected_derivative(values, grid, a, 2) for a in axes)
    else:
        interior = grid.interior_mask()[..., None]
        vals = np.where(interior, values, 0.0)
        applied = sum(reflected_derivative(vals, grid, a, 4) for a in axes)
        if grid.dim == 2:
            applied = applied + 2.0 * reflected_derivative(
                reflected_derivative(vals, grid, 0, 2), grid, 1, 2)
        applied = np.where(interior, applied, 0.0)
    return reference_lq(values, grid, q) + reference_lq(applied, grid, q)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_norms_match_per_sample_norms(data):
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = Grid(dim, data.draw(st.integers(8, 20 if dim == 1 else 11), label="nodes"))
    ncomp = data.draw(st.integers(1, 2), label="ncomp")
    q = data.draw(st.sampled_from([2.0, 4.0]), label="q")
    order = data.draw(st.sampled_from([2, 4]), label="order")
    samples = data.draw(st.integers(1, 4), label="samples")
    values = data.draw(arrays(np.float64, (samples,) + grid.shape + (ncomp,),
                              elements=st.floats(-1e3, 1e3)), label="values")
    lq = lq_norms(values, grid, q)
    x1 = x1_norms(values, grid, q, order)
    assert lq.shape == x1.shape == (samples,)
    for k in range(samples):
        u = GridFunction(grid, values[k])
        for stacked, single, ref in ((lq[k], lq_norms(values[k], grid, q), reference_lq(values[k], grid, q)),
                                     (x1[k], x1_norm(u, q, order),
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
    q = data.draw(st.sampled_from([1.0, 2.0, 3.0, 3.5]), label="q")
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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lq_norms_at_q4_are_within_roundoff_of_the_float_power(data):
    # q = 4 squares twice, an ulp or two from the float power per entry;
    # the magnitudes keep v**4 clear of underflow and overflow
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = Grid(dim, data.draw(st.integers(8, 12), label="nodes"))
    ncomp = data.draw(st.sampled_from([1, 2]), label="ncomp")
    samples = data.draw(st.integers(1, 3), label="samples")
    magnitude = st.just(0.0) | st.floats(1e-60, 1e60)
    element = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())
    values = data.draw(arrays(np.float64, (samples,) + grid.shape + (ncomp,),
                              elements=element), label="values")
    got = lq_norms(values, grid, 4.0)
    mag = np.sqrt(np.sum(values ** 2, axis=-1)) ** 4.0 * grid.trapezoid_weights()
    want = np.sum(mag, axis=tuple(range(-dim, 0))) ** 0.25
    assert np.all(np.abs(got - want) <= 4e-16 * want)


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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_non_finite_entry_anywhere_is_rejected_without_a_warning(data):
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = Grid(dim, data.draw(st.integers(8, 12), label="nodes"))
    shape = (data.draw(st.integers(2, 5), label="samples"),) + grid.shape + (
        data.draw(st.integers(1, 2), label="ncomp"),)
    times = np.linspace(0.0, 1.0, shape[0])
    states = data.draw(arrays(np.float64, shape, elements=st.floats(-1e300, 1e300)),
                       label="states")
    derivs = data.draw(arrays(np.float64, shape, elements=st.floats(-1e300, 1e300)),
                       label="derivs")
    bad = derivs if data.draw(st.booleans(), label="in derivs") else states
    bad[tuple(data.draw(st.integers(0, n - 1)) for n in shape)] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="^non-finite trajectory$"):
            WeightedTrajectory(times, states, derivs, MU, P)
        WeightedTrajectory(times, np.zeros(shape), np.zeros(shape), MU, P)


def test_building_a_trajectory_allocates_no_temporary_of_its_size():
    # an rd-2d sized window, 51 samples on 48^2 nodes: the finiteness check
    # reads the extremes rather than building a (51, 48, 48, 1) bool array
    grid = Grid(2, 48)
    times = np.linspace(0.0, 1.0, 51)
    states = np.random.default_rng(3).normal(size=(51,) + grid.shape + (1,))
    derivs = states[::-1].copy()
    tracemalloc.start()
    try:
        WeightedTrajectory(times, states, derivs, MU, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < states.size // 8


def test_state_at_linear_interpolation():
    grid = Grid(1, 21)
    U = cos_field(grid).values
    times = graded_times(K=40)
    traj = make_traj(times, lambda t: U * t, None, grid)
    # stored samples come back verbatim
    at = traj.states_at([times[7], 0.3])
    assert at.shape == (2,) + grid.shape + (1,)
    assert np.array_equal(at[0], traj.state_values[7])
    mid = at[1]
    assert np.allclose(mid, 0.3 * U, atol=1e-12)
    with pytest.raises(ValueError):
        traj.states_at([1.5])


def test_time_ranges_scale_with_a_short_horizon():
    # past the end of a run of 1e-13 by four horizons: outside, not within
    # an absolute slack of 1e-12
    grid = Grid(1, 9)
    U = cos_field(grid).values
    traj = make_traj(np.linspace(0.0, 1e-13, 5), lambda t: U * (1.0 + t), None, grid)
    with pytest.raises(ValueError, match="not covered"):
        E0mu_norm(traj, (0.0, 5e-13), 2.0)
    with pytest.raises(ValueError, match="outside trajectory range"):
        traj.states_at([5e-13])
    # the horizon itself, and a rounding past it, stay inside
    assert E0mu_norm(traj, (0.0, 1e-13 * (1.0 + 1e-15)), 2.0) == E0mu_norm(traj, None, 2.0)
    assert np.array_equal(traj.states_at([1e-13])[0], traj.state_values[-1])


def test_difference_requires_matching_grids():
    grid = Grid(1, 9)
    U = cos_field(grid).values
    ta = make_traj([0.0, 0.5, 1.0], lambda t: U * t, None, grid)
    tb = make_traj([0.0, 0.5, 1.0], lambda t: U * (2 * t), None, grid)
    d = difference(tb, ta)
    assert np.allclose(d.states[2].values, U)
    tc = make_traj([0.0, 0.4, 1.0], lambda t: U * t, None, grid)
    with pytest.raises(ValueError):
        difference(ta, tc)


@pytest.mark.parametrize("length", [1.0, 1e-13])
def test_glue_refuses_a_gap_of_one_window_at_any_time_scale(length):
    grid = Grid(1, 9)
    U = cos_field(grid).values
    window = make_traj([0.0, length / 2, length], lambda t: U, lambda t: U, grid)
    glued = glue([(0.0, window), (length, window)], MU, P)
    assert np.array_equal(glued.times, [0.0, length / 2, length, 1.5 * length, 2 * length])
    with pytest.raises(ValueError, match="windows do not abut"):
        glue([(0.0, window), (2 * length, window)], MU, P)


# ---------------------------------------------------------------- quadrature

def test_E0_constant_matches_sigma():
    grid = Grid(1, 11)
    U = GridFunction.from_scalar(grid, np.ones(grid.shape)).values
    traj = make_traj(graded_times(), lambda t: U, None, grid)
    assert E0mu_norm(traj, None, 2.0) == pytest.approx(weighted_time_factor(1.0, P, MU), rel=1e-6)


def test_E0_linear_state_closed_form():
    grid = Grid(1, 11)
    U = GridFunction.from_scalar(grid, np.ones(grid.shape)).values
    traj = make_traj(graded_times(), lambda t: U * t, None, grid)
    # integral of t^0.2 t^2 dt on (0,1) = 1/3.2
    assert E0mu_norm(traj, None, 2.0) == pytest.approx(np.sqrt(1.0 / 3.2), rel=1e-6)


def test_E1_factorizes_into_closed_forms():
    grid = Grid(1, 41)
    U = cos_field(grid).values
    traj = make_traj(graded_times(), lambda t: U * t, lambda t: U, grid)
    X = np.sqrt(0.5)
    X1 = X * (1.0 + neumann_eigenvalue(grid, 1))
    C = np.sqrt(1.0 / 3.2)
    sigma = weighted_time_factor(1.0, P, MU)
    expected = C * X + sigma * X + C * X1
    assert E1mu_norm(traj, q=2.0, order=2) == pytest.approx(expected, rel=1e-5)


def test_E1_requires_derivatives():
    grid = Grid(1, 9)
    U = cos_field(grid).values
    traj = make_traj([0.0, 0.5, 1.0], lambda t: U * t, None, grid)
    with pytest.raises(ValueError):
        E1mu_norm(traj, q=2.0, order=2)
    E0mu_norm(traj, None, 2.0)  # state norms fine without derivs


def test_interval_additivity_at_sample_points():
    grid = Grid(1, 9)
    U = cos_field(grid).values
    times = graded_times(K=64)
    traj = make_traj(times, lambda t: U * (1.0 + t), None, grid)
    a = float(times[32])
    total = E0mu_norm(traj, None, 2.0) ** P
    split = E0mu_norm(traj, (0.0, a), 2.0) ** P + E0mu_norm(traj, (a, 1.0), 2.0) ** P
    assert split == pytest.approx(total, rel=1e-12)
    with pytest.raises(ValueError):
        E0mu_norm(traj, (0.0, 2.0), 2.0)
    with pytest.raises(ValueError):
        E0mu_norm(traj, (0.5, 0.5), 2.0)


def test_with_mu_drops_weight():
    grid = Grid(1, 9)
    U = GridFunction.from_scalar(grid, np.ones(grid.shape)).values
    traj = make_traj(np.linspace(0.0, 1.0, 501), lambda t: U, None, grid)
    plain = traj.with_mu(1.0)
    assert E0mu_norm(plain, None, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert E0mu_norm(traj, None, 2.0) < 1.0  # weight only shrinks mass near t = 0


def test_trajectory_arrays_are_read_only():
    grid = Grid(1, 9)
    U = cos_field(grid).values
    states = np.stack((U, U * 0.5))
    traj = WeightedTrajectory(np.array([0.0, 1.0]), states, -states, MU, P)
    for arr in (traj.times, traj.state_values, traj.deriv_values,
                traj.states[0].values, traj.sample_norms("x1", 2.0)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    states[0] = 7.0                        # the caller's own array stays writable
    with pytest.raises(ValueError, match="no stored time derivatives"):
        WeightedTrajectory(np.array([0.0, 1.0]), states, None, MU, P).sample_norms("derivs", 2.0)


def test_with_mu_shares_the_sample_norms():
    grid = Grid(1, 9)
    traj = make_traj([0.0, 0.5, 1.0], lambda t: cos_field(grid).values * (1 + t),
                     lambda t: cos_field(grid).values, grid)
    E1mu_norm(traj, q=2.0, order=4)
    plain = traj.with_mu(1.0)
    assert plain.sample_norms("x1", 2.0, 4) is traj.sample_norms("x1", 2.0, 4)
    assert plain.mu == 1.0 and traj.mu == MU


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_x1_memo_equals_x1_norms_bitwise(data):
    # the memo starts from the states' L_q norms, the first term of the graph norm
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = Grid(dim, data.draw(st.integers(8, 16 if dim == 1 else 10), label="nodes"))
    ncomp = data.draw(st.integers(1, 2), label="ncomp")
    q = data.draw(st.sampled_from([1.0, 2.0, 4.0]), label="q")
    order = data.draw(st.sampled_from([2, 4]), label="order")
    samples = data.draw(st.integers(2, 4), label="samples")
    values = data.draw(arrays(np.float64, (samples,) + grid.shape + (ncomp,),
                              elements=st.floats(-1e3, 1e3)), label="values")
    traj = WeightedTrajectory(np.linspace(0.0, 1.0, samples), values, None, MU, P)
    states_first = data.draw(st.booleans(), label="states_first")
    if states_first:
        states = traj.sample_norms("states", q)
    memo = traj.sample_norms("x1", q, order)
    assert memo.tobytes() == x1_norms(values, grid, q, order).tobytes()
    # the states' vector is left as it was, and is the memo's own
    assert traj.sample_norms("states", q).tobytes() == lq_norms(values, grid, q).tobytes()
    if states_first:
        assert traj.sample_norms("states", q) is states


@pytest.mark.parametrize("dim,order,samples", [(1, 2, 3), (1, 4, 5), (2, 2, 6), (2, 4, 15)])
def test_E1mu_norm_takes_the_states_norm_once(monkeypatch, dim, order, samples):
    # one lq_norms call each for the states, the derivatives and A_ref u,
    # whatever the number of samples; the graph norm's ||u||_q is the states'
    import parabolab.norms as norms

    grid = Grid(dim, 8)
    field = np.ones(grid.shape + (1,))
    states = np.stack([(1.0 + k % 2) * field for k in range(samples)])
    traj = WeightedTrajectory(np.linspace(0.0, 1.0, samples), states, -states, MU, P)
    calls = []
    lq = norms.lq_norms
    monkeypatch.setattr(norms, "lq_norms", lambda *a, **k: calls.append(1) or lq(*a, **k))
    E1mu_norm(traj, q=2.0, order=order)
    assert len(calls) == 3


def test_x1_norms_take_one_product_per_stack(monkeypatch):
    from parabolab.operators import Diagonals
    calls = []
    dot = Diagonals.dot

    def counted(self, x):
        calls.append(x.shape)
        return dot(self, x)

    monkeypatch.setattr(Diagonals, "dot", counted)
    for dim in (1, 2):
        grid = Grid(dim, 8)
        for order in (2, 4):
            for ncomp in (1, 2):
                calls.clear()
                x1_norms(np.ones((3,) + grid.shape + (ncomp,)), grid, 2.0, order)
                n_active = reference_operator(grid, "second" if order == 2 else "fourth").n_active
                assert calls == [(3, ncomp, n_active)]


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
        assert (E1mu_norm(traj, interval, q=q, order=order)
                == E1mu_norm(fresh, interval, q=q, order=order))
    # a sample times[k] lies inside the smoothing window (delta/2, delta)
    k = data.draw(st.integers(1, K - 1), label="k")
    delta = min(T, 1.5 * times[k])
    fresh = WeightedTrajectory(times.copy(), states.copy(), derivs.copy(), MU, P)
    assert (smoothing_check(traj, delta, q, order)
            == smoothing_check(fresh, delta, q, order))
    assert E1mu_norm(traj, None, q=q, order=order) == E1mu_norm(fresh, None, q=q, order=order)


# ---------------------------------------------------------------- smoothing

def test_smoothing_inequality_holds_on_decaying_trajectory():
    grid = Grid(1, 21)
    U = cos_field(grid).values
    times = graded_times(K=200)
    traj = make_traj(times, lambda t: U * np.exp(-t), lambda t: U * (-np.exp(-t)), grid)
    rep = smoothing_check(traj, 0.5, 2.0, 2)
    assert rep.inequality_holds
    assert rep.weighted > 0.0 and rep.unweighted_tail > 0.0
    d = rep.as_dict()
    assert set(d) == {"delta", "weighted", "unweighted_tail", "inequality_holds"}


def test_smoothing_validation():
    grid = Grid(1, 9)
    U = cos_field(grid).values
    traj = make_traj([0.0, 0.5, 1.0], lambda t: U, lambda t: U * 0.0, grid)
    with pytest.raises(ValueError):
        smoothing_check(traj, 2.0, 2.0, 2)
    with pytest.raises(ValueError):
        smoothing_check(traj, 0.1, 2.0, 2)  # (0.05, 0.1) holds no sample


# ---------------------------------------------------------------- proxy scale

def test_proxy_norm_theta_zero_is_l2():
    grid = Grid(1, 32)
    proxy = eigendecompose(reference_operator(grid, "second"))
    rng = np.random.default_rng(17)
    u = GridFunction.from_scalar(grid, rng.normal(size=grid.shape))
    assert proxy_norm(u, 0.0, proxy) == pytest.approx(lq_norms(u.values, grid, 2.0), abs=1e-10)
    with pytest.raises(ValueError):
        proxy_norm(u, 1.5, proxy)


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
