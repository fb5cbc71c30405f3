"""Symbol positivity and boundary-determinant oracles.

Frozen values derived by hand from (z^2 - b)^2 = -lambda:

    b = 1, lambda = 1:  s = sqrt(-1) = i, stable roots -sqrt(1 +- i),
        sqrt(1 + i) = 2^(1/4) (cos(pi/8) + i sin(pi/8)),
        |det| = |z2 - z1| = 2 * 2^(1/4) * sin(pi/8) = 0.91017972...

    lambda = 0: double root -sqrt(b), determinant 1 in the confluent basis,
        normalized value 1 / (2 sqrt(b)).

Interior symbol at |g| = 3 along g: (1 - 9/10)^2 = 1/100, the sharp bound.
"""

from __future__ import annotations

import cmath
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parabolab.symbols import (_boundary_roots, coarse_ellipticity_bound,
                               default_lambda_grid, ellipticity_scan, ls_scan,
                               sharp_ellipticity_bound)


def ls_point(b: float, lam: complex) -> tuple:
    """(stable roots, confluent, |det|, residuals) at one point, from the
    array kernel that ``ls_scan`` runs, as Python numbers."""
    z1, z2, confluent, det, (r1, r2) = _boundary_roots(np.array([b]), np.array([lam]))
    return ((complex(z1[0]), complex(z2[0])), bool(confluent[0]), float(det[0]),
            (float(r1[0]), float(r2[0])))


# ---------------------------------------------------------------- interior

def test_bound_ordering():
    assert coarse_ellipticity_bound(0.0) == pytest.approx(1.0)
    assert sharp_ellipticity_bound(0.0) == pytest.approx(1.0)
    assert sharp_ellipticity_bound(1.0) == pytest.approx(0.25, rel=1e-14)
    rng = np.random.default_rng(3)
    for g in rng.uniform(0.01, 10.0, size=40):
        # the sharp bound dominates the coarse one away from g = 0
        assert coarse_ellipticity_bound(g) < sharp_ellipticity_bound(g)


def test_scan_attains_sharp_bound_on_aligned_direction():
    theta = 2.0 * np.pi * 5.0 / 64.0  # direction 5 of the 64-point fan
    g = 3.0 * np.array([np.cos(theta), np.sin(theta)])
    rep = ellipticity_scan([g, [0.1, 0.0]])
    assert rep.min_ratio == pytest.approx(1.0 / 100.0, rel=1e-12)
    assert rep.min_ratio == pytest.approx(rep.sharp_bound, rel=1e-12)
    assert rep.argmin_sample == 0
    assert rep.max_gradient == pytest.approx(3.0)


def test_scan_1d_exact():
    rep = ellipticity_scan(np.array([[0.5], [-2.0], [1.0]]))
    assert rep.max_gradient == pytest.approx(2.0)
    assert rep.min_ratio == pytest.approx(1.0 / 25.0, rel=1e-12)


def test_scan_min_respects_bounds():
    rng = np.random.default_rng(5)
    for _ in range(30):
        samples = rng.normal(scale=1.5, size=(rng.integers(1, 40), 2))
        rep = ellipticity_scan(samples)
        assert rep.min_ratio >= rep.sharp_bound - 1e-12
        assert rep.sharp_bound > rep.coarse_bound - 1e-12
        assert rep.min_ratio > 0.0


# ---------------------------------------------------------------- boundary

def test_ls_roots_frozen_b1_lambda1():
    roots, confluent, det, residuals = ls_point(1.0, 1.0)
    r = 2.0 ** 0.25
    expected = [-r * complex(np.cos(np.pi / 8), np.sin(np.pi / 8)),
                -r * complex(np.cos(np.pi / 8), -np.sin(np.pi / 8))]
    got = sorted(roots, key=lambda z: z.imag)
    want = sorted(expected, key=lambda z: z.imag)
    for a, c in zip(got, want):
        assert abs(a - c) < 1e-12
    assert det == pytest.approx(2.0 ** 1.25 * np.sin(np.pi / 8), rel=1e-12)
    assert det == pytest.approx(0.9101797211244548, rel=1e-12)
    assert not confluent
    assert max(residuals) < 1e-12


def test_ls_confluent_lambda_zero():
    roots, confluent, det, _residuals = ls_point(4.0, 0.0)
    assert confluent
    assert roots[0] == roots[1] == -2.0
    assert det == 1.0
    # normalized value 1/(2 sqrt(b))
    scan = ls_scan([4.0], [0.0])
    assert scan.min_normalized == pytest.approx(0.25, rel=1e-14)


def test_ls_roots_validation():
    with pytest.raises(ValueError):
        ls_point(0.0, 1.0)
    with pytest.raises(ValueError):
        ls_point(-1.0, 1.0)
    with pytest.raises(ValueError):
        ls_point(1.0, complex(-0.1, 0.0))
    # the quartic overflows
    with pytest.raises(ArithmeticError):
        ls_point(1e200, 1.0)


def test_ls_roots_property_two_stable_roots():
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = float(10.0 ** rng.uniform(-3, 3))
        r = float(10.0 ** rng.uniform(-6, 6))
        phase = float(rng.uniform(-np.pi / 2, np.pi / 2))
        lam = complex(r * np.cos(phase), r * np.sin(phase))
        roots, _confluent, det, residuals = ls_point(b, lam)
        assert len(roots) == 2
        for z in roots:
            assert z.real < 0.0
        assert max(residuals) < 1e-9
        assert det > 0.0


def test_ls_purely_imaginary_lambda():
    # Re lambda = 0, lambda != 0 stays uniformly solvable
    for r in (1e-3, 1.0, 1e6):
        roots, _confluent, det, _residuals = ls_point(2.0, complex(0.0, r))
        assert all(z.real < 0 for z in roots)
        assert det > 0.0


def test_ls_scan_default_grid_positive():
    bs = np.geomspace(1e-3, 1e3, 7)
    lams = default_lambda_grid(12)
    rep = ls_scan(bs, lams)
    assert rep.n_evaluated == len(bs) * len(lams)
    assert rep.min_normalized > 0.0
    assert rep.max_residual < 1e-9
    # argmin must be a grid point
    assert any(abs(rep.argmin_b - b) < 1e-12 for b in bs)
    with pytest.raises(ValueError):
        ls_scan([], lams)


def test_ls_det_shrinks_with_lambda_but_never_vanishes():
    dets = [ls_point(1.0, complex(m, 0.0))[2] for m in (1e-2, 1e-4, 1e-6)]
    assert dets[0] > dets[1] > dets[2] > 0.0
    # confluent limit switches basis and jumps back to 1
    assert ls_point(1.0, 0.0)[2] == 1.0


def test_default_lambda_grid_contents():
    grid = default_lambda_grid(12)
    assert grid[0] == 0j
    assert len(grid) == 1 + 12 * 9
    assert all(z.real >= -1e-12 for z in grid)


def test_reports_serialize():
    e = ellipticity_scan([[0.3, 0.4]])
    s = ls_scan([1.0, 2.0], [0.0, 1.0])
    for d in (e.as_dict(), s.as_dict()):
        json.dumps(d)


def test_root_pair_matches_numpy_quartic():
    # cross-check against the generic polynomial solver
    rng = np.random.default_rng(11)
    for _ in range(25):
        b = float(10.0 ** rng.uniform(-2, 2))
        lam = complex(rng.uniform(0, 10), rng.uniform(-10, 10))
        if lam == 0:
            continue
        roots = ls_point(b, lam)[0]
        all_roots = np.roots([1.0, 0.0, -2.0 * b, 0.0, b * b + lam])
        stable = sorted([z for z in all_roots if z.real < 0], key=lambda z: z.imag)
        got = sorted(roots, key=lambda z: z.imag)
        assert len(stable) == 2
        for a, c in zip(got, stable):
            assert abs(a - c) < 1e-6 * max(1.0, abs(c))


# ---------------------------------------------------------------- array kernel

def _reference_residual(z: complex, b: float, lam: complex) -> float:
    num = abs(z ** 4 - 2.0 * b * z ** 2 + (b * b + lam))
    scale = abs(z) ** 4 + 2.0 * b * abs(z) ** 2 + abs(b * b + lam)
    return num / max(scale, 1e-300)


def _reference_roots(b: float, lam: complex) -> tuple:
    """(roots, confluent, |det|, residuals) at one point, in Python's complex
    arithmetic: the per-point reference of the array kernel."""
    if lam == 0:
        z = -cmath.sqrt(b)
        roots, confluent, det = (z, z), True, 1.0
    else:
        s = cmath.sqrt(-lam)
        roots, confluent = (-cmath.sqrt(b + s), -cmath.sqrt(b - s)), False
        det = abs(roots[1] - roots[0])
    return roots, confluent, det, tuple(_reference_residual(z, b, lam) for z in roots)


def _reference_scan(bs, lams) -> dict:
    best, max_res = None, 0.0
    for b in bs:
        for lam in lams:
            roots, _confluent, det, residuals = _reference_roots(b, lam)
            max_res = max(max_res, max(residuals))
            val = det / sum(abs(z) for z in roots)
            if best is None or val < best[0]:
                best = (val, b, lam)
    return {"min_normalized": best[0], "argmin_b": best[1],
            "argmin_lambda": [best[2].real, best[2].imag],
            "n_evaluated": len(bs) * len(lams), "max_residual": max_res}


_B = st.floats(1e-300, 1e150)
# Re lambda >= 0: zero of either sign, purely imaginary, and general
_LAMBDA = st.one_of(
    st.sampled_from([0j, complex(0.0, -0.0), complex(-0.0, 0.0)]),
    st.floats(-1e300, 1e300).map(lambda r: complex(0.0, r)),
    st.builds(complex, st.floats(0.0, 1e300), st.floats(-1e300, 1e300)),
)


@settings(max_examples=300, deadline=None)
@given(b=_B, lam=_LAMBDA)
@example(b=3.17e91, lam=1.72j)
@example(b=1e-300, lam=complex(0.0, -0.0))
def test_ls_roots_equals_the_per_point_reference_bitwise(b, lam):
    # repr tells every float apart, the signed zeros of the roots included,
    # and True from 1
    assert repr(ls_point(b, lam)) == repr(_reference_roots(b, lam))


@settings(max_examples=100, deadline=None)
@given(bs=st.lists(_B, min_size=1, max_size=6),
       lams=st.lists(_LAMBDA, min_size=1, max_size=6))
@example(bs=[1.0, 1.0], lams=[1.0, 1.0])
def test_ls_scan_equals_the_per_point_reference_bitwise(bs, lams):
    assert repr(ls_scan(bs, lams).as_dict()) == repr(_reference_scan(bs, lams))
