"""Desk-scale acceptance gates, one test per numbered criterion.

Each test checks a full stack of behavior at a stated tolerance and prints a
single summary line; run with -v to see one pass/fail line per criterion.
Oracles are closed forms (heat kernel eigenmodes, plate eigenpairs, weighted
power integrals) or exact rational arithmetic; nothing is compared against a
stored regression value that was not derived independently first.
"""

from __future__ import annotations

import csv
import json
import time
from fractions import Fraction

import numpy as np

from conftest import surface_fields, weighted_time_factor
from parabolab.checkpoint import load_trajectory
from parabolab.cli import main as cli_main
from parabolab.evolution import (AbstractProblem, FixedPointConfig,
                                 continue_solution, fixed_point_solve,
                                 graded_times, omega_limit)
from parabolab.exponents import (DEFAULT_EPSILON, ExponentConfig, StructureExponents,
                                 beta_window, check_dimensional,
                                 check_F2_exponents)
from parabolab.geometry import surface_diffusion_rhs, willmore_rhs
from parabolab.grids import Grid, GridFunction
from parabolab.norms import E0mu_norm, WeightedTrajectory, verify_interpolation_inequality
from parabolab.operators import (BoundaryCondition, derivative,
                                 eigendecompose, reference_operator)
from parabolab.problems import (FlowSpec, PolynomialMap,
                                ReactionDiffusionSpec, flow_problem,
                                linear_heat_spec, rd_problem)
from parabolab.symbols import coarse_ellipticity_bound, ellipticity_scan, ls_scan

MU, P = 0.9, 2.0


def report(num, slug, detail):
    print(f"[criterion {num:02d}] {slug}: PASS ({detail})")


def zero_rhs(v):
    return GridFunction.from_scalar(v.grid, np.zeros(v.grid.shape))


def nonlinear_diffusion_spec(grid):
    # du/dt = a(u) Lap u + a'(u)|grad u|^2 with a(u) = 1 + u^2
    return ReactionDiffusionSpec(
        grid=grid, ncomp=1,
        a=PolynomialMap.from_table([[[1.0, 0.0, 1.0]]], shape=(1, 1), nvars=1),
        f=PolynomialMap.constant(np.zeros(1)),
        b=PolynomialMap.from_table([[[[0.0, 2.0]]]], shape=(1, 1, 1), nvars=1),
        u_box=np.array([[-3.0, 3.0]]), name="nonlinear-diffusion")


def square_problem(nodes=17):
    # du/dt = Lap u + u^2; constants follow du/dt = u^2 with blow-up at 1/u0
    grid = Grid(1, nodes)
    spec = ReactionDiffusionSpec(
        grid=grid, ncomp=1,
        a=PolynomialMap.constant(np.array([[1.0]])),
        f=PolynomialMap.from_table([[0.0, 0.0, 1.0]], shape=(1,), nvars=1),
        b=PolynomialMap.constant(np.zeros((1, 1, 1))),
        u_box=np.array([[-1e12, 1e12]]), name="square")
    return grid, rd_problem(spec)


def trapezoid_mass(u):
    w = np.full(u.grid.nodes_per_axis, u.grid.h)
    w[0] = w[-1] = u.grid.h / 2.0
    return float(np.sum(w * u.scalar))


def test_criterion_01_exponent_suite():
    start = time.monotonic()
    second = ExponentConfig(p=2, q=2, n=1, mu=Fraction(9, 10), order="second")
    fourth = ExponentConfig(p=2, q=2, n=1, mu=Fraction(19, 20), order="fourth")
    assert check_dimensional(second).mu0 == Fraction(3, 4)
    assert check_dimensional(fourth).mu0 == Fraction(7, 8)

    # the two growth-pair ratios coincide and reduce to beta < (1 + mu - 1/p)/2
    checked = 0
    for p in (2, 3, Fraction(5, 2)):
        for q in (2, 3):
            for n in (1, 2):
                for mu_num in range(7, 11):
                    mu = Fraction(mu_num, 10)
                    if not mu > Fraction(1, 1) / p:
                        continue
                    cfg = ExponentConfig(p=p, q=q, n=n, mu=mu, order="second")
                    m = cfg.trace_exponent
                    for k in range(1, 40):
                        beta = Fraction(k, 40)
                        if not m < beta < 1:
                            continue
                        se = StructureExponents.for_problem(cfg, beta, DEFAULT_EPSILON)
                        rep = check_F2_exponents(cfg, se)
                        assert rep.ratios[0] == rep.ratios[1]
                        assert rep.all_pass == (beta < (1 + m) / 2)
                        checked += 1
    assert checked > 200

    win = beta_window(second, DEFAULT_EPSILON)
    assert (win.lo, win.hi) == (Fraction(5, 8), Fraction(7, 10))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, "exponent-suite", f"{checked} symbolic cells, {elapsed:.2f}s")


def test_criterion_02_weighted_norm_oracle():
    start = time.monotonic()
    grid = Grid(1, 17)
    T, s = 1.0, 0.2
    gamma = 1.0 / (MU - 1.0 / P)
    errs_const, errs_power = [], []
    for K in (600, 6000):
        times = graded_times(T, K, gamma)
        const_states = np.full((len(times),) + grid.shape + (1,), 2.5)
        traj = WeightedTrajectory(times, const_states, np.zeros_like(const_states), MU, P)
        target = 2.5 * weighted_time_factor(T, P, MU)
        errs_const.append(abs(E0mu_norm(traj, None, 2.0) - target) / target)

        power_states = np.stack([np.full(grid.shape + (1,), t ** s) for t in times])
        ptraj = WeightedTrajectory(times, power_states, np.zeros_like(power_states), MU, P)
        expo = (1.0 - MU + s) * P + 1.0
        ptarget = T ** (expo / P) / expo ** (1.0 / P)
        errs_power.append(abs(E0mu_norm(ptraj, None, 2.0) - ptarget) / ptarget)
    assert errs_const[1] <= 1e-6 and errs_const[1] < errs_const[0] / 10
    assert errs_power[1] <= 1e-6 and errs_power[1] < errs_power[0] / 10
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, "weighted-norm-oracle",
           f"const rel {errs_const[1]:.1e}, power rel {errs_power[1]:.1e}")


def test_criterion_03_interpolation_constant():
    grid = Grid(1, 33)
    proxy = eigendecompose(reference_operator(grid, "second"))
    rng = np.random.default_rng(303)
    beta = 0.65
    n_modes = len(proxy.eigenvalues)
    worst = 0.0
    for _ in range(100):
        i, j = rng.choice(np.arange(1, n_modes), size=2, replace=False)
        coeffs = np.zeros((n_modes, 1))
        coeffs[i, 0] = rng.uniform(0.2, 2.0)
        coeffs[j, 0] = rng.uniform(0.2, 2.0)
        u = proxy.synthesize(coeffs)
        rep = verify_interpolation_inequality(u, beta, MU, P, proxy)
        c = rep.lhs / rep.rhs_product
        worst = max(worst, c)
        assert c <= 1.0 + 1e-8
    report(3, "interpolation-constant", f"largest c = {worst:.10f}")


def test_criterion_04_linear_oracle_orders():
    start = time.monotonic()
    T = 0.1
    heat_errs = []
    for nodes in (33, 65, 129):
        grid = Grid(1, nodes)
        prob = rd_problem(linear_heat_spec(grid))
        x = grid.axis_coords()
        u0 = GridFunction.from_scalar(grid, np.cos(np.pi * x))
        cfg = FixedPointConfig(window=T, time_steps=(nodes - 1) ** 2 // 4,
                               mu=MU, p=P, tol=1e-12)
        state = continue_solution(u0, prob, cfg, horizon=T)
        exact = np.exp(-np.pi ** 2 * T) * np.cos(np.pi * x)
        heat_errs.append(np.max(np.abs(state.trajectory.states[-1].scalar - exact)))
    heat_orders = [np.log2(heat_errs[i] / heat_errs[i + 1]) for i in range(2)]
    assert min(heat_orders) >= 1.9

    Tp = 0.01
    plate_errs = []
    for nodes in (33, 65, 129):
        grid = Grid(1, nodes)
        op = reference_operator(grid, "fourth")
        proxy = eigendecompose(op)
        lam1 = float(proxy.eigenvalues[0])
        coeffs = np.zeros((len(proxy.eigenvalues), 1))
        coeffs[0, 0] = 1.0
        phi = proxy.synthesize(coeffs)
        u0 = GridFunction.from_scalar(grid, phi.scalar / np.max(np.abs(phi.scalar)))
        prob = AbstractProblem(assemble_A=lambda v, op=op: op, F1=zero_rhs,
                               F2=zero_rhs, bc=BoundaryCondition.CLAMPED,
                               order="fourth", name="plate")
        cfg = FixedPointConfig(window=Tp, time_steps=(nodes - 1) ** 2 // 4,
                               mu=MU, p=P, tol=1e-13)
        state = continue_solution(u0, prob, cfg, horizon=Tp)
        exact = np.exp(-lam1 * Tp) * u0.scalar
        plate_errs.append(np.max(np.abs(state.trajectory.states[-1].scalar - exact)))
    plate_orders = [np.log2(plate_errs[i] / plate_errs[i + 1]) for i in range(2)]
    assert min(plate_orders) >= 1.9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(4, "linear-oracle-orders",
           f"heat {heat_orders[0]:.2f}/{heat_orders[1]:.2f}, "
           f"plate {plate_orders[0]:.2f}/{plate_orders[1]:.2f}, {elapsed:.1f}s")


def test_criterion_05_contraction():
    start = time.monotonic()
    grid = Grid(1, 65)
    prob = rd_problem(nonlinear_diffusion_spec(grid))
    x = grid.axis_coords()
    u0 = GridFunction.from_scalar(grid, 0.1 * np.cos(np.pi * x))
    cfg = FixedPointConfig(window=0.05, time_steps=20, mu=MU, p=P, tol=1e-11)
    state = continue_solution(u0, prob, cfg, horizon=0.2)
    assert len(state.windows) >= 2
    factors = [f for w in state.windows for f in w.contraction_factors]
    assert max(factors) <= 0.5
    assert max(w.halvings for w in state.windows) <= 3

    # a window wider than the existence time is rejected in at most 3 halvings
    sgrid, sprob = square_problem()
    hostile = FixedPointConfig(window=1.0, time_steps=20, mu=MU, p=P,
                               max_iter=40, tol=1e-8, blowup_threshold=1e12)
    st = fixed_point_solve(GridFunction.from_scalar(sgrid, np.full(sgrid.shape, 2.0)),
                           sprob, hostile)
    assert st.converged and 1 <= st.halvings <= 3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(5, "contraction",
           f"max factor {max(factors):.2e}, hostile halvings {st.halvings}, "
           f"{elapsed:.1f}s")


def test_criterion_06_mass_conservation():
    drifts = []
    for nodes in (33, 65, 129):
        grid = Grid(1, nodes)
        prob = rd_problem(nonlinear_diffusion_spec(grid))
        x = grid.axis_coords()
        u0 = GridFunction.from_scalar(grid, 1.0 + 0.5 * np.cos(np.pi * x))
        cfg = FixedPointConfig(window=0.05, time_steps=50, mu=MU, p=P, tol=1e-11)
        state = continue_solution(u0, prob, cfg, horizon=0.1)
        traj = state.trajectory
        m0 = trapezoid_mass(traj.states[0])
        drifts.append(abs(trapezoid_mass(traj.states[-1]) - m0) / abs(m0))
    assert drifts[-1] <= 1e-3
    orders = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9
    report(6, "mass-conservation",
           f"drift at 129 nodes {drifts[-1]:.2e}, orders "
           f"{orders[0]:.2f}/{orders[1]:.2f}")


def test_criterion_07_geometry_identities():
    rng = np.random.default_rng(707)
    for nodes in (65, 129):
        grid = Grid(1, nodes)
        x = grid.axis_coords()
        env = np.sin(np.pi * x) ** 2
        for _ in range(10):
            amp = rng.uniform(0.1, 0.6)
            prof = amp * env * (1.0 + 0.3 * np.sin(2 * np.pi * rng.integers(1, 4) * x
                                                   + rng.uniform(0, 2 * np.pi)))
            beta, nu, H, trL2 = surface_fields(GridFunction.from_scalar(grid, prof))
            assert np.max(np.abs(trL2 - H ** 2)) <= 1e-10
            assert np.max(np.abs(np.linalg.norm(nu, axis=-1) - 1.0)) <= 1e-10
            assert np.all(beta > 0.0) and np.all(beta <= 1.0 + 1e-10)

    grid2 = Grid(2, 129)
    xs = grid2.axis_coords()
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    h2 = GridFunction.from_scalar(grid2, ((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 2.0)
    vertex = surface_fields(h2).trace_L_sq[64, 64]
    assert abs(vertex - 2.0) <= 1e-3
    report(7, "geometry-identities", f"paraboloid vertex {vertex:.6f}")


def test_criterion_08_symbol_and_boundary_scan():
    start = time.monotonic()
    rng = np.random.default_rng(808)
    grads = rng.uniform(-2.0, 2.0, size=(1000, 2))
    scan = ellipticity_scan(grads)
    gmax = float(np.max(np.linalg.norm(grads, axis=1)))
    bound = coarse_ellipticity_bound(gmax)
    assert scan.min_ratio >= bound
    assert scan.min_ratio - bound > 0.0

    mags = np.logspace(-6, 6, 13)
    phases = np.linspace(-np.pi / 2, np.pi / 2, 9)
    lams = [0j] + [complex(m * np.cos(ph), m * np.sin(ph))
                   for m in mags for ph in phases]
    rep = ls_scan(np.logspace(-6, 6, 25), lams)
    assert rep.min_normalized > 0.0
    assert rep.max_residual <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(8, "symbol-and-boundary-scan",
           f"ellipticity margin {scan.min_ratio - bound:.2e}, "
           f"min det {rep.min_normalized:.2e}, {elapsed:.2f}s")


def test_criterion_09_lower_order_remainder():
    # probes with unit tilt: amplitude 1/k keeps |grad h| fixed while the
    # leading part still grows like k^4 per derivative count
    grid = Grid(1, 257)
    x = grid.axis_coords()
    ks = np.arange(4, 17)
    slopes = {}
    for kind in ("surface_diffusion", "willmore"):
        prob = flow_problem(FlowSpec(grid=grid, kind=kind))
        mags = []
        for k in ks:
            h = GridFunction.from_scalar(grid,
                                         (1e-3 / k) * np.sin(k * np.pi * x) ** 2)
            mags.append(np.max(np.abs(prob.F2(h).values)))
        slopes[kind] = float(np.polyfit(np.log(ks), np.log(mags), 1)[0])
        assert slopes[kind] <= 3.3
    report(9, "lower-order-remainder",
           f"fitted exponents {slopes['surface_diffusion']:.2f} (surface "
           f"diffusion), {slopes['willmore']:.2f} (willmore)")


def test_criterion_10_flow_linearization():
    grid = Grid(1, 257)
    x = grid.axis_coords()
    amp = 1e-5
    h = GridFunction.from_scalar(grid, amp * np.sin(np.pi * x) ** 2)
    d2 = derivative(h, (2,))
    target = -derivative(d2, (2,)).scalar
    scale = np.max(np.abs(target))
    rels = {}
    for name, fn in (("surface_diffusion", surface_diffusion_rhs),
                     ("willmore", willmore_rhs)):
        rels[name] = np.max(np.abs(fn(h).scalar - target)) / scale
        assert rels[name] <= 1e-3

    for nodes in (129, 257):
        g = Grid(1, nodes)
        xx = g.axis_coords()
        prof = np.sin(np.pi * xx) ** 2 * (0.3 + 0.1 * np.sin(2 * np.pi * xx))
        hh = GridFunction.from_scalar(g, prof)
        beta, _nu, H, _trL2 = surface_fields(hh)
        diff = willmore_rhs(hh).scalar - surface_diffusion_rhs(hh).scalar
        assert np.max(np.abs(diff - (-H ** 3 / (2.0 * beta)))) <= 1e-9
    report(10, "flow-linearization",
           f"rel vs bilaplacian {max(rels.values()):.1e}, identity to roundoff")


def test_criterion_11_gluing_and_omega_limits():
    grid = Grid(1, 65)
    prob = rd_problem(linear_heat_spec(grid))
    x = grid.axis_coords()
    u0 = GridFunction.from_scalar(grid, 1.0 + 0.5 * np.cos(np.pi * x))
    one = continue_solution(u0, prob,
                            FixedPointConfig(window=0.4, time_steps=40, mu=MU, p=P,
                                             tol=1e-12, propagator="spectral"),
                            horizon=0.4)
    four = continue_solution(u0, prob,
                             FixedPointConfig(window=0.1, time_steps=10, mu=MU, p=P,
                                              tol=1e-12, propagator="spectral"),
                             horizon=0.4)
    gap = np.max(np.abs(one.trajectory.states[-1].scalar
                        - four.trajectory.states[-1].scalar))
    assert len(four.windows) == 4
    assert gap <= 1e-6

    long = continue_solution(u0, prob,
                             FixedPointConfig(window=0.25, time_steps=25, mu=MU, p=P,
                                              tol=1e-12, propagator="spectral"),
                             horizon=1.5)
    proxy = eigendecompose(reference_operator(grid, "second"))
    rep = omega_limit(long.trajectory, np.linspace(1.35, 1.5, 6), proxy, threshold=1e-4,
                      theta=None)
    assert rep.converged and rep.n_clusters == 1
    assert rep.diameter <= 1e-4
    mean_gap = np.max(np.abs(rep.cluster_points[0].scalar - 1.0))
    assert mean_gap <= 1e-4

    g4 = Grid(1, 49)
    xf = g4.axis_coords()
    h0 = GridFunction.from_scalar(g4, 1e-3 * np.sin(np.pi * xf) ** 2)
    fprob = flow_problem(FlowSpec(grid=g4, kind="surface_diffusion"))
    fstate = continue_solution(h0, fprob,
                               FixedPointConfig(window=0.02, time_steps=10, mu=0.95,
                                                p=P, tol=1e-12),
                               horizon=0.1)
    frep = omega_limit(fstate.trajectory, np.linspace(0.08, 0.1, 5),
                       eigendecompose(reference_operator(g4, "fourth")), threshold=1e-4,
                       theta=None)
    assert frep.converged and frep.n_clusters == 1
    flat_gap = np.max(np.abs(frep.cluster_points[0].scalar))
    assert flat_gap <= 1e-8
    report(11, "gluing-and-omega-limits",
           f"endpoint gap {gap:.1e}, heat diameter {rep.diameter:.1e}, "
           f"flat limit {flat_gap:.1e}")


def test_criterion_12_determinism_and_resume(tmp_path):
    cfg = {
        "problem": {"family": "heat"},
        "grid": {"dim": 1, "nodes": 24},
        "exponents": {"p": 2, "q": 2, "mu": "9/10"},
        "solver": {"window": 0.02, "time_steps": 8, "horizon": 0.04, "tol": 1e-10},
        "initial": {"kind": "cosine", "amplitude": 0.5, "offset": 1.0},
        "seed": 0,
    }
    full = tmp_path / "full.json"
    full.write_text(json.dumps(cfg))
    half_cfg = json.loads(full.read_text())
    half_cfg["solver"]["horizon"] = 0.02
    half = tmp_path / "half.json"
    half.write_text(json.dumps(half_cfg))

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli_main(["run", "--config", str(full), "--out", str(a)]) == 0
    assert cli_main(["run", "--config", str(full), "--out", str(b)]) == 0
    for name in ("trajectory.npz", "timeseries.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    assert cli_main(["run", "--config", str(half), "--out", str(c)]) == 0
    assert cli_main(["run", "--config", str(full), "--out", str(c), "--resume"]) == 0
    traj_a, _ = load_trajectory(str(a / "trajectory.npz"))
    traj_c, _ = load_trajectory(str(c / "trajectory.npz"))
    resume_err = max(np.max(np.abs(sa.values - sc.values))
                     for sa, sc in zip(traj_a.states, traj_c.states))
    assert resume_err <= 1e-12
    assert (a / "trajectory.npz").read_bytes() == (c / "trajectory.npz").read_bytes()
    report(12, "determinism-and-resume",
           f"rerun byte-identical, resume error {resume_err:.1e}")
