"""Time-weighted trajectory norms and interpolation-scale proxies.

A trajectory u on (0, T] belongs to the weighted space when t^(1-mu) u is
p-integrable; the solution norm adds the same weight on the time derivative
and on the top spatial regularity:

    ||u||_E1mu = ||u||_E0mu + ||du/dt||_E0mu + || |u|_X1 ||_{L_{p,mu}}

with |u|_X1 = ||u||_q + ||A_ref u||_q, A_ref the reference operator of the
problem order: the Neumann -Laplacian at 2, the clamped bilaplacian at 4.
Quadrature is the trapezoid rule on the trajectory's own (graded) time grid;
the t = 0 sample carries zero weight whenever 1 - mu > 0.

A trajectory stores its K+1 states, and their time derivatives, as one array
each of shape (K+1, *grid.shape, ncomp); ``states_at`` interpolates states
into a stack of the same layout.  ``lq_norms``, ``x1_norms`` and
``proxy_norms`` act on such stacks along their leading axes; ``x1_norm``
and ``proxy_norm`` are the single-field case on a ``GridFunction``, for
``lipschitz_probe`` and ``verify_interpolation_inequality``.  ``x1_norms``
applies A_ref to a whole stack in one banded product.

The per-sample spatial norms depend on (q, order) only, not on mu, p or
the time interval, so each trajectory computes them once per (q, order)
(``WeightedTrajectory.sample_norms``) and every interval norm, the total and
both halves of ``smoothing_check`` read the stored vectors.  To keep that
memo honest, a trajectory's arrays are read-only.

Fractional interpolation spaces are represented by their q = 2 spectral
surrogate (I + L)^theta in the eigenbasis of a reference operator L
(SpectralProxy); ``verify_interpolation_inequality`` measures the constant in

    |w|_beta <= c |w|_{mu - 1/p}^(1-alpha) |w|_1^alpha,
    alpha = (beta - mu + 1/p) / (1 - mu + 1/p),

which is exactly 1 on the proxy scale (Hoelder on the spectral sums), so any
measured c must come out <= 1 up to rounding.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .grids import Grid, GridFunction, NonFiniteError
from .operators import SpectralProxy, reference_operator


def lq_norms(values: np.ndarray, grid: Grid, q: float = 2.0) -> np.ndarray:
    """L_q norm of each field in a stack of shape ``(..., *grid.shape, ncomp)``;
    q = 4 squares twice, within an ulp or two of the float power per entry
    and about a ninth of its cost."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if values.shape[-1] == 1:
        # |v| is what sqrt(v**2) rounds to, and stays exact where v**2
        # would underflow or overflow
        mag = np.abs(values[..., 0])
    else:
        mag = np.sqrt(np.sum(values ** 2, axis=-1))
    if q == 4:
        mag *= mag
        mag *= mag
    else:
        mag **= q
    mag *= grid.trapezoid_weights()
    return np.sum(mag, axis=tuple(range(-grid.dim, 0))) ** (1.0 / q)


def x1_norms(values: np.ndarray, grid: Grid, q: float = 2.0, order: int = 2,
             lq0: Optional[np.ndarray] = None) -> np.ndarray:
    """``x1_norm`` of each field in a stack of shape ``(..., *grid.shape, ncomp)``,
    from one product of A_ref with the unknowns it keeps, each component its
    own vector; at order 4 (clamped) those are the interior values, and the
    boundary values enter only through ||u||_q.

    ``lq0``, if given, is ``lq_norms(values, grid, q)``, already computed."""
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    op = reference_operator(grid, "second" if order == 2 else "fourth")
    # each component a scalar field, (..., ncomp, *grid.shape, 1)
    comps = np.moveaxis(values, -1, -grid.dim - 1)[..., None]
    applied = op.scatter(op.dot(op.gather(comps)))[..., 0]
    top = lq_norms(np.moveaxis(applied, -grid.dim - 1, -1), grid, q)
    return (lq_norms(values, grid, q) if lq0 is None else lq0) + top


def x1_norm(u: GridFunction, q: float = 2.0, order: int = 2) -> float:
    """Top-regularity norm ||u||_q + ||A_ref u||_q, A_ref the reference operator
    of ``order``, which for clamped problems reads the interior values only:
    the boundary values enter only through ||u||_q."""
    return float(x1_norms(u.values, u.grid, q, order))


@dataclass(frozen=True)
class WeightedTrajectory:
    """Sampled trajectory with its weight exponents.

    ``state_values`` stacks the K+1 states in one array of shape
    ``(K+1, *grid.shape, ncomp)``; ``deriv_values`` stacks the time
    derivatives the same way, or is None when only state norms are needed.
    The grid is read off the shape.  times[0] must be 0 (the trace sample);
    the rest are strictly increasing.

    The stored arrays are read-only views of the arrays passed in, and
    ``sample_norms`` keeps every per-sample spatial norm it computes, so a
    trajectory is measured once however many intervals its norms cover.
    """

    times: np.ndarray
    state_values: np.ndarray
    deriv_values: Optional[np.ndarray]
    mu: float
    p: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.state_values, dtype=float)
        derivs = None if self.deriv_values is None else np.asarray(self.deriv_values, dtype=float)
        for name, value in (("times", times), ("state_values", states), ("deriv_values", derivs)):
            if value is not None:
                # a write would leave the memoized sample norms stale
                value = value.view()
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("need at least two time samples")
        if times[0] != 0.0:
            raise ValueError(f"times[0] must be 0, got {times[0]}")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if states.ndim not in (3, 4) or states.shape[:-1] != times.shape + self.grid.shape:
            raise ValueError(f"states shape {states.shape} is not (len(times), *grid.shape, ncomp)")
        if derivs is not None and derivs.shape != states.shape:
            raise ValueError(f"derivs shape {derivs.shape} differs from states {states.shape}")
        # the extremes are NaN or infinite where an entry is, with no temporary
        if not all(np.isfinite(a.min()) and np.isfinite(a.max())
                   for a in (states, derivs) if a is not None):
            raise NonFiniteError("non-finite trajectory")
        if not (0.0 < self.mu <= 1.0):
            raise ValueError(f"mu must lie in (0, 1], got {self.mu}")
        if self.p <= 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")

    @property
    def grid(self) -> Grid:
        return Grid(self.state_values.ndim - 2, self.state_values.shape[1])

    @cached_property
    def states(self) -> tuple:
        """The states as GridFunction views into ``state_values``."""
        return tuple(GridFunction(self.grid, v) for v in self.state_values)

    @cached_property
    def _sample_norms(self) -> dict:
        return {}

    def sample_norms(self, kind: str, q: float = 2.0, order: int = 2) -> np.ndarray:
        """One spatial norm per sample, computed on first request and kept.

        ``kind`` is ``"states"`` or ``"derivs"`` for the L_q norms of the
        states or of the time derivatives, or ``"x1"`` for the X1 norms of
        the states at ``(q, order)``.  The returned vector is read-only.
        """
        key = (kind, q, order) if kind == "x1" else (kind, q)
        memo = self._sample_norms
        if key not in memo:
            if kind == "states":
                y = lq_norms(self.state_values, self.grid, q)
            elif kind == "derivs":
                if self.deriv_values is None:
                    raise ValueError("trajectory has no stored time derivatives")
                y = lq_norms(self.deriv_values, self.grid, q)
            elif kind == "x1":
                # the graph norm starts from the states' own L_q norm
                y = x1_norms(self.state_values, self.grid, q, order,
                             lq0=self.sample_norms("states", q))
            else:
                raise ValueError(f"unknown sample norm {kind!r}")
            y.flags.writeable = False
            memo[key] = y
        return memo[key]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def with_mu(self, mu: float) -> "WeightedTrajectory":
        """The same samples under another weight; the sample norms, which do
        not depend on mu, are shared with this trajectory."""
        out = dataclasses.replace(self, mu=mu)
        out.__dict__["_sample_norms"] = self._sample_norms
        return out

    def states_at(self, ts) -> np.ndarray:
        """The states interpolated piecewise linearly at the times ``ts``, in
        shape ``(len(ts), *grid.shape, ncomp)``; a sample time gives its sample."""
        times, S = self.times, self.state_values
        ts = np.asarray(ts, dtype=float)
        slack = 1e-12 * times[-1]
        outside = (ts < times[0] - slack) | (ts > times[-1] + slack)
        if np.any(outside):
            raise ValueError(f"time {ts[outside][0]} outside trajectory range [0, {times[-1]}]")
        j = np.searchsorted(times, ts)
        i = np.clip(j, 1, len(times) - 1)
        lam = np.expand_dims((ts - times[i - 1]) / (times[i] - times[i - 1]),
                             tuple(range(1, S.ndim)))
        out = S[i - 1] * (1.0 - lam) + S[i] * lam
        exact = times[np.minimum(j, len(times) - 1)] == ts
        out[exact] = S[j[exact]]
        return out


def difference(a: WeightedTrajectory, b: WeightedTrajectory) -> WeightedTrajectory:
    """Samplewise a - b; requires identical time grids."""
    if len(a.times) != len(b.times) or np.any(a.times != b.times):
        raise ValueError("trajectories sampled on different time grids")
    derivs = None
    if a.deriv_values is not None and b.deriv_values is not None:
        derivs = a.deriv_values - b.deriv_values
    return WeightedTrajectory(a.times, a.state_values - b.state_values, derivs, a.mu, a.p)


def glue(windows: list, mu: float, p: float) -> WeightedTrajectory:
    """Join ``(t_start, trajectory)`` windows that abut in absolute time.

    Every window after the first drops its sample at the joint; the glued
    time axis is absolute.  Raises ValueError on a gap between windows of
    more than 1e-12 of the joint's time.
    """
    for (s0, a), (s1, _) in zip(windows, windows[1:]):
        end = s0 + a.times[-1]
        if abs(end - s1) > 1e-12 * abs(end):
            raise ValueError(f"windows do not abut: {end} vs {s1}")
    cuts = [slice(min(k, 1), None) for k in range(len(windows))]
    times = np.concatenate([s + w.times[c] for c, (s, w) in zip(cuts, windows)])
    states = np.concatenate([w.state_values[c] for c, (_, w) in zip(cuts, windows)])
    derivs = np.concatenate([w.deriv_values[c] for c, (_, w) in zip(cuts, windows)])
    return WeightedTrajectory(times, states, derivs, mu, p)


def _time_norm(traj: WeightedTrajectory, y: np.ndarray, interval) -> float:
    """|| t^(1-mu) y(t) ||_{L_p(interval)} by trapezoid on the sample grid.

    ``y`` holds one spatial norm per sample.  Interval endpoints need not be
    sample points; the nodal norm values are interpolated linearly.
    """
    times, mu, p = traj.times, traj.mu, traj.p
    a, b = (times[0], times[-1]) if interval is None else interval
    slack = 1e-12 * times[-1]
    if a < times[0] - slack or b > times[-1] + slack or a >= b:
        raise ValueError(
            f"interval [{a}, {b}] not covered by trajectory range [{times[0]}, {times[-1]}]"
        )
    a = max(a, times[0])
    b = min(b, times[-1])
    inside = (times > a) & (times < b)
    ts = np.concatenate([[a], times[inside], [b]])
    ys = np.interp(ts, times, y)
    s = (1.0 - mu) * p
    weight = np.where(ts > 0.0, ts, 1.0) ** s
    weight[ts == 0.0] = 1.0 if s == 0.0 else 0.0
    f = weight * ys ** p
    return float(np.trapezoid(f, ts)) ** (1.0 / p)


def E0mu_norm(traj: WeightedTrajectory, interval=None, q: float = 2.0) -> float:
    return _time_norm(traj, traj.sample_norms("states", q), interval)


def E1mu_norm(traj: WeightedTrajectory, interval=None, q: float = 2.0,
              order: int = 2) -> float:
    """Solution-space norm: states + time derivative + top spatial regularity."""
    if traj.deriv_values is None:
        raise ValueError("E1mu norm needs stored time derivatives")
    part_state = _time_norm(traj, traj.sample_norms("states", q), interval)
    part_deriv = _time_norm(traj, traj.sample_norms("derivs", q), interval)
    part_top = _time_norm(traj, traj.sample_norms("x1", q, order), interval)
    return part_state + part_deriv + part_top


def proxy_norms(values: np.ndarray, theta: float, proxy: SpectralProxy) -> np.ndarray:
    """``proxy_norm`` of each field in a stack of shape ``(..., *grid.shape, ncomp)``."""
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    c = proxy.coefficients(values)
    lam = proxy.eigenvalues
    if np.any(lam < -1e-9):
        raise ValueError("proxy operator must be positive semidefinite")
    scale = (1.0 + np.clip(lam, 0.0, None)) ** theta
    sq = (scale[:, None] * c) ** 2
    # one flat sum per field, as np.sum takes it over a single field
    return np.sqrt(np.sum(sq.reshape(sq.shape[:-2] + (c.shape[-2] * c.shape[-1],)), axis=-1))


def proxy_norm(u: GridFunction, theta: float, proxy: SpectralProxy) -> float:
    """|| (I + L)^theta u ||_{L2} on the spectral surrogate scale, theta in [0, 1]."""
    return float(proxy_norms(u.values, theta, proxy))


@dataclass(frozen=True)
class InterpolationReport:
    lhs: float
    rhs_product: float
    alpha: float
    holds_with_c: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def verify_interpolation_inequality(u: GridFunction, beta: float, mu: float, p: float,
                                    proxy: SpectralProxy) -> InterpolationReport:
    """Measure c in |u|_beta <= c |u|_{mu-1/p}^(1-alpha) |u|_1^alpha (proxy scale)."""
    theta_low = mu - 1.0 / p
    if not (0.0 < theta_low < 1.0):
        raise ValueError(f"mu - 1/p must lie in (0, 1), got {theta_low}")
    if not (theta_low < beta < 1.0):
        raise ValueError(f"beta must lie in (mu - 1/p, 1) = ({theta_low}, 1), got {beta}")
    alpha = (beta - theta_low) / (1.0 - theta_low)
    lhs = proxy_norm(u, beta, proxy)
    low = proxy_norm(u, theta_low, proxy)
    top = proxy_norm(u, 1.0, proxy)
    rhs = low ** (1.0 - alpha) * top ** alpha
    c = lhs / rhs if rhs > 0.0 else 0.0
    return InterpolationReport(lhs=lhs, rhs_product=rhs, alpha=alpha, holds_with_c=c)


@dataclass(frozen=True)
class SmoothingReport:
    delta: float
    weighted: float
    unweighted_tail: float
    inequality_holds: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def smoothing_check(traj: WeightedTrajectory, delta: float, q: float = 2.0,
                    order: int = 2) -> SmoothingReport:
    """Instantaneous-gain inequality on the tail window [delta/2, delta]:

    (delta/2)^(1-mu) ||u||_E1(delta/2, delta) <= ||u||_E1mu(delta/2, delta).

    Discretely this holds panel by panel (the weight t^(1-mu) dominates its
    left-endpoint value), so a violation indicates a bookkeeping bug, not a
    borderline analytic case.
    """
    if not (0.0 < delta <= traj.horizon):
        raise ValueError(f"delta must lie in (0, {traj.horizon}], got {delta}")
    a, b = delta / 2.0, delta
    if not np.any((traj.times > a) & (traj.times < b)):
        raise ValueError(f"interval [{a}, {b}] is not resolved by the time grid")
    weighted = E1mu_norm(traj, (a, b), q=q, order=order)
    unweighted = E1mu_norm(traj.with_mu(1.0), (a, b), q=q, order=order)
    tail = (delta / 2.0) ** (1.0 - traj.mu) * unweighted
    holds = tail <= weighted * (1.0 + 1e-12) + 1e-300
    return SmoothingReport(delta=delta, weighted=weighted, unweighted_tail=tail,
                           inequality_holds=holds)
