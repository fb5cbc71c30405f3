"""Admissibility arithmetic for the time-weighted setting.

The solver works in time-weighted Lebesgue spaces L_{p,mu}(J; X) with weight
t^(1-mu), mu in (1/p, 1].  Whether a given problem class (second-order
reaction-diffusion, fourth-order geometric flow in graph form) admits the
construction is a matter of finitely many strict inequalities between the
exponents (p, q, mu, beta, and the structure pairs (rho_j, beta_j) of the
lower-order nonlinearity).  This module evaluates those inequalities, in exact
rational arithmetic whenever the inputs are rational, so that window endpoints
such as (5/8, 7/10) come out as fractions rather than rounded floats.

Conventions
-----------
* ``mu - 1/p`` is the trace weight exponent (the proxy interpolation scale
  assigns theta = mu - 1/p to the initial-data space and theta = 1 to the
  domain of the operator).
* A structure pair (rho_j, beta_j) passes when

      rho_j*(beta - mu + 1/p) + beta_j - mu + 1/p < 1 - mu + 1/p.

* Second order: mu0 = 1/p + n/(2q), dimensional condition 2/p + n/q < 2.
* Fourth order: mu0 = 1/p + n/(4q) + 1/4, dimensional condition 4/p + n/q < 3.

All checks are strict inequalities; equality is reported as failure (or as an
empty/degenerate window) rather than rounded into a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

Number = Union[Fraction, float]

ORDER_SECOND = "second"
ORDER_FOURTH = "fourth"
ORDER_INT = {ORDER_SECOND: 2, ORDER_FOURTH: 4}
# the slack of the fourth-order structure pairs and window cap, where an
# exponent section gives none
DEFAULT_EPSILON = Fraction(1, 1000)


def as_number(x) -> Number:
    """Coerce ``x`` to Fraction when exact, float otherwise.

    ints and strings like "9/10" become Fractions; floats stay floats so we
    never pretend a rounded decimal is exact.
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a valid exponent value")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return x
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return Fraction(int(x))
    raise TypeError(f"cannot interpret {x!r} as an exponent value")


def _one() -> Fraction:
    return Fraction(1)


@dataclass(frozen=True)
class ExponentConfig:
    """Integrability/weight exponents of one problem instance.

    Parameters
    ----------
    p, q : rational or float, both > 1
        Time and space integrability exponents.
    n : int >= 1
        Space dimension of the base domain.
    mu : rational or float
        Time weight, 1/p < mu <= 1.
    order : {"second", "fourth"}
        Differential order of the leading operator.
    """

    p: Number
    q: Number
    n: int
    mu: Number
    order: str = ORDER_SECOND

    def __post_init__(self):
        object.__setattr__(self, "p", as_number(self.p))
        object.__setattr__(self, "q", as_number(self.q))
        object.__setattr__(self, "mu", as_number(self.mu))
        if self.order not in ORDER_INT:
            raise ValueError(f"order must be one of {tuple(ORDER_INT)}, got {self.order!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not self.p > 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not self.q > 1:
            raise ValueError(f"q must exceed 1, got {self.q}")
        lo = 1 / self.p
        if not (lo < self.mu <= 1):
            raise ValueError(f"mu must lie in (1/p, 1] = ({lo}, 1], got {self.mu}")

    @property
    def trace_exponent(self) -> Number:
        """mu - 1/p, the proxy scale position of the initial-data space."""
        return self.mu - 1 / self.p


@dataclass(frozen=True)
class StructureExponents:
    """Growth/smoothness pairs of the lower-order nonlinearity.

    ``pairs`` is a sequence of (rho_j, beta_j); ``beta`` is the working
    intermediate exponent used by the quadratic-gradient term.
    """

    beta: Number
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "beta", as_number(self.beta))
        coerced = tuple((as_number(r), as_number(b)) for r, b in self.pairs)
        object.__setattr__(self, "pairs", coerced)
        for rho, _ in self.pairs:
            if rho < 0:
                raise ValueError(f"pair growth exponent must be >= 0, got {rho}")

    @classmethod
    def for_problem(cls, cfg: ExponentConfig, beta, epsilon):
        """Canonical pair set for the two supported problem classes.

        Second order (quadratic gradient nonlinearity): (1, beta) and
        (2, mu - 1/p).  Fourth order: the five pairs (1, kappa+eps),
        (theta, beta), (1+theta, mu-1/p), (2*theta, kappa+eps),
        (3*theta, mu-1/p), with kappa = 1/2 + n/(6q) and theta the
        reiteration exponent solving theta*(beta - mu + 1/p) =
        kappa + eps - mu + 1/p.
        """
        beta = as_number(beta)
        epsilon = as_number(epsilon)
        m = cfg.trace_exponent
        if cfg.order == ORDER_SECOND:
            pairs = ((_one(), beta), (Fraction(2), m))
            return cls(beta=beta, pairs=pairs)
        kappa = kappa_exponent(cfg)
        denom = beta - m
        if not denom > 0:
            raise ValueError(f"beta must exceed mu - 1/p = {m}, got {beta}")
        theta = (kappa + epsilon - m) / denom
        pairs = (
            (_one(), kappa + epsilon),
            (theta, beta),
            (1 + theta, m),
            (2 * theta, kappa + epsilon),
            (3 * theta, m),
        )
        return cls(beta=beta, pairs=pairs)


@dataclass(frozen=True)
class Exponents:
    """An exponent section: the exponents, the slack ``epsilon`` of the
    fourth-order structure pairs and beta window, and the structure
    exponents, or None with the reason ``violation`` when they cannot be
    formed."""

    config: ExponentConfig
    epsilon: Number
    structure: StructureExponents | None
    violation: str = ""


def kappa_exponent(cfg: ExponentConfig) -> Number:
    """kappa = 1/2 + n/(6q), the fourth-order coefficient-regularity exponent."""
    return Fraction(1, 2) + cfg.n / (6 * cfg.q)


@dataclass(frozen=True)
class DimensionalReport:
    admissible: bool
    mu0: Number
    compatibility_needed: bool
    dimensional_sum: Number
    dimensional_bound: Number
    # the conditions that fail, as the admissibility report quotes them
    violated: tuple = ()

    def as_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "mu0": float(self.mu0),
            "mu0_exact": _exact_str(self.mu0),
            "compatibility_needed": self.compatibility_needed,
            "dimensional_sum": float(self.dimensional_sum),
            "dimensional_bound": float(self.dimensional_bound),
        }


def _exact_str(x: Number) -> str | None:
    return str(x) if isinstance(x, Fraction) else None


def check_dimensional(cfg: ExponentConfig) -> DimensionalReport:
    """Dimensional admissibility and critical weight mu0.

    Second order: admissible iff 2/p + n/q < 2 and mu > mu0 = 1/p + n/(2q);
    initial compatibility (boundary condition seen by the trace space) is
    needed iff 2*mu > 1 + 2/p + 1/q.  Fourth order: admissible iff
    4/p + n/q < 3 and mu > mu0 = 1/p + n/(4q) + 1/4; compatibility is always
    needed.
    """
    p, q, n, mu = cfg.p, cfg.q, cfg.n, cfg.mu
    if cfg.order == ORDER_SECOND:
        dim_sum = 2 / p + n / q
        bound = Fraction(2)
        mu0 = 1 / p + n / (2 * q)
        compat = 2 * mu > 1 + 2 / p + 1 / q
        conditions = ("2/p + n/q < 2", "mu > mu_0 = 1/p + n/2q")
    else:
        dim_sum = 4 / p + n / q
        bound = Fraction(3)
        mu0 = 1 / p + n / (4 * q) + Fraction(1, 4)
        compat = True
        conditions = ("4/p + n/q < 3", "mu > mu_0 = 1/p + n/4q + 1/4")
    violated = tuple(c for c, ok in zip(conditions, (dim_sum < bound, mu > mu0)) if not ok)
    return DimensionalReport(
        admissible=not violated,
        mu0=mu0,
        compatibility_needed=compat,
        dimensional_sum=dim_sum,
        dimensional_bound=bound,
        violated=violated,
    )


@dataclass(frozen=True)
class F2Report:
    ratios: tuple
    per_pair: tuple
    all_pass: bool

    def as_dict(self) -> dict:
        return {
            "ratios": [float(r) for r in self.ratios],
            "ratios_exact": [_exact_str(r) for r in self.ratios],
            "per_pair": list(self.per_pair),
            "all_pass": self.all_pass,
        }


def check_F2_exponents(cfg: ExponentConfig, se: StructureExponents) -> F2Report:
    """Evaluate the structure-pair ratios; each must be strictly below 1.

    ratio_j = (rho_j*(beta - mu + 1/p) + beta_j - mu + 1/p) / (1 - mu + 1/p).
    Preconditions: beta in (mu - 1/p, 1) and every beta_j in [mu - 1/p, beta].
    """
    m = cfg.trace_exponent
    beta = se.beta
    if not (m < beta < 1):
        raise ValueError(f"beta must lie in (mu - 1/p, 1) = ({m}, 1), got {beta}")
    denom = 1 - cfg.mu + 1 / cfg.p
    ratios = []
    for rho, beta_j in se.pairs:
        if not (m <= beta_j <= beta):
            raise ValueError(
                f"pair exponent beta_j={beta_j} outside [mu - 1/p, beta] = [{m}, {beta}]"
            )
        ratios.append((rho * (beta - m) + beta_j - m) / denom)
    per_pair = tuple(r < 1 for r in ratios)
    return F2Report(ratios=tuple(ratios), per_pair=per_pair, all_pass=all(per_pair))


@dataclass(frozen=True)
class BetaWindow:
    lo: Number
    hi: Number
    binding_lower: str
    binding_upper: str

    @property
    def empty(self) -> bool:
        return not self.lo < self.hi

    def midpoint(self) -> Number:
        if self.empty:
            raise ValueError(
                f"beta window is empty: {self.binding_lower} >= {self.binding_upper}"
            )
        return (self.lo + self.hi) / 2

    def as_dict(self) -> dict:
        return {
            "lo": float(self.lo),
            "hi": float(self.hi),
            "lo_exact": _exact_str(self.lo),
            "hi_exact": _exact_str(self.hi),
            "empty": self.empty,
            "binding_lower": self.binding_lower,
            "binding_upper": self.binding_upper,
        }


def beta_window(cfg: ExponentConfig, epsilon) -> BetaWindow:
    """Admissible interval for the working exponent beta.

    Second order: (max(1/2 + n/(4q), mu - 1/p), min(1, (1 + mu - 1/p)/2)).
    Fourth order: (max(3/4 + n/(12q), mu - 1/p),
                   min(1, mu - 1/p + 1/2 - n/(6q) - epsilon)).
    The window is returned even when empty (e.g. mu = mu0 exactly); the
    ``binding_*`` fields name the constraints that form each endpoint.
    """
    m = cfg.trace_exponent
    n, q = cfg.n, cfg.q
    if cfg.order == ORDER_SECOND:
        cand_lo = [(Fraction(1, 2) + n / (4 * q), "beta > 1/2 + n/(4q)"), (m, "beta > mu - 1/p")]
        cand_hi = [(_one(), "beta < 1"), ((1 + m) / 2, "beta < (1 + mu - 1/p)/2")]
    else:
        eps = as_number(epsilon)
        cand_lo = [(Fraction(3, 4) + n / (12 * q), "beta > 3/4 + n/(12q)"), (m, "beta > mu - 1/p")]
        cand_hi = [
            (_one(), "beta < 1"),
            (m + Fraction(1, 2) - n / (6 * q) - eps, "beta < mu - 1/p + 1/2 - n/(6q) - eps"),
        ]
    lo, lo_name = max(cand_lo, key=lambda t: t[0])
    hi, hi_name = min(cand_hi, key=lambda t: t[0])
    return BetaWindow(lo=lo, hi=hi, binding_lower=lo_name, binding_upper=hi_name)


def admissibility_report(exps: Exponents) -> dict:
    """Full JSON-ready admissibility report (dimensional check, window at the
    section's epsilon, ratios of its structure pairs); structure exponents
    that cannot be formed or checked are one more violation."""
    cfg = exps.config
    dim = check_dimensional(cfg)
    window = beta_window(cfg, exps.epsilon)
    out = {
        "order": cfg.order,
        "p": float(cfg.p),
        "q": float(cfg.q),
        "n": cfg.n,
        "mu": float(cfg.mu),
        "dimensional": dim.as_dict(),
        "beta_window": window.as_dict(),
    }
    violated = list(dim.violated)
    se, violation = exps.structure, exps.violation
    if se is not None:
        try:
            f2 = check_F2_exponents(cfg, se)
        except ValueError as exc:
            violation = str(exc)
        else:
            out["beta"] = float(se.beta)
            out["pairs"] = [[float(r), float(b)] for r, b in se.pairs]
            out["F2"] = f2.as_dict()
            if not f2.all_pass:
                violated.append("rho_j*(beta - mu + 1/p) + beta_j - mu + 1/p < 1 - mu + 1/p")
    if violation:
        violated.append(violation)
    out["violated"] = violated
    out["admissible"] = not violated
    return out
