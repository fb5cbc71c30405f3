"""Numerical laboratory for quasilinear parabolic evolution equations.

The package discretizes problems of the form du/dt + A(u) u = F1(u) + F2(u)
on the unit interval or square, solves them by frozen-coefficient fixed-point
iteration on time windows, and measures everything the underlying solution
theory cares about: time-weighted norms, exponent admissibility, principal
symbols, boundary root conditions, and long-time behavior.
"""

__version__ = "0.1.0"

from .exponents import (ExponentConfig, StructureExponents, admissibility_report,
                        beta_window, check_dimensional, check_F2_exponents)
from .grids import BoundaryCondition, Grid, GridFunction
from .operators import (LinearOperator, SolverError, SpectralProxy, derivative,
                        eigendecompose, reference_operator)
from .norms import (E0mu_norm, E1mu_norm, WeightedTrajectory, proxy_norm,
                    smoothing_check, verify_interpolation_inequality, x1_norm)
from .geometry import surface_diffusion_rhs, willmore_rhs
from .symbols import (coarse_ellipticity_bound, ellipticity_scan, ls_scan,
                      sharp_ellipticity_bound)
from .evolution import (AbstractProblem, ContinuationState, FixedPointConfig,
                        NonconvergenceError, StateConstraintError,
                        continue_solution, fixed_point_solve, lipschitz_probe,
                        omega_limit, picard_map, reference_solution)
from .problems import (FlowSpec, PolynomialMap, ReactionDiffusionSpec,
                       flow_problem, linear_heat_spec, rd_problem,
                       spectrum_positivity_check)
from .checkpoint import CheckpointError, load_trajectory, save_trajectory

__all__ = [
    "AbstractProblem", "BoundaryCondition", "CheckpointError",
    "ContinuationState", "E0mu_norm", "E1mu_norm", "ExponentConfig",
    "FixedPointConfig", "FlowSpec", "Grid", "GridFunction", "LinearOperator",
    "NonconvergenceError", "PolynomialMap", "ReactionDiffusionSpec",
    "SolverError", "SpectralProxy", "StateConstraintError",
    "StructureExponents", "WeightedTrajectory", "admissibility_report",
    "beta_window", "check_F2_exponents", "check_dimensional",
    "coarse_ellipticity_bound", "continue_solution", "derivative",
    "eigendecompose", "ellipticity_scan", "fixed_point_solve", "flow_problem",
    "linear_heat_spec", "lipschitz_probe", "load_trajectory", "ls_scan",
    "omega_limit", "picard_map", "proxy_norm", "rd_problem",
    "reference_operator", "reference_solution", "save_trajectory",
    "sharp_ellipticity_bound", "smoothing_check", "spectrum_positivity_check",
    "surface_diffusion_rhs", "verify_interpolation_inequality", "willmore_rhs",
    "x1_norm",
]
