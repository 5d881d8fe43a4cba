"""Calm local selections of regular set-valued inverses.

Modulus estimation, convex geometry, the constructive selection iteration,
smooth right inverses, constrained endpoint steering, and a CLI over JSON
problem files.
"""

from .errors import (ContractError, InfeasibilitySuspectedError,
                     LocalityError, NumericBreakdownError, ProblemFileError,
                     RegselError, RegularityError, ShapeError,
                     UncontrollableError)
from .linalg import SvdFactorization, least_norm_solve, operator_norm, svd
from .convex import (AffineSet, Ball, Box, ConvexSet, Halfspaces,
                     Intersection, direction_grid, dykstra, set_from_json)
from .moduli import (CheckReport, LscProbeReport, ModulusEstimate,
                     SampledMapping, clm_estimate, counterexample_mapping,
                     lg_bound_check, lip_estimate, lsc_probe,
                     reg_linear, regularity_report, sampled_reg,
                     truncated_counterexample, verify_aubin,
                     verify_graph, verify_metric_regularity)
from .selection import (GeneralizedEquation, IterationCertificate,
                        IterationConfig, SweepResult, SweepRow, compute_tau,
                        default_config, solve, solve_implicit, sweep)
from .smooth import SmoothProblem, config_for, smooth_selection, split
from .control import (ControlProblem, ControlSweep, DiscretizedSystem,
                      SteeringResult, SteeringSetup, calm_sweep, kalman_rank,
                      linearize, reachable_interior, steer, steering_setup)
from .problems import (DYNAMICS_FIXTURES, PolynomialMap, ProblemFile,
                       load_problem, parse_problem, polynomial_from_json)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
