"""Gaussian noise descent toolkit.

Global optimization of nearly convex objectives by gradient descent with
adaptive Gaussian noise, plus the surrounding apparatus: a benchmark objective
suite with exact gradients, deterministic splittable random streams,
certificate-driven parameter schedules, regularity-condition auditors, and a
reproducible Monte-Carlo harness measuring convergence in state space (MSE)
and probability space (N-CP).
"""

from gndopt.errors import (ConstraintNotCheckableError, DivergedError,
                           GateViolationError, ParameterError)
from gndopt.experiments import (ContractionReport, ExperimentConfig, StatsSeries,
                                StoppingTimeReport, contraction_check,
                                run_monte_carlo, stopping_time_check, write_csv,
                                write_svg)
from gndopt.objectives import (Objective, compute_nk, fourier_sin_coefficients,
                               j1_stationary_points, make_j1, make_j2, make_objective,
                               make_quadratic, make_rastrigin)
from gndopt.sampling import (RngStream, SgOracle, fill_scaled_gaussian,
                             scaled_gaussian_norm_moments)
from gndopt.solver import (DlGndConfig, DlGndTrace, GndConfig, Trajectory,
                           dlgnd_run, gd_run, gnd_run)
from gndopt.theory import (BarrierResult, ConditionCheck, DoubleLoopSchedule,
                           RegularityReport, Schedule, ball_shell_grid,
                           barrier_check, check_eta_constraint, dlgnd_schedule,
                           estimate_beta_quadratic, gnd_iteration_bound,
                           gnd_schedule, j2_condition_table,
                           nearly_convex_gate, regularity_constants_grid,
                           stopping_time_bound, symmetric_log_grid)

__version__ = "0.1.0"
