"""toppkit: minimum-time speed profiles over fixed geometric paths.

Plan the fastest traversal of a path under speed and acceleration
limits: translate the path into per-position bounds on the squared
speed and its slope, run the linear-time backward-forward sweep solver,
re-time profiles into trajectories, and cross-check the sweeps against
a brute-force oracle that runs the same greedy, written independently.
"""

from .core import (AdmissibilityReport, Discretization, DynamicsModel,
                   InfeasibleError, SolveReport, SpeedProfile,
                   UnsupportedInstanceError, check_admissible, default_tol,
                   profile_error, relax)
from .harness import (ConvergenceRow, XiRow, convergence_sweep,
                      measure_solve_seconds, write_convergence_csv,
                      xi_sweep)
from .instances import (bundled_instances, capped_arc_instance,
                        capped_line_instance, circle_instance, line_instance,
                        random_table_instance, wave_table_instance)
from .oracle import (agreement_tolerance, dp_optimum, lattice_spacing,
                     random_admissible, tightened_path)
from .paths import (PathSpec, analytic_optimum, analytic_time, build_model,
                    curvature)
from .retime import sample_trajectory, traversal_time, write_trajectory_csv
from .solver import default_config, solve

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "ConvergenceRow", "Discretization",
    "DynamicsModel", "InfeasibleError", "PathSpec", "SolveReport",
    "SpeedProfile", "UnsupportedInstanceError", "XiRow",
    "agreement_tolerance", "analytic_optimum", "analytic_time",
    "build_model", "bundled_instances", "capped_arc_instance",
    "capped_line_instance", "check_admissible", "circle_instance",
    "convergence_sweep", "curvature", "default_config", "default_tol",
    "dp_optimum", "lattice_spacing", "line_instance",
    "measure_solve_seconds", "profile_error", "random_admissible",
    "random_table_instance", "relax", "sample_trajectory", "solve",
    "tightened_path", "traversal_time", "wave_table_instance",
    "write_convergence_csv", "write_trajectory_csv", "xi_sweep",
]
