"""toppkit: minimum-time speed profiles over fixed geometric paths.

Plan the fastest traversal of a path under speed and acceleration
limits: translate the path into per-position bounds on the squared
speed and its slope, run the linear-time backward-forward sweep solver,
re-time profiles into trajectories, and cross-check the sweeps against
a brute-force oracle that runs the same greedy, written independently.

Each public name loads on first use: ``import toppkit`` imports none of
the submodules, and ``toppkit.solve`` imports ``toppkit.solver`` (and
what it needs) the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# The one table of public names: each name -> the submodule that defines it.
_SUBMODULE = {name: module for module, names in {
    "core": ("AdmissibilityReport", "Discretization", "DynamicsModel",
             "InfeasibleError", "SolveReport", "SpeedProfile",
             "UnsupportedInstanceError", "check_admissible", "default_tol",
             "profile_error", "relax"),
    "harness": ("ConvergenceRow", "XiRow", "convergence_sweep",
                "write_convergence_csv", "xi_sweep"),
    "instances": ("bundled_instances", "capped_arc_instance",
                  "capped_line_instance", "circle_instance", "line_instance",
                  "random_table_instance", "wave_table_instance"),
    "oracle": ("agreement_tolerance", "dp_optimum"),
    "paths": ("PathSpec", "analytic_optimum", "analytic_time", "build_model",
              "curvature"),
    "retime": ("sample_trajectory", "traversal_time", "write_trajectory_csv"),
    "solver": ("default_config", "solve"),
}.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    """Import the submodule that defines a public name on its first use
    (PEP 562), and keep the name here, so later reads skip this call."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
