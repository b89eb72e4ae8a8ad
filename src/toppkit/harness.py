"""Convergence and robustness experiments for the sweep solver.

``convergence_sweep`` measures the error of solves at increasing grid
sizes against a reference profile (closed form when available, else a
much finer solve restricted to shared points). The error ``rho`` is
taken at grid points only. On instances that the sweeps solve exactly
at grid points (the line, the circle) it is float noise at every size
and shows no convergence. On the line the ``time_s`` column does
converge at odd interval counts: between grid points the profile is
the linear interpolant of its grid values, which cuts off the
optimum's apex when it falls inside a segment. The circle's optimum is
constant, so it is solved exactly everywhere. ``xi_sweep`` measures how
solves under relaxed slope windows approach the unrelaxed solve as the
relaxation level drops to zero.
"""

import operator
from dataclasses import dataclass
from typing import List, Sequence

from .core import (Discretization, SpeedProfile, check_admissible, default_tol,
                   profile_error, relax, write_csv)
from .paths import PathSpec, analytic_optimum, build_model
from .solver import solve


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    delta: float
    rho: float
    time_s: float


@dataclass(frozen=True)
class XiRow:
    xi: float
    gap: float


def convergence_sweep(path: PathSpec, resolutions: Sequence[int],
                      reference: str = "analytic") -> List[ConvergenceRow]:
    """Solve on uniform grids of each size and report the error per size.

    Each row holds ``rho``, the largest gap to the reference at the
    row's grid points only, and ``time_s``, the solve's traversal time.
    Where the sweeps are exact at grid points (a line or circle with a
    constant slope window) ``rho`` stays at float noise for every size;
    any convergence then shows only in ``time_s`` approaching the
    optimal time.

    ``reference="analytic"`` compares against the closed-form optimum
    (only some instances have one). ``reference="finest"`` compares
    against a solve with 4x the largest requested interval count; every
    requested interval count must divide the finest one so reference
    values can be read off shared grid points without interpolation.
    """
    sizes = [operator.index(n) for n in resolutions]
    if len(sizes) < 2:
        raise ValueError("need at least two grid sizes")
    if any(n2 <= n1 for n1, n2 in zip(sizes, sizes[1:])):
        raise ValueError("grid sizes must be strictly increasing")
    if sizes[0] < 2:
        raise ValueError("grid sizes must be at least 2")
    if reference not in ("analytic", "finest"):
        raise ValueError(f"unknown reference {reference!r}")

    model = build_model(path)
    fine_profile = None
    fine_intervals = None
    if reference == "finest":
        fine_intervals = 4 * (sizes[-1] - 1)
        for n in sizes:
            if fine_intervals % (n - 1) != 0:
                raise ValueError(
                    f"grid size {n} does not align with the finest "
                    f"reference ({fine_intervals} intervals): interval "
                    f"count {n - 1} must divide it")
        fine_grid = path.grid(fine_intervals + 1)
        fine_profile = solve(fine_grid, model, endpoints=path.endpoints).profile

    rows: List[ConvergenceRow] = []
    for n in sizes:
        grid = path.grid(n)
        report = solve(grid, model, endpoints=path.endpoints)
        verdict = check_admissible(report.profile, model)
        if not verdict:
            raise RuntimeError(f"solve at n={n} not admissible: {verdict.detail}")
        if reference == "analytic":
            ref = analytic_optimum(path, grid)
        else:
            stride = fine_intervals // (n - 1)
            ref = SpeedProfile(grid, fine_profile.values[::stride])
        rho = profile_error(report.profile, ref)
        rows.append(ConvergenceRow(n=n, delta=grid.delta, rho=rho,
                                   time_s=report.traversal_time))
    return rows


def write_convergence_csv(rows: Sequence[ConvergenceRow], path: str) -> None:
    write_csv(path, "n,delta,rho,time_s", "%d,%.17g,%.17g,%.17g", *(
        [getattr(r, k) for r in rows] for k in ("n", "delta", "rho", "time_s")))


def xi_sweep(path: PathSpec, grid: Discretization,
             xis: Sequence[float]) -> List[XiRow]:
    """Gap between relaxed and unrelaxed solves per relaxation level.

    Levels must decrease to a final 0. Gaps are asserted non-increasing
    (within the unrelaxed default tolerance) and relaxed solves
    admissible; a failure of either means the solver itself is broken,
    since relaxation only widens the constraint set, and raises
    RuntimeError. A built path's solves are never infeasible.
    """
    levels = [float(x) for x in xis]
    if not levels:
        raise ValueError("need at least one relaxation level")
    if any(x2 >= x1 for x1, x2 in zip(levels, levels[1:])):
        raise ValueError("relaxation levels must be strictly decreasing")
    if levels[-1] != 0.0:
        raise ValueError("the last relaxation level must be 0")

    model = build_model(path)
    base = solve(grid, model, endpoints=path.endpoints).profile

    rows: List[XiRow] = []
    for xi in levels:
        if xi == 0.0:
            rows.append(XiRow(xi=0.0, gap=0.0))
            continue
        relaxed = relax(model, xi)
        report = solve(grid, relaxed, endpoints=path.endpoints)
        verdict = check_admissible(report.profile, relaxed)
        if not verdict:
            raise RuntimeError(
                f"relaxed solve (xi={xi}) not admissible: {verdict.detail}")
        rows.append(XiRow(xi=xi, gap=profile_error(report.profile, base)))

    tol = default_tol(model)
    for r1, r2 in zip(rows, rows[1:]):
        if r2.gap > r1.gap + tol:
            raise RuntimeError(
                f"relaxation gaps increased from xi={r1.xi} ({r1.gap}) "
                f"to xi={r2.xi} ({r2.gap})")
    return rows
