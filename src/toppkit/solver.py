"""Linear-time backward-forward solver for squared-speed profiles.

Backward pass: from the terminal ceiling, each point gets the largest
squared speed from which the next point's value is still reachable
without exceeding the braking slope. Forward pass: from the initial
value, each point gets the accelerating-slope reach, clipped by the
backward cap. Both passes are one scalar maximization per grid step, so
the whole solve is linear in the grid size.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Discretization, DynamicsModel, Endpoints, SolveReport,
                   SolveStatus, SpeedProfile)
from .retime import traversal_time

# Cells scanned for a sign change when the bracket ends of a backward
# step do not straddle the constraint boundary.
SCAN_CELLS = 1024


@dataclass(frozen=True)
class StepSolverConfig:
    """Tolerance for the per-step scalar maximization.

    abs_tol:    absolute bracket width (squared-speed units) at which
                the root search stops.
    """

    abs_tol: float = 1e-12

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")


def default_config(grid: Discretization, model: DynamicsModel) -> StepSolverConfig:
    """Step tolerance scaled to the largest ceiling value on the grid."""
    bu_max = max(model.bu(float(s)) for s in grid.points)
    return StepSolverConfig(abs_tol=1e-12 * max(1.0, bu_max))


def _largest_feasible(g, lo: float, hi: float, g_lo: float, g_hi: float,
                      abs_tol: float) -> float:
    """Largest h in [lo, hi] with g(h) <= 0, given g(lo) <= 0 < g(hi).

    Safeguarded false position (Illinois damping, forced midpoint when a
    proposal leaves the bracket or the search drags on); worst case is
    plain bisection. The returned point always satisfies g exactly, the
    abs_tol only bounds its distance to the true boundary.
    """
    a, b = lo, hi
    fa, fb = g_lo, g_hi
    side = 0
    it = 0
    while b - a > abs_tol:
        it += 1
        if it >= 64:
            x = 0.5 * (a + b)
        else:
            x = (a * fb - b * fa) / (fb - fa)
            if not (a < x < b):
                x = 0.5 * (a + b)
        if x <= a or x >= b:  # bracket collapsed to adjacent floats
            break
        fx = g(x)
        if fx <= 0.0:
            a, fa = x, fx
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side == 1:
                fa *= 0.5
            side = 1
    return a


def backward_step(s_i: float, ds: float, h_next: float, model: DynamicsModel,
                  cfg: StepSolverConfig) -> Optional[float]:
    """Largest h in [bl(s_i), bu(s_i)] with h + fminus(s_i, h)*ds <= h_next.

    Returns None when no such value exists. The search interval is first
    tightened using the global slope cap B: any h above h_next + B*ds
    violates the constraint outright, and h_next - B*ds satisfies it
    outright, so the bracket never exceeds 2*B*ds.
    """
    if not ds > 0.0:
        raise ValueError("ds must be positive")
    if not math.isfinite(h_next):
        raise ValueError("h_next must be finite")
    lo = model.bl(s_i)
    hi = model.bu(s_i)
    if lo > hi:
        return None

    def g(h):
        return h + model.fminus(s_i, h) * ds - h_next

    reach = model.slope_cap * ds
    hi_eff = min(hi, h_next + reach)
    if hi_eff < lo:
        return None
    g_hi = g(hi_eff)
    if g_hi <= 0.0:
        return hi_eff
    lo_eff = max(lo, h_next - reach)
    g_lo = g(lo_eff)
    if g_lo <= 0.0:
        return _largest_feasible(g, lo_eff, hi_eff, g_lo, g_hi, cfg.abs_tol)
    if lo_eff > lo:
        # h_next - B*ds should satisfy g; landing here means the supplied
        # slope_cap was violated. Fall through to the scan over the full
        # admissible range rather than failing silently.
        lo_eff, g_lo = lo, g(lo)
        if g_lo <= 0.0:
            return _largest_feasible(g, lo_eff, hi_eff, g_lo, g_hi, cfg.abs_tol)
    # No bracket from the ends: scan for the highest feasible cell. This
    # covers slope functions steep enough in h to create interior dips,
    # which only happens on coarse grids.
    xs = np.linspace(lo_eff, hi_eff, SCAN_CELLS + 1)
    prev_x, prev_g = hi_eff, g_hi
    for x in xs[-2::-1]:
        gx = g(float(x))
        if gx <= 0.0:
            return _largest_feasible(g, float(x), prev_x, gx, prev_g, cfg.abs_tol)
        prev_x, prev_g = float(x), gx
    return None


def forward_step(s_prev: float, ds: float, h_prev: float, h_cap: float,
                 model: DynamicsModel) -> Optional[float]:
    """Accelerating reach min(h_cap, h_prev + fplus(s_prev, h_prev)*ds).

    Returns None when the reached value would sink below the floor at
    the new point (the floor bound is not part of the sweep recursions,
    so it is enforced here to keep outputs feasible).
    """
    if not ds > 0.0:
        raise ValueError("ds must be positive")
    val = min(h_cap, h_prev + model.fplus(s_prev, h_prev) * ds)
    if val < model.bl(s_prev + ds):
        return None
    return val


def solve(grid: Discretization, model: DynamicsModel,
          endpoints: Endpoints = None) -> SolveReport:
    """Run both sweeps and assemble the report.

    The backward seed is bu at the last point, optionally min-capped by
    an end squared speed; the forward seed is the backward value at the
    first point, optionally min-capped by a start squared speed. On a
    feasible solve the profile is the forward sequence and passes the
    admissibility check at the default tolerance.
    """
    cfg = default_config(grid, model)
    h_start, h_end = (None, None) if endpoints is None else endpoints
    for v in (h_start, h_end):
        if v is not None and v < 0.0:
            raise ValueError("endpoint squared speeds must be non-negative")

    s = grid.points
    n = s.size
    backward = np.full(n, np.nan)
    seed = model.bu(s[-1])
    if h_end is not None:
        seed = min(seed, h_end)
    if seed < model.bl(s[-1]):
        return SolveReport(status=SolveStatus(False, n - 1, "backward"),
                           backward=backward)
    backward[-1] = seed
    for i in range(n - 2, -1, -1):
        h = backward_step(float(s[i]), float(s[i + 1] - s[i]),
                          float(backward[i + 1]), model, cfg)
        if h is None:
            return SolveReport(status=SolveStatus(False, i, "backward"),
                               backward=backward)
        backward[i] = h

    forward = np.full(n, np.nan)
    first = backward[0]
    if h_start is not None:
        first = min(first, h_start)
    if first < model.bl(s[0]):
        return SolveReport(status=SolveStatus(False, 0, "forward"),
                           backward=backward, forward=forward)
    forward[0] = first
    for i in range(1, n):
        h = forward_step(float(s[i - 1]), float(s[i] - s[i - 1]),
                         float(forward[i - 1]), float(backward[i]), model)
        if h is None:
            return SolveReport(status=SolveStatus(False, i, "forward"),
                               backward=backward, forward=forward)
        forward[i] = h

    profile = SpeedProfile(grid, forward, "solver")
    return SolveReport(status=SolveStatus(True), backward=backward,
                       forward=forward, profile=profile,
                       traversal_time=traversal_time(profile))
