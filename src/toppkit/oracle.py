"""Independent verification against the sweep solver.

Two tools live here. ``dp_optimum`` recomputes the optimum with a
deliberately plain method: per grid point it scans a quantized set of
candidate squared speeds for the controllable boundary and refines the
straddled cell by plain bisection, then replays the reachable chain.
No shared code with the solver's step machinery, so agreement between
the two certifies both. ``random_admissible`` manufactures feasible
profiles by solving under uniformly tightened actuation limits; any
profile feasible for the tightened limits is feasible for the original
ones, which makes these profiles dominance-test fodder.
"""

from dataclasses import replace

import numpy as np

from .core import (Discretization, DynamicsModel, Endpoints, InfeasibleError,
                   SpeedProfile, check_admissible)
from .paths import PathSpec, build_model


def lattice_spacing(grid: Discretization, model: DynamicsModel,
                    levels: int) -> float:
    """Spacing of ``levels`` uniform values spanning the model's h-range."""
    if levels < 8:
        raise ValueError("levels must be at least 8")
    lo = min(model.bl(float(s)) for s in grid.points)
    hi = max(model.bu(float(s)) for s in grid.points)
    return (hi - lo) / (levels - 1)


def agreement_tolerance(grid: Discretization, model: DynamicsModel,
                        levels: int) -> float:
    """Acceptance band for solver/oracle disagreement on this instance."""
    return 2.0 * lattice_spacing(grid, model, levels) \
        + 2.0 * model.slope_cap * grid.delta


def _refine_boundary(g, good: float, bad: float) -> float:
    # Plain bisection from a straddling cell; keeps the feasible end.
    tol = 1e-13 * max(1.0, abs(bad))
    while bad - good > tol:
        mid = 0.5 * (good + bad)
        if mid <= good or mid >= bad:
            break
        if g(mid) <= 0.0:
            good = mid
        else:
            bad = mid
    return good


def dp_optimum(grid: Discretization, model: DynamicsModel, levels: int = 512,
               endpoints: Endpoints = None) -> SpeedProfile:
    """Brute-force recomputation of the optimal profile.

    Backward: the controllable ceiling at each point is the largest h
    (bounded by the box) whose braking reach stays under the next
    ceiling; it is located by scanning ``levels`` quantized candidates
    and bisecting the straddled cell. Forward: the reachable chain from
    the first controllable value, clipped by the ceilings. Raises
    :class:`InfeasibleError` when a candidate set comes up empty.
    """
    if levels < 8:
        raise ValueError("levels must be at least 8")
    h_start, h_end = (None, None) if endpoints is None else endpoints
    s = grid.points
    n = s.size

    ceiling = np.empty(n)
    top = model.bu(float(s[-1]))
    if h_end is not None:
        top = min(top, h_end)
    if top < model.bl(float(s[-1])):
        raise InfeasibleError("empty candidate set at the terminal point",
                              index=n - 1, pass_name="backward")
    ceiling[-1] = top

    for i in range(n - 2, -1, -1):
        si = float(s[i])
        ds = float(s[i + 1] - s[i])
        target = float(ceiling[i + 1])

        def g(h, _si=si, _ds=ds, _target=target):
            return h + model.fminus(_si, h) * _ds - _target

        lo = model.bl(si)
        hi = min(model.bu(si), target + model.slope_cap * ds)
        if hi < lo:
            raise InfeasibleError("empty candidate set", index=i,
                                  pass_name="backward")
        if g(hi) <= 0.0:
            ceiling[i] = hi
            continue
        candidates = np.linspace(lo, hi, levels)
        found = None
        prev = float(candidates[-1])
        for c in candidates[-2::-1]:
            c = float(c)
            if g(c) <= 0.0:
                found = _refine_boundary(g, c, prev)
                break
            prev = c
        if found is None:
            raise InfeasibleError("empty candidate set", index=i,
                                  pass_name="backward")
        ceiling[i] = found

    reach = np.empty(n)
    first = float(ceiling[0])
    if h_start is not None:
        first = min(first, h_start)
    if first < model.bl(float(s[0])):
        raise InfeasibleError("start value below the floor", index=0,
                              pass_name="forward")
    reach[0] = first
    for i in range(1, n):
        sp = float(s[i - 1])
        ds = float(s[i] - s[i - 1])
        val = min(float(ceiling[i]),
                  float(reach[i - 1]) + model.fplus(sp, float(reach[i - 1])) * ds)
        if val < model.bl(float(s[i])):
            raise InfeasibleError("reachable value below the floor", index=i,
                                  pass_name="forward")
        reach[i] = val

    return SpeedProfile(grid, reach, "oracle")


def tightened_path(path: PathSpec, u_f: float, u_v: float) -> PathSpec:
    """Path with actuation limits scaled down by multipliers in (0, 1]."""
    if not (0.0 < u_f <= 1.0 and 0.0 < u_v <= 1.0):
        raise ValueError("multipliers must lie in (0, 1]")
    return replace(path, f_fr=u_f * path.f_fr, v_max=u_v * path.v_max)


def random_admissible(grid: Discretization, path: PathSpec,
                      seed: int) -> SpeedProfile:
    """Admissible profile drawn by solving under tightened limits.

    Multipliers u_f, u_v for the acceleration and speed caps are drawn
    uniformly from (0.3, 1); tightening shrinks both the slope window
    and the ceiling pointwise, so the tightened solve is admissible for
    the original limits (asserted before returning). A path's floor is
    zero, so the tightened solve is always feasible.
    """
    from .solver import solve  # local import: solver depends on core only

    rng = np.random.default_rng(seed)
    u_f = float(rng.uniform(0.3, 1.0))
    u_v = float(rng.uniform(0.3, 1.0))
    tight = build_model(tightened_path(path, u_f, u_v))
    report = solve(grid, tight, endpoints=path.endpoints)
    profile = SpeedProfile(
        grid, report.require_feasible("tightened solve").profile.values,
        f"synthetic(seed={seed})")
    verdict = check_admissible(profile, build_model(path))
    if not verdict:
        raise RuntimeError(f"tightened solve not admissible for the original "
                           f"limits: {verdict.detail}")
    return profile
