"""Cross-checks of the sweep solver.

Two tools live here. ``dp_optimum`` re-runs the solver's greedy with a
deliberately plain method: per grid point it scans a quantized set of
candidate squared speeds for the controllable boundary and refines the
straddled cell by plain bisection, then replays the reachable chain.
It samples a ``FrictionCircle`` in arrays, as the solver does, but
shares no step code with it: agreement checks each one's steps, not
that the greedy is optimal. On a friction circle the search and the
chain write the circle's slope out in scalar floats, so no evaluation
is a function call; the search through the model's scalar bounds is
their bitwise reference. ``random_admissible`` makes
profiles by solving under uniformly tightened actuation limits; any
profile feasible for the tightened limits is feasible for the original
ones, which makes these profiles dominance-test fodder.
"""

import math
import operator
from dataclasses import replace

import numpy as np

from .core import (Discretization, Endpoints, InfeasibleError, Model,
                   SpeedProfile, _box_bounds, _endpoint_pair, check_admissible)
from .paths import PathSpec, build_model


def _lattice_levels(levels: int) -> int:
    """``levels`` as an int, at least 8; a TypeError for a non-integer."""
    levels = operator.index(levels)
    if levels < 8:
        raise ValueError("levels must be at least 8")
    return levels


def lattice_spacing(grid: Discretization, model: Model,
                    levels: int) -> float:
    """Spacing of ``levels`` uniform values spanning the model's h-range."""
    levels = _lattice_levels(levels)
    _, lo, hi = _box_bounds(grid.points, model)
    return (float(hi.max()) - float(lo.min())) / (levels - 1)


def agreement_tolerance(grid: Discretization, model: Model,
                        levels: int) -> float:
    """Acceptance band for solver/oracle disagreement on this instance."""
    return 2.0 * lattice_spacing(grid, model, levels) \
        + 2.0 * model.slope_cap * grid.delta


def _lattice_down(lo: float, hi: float, levels: int):
    """``np.linspace(lo, hi, levels)[-2::-1]`` one float at a time, with
    numpy's arithmetic: j*step + lo, or (j/(levels-1))*(hi-lo) + lo when
    step underflows to zero."""
    last, span = levels - 1, hi - lo
    step = span / last
    for j in range(last - 1, -1, -1):
        yield j * step + lo if step != 0.0 else j / last * span + lo


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


def _friction_ceilings(fr, k, s, bu, ceiling, levels, empty) -> None:
    """Fill ``ceiling[:-1]`` in the floats of :func:`dp_optimum`'s callable
    search, with its ``g`` (the circle's fminus), :func:`_lattice_down`
    and :func:`_refine_boundary` written out, so that no ``g`` is a call.
    ``fr`` is the circle: the floor is zero and the cap ``fr.slope_cap``."""
    f2, xi, sqrt, last = fr.f_fr * fr.f_fr, fr.xi, math.sqrt, levels - 1
    cap, lo = fr.slope_cap, 0.0
    for i in range(len(s) - 2, -1, -1):
        ds, t, ki = s[i + 1] - s[i], ceiling[i + 1], k[i]
        hi = min(bu[i], t + cap * ds)
        if hi < lo:
            raise empty("empty candidate set", i, "backward")
        r = f2 - (ki * hi) * (ki * hi)
        if hi + ((-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds - t <= 0.0:
            ceiling[i] = hi
            continue
        bad, span = hi, hi - lo
        step = span / last
        for j in range(last - 1, -1, -1):
            good = j * step + lo if step != 0.0 else j / last * span + lo
            r = f2 - (ki * good) * (ki * good)
            if good + ((-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds - t <= 0.0:
                break
            bad = good
        else:
            raise empty("empty candidate set", i, "backward")
        tol = 1e-13 * max(1.0, abs(bad))
        while bad - good > tol:
            mid = 0.5 * (good + bad)
            if mid <= good or mid >= bad:
                break
            r = f2 - (ki * mid) * (ki * mid)
            if mid + ((-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds - t <= 0.0:
                good = mid
            else:
                bad = mid
        ceiling[i] = good


def dp_optimum(grid: Discretization, model: Model, levels: int = 512,
               endpoints: Endpoints = None) -> SpeedProfile:
    """Brute-force re-run of the solver's greedy, written independently.

    Backward: the controllable ceiling at each point is the largest h
    (bounded by the box) whose braking reach stays under the next
    ceiling; it is located by scanning ``levels`` quantized candidates
    and bisecting the straddled cell. Forward: the reachable chain from
    the first controllable value, clipped by the ceilings. Raises
    :class:`InfeasibleError`, naming the index and position, when a
    candidate set comes up empty. The box is sampled once per point.
    """
    levels = _lattice_levels(levels)
    h_start, h_end = _endpoint_pair(endpoints)
    s = grid.points.tolist()
    n = len(s)
    kappa, bl, bu = _box_bounds(grid.points, model)
    bl, bu = bl.tolist(), bu.tolist()

    def empty(what, i, pass_name):
        return InfeasibleError(f"{what} at index {i} at s={s[i]!r}",
                               index=i, pass_name=pass_name)

    ceiling = [0.0] * n
    top = bu[-1] if h_end is None else min(bu[-1], h_end)
    if top < bl[-1]:
        raise empty("empty candidate set", n - 1, "backward")
    ceiling[-1] = top
    if kappa is None:
        for i in range(n - 2, -1, -1):
            ds = s[i + 1] - s[i]
            target = ceiling[i + 1]

            def g(h, _x=s[i], _ds=ds, _target=target):
                return h + model.fminus(_x, h) * _ds - _target

            lo = bl[i]
            hi = min(bu[i], target + model.slope_cap * ds)
            if hi < lo:
                raise empty("empty candidate set", i, "backward")
            if g(hi) <= 0.0:
                ceiling[i] = hi
                continue
            prev = hi
            for c in _lattice_down(lo, hi, levels):
                if g(c) <= 0.0:
                    ceiling[i] = _refine_boundary(g, c, prev)
                    break
                prev = c
            else:
                raise empty("empty candidate set", i, "backward")
    else:
        k = kappa.tolist()
        f2, xi, sqrt = model.f_fr * model.f_fr, model.xi, math.sqrt
        _friction_ceilings(model, k, s, bu, ceiling, levels, empty)

    h = ceiling[0] if h_start is None else min(ceiling[0], h_start)
    if h < bl[0]:
        raise empty("start value below the floor", 0, "forward")
    reach = [h] * n
    for i in range(1, n):
        ds = s[i] - s[i - 1]
        if kappa is None:
            h = min(ceiling[i], h + model.fplus(s[i - 1], h) * ds)
        else:  # the circle's fplus, written out
            r = f2 - (k[i - 1] * h) * (k[i - 1] * h)
            h = min(ceiling[i], h + ((2.0 * sqrt(r) if r > 0.0 else 0.0) + xi) * ds)
        if h < bl[i]:
            raise empty("reachable value below the floor", i, "forward")
        reach[i] = h

    return SpeedProfile(grid, reach)


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
    profile = report.require_feasible("tightened solve").profile
    verdict = check_admissible(profile, build_model(path))
    if not verdict:
        raise RuntimeError(f"tightened solve not admissible for the original "
                           f"limits: {verdict.detail}")
    return profile
