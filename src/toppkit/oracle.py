"""Cross-checks of the sweep solver.

``dp_optimum`` re-runs the solver's greedy with a deliberately plain
method: per point one scan tests the ceiling, then a lattice below it;
bisection to a relative stop refines the straddled cell, then the
reachable chain is replayed. It samples a ``FrictionCircle`` in arrays,
as the solver does, but shares no step code with it: agreement checks
each one's steps, not that the greedy is optimal. On a friction circle
it writes the slope out in scalar floats, so no test is a call, and
answers most by comparison with a bracket around the braking step's
root; its search through the model's callables is the bitwise reference.
"""

import math
import operator
import sys
from itertools import chain

from .core import (Discretization, Endpoints, InfeasibleError, Model,
                   SpeedProfile, _box_bounds, _endpoint_pair)

LEVELS = 512  # dp_optimum's default, at which ``toppkit oracle`` judges
_NORMAL = sys.float_info.min  # the smallest normal float


def _lattice_levels(levels: int) -> int:
    """``levels`` as an int, at least 8; a TypeError for a non-integer."""
    levels = operator.index(levels)
    if levels < 8:
        raise ValueError("levels must be at least 8")
    return levels


def _lattice_spacing(grid: Discretization, model: Model, levels: int) -> float:
    """Spacing of ``levels`` uniform values spanning the model's h-range."""
    levels = _lattice_levels(levels)
    _, lo, hi = _box_bounds(grid.points, model)
    return (float(hi.max()) - float(lo.min())) / (levels - 1)


def agreement_tolerance(grid: Discretization, model: Model,
                        levels: int) -> float:
    """Acceptance band for solver/oracle disagreement; a ValueError where not finite."""
    spacing, reach = 2.0 * _lattice_spacing(grid, model, levels), 2.0 * model.slope_cap * grid.delta
    if not math.isfinite(spacing + reach):  # an inf band accepts anything, and is not JSON
        raise ValueError(f"agreement tolerance 2*spacing + 2*slope_cap*delta = {spacing!r} + "
                         f"{reach!r} is not finite")
    return spacing + reach


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
    tol = 1e-13 * abs(bad)
    while bad - good > tol:
        mid = 0.5 * (good + bad)
        if mid <= good or mid >= bad:
            break
        if g(mid) <= 0.0:
            good = mid
        else:
            bad = mid
    return good


def _friction_ceilings(fr, k, s, bu, ceiling, levels) -> None:
    """Fill ``ceiling[:-1]`` in the floats of :func:`dp_optimum`'s callable
    search on the circle ``fr``: its ``g``, :func:`_lattice_down` and
    :func:`_refine_boundary` are written out, so that no ``g`` is a call.
    The floor is zero: the lattice is ``j * step``, ``bad >= 0`` needs no
    abs, and the scan ends at 0 untested. Where ``step`` underflows, every
    candidate below ``hi`` is 0, but the bisection's stop underflows too,
    so it ends on the callable search's adjacent floats."""
    f2, xi, sqrt, last = fr.f_fr * fr.f_fr, fr.xi, math.sqrt, levels - 1
    cap, down = fr.slope_cap, range(last - 1, -1, -1)
    for i in range(len(s) - 2, -1, -1):
        ds, t, ki = s[i + 1] - s[i], ceiling[i + 1], k[i]
        hi, top = bu[i], t + cap * ds
        if top < hi:  # min(bu[i], top)
            hi = top
        if not hi >= 0.0:
            raise InfeasibleError("empty candidate set", s, i, "backward")
        # g(h) <= 0 as x <= t, not x - t <= 0.0: the two differ only where
        # x and t are the same infinity, and t, a ceiling, is at most vmax2
        r = f2 - ki * hi * (ki * hi)
        if hi + ((-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds <= t:
            ceiling[i] = hi
            continue
        # For x >= 0 the test's left side is non-decreasing in floats (each
        # operation rounds monotonically, r <= 0 only jumps it up): it holds
        # at each x <= lo and fails at each x >= up (lo < 0: none known). The
        # hint c, the braking step's larger root raised to T = t + xi ds and
        # clipped to hi, sets how many tests are evaluated, never a float.
        tx, u = t + xi * ds, 2.0 * ds * ki
        a, kt = 1.0 + u * u, ki * tx
        q = f2 * a - kt * kt
        c = (tx + 2.0 * ds * sqrt(q if q > 0.0 else 0.0)) / a
        c = tx if tx > c else c if c <= hi else hi  # NaN: hi
        lo, up = -1.0, hi
        for x in (c, c * (1.0 + 2e-15), c * (1.0 - 2e-15)):
            if lo < x < up:
                r = f2 - ki * x * (ki * x)
                if x + ((-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds <= t:
                    lo = x
                else:
                    up = x
        bad, good, step = hi, hi, hi / last
        for j in down:
            if good <= lo:
                break
            if good < up:
                r = f2 - ki * good * (ki * good)
                if good + ((-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds <= t:
                    break
            bad = good
            good = j * step
        tol = 1e-13 * bad
        # While the width is 8*tol or more it stays above 4*tol, and, tol being
        # normal, far above an ulp: the stop and the adjacent-float breaks below
        # cannot fire, and a mid outside (lo, up) moves good where it is <= lo,
        # else bad. A mid inside would be tested, and leaves bad < up: then the
        # loop below redoes these halvings from the scan's bracket.
        if tol >= _NORMAL:
            scanned = good, bad
            for _ in range(math.frexp((bad - good) / tol)[1] - 3):
                mid = 0.5 * (good + bad)
                if mid <= lo:
                    good = mid
                else:
                    bad = mid
            if bad < up:
                good, bad = scanned
        # good < up and bad > lo throughout, so a mid at or below lo can only
        # meet good, and one at or above up only bad; a mid inside may meet either
        while bad - good > tol:
            mid = 0.5 * (good + bad)
            if mid <= lo:
                if mid <= good:
                    break
                good = mid
            elif mid >= up:
                if mid >= bad:
                    break
                bad = mid
            elif mid <= good or mid >= bad:
                break
            else:  # good and bad narrow the bracket from here on
                r = f2 - ki * mid * (ki * mid)
                if mid + ((-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds <= t:
                    good = mid
                else:
                    bad = mid
        ceiling[i] = good


def dp_optimum(grid: Discretization, model: Model, levels: int = LEVELS,
               endpoints: Endpoints = None) -> SpeedProfile:
    """Brute-force re-run of the solver's greedy, written independently.

    Backward: the controllable ceiling at each point is the largest h
    (bounded by the box) whose braking reach stays under the next
    ceiling. One scan tests the top candidate, then ``levels - 1``
    lattice values below it; bisection to a relative 1e-13 refines the
    straddled cell, so powers of two scale the result exactly. Forward:
    the reachable chain from the first controllable value, clipped by
    the ceilings. Raises :class:`InfeasibleError`, naming the index and
    position, when a candidate set comes up empty. The box is sampled
    once per point; on a friction circle a bracket answers most tests.
    """
    levels = _lattice_levels(levels)
    h_start, h_end = _endpoint_pair(endpoints)
    s = grid.points.tolist()
    n = len(s)
    kappa, bl, bu = _box_bounds(grid.points, model)
    bl, bu = bl.tolist(), bu.tolist()

    ceiling = [0.0] * n
    top = bu[-1] if h_end is None else min(bu[-1], h_end)
    if not top >= bl[-1]:
        raise InfeasibleError("empty candidate set", s, n - 1, "backward")
    ceiling[-1] = top
    if kappa is None:
        for i in range(n - 2, -1, -1):
            ds = s[i + 1] - s[i]
            target = ceiling[i + 1]

            def g(h, _x=s[i], _ds=ds, _target=target):
                return h + model.fminus(_x, h) * _ds - _target

            lo = bl[i]
            hi = min(bu[i], target + model.slope_cap * ds)
            if not hi >= lo:
                raise InfeasibleError("empty candidate set", s, i, "backward")
            bad = hi
            for good in chain((hi,), _lattice_down(lo, hi, levels)):
                if g(good) <= 0.0:
                    break
                bad = good
            else:
                raise InfeasibleError("empty candidate set", s, i, "backward")
            ceiling[i] = _refine_boundary(g, good, bad)
    else:
        k = kappa.tolist()
        f2, xi, sqrt = model.f_fr * model.f_fr, model.xi, math.sqrt
        _friction_ceilings(model, k, s, bu, ceiling, levels)

    h = ceiling[0] if h_start is None else min(ceiling[0], h_start)
    if h < bl[0]:
        raise InfeasibleError("start value below the floor", s, 0, "forward")
    reach = [h] * n
    for i in range(1, n):
        ds = s[i] - s[i - 1]
        if kappa is None:
            h = min(ceiling[i], h + model.fplus(s[i - 1], h) * ds)
        else:  # the circle's fplus, written out
            kh = k[i - 1] * h
            r = f2 - kh * kh
            h += ((2.0 * sqrt(r) if r > 0.0 else 0.0) + xi) * ds
            c = ceiling[i]
            h = h if h < c else c  # min(ceiling[i], h)
        if h < bl[i]:
            raise InfeasibleError("reachable value below the floor", s, i, "forward")
        reach[i] = h

    return SpeedProfile(grid, reach)
