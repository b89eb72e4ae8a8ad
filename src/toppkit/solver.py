"""Linear-time backward-forward solver for squared-speed profiles.

Backward pass: from the terminal ceiling, each point gets the largest
squared speed from which the next point's value is still reachable
without exceeding the braking slope. Forward pass: from the initial
value, each point gets the accelerating-slope reach, clipped by the
backward cap. Each step is one scalar maximization, so the whole solve
is linear in the grid size. A friction-circle model, relaxed or not,
takes its steps in closed form, and arrays decide its ceiling runs, so
only braking and accelerating arcs take scalar steps. Any other model
takes each step by an exact root search over its callables, which stops
only at adjacent floats and needs the paper's convex class.
"""

import math
from bisect import bisect_left
from typing import Optional

import numpy as np

from .core import (Discretization, DynamicsModel, Endpoints, FrictionCircle,
                   InfeasibleError, Model, SolveReport, SpeedProfile,
                   _box_bounds, _endpoint_pair)
from .retime import traversal_time


def default_config(grid: Discretization, model: Model) -> None:
    """No configuration remains: the root search is exact. Kept only for
    the benchmark's traced pass (``perfbench/run.py``), its one caller;
    it goes with the next change to that benchmark."""


def _largest_feasible(g, a: float, b: float, fa: float, fb: float) -> float:
    """Largest float h in [a, b] with g(h) <= 0, given g(a) <= 0 < g(b).

    Illinois false position, with a midpoint whenever a proposal leaves
    the bracket or the search drags on, until a and b are adjacent
    floats; the worst case is plain bisection. When g(a) is exactly
    zero, false position would propose a itself, so the float above a
    is tried instead: on a rising g it ends the search.
    """
    side = it = 0
    while True:
        it += 1
        if fa == 0.0:
            x = math.nextafter(a, b)
        else:
            x = (a * fb - b * fa) / (fb - fa)
        if it >= 64 or not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:  # a and b are adjacent floats
                return a
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


@np.errstate(over="ignore", invalid="ignore")  # inf as in scalar floats; NaN: no run
def _friction_sweeps(points: np.ndarray, fr: FrictionCircle,
                     h_start: Optional[float], h_end: Optional[float]):
    """Both sweeps of a friction-circle model. Relaxation by xi moves the
    braking target to t = h_next + xi ds. A backward step is the larger
    root of a h^2 - 2 t h + t^2 - 4 ds^2 f^2, a = 1 + 4 ds^2 kappa^2 (scaled
    by 1/a first where f^2 a overflows), or t when that is larger (every
    h <= t brakes to h_next), clipped to min(bu, h_next + (2 f + xi) ds),
    then stepped down one float at a time until the generic step's
    constraint holds exactly; a forward step is
    min(backward, h + fplus(h) ds). The floor is zero, so a step is empty
    only below a negative or NaN ceiling: InfeasibleError at the last one.
    Arrays first decide which steps only copy a bound: bu[i+1] to bu[i]
    backward, backward[i-1] clipped to backward[i] forward. Every square
    is a product, never ``**`` (libm ``pow``), so the arrays repeat the
    scalar step's floats: each loop copies such a run whole once on its
    bound, takes every other step in scalar floats, and the result is
    the scalar steps' to the bit."""
    kappa, delta = fr.kappa(points), np.diff(points)
    ceiling = fr.ceiling(kappa)
    ok = ceiling >= 0.0
    if not ok.all():  # the floor is zero: a negative or NaN ceiling empties a step
        raise InfeasibleError("empty backward step", points,
                              int(np.flatnonzero(~ok)[-1]), "backward")
    f2, xi, cap = fr.f_fr * fr.f_fr, fr.xi, fr.slope_cap
    k0, c0, c1 = kappa[:-1], ceiling[:-1], ceiling[1:]
    runs = c0 + fr.slopes(k0, c0)[0] * delta - c1 <= 0.0
    runs &= c0 <= c1 + cap * delta
    t = c1 + xi * delta
    a = 1.0 + np.square(2.0 * delta * k0)
    fa = f2 * a
    root = (t + 2.0 * delta * np.sqrt(np.maximum(fa - np.square(k0 * t), 0.0))) / a
    big = ~(fa < math.inf)
    if big.any():  # f2 * a overflows: the same root, scaled by 1/a first
        ab, tb, kt = a[big], t[big], k0[big] * t[big] / a[big]
        root[big] = tb / ab + 2.0 * delta[big] * np.sqrt(np.maximum(f2 / ab - kt * kt, 0.0))
    runs &= (c0 <= t) | (root >= c0)
    del t, a, fa, root
    k, d, bu = memoryview(kappa), memoryview(delta), memoryview(ceiling)
    n = len(k)
    backward, forward = np.empty(n), np.empty(n)
    b, fw = memoryview(backward), memoryview(forward)
    sqrt, inf = math.sqrt, math.inf  # local names: read on every step
    on = memoryview(runs)
    stops = memoryview(np.append(-1, np.flatnonzero(~runs)))
    c = bu[n - 1]
    h = b[n - 1] = c if h_end is None else min(c, h_end)
    i = n - 2
    while i >= 0:
        if h == c and on[i]:  # on a ceiling run: copy it down to its stop
            j = stops[bisect_left(stops, i) - 1]
            backward[j + 1:i + 1] = ceiling[j + 1:i + 1]
            h = c = bu[j + 1]
            i = j
            continue
        h_next, ds, ki, c = h, d[i], k[i], bu[i]
        t, w = h_next + xi * ds, 2.0 * ds * ki
        kt, a = ki * t, 1.0 + w * w
        fa = f2 * a
        if fa < inf:
            h = (t + 2.0 * ds * sqrt(max(fa - kt * kt, 0.0))) / a
        else:  # f2 * a overflows: the same root, scaled by 1/a first
            h = t / a + 2.0 * ds * sqrt(max(f2 / a - (kt / a) * (kt / a), 0.0))
        h = min(max(h, t), c, h_next + cap * ds)
        r = f2 - (ki * h) * (ki * h)
        while h + ((-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds \
                - h_next > 0.0:
            h = math.nextafter(h, -math.inf)
            r = f2 - (ki * h) * (ki * h)
        b[i] = h
        i -= 1
    b0 = backward[:-1]
    runs = b0 + fr.slopes(k0, b0)[1] * delta >= backward[1:]
    on = memoryview(runs)
    stops = memoryview(np.append(np.flatnonzero(~runs) + 1, n))
    c = b[0]
    h = fw[0] = c if h_start is None else min(c, h_start)
    i = 1
    while i < n:
        if h == c and on[i - 1]:  # on a backward run: copy it up to its stop
            j = stops[bisect_left(stops, i)]
            forward[i:j] = backward[i:j]
            h = c = b[j - 1]
            i = j
            continue
        kh = k[i - 1] * h
        r = f2 - kh * kh
        c = b[i]
        h = fw[i] = min(c, h + (
            (2.0 * sqrt(r) if r > 0.0 else 0.0) + xi) * d[i - 1])
        i += 1
    return backward, forward


def _generic_sweeps(points: np.ndarray, model: DynamicsModel,
                    h_start: Optional[float], h_end: Optional[float]):
    """Both sweeps through the callables: (backward, forward).

    bl and bu are sampled once per point. A backward step is the largest
    h in [bl, bu] with h + fminus(s, h)*ds <= h_next. As fminus is convex,
    those h are one interval, holding h_next - B*ds (B the slope cap) if
    that is above bl; else it may lie inside a bracket whose ends both
    fail, and _convex_dip finds it. A forward step is
    min(backward, h + fplus(s, h)*ds). An empty backward step, or a
    forward reach below bl, raises InfeasibleError."""
    s = points.tolist()
    n = len(s)
    bl, bu = (b.tolist() for b in _box_bounds(points, model)[1:])
    backward, forward = [0.0] * n, [0.0] * n
    h = bu[-1] if h_end is None else min(bu[-1], h_end)
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            h = _backward_step(model, s[i], s[i + 1] - s[i], h, bl[i], bu[i])
        if h is None or not h >= bl[i]:
            raise InfeasibleError("empty backward step", s, i, "backward")
        backward[i] = h
    h = backward[0] if h_start is None else min(backward[0], h_start)
    for i in range(n):
        if i:
            h = min(backward[i], h + model.fplus(s[i - 1], h) * (s[i] - s[i - 1]))
        if h < bl[i]:
            raise InfeasibleError("forward reach below the floor", s, i, "forward")
        forward[i] = h
    return np.array(backward), np.array(forward)


def _backward_step(model: DynamicsModel, s: float, ds: float, h_next: float,
                   lo: float, hi: float) -> Optional[float]:
    """One generic backward step (see _generic_sweeps); None when empty."""
    def g(h):
        return h + model.fminus(s, h) * ds - h_next

    reach = model.slope_cap * ds
    hi = min(hi, h_next + reach)
    if not hi >= lo:
        return None
    g_hi = g(hi)
    if g_hi <= 0.0:
        return hi
    lo = max(lo, h_next - reach)
    g_lo = g(lo)
    if g_lo > 0.0 and lo < hi:  # the floor cut the bracket: look between
        lo, g_lo = _convex_dip(g, lo, hi)
    return None if g_lo > 0.0 else _largest_feasible(g, lo, hi, g_lo, g_hi)


def _convex_dip(g, a: float, b: float):
    """(h, g(h)) at the first probe with g(h) <= 0, for a convex g on
    [a, b]; else at the lower of the last two probes once the golden-
    section bracket is 1e-15*max(1, |b|) wide (74 calls on [0, 1])."""
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - r * (b - a), a + r * (b - a)
    gc, gd = g(c), g(d)
    while min(gc, gd) > 0.0 and b - a > 1e-15 * max(1.0, abs(b)):
        if gc <= gd:  # the minimum of a convex g lies in [a, d]
            b, d, gd, c = d, c, gc, d - r * (d - a)
            gc = g(c)
        else:
            a, c, gc, d = c, d, gd, c + r * (b - c)
            gd = g(d)
    return (c, gc) if gc <= gd else (d, gd)


def solve(grid: Discretization, model: Model,
          endpoints: Endpoints = None) -> SolveReport:
    """Run both sweeps and report the whole solve.

    The backward seed is bu at the last point, optionally min-capped by
    an end squared speed; the forward seed is the backward value at the
    first point, optionally min-capped by a start squared speed. The
    profile is the forward sequence and passes the admissibility check
    at the default tolerance; an empty step raises
    :class:`InfeasibleError` naming its index, position and pass. A
    friction circle takes the closed-form steps and calls none of its
    scalar bounds; any other model takes the root-finding steps through
    its callables.
    """
    h_start, h_end = _endpoint_pair(endpoints)
    sweeps = _friction_sweeps if isinstance(model, FrictionCircle) else _generic_sweeps
    backward, forward = sweeps(grid.points, model, h_start, h_end)
    profile = SpeedProfile(grid, forward)
    return SolveReport(backward=backward, profile=profile,
                       traversal_time=traversal_time(profile))
