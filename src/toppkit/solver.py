"""Linear-time backward-forward solver for squared-speed profiles.

Backward pass: from the terminal ceiling, each point gets the largest
squared speed from which the next point's value is still reachable
without exceeding the braking slope. Forward pass: from the initial
value, each point gets the accelerating-slope reach, clipped by the
backward cap. Each step is one scalar maximization, so the whole solve
is linear in the grid size. A friction-circle model, relaxed or not,
takes its steps in closed form; arrays decide its ceiling runs, a block
of BLOCK_ROWS points at a time, and check blocks of its zero-curvature
sums and plateaus, and the other steps are scalar. Any other model takes
each step by an exact root search over its callables, which stops only
at adjacent floats and needs the paper's convex class.
"""

import math
from bisect import bisect_left
from typing import Optional

import numpy as np

from .core import (Discretization, DynamicsModel, Endpoints, FrictionCircle,
                   InfeasibleError, Model, SolveReport, SpeedProfile,
                   _blockwise, _box_bounds, _endpoint_pair)
from .retime import traversal_time


def default_config(grid: Discretization, model: Model) -> None:
    """A no-op, kept only for its one caller, the benchmark's traced pass
    (``perfbench/run.py``); it goes with the next change to that benchmark."""


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


_BLOCK, _CAP = 16, 2048  # the first and the largest block of a proposed chain


def _chain(step, out, j, h, inc):
    """Copy to out[j] the longest prefix of the chain h + inc[0], h + inc[0]
    + inc[1], ... (np.add.accumulate, the scalar loop's order of addition)
    that step(j, previous points) gives bit for bit, finite; return its length."""
    chain = np.add.accumulate(np.concatenate(([h], inc)))
    got = step(j, chain[:-1])
    bad = (got.view(np.int64) != chain[1:].view(np.int64)) | ~np.isfinite(got)
    p = int(np.append(bad, True).argmax())
    out[j[:p]] = got[:p]
    return p


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
    A backward step from the ceiling bu[i+1] returns bu[i] whenever bu[i]
    satisfies it (bu[i] + fminus(bu[i]) ds <= bu[i+1], bu[i] <= bu[i+1] +
    (2 f + xi) ds), as the generic step returns a feasible bound. Arrays
    decide these runs and the forward steps that copy backward[i-1] clipped
    to backward[i], BLOCK_ROWS points at a time into one mask, squaring by
    products as the scalar steps do (never libm ``pow``); each loop copies
    a run whole. A due block of 16 to 2 048 steps proposes sums over zero
    curvature, else a plateau, and copies the prefix that the step
    reproduces in arrays (backward: to the guard's first nextafter, bu[i]
    on a run). That suffices: a guard never steps below h_next, and a sum
    is the unclipped root, which the clip and the guard only lower.
    Backward blocks fall due for sums only unrelaxed (a relaxed step
    rounds t first). A failed block doubles the wait for the next, up
    to 2 048 points; a guard stepping down to h_next (a plateau) makes one
    due at once."""
    kappa, delta = fr.kappa(points), np.diff(points)
    ceiling = fr.ceiling(kappa)
    ok = ceiling >= 0.0
    if not ok.all():  # the floor is zero: a negative or NaN ceiling empties a step
        raise InfeasibleError("empty backward step", points,
                              int(np.flatnonzero(~ok)[-1]), "backward")
    f2, xi, cap = fr.f_fr * fr.f_fr, fr.xi, fr.slope_cap
    k, d, bu = memoryview(kappa), memoryview(delta), memoryview(ceiling)
    n = len(k)
    runs = _blockwise(np.empty(n - 1, dtype=bool), lambda k0, c0, c1, ds: (
        c0 + fr.slopes(k0, c0)[0] * ds - c1 <= 0.0) & (c0 <= c1 + cap * ds),
        kappa[:-1], ceiling[:-1], ceiling[1:], delta)
    backward, forward = np.empty(n), np.empty(n)
    b, fw = memoryview(backward), memoryview(forward)
    sqrt, inf = math.sqrt, math.inf  # local names: read on every step
    flat, m, gap, hold = not kappa[:-1].all(), _BLOCK, _BLOCK, n  # flat: some kappa is 0
    sums = xi == 0.0 and flat  # sums of backward steps, proposed unrelaxed

    def back(j, hn):  # backward steps in arrays, to the guard's first nextafter
        ds, kj = delta[j], kappa[j]
        t, w = hn + xi * ds, 2.0 * ds * kj
        kt, a = kj * t, 1.0 + w * w
        h = (t + 2.0 * ds * np.sqrt(np.maximum(f2 * a - kt * kt, 0.0))) / a
        h = np.minimum(np.minimum(np.maximum(h, t), ceiling[j]), hn + cap * ds)
        h = np.where(h + fr.slopes(kj, h)[0] * ds - hn > 0.0, np.nextafter(h, -inf), h)
        return np.where((hn == ceiling[j + 1]) & runs[j], ceiling[j], h)

    on = memoryview(runs)
    stops = memoryview(np.append(-1, np.flatnonzero(~runs)))
    c = bu[n - 1]
    h = b[n - 1] = c if h_end is None else min(c, h_end)
    i, lim = n - 2, n - 2 if sums else -1  # a block is due at i <= lim
    while i >= 0:
        if i <= lim:  # copy the verified prefix of a chain block
            j = np.arange(i, max(i - m, -1), -1)
            p = _chain(back, backward, j, h, 2.0 * sqrt(f2) * delta[j] * (kappa[j] == 0.0))
            i, h, c = i - p, b[i - p + 1], bu[i - p + 1]
            full = p == j.size
            m, gap = (min(2 * m, _CAP), gap) if full else (_BLOCK, min(2 * gap, _CAP))
            hold = i if full else i - gap
            lim = max(hold, -1) if sums or full else -1
            continue
        while i > lim:
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
                if h == h_next and i <= hold:  # a plateau, past the wait: a block is due
                    lim = i - 1
            b[i] = h
            i -= 1
    _blockwise(runs, lambda k0, b0, b1, ds: b0 + fr.slopes(k0, b0)[1] * ds >= b1,
               kappa[:-1], backward[:-1], backward[1:], delta)
    stops = memoryview(np.append(np.flatnonzero(~runs) + 1, n))
    c = b[0]
    h = fw[0] = c if h_start is None else min(c, h_start)
    i, m, gap = 1, _BLOCK, _BLOCK
    lim = 1 if flat else n  # a block is due at i >= lim
    while i < n:
        if i >= lim:  # copy the verified prefix of a chain block
            j = np.arange(i, min(i + m, n))
            p = _chain(lambda j, h: np.minimum(backward[j], h + fr.slopes(
                kappa[j - 1], h)[1] * delta[j - 1]), forward, j, h,
                (2.0 * sqrt(f2) + xi) * delta[j - 1] * (kappa[j - 1] == 0.0))
            i, h, c = i + p, fw[i + p - 1], b[i + p - 1]
            full = p == j.size
            m, gap = (min(2 * m, _CAP), gap) if full else (_BLOCK, min(2 * gap, _CAP))
            lim = i if full else min(i + gap, n)
            continue
        while i < lim:
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
    lo = min(max(lo, h_next - reach), hi)  # above hi only if fminus breaks the cap
    g_lo = g(lo)
    if g_lo > 0.0:  # the floor cut the bracket: look between
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
