"""Traversal-time evaluation and time-parametrized trajectory sampling.

The squared-speed profile is interpreted piecewise linearly between grid
points. On such a segment the speed sqrt(h) is linear in time, so the
travel time has the closed form

    dt = 2 * ds / (sqrt(h0) + sqrt(h1))

which is exact (it integrates ds / sqrt(h) for linear h, including an
endpoint touching zero). A segment with zero squared speed at both ends
can never be traversed, so its time is infinite.
"""

import math
from bisect import bisect_left

import numpy as np

from .core import BLOCK_ROWS, SpeedProfile, _blockwise, write_csv

STALLED = ("profile stalls (h == 0 across a segment) or its time overflows; "
           "traversal time is not finite")


@np.errstate(divide="ignore", over="ignore")
def _knot_times(profile: SpeedProfile) -> np.ndarray:
    """Arrival time at each grid point, ``inf`` from a stall or an overflow on.

    ``np.cumsum`` adds the segment times left to right, as a loop would.
    """
    h = profile.values
    if np.any(h < 0.0):
        raise ValueError("squared speeds must be non-negative")
    s = profile.grid.points
    t = np.zeros(s.size)
    _blockwise(t[1:], lambda s0, s1, h0, h1: (s1 - s0) * 2.0 / (np.sqrt(h0) + np.sqrt(h1)),
               s[:-1], s[1:], h[:-1], h[1:])
    return np.cumsum(t, out=t)


def traversal_time(profile: SpeedProfile) -> float:
    """Total traversal time in seconds; ``inf`` when the profile stalls.

    A stall is any interior segment with h == 0 at both ends. Negative
    squared speeds are rejected.
    """
    return float(_knot_times(profile)[-1])


def sample_trajectory(profile: SpeedProfile, dt: float) -> np.ndarray:
    """Sample (t, s, speed) at t = k * dt below the total traversal time
    by more than a few ulps (dt = total / N gives N + 1 rows), plus a last
    row exactly at that total, as an (m, 3) array.

    At time tau into a segment of slope m = dh/ds the speed is linear in
    tau, so its trapezoid integral is the exact position:

        v = |sqrt(h0) + (m/2) * tau|,   s = min(s0 + tau * (sqrt(h0) + v) / 2, s1)
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    t_knots = _knot_times(profile)
    total = float(t_knots[-1])
    if math.isinf(total):
        raise ValueError(STALLED)
    if not total / dt < 2.0 ** 53:  # past this, k * dt cannot step k exactly
        raise ValueError(f"dt={dt!r} gives too many samples over {total!r} s")
    s, h = profile.grid.points, profile.values
    # The rows below total - 4 ulps, as np.searchsorted finds them among
    # k * dt for k < total / dt + 2 (room to round), without that array.
    count = bisect_left(range(int(total / dt) + 2), total - 4.0 * math.ulp(total),
                        key=lambda k: k * dt)
    rows = np.empty((count + 1, 3))
    rows[-1] = total, s[-1], math.sqrt(h[-1])
    # The scalar formulas above, in the same float operations, for
    # BLOCK_ROWS samples at a time, written into rows to keep memory small;
    # a non-finite slope is rejected after the samples.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, count, BLOCK_ROWS):
            t, pos, v = rows[:-1][k:k + BLOCK_ROWS].T
            t[:] = np.arange(k, k + t.size) * dt
            i = np.minimum(np.searchsorted(t_knots, t, side="right") - 1, s.size - 2)
            tau = t - t_knots[i]
            m = (h[i + 1] - h[i]) / (s[i + 1] - s[i])
            root_h0 = np.sqrt(h[i])
            np.abs(root_h0 + 0.5 * m * tau, out=v)
            np.multiply(tau, root_h0 + v, out=pos)
            pos *= 0.5
            np.minimum(pos + s[i], s[i + 1], out=pos)
        finite = _blockwise(np.empty(s.size - 1, dtype=bool), lambda s0, s1, h0, h1:
                            np.isfinite((h1 - h0) / (s1 - s0)), s[:-1], s[1:], h[:-1], h[1:])
    j = int(np.argmin(finite))
    if not finite[j]:
        raise ValueError(f"segment {j} from s={float(s[j])!r} to s={float(s[j + 1])!r}: "
                         "slope (h1 - h0) / (s1 - s0) is not finite")
    return rows


def write_trajectory_csv(rows: np.ndarray, path: str) -> None:
    """Write sampled (t, s, v) rows with header "t,s,v"."""
    write_csv(path, "t,s,v", "%.17g,%.17g,%.17g", *np.asarray(rows).T)
