"""Traversal-time evaluation and time-parametrized trajectory sampling.

The squared-speed profile is interpreted piecewise linearly between grid
points. On such a segment the travel time has the closed form

    dt = 2 * ds / (sqrt(h0) + sqrt(h1))

which is exact (it integrates ds / sqrt(h) for linear h, including an
endpoint touching zero). A segment with zero squared speed at both ends
can never be traversed, so its time is infinite.
"""

import io
import math
from typing import List, Tuple, Union

import numpy as np

from .core import SpeedProfile, text_file


def _knot_times(profile: SpeedProfile) -> np.ndarray:
    """Arrival time at each grid point, ``inf`` from a stalled segment on.

    ``np.cumsum`` adds the segment times left to right, as a loop would.
    """
    h = profile.values
    if np.any(h < 0.0):
        raise ValueError("squared speeds must be non-negative")
    s = profile.grid.points
    # Allocate t before the temporaries so freeing them leaves no heap hole.
    t = np.empty(s.size)
    t[0] = 0.0
    root = np.sqrt(h)
    seg = np.subtract(s[1:], s[:-1], out=t[1:])
    seg *= 2.0
    with np.errstate(divide="ignore"):  # h == 0 at both ends: a stall
        seg /= root[:-1] + root[1:]
    return np.cumsum(t, out=t)


def traversal_time(profile: SpeedProfile) -> float:
    """Total traversal time in seconds; ``inf`` when the profile stalls.

    A stall is any interior segment with h == 0 at both ends. Negative
    squared speeds are rejected.
    """
    return float(_knot_times(profile)[-1])


def sample_trajectory(profile: SpeedProfile, dt: float
                      ) -> List[Tuple[float, float, float]]:
    """Sample (t, s, speed) at uniform time steps plus the final instant.

    Positions are recovered by inverting the segment closed form: with
    h linear on a segment, sqrt(h) grows linearly in time, so

        sqrt(h(t)) = sqrt(h0) + (m/2) * tau,   s(t) = s0 + (h - h0) / m

    for slope m = dh/ds != 0, and s(t) = s0 + sqrt(h0) * tau when the
    segment is constant. The last sample lands exactly on the total
    traversal time.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    t_knots = _knot_times(profile)
    total = float(t_knots[-1])
    if math.isinf(total):
        raise ValueError("profile stalls (h == 0 across a segment); "
                         "traversal time is not finite")
    s = profile.grid.points
    h = profile.values

    def state_at(t: float) -> Tuple[float, float]:
        i = int(np.searchsorted(t_knots, t, side="right") - 1)
        i = min(max(i, 0), s.size - 2)
        tau = t - t_knots[i]
        ds = s[i + 1] - s[i]
        m = (h[i + 1] - h[i]) / ds
        root_h0 = math.sqrt(h[i])
        if m == 0.0:
            pos = s[i] + root_h0 * tau
            hh = h[i]
        else:
            root_h = root_h0 + 0.5 * m * tau
            hh = root_h * root_h
            pos = s[i] + (hh - h[i]) / m
        pos = min(max(float(pos), float(s[i])), float(s[i + 1]))
        return pos, math.sqrt(hh)

    rows: List[Tuple[float, float, float]] = []
    k = 0
    while k * dt < total:
        t = k * dt
        pos, v = state_at(t)
        rows.append((t, pos, v))
        k += 1
    rows.append((total, float(s[-1]), math.sqrt(h[-1])))
    return rows


def write_trajectory_csv(rows: List[Tuple[float, float, float]],
                         f: Union[str, io.TextIOBase]) -> None:
    """Write sampled rows with header "t,s,v"."""
    with text_file(f, "w") as fh:
        fh.write("t,s,v\n")
        for t, pos, v in rows:
            fh.write(f"{t:.17g},{pos:.17g},{v:.17g}\n")
