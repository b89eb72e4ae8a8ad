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
from typing import Union

import numpy as np

from .core import SpeedProfile, text_file, write_rows


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


def sample_trajectory(profile: SpeedProfile, dt: float) -> np.ndarray:
    """Sample (t, s, speed) at t = k * dt below the total traversal time,
    plus a last row exactly at that total, as an (m, 3) array.

    Positions are recovered by inverting the segment closed form: with
    h linear on a segment, sqrt(h) grows linearly in time, so

        sqrt(h(t)) = sqrt(h0) + (m/2) * tau,   s(t) = s0 + (h - h0) / m

    for slope m = dh/ds != 0, and s(t) = s0 + sqrt(h0) * tau when the
    segment is constant; s(t) is then clamped to the segment.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    t_knots = _knot_times(profile)
    total = float(t_knots[-1])
    if math.isinf(total):
        raise ValueError("profile stalls (h == 0 across a segment); "
                         "traversal time is not finite")
    if not total / dt < 2.0 ** 53:  # past this, k * dt cannot step k exactly
        raise ValueError(f"dt={dt!r} gives too many samples over {total!r} s")
    s, h = profile.grid.points, profile.values
    t = np.arange(int(total / dt) + 2) * dt  # 2 past total / dt: room to round
    t = t[:np.searchsorted(t, total)]  # the times below total
    rows = np.empty((t.size + 1, 3))
    rows[:-1, 0] = t
    rows[-1] = total, s[-1], math.sqrt(h[-1])
    # The scalar formulas above, in the same float operations, for all
    # samples at once, written into rows to keep memory small.
    i = np.clip(np.searchsorted(t_knots, t, side="right") - 1, 0, s.size - 2)
    tau = np.subtract(t, t_knots[i], out=t)
    s0, h0 = s[i], h[i]
    m = (h[i + 1] - h0) / (s[i + 1] - s0)
    root_h0, flat = np.sqrt(h0), m == 0.0
    pos, hh = rows[:-1, 1], rows[:-1, 2]
    with np.errstate(divide="ignore", invalid="ignore"):  # replaced where flat
        np.square(root_h0 + 0.5 * m * tau, out=hh)
        np.copyto(hh, h0, where=flat)
        np.divide(hh - h0, m, out=pos)
    pos += s0
    np.copyto(pos, s0 + root_h0 * tau, where=flat)
    np.maximum(pos, s0, out=pos)
    np.minimum(pos, s[i + 1], out=pos)
    np.sqrt(hh, out=hh)
    return rows


def write_trajectory_csv(rows: np.ndarray, f: Union[str, io.TextIOBase]) -> None:
    """Write sampled (t, s, v) rows with header "t,s,v"."""
    with text_file(f, "w") as fh:
        fh.write("t,s,v\n")
        write_rows(fh, "%.17g,%.17g,%.17g\n", *np.asarray(rows).T)
