"""Bundled benchmark instances and a randomized instance generator."""

import math
from typing import Dict

import numpy as np

from .paths import PathSpec


def line_instance() -> PathSpec:
    """Straight 1 m segment driven rest-to-rest; triangular optimum."""
    return PathSpec("line", v_max=10.0, f_fr=1.0, length=1.0,
                    endpoints=(0.0, 0.0))


def circle_instance() -> PathSpec:
    """Full unit circle with free endpoints; constant optimum h = 1."""
    return PathSpec("arc", v_max=10.0, f_fr=1.0, radius=1.0,
                    angle=2.0 * math.pi)


def capped_line_instance() -> PathSpec:
    """Line where the speed cap binds; trapezoidal optimum."""
    return PathSpec("line", v_max=0.5, f_fr=1.0, length=1.0,
                    endpoints=(0.0, 0.0))


def capped_arc_instance() -> PathSpec:
    """Half turn of radius 2 driven rest-to-rest; the curvature ceiling
    (h = 2) binds over the middle of the path."""
    return PathSpec("arc", v_max=10.0, f_fr=1.0, radius=2.0, angle=math.pi,
                    endpoints=(0.0, 0.0))


def wave_table_instance() -> PathSpec:
    """Tabulated sinusoidal curvature, rest-to-rest."""
    s = np.linspace(0.0, 3.0, 61)
    kappa = 0.6 + 0.5 * np.sin(2.0 * math.pi * s / 3.0)
    table = tuple((float(a), float(k)) for a, k in zip(s, kappa))
    return PathSpec("table", v_max=1.5, f_fr=1.0, table=table,
                    endpoints=(0.0, 0.0))


def bundled_instances() -> Dict[str, PathSpec]:
    return {
        "line": line_instance(),
        "circle": circle_instance(),
        "capped_line": capped_line_instance(),
        "capped_arc": capped_arc_instance(),
        "wave_table": wave_table_instance(),
    }


def random_table_instance(seed: int) -> PathSpec:
    """Randomized curvature-table instance; always feasible (floor is 0)."""
    rng = np.random.default_rng(seed)
    length = float(rng.uniform(0.8, 3.0))
    knots = int(rng.integers(5, 13))
    s = np.linspace(0.0, length, knots)
    kappa = rng.uniform(0.0, 1.8, size=knots)
    table = tuple((float(a), float(k)) for a, k in zip(s, kappa))
    v_max = float(rng.uniform(0.6, 2.5))
    f_fr = float(rng.uniform(0.5, 2.0))
    choice = int(rng.integers(0, 5))  # free, at rest or drawn ends
    endpoints = (None, (0.0, 0.0), (0.0, None), (None, 0.0))[choice] if choice < 4 \
        else (float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)))
    return PathSpec("table", v_max=v_max, f_fr=f_fr, table=table,
                    endpoints=endpoints)
