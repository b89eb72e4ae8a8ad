"""Geometric paths plus actuation limits, translated into dynamics bounds.

A path is assumed parametrized by arc length, so the curvature is the
norm of its second derivative. With a speed cap v_max and an
acceleration-magnitude cap f_fr, the squared speed h obeys

    |h'(s)| <= 2 * sqrt(f_fr^2 - kappa(s)^2 * h(s)^2)
    0 <= h(s) <= min(v_max^2, f_fr / kappa(s))

The box ceiling uses f_fr/kappa: above that value the slope radicand
goes negative, i.e. no acceleration budget is left for anything but
turning.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (Discretization, DynamicsModel, Endpoints, SpeedProfile,
                   UnsupportedInstanceError)


@dataclass(frozen=True)
class PathSpec:
    """Path geometry (line, circular arc, or curvature table) + limits.

    kind:       "line" (length), "arc" (radius, angle) or "table"
                (samples [(s, kappa), ...] with strictly increasing s).
    v_max:      speed cap in m/s.
    f_fr:       acceleration-magnitude cap in m/s^2.
    endpoints:  optional (start, end) squared speeds; None entries leave
                the corresponding end free.
    """

    kind: str
    v_max: float
    f_fr: float
    length: Optional[float] = None
    radius: Optional[float] = None
    angle: Optional[float] = None
    table: Optional[Tuple[Tuple[float, float], ...]] = None
    endpoints: Endpoints = None

    def __post_init__(self):
        if self.kind not in ("line", "arc", "table"):
            raise ValueError(f"unknown path kind {self.kind!r}")
        if not (self.v_max > 0.0 and self.f_fr > 0.0):
            raise ValueError("v_max and f_fr must be positive")
        if self.kind == "line":
            if self.length is None or not self.length > 0.0:
                raise ValueError("line path needs positive length")
        elif self.kind == "arc":
            if self.radius is None or not self.radius > 0.0:
                raise ValueError("arc path needs positive radius")
            if self.angle is None or not self.angle > 0.0:
                raise ValueError("arc path needs positive angle")
        else:
            tab = tuple((float(s), float(k)) for s, k in (self.table or ()))
            if len(tab) < 2:
                raise ValueError("curvature table needs at least two samples")
            ss = [s for s, _ in tab]
            if any(s2 <= s1 for s1, s2 in zip(ss, ss[1:])):
                raise ValueError("curvature table positions must be strictly increasing")
            if any(k < 0.0 for _, k in tab):
                raise ValueError("curvature must be non-negative")
            object.__setattr__(self, "table", tab)
        if self.endpoints is not None:
            h0, h1 = self.endpoints
            for v in (h0, h1):
                if v is not None and v < 0.0:
                    raise ValueError("endpoint squared speeds must be non-negative")
            object.__setattr__(self, "endpoints", (h0, h1))
        values = [self.v_max, self.f_fr, self.length, self.radius, self.angle,
                  *(x for row in self.table or () for x in row),
                  *(self.endpoints or ())]
        if not all(v is None or math.isfinite(v) for v in values):
            raise ValueError("path spec values must be finite")

    @property
    def domain(self) -> Tuple[float, float]:
        if self.kind == "line":
            return 0.0, float(self.length)
        if self.kind == "arc":
            return 0.0, float(self.radius * self.angle)
        return self.table[0][0], self.table[-1][0]

    def grid(self, n: int) -> Discretization:
        a, b = self.domain
        return Discretization.uniform(a, b, n)

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind, "v_max": self.v_max, "f_fr": self.f_fr}
        if self.kind == "line":
            d["length"] = self.length
        elif self.kind == "arc":
            d["radius"] = self.radius
            d["angle"] = self.angle
        else:
            d["table"] = [[s, k] for s, k in self.table]
        if self.endpoints is not None:
            ep = {}
            if self.endpoints[0] is not None:
                ep["start_h"] = self.endpoints[0]
            if self.endpoints[1] is not None:
                ep["end_h"] = self.endpoints[1]
            d["endpoints"] = ep
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PathSpec":
        try:
            kind = d["kind"]
            v_max = float(d["v_max"])
            f_fr = float(d["f_fr"])
        except KeyError as e:
            raise ValueError(f"path spec missing required field {e.args[0]!r}") from e
        endpoints: Endpoints = None
        if "endpoints" in d and d["endpoints"] is not None:
            ep = d["endpoints"]
            start = ep.get("start_h")
            end = ep.get("end_h")
            endpoints = (None if start is None else float(start),
                         None if end is None else float(end))
        if kind == "line":
            if "length" not in d:
                raise ValueError("line path spec missing field 'length'")
            return cls(kind, v_max, f_fr, length=float(d["length"]),
                       endpoints=endpoints)
        if kind == "arc":
            for key in ("radius", "angle"):
                if key not in d:
                    raise ValueError(f"arc path spec missing field {key!r}")
            return cls(kind, v_max, f_fr, radius=float(d["radius"]),
                       angle=float(d["angle"]), endpoints=endpoints)
        if kind == "table":
            if "table" not in d:
                raise ValueError("table path spec missing field 'table'")
            tab = tuple((float(s), float(k)) for s, k in d["table"])
            return cls(kind, v_max, f_fr, table=tab, endpoints=endpoints)
        raise ValueError(f"unknown path kind {kind!r}")


def curvature(path: PathSpec, s: float) -> float:
    """Curvature of the path at position s (1/m); zero for a line."""
    a, b = path.domain
    if s < a or s > b:
        raise ValueError(f"position {s!r} outside path domain [{a!r}, {b!r}]")
    return _curvature_fn(path)(s)


def _curvature_fn(path: PathSpec):
    # Internal lookup used by model evaluators: clamps s into the path
    # domain so last-segment float overshoot (s_prev + ds a few ulps past
    # the end) cannot raise mid-solve.
    if path.kind == "line":
        return lambda s: 0.0
    if path.kind == "arc":
        k = 1.0 / path.radius
        return lambda s: k
    ss = np.array([p for p, _ in path.table])
    kk = np.array([k for _, k in path.table])

    def lookup(s, _ss=ss, _kk=kk):
        return float(np.interp(s, _ss, _kk))

    return lookup


def build_model(path: PathSpec) -> DynamicsModel:
    """Dynamics bounds for a path under speed and acceleration caps.

    Slope window: +-2*sqrt(f_fr^2 - kappa^2 h^2), with the radicand
    clamped at zero so the window stays defined (and continuous) when a
    solver iterate grazes the ceiling. Ceiling: min(v_max^2, f_fr/kappa)
    with f_fr/0 treated as infinite. Floor: zero. The global slope cap
    is 2*f_fr.
    """
    kappa_at = _curvature_fn(path)
    f = float(path.f_fr)
    f2 = f * f
    vmax2 = float(path.v_max) ** 2

    def fplus(s, h):
        k = kappa_at(s)
        r = f2 - (k * h) ** 2
        return 2.0 * math.sqrt(r) if r > 0.0 else 0.0

    def fminus(s, h):
        k = kappa_at(s)
        r = f2 - (k * h) ** 2
        return -2.0 * math.sqrt(r) if r > 0.0 else 0.0

    def bu(s):
        k = kappa_at(s)
        if k == 0.0:
            return vmax2
        return min(vmax2, f / k)

    def bl(s):
        return 0.0

    return DynamicsModel(fplus=fplus, fminus=fminus, bu=bu, bl=bl,
                         slope_cap=2.0 * f)


def _is_rest_to_rest(path: PathSpec) -> bool:
    return path.endpoints is not None and path.endpoints == (0.0, 0.0)


def _is_free(path: PathSpec) -> bool:
    return path.endpoints is None or path.endpoints == (None, None)


def analytic_optimum(path: PathSpec, grid: Discretization) -> SpeedProfile:
    """Closed-form optimal profile, sampled on ``grid``.

    Supported: a line traversed rest-to-rest or with free endpoints, and
    an arc with free endpoints. Anything else has no closed form here.
    """
    if path.kind == "line" and _is_rest_to_rest(path):
        s = grid.points
        S = float(path.length)
        h = np.minimum(np.minimum(2.0 * path.f_fr * s,
                                  2.0 * path.f_fr * (S - s)),
                       path.v_max ** 2)
        return SpeedProfile(grid, h, "analytic")
    if path.kind == "line" and _is_free(path):
        h = np.full(len(grid), path.v_max ** 2)
        return SpeedProfile(grid, h, "analytic")
    if path.kind == "arc" and _is_free(path):
        cap = min(path.v_max ** 2, path.f_fr * path.radius)
        h = np.full(len(grid), cap)
        return SpeedProfile(grid, h, "analytic")
    raise UnsupportedInstanceError(
        f"no closed-form optimum for kind={path.kind!r} "
        f"endpoints={path.endpoints!r}")


def analytic_time(path: PathSpec) -> float:
    """Exact traversal time matching :func:`analytic_optimum`."""
    if path.kind == "line" and _is_rest_to_rest(path):
        S, f, v = float(path.length), path.f_fr, path.v_max
        if v * v >= f * S:
            # triangular profile: accelerate to the midpoint, brake after
            return 2.0 * math.sqrt(S / f)
        # trapezoid: accelerate to v, cruise, brake
        return S / v + v / f
    if path.kind == "line" and _is_free(path):
        return float(path.length) / path.v_max
    if path.kind == "arc" and _is_free(path):
        a, b = path.domain
        cap = min(path.v_max ** 2, path.f_fr * path.radius)
        return (b - a) / math.sqrt(cap)
    raise UnsupportedInstanceError(
        f"no closed-form time for kind={path.kind!r} "
        f"endpoints={path.endpoints!r}")
