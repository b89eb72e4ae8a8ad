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

from .core import (Discretization, Endpoints, FrictionCircle, SpeedProfile,
                   UnsupportedInstanceError, _endpoint_pair)


@dataclass(frozen=True)
class PathSpec:
    """Path geometry (line, circular arc, or curvature table) + limits.

    kind:       "line" (length), "arc" (radius, angle) or "table"
                (samples [(s, kappa), ...] with strictly increasing s).
    v_max:      speed cap in m/s.
    f_fr:       acceleration-magnitude cap in m/s^2.
    endpoints:  optional (start, end) squared speeds; None entries leave
                the corresponding end free.
    Construction converts and checks every field; a ValueError names it.
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
        for key in ("v_max", "f_fr", *_FIELDS[self.kind]):
            if key != "table":  # checked below
                value = _field(key, getattr(self, key),
                               lambda v: _finite(v, 0.0), "a positive finite number")
                object.__setattr__(self, key, value)
        # build_model's speed ceiling v_max**2 and slope cap 2*f_fr are finite
        _field("v_max", self.v_max, lambda v: _finite(v ** 2), "small enough to square")
        _field("f_fr", self.f_fr, lambda f: _finite(2.0 * f), "small enough to double")
        if self.kind == "arc":  # the sweeps' squares, bounded as for tables below
            k, span = 1.0 / self.radius, self.radius * self.angle
            big = max(2.0 * (k * span), k * min(self.v_max ** 2, self.f_fr / k))
            if not big * big < math.inf:
                raise ValueError("path spec arc out of range: kappa * max(2 * span, "
                                 "min('v_max'**2, 'f_fr' / kappa)) overflows squared, "
                                 "kappa = 1 / 'radius', span = 'radius' * 'angle'")
        if self.kind == "table":
            tab = _field("table", self.table, lambda t: tuple(
                (_finite(s), _finite(k)) for s, k in t),
                "a list of finite [s, kappa] pairs")
            if len(tab) < 2:
                raise ValueError("curvature table needs at least two samples")
            if any(b[0] <= a[0] for a, b in zip(tab, tab[1:])):
                raise ValueError("curvature table positions must be strictly increasing")
            if any(k < 0.0 for _, k in tab):
                raise ValueError("curvature must be non-negative")
            span = tab[-1][0] - tab[0][0]
            if span == math.inf:
                raise ValueError("path spec 'table' position span overflows")
            # the sweeps square 2*ds*kappa and kappa*h, with h <= v_max**2
            big = max(k for _, k in tab) * max(2.0 * span, self.v_max ** 2)
            if not big * big < math.inf:
                raise ValueError("path spec 'table' curvature too large: kappa * "
                                 "max(2 * span, v_max**2) overflows squared")
            object.__setattr__(self, "table", tab)
        if self.endpoints is not None:
            ep = _field("endpoints", self.endpoints, _squared_speeds,
                        "a (start, end) pair of finite squared speeds")
            object.__setattr__(self, "endpoints", _endpoint_pair(ep))

    @property
    def domain(self) -> Tuple[float, float]:
        if self.kind == "line":
            return 0.0, self.length
        if self.kind == "arc":
            return 0.0, self.radius * self.angle
        return self.table[0][0], self.table[-1][0]

    def grid(self, n: int) -> Discretization:
        a, b = self.domain
        return Discretization.uniform(a, b, n)

    def to_json_dict(self) -> dict:
        d = {key: getattr(self, key)
             for key in ("kind", "v_max", "f_fr", *_FIELDS[self.kind])}
        if self.kind == "table":
            d["table"] = [list(row) for row in self.table]
        if self.endpoints is not None:
            d["endpoints"] = {k: v for k, v in zip(("start_h", "end_h"),
                                                   self.endpoints)
                              if v is not None}
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PathSpec":
        """The spec a JSON object describes; a ValueError names a missing
        or wrongly typed field."""
        if not isinstance(d, dict):
            raise ValueError("path spec must be a JSON object")
        keys = ("kind", "v_max", "f_fr", *_FIELDS.get(str(d.get("kind")), ()))
        for key in keys:
            if key not in d:
                raise ValueError(f"path spec missing field {key!r}")
        fields = {key: d[key] for key in keys}
        if d.get("endpoints") is not None:
            fields["endpoints"] = _field("endpoints", d["endpoints"], lambda ep: (
                ep.get("start_h"), ep.get("end_h")), "an object of squared speeds")
        return cls(**fields)  # converts and checks every field


_FIELDS = {"line": ("length",), "arc": ("radius", "angle"), "table": ("table",)}


def _field(key: str, value, convert=float, what: str = "a number"):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError, AttributeError):
        raise ValueError(f"path spec field {key!r} must be {what}") from None


def _finite(x, low: float = -math.inf) -> float:
    x = float(x)
    if low < x < math.inf:
        return x
    raise ValueError(x)


def _squared_speeds(ep) -> Endpoints:
    start, end = ep
    return tuple(None if h is None else _finite(h) for h in (start, end))


def curvature(path: PathSpec, s: float) -> float:
    """Curvature of the path at position s (1/m); zero for a line."""
    a, b = path.domain
    if s < a or s > b:
        raise ValueError(f"position {s!r} outside path domain [{a!r}, {b!r}]")
    return float(_curvature(path)(s))


def _curvature(path: PathSpec):
    # Numpy curvatures at one position or an array of them, s clamped
    # into the path domain: last-segment float overshoot (s_prev + ds a
    # few ulps past the end) cannot raise mid-solve.
    if path.kind != "table":
        k = np.float64(0.0 if path.kind == "line" else 1.0 / path.radius)
        return lambda s: k + 0.0 * s
    ss = np.array([p for p, _ in path.table])
    kk = np.array([k for _, k in path.table])
    return lambda s: np.interp(s, ss, kk)


def build_model(path: PathSpec) -> FrictionCircle:
    """Dynamics bounds for a path under speed and acceleration caps: the
    friction circle (:class:`FrictionCircle`) of the path's curvature.

    Slope window: +-2*sqrt(f_fr^2 - kappa^2 h^2), with the radicand
    clamped at zero so the window stays defined (and continuous) when a
    solver iterate grazes the ceiling. Ceiling: min(v_max^2, f_fr/kappa)
    with f_fr/0 treated as infinite. Floor: zero. The global slope cap
    is 2*f_fr. Nothing is sampled here.
    """
    return FrictionCircle(path.f_fr, path.v_max ** 2, _curvature(path))


def _closed_form(path: PathSpec):
    """(h at an array of positions, exact traversal time) of the optimum in
    the cases :func:`analytic_optimum` supports; else UnsupportedInstanceError."""
    S, f, v = path.domain[1], path.f_fr, path.v_max
    if path.kind == "line" and path.endpoints == (0.0, 0.0):
        # a triangle (accelerate to the midpoint, brake after) or, when the
        # speed cap binds, a trapezoid (accelerate to v, cruise, brake)
        t = 2.0 * math.sqrt(S / f) if v * v >= f * S else S / v + v / f
        return lambda s: np.minimum(np.minimum(2.0 * f * s, 2.0 * f * (S - s)),
                                    v ** 2), t
    if path.kind != "table" and path.endpoints in (None, (None, None)):
        cap = v ** 2 if path.kind == "line" else min(v ** 2, f * path.radius)
        t = S / v if path.kind == "line" else S / math.sqrt(cap)
        return lambda s: np.full(s.size, cap), t
    raise UnsupportedInstanceError(
        f"no closed form for kind={path.kind!r} endpoints={path.endpoints!r}")


def analytic_optimum(path: PathSpec, grid: Discretization) -> SpeedProfile:
    """Closed-form optimal profile, sampled on ``grid``.

    Supported: a line traversed rest-to-rest or with free endpoints, and
    an arc with free endpoints. Anything else has no closed form here.
    """
    return SpeedProfile(grid, _closed_form(path)[0](grid.points))


def analytic_time(path: PathSpec) -> float:
    """Exact traversal time matching :func:`analytic_optimum`."""
    return _closed_form(path)[1]
