"""Shared data model: grids, dynamics bounds, squared-speed profiles.

A profile assigns a squared speed h_i >= 0 to every point of a position
grid. Feasibility of a profile is a per-point box constraint plus a
per-segment slope window evaluated at the segment's left endpoint.
"""

import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Union

import numpy as np

# Optional (start, end) squared speeds; a None entry leaves that end free.
Endpoints = Optional[Tuple[Optional[float], Optional[float]]]


class InfeasibleError(RuntimeError):
    """Raised when no profile can satisfy the constraints.

    Carries the first grid index where the constraint system became
    empty and the sweep ("backward" or "forward") that detected it.
    """

    def __init__(self, message: str, index: Optional[int] = None,
                 pass_name: Optional[str] = None):
        super().__init__(message)
        self.index = index
        self.pass_name = pass_name


class UnsupportedInstanceError(ValueError):
    """Raised when a closed-form result is requested for an unsupported case."""


@contextmanager
def text_file(f: Union[str, io.TextIOBase], mode: str = "r"
              ) -> Iterator[io.TextIOBase]:
    """Open ``f`` as UTF-8 text when it is a filename, closing it after;
    an already open stream is used as is and left open."""
    if isinstance(f, str):
        with open(f, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield f


def write_json(data: dict, f: Union[str, io.TextIOBase]) -> None:
    """Write ``data`` as JSON indented by 2, ending with a newline."""
    with text_file(f, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Discretization:
    """Strictly increasing grid of path positions covering [a, b].

    ``points`` must have at least two entries; the first and last are
    the interval endpoints.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _readonly(np.asarray(self.points, dtype=float))
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("discretization needs at least two points")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("discretization points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, a: float, b: float, n: int) -> "Discretization":
        """Uniform grid with ``n`` points from a to b (endpoints exact)."""
        if n < 2:
            raise ValueError("uniform grid needs n >= 2")
        if not b > a:
            raise ValueError("need b > a")
        return cls(np.linspace(a, b, n))

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def delta(self) -> float:
        """Resolution: the largest gap between consecutive points."""
        return float(np.max(np.diff(self.points)))

    def __len__(self) -> int:
        return int(self.points.size)

    def same_grid(self, other: "Discretization") -> bool:
        return self.points.size == other.points.size and bool(
            np.array_equal(self.points, other.points))


@dataclass(frozen=True)
class DynamicsModel:
    """Slope and box bounds defining one profile-planning problem.

    fplus/fminus map (s, h) to the largest/smallest allowed profile
    slope (squared speed per meter) at that state; bu/bl map s to the
    upper/lower squared-speed bound. ``slope_cap`` is a global bound B
    with |fplus|, |fminus| <= B on the feasible region; the solver and
    oracle rely on it for bracketing, so the supplier must provide it.
    ``xi`` records the relaxation level already applied to the slopes.
    """

    fplus: Callable[[float, float], float]
    fminus: Callable[[float, float], float]
    bu: Callable[[float], float]
    bl: Callable[[float], float]
    slope_cap: float
    xi: float = 0.0

    def __post_init__(self):
        if not self.slope_cap > 0.0:
            raise ValueError("slope_cap must be positive")
        if self.xi < 0.0:
            raise ValueError("xi must be non-negative")


def default_tol(model: DynamicsModel) -> float:
    """Admissibility tolerance absorbing float error on active constraints."""
    return 1e-9 * max(1.0, model.slope_cap)


def relax(model: DynamicsModel, xi: float) -> DynamicsModel:
    """Widen the slope window by +-xi; box bounds are unchanged.

    The returned model records the cumulative relaxation level and a
    slope cap enlarged by xi so bracketing stays valid.
    """
    if xi < 0.0:
        raise ValueError("relaxation level must be non-negative")
    fplus, fminus = model.fplus, model.fminus

    def fplus_relaxed(s, h, _f=fplus, _xi=xi):
        return _f(s, h) + _xi

    def fminus_relaxed(s, h, _f=fminus, _xi=xi):
        return _f(s, h) - _xi

    return DynamicsModel(
        fplus=fplus_relaxed,
        fminus=fminus_relaxed,
        bu=model.bu,
        bl=model.bl,
        slope_cap=model.slope_cap + xi,
        xi=model.xi + xi,
    )


@dataclass(frozen=True)
class SpeedProfile:
    """Squared-speed values aligned to a grid, tagged with their origin."""

    grid: Discretization
    values: np.ndarray
    provenance: str = "synthetic"

    def __post_init__(self):
        vals = _readonly(np.asarray(self.values, dtype=float))
        if vals.ndim != 1 or vals.size != len(self.grid):
            raise ValueError("profile length must match its grid")
        object.__setattr__(self, "values", vals)

    def to_csv(self, f: Union[str, io.TextIOBase]) -> None:
        """Write rows "s,h" with 17 significant digits (lossless round trip)."""
        with text_file(f, "w") as fh:
            fh.write("s,h\n")
            for s, h in zip(self.grid.points, self.values):
                fh.write(f"{s:.17g},{h:.17g}\n")

    @classmethod
    def from_csv(cls, f: Union[str, io.TextIOBase],
                 provenance: str = "synthetic") -> "SpeedProfile":
        with text_file(f) as fh:
            header = fh.readline().strip()
            if header != "s,h":
                raise ValueError(f"expected profile CSV header 's,h', got {header!r}")
            ss, hs = [], []
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                s_str, h_str = line.split(",")
                ss.append(float(s_str))
                hs.append(float(h_str))
        return cls(Discretization(np.array(ss)), np.array(hs), provenance)

    def to_json_dict(self) -> dict:
        return {
            "grid": [float(s) for s in self.grid.points],
            "values": [float(h) for h in self.values],
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SpeedProfile":
        return cls(Discretization(np.asarray(d["grid"], dtype=float)),
                   np.asarray(d["values"], dtype=float),
                   str(d.get("provenance", "synthetic")))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of an admissibility check; falsy when a constraint failed."""

    ok: bool
    index: Optional[int] = None
    constraint: Optional[str] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_admissible(profile: SpeedProfile, model: DynamicsModel,
                     tol: Optional[float] = None) -> AdmissibilityReport:
    """Check box bounds at every point and slope windows on every segment.

    Slopes are chords (h_{i+1} - h_i) / (s_{i+1} - s_i) compared against
    the window [fminus, fplus] evaluated at the left endpoint; there is
    no slope constraint at the final point. Ties are admissible. When
    ``tol`` is omitted the model's default tolerance is used. On failure
    the report names the smallest violating index and the constraint.
    """
    if tol is None:
        tol = default_tol(model)
    if tol < 0.0:
        raise ValueError("tolerance must be non-negative")
    s = profile.grid.points
    h = profile.values
    n = h.size
    for i in range(n):
        lo = model.bl(s[i])
        hi = model.bu(s[i])
        if h[i] < lo - tol:
            return AdmissibilityReport(
                False, i, "below_lower_bound",
                f"h={h[i]!r} < bl={lo!r} at s={s[i]!r}")
        if h[i] > hi + tol:
            return AdmissibilityReport(
                False, i, "above_upper_bound",
                f"h={h[i]!r} > bu={hi!r} at s={s[i]!r}")
        if i < n - 1:
            slope = (h[i + 1] - h[i]) / (s[i + 1] - s[i])
            f_lo = model.fminus(s[i], h[i])
            f_hi = model.fplus(s[i], h[i])
            if slope < f_lo - tol:
                return AdmissibilityReport(
                    False, i, "slope_below_min",
                    f"slope={slope!r} < fminus={f_lo!r} at s={s[i]!r}")
            if slope > f_hi + tol:
                return AdmissibilityReport(
                    False, i, "slope_above_max",
                    f"slope={slope!r} > fplus={f_hi!r} at s={s[i]!r}")
    return AdmissibilityReport(True)


def profile_error(candidate: SpeedProfile, reference: SpeedProfile) -> float:
    """Largest absolute pointwise gap between two profiles on one grid."""
    if not candidate.grid.same_grid(reference.grid):
        raise ValueError("profiles must share an identical grid")
    return float(np.max(np.abs(candidate.values - reference.values)))


@dataclass(frozen=True)
class SolveStatus:
    """Feasible, or the first index/pass where the solve became empty."""

    feasible: bool
    index: Optional[int] = None
    pass_name: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {"feasible": self.feasible, "index": self.index,
                "pass": self.pass_name}

    @property
    def message(self) -> str:
        """Where an infeasible solve became empty, for error output."""
        return f"infeasible at index {self.index} ({self.pass_name} pass)"


@dataclass(frozen=True)
class SolveReport:
    """Solver output: final profile plus both intermediate pass sequences.

    ``backward`` and ``forward`` keep whatever was computed before an
    infeasibility was detected (NaN past that point). On a feasible
    solve ``profile.values`` equals ``forward``.
    """

    status: SolveStatus
    backward: np.ndarray
    forward: Optional[np.ndarray] = None
    profile: Optional[SpeedProfile] = None
    traversal_time: Optional[float] = None

    def to_json_dict(self) -> dict:
        def _seq(arr):
            if arr is None:
                return None
            return [None if math.isnan(x) else float(x) for x in arr]

        return {
            "status": self.status.to_json_dict(),
            "backward": _seq(self.backward),
            "forward": _seq(self.forward),
            "profile": self.profile.to_json_dict() if self.profile else None,
            "traversal_time": self.traversal_time,
        }

    def write_json(self, f: Union[str, io.TextIOBase]) -> None:
        write_json(self.to_json_dict(), f)

    def require_feasible(self, what: str) -> "SolveReport":
        """Return the report, or raise :class:`InfeasibleError` carrying
        the failing index and pass, with ``what`` naming the solve."""
        st = self.status
        if not st.feasible:
            raise InfeasibleError(f"{what} {st.message}", index=st.index,
                                  pass_name=st.pass_name)
        return self
