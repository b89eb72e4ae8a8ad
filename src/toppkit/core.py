"""Shared data model: grids, dynamics bounds, squared-speed profiles.

A profile assigns a squared speed h_i >= 0 to every point of a position
grid. Feasibility of a profile is a per-point box constraint plus a
per-segment slope window evaluated at the segment's left endpoint.
"""

import io
import json
import math
import warnings
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


# Rows (CSV) or array elements (JSON) formatted per write.
BLOCK_ROWS = 4096


def write_rows(fh: io.TextIOBase, fmt: str, *columns) -> None:
    """Write ``fmt % row`` per row of the columns, BLOCK_ROWS rows a write."""
    for i in range(0, len(columns[0]), BLOCK_ROWS):
        block = np.column_stack([c[i:i + BLOCK_ROWS] for c in columns])
        fh.write((fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def _plain(value):
    """``value`` with its float arrays, also in dicts, as lists (NaN as None)."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if not isinstance(value, np.ndarray):
        return value
    out = value.tolist()
    return [None if math.isnan(x) else x for x in out] if np.isnan(value).any() else out


def _dump_json(value, fh: io.TextIOBase, pad: str) -> None:
    """Write ``value`` as ``json.dump(value, indent=2)`` would, indented by ``pad``."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        for j, (k, v) in enumerate(value.items()):
            fh.write(f"{',' if j else '{'}\n{inner}{json.dumps(k)}: ")
            _dump_json(v, fh, inner)
        fh.write(f"\n{pad}}}")
    elif isinstance(value, np.ndarray) and value.size:
        sep = ",\n" + inner
        for i in range(0, value.size, BLOCK_ROWS):
            block = json.dumps(_plain(value[i:i + BLOCK_ROWS]), separators=(sep, ": "))
            fh.write((sep if i else "[\n" + inner) + block[1:-1])
        fh.write(f"\n{pad}]")
    else:
        fh.write(json.dumps(_plain(value), indent=2).replace("\n", "\n" + pad))


def write_json(data: dict, f: Union[str, io.TextIOBase]) -> None:
    """Write ``data`` (string keys) as JSON indented by 2 plus a newline;
    float arrays as lists (NaN as null), in blocks through the C encoder."""
    with text_file(f, "w") as fh:
        _dump_json(data, fh, "")
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
        if not np.all(np.isfinite(pts)):
            raise ValueError("discretization points must be finite")
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
class FrictionCircle:
    """Friction-circle bounds for array evaluation: slope window
    +-2*sqrt(f_fr^2 - kappa^2 h^2) (zero where the radicand is not
    positive), ceiling min(vmax2, f_fr/kappa), floor zero. ``kappa`` maps
    positions to curvatures. Elementwise, the methods give the floats of
    the scalar callables that ``paths.build_model`` makes."""

    f_fr: float
    vmax2: float
    kappa: Callable[[np.ndarray], np.ndarray]

    def ceiling(self, kappa: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):  # f/0 = inf: only v_max binds
            return np.minimum(self.vmax2, self.f_fr / kappa)

    def slopes(self, kappa: np.ndarray, h: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        """(fminus, fplus) at the states (kappa, h)."""
        kh = kappa * h
        r = self.f_fr * self.f_fr - kh * kh
        root = np.where(r > 0.0, 2.0 * np.sqrt(np.maximum(r, 0.0)), 0.0)
        return np.where(r > 0.0, -root, 0.0), root


@dataclass(frozen=True)
class DynamicsModel:
    """Slope and box bounds defining one profile-planning problem.

    fplus/fminus map (s, h) to the largest/smallest allowed profile
    slope (squared speed per meter) at that state; bu/bl map s to the
    upper/lower squared-speed bound. ``slope_cap`` is a global bound B
    with |fplus|, |fminus| <= B on the feasible region; the solver and
    oracle rely on it for bracketing, so the supplier must provide it.
    ``xi`` records the relaxation level already applied to the slopes.
    ``friction``, when set, holds the same bounds in closed form, which
    the solver and the admissibility check use instead of the callables.
    """

    fplus: Callable[[float, float], float]
    fminus: Callable[[float, float], float]
    bu: Callable[[float], float]
    bl: Callable[[float], float]
    slope_cap: float
    xi: float = 0.0
    friction: Optional[FrictionCircle] = None

    def __post_init__(self):
        if not self.slope_cap > 0.0:
            raise ValueError("slope_cap must be positive")
        if self.xi < 0.0:
            raise ValueError("xi must be non-negative")
        if self.friction is not None and self.xi != 0.0:
            raise ValueError("a friction-circle model cannot be relaxed in place")


def default_tol(model: DynamicsModel) -> float:
    """Admissibility tolerance absorbing float error on active constraints."""
    return 1e-9 * max(1.0, model.slope_cap)


def relax(model: DynamicsModel, xi: float) -> DynamicsModel:
    """Widen the slope window by +-xi; box bounds are unchanged.

    The returned model records the cumulative relaxation level and a
    slope cap enlarged by xi so bracketing stays valid. It carries no
    ``friction`` description, so solves of it use the callables.
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
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile squared speeds must be finite")
        object.__setattr__(self, "values", vals)

    def to_csv(self, f: Union[str, io.TextIOBase]) -> None:
        """Write rows "s,h" with 17 significant digits (lossless round trip)."""
        with text_file(f, "w") as fh:
            fh.write("s,h\n")
            write_rows(fh, "%.17g,%.17g\n", self.grid.points, self.values)

    @classmethod
    def from_csv(cls, f: Union[str, io.TextIOBase],
                 provenance: str = "synthetic") -> "SpeedProfile":
        """Read rows "s,h" after that header; blank lines are skipped."""
        with text_file(f) as fh:
            header = fh.readline().strip()
            if header != "s,h":
                raise ValueError(f"expected profile CSV header 's,h', got {header!r}")
            with warnings.catch_warnings():  # no rows: the grid check says so
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        if rows.size and rows.shape[1] != 2:
            raise ValueError(f"expected rows 's,h', got {rows.shape[1]} fields")
        s, h = rows.reshape(-1, 2).T
        return cls(Discretization(s), h, provenance)

    def _json_fields(self) -> dict:
        return {"grid": self.grid.points, "values": self.values,
                "provenance": self.provenance}

    def to_json_dict(self) -> dict:
        return _plain(self._json_fields())

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
    The bounds are sampled once per point (from ``model.friction`` when
    set) and compared elementwise, with the same floats as a scalar loop.
    """
    if tol is None:
        tol = default_tol(model)
    if tol < 0.0:
        raise ValueError("tolerance must be non-negative")
    s, h = profile.grid.points, profile.values
    n = h.size
    if model.friction is not None:
        kappa = model.friction.kappa(s)
        lo, hi = np.zeros(n), model.friction.ceiling(kappa)
        f_lo, f_hi = model.friction.slopes(kappa[:-1], h[:-1])
    else:
        sl, hl = s.tolist(), h.tolist()
        lo, hi = (np.array([b(x) for x in sl]) for b in (model.bl, model.bu))
        f_lo, f_hi = (np.array([f(x, y) for x, y in zip(sl[:-1], hl)])
                      for f in (model.fminus, model.fplus))
    slope = np.diff(h) / np.diff(s)
    # One row per check, in reporting order: at each index the bounds
    # come before the slope, and the slope at i before the bounds at i+1.
    fails = np.zeros((4, n), dtype=bool)
    fails[0] = h < lo - tol
    fails[1] = h > hi + tol
    fails[2, :-1] = slope < f_lo - tol
    fails[3, :-1] = slope > f_hi + tol
    bad = np.flatnonzero(fails.any(axis=0))
    if bad.size == 0:
        return AdmissibilityReport(True)
    i = int(bad[0])
    name, x, xs, op, y, ys = (
        ("below_lower_bound", "h", h, "<", "bl", lo),
        ("above_upper_bound", "h", h, ">", "bu", hi),
        ("slope_below_min", "slope", slope, "<", "fminus", f_lo),
        ("slope_above_max", "slope", slope, ">", "fplus", f_hi),
    )[int(np.argmax(fails[:, i]))]
    return AdmissibilityReport(
        False, i, name,
        f"{x}={float(xs[i])!r} {op} {y}={float(ys[i])!r} at s={float(s[i])!r}")


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

    def _json_fields(self) -> dict:
        """The JSON fields, with the float arrays left as arrays."""
        return {
            "status": self.status.to_json_dict(),
            "backward": self.backward,
            "forward": self.forward,
            "profile": self.profile._json_fields() if self.profile else None,
            "traversal_time": self.traversal_time,
        }

    def to_json_dict(self) -> dict:
        return _plain(self._json_fields())

    def write_json(self, f: Union[str, io.TextIOBase]) -> None:
        """Write :meth:`to_json_dict` without building its lists."""
        write_json(self._json_fields(), f)

    def require_feasible(self, what: str) -> "SolveReport":
        """Return the report, or raise :class:`InfeasibleError` carrying
        the failing index and pass, with ``what`` naming the solve."""
        st = self.status
        if not st.feasible:
            raise InfeasibleError(f"{what} {st.message}", index=st.index,
                                  pass_name=st.pass_name)
        return self
