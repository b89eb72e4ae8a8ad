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
from dataclasses import dataclass, replace
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


# Rows formatted per CSV write.
BLOCK_ROWS = 4096


def write_rows(fh: io.TextIOBase, fmt: str, *columns) -> None:
    """Write ``fmt % row`` per row of the columns, BLOCK_ROWS rows a write."""
    for i in range(0, len(columns[0]), BLOCK_ROWS):
        block = np.column_stack([c[i:i + BLOCK_ROWS] for c in columns])
        fh.write((fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def write_json(data: dict, f: Union[str, io.TextIOBase]) -> None:
    """Write ``data`` as JSON indented by 2 plus a newline."""
    with text_file(f, "w") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


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
    """The friction-circle model, the one definition of the built-in
    model: slope window +-2*sqrt(f_fr^2 - kappa^2 h^2) (zero where the
    radicand is not positive) widened by +-xi, ceiling min(vmax2,
    f_fr/kappa), floor zero. ``kappa`` maps position arrays to
    curvatures, ``kappa_at`` one position to the same float."""

    f_fr: float
    vmax2: float
    kappa: Callable[[np.ndarray], np.ndarray]
    kappa_at: Callable[[float], float]
    xi: float = 0.0

    def ceiling(self, kappa: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):  # f/0 = inf: only v_max binds
            return np.minimum(self.vmax2, self.f_fr / kappa)

    def slopes(self, kappa: np.ndarray, h: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        """(fminus, fplus) at the states (kappa, h): elementwise, the
        floats of :meth:`scalar_slopes`."""
        kh = kappa * h
        r = self.f_fr * self.f_fr - kh * kh
        root = np.where(r > 0.0, 2.0 * np.sqrt(np.maximum(r, 0.0)), 0.0)
        return np.where(r > 0.0, -root, 0.0) - self.xi, root + self.xi

    def scalar_slopes(self):
        """(fminus(k, h), fplus(k, h)): the slopes at one state (k, h)."""
        f2, xi, sqrt = self.f_fr * self.f_fr, self.xi, math.sqrt

        def fminus(k, h):
            kh = k * h
            r = f2 - kh * kh
            return (-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi

        def fplus(k, h):
            kh = k * h
            r = f2 - kh * kh
            return (2.0 * sqrt(r) if r > 0.0 else 0.0) + xi

        return fminus, fplus

    def model(self, slope_cap: float) -> "DynamicsModel":
        """These bounds as callables of s, with ``friction`` this circle."""
        kappa_at, vmax2, f = self.kappa_at, self.vmax2, self.f_fr
        fminus, fplus = self.scalar_slopes()

        def bu(s):
            k = kappa_at(s)
            return vmax2 if k == 0.0 else min(vmax2, f / k)

        return DynamicsModel(
            fplus=lambda s, h: fplus(kappa_at(s), h),
            fminus=lambda s, h: fminus(kappa_at(s), h),
            bu=bu, bl=lambda s: 0.0, slope_cap=slope_cap, xi=self.xi,
            friction=self)


@dataclass(frozen=True)
class DynamicsModel:
    """Slope and box bounds defining one profile-planning problem.

    fplus/fminus map (s, h) to the largest/smallest allowed profile
    slope (squared speed per meter) at that state; bu/bl map s to the
    upper/lower squared-speed bound. The supplier must keep B =
    ``slope_cap`` >= |fplus|, |fminus| on the feasible region (the solver
    and oracle bracket by it) and fminus convex and fplus concave in h on
    [bl, bu] (paper's class), or a feasible step may be reported infeasible.
    ``xi`` records the relaxation level already applied to the slopes.
    ``friction``, when set, is the model the callables were made from
    (:meth:`FrictionCircle.model`), at the same ``xi``; the solver, the
    admissibility check and the oracle read it instead of the callables.
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
        if self.friction is not None and self.friction.xi != self.xi:
            raise ValueError("friction.xi must equal xi; relax() widens both")


def default_tol(model: DynamicsModel) -> float:
    """Admissibility tolerance absorbing float error on active constraints."""
    return 1e-9 * max(1.0, model.slope_cap)


def relax(model: DynamicsModel, xi: float) -> DynamicsModel:
    """Widen the slope window by +-xi; box bounds are unchanged.

    The model is made anew from its ``friction`` description, widened by
    xi, with the cumulative relaxation level and a slope cap enlarged by
    xi so bracketing stays valid. A model without one is rejected.
    """
    if xi < 0.0:
        raise ValueError("relaxation level must be non-negative")
    if model.friction is None:
        raise ValueError("relax needs a model with a friction description")
    return replace(model.friction, xi=model.friction.xi + xi).model(
        model.slope_cap + xi)


def _box_bounds(points: np.ndarray, model: DynamicsModel):
    """(kappa, floor, ceiling) at ``points``: from ``model.friction`` when
    set (floor zero), else kappa None and one bl and one bu call a point."""
    if model.friction is not None:
        kappa = model.friction.kappa(points)
        return kappa, np.zeros(points.size), model.friction.ceiling(kappa)
    sl = points.tolist()
    return None, *(np.array([b(x) for x in sl], dtype=float)
                   for b in (model.bl, model.bu))


def _bad_row(fh: io.TextIOBase, start) -> str:
    """Where and how the first row of the profile CSV that starts (with
    its header, line 1) at ``start`` is malformed."""
    fh.seek(start)
    for no, line in enumerate(fh, 1):
        fields = line.rstrip("\r\n").split(",")
        if no == 1 or fields == [""]:
            continue
        if len(fields) != 2:
            return f"line {no}: expected 2 fields (s,h), got {len(fields)}"
        for tok in fields:
            try:  # np.loadtxt, unlike float(), rejects "1_0" and non-ASCII digits
                float(tok if tok.isascii() and "_" not in tok else "x")
            except ValueError:
                return f"line {no}: {tok.strip()!r} is not a number"
    return "is malformed"


@dataclass(frozen=True)
class SpeedProfile:
    """Squared-speed values aligned to a grid."""

    grid: Discretization
    values: np.ndarray

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
    def from_csv(cls, f: Union[str, io.TextIOBase]) -> "SpeedProfile":
        """Read rows "s,h" after that header; empty lines are skipped. A
        malformed row is named by its line in the file (header: line 1)."""
        with text_file(f) as fh:
            start = fh.tell() if fh.seekable() else None
            header = fh.readline().strip()
            if header != "s,h":
                raise ValueError(f"expected profile CSV header 's,h', got {header!r}")
            try:
                with warnings.catch_warnings():  # no rows: the grid check says so
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                if rows.size and rows.shape[1] != 2:
                    raise ValueError  # the same wrong field count on every row
            except ValueError:
                where = "has a malformed row" if start is None else _bad_row(fh, start)
                raise ValueError(f"profile CSV {where}") from None
        s, h = rows.reshape(-1, 2).T
        return cls(Discretization(s), h)


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
    if not 0.0 <= tol < math.inf:
        raise ValueError("tolerance must be finite and non-negative")
    s, h = profile.grid.points, profile.values
    n = h.size
    kappa, lo, hi = _box_bounds(s, model)
    if kappa is not None:
        f_lo, f_hi = model.friction.slopes(kappa[:-1], h[:-1])
    else:
        sl, hl = s.tolist(), h.tolist()
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

    def to_json_dict(self) -> dict:
        """The solve summary, without the arrays: its size does not grow with n."""
        return {"status": self.status.to_json_dict(),
                "n": int(self.backward.size),
                "traversal_time": self.traversal_time}

    def write_json(self, f: Union[str, io.TextIOBase]) -> None:
        """Write :meth:`to_json_dict` (``report.json``)."""
        write_json(self.to_json_dict(), f)

    def require_feasible(self, what: str) -> "SolveReport":
        """Return the report, or raise :class:`InfeasibleError` carrying
        the failing index and pass, with ``what`` naming the solve."""
        st = self.status
        if not st.feasible:
            raise InfeasibleError(f"{what} {st.message}", index=st.index,
                                  pass_name=st.pass_name)
        return self
