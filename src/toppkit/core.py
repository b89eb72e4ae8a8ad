"""Shared data model: grids, dynamics bounds, squared-speed profiles.

A profile assigns a squared speed h_i >= 0 to every point of a position
grid. Feasibility of a profile is a per-point box constraint plus a
per-segment slope window evaluated at the segment's left endpoint.
"""

import json
import math
import os
import shutil
import tempfile
import warnings
from contextlib import ExitStack, suppress
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Optional, Tuple, Union

import numpy as np

# Optional (start, end) squared speeds; a None entry leaves that end free.
Endpoints = Optional[Tuple[Optional[float], Optional[float]]]


def _endpoint_pair(endpoints: Endpoints) -> Tuple[Optional[float], Optional[float]]:
    """(start, end) of ``endpoints``, None for a free end; a ValueError
    for a NaN or negative squared speed (``inf`` caps nothing)."""
    pair = (None, None) if endpoints is None else endpoints
    if any(h is not None and not h >= 0.0 for h in pair):
        raise ValueError("endpoint squared speeds must be non-negative")
    return pair


class InfeasibleError(RuntimeError):
    """Raised when no profile can satisfy the constraints: ``what`` came
    up empty at grid index ``index`` (position ``s``) in the sweep
    ``pass_name`` ("backward" or "forward") over ``points``."""

    def __init__(self, what: str, points, index: int, pass_name: str):
        self.index, self.s, self.pass_name = index, float(points[index]), pass_name
        super().__init__(f"{what} at index {index} at s={self.s!r}")


class UnsupportedInstanceError(ValueError):
    """Raised when a closed-form result is requested for an unsupported case."""


# Rows formatted per CSV write, and points per block of a whole-grid array
# pass: its temporaries stay a few block-sized arrays, never grid-sized.
BLOCK_ROWS = 4096


def _blockwise(out: np.ndarray, f, *arrays) -> np.ndarray:
    """``out[:] = f(*arrays)`` for an elementwise ``f`` of arrays as long as
    ``out``, evaluated BLOCK_ROWS elements at a time; returns ``out``."""
    for i in range(0, out.size, BLOCK_ROWS):
        out[i:i + BLOCK_ROWS] = f(*(a[i:i + BLOCK_ROWS] for a in arrays))
    return out


def write_csv(path: str, header: str, fmt: str, *columns) -> None:
    """Write the line ``header``, then ``fmt % row`` per row of the columns, BLOCK_ROWS rows
    a write, to the UTF-8 file ``path``, from 8 blocks on half of them in a forked child."""
    def rows(fh, start, stop=len(columns[0])):  # from a block boundary
        for i in range(start, stop, BLOCK_ROWS):
            block = np.column_stack([c[i:i + BLOCK_ROWS] for c in columns])
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
    line, pid, mid = fmt + "\n", None, len(columns[0]) // (2 * BLOCK_ROWS) * BLOCK_ROWS
    with open(path, "w", encoding="utf-8") as fh, ExitStack() as stack:
        fh.write(header + "\n")
        if mid >= 4 * BLOCK_ROWS and hasattr(os, "fork"):  # 8+ blocks; break-even: ~3
            with suppress(OSError), warnings.catch_warnings():  # 3.12+: numpy's BLAS threads
                warnings.filterwarnings("ignore", ".*use of fork", DeprecationWarning)
                tail = stack.enter_context(tempfile.TemporaryFile(
                    "w+", encoding="utf-8", dir=os.path.dirname(path) or "."))
                pid = os.fork()  # stays None where the file or the child cannot be made
        if pid == 0:  # the child: its half into the unnamed file, then out at once
            try:
                rows(tail, mid)
                tail.seek(0)  # flushes, and rewinds the offset this process shares
                os._exit(0)
            finally:
                os._exit(1)
        try:
            rows(fh, 0, mid)
        finally:
            failed = pid is None or os.waitpid(pid, 0)[1] != 0
        if failed:  # formatting it here raises what the child met
            return rows(fh, mid)
        shutil.copyfileobj(tail, fh)


def write_json(data: dict, path: str) -> None:
    """Write ``data`` as JSON indented by 2 plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
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
        try:
            return cls(np.linspace(a, b, n))
        except ValueError as err:  # n < 2, b <= a, or more points than floats
            raise ValueError(f"uniform grid of n = {n} points on [{a!r}, {b!r}]: {err}") from None

    @property
    def delta(self) -> float:
        """Resolution: the largest gap between consecutive points."""
        return float(np.max(np.diff(self.points)))

    def __len__(self) -> int:
        return int(self.points.size)

    def same_grid(self, other: "Discretization") -> bool:
        return bool(np.array_equal(self.points, other.points))


def _check_caps(xi: float, **positive: float) -> None:
    """A ValueError naming the field unless 0 <= xi < inf and each of
    ``positive`` (slope_cap first) is in (0, inf): a tolerance or a
    bracket made from them is finite."""
    if not 0.0 <= xi < math.inf:
        raise ValueError("xi must be finite and non-negative")
    for name, x in positive.items():
        if not 0.0 < x < math.inf:
            raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class FrictionCircle:
    """The friction-circle model, the one definition of the built-in
    model: slope window +-2*sqrt(f_fr^2 - kappa^2 h^2) (zero where the
    radicand is not positive) widened by +-xi, ceiling min(vmax2,
    f_fr/kappa), floor zero. ``kappa`` maps positions, an array or one
    float, to curvatures as numpy floats."""

    f_fr: float
    vmax2: float
    kappa: Callable[[np.ndarray], np.ndarray]
    xi: float = 0.0

    def __post_init__(self):
        _check_caps(self.xi, slope_cap=self.slope_cap, f_fr=self.f_fr,
                    vmax2=self.vmax2)

    @property
    def slope_cap(self) -> float:
        """2*f_fr + xi: no slope of the window is larger in magnitude."""
        return 2.0 * self.f_fr + self.xi

    def ceiling(self, kappa: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):  # inf: v_max binds
            return np.minimum(self.vmax2, self.f_fr / kappa)

    def slopes(self, kappa: np.ndarray, h: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        """(fminus, fplus) at the states (kappa, h): elementwise, the
        floats of :meth:`fminus` and :meth:`fplus`."""
        kh = kappa * h
        r = self.f_fr * self.f_fr - kh * kh
        root = np.where(r > 0.0, 2.0 * np.sqrt(np.maximum(r, 0.0)), 0.0)
        return np.where(r > 0.0, -root, 0.0) - self.xi, root + self.xi

    def fminus(self, s: float, h: float) -> float:
        kh = float(self.kappa(s)) * h
        r = self.f_fr * self.f_fr - kh * kh
        return (-2.0 * math.sqrt(r) if r > 0.0 else 0.0) - self.xi

    def fplus(self, s: float, h: float) -> float:
        kh = float(self.kappa(s)) * h
        r = self.f_fr * self.f_fr - kh * kh
        return (2.0 * math.sqrt(r) if r > 0.0 else 0.0) + self.xi

    def bu(self, s: float) -> float:
        return float(self.ceiling(self.kappa(s)))

    def bl(self, s: float) -> float:
        return 0.0


@dataclass(frozen=True)
class DynamicsModel:
    """Slope and box bounds defining one profile-planning problem, as
    user-supplied callables (a built model is a :class:`FrictionCircle`).

    fplus/fminus map (s, h) to the largest/smallest allowed profile
    slope (squared speed per meter) at that state; bu/bl map s to the
    upper/lower squared-speed bound. The supplier must keep B =
    ``slope_cap`` >= |fplus|, |fminus| on the feasible region (the solver
    and oracle bracket by it) and fminus convex and fplus concave in h on
    [bl, bu] (paper's class), or a feasible step may be reported infeasible.
    ``xi`` records the relaxation level already applied to the slopes.
    """

    fplus: Callable[[float, float], float]
    fminus: Callable[[float, float], float]
    bu: Callable[[float], float]
    bl: Callable[[float], float]
    slope_cap: float
    xi: float = 0.0

    def __post_init__(self):
        _check_caps(self.xi, slope_cap=self.slope_cap)


Model = Union[FrictionCircle, DynamicsModel]  # what solve and the checks take


def default_tol(model: Model) -> float:
    """Admissibility tolerance absorbing float error on active constraints."""
    return 1e-9 * max(1.0, model.slope_cap)


def relax(model: FrictionCircle, xi: float) -> FrictionCircle:
    """Widen the slope window by +-xi; box bounds are unchanged. Only a
    friction circle is relaxed; the level adds to its ``xi``."""
    if not 0.0 <= xi < math.inf:
        raise ValueError("relaxation level must be finite and non-negative")
    if not isinstance(model, FrictionCircle):
        raise ValueError("relax needs a friction-circle model")
    return replace(model, xi=model.xi + xi)


def _box_bounds(points: np.ndarray, model: Model):
    """(kappa, floor, ceiling) at ``points``: a circle's arrays (floor
    zero), else kappa None and one bl and one bu call a point."""
    if isinstance(model, FrictionCircle):
        kappa = model.kappa(points)
        return kappa, np.zeros(points.size), model.ceiling(kappa)
    sl = points.tolist()
    return None, *(np.array([b(x) for x in sl], dtype=float)
                   for b in (model.bl, model.bu))


def _bad_row(fh) -> str:
    """Where and how the first row of the profile CSV open in ``fh`` (its
    header: line 1) is malformed."""
    fh.seek(0)
    for no, line in enumerate(fh, 1):
        fields = line.rstrip("\r\n").split(",")
        if no == 1 or fields == [""]:
            continue
        if len(fields) != 2:
            return f"line {no}: expected 2 fields (s,h), got {len(fields)}"
        for tok in map(str.strip, fields):
            try:  # np.loadtxt, unlike float(), rejects "1_0" and non-ASCII digits
                float(tok if tok.isascii() and "_" not in tok else "x")
            except ValueError:
                return f"line {no}: {tok!r} is not a number"
    return "is malformed"


@dataclass(frozen=True, eq=False)
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

    def to_csv(self, path: str) -> None:
        """Write rows "s,h" with 17 significant digits (lossless round trip)."""
        write_csv(path, "s,h", "%.17g,%.17g", self.grid.points, self.values)

    @classmethod
    def from_csv(cls, path: str) -> "SpeedProfile":
        """Read rows "s,h" after that header; empty lines are skipped. A
        malformed row is named by its line in the file (header: line 1)."""
        with open(path, encoding="utf-8") as fh:
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
                where = _bad_row(fh) if fh.seekable() else "has a malformed row"
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


def check_admissible(profile: SpeedProfile, model: Model,
                     tol: Optional[float] = None) -> AdmissibilityReport:
    """Check box bounds at every point and slope windows on every segment.

    Slopes are chords (h_{i+1} - h_i) / (s_{i+1} - s_i) compared against
    the window [fminus, fplus] evaluated at the left endpoint; there is
    no slope constraint at the final point. Ties are admissible. When
    ``tol`` is omitted the model's default tolerance is used. On failure
    the report names the smallest violating index and the constraint.
    The bounds are sampled once per point (in arrays on a friction
    circle) and compared in blocks of BLOCK_ROWS points, each with the
    segment that starts there, with the same floats as a scalar loop; the
    check stops at the first block with a failure.
    """
    if tol is None:
        tol = default_tol(model)
    if not 0.0 <= tol < math.inf:
        raise ValueError("tolerance must be finite and non-negative")
    for i in range(0, profile.values.size, BLOCK_ROWS):
        # the block's points and the next one, the end of its last segment
        s, h = (a[i:i + BLOCK_ROWS + 1] for a in (profile.grid.points, profile.values))
        with np.errstate(over="ignore"):  # an infinite chord fails its window
            slope = np.diff(h) / np.diff(s)
        s, h, m = s[:BLOCK_ROWS], h[:BLOCK_ROWS], slope.size
        kappa, lo, hi = _box_bounds(s, model)
        if kappa is not None:
            f_lo, f_hi = model.slopes(kappa[:m], h[:m])
        else:
            sl, hl = s.tolist(), h.tolist()
            f_lo, f_hi = (np.array([f(x, y) for x, y in zip(sl[:m], hl)])
                          for f in (model.fminus, model.fplus))
        # One row per check, in reporting order: at each index the bounds
        # come before the slope, and the slope at i before the bounds at i+1.
        # Each is a negated pass, so a NaN bound fails its own check.
        fails = np.zeros((4, h.size), dtype=bool)
        fails[0] = ~(h >= lo - tol)
        fails[1] = ~(h <= hi + tol)
        fails[2, :m] = ~(slope >= f_lo - tol)
        fails[3, :m] = ~(slope <= f_hi + tol)
        bad = np.flatnonzero(fails.any(axis=0))
        if bad.size:
            break
    else:
        return AdmissibilityReport(True)
    k = int(bad[0])
    name, x, xs, op, y, ys = (
        ("below_lower_bound", "h", h, "<", "bl", lo),
        ("above_upper_bound", "h", h, ">", "bu", hi),
        ("slope_below_min", "slope", slope, "<", "fminus", f_lo),
        ("slope_above_max", "slope", slope, ">", "fplus", f_hi),
    )[int(np.argmax(fails[:, k]))]
    value, bound, at = float(xs[k]), float(ys[k]), f"at s={float(s[k])!r}"
    return AdmissibilityReport(
        False, i + k, name, f"{x}={value!r} {at}, where {y} is not a number"
        if math.isnan(bound) else f"{x}={value!r} {op} {y}={bound!r} {at}")


def profile_error(candidate: SpeedProfile, reference: SpeedProfile) -> float:
    """Largest absolute pointwise gap between two profiles on one grid."""
    if not candidate.grid.same_grid(reference.grid):
        raise ValueError("profiles must share an identical grid")
    return float(np.max(np.abs(candidate.values - reference.values)))


@dataclass(frozen=True, eq=False)
class SolveReport:
    """One complete solve: the backward pass, the profile (the forward
    pass) and its traversal time."""

    backward: np.ndarray
    profile: SpeedProfile
    traversal_time: float

    @property
    def forward(self) -> np.ndarray:
        """The forward pass: the profile's squared speeds."""
        return self.profile.values

    @property
    def status(self) -> SimpleNamespace:
        """``feasible=True``, always: ``solve`` raises rather than return an
        infeasible solve. Kept only for the benchmark's read of it
        (``perfbench/bench.py``); it goes with that benchmark's next change."""
        return SimpleNamespace(feasible=True)

    def to_json_dict(self) -> dict:
        """The solve summary, without the arrays. No command writes it; kept
        only for the benchmark's chain (``perfbench/bench.py``), and it goes
        with that benchmark's next change."""
        return {"status": {"feasible": True, "index": None, "pass": None},
                "n": int(self.backward.size),
                "traversal_time": self.traversal_time}

    def write_json(self, path: str) -> None:
        """Write :meth:`to_json_dict` to ``path``; benchmark-only, like it."""
        write_json(self.to_json_dict(), path)
