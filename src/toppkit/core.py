"""Shared data model: grids, dynamics bounds, squared-speed profiles.

A profile assigns a squared speed h_i >= 0 to every point of a position
grid. Feasibility of a profile is a per-point box constraint plus a
per-segment slope window evaluated at the segment's left endpoint.
"""

import io
import json
import math
import os
import shutil
import tempfile
import warnings
from contextlib import ExitStack, suppress
from functools import cache
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


# '%.17g' of a value v with 1e-4 <= |v| < 1e15, which %g writes without an
# exponent, is the 17 digits D = round(|v| * 10**(16 - e)), e = floor(log10
# |v|), stripped of trailing zeros, the point placed by e. |v| is m * 2**q with
# m < 2**53; 10**p = 5**p * 2**p, and 5**p < 2**47 for p <= 20 (21 spare).
_U64 = np.uint64
# A value's field: 48 bytes, its NULs dropped on output. Byte 1 is the sign,
# 2-3 "0." (e < 0), 4-23 the groups "000" + D (so D[k] is byte 7 + k, and
# bytes 4-6 are the zeros after "0."), 27 the point (e >= 0), 28-43 the groups
# D[1:] again (D[k] is byte 27 + k) and 44 the separator.
_FIELD = 48


@cache
def _tables() -> SimpleNamespace:
    """The formatter's lookup tables, built at its first call (a process
    that writes no CSV file builds none): ``pow5_lo``, ``pow5_hi``, the low
    and high 32 bits of 5**p, p <= 21; ``quad_chars``, the digits of
    0000..9999 as 4 ASCII bytes, one uint32 a number; ``quad_sig[j]``, for
    the j-th group of 4 of the digits "000" + D, the count of D's
    significant digits where the group is its last nonzero one (0 for
    0000); ``keep_lanes``, whose column (e + 4) * 18 + (significant digits)
    holds a field's constant bytes, 255 at each digit kept and 0 elsewhere,
    as 12 lanes of 4 bytes: the field is that column and-ed with the digits."""
    pow5 = _U64(5) ** np.arange(22, dtype=_U64)
    quad = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    last = ((quad > 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0).astype(np.int8)
    col, e, sig = np.arange(_FIELD), np.arange(-4, 15)[:, None, None], np.arange(18)[:, None]
    ka, kb = col - 7, col - 27
    keep = (((ka >= e + 1) & (ka < 0))
            | ((ka >= 0) & (ka <= np.where(e < 0, sig - 1, e)))
            | ((e >= 0) & (kb > e) & (kb < sig))).astype(np.uint8) * np.uint8(255)
    keep[..., 2] = np.where(e < 0, ord("0"), 0)[..., 0]
    keep[..., 3] = np.where(e < 0, ord("."), 0)[..., 0]
    keep[..., 27] = np.where((e >= 0) & (sig > e + 1), ord("."), 0)[..., 0]
    keep[..., 44] = ord(",")
    return SimpleNamespace(
        pow5_lo=pow5 & _U64(0xFFFFFFFF), pow5_hi=pow5 >> _U64(32),
        quad_chars=np.ascontiguousarray((quad + 48).T).view(np.uint32).ravel(),
        quad_sig=np.where(last > 0, last + np.arange(-3, 17, 4, dtype=np.int8)[:, None], np.int8(0)),
        keep_lanes=np.ascontiguousarray(keep.reshape(-1, _FIELD).view(np.uint32).T))


def _scaled(m: np.ndarray, q: np.ndarray, e: np.ndarray):
    """(truncated, rounded half to even) m * 2**q * 10**(16 - e), exactly:
    m * 5**(16 - e) in two uint64 limbs, shifted right by e - 16 - q bits."""
    p = 16 - e
    t = _tables()
    lo, hi = t.pow5_lo.take(p), t.pow5_hi.take(p)
    shift = np.negative(np.add(p, q, out=p), out=p).view(_U64)
    m_lo, m_hi = m & _U64(0xFFFFFFFF), m >> _U64(32)
    mid = m_lo * hi
    hi *= m_hi
    m_hi *= lo
    mid += m_hi
    lo *= m_lo
    hi += np.right_shift(mid, _U64(32), out=m_hi)
    mid <<= _U64(32)
    lo += mid  # the low limb; it wrapped where it is below its part
    hi += lo < mid
    trunc = np.right_shift(lo, shift, out=mid)
    hi <<= _U64(64) - shift
    trunc |= hi
    half = np.left_shift(_U64(1), shift - _U64(1), out=hi)
    lo &= np.add(half, half, out=m_lo) - _U64(1)  # the remainder below the shift
    lo += trunc & _U64(1)  # so a tie rounds up where trunc is odd
    return trunc, trunc + (lo > half)


def _digits(a: np.ndarray):
    """(keep_lanes columns, digit groups) of the positive floats ``a``: each
    is D = 10**16 * g0 + 10**12 * g1 + ... + g4, the 17 digits of '%.16e'."""
    bits = a.view(_U64)
    q = (bits >> _U64(52)).astype(np.int64)
    q -= 1075
    m = bits & _U64(2 ** 52 - 1)
    m |= _U64(2 ** 52)
    # log10 may round across an integer near a power of 10: e is then off by
    # one, and trunc has 16 or 18 digits. No rounding carries to 10**17: the
    # float nearest below each power 10**-3 ... 10**15 is at least 8e-17 of it
    # away, more than the 5e-18 that rounds to 17 nines and up.
    e = np.floor(np.log10(a)).astype(np.int64)
    trunc, digits = _scaled(m, q, e)
    off = np.flatnonzero((trunc < _U64(10 ** 16)) | (trunc >= _U64(10 ** 17)))
    if off.size:
        e[off] += np.where(trunc[off] < _U64(10 ** 16), -1, 1)
        digits[off] = _scaled(m[off], q[off], e[off])[1]
    groups = np.empty((5, a.size), dtype=np.int64)
    high, low = np.divmod(digits, _U64(10 ** 8))
    groups[0], groups[2] = np.divmod(high, _U64(10 ** 8))
    groups[1], groups[2] = np.divmod(groups[2], 10 ** 4)
    groups[3], groups[4] = np.divmod(low, _U64(10 ** 4))
    quad_sig = _tables().quad_sig
    sig = quad_sig[0].take(groups[0])
    for j in range(1, 5):
        np.maximum(sig, quad_sig[j].take(groups[j]), out=sig)
    e += 4
    e *= 18
    e += sig
    return e, groups


def _fields(a: np.ndarray) -> np.ndarray:
    """The fields of the positive floats ``a`` but for the sign and the last
    separator, lane-major: row j of the (12, n) uint32 array holds bytes
    4j to 4j + 3 of each field, so each and is one pass over n values. Its
    digit arrays are freed before the caller's larger ones are made: held,
    they made a block about a quarter slower in fresh memory pages."""
    key, groups = _digits(a)
    t = _tables()
    lanes, chars = t.keep_lanes.take(key, axis=1), t.quad_chars.take(groups)
    lanes[1:6] &= chars
    lanes[7:11] &= chars[1:]
    return lanes


def _format_rows(block: np.ndarray) -> np.ndarray:
    """The bytes of the rows of the float array ``block`` as CSV lines, each
    field ``'%.17g' % v``: from :func:`_fields` for a value that %g writes
    without an exponent and is at least 1e-4 in magnitude, by ``%`` for the
    rest (0, subnormals, inf, nan and the exponent notation)."""
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e15)
    a[~fast] = 1.0
    field = np.ascontiguousarray(_fields(a).T).view(np.uint8)
    field[:, 1] = np.signbit(v).view(np.uint8) * ord("-")
    field.reshape(block.shape + (_FIELD,))[:, -1, 44] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype="S44")
        field[slow, :44] = text.view(np.uint8).reshape(-1, 44)
    return field[field != 0]


def write_csv(path: str, header: str, *columns) -> None:
    """Write the line ``header``, then per row of the columns their values as floats, each
    ``'%.17g' % v``, BLOCK_ROWS rows a write, to the file ``path``, from 8 blocks on half of
    them in a forked child."""
    def rows(fh, start, stop=len(columns[0])):  # from a block boundary
        for i in range(start, stop, BLOCK_ROWS):
            fh.write(_format_rows(np.column_stack(
                [c[i:i + BLOCK_ROWS] for c in columns]).astype(float, copy=False)))
    pid, mid = None, len(columns[0]) // (2 * BLOCK_ROWS) * BLOCK_ROWS
    with open(path, "wb") as fh, ExitStack() as stack:
        fh.write(f"{header}\n".encode())
        if mid >= 4 * BLOCK_ROWS and hasattr(os, "fork"):  # 8+ blocks; break-even: ~3
            with suppress(OSError), warnings.catch_warnings():  # 3.12+: numpy's BLAS threads
                warnings.filterwarnings("ignore", ".*use of fork", DeprecationWarning)
                tail = stack.enter_context(tempfile.TemporaryFile(
                    dir=os.path.dirname(path) or "."))
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
        if not np.all(pts[1:] > pts[:-1]):  # diff > 0 of finite points, without the diff
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


def _loadtxt_rows(fh) -> np.ndarray:
    """The rows of the profile CSV open as text in ``fh``, by np.loadtxt; a
    ValueError for a wrong header or a malformed row."""
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
    return rows


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
        write_csv(path, "s,h", self.grid.points, self.values)

    @classmethod
    def from_csv(cls, path: str) -> "SpeedProfile":
        """Read rows "s,h" after that header; empty lines are skipped. A
        malformed row is named by its line in the file (header: line 1).
        The floats are np.loadtxt's: the text :func:`write_csv` writes is
        parsed in numpy (``csvread``), any other by np.loadtxt."""
        from .csvread import read_columns
        with open(path, "rb") as fb:
            seekable = fb.seekable()
            columns = read_columns(fb) if seekable else None
            if columns is None:
                if seekable:
                    fb.seek(0)
                with io.TextIOWrapper(fb, encoding="utf-8") as fh:
                    columns = [[c] for c in _loadtxt_rows(fh).reshape(-1, 2).T]
        # each column's blocks are dropped once joined, before the next is
        grid = Discretization(np.concatenate(columns.pop(0)))
        return cls(grid, np.concatenate(columns.pop()))


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
