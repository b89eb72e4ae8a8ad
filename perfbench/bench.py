"""Shared parts of the toppkit benchmark.

Workload cycles, inputs made from a seed, timed child processes, the
in-process operation chain, the correctness gate, span tracing and
model-evaluation counting. The package under test is passed in as ``tk``
rather than imported here, so each process decides where toppkit comes
from (the checkout's ``src``).
"""

import json
import math
import os
import random
import shutil
import subprocess
import time
import traceback
from contextlib import contextmanager, nullcontext

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# Each workload repeats one cycle of (instance, n) operations, and a run
# always finishes the cycle it has started. Every run therefore does the
# same mix of work whatever its seed or the speed of the program, so two
# runs (and two commits) compare like with like. The instance names are
# keys of reference.json; "table_<k>" is random_table_instance(k).
WORKLOADS = {
    "cli_geometric": {
        "kind": "cli", "retime": True,
        "cycle": [("line", 100000), ("capped_line", 100000),
                  ("circle", 100000), ("capped_arc", 100000)],
    },
    "cli_tables": {
        "kind": "cli", "retime": False,
        # A shared machine's speed wanders by tens of percent from one
        # operation to the next, so the median operation is made the
        # middle of five identical long ones: sorted by cost, the 4th of 7
        # is the 3rd of the five table_0 runs at 1e5, which sit between
        # table_1 at 1e4 and wave_table at 1e5.
        "cycle": [("wave_table", 100000), ("table_0", 100000),
                  ("table_0", 100000), ("table_1", 10000),
                  ("table_0", 100000), ("table_0", 100000),
                  ("table_0", 100000)],
    },
    "library_verify": {
        "kind": "library", "retime": True,
        # Every table at n = 1000 and every fourth also at n = 200: the
        # median operation then lies among the n = 1000 ones, not in the
        # sparse region between the two sizes.
        "cycle": [(f"table_{k}", n) for k in range(32)
                  for n in ((200, 1000) if k % 4 == 0 else (1000,))],
    },
}

# Each child process must end well within the 180 s a run may take.
CHILD_TIMEOUT = 150

# Grid sizes of the self-test's smoke runs; reference.json holds the
# seed commit's times at both the full and the smoke sizes.
SMOKE_N = {100000: 201, 10000: 101, 1000: 51, 200: 21}

ORACLE_LEVELS = 512
# Relative tolerance of "equal" traversal times: far above float
# reordering (~1e-12 at n = 1e5), far below any change of the profile.
TIME_RTOL = 1e-9
# The CLI prints traversal times with six decimals.
PRINTED_ATOL = 5.01e-7


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def scaled_spec(spec: dict, a: int) -> dict:
    """Spec with f_fr times 4**a, v_max times 2**a and endpoint squared
    speeds times 4**a.

    Powers of two scale every float step of the planner exactly: h by
    4**a and times by 2**-a. Only the solver's step tolerance, which is
    floored at 1e-12 absolute, does not scale, and it moves a time by
    about 1e-12 relative.
    """
    out = dict(spec, f_fr=spec["f_fr"] * 4.0 ** a, v_max=spec["v_max"] * 2.0 ** a)
    if spec.get("endpoints"):
        out["endpoints"] = {k: v * 4.0 ** a for k, v in spec["endpoints"].items()}
    return out


def closed_form_time(spec: dict):
    """Exact optimal time of a rest-to-rest line or a free-ended arc, else None."""
    f, v = spec["f_fr"], spec["v_max"]
    ends = spec.get("endpoints")
    if spec["kind"] == "line" and ends == {"start_h": 0.0, "end_h": 0.0}:
        length = spec["length"]
        if v * v >= f * length:
            return 2.0 * math.sqrt(length / f)
        return length / v + v / f
    if spec["kind"] == "arc" and not ends:
        r = spec["radius"]
        return r * spec["angle"] / math.sqrt(min(v * v, f * r))
    return None


def closed_form_rtol(n: int) -> float:
    # The planner is exact at grid points on these instances; only the
    # segments across a kink of the optimum (apex or corner of the
    # triangle or trapezoid) differ from the closed form. The seed commit
    # shows about 0.35 / (n - 1)**2 relative for n from 20 to 1e5.
    return 2.0 / (n - 1) ** 2


def make_ops(workload: str, seed: int, smoke: bool, indir: str) -> list:
    """Write the spec files of one cycle and describe its operations.

    The seed draws a power-of-two scale for each operation (see
    scaled_spec), so files differ between seeds while the work per point
    does not. The expected time is the closed form where one exists and
    the seed commit's time from reference.json otherwise.
    """
    ref = load_reference()["instances"]
    rng = random.Random(seed)
    os.makedirs(indir, exist_ok=True)
    ops = []
    for k, (name, n) in enumerate(WORKLOADS[workload]["cycle"]):
        if smoke:
            n = SMOKE_N[n]
        a = rng.choice((-1, 0, 1))
        spec = scaled_spec(ref[name]["spec"], a)
        spec_path = os.path.join(indir, f"op{k:02d}_{name}_{n}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        expected = closed_form_time(spec)
        if expected is None:
            expected, rtol = ref[name]["time"][str(n)] * 2.0 ** -a, TIME_RTOL
        else:
            rtol = closed_form_rtol(n)
        ops.append({"id": k, "name": name, "n": n, "spec": spec_path,
                    "expected": expected, "rtol": rtol})
    return ops


# ---- child processes --------------------------------------------------

def timed_process(argv: list, env: dict):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0, proc


def probe_wall(argv: list, env: dict) -> float:
    """Wall time of one fresh process running ``argv``."""
    wall, proc = timed_process(argv, env)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return wall


# ---- host speed -------------------------------------------------------

# The shared machine this benchmark was tuned on (2 vCPUs of a 2.1 GHz
# Xeon) runs the same code up to 1.6 times slower or faster from one
# minute to the next. The end-to-end times are therefore measured
# together with a fixed calibration loop, run just before and just after
# each timed process or operation, and scaled to the speed at which the
# loop takes CALIBRATION_REF_S, a round figure for the loop on that
# machine in its faster spells.
CALIBRATION_REF_S = 0.005
_CAL_XP = np.linspace(0.0, 1.0, 50)
_CAL_FP = _CAL_XP ** 2


def calibration_s() -> float:
    """Wall time of a fixed loop of the work toppkit does most: Python
    float arithmetic and scalar np.interp calls."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30000):
        acc += i * 0.5
    for i in range(2000):
        acc += float(np.interp(i / 2000.0, _CAL_XP, _CAL_FP))
    return time.perf_counter() - t0


def calibrated(fn, *args):
    """``fn(*args)`` between two calibration loops; returns its result and
    the loops' mean time."""
    before = calibration_s()
    out = fn(*args)
    return out, (before + calibration_s()) / 2.0


def reference_s(wall: float, cal: float) -> float:
    """A wall time scaled to the speed at which the loop takes CALIBRATION_REF_S."""
    return wall * CALIBRATION_REF_S / cal


# ---- correctness gate -------------------------------------------------

def profile_csv_time(path: str) -> float:
    """Traversal time of a profile CSV as a numpy sum of 2 ds / (sqrt h0 + sqrt h1)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    s, h = data[:, 0], data[:, 1]
    if np.any(h < 0.0):
        return math.nan
    root = np.sqrt(h)
    with np.errstate(divide="ignore"):
        return float(np.sum(2.0 * np.diff(s) / (root[:-1] + root[1:])))


def _close(x: float, y: float, rtol: float) -> bool:
    return abs(x - y) <= rtol * abs(y)


def gate(op: dict, outdir: str, admissible, reported: float, printed=(),
         last_sample=None, oracle=None) -> list:
    """Check one operation's outputs; returns the failed checks (empty if none)."""
    failures = []
    if admissible is not True:
        failures.append(f"admissible is {admissible!r}")
    t = profile_csv_time(os.path.join(outdir, "profile.csv"))
    if not _close(reported, t, TIME_RTOL):
        failures.append(f"reported time {reported!r} != profile.csv time {t!r}")
    for p in printed:
        if not abs(p - t) <= PRINTED_ATOL:
            failures.append(f"printed time {p!r} != profile.csv time {t!r}")
    if not _close(t, op["expected"], op["rtol"]):
        failures.append(f"time {t!r} != expected {op['expected']!r}")
    if last_sample is not None and not _close(last_sample, t, TIME_RTOL):
        failures.append(f"last trajectory sample at {last_sample!r}, not {t!r}")
    if oracle is not None and not oracle[0] <= oracle[1]:
        failures.append(f"oracle error {oracle[0]!r} > tolerance {oracle[1]!r}")
    return failures


# ---- the operation chain, in process ----------------------------------

def no_span(name):
    return nullcontext()


def run_chain(tk, workload: str, op: dict, outdir: str, span=no_span) -> dict:
    """One operation through toppkit's public functions.

    On the CLI workloads these are the calls `toppkit solve` (and
    `toppkit retime`) make; on library_verify, the chain a library user
    runs to plan and verify a profile. ``span(name)`` wraps each call.
    """
    library = WORKLOADS[workload]["kind"] == "library"
    with span("paths.load_spec"):
        with open(op["spec"], encoding="utf-8") as fh:
            path = tk.PathSpec.from_json_dict(json.load(fh))
    with span("paths.build_model"):
        model = tk.build_model(path)
    grid = path.grid(op["n"])
    with span("solver.solve"):
        report = tk.solve(grid, model, endpoints=path.endpoints)
    if not report.status.feasible:
        raise RuntimeError(f"infeasible: {report.status}")
    csv_path = os.path.join(outdir, "profile.csv")
    if not library:
        with span("core.report_json"):
            report.write_json(os.path.join(outdir, "report.json"))
    with span("core.profile_csv_write"):
        report.profile.to_csv(csv_path)
    with span("core.check_admissible"):
        verdict = tk.check_admissible(report.profile, model)
    out = {"grid": grid, "model": model, "profile": report.profile,
           "admissible": bool(verdict),
           "reported": report.traversal_time, "printed": []}
    if not WORKLOADS[workload]["retime"]:
        return out
    with span("core.profile_csv_read"):
        profile = tk.SpeedProfile.from_csv(csv_path)
    with span("retime.sample_trajectory"):
        rows = tk.sample_trajectory(profile, report.traversal_time / op["n"])
    out["last_sample"] = rows[-1][0]
    out["samples"] = len(rows)
    if library:
        with span("oracle.dp_optimum"):
            oracle = tk.dp_optimum(grid, model, levels=ORACLE_LEVELS,
                                   endpoints=path.endpoints)
        out["oracle"] = (tk.profile_error(oracle, report.profile),
                         tk.agreement_tolerance(grid, model, ORACLE_LEVELS))
    else:
        with span("retime.trajectory_csv_write"):
            tk.write_trajectory_csv(rows, os.path.join(outdir, "trajectory.csv"))
        with span("retime.traversal_time"):
            out["printed"].append(tk.traversal_time(profile))
    return out


def gate_chain(op: dict, outdir: str, out: dict) -> list:
    return gate(op, outdir, out["admissible"], out["reported"], out["printed"],
                out.get("last_sample"), out.get("oracle"))


def timed_chain(tk, workload: str, op: dict, outdir: str) -> dict:
    """Run the chain untraced, time it, then gate it outside the timing."""
    os.makedirs(outdir)
    t0 = time.perf_counter()
    try:
        out = run_chain(tk, workload, op, outdir)
        wall = time.perf_counter() - t0
        failures = gate_chain(op, outdir, out)
    except Exception:  # a failed operation is counted, and the run goes on
        wall = time.perf_counter() - t0
        failures = [traceback.format_exc(limit=-2)]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return {"id": op["id"], "n": op["n"], "wall": wall, "failures": failures}


# ---- tracing and counting ---------------------------------------------

class Tracer:
    """Spans kept in memory: name, start, end, parent span and operation id."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._open = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": self.op_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class CountingModel:
    """A new DynamicsModel whose callables count their calls.

    Used only in a separate counting pass: the wrappers add per-call
    cost, so no timed or traced pass ever sees them.
    """

    NAMES = ("fminus", "fplus", "bu", "bl")

    def __init__(self, tk, model):
        self.counts = dict.fromkeys(self.NAMES, 0)

        def wrap(name, fn):
            def counted(*args):
                self.counts[name] += 1
                return fn(*args)
            return counted

        self.model = tk.DynamicsModel(
            fminus=wrap("fminus", model.fminus), fplus=wrap("fplus", model.fplus),
            bu=wrap("bu", model.bu), bl=wrap("bl", model.bl),
            slope_cap=model.slope_cap, xi=model.xi)

    def take(self) -> dict:
        counts = dict(self.counts)
        self.counts.update(dict.fromkeys(self.NAMES, 0))
        return counts


def count_evals(tk, workload: str, op: dict) -> dict:
    """Model evaluations of solve, check_admissible and dp_optimum on one operation."""
    with open(op["spec"], encoding="utf-8") as fh:
        path = tk.PathSpec.from_json_dict(json.load(fh))
    counting = CountingModel(tk, tk.build_model(path))
    grid = path.grid(op["n"])
    report = tk.solve(grid, counting.model, endpoints=path.endpoints)
    out = {"solve": counting.take()}
    tk.check_admissible(report.profile, counting.model)
    out["check_admissible"] = counting.take()
    if WORKLOADS[workload]["kind"] == "library":
        tk.dp_optimum(grid, counting.model, levels=ORACLE_LEVELS,
                      endpoints=path.endpoints)
        out["dp_optimum"] = counting.take()
    return out


def model_eval_us(out: dict, calls: int = 20000) -> float:
    """Mean wall time of one fminus call at grid points, in microseconds."""
    points = out["grid"].points
    idx = np.linspace(0, points.size - 1, min(calls, points.size)).astype(int)
    s = points[idx].tolist()
    h = out["profile"].values[idx].tolist()
    fminus = out["model"].fminus
    t0 = time.perf_counter()
    for a, b in zip(s, h):
        fminus(a, b)
    return (time.perf_counter() - t0) / len(s) * 1e6
