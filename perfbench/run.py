"""toppkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_geometric --seed 1 --seconds 20 --trace 0

Run it from the root of a toppkit checkout: the package is taken from
the checkout's src/ directory, never from an installed copy, and
everything the run writes stays under the checkout (.perfbench_tmp/
while it runs, .perfbench_out/ for the records it keeps).

--trace 0 measures the end-to-end metrics of BENCHMARK.json with the
program run as users run it. --trace 1 makes the same calls in-process,
once untraced and once with a span around each public call, counts model
evaluations in a separate pass, and reports the per-layer metrics. Lines
before the last describe the machine and each metric; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
--workload all runs every workload in turn; --smoke shrinks every grid
for the self-test.
"""

import argparse
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import numpy as np

import bench

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
# Fresh-process import probes made in a row; their median is reported.
PROBES = 5
TIME_RE = re.compile(r"traversal time: (\S+) s")

# Spans whose mean duration per call is the per-layer metric "<name>_s".
TIMED_SPANS = (
    "paths.load_spec", "paths.build_model", "solver.default_config",
    "solver.solve", "core.check_admissible", "core.report_json",
    "core.profile_csv_write", "core.profile_csv_read", "retime.traversal_time",
    "retime.sample_trajectory", "retime.trajectory_csv_write",
    "oracle.dp_optimum",
)
# Per-layer size metric -> the output file it measures.
LAYER_FILES = {
    "core.report_json_bytes": "report.json",
    "core.profile_csv_bytes": "profile.csv",
    "retime.trajectory_csv_bytes": "trajectory.csv",
}


def child_env() -> dict:
    # Only the checkout's package, and no TOPPKIT_TOL: it would change the
    # tolerance summary.json reports.
    env = {k: v for k, v in os.environ.items() if k != "TOPPKIT_TOL"}
    env["PYTHONPATH"] = SRC
    return env


def printed_time(stdout: str) -> float:
    match = TIME_RE.search(stdout)
    if match is None:
        raise ValueError(f"no traversal time in output {stdout!r}")
    return float(match.group(1))


def last_row_time(csv_path: str) -> float:
    with open(csv_path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(csv_path) - 256))
        return float(fh.read().splitlines()[-1].split(b",")[0])


def cli_op(workload: str, op: dict, workdir: str, env: dict):
    """One CLI operation as a user runs it; returns (wall seconds, failures).

    The wall time covers the toppkit processes only; reading their
    outputs between and after them is the benchmark's own work.
    """
    outdir = os.path.join(workdir, f"cli{op['id']:02d}")
    cli = [sys.executable, "-m", "toppkit.cli"]
    wall = 0.0
    try:
        w, proc = bench.timed_process(cli + ["solve", "--input", op["spec"],
                                             "--n", str(op["n"]), "--out", outdir],
                                      env)
        wall += w
        if proc.returncode != 0:
            return wall, [f"solve exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}"]
        with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        printed = [printed_time(proc.stdout)]
        last_sample = None
        if bench.WORKLOADS[workload]["retime"]:
            dt = summary["traversal_time"] / op["n"]
            w, proc = bench.timed_process(
                cli + ["retime", "--profile", os.path.join(outdir, "profile.csv"),
                       "--dt", repr(dt), "--out", outdir], env)
            wall += w
            if proc.returncode != 0:
                return wall, [f"retime exited with {proc.returncode}: "
                              f"{proc.stderr.strip()[-500:]}"]
            printed.append(printed_time(proc.stdout))
            last_sample = last_row_time(os.path.join(outdir, "trajectory.csv"))
        return wall, bench.gate(op, outdir, summary.get("admissible"),
                                summary["traversal_time"], printed, last_sample)
    except (OSError, ValueError, KeyError, IndexError,
            subprocess.TimeoutExpired) as e:
        return wall, [f"{type(e).__name__}: {e}"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def library_records(workload: str, ops: list, seconds: float, workdir: str,
                    env: dict, probe: list) -> tuple:
    """Run the library client; returns (records, its set-up probe times)."""
    ops_file = os.path.join(workdir, "ops.json")
    records_file = os.path.join(workdir, "records.json")
    with open(ops_file, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    client = [sys.executable, os.path.join(bench.HERE, "libloop.py"), workload,
              ops_file, str(seconds), records_file, workdir]
    _, proc = bench.timed_process(client + probe, env)
    if proc.returncode != 0:
        raise RuntimeError(f"library client exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    with open(records_file, encoding="utf-8") as fh:
        out = json.load(fh)
    return out["records"], out["setup"]


def end_to_end(workload: str, ops: list, seconds: float, workdir: str) -> tuple:
    """The untraced run: returns (metrics, records)."""
    env = child_env()
    probe = [sys.executable, os.path.join(bench.HERE, "setup_probe.py")]
    for op in ops:
        probe += [op["spec"], str(op["n"])]
    # Set-up probes are spread over the run, so their median sees the
    # same machine as the operations do. Each probe and operation carries
    # the calibration time measured around it (bench.calibrated).
    wall, cal = bench.calibrated(bench.probe_wall, probe, env)
    setup = [{"wall": wall, "cal": cal}]
    if bench.WORKLOADS[workload]["kind"] == "library":
        records, probes = library_records(workload, ops, seconds, workdir,
                                          env, probe)
        setup += probes
    else:
        records = []
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            for op in ops:
                (wall, failures), cal = bench.calibrated(cli_op, workload, op,
                                                         workdir, env)
                records.append({"id": op["id"], "n": op["n"], "wall": wall,
                                "cal": cal, "failures": failures})
                wall, cal = bench.calibrated(bench.probe_wall, probe, env)
                setup.append({"wall": wall, "cal": cal})
    done = [r for r in records if not r["failures"]]
    points = sum(r["n"] for r in done)

    def summary(time_of) -> dict:
        # Busy time is the sum of operation times: the gate run between
        # operations is left out.
        return {
            "points_per_s": points / sum(time_of(r) for r in records),
            "op_p50_s": statistics.median(time_of(r) for r in done) if done else 0.0,
            "setup_s": statistics.median(time_of(p) for p in setup),
        }

    metrics = summary(lambda r: bench.reference_s(r["wall"], r["cal"]))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                              / 1024.0)
    raw = summary(lambda r: r["wall"])
    raw["calibration_s"] = statistics.median(r["cal"] for r in records + setup)
    return metrics, records, raw


def import_checkout():
    sys.path.insert(0, SRC)
    import toppkit
    if not os.path.abspath(toppkit.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"toppkit imported from {toppkit.__file__}, not {SRC}")
    return toppkit


def traced_pass(tk, tracer, workload: str, op: dict, outdir: str) -> dict:
    """The chain with spans, then probes of what solve does internally."""
    os.makedirs(outdir)
    rec = {"trace_op": tracer.op_id, "failures": []}
    try:
        with tracer.span("op"):
            out = bench.run_chain(tk, workload, op, outdir, tracer.span)
        rec["failures"] = bench.gate_chain(op, outdir, out)
        rec["samples"] = out.get("samples")
        for metric, name in LAYER_FILES.items():
            if os.path.exists(os.path.join(outdir, name)):
                rec[metric] = os.path.getsize(os.path.join(outdir, name))
        # solve calls default_config and traversal_time itself; timing
        # both on the same inputs gives the sweeps' own time by difference.
        with tracer.span("probe"):
            with tracer.span("solver.default_config"):
                tk.default_config(out["grid"], out["model"])
            with tracer.span("retime.traversal_time"):
                tk.traversal_time(out["profile"])
        rec["model_eval_us"] = bench.model_eval_us(out)
    except Exception as e:  # a failed operation is counted, and the run goes on
        rec["failures"].append(f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return rec


def per_layer(workload: str, ops: list, seconds: float, workdir: str) -> tuple:
    """The traced run: returns (metrics, records, spans)."""
    # Repeated cycle entries only steady the end-to-end median; each
    # distinct operation runs once per traced cycle.
    distinct = {}
    for op in ops:
        distinct.setdefault((op["name"], op["n"]), op)
    ops = list(distinct.values())
    tk = import_checkout()
    env = child_env()
    cli = bench.WORKLOADS[workload]["kind"] == "cli"
    import_s = statistics.median(
        bench.probe_wall([sys.executable, "-c", "import toppkit.cli"], env)
        for _ in range(PROBES))
    tracer = bench.Tracer()
    records, counts = [], []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        first_cycle = not records
        for op in ops:
            rec = {"id": op["id"], "n": op["n"]}
            failures = []
            if cli:
                rec["cli_wall"], failures = cli_op(workload, op, workdir, env)
            tracer.op_id = len(records)
            # Alternate which pass goes first, so neither always runs cold.
            for traced in ((False, True) if tracer.op_id % 2 else (True, False)):
                outdir = os.path.join(workdir, f"lib{op['id']:02d}")
                if traced:
                    result = traced_pass(tk, tracer, workload, op, outdir)
                else:
                    result = bench.timed_chain(tk, workload, op, outdir)
                    result["untraced_wall"] = result.pop("wall")
                failures += result.pop("failures")
                rec.update(result)
            rec["failures"] = failures
            records.append(rec)
            if first_cycle:
                counts.append((op["n"], bench.count_evals(tk, workload, op)))
    return layer_metrics(tracer.spans, records, counts, import_s, workload), \
        records, tracer.spans


def layer_metrics(spans: list, records: list, counts: list, import_s: float,
                  workload: str) -> dict:
    durations = defaultdict(list)
    op_span, op_children = {}, defaultdict(float)
    for sp in spans:
        d = sp["end"] - sp["start"]
        durations[sp["name"]].append(d)
        if sp["name"] == "op":
            op_span[sp["op"]] = d
        elif sp["parent"] is not None and spans[sp["parent"]]["name"] == "op":
            op_children[sp["op"]] += d

    def mean(values):
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    m = {f"{name}_s": mean(durations[name]) for name in TIMED_SPANS}
    m["solver.sweep_self_s"] = (m["solver.solve_s"] - m["solver.default_config_s"]
                                - m["retime.traversal_time_s"])  # derived
    for metric in LAYER_FILES:
        m[metric] = mean(r.get(metric, 0) for r in records)
    m["retime.samples"] = mean(r.get("samples") or 0 for r in records)
    m["paths.model_eval_us"] = mean(r["model_eval_us"] for r in records
                                    if "model_eval_us" in r)

    points = sum(n for n, _ in counts)
    solve_counts = [c["solve"] for _, c in counts]
    for name in bench.CountingModel.NAMES:
        m[f"solver.{name}_evals_per_point"] = sum(c[name] for c in solve_counts) / points
    m["core.check_admissible_evals_per_point"] = sum(
        sum(c["check_admissible"].values()) for _, c in counts) / points
    m["oracle.model_evals_per_point"] = sum(
        sum(c.get("dp_optimum", {}).values()) for _, c in counts) / points

    m["cli.import_s"] = import_s
    processes = 2 if bench.WORKLOADS[workload]["retime"] else 1
    traced = [r for r in records if r.get("trace_op") in op_span]
    if bench.WORKLOADS[workload]["kind"] == "cli":
        m["cli.unattributed_s"] = mean(
            r["cli_wall"] - processes * import_s - op_children[r["trace_op"]]
            for r in traced)
    else:
        m["cli.unattributed_s"] = mean(
            r["untraced_wall"] - op_children[r["trace_op"]] for r in traced)
    m["trace.overhead_s"] = mean(op_span[r["trace_op"]] - r["untraced_wall"]
                                 for r in traced if "untraced_wall" in r)
    return m


def environment() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": platform.processor() or "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        try:
            fields = {}
            for field in ("level", "type", "size"):
                with open(os.path.join(cache_dir, index, field)) as fh:
                    fields[field] = fh.read().strip()
        except OSError:
            continue
        kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
        info[f"L{fields['level']}{kind}"] = fields["size"]
    info["commit"] = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        info["commit"] = proc.stdout.strip() or info["commit"]
    return info


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    os.makedirs(TMP_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_DIR)
    try:
        ops = bench.make_ops(workload, seed, smoke, os.path.join(workdir, "inputs"))
        if trace:
            values, records, spans = per_layer(workload, ops, seconds, workdir)
            raw = {}
        else:
            values, records, raw = end_to_end(workload, ops, seconds, workdir)
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    failed = sum(1 for r in records if r["failures"])
    os.makedirs(OUT_DIR, exist_ok=True)
    record_file = os.path.join(
        OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json")
    with open(record_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "smoke": smoke, "environment": env, "metrics": metrics,
                   "raw": raw, "records": records, "spans": spans}, fh)

    print(f"# {workload} seed={seed} seconds={seconds} trace={int(trace)}"
          f"{' smoke' if smoke else ''}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# ops={len(records)} failed_ratio={failed / len(records):.6g}"
          f" ({failed}/{len(records)})")
    for r in records:
        for failure in r["failures"]:
            print(f"# FAILED op {r['id']} n={r['n']}: {failure}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"# unscaled: {name} {value:.6g}")
    print(f"# records: {os.path.relpath(record_file, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(bench.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, for the self-test")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "toppkit", "cli.py")):
        print(f"error: {SRC}/toppkit not found; run from the root of a "
              "toppkit checkout", file=sys.stderr)
        return 2
    workloads = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
