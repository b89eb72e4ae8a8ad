"""Self-test of the benchmark. Run from the root of a toppkit checkout:

    python3 perfbench/selftest.py

1. A smoke run (tiny grids) of every workload, untraced and traced, must
   succeed and print every metric BENCHMARK.json names, with its unit.
2. Changing one h value in a profile.csv written by `toppkit solve` must
   make the correctness gate count a failure.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py must
   exit non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import bench
import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_py(args: list, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke_runs() -> list:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    for workload in bench.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"smoke {workload} trace={trace}"
            proc = run_py(["--workload", workload, "--seed", "7", "--seconds", "1",
                           "--trace", str(trace), "--smoke"], run.ROOT)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            if got != want:
                problems.append(f"{label}: metrics {got} != declared {want}")
            for name, m in result["metrics"].items():
                if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                    problems.append(f"{label}: {name} = {m['value']!r}")
                elif name in want and f"{name} " not in proc.stdout:
                    problems.append(f"{label}: {name} not printed by name")
    return problems


def mutated_profile() -> list:
    problems = []
    os.makedirs(run.TMP_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP_DIR) as tmp:
        for workload in ("cli_geometric", "cli_tables"):
            op = bench.make_ops(workload, 7, True, os.path.join(tmp, workload))[0]
            outdir = os.path.join(tmp, workload, "out")
            subprocess.run([sys.executable, "-m", "toppkit.cli", "solve", "--input",
                            op["spec"], "--n", str(op["n"]), "--out", outdir],
                           env=run.child_env(), check=True, capture_output=True,
                           timeout=170)
            with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)

            def failures():
                return bench.gate(op, outdir, summary["admissible"],
                                  summary["traversal_time"])

            if failures():
                problems.append(f"{workload}: gate fails untouched outputs: {failures()}")
            csv_path = os.path.join(outdir, "profile.csv")
            with open(csv_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            i = len(lines) // 2
            s, h = lines[i].split(",")
            lines[i] = f"{s},{float(h) * 1.001!r}"
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            if not failures():
                problems.append(f"{workload}: gate passes a profile.csv with "
                                f"h changed at row {i}")
    return problems


def bare_directory() -> list:
    os.makedirs(run.TMP_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP_DIR) as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_py(["--workload", "cli_geometric", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or "metrics" in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    ok = True
    for check in (smoke_runs, mutated_profile, bare_directory):
        problems = check()
        ok = ok and not problems
        print(f"[{'FAIL' if problems else 'PASS'}] {check.__name__}")
        for p in problems:
            print(f"    {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
