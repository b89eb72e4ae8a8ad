"""Client of the library_verify workload: one process that plans and
verifies many profiles through toppkit's public functions.

    python3 libloop.py WORKLOAD OPS_JSON SECONDS RECORDS_JSON WORKDIR PROBE...

Runs whole cycles of the operations in OPS_JSON until SECONDS have
passed, gates each operation outside its timed part, and writes one
record per operation to RECORDS_JSON. After each cycle it runs the
set-up probe command PROBE and waits for it, so that the probes are
spread over the run as on the CLI workloads; their wall times go to
RECORDS_JSON too. Each operation and probe is timed between two
calibration loops, whose mean time is recorded with it.
"""

import json
import os
import sys
import time

import toppkit as tk

import bench


def main(argv: list) -> int:
    workload, ops_file, seconds, records_file, workdir = argv[:5]
    probe = argv[5:]
    with open(ops_file, encoding="utf-8") as fh:
        ops = json.load(fh)
    records, setup = [], []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < float(seconds):
        for op in ops:
            outdir = os.path.join(workdir, f"op{len(records)}")
            rec, cal = bench.calibrated(bench.timed_chain, tk, workload, op,
                                        outdir)
            records.append(dict(rec, cal=cal))
        wall, cal = bench.calibrated(bench.probe_wall, probe, dict(os.environ))
        setup.append({"wall": wall, "cal": cal})
    with open(records_file, "w", encoding="utf-8") as fh:
        json.dump({"records": records, "setup": setup}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
