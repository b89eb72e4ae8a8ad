"""The calls the benchmark in perfbench/ makes into the library.

perfbench/selftest.py runs the benchmark itself, at tiny grids, in
about 20 s. This file makes the same library calls in-process, on the
first operation of each workload's smoke cycle, so a change to the
library that breaks the benchmark fails here: the traced chain
(``report.status.feasible``, ``report.write_json``, ``default_config``,
the correctness gate, ``FrictionCircle.fminus``) and the counting pass
(a callable ``DynamicsModel`` through ``solve``, ``check_admissible``
and ``dp_optimum``). perfbench/ is only read.
"""

import os
import sys

import pytest

import toppkit

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import bench  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_benchmark_calls_still_work(tmp_path, workload):
    op = bench.make_ops(workload, 1, True, str(tmp_path / "in"))[0]
    rec = run.traced_pass(toppkit, bench.Tracer(), workload, op,
                          str(tmp_path / "out"))
    assert rec["failures"] == []
    counts = bench.count_evals(toppkit, workload, op)
    assert counts["solve"]["fminus"] > 0
