"""The calls the benchmark in perfbench/ makes into the library.

perfbench/selftest.py runs the benchmark itself, at tiny grids, in
about 20 s. This file makes the same library calls in-process, on the
first operation of each workload's smoke cycle, so a change to the
library that breaks the benchmark fails here: the traced chain
(``report.status.feasible``, ``report.write_json``, ``default_config``,
the correctness gate, ``FrictionCircle.fminus``) and the counting pass
(a callable ``DynamicsModel`` through ``solve``, ``check_admissible``
and ``dp_optimum``). The first smoke operation of each CLI workload
also runs as the benchmark runs it, through ``toppkit solve`` (and
``retime``) in child processes, and passes its gate on ``summary.json``.
perfbench/ is only read.
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


@pytest.mark.parametrize("workload", ["cli_geometric", "cli_tables"])
def test_benchmark_cli_operation_still_works(tmp_path, workload):
    # the CLI workloads read summary.json's traversal_time and admissible
    op = bench.make_ops(workload, 1, True, str(tmp_path / "in"))[0]
    _, failures = run.cli_op(workload, op, str(tmp_path), run.child_env())
    assert failures == []
