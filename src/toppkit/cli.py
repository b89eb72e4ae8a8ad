"""Batch front door: solve, sweep, oracle and retime commands.

Inputs are path-spec JSON files; outputs are CSV/JSON artifacts written
into --out; ``oracle`` judges at ``dp_optimum``'s default levels. Exit codes:
0 success, 1 usage or input error (a stalled solve, an oracle tolerance that
is not finite, a failed allocation, a spec error named with its file; a
built path is never infeasible).
"""

import argparse
import gc
import json
import math
import os
import sys
from typing import NoReturn, Optional

from .core import (SpeedProfile, check_admissible, default_tol, profile_error,
                   write_json)
from .retime import STALLED, sample_trajectory, write_trajectory_csv

# Each command imports the modules that only it uses, so a process loads
# what its command runs: retime never imports paths or solver, and only
# sweep and oracle import harness and oracle.

EXIT_OK = 0
EXIT_INPUT = 1


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def _load_path_spec(filename: str):
    from .paths import PathSpec
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            return PathSpec.from_json_dict(json.load(fh))
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
        raise ValueError(f"{filename}: {e}") from e


def _seconds(t: float) -> str:
    """Six decimals; seven significant digits below 1e-3 s (never 0) and from 1e9 s."""
    return f"{t:.7g}" if 0.0 < t < 1e-3 or t >= 1e9 else f"{t:.6f}"


def cmd_solve(args) -> int:
    from .paths import build_model
    from .solver import solve
    path = _load_path_spec(args.input)
    model = build_model(path)
    report = solve(path.grid(args.n), model, endpoints=path.endpoints)
    if not math.isfinite(report.traversal_time):
        raise ValueError(STALLED)
    os.makedirs(args.out, exist_ok=True)
    report.profile.to_csv(os.path.join(args.out, "profile.csv"))
    verdict = check_admissible(report.profile, model)
    summary = {
        "traversal_time": report.traversal_time,
        "admissible": bool(verdict),
        "admissibility_tol": default_tol(model),
    }
    write_json(summary, os.path.join(args.out, "summary.json"))
    print(f"traversal time: {_seconds(report.traversal_time)} s")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .harness import convergence_sweep, write_convergence_csv
    path = _load_path_spec(args.input)
    resolutions = [int(tok) for tok in args.resolutions.split(",") if tok]
    rows = convergence_sweep(path, resolutions, reference=args.reference)
    if not all(math.isfinite(r.time_s) for r in rows):
        raise ValueError(STALLED)
    os.makedirs(args.out, exist_ok=True)
    write_convergence_csv(rows, os.path.join(args.out, "sweep.csv"))
    for r in rows:
        print(f"n={r.n} delta={r.delta:.3e} rho={r.rho:.3e} time={_seconds(r.time_s)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import LEVELS, agreement_tolerance, dp_optimum
    from .paths import build_model
    from .solver import solve
    path = _load_path_spec(args.input)
    model = build_model(path)
    grid = path.grid(args.n)
    tol = agreement_tolerance(grid, model, LEVELS)
    report = solve(grid, model, endpoints=path.endpoints)
    oracle_profile = dp_optimum(grid, model, LEVELS, path.endpoints)
    os.makedirs(args.out, exist_ok=True)
    oracle_profile.to_csv(os.path.join(args.out, "oracle.csv"))
    err = profile_error(oracle_profile, report.profile)
    agreement = {"error": err, "tolerance": tol, "within": err <= tol,
                 "levels": LEVELS, "n": args.n}
    write_json(agreement, os.path.join(args.out, "agreement.json"))
    print(f"agreement error: {err:.3e} (tolerance {tol:.3e})")
    if err > tol:
        return _fail("oracle disagrees with the solver beyond tolerance")
    return EXIT_OK


def cmd_retime(args) -> int:
    rows = sample_trajectory(SpeedProfile.from_csv(args.profile), args.dt)
    os.makedirs(args.out, exist_ok=True)
    write_trajectory_csv(rows, os.path.join(args.out, "trajectory.csv"))
    print(f"traversal time: {_seconds(rows[-1][0])} s ({len(rows)} samples)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toppkit",
        description="Minimum-time speed profiles over fixed paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance on a uniform grid")
    p.add_argument("--input", required=True, help="path spec JSON file")
    p.add_argument("--n", type=int, required=True, help="grid size (points)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="error vs resolution sweep")
    p.add_argument("--input", required=True)
    p.add_argument("--resolutions", required=True,
                   help="comma-separated grid sizes")
    p.add_argument("--reference", choices=("analytic", "finest"),
                   default="analytic")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="compare the solver with the oracle")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("retime", help="sample a trajectory from a profile CSV")
    p.add_argument("--profile", required=True, help="profile CSV file")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_retime)
    return parser


def main(argv: Optional[list] = None) -> int:
    """Run one command and return its exit code; commands raise, and
    only here do their errors become exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors, an input error here
        return EXIT_OK if e.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as e:
        return _fail(str(e) or type(e).__name__)  # a bare MemoryError has no text


def console_main() -> NoReturn:
    """The ``toppkit`` script and ``python -m toppkit.cli``: run main, then
    exit without collecting. The freeze moves every object into the
    permanent generation, which no collection walks, so shutdown does not
    free the objects held in reference cycles (modules, classes and
    functions), and the operating system reclaims their memory at exit.
    Shutdown still runs atexit and flushes stdout and stderr; every
    artifact is closed before main returns. main itself does not freeze,
    because callers run it in process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
