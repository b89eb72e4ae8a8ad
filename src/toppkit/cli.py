"""Batch front door: solve, sweep, oracle and retime commands.

Inputs are path-spec JSON files; outputs are CSV/JSON artifacts written
into --out. Exit codes: 0 success, 1 usage or input error, 2 infeasible
instance. TOPPKIT_TOL in the environment overrides the default
admissibility tolerance used in reports.
"""

import argparse
import json
import math
import os
import sys
from typing import Optional

from .core import (InfeasibleError, SpeedProfile, check_admissible,
                   default_tol, profile_error, write_json)
from .harness import convergence_sweep, write_convergence_csv
from .oracle import agreement_tolerance, dp_optimum
from .paths import PathSpec, build_model
from .retime import sample_trajectory, write_trajectory_csv
from .solver import solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def _load_path_spec(filename: str) -> PathSpec:
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"{filename}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    try:
        return PathSpec.from_json_dict(data)
    except ValueError as e:
        raise ValueError(f"{filename}: {e}") from e


def _admissibility_tol(model) -> float:
    raw = os.environ.get("TOPPKIT_TOL")
    if raw is None:
        return default_tol(model)
    try:
        tol = float(raw)
    except ValueError as e:
        raise ValueError(f"TOPPKIT_TOL={raw!r} is not a number") from e
    if not 0.0 <= tol < math.inf:
        raise ValueError("TOPPKIT_TOL must be finite and non-negative")
    return tol


def cmd_solve(args) -> int:
    path = _load_path_spec(args.input)
    model = build_model(path)
    tol = _admissibility_tol(model)
    grid = path.grid(args.n)
    os.makedirs(args.out, exist_ok=True)
    report = solve(grid, model, endpoints=path.endpoints)
    report.write_json(os.path.join(args.out, "report.json"))
    report.require_feasible("solve")
    report.profile.to_csv(os.path.join(args.out, "profile.csv"))
    verdict = check_admissible(report.profile, model, tol)
    summary = {
        "traversal_time": report.traversal_time,
        "admissible": bool(verdict),
        "admissibility_tol": tol,
    }
    write_json(summary, os.path.join(args.out, "summary.json"))
    print(f"traversal time: {report.traversal_time:.6f} s")
    return EXIT_OK


def cmd_sweep(args) -> int:
    path = _load_path_spec(args.input)
    resolutions = [int(tok) for tok in args.resolutions.split(",") if tok]
    rows = convergence_sweep(path, resolutions, reference=args.reference)
    os.makedirs(args.out, exist_ok=True)
    write_convergence_csv(rows, os.path.join(args.out, "sweep.csv"))
    for r in rows:
        print(f"n={r.n} delta={r.delta:.3e} rho={r.rho:.3e} time={r.time_s:.6f}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    path = _load_path_spec(args.input)
    model = build_model(path)
    grid = path.grid(args.n)
    tol = agreement_tolerance(grid, model, args.levels)
    report = solve(grid, model, endpoints=path.endpoints).require_feasible(
        "solve")
    oracle_profile = dp_optimum(grid, model, levels=args.levels,
                                endpoints=path.endpoints)
    os.makedirs(args.out, exist_ok=True)
    oracle_profile.to_csv(os.path.join(args.out, "oracle.csv"))
    err = profile_error(oracle_profile, report.profile)
    agreement = {"error": err, "tolerance": tol, "within": err <= tol,
                 "levels": args.levels, "n": args.n}
    write_json(agreement, os.path.join(args.out, "agreement.json"))
    print(f"agreement error: {err:.3e} (tolerance {tol:.3e})")
    if err > tol:
        return _fail("oracle disagrees with the solver beyond tolerance")
    return EXIT_OK


def cmd_retime(args) -> int:
    rows = sample_trajectory(SpeedProfile.from_csv(args.profile), args.dt)
    os.makedirs(args.out, exist_ok=True)
    write_trajectory_csv(rows, os.path.join(args.out, "trajectory.csv"))
    print(f"traversal time: {rows[-1][0]:.6f} s ({len(rows)} samples)")
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
    p.add_argument("--levels", type=int, default=512)
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
        # argparse exits with 2 on usage errors; 2 means infeasible here
        return EXIT_OK if e.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ValueError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
