"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s or -rA
to see them) and asserts the criterion at its stated tolerance.
"""

import math

import numpy as np

from toppkit import (SpeedProfile, agreement_tolerance, analytic_optimum,
                     analytic_time, build_model, bundled_instances,
                     check_admissible, convergence_sweep, default_tol,
                     dp_optimum, line_instance, circle_instance,
                     capped_arc_instance, measure_solve_seconds,
                     profile_error, random_admissible, random_table_instance,
                     solve, wave_table_instance, xi_sweep)

INSTANCES = bundled_instances()


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_criterion_1_line_time_error_and_runtime():
    path = line_instance()
    model = build_model(path)
    grid = path.grid(1001)
    report = solve(grid, model, endpoints=path.endpoints)
    dt = abs(report.traversal_time - 2.0)
    rho = profile_error(report.profile, analytic_optimum(path, grid))
    runtime = measure_solve_seconds(path, 1001, repeats=3)
    ok = dt < 1e-3 and rho < 1e-2 and runtime < 0.050
    _report(1, ok, f"line n=1001: |T-2.0|={dt:.2e} (<1e-3), "
                   f"rho={rho:.2e} (<1e-2), runtime={runtime*1e3:.1f}ms (<50)")
    assert dt < 1e-3
    assert rho < 1e-2
    assert runtime < 0.050


def test_criterion_2_circle_constant_profile_and_time():
    path = circle_instance()
    model = build_model(path)
    worst_h = 0.0
    worst_t = 0.0
    for n in (11, 101, 1001):
        report = solve(path.grid(n), model, endpoints=path.endpoints)
        worst_h = max(worst_h, float(np.max(np.abs(report.forward - 1.0))))
        worst_t = max(worst_t, abs(report.traversal_time - 2.0 * math.pi))
    ok = worst_h <= 1e-9 and worst_t <= 1e-6
    _report(2, ok, f"circle n in {{11,101,1001}}: max|h-1|={worst_h:.2e} "
                   f"(<=1e-9), max|T-2pi|={worst_t:.2e} (<=1e-6)")
    assert worst_h <= 1e-9
    assert worst_t <= 1e-6


def _whole_path_error(path, model, n: int) -> float:
    """Sup over the whole path of |solve - closed form| on a rest-to-rest line.

    Between grid points the solved profile is the linear interpolant of
    its grid values, which is what ``retime`` executes. The gap to the
    piecewise-linear closed form can only peak at a solve grid point or
    at the closed form's apex S/2 (the line never reaches its speed
    cap, so the closed form is a triangle). The grid of 2(n-1)+1 points holds
    every solve grid point and every segment midpoint, the apex among
    them, so the largest gap on it is the exact sup over [0, S].
    """
    coarse = solve(path.grid(n), model, endpoints=path.endpoints).profile
    fine = path.grid(2 * (n - 1) + 1)
    h = np.interp(fine.points, coarse.grid.points, coarse.values)
    return profile_error(SpeedProfile(fine, h),
                         analytic_optimum(path, fine))


def test_criterion_3_line_convergence():
    path = line_instance()
    sizes = [10, 100, 1000, 10000]
    # Every size needs an odd interval count. The sweeps reproduce the
    # closed form exactly at grid points, so the only discretization
    # error is the apex at S/2 that the interpolant cuts off inside a
    # segment. With an even count the apex is a grid point, the whole
    # path is solved exactly and the error is identically zero.
    assert all((n - 1) % 2 == 1 for n in sizes), (
        f"sizes {sizes} need odd interval counts n-1, else the line is "
        f"solved exactly and the error cannot strictly decrease")
    rows = convergence_sweep(path, sizes, "analytic")
    model = build_model(path)
    rhos = [r.rho for r in rows]
    errs = [_whole_path_error(path, model, r.n) for r in rows]
    gaps = [r.time_s - analytic_time(path) for r in rows]
    covers = all(e >= r for r, e in zip(rhos, errs))
    rho_small = max(rhos) < 1e-3
    err_down = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    err_small = errs[-1] < 1e-3
    gap_down = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    gap_pos = all(g > 0.0 for g in gaps)
    ok = covers and rho_small and err_down and err_small and gap_down \
        and gap_pos
    table = "; ".join(f"n={r.n}: rho={r.rho:.2e} err={e:.2e} dT={g:.2e}"
                      for r, e, g in zip(rows, errs, gaps))
    _report(3, ok, f"line whole-path convergence ({table}), err and dT "
                   f"strictly decreasing={err_down and gap_down}, "
                   f"err(10000)<1e-3={err_small}")
    detail = f"by n={sizes}: rho={rhos}, err={errs}, dT={gaps}"
    assert covers, f"whole-path error below grid-point rho, {detail}"
    assert rho_small, f"grid-point rho not small, {detail}"
    assert err_small, f"whole-path error at n=10000 not < 1e-3, {detail}"
    assert err_down, f"whole-path error not strictly decreasing, {detail}"
    assert gap_pos, f"a solve is not slower than the optimum, {detail}"
    assert gap_down, f"time gap not strictly decreasing, {detail}"


def test_criterion_4_admissibility_suite():
    checked = 0
    for name, path in INSTANCES.items():
        model = build_model(path)
        report = solve(path.grid(201), model, endpoints=path.endpoints)
        verdict = check_admissible(report.profile, model)
        assert verdict, f"{name}: {verdict.detail}"
        checked += 1
    for seed in range(50):
        path = random_table_instance(seed)
        model = build_model(path)
        report = solve(path.grid(161), model, endpoints=path.endpoints)
        verdict = check_admissible(report.profile, model)
        assert verdict, f"random seed={seed}: {verdict.detail}"
        checked += 1
    _report(4, True, f"{checked} solves admissible at default tolerance")


def test_criterion_5_dominance_suite():
    total = 0
    worst = -math.inf
    for name, path in INSTANCES.items():
        model = build_model(path)
        grid = path.grid(201)
        optimum = solve(grid, model, endpoints=path.endpoints).profile.values
        tol = default_tol(model)
        for seed in range(20):
            y = random_admissible(grid, path, seed)
            gap = float(np.max(y.values - optimum))
            worst = max(worst, gap)
            assert gap <= tol, f"{name} seed={seed}: violation {gap:.3e}"
            total += 1
    _report(5, True, f"solver dominates {total} random admissible profiles, "
                     f"each a solve under tightened limits "
                     f"(worst excess {worst:.1e})")


def test_criterion_6_convexity_suite():
    names = list(INSTANCES)
    combos = 0
    for k in range(50):
        name = names[k % len(names)]
        path = INSTANCES[name]
        model = build_model(path)
        grid = path.grid(201)
        p1 = random_admissible(grid, path, 1000 + 2 * k)
        p2 = random_admissible(grid, path, 1000 + 2 * k + 1)
        for theta in (0.25, 0.5, 0.75):
            mix = SpeedProfile(
                grid, theta * p1.values + (1.0 - theta) * p2.values)
            verdict = check_admissible(mix, model)
            assert verdict, (f"{name} pair {k} theta={theta}: "
                             f"{verdict.detail}")
            combos += 1
    _report(6, True, f"{combos} convex combinations admissible at default "
                     f"tolerance")


def test_criterion_7_relaxation_suite():
    xis = [0.2, 0.1, 0.05, 0.0]
    for path in (line_instance(), capped_arc_instance(),
                 wave_table_instance()):
        rows = xi_sweep(path, path.grid(201), xis)
        gaps = [r.gap for r in rows]
        assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] == 0.0
    _report(7, True, "relaxation gaps non-increasing with exact zero at "
                     "xi=0 on 3 instances")


def test_criterion_8_oracle_equivalence():
    details = []
    for name, path in INSTANCES.items():
        model = build_model(path)
        grid = path.grid(200)
        report = solve(grid, model, endpoints=path.endpoints)
        oracle = dp_optimum(grid, model, levels=512, endpoints=path.endpoints)
        err = profile_error(oracle, report.profile)
        tol = agreement_tolerance(grid, model, 512)
        assert err <= tol, f"{name}: {err:.3e} > {tol:.3e}"
        details.append(f"{name}:{err:.1e}<={tol:.1e}")
    _report(8, True, "oracle/solver agreement on all bundled instances "
                     f"({'; '.join(details)})")


def test_criterion_9_linear_scaling():
    path = line_instance()
    t_small = measure_solve_seconds(path, 10_000, repeats=3)
    t_large = measure_solve_seconds(path, 100_000, repeats=3)
    ratio = t_large / t_small
    ok = ratio <= 20.0
    _report(9, ok, f"wall time n=1e5/n=1e4 = {t_large*1e3:.0f}ms/"
                   f"{t_small*1e3:.0f}ms = {ratio:.1f}x (<=20x)")
    assert ratio <= 20.0
