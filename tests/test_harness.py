import numpy as np
import pytest

import toppkit.harness as harness
from toppkit import (PathSpec, build_model, capped_arc_instance,
                     circle_instance, convergence_sweep, default_tol,
                     line_instance, measure_solve_seconds, relax,
                     wave_table_instance, write_convergence_csv, xi_sweep)

from conftest import failed_check


class TestConvergenceSweep:
    def test_line_error_stays_at_machine_level(self):
        # constant slope window: the sweeps reproduce the closed form at
        # the grid points, so the error column is numerical noise only
        rows = convergence_sweep(line_instance(), [10, 100, 1000], "analytic")
        assert [r.n for r in rows] == [10, 100, 1000]
        for r in rows:
            assert r.rho <= 1e-9
        # coarse grids clip the triangle's peak, so the interpolated time
        # approaches the closed form 2.0 from above as n grows
        times = [r.time_s for r in rows]
        assert all(t >= 2.0 - 1e-12 for t in times)
        assert all(t2 < t1 for t1, t2 in zip(times, times[1:]))
        assert times[-1] == pytest.approx(2.0, abs=1e-5)
        assert rows[0].delta == pytest.approx(1.0 / 9.0)

    def test_circle_error_is_grid_exact(self):
        rows = convergence_sweep(circle_instance(), [11, 101], "analytic")
        tol = default_tol(build_model(circle_instance()))
        assert all(r.rho <= tol for r in rows)

    def test_capped_arc_error_strictly_decreases(self):
        # the curvature ceiling binds mid-path; hitting-point error decays
        rows = convergence_sweep(capped_arc_instance(), [11, 26, 51, 101],
                                 "finest")
        rhos = [r.rho for r in rows]
        assert all(r2 < r1 for r1, r2 in zip(rhos, rhos[1:]))

    def test_finest_reference_requires_alignment(self):
        with pytest.raises(ValueError, match="divide"):
            convergence_sweep(capped_arc_instance(), [10, 16], "finest")

    def test_needs_at_least_two_sizes(self):
        with pytest.raises(ValueError):
            convergence_sweep(line_instance(), [100], "analytic")

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            convergence_sweep(line_instance(), [100, 100], "analytic")

    def test_sizes_must_be_at_least_2(self):
        # without the check, the finest reference's modulo divides by zero
        with pytest.raises(ValueError, match="at least 2"):
            convergence_sweep(line_instance(), [1, 3], "finest")

    def test_sizes_must_be_integers(self):
        # a float size is refused, not truncated to n = 3 and 5
        with pytest.raises(TypeError):
            convergence_sweep(line_instance(), [3.7, 5.2], "analytic")
        rows = convergence_sweep(line_instance(), np.array([3, 5]), "analytic")
        assert [r.n for r in rows] == [3, 5]

    def test_unknown_reference(self):
        with pytest.raises(ValueError):
            convergence_sweep(line_instance(), [10, 20], "exact")

    def test_csv_schema(self, tmp_path):
        rows = convergence_sweep(line_instance(), [10, 100], "analytic")
        f = tmp_path / "sweep.csv"
        write_convergence_csv(rows, str(f))
        lines = f.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "n,delta,rho,time_s"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 10
        assert float(first[3]) == pytest.approx(2.0, abs=1e-2)


class TestXiSweep:
    def test_line_gaps_shrink_to_exact_zero(self):
        path = line_instance()
        rows = xi_sweep(path, path.grid(51), [0.2, 0.1, 0.05, 0.0])
        gaps = [r.gap for r in rows]
        assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] == 0.0
        assert gaps[0] > 0.0

    def test_zero_only(self):
        path = line_instance()
        rows = xi_sweep(path, path.grid(21), [0.0])
        assert len(rows) == 1 and rows[0].gap == 0.0

    def test_circle_gap_bounded_by_integrated_relaxation(self):
        # soft diagnostic: relaxing the slope window by xi can lift the
        # profile by at most xi times the path length
        path = circle_instance()
        grid = path.grid(64)
        a, b = path.domain
        rows = xi_sweep(path, grid, [0.3, 0.1, 0.0])
        for r in rows:
            assert r.gap <= r.xi * (b - a) + 1e-9

    def test_validation(self):
        path = line_instance()
        grid = path.grid(11)
        with pytest.raises(ValueError):
            xi_sweep(path, grid, [0.1, 0.2, 0.0])  # not decreasing
        with pytest.raises(ValueError):
            xi_sweep(path, grid, [0.2, 0.1])  # does not end at zero
        with pytest.raises(ValueError):
            xi_sweep(path, grid, [])

    @pytest.mark.parametrize("level", [float("nan"), float("inf")])
    def test_non_finite_level_rejected_by_relax(self, level):
        # each passes the decreasing-to-0 checks; relax names it
        path = line_instance()
        with pytest.raises(ValueError, match="^relaxation level must be finite"):
            xi_sweep(path, path.grid(11), [level, 0.0])


def test_sweep_solves_are_admissible_under_their_own_model():
    # the sweeps raise internally if any solve fails its own check;
    # reaching the result is the assertion
    path = wave_table_instance()
    convergence_sweep(path, [21, 41], "finest")
    xi_sweep(path, path.grid(41), [0.4, 0.2, 0.0])


def test_zero_curvature_table_behaves_like_a_line():
    table = PathSpec("table", v_max=10.0, f_fr=1.0,
                     table=((0.0, 0.0), (1.0, 0.0)), endpoints=(0.0, 0.0))
    rows_t = convergence_sweep(table, [5, 9], "finest")
    rows_l = convergence_sweep(line_instance(), [5, 9], "finest")
    for rt, rl in zip(rows_t, rows_l):
        assert rt.time_s == pytest.approx(rl.time_s, abs=1e-12)


def test_measure_solve_seconds_smoke():
    t = measure_solve_seconds(line_instance(), 501, repeats=2)
    assert 0.0 < t < 5.0


def test_measure_solve_seconds_needs_a_repeat():
    # zero repeats would time nothing and return inf
    with pytest.raises(ValueError, match="repeats must be at least 1"):
        measure_solve_seconds(line_instance(), 11, repeats=0)


class TestSelfChecks:
    def test_inadmissible_convergence_solve_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "check_admissible", failed_check)
        with pytest.raises(RuntimeError,
                           match="^solve at n=10 not admissible: forced$"):
            convergence_sweep(line_instance(), [10, 20], "analytic")

    def test_inadmissible_relaxed_solve_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "check_admissible", failed_check)
        path = line_instance()
        with pytest.raises(RuntimeError, match=r"^relaxed solve \(xi=0.5\) "
                                               "not admissible: forced$"):
            xi_sweep(path, path.grid(11), [0.5, 0.0])

    def test_growing_relaxation_gap_raises(self, monkeypatch):
        # a relaxation that widens as the level falls: xi = 1, then 2
        monkeypatch.setattr(harness, "relax", lambda model, xi: relax(model, 1.0 / xi))
        path = line_instance()
        with pytest.raises(RuntimeError, match="^relaxation gaps increased "
                                               "from xi=1.0 .* to xi=0.5"):
            xi_sweep(path, path.grid(11), [1.0, 0.5, 0.0])
