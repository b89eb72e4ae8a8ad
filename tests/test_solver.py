import math

import numpy as np
import pytest

from toppkit import (Discretization, DynamicsModel, InfeasibleError,
                     PathSpec, StepSolverConfig, backward_step, build_model,
                     check_admissible, circle_instance, default_config,
                     forward_step, line_instance, relax, solve,
                     wave_table_instance)

CFG = StepSolverConfig(abs_tol=1e-12)

# Car-model scalar subproblem: largest h with h - 0.2*sqrt(1 - h^2) <= 0.5.
# Value frozen from a plain-bisection solve of the inequality; it also
# satisfies 1.04 h^2 - h + 0.21 = 0 (the squared form's larger root).
CAR_BACKWARD_ROOT = 0.6516960464868382


def car_model():
    return build_model(PathSpec("arc", v_max=10.0, f_fr=1.0, radius=1.0,
                                angle=2 * math.pi))


class TestBackwardStep:
    def test_linear_closed_form(self, line_model):
        h = backward_step(0.5, 0.5, 0.0, line_model, CFG)
        assert h == pytest.approx(1.0, abs=1e-9)

    def test_upper_bound_binds_when_target_is_slack(self, line_model):
        # h_next beyond bu + cap*ds: the ceiling is the answer
        h = backward_step(0.5, 0.5, 200.0, line_model, CFG)
        assert h == line_model.bu(0.5) == 100.0

    def test_car_model_root(self):
        model = car_model()
        h = backward_step(0.3, 0.1, 0.5, model, CFG)
        assert h == pytest.approx(CAR_BACKWARD_ROOT, abs=1e-9)
        # returned point satisfies the constraint outright and is maximal
        assert h + model.fminus(0.3, h) * 0.1 <= 0.5
        bumped = h + 1e-6
        assert bumped + model.fminus(0.3, bumped) * 0.1 > 0.5

    def test_empty_box_is_infeasible(self):
        model = DynamicsModel(fplus=lambda s, h: 1.0, fminus=lambda s, h: -1.0,
                              bu=lambda s: -1.0, bl=lambda s: 0.0,
                              slope_cap=1.0)
        assert backward_step(0.0, 0.1, 1.0, model, CFG) is None

    def test_unreachable_target_is_infeasible(self):
        # floor 5, target 0, |slope| <= 1: even h = 5 cannot brake to 0
        model = DynamicsModel(fplus=lambda s, h: 1.0, fminus=lambda s, h: -1.0,
                              bu=lambda s: 10.0, bl=lambda s: 5.0,
                              slope_cap=1.0)
        assert backward_step(0.0, 0.1, 0.0, model, CFG) is None

    def test_scan_fallback_finds_interior_dip(self):
        # Slope floor dips sharply around h = 0.5, so g(h) has an interior
        # feasible valley although both interval ends are infeasible.
        def fminus(s, h):
            return 1.0 - 10.0 * math.exp(-100.0 * (h - 0.5) ** 2)

        model = DynamicsModel(fplus=lambda s, h: 11.0, fminus=fminus,
                              bu=lambda s: 1.0, bl=lambda s: 0.0,
                              slope_cap=11.0)

        def g(h):
            return h + fminus(0.0, h) * 1.0 - 0.0

        assert g(0.0) > 0.0 and g(1.0) > 0.0 and g(0.5) < 0.0
        h = backward_step(0.0, 1.0, 0.0, model, CFG)
        # brute-force the boundary on a fine grid for comparison
        hs = np.linspace(0.0, 1.0, 2_000_001)
        feasible = hs[[g(float(x)) <= 0.0 for x in hs]]
        assert h == pytest.approx(float(feasible.max()), abs=1e-6)

    def test_invalid_arguments(self, line_model):
        with pytest.raises(ValueError):
            backward_step(0.0, 0.0, 1.0, line_model, CFG)
        with pytest.raises(ValueError):
            backward_step(0.0, 0.1, math.nan, line_model, CFG)


class TestForwardStep:
    def test_reaches_cap_exactly(self, line_model):
        assert forward_step(0.0, 0.5, 0.0, 1.0, line_model) == 1.0

    def test_cap_at_current_value(self, line_model):
        assert forward_step(0.0, 0.5, 0.7, 0.7, line_model) == 0.7

    def test_car_model_reach(self):
        h = forward_step(0.3, 0.1, 0.8, 1.0, car_model())
        assert h == pytest.approx(0.92, abs=1e-12)

    def test_floor_violation_is_infeasible(self):
        model = DynamicsModel(fplus=lambda s, h: 0.0, fminus=lambda s, h: 0.0,
                              bu=lambda s: 10.0,
                              bl=lambda s: 5.0 if s > 0.25 else 0.0,
                              slope_cap=1.0)
        assert forward_step(0.2, 0.1, 1.0, 10.0, model) is None

    def test_invalid_ds(self, line_model):
        with pytest.raises(ValueError):
            forward_step(0.0, -0.1, 0.0, 1.0, line_model)


class TestSolve:
    def test_line_three_points(self, line_path, line_model, grid3):
        report = solve(grid3, line_model, endpoints=line_path.endpoints)
        assert report.status.feasible
        assert report.backward == pytest.approx([2.0, 1.0, 0.0], abs=1e-12)
        assert report.forward == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
        assert report.profile.values == pytest.approx([0.0, 1.0, 0.0],
                                                      abs=1e-12)
        assert report.traversal_time == pytest.approx(2.0, abs=1e-9)

    def test_circle_constant_fixed_point(self, circle_path):
        model = build_model(circle_path)
        for n in (5, 64):
            grid = circle_path.grid(n)
            report = solve(grid, model, endpoints=circle_path.endpoints)
            assert report.status.feasible
            assert np.max(np.abs(report.forward - 1.0)) == 0.0

    def test_empty_box_reports_failing_index(self, line_path):
        def bu(s):
            return -1.0 if 0.4 < s < 0.6 else 100.0

        model = DynamicsModel(fplus=lambda s, h: 2.0,
                              fminus=lambda s, h: -2.0,
                              bu=bu, bl=lambda s: 0.0, slope_cap=2.0)
        grid = Discretization.uniform(0.0, 1.0, 5)
        report = solve(grid, model)
        assert not report.status.feasible
        assert report.status.index == 2
        assert report.status.pass_name == "backward"
        assert report.profile is None
        with pytest.raises(InfeasibleError, match="index 2 .backward pass") as e:
            report.require_feasible("solve")
        assert (e.value.index, e.value.pass_name) == (2, "backward")

    def test_forward_never_exceeds_backward(self):
        for path in (line_instance(), wave_table_instance()):
            model = build_model(path)
            grid = path.grid(301)
            report = solve(grid, model, endpoints=path.endpoints)
            assert report.status.feasible
            assert np.all(report.forward <= report.backward + 1e-12)

    def test_output_is_admissible_at_default_tol(self):
        for path in (line_instance(), circle_instance(),
                     wave_table_instance()):
            model = build_model(path)
            report = solve(path.grid(257), model, endpoints=path.endpoints)
            assert report.status.feasible
            assert check_admissible(report.profile, model)

    def test_relaxation_monotonicity(self, line_path):
        base = build_model(line_path)
        grid = line_path.grid(101)
        prev = solve(grid, base, endpoints=line_path.endpoints).profile.values
        for xi in (0.05, 0.2, 1.0):
            cur = solve(grid, relax(base, xi),
                        endpoints=line_path.endpoints).profile.values
            assert np.all(prev <= cur + 2e-9)
            prev = cur

    def test_determinism_bit_identical(self, circle_path):
        model = build_model(circle_path)
        grid = circle_path.grid(97)
        a = solve(grid, model, endpoints=circle_path.endpoints)
        b = solve(grid, model, endpoints=circle_path.endpoints)
        assert np.array_equal(a.forward, b.forward)
        assert np.array_equal(a.backward, b.backward)

    def test_endpoint_seeds_cap_the_passes(self, line_path):
        model = build_model(line_path)
        grid = line_path.grid(21)
        free = solve(grid, model)
        pinned = solve(grid, model, endpoints=(0.09, 0.04))
        assert free.forward[0] == 100.0  # ceiling, nothing binds
        assert pinned.forward[0] == pytest.approx(0.09, abs=1e-12)
        assert pinned.backward[-1] == pytest.approx(0.04, abs=1e-12)

    def test_negative_endpoint_rejected(self, line_path, line_model, grid3):
        with pytest.raises(ValueError):
            solve(grid3, line_model, endpoints=(-1.0, 0.0))

    def test_report_json_shape(self, line_path, line_model, grid3):
        report = solve(grid3, line_model, endpoints=line_path.endpoints)
        d = report.to_json_dict()
        assert set(d) == {"status", "backward", "forward", "profile",
                          "traversal_time"}
        assert d["status"] == {"feasible": True, "index": None, "pass": None}
        assert d["backward"] == pytest.approx([2.0, 1.0, 0.0])
        assert d["profile"]["provenance"] == "solver"


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepSolverConfig(abs_tol=0.0)


def test_default_config_scales_with_ceiling(line_path, line_model):
    cfg = default_config(line_path.grid(5), line_model)
    assert cfg.abs_tol == pytest.approx(1e-10)
