import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from toppkit import (Discretization, DynamicsModel, InfeasibleError,
                     PathSpec, StepSolverConfig, backward_step,
                     build_model, capped_arc_instance, check_admissible,
                     circle_instance, curvature, default_config,
                     forward_step, line_instance, relax, solve,
                     wave_table_instance)

from conftest import plain_model

CFG = StepSolverConfig(abs_tol=1e-12)

# Car-model scalar subproblem: largest h with h - 0.2*sqrt(1 - h^2) <= 0.5.
# Value frozen from a plain-bisection solve of the inequality; it also
# satisfies 1.04 h^2 - h + 0.21 = 0 (the squared form's larger root).
CAR_BACKWARD_ROOT = 0.6516960464868382


def empty_box_model():
    """Upper bound below the floor on 0.4 < s < 0.6: the backward pass
    fails there and leaves NaN below."""
    def bu(s):
        return -1.0 if 0.4 < s < 0.6 else 100.0

    return DynamicsModel(fplus=lambda s, h: 2.0, fminus=lambda s, h: -2.0,
                         bu=bu, bl=lambda s: 0.0, slope_cap=2.0)


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
        grid = Discretization.uniform(0.0, 1.0, 5)
        report = solve(grid, empty_box_model())
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

    @pytest.mark.parametrize("feasible", [True, False])
    def test_write_json_is_json_dump_of_dict(self, tmp_path, feasible):
        # 10 001 points span several of the writer's blocks.
        if feasible:
            path = capped_arc_instance()
            report = solve(path.grid(10001), build_model(path),
                           endpoints=path.endpoints)
        else:
            report = solve(Discretization.uniform(0.0, 1.0, 10001),
                           empty_box_model())
            assert np.isnan(report.backward[0])
        assert report.status.feasible is feasible
        expected = json.dumps(report.to_json_dict(), indent=2) + "\n"
        assert "NaN" not in expected
        buf = io.StringIO()
        report.write_json(buf)
        assert buf.getvalue() == expected
        f = tmp_path / "report.json"
        report.write_json(str(f))
        assert f.read_bytes() == expected.encode("utf-8")


class TestFrictionFastPath:
    def test_makes_no_callable_calls(self):
        path = wave_table_instance()
        model = build_model(path)

        def forbidden(*args):
            raise AssertionError("model callable called")

        blind = replace(model, fplus=forbidden, fminus=forbidden,
                        bu=forbidden, bl=forbidden)
        grid = path.grid(501)
        report = solve(grid, blind, endpoints=path.endpoints)
        assert np.array_equal(report.forward, solve(
            grid, model, endpoints=path.endpoints).forward)
        assert check_admissible(report.profile, blind)

    @pytest.mark.parametrize("path", [line_instance(), capped_arc_instance(),
                                      wave_table_instance()],
                             ids=["line", "arc", "table"])
    def test_sampling_equals_scalar_callables(self, path):
        model = build_model(path)
        fr = model.friction
        s = path.grid(1001).points
        kappa = fr.kappa(s)
        h = np.linspace(0.0, 1.2, s.size) * fr.ceiling(kappa)
        fminus, fplus = fr.slopes(kappa, h)
        sl, hl = s.tolist(), h.tolist()

        def same(arr, values):
            return np.array_equal(arr.view(np.int64),
                                  np.array(values).view(np.int64))

        assert same(kappa, [curvature(path, x) for x in sl])
        assert same(fr.ceiling(kappa), [model.bu(x) for x in sl])
        assert same(fminus, [model.fminus(x, y) for x, y in zip(sl, hl)])
        assert same(fplus, [model.fplus(x, y) for x, y in zip(sl, hl)])

    def test_step_matches_car_root(self):
        # two points: the backward value at s = 0.3 is the root itself
        model = car_model()
        grid = Discretization(np.array([0.3, 0.4]))
        ds = 0.4 - 0.3  # 0.1 plus an ulp, as the solver sees it
        h = solve(grid, model, endpoints=(None, 0.5)).backward[0]
        assert h == pytest.approx(CAR_BACKWARD_ROOT, abs=1e-15)
        assert h + model.fminus(0.3, h) * ds <= 0.5
        up = math.nextafter(h, math.inf)
        assert up + model.fminus(0.3, up) * ds > 0.5

    def test_relaxed_model_solves_relaxed(self, line_path):
        model = build_model(line_path)
        relaxed = relax(model, 0.25)
        assert relaxed.friction is None
        grid = line_path.grid(101)
        base = solve(grid, model, endpoints=line_path.endpoints)
        wide = solve(grid, relaxed, endpoints=line_path.endpoints)
        assert np.array_equal(wide.forward, solve(
            grid, relax(plain_model(model), 0.25),
            endpoints=line_path.endpoints).forward)
        assert wide.traversal_time < base.traversal_time
        with pytest.raises(ValueError):
            replace(model, xi=0.25)


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepSolverConfig(abs_tol=0.0)


def test_default_config_scales_with_ceiling(line_path, line_model):
    cfg = default_config(line_path.grid(5), line_model)
    assert cfg.abs_tol == pytest.approx(1e-10)
