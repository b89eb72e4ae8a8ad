import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toppkit
from toppkit import (Discretization, DynamicsModel, InfeasibleError,
                     PathSpec, build_model, capped_arc_instance,
                     check_admissible, circle_instance, curvature,
                     default_config, dp_optimum, line_instance, relax,
                     solve, wave_table_instance)

from toppkit.core import FrictionCircle

from conftest import (OVERFLOWING_ROOT, blind_model, constant_box_model,
                      plain_model)

# Car-model scalar subproblem: largest h with h - 0.2*sqrt(1 - h^2) <= 0.5.
# Value frozen from a plain-bisection solve of the inequality; it also
# satisfies 1.04 h^2 - h + 0.21 = 0 (the squared form's larger root).
CAR_BACKWARD_ROOT = 0.6516960464868382


def empty_box_model():
    """Upper bound below the floor on 0.4 < s < 0.6: the backward pass
    fails there."""
    def bu(s):
        return -1.0 if 0.4 < s < 0.6 else 100.0

    return DynamicsModel(fplus=lambda s, h: 2.0, fminus=lambda s, h: -2.0,
                         bu=bu, bl=lambda s: 0.0, slope_cap=2.0)


def car_model():
    return build_model(PathSpec("arc", v_max=10.0, f_fr=1.0, radius=1.0,
                                angle=2 * math.pi))


def two_point_solve(model, s0, s1, endpoints):
    """Solve on the grid [s0, s1]: backward[0] is one backward step from
    the end seed, forward[1] one forward step from the start seed."""
    return solve(Discretization(np.array([s0, s1])), model, endpoints=endpoints)


class TestBackwardStep:
    """Single generic backward steps, as solves of callable-only models."""

    def test_linear_closed_form(self, line_model):
        report = two_point_solve(plain_model(line_model), 0.5, 1.0, (None, 0.0))
        assert report.backward.tolist() == [1.0, 0.0]

    def test_upper_bound_binds_when_target_is_slack(self, line_model):
        # h_next beyond bu + cap*ds: the ceiling is the answer
        model = replace(plain_model(line_model),
                        bu=lambda s: 100.0 if s < 1.0 else 300.0)
        report = two_point_solve(model, 0.5, 1.0, (None, 200.0))
        assert report.backward.tolist() == [100.0, 200.0]

    def test_car_model_root(self):
        model = plain_model(car_model())
        ds = 0.4 - 0.3  # 0.1 plus an ulp, as the solver sees it
        h = two_point_solve(model, 0.3, 0.4, (None, 0.5)).backward[0]
        assert h == pytest.approx(CAR_BACKWARD_ROOT, abs=1e-15)
        # the search stops at adjacent floats: h holds, the next float fails
        assert h + model.fminus(0.3, h) * ds <= 0.5
        up = math.nextafter(h, math.inf)
        assert up + model.fminus(0.3, up) * ds > 0.5

    @given(st.floats(0.0, 1.0), st.floats(1e-6, 0.5), st.floats(0.0, 1.0),
           st.floats(0.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_stops_at_adjacent_floats(self, s0, ds, h_end, xi):
        # below the ceiling, the step is the largest float that holds
        model = plain_model(relax(car_model(), xi))
        h = two_point_solve(model, s0, s0 + ds, (None, h_end)).backward[0]
        ds = (s0 + ds) - s0
        assert h + model.fminus(s0, h) * ds <= h_end
        if h < model.bu(s0):
            up = math.nextafter(h, math.inf)
            assert up + model.fminus(s0, up) * ds > h_end

    def test_empty_box_is_infeasible(self):
        model = DynamicsModel(fplus=lambda s, h: 1.0, fminus=lambda s, h: -1.0,
                              bu=lambda s: -1.0 if s < 0.05 else 10.0,
                              bl=lambda s: 0.0, slope_cap=1.0)
        with pytest.raises(InfeasibleError) as err:
            two_point_solve(model, 0.0, 0.1, (None, 1.0))
        assert (err.value.index, err.value.pass_name) == (0, "backward")

    @pytest.mark.parametrize("model, s, endpoints, expected", [
        # upper bound below the floor at s = 0
        (DynamicsModel(fplus=lambda s, h: 1.0, fminus=lambda s, h: -1.0,
                       bu=lambda s: -1.0 if s < 0.05 else 10.0,
                       bl=lambda s: 0.0, slope_cap=1.0),
         (0.0, 0.1), (None, 1.0), (0, "backward")),
        # floor 5, target 0, |slope| <= 1: even h = 5 cannot brake to 0
        (DynamicsModel(fplus=lambda s, h: 1.0, fminus=lambda s, h: -1.0,
                       bu=lambda s: 10.0,
                       bl=lambda s: 5.0 if s < 0.05 else 0.0, slope_cap=1.0),
         (0.0, 0.1), (None, 0.0), (0, "backward")),
        # the cap allows hi = 0.1, but braking at -0.5 from the floor 0.06
        # still ends above 0: both bracket ends fail
        (DynamicsModel(fplus=lambda s, h: 0.5, fminus=lambda s, h: -0.5,
                       bu=lambda s: 10.0,
                       bl=lambda s: 0.06 if s < 0.05 else 0.0, slope_cap=1.0),
         (0.0, 0.1), (None, 0.0), (0, "backward")),
        (constant_box_model(1.0), (0.0, 0.1), (0.0, None), (0, "forward")),
        # reach 1 from the start, floor 5 at the next point
        (DynamicsModel(fplus=lambda s, h: 0.0, fminus=lambda s, h: 0.0,
                       bu=lambda s: 10.0,
                       bl=lambda s: 5.0 if s > 0.25 else 0.0, slope_cap=1.0),
         (0.2, 0.3), (1.0, None), (1, "forward")),
    ], ids=["empty-box", "unreachable-target", "floor-above-braking-reach",
            "start-below-floor", "reach-below-floor"])
    def test_unreachable_target_is_infeasible(self, model, s, endpoints,
                                              expected):
        # the solver and the oracle name the same, expected index and pass
        with pytest.raises(InfeasibleError) as got:
            two_point_solve(model, *s, endpoints)
        assert (got.value.index, got.value.pass_name) == expected
        with pytest.raises(InfeasibleError) as err:
            dp_optimum(Discretization(np.array(s)), model, endpoints=endpoints)
        i = err.value.index
        assert (got.value.index, got.value.s, got.value.pass_name) == (
            i, err.value.s, err.value.pass_name)
        for e in (got, err):
            assert str(e.value).endswith(f"at index {i} at s={s[i]!r}")

    def test_dip_between_failing_bracket_ends(self):
        # fminus is convex on [bl, bu] = [0, 1] and within the cap, but the
        # floor cuts the bracket, so the step must find the dip between
        # two failing ends. First g(0) = 5 and g(1) = 6, and g < 0 near
        # h = 0.82, at the first golden-section probe. Then g(0) = 79.5 and
        # g(1) = 0.5, and g < 0 only on (0.82, 0.97), right of both first
        # probes, so the search must move its left end up to find it.
        for fminus, cap in ((lambda s, h: 40.0 * (h - 0.5) ** 2 - 5.0, 10.0),
                            (lambda s, h: 100.0 * (h - 0.9) ** 2 - 1.5, 80.0)):
            model = DynamicsModel(fplus=lambda s, h: cap, fminus=fminus,
                                  bu=lambda s: 1.0, bl=lambda s: 0.0,
                                  slope_cap=cap)
            report = two_point_solve(model, 0.0, 1.0, (None, 0.0))
            h = report.backward[0]
            assert h + model.fminus(0.0, h) <= 0.0
            up = math.nextafter(h, math.inf)
            assert up + model.fminus(0.0, up) > 0.0
            oracle = dp_optimum(Discretization(np.array([0.0, 1.0])), model,
                                endpoints=(None, 0.0))
            assert oracle.values[0] == pytest.approx(h, abs=1e-12)


class TestForwardStep:
    """Single forward steps, as solves of callable-only models."""

    def test_reaches_cap_exactly(self, line_model):
        report = two_point_solve(plain_model(line_model), 0.0, 0.5, (0.0, 1.0))
        assert report.forward.tolist() == [0.0, 1.0]

    def test_cap_at_current_value(self, line_model):
        report = two_point_solve(plain_model(line_model), 0.0, 0.5, (0.7, 0.7))
        assert report.forward.tolist() == [0.7, 0.7]

    def test_car_model_reach(self):
        model = car_model()
        for m in (model, plain_model(model)):
            report = two_point_solve(m, 0.3, 0.4, (0.8, None))
            assert report.backward[1] == 1.0
            assert report.forward[1] == pytest.approx(0.92, abs=1e-12)

    def test_floor_violation_is_infeasible(self):
        model = DynamicsModel(fplus=lambda s, h: 0.0, fminus=lambda s, h: 0.0,
                              bu=lambda s: 10.0,
                              bl=lambda s: 5.0 if s > 0.25 else 0.0,
                              slope_cap=1.0)
        with pytest.raises(InfeasibleError) as err:
            two_point_solve(model, 0.2, 0.3, (1.0, None))
        assert (err.value.index, err.value.pass_name) == (1, "forward")


class TestSolve:
    def test_line_three_points(self, line_path, line_model, grid3):
        report = solve(grid3, line_model, endpoints=line_path.endpoints)
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
            assert np.max(np.abs(report.forward - 1.0)) == 0.0

    def test_empty_box_reports_failing_index(self, line_path):
        grid = Discretization.uniform(0.0, 1.0, 5)
        with pytest.raises(InfeasibleError, match="index 2 at s=0.5$") as e:
            solve(grid, empty_box_model())
        assert (e.value.index, e.value.s, e.value.pass_name) == (2, 0.5, "backward")

    @pytest.mark.parametrize("kappa, index", [
        (lambda s: np.full(np.shape(s), -1.0), 5),
        (lambda s: np.where(np.asarray(s) > 0.5, -1.0, 0.0), 5),
        (lambda s: np.where(np.isclose(s, 0.4), math.nan, 0.0), 2),
        (lambda s: np.where(np.isclose(s, 1.0), math.nan, 0.0), 5),
    ], ids=["negative", "negative-right-half", "nan-at-0.4", "nan-at-1.0"])
    def test_infeasible_circle_raises_where_the_oracle_does(self, kappa, index):
        # a negative or NaN ceiling: both sweeps and both oracle searches
        # stop at one index and pass
        grid = Discretization.uniform(0.0, 1.0, 6)
        circle = FrictionCircle(1.0, 4.0, kappa)
        for model in (circle, plain_model(circle)):
            for call in (solve, dp_optimum):
                with pytest.raises(InfeasibleError) as err:
                    call(grid, model)
                assert (err.value.index, err.value.s, err.value.pass_name) == (
                    index, grid.points[index], "backward")

    def test_forward_never_exceeds_backward(self):
        for path in (line_instance(), wave_table_instance()):
            model = build_model(path)
            grid = path.grid(301)
            report = solve(grid, model, endpoints=path.endpoints)
            assert np.all(report.forward <= report.backward + 1e-12)

    def test_output_is_admissible_at_default_tol(self):
        for path in (line_instance(), circle_instance(),
                     wave_table_instance()):
            model = build_model(path)
            report = solve(path.grid(257), model, endpoints=path.endpoints)
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

    def test_report_json_shape(self, tmp_path, line_path, line_model, grid3):
        report = solve(grid3, line_model, endpoints=line_path.endpoints)
        d = report.to_json_dict()
        assert set(d) == {"status", "n", "traversal_time"}
        assert d["status"] == {"feasible": True, "index": None, "pass": None}
        assert d["n"] == 3
        assert d["traversal_time"] == report.traversal_time
        # the arrays stay on the report, out of the file
        assert report.backward == pytest.approx([2.0, 1.0, 0.0])
        # the file's size does not grow with n, beyond the digits of n
        path = circle_instance()
        size = {}
        for n in (101, 10001):
            f = tmp_path / f"report_{n}.json"
            solve(path.grid(n), build_model(path),
                  endpoints=path.endpoints).write_json(str(f))
            size[n] = len(f.read_bytes())
        assert size[10001] - size[101] == len("10001") - len("101")
        assert size[10001] < 1024

    def test_write_json_is_json_dump_of_dict(self, tmp_path):
        path = capped_arc_instance()
        report = solve(path.grid(10001), build_model(path),
                       endpoints=path.endpoints)
        expected = json.dumps(report.to_json_dict(), indent=2) + "\n"
        assert "NaN" not in expected
        f = tmp_path / "report.json"
        report.write_json(str(f))
        assert f.read_bytes() == expected.encode("utf-8")


class TestFrictionFastPath:
    def test_makes_no_callable_calls(self):
        path = wave_table_instance()
        model = build_model(path)
        grid = path.grid(501)
        for m in (model, relax(model, 0.5)):
            blind = blind_model(m)
            report = solve(grid, blind, endpoints=path.endpoints)
            assert np.array_equal(report.forward, solve(
                grid, m, endpoints=path.endpoints).forward)
            assert check_admissible(report.profile, blind)

    @pytest.mark.parametrize("path", [
        line_instance(), capped_arc_instance(), wave_table_instance(),
        PathSpec("table", 1.0, 1.0, table=((0.0, 5e-324), (1.0, 2e-310)))],
        ids=["line", "arc", "table", "subnormal_table"])
    def test_sampling_equals_scalar_callables(self, path):
        base = build_model(path)
        s = path.grid(1001).points
        sl = s.tolist()

        def same(arr, values):
            return np.array_equal(arr.view(np.int64),
                                  np.array(values).view(np.int64))

        for model in (base, relax(base, 0.05), relax(base, 1.0),
                      relax(relax(base, 0.3), 0.7)):
            kappa = model.kappa(s)
            h = np.linspace(0.0, 1.2, s.size) * model.ceiling(kappa)
            fminus, fplus = model.slopes(kappa, h)
            hl = h.tolist()
            assert same(kappa, [curvature(path, x) for x in sl])
            assert same(model.ceiling(kappa), [model.bu(x) for x in sl])
            assert same(np.zeros(s.size), [model.bl(x) for x in sl])
            assert same(fminus, [model.fminus(x, y) for x, y in zip(sl, hl)])
            assert same(fplus, [model.fplus(x, y) for x, y in zip(sl, hl)])

    @pytest.mark.parametrize("path", OVERFLOWING_ROOT.values(),
                             ids=OVERFLOWING_ROOT.keys())
    @pytest.mark.parametrize("n", [3, 11, 101])
    def test_overflowing_root_solves(self, path, n):
        # an unscaled root was inf, and the step walked down from the ceiling
        model, grid = build_model(path), path.grid(n)
        report = solve(grid, model, endpoints=path.endpoints)
        assert check_admissible(report.profile, model)
        generic = solve(grid, plain_model(model), endpoints=path.endpoints)
        bu_max = float(np.max(model.ceiling(model.kappa(grid.points))))
        assert np.max(np.abs(report.backward - generic.backward)) \
            <= 1e-12 * max(1.0, bu_max)

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
        assert relaxed.xi == 0.25
        grid = line_path.grid(101)
        base = solve(grid, model, endpoints=line_path.endpoints)
        wide = solve(grid, relaxed, endpoints=line_path.endpoints)
        # the line's window is constant, so the generic search lands on
        # the same floats as the closed form
        assert np.array_equal(wide.forward, solve(
            grid, plain_model(relaxed), endpoints=line_path.endpoints).forward)
        assert wide.traversal_time < base.traversal_time
        assert replace(model, xi=0.25) == relaxed
        assert replace(relaxed, xi=0.5) == relax(relaxed, 0.25)


def test_default_config_does_no_grid_work(line_path):
    blind = blind_model(plain_model(build_model(line_path)))
    assert default_config(line_path.grid(5), blind) is None


def test_public_names():
    assert len(set(toppkit.__all__)) == len(toppkit.__all__)
    for name in toppkit.__all__:
        assert getattr(toppkit, name) is not None
    for name in ("StepSolverConfig", "backward_step", "forward_step",
                 "write_xi_csv", "SolveStatus"):
        assert not hasattr(toppkit, name)
        assert not hasattr(toppkit.solver, name)
    # the benchmark's traced pass imports it
    assert "default_config" in toppkit.__all__
