import math
import re

import numpy as np
import pytest

from toppkit import (PathSpec, UnsupportedInstanceError, analytic_optimum,
                     analytic_time, build_model, capped_line_instance,
                     check_admissible, circle_instance, curvature,
                     line_instance, profile_error, solve, traversal_time)
from toppkit.core import FrictionCircle


class TestPathSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathSpec("line", v_max=1.0, f_fr=1.0)  # missing length
        with pytest.raises(ValueError):
            PathSpec("line", v_max=-1.0, f_fr=1.0, length=1.0)
        with pytest.raises(ValueError):
            PathSpec("arc", v_max=1.0, f_fr=1.0, radius=1.0)  # missing angle
        with pytest.raises(ValueError):
            PathSpec("table", v_max=1.0, f_fr=1.0,
                     table=((0.0, 0.5), (0.0, 0.7)))  # not increasing
        with pytest.raises(ValueError):
            PathSpec("table", v_max=1.0, f_fr=1.0,
                     table=((0.0, 0.5), (1.0, -0.2)))  # negative curvature
        with pytest.raises(ValueError):
            PathSpec("helix", v_max=1.0, f_fr=1.0)
        with pytest.raises(ValueError):
            PathSpec("line", v_max=1.0, f_fr=1.0, length=1.0,
                     endpoints=(-0.5, 0.0))
        # non-finite values, which JSON's NaN and Infinity tokens can carry
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                PathSpec("line", v_max=bad, f_fr=1.0, length=1.0)
            with pytest.raises(ValueError):
                PathSpec("line", v_max=1.0, f_fr=bad, length=1.0)
            with pytest.raises(ValueError):
                PathSpec("line", v_max=1.0, f_fr=1.0, length=bad)
            with pytest.raises(ValueError):
                PathSpec("arc", v_max=1.0, f_fr=1.0, radius=bad, angle=1.0)
            with pytest.raises(ValueError):
                PathSpec("arc", v_max=1.0, f_fr=1.0, radius=1.0, angle=bad)
            with pytest.raises(ValueError):
                PathSpec("table", v_max=1.0, f_fr=1.0,
                         table=((0.0, 0.5), (1.0, bad)))
            with pytest.raises(ValueError):
                PathSpec("table", v_max=1.0, f_fr=1.0,
                         table=((0.0, 0.5), (bad, 0.7)))
            with pytest.raises(ValueError):
                PathSpec("line", v_max=1.0, f_fr=1.0, length=1.0,
                         endpoints=(bad, 0.0))
            with pytest.raises(ValueError):
                PathSpec("line", v_max=1.0, f_fr=1.0, length=1.0,
                         endpoints=(None, bad))

    @pytest.mark.parametrize("field, kwargs", [
        ("table", dict(kind="table", table=5)),
        ("v_max", dict(kind="line", v_max=None, length=1.0)),
        ("table", dict(kind="table", table=((0.0, 0.0), (1, None)))),
        ("v_max", dict(kind="line", v_max=True, length=1.0)),
        ("length", dict(kind="line", length="1")),
    ], ids=["int_table", "none_v_max", "none_in_row", "bool_v_max", "str_length"])
    def test_wrongly_typed_field_named(self, field, kwargs):
        with pytest.raises(ValueError, match=f"field '{field}'"):
            PathSpec(**{"v_max": 1.0, "f_fr": 1.0, **kwargs})

    def test_v_max_must_square_to_a_positive_number(self):
        # 1e-170**2 underflows to 0: a zero ceiling, so every solve stalls
        with pytest.raises(ValueError, match="field 'v_max'"):
            PathSpec("line", v_max=1e-170, f_fr=1.0, length=1.0)
        assert PathSpec("line", 1e-150, 1.0, length=1.0).v_max ** 2 > 0.0

    @pytest.mark.parametrize("kind, fields", [
        ("arc", dict(radius=4.688751539019205e+38, angle=4.06692835004719e+31)),
        ("table", dict(table=((0.0, 1.0), (1.0, 2.0))))], ids=["arc", "table"])
    def test_curved_path_needs_f_fr_squared_normal(self, kind, fields):
        # f_fr**2 is subnormal, so f_fr**2 - (kappa*h)**2 stays 0 while the
        # backward sweep steps h down one float at a time: a 12-point solve
        # of this arc did not finish in 3 s
        with pytest.raises(ValueError, match="field 'f_fr' must square"):
            PathSpec(kind, 1.450323692315205e+123, 4.812417074289579e-160,
                     endpoints=(None, 0.0), **fields)
        with pytest.raises(ValueError, match="field 'f_fr' must square"):
            PathSpec(kind, 1.0, 1.49e-154, **fields)
        assert PathSpec(kind, 1.0, 1.5e-154, **fields).f_fr == 1.5e-154
        # a line's sweeps cancel nothing: kappa is 0
        assert PathSpec("line", 1.0, 5e-323, length=1.0).f_fr == 5e-323

    def test_table_needs_two_rows(self):
        with pytest.raises(ValueError, match="needs at least two samples"):
            PathSpec("table", 1.0, 1.0, table=((0.0, 1.0),))

    def test_table_curvature_slope_must_be_finite(self):
        # np.interp's slope 1e150 / 1e-200 overflows: the solve read NaN
        with pytest.raises(ValueError, match="'table' curvature slope"):
            PathSpec("table", 1.0, 1.0, table=((0.0, 0.0), (1e-200, 1e150)))
        path = PathSpec("table", 1.0, 1.0, table=((0.0, 0.0), (1e-150, 1e150)))
        assert solve(path.grid(11), build_model(path)).profile is not None

    @pytest.mark.parametrize("kind, fields, endpoints, accepted", [
        # 2 * span overflows, though each field is finite: at n = 2 the
        # sweeps' 2 * ds is inf, and inf * 0 made the 1e308 line's h NaN
        ("line", dict(length=1e308), (0.0, 0.0), False),
        ("arc", dict(radius=1e308, angle=10.0), None, False),
        ("arc", dict(radius=1e307, angle=10.0), None, False),
        ("table", dict(table=((-1e308, 0.0), (1e308, 1.0))), None, False),
        ("table", dict(table=((-1e307, 0.0), (1e307, 0.0))), None, True),
        # the span underflows to 0
        ("arc", dict(radius=1e-200, angle=1e-200), None, False),
        # kappa * max(2 * span, top) overflows squared
        ("arc", dict(v_max=1e150, f_fr=1e300, radius=1.0, angle=1.0), (0.0, 0.0), False),
        ("arc", dict(v_max=1e80, f_fr=1e160, radius=1.0, angle=1.0), (0.0, 0.0), False),
        ("arc", dict(radius=1e-100, angle=1e200), (0.0, 0.0), False),
        ("table", dict(table=((0.0, 1e300), (1.0, 1e300))), (0.0, 0.0), False),
        ("table", dict(table=((0.0, 1e154), (1.0, 1e154))), (0.0, 0.0), False),
        ("table", dict(table=((0.0, 1e153), (1.0, 1e153))), (0.0, 0.0), True),
        # top is f_fr / min kappa = 2, not v_max**2 = 1e200
        ("table", dict(v_max=1e100, table=((0.0, 0.5), (1.0, 2.0))), (0.0, 0.0), True),
    ], ids=["line_length_doubled_overflows", "arc_length_overflows",
            "arc_length_doubled_overflows", "table_span_overflows", "table_span_2e307",
            "arc_length_underflows", "arc_ceiling_squared_overflows",
            "arc_ceiling_squared_overflows_smaller", "arc_step_squared_overflows",
            "table_curvature_1e300", "table_curvature_1e154", "table_curvature_1e153",
            "table_friction_ceiling_binds"])
    def test_range_rule(self, kind, fields, endpoints, accepted):
        """One rule for every kind: 2 * span is positive and finite, and
        kappa * max(2 * span, top) squares to a finite float, top being
        the highest ceiling on the path."""
        spec = {"kind": kind, "v_max": 1.0, "f_fr": 1.0, "endpoints": endpoints, **fields}
        if not accepted:
            names = {"line": "'length'", "arc": "'radius' * 'angle'", "table": "'table'"}
            with pytest.raises(ValueError, match=re.escape(f"{names[kind]} out of range")):
                PathSpec(**spec)
            return
        path = PathSpec(**spec)
        model, grid = build_model(path), path.grid(1001)
        report = solve(grid, model, endpoints=path.endpoints)
        assert check_admissible(report.profile, model)

    @pytest.mark.parametrize("v_max, f_fr, radius, angle", [
        (1.0, 1e300, 1.0, 1.0), (1.0, 1.0, 1e-160, 3.0),
        (1e100, 1e200, 1e50, 1.0),
    ], ids=["huge_f_fr", "tight_radius", "huge_radius"])
    def test_extreme_arcs_still_solve(self, v_max, f_fr, radius, angle):
        path = PathSpec("arc", v_max, f_fr, radius=radius, angle=angle,
                        endpoints=(0.0, 0.0))
        model, grid = build_model(path), path.grid(101)
        report = solve(grid, model, endpoints=path.endpoints)
        assert check_admissible(report.profile, model)

    def test_domains(self):
        assert PathSpec("line", 1.0, 1.0, length=2.5).domain == (0.0, 2.5)
        arc = PathSpec("arc", 1.0, 1.0, radius=2.0, angle=math.pi)
        assert arc.domain == (0.0, 2.0 * math.pi)
        tab = PathSpec("table", 1.0, 1.0, table=((0.5, 0.1), (2.0, 0.3)))
        assert tab.domain == (0.5, 2.0)

    def test_json_round_trip(self):
        specs = [
            PathSpec("line", 10.0, 1.0, length=1.0, endpoints=(0.0, 0.0)),
            PathSpec("arc", 2.0, 0.5, radius=3.0, angle=1.5),
            PathSpec("table", 1.0, 1.0, table=((0.0, 0.0), (1.0, 1.0)),
                     endpoints=(0.25, None)),
        ]
        for spec in specs:
            again = PathSpec.from_json_dict(spec.to_json_dict())
            assert again == spec

    @pytest.mark.parametrize("extra, key", [
        ({"endpoint": {"start_h": 0, "end_h": 0}}, "'endpoint'"),
        ({"endpoints": {"start": 0, "end": 0}}, "'endpoints.start'"),
        ({"radius": 1.0}, "'radius'"),
    ], ids=["endpoint", "endpoints_start", "other_kinds_field"])
    def test_json_unknown_key_named(self, extra, key):
        # a misspelled key used to be dropped: a free-end solve of the line
        with pytest.raises(ValueError, match=f"unknown key {key}"):
            PathSpec.from_json_dict({"kind": "line", "v_max": 10.0, "f_fr": 1.0,
                                     "length": 1.0, **extra})

    def test_json_missing_fields(self):
        with pytest.raises(ValueError, match="v_max"):
            PathSpec.from_json_dict({"kind": "line", "f_fr": 1.0,
                                     "length": 1.0})
        with pytest.raises(ValueError, match="length"):
            PathSpec.from_json_dict({"kind": "line", "f_fr": 1.0,
                                     "v_max": 1.0})


class TestCurvature:
    def test_line_is_flat(self):
        path = PathSpec("line", 1.0, 1.0, length=1.0)
        assert curvature(path, 0.0) == 0.0
        assert curvature(path, 0.77) == 0.0

    def test_arc_is_constant(self):
        path = PathSpec("arc", 1.0, 1.0, radius=2.0, angle=1.0)
        assert curvature(path, 0.3) == pytest.approx(0.5)

    def test_table_interpolates_linearly(self):
        path = PathSpec("table", 1.0, 1.0, table=((0.0, 0.0), (1.0, 1.0)))
        assert curvature(path, 0.25) == pytest.approx(0.25)

    def test_outside_domain_rejected(self):
        path = PathSpec("line", 1.0, 1.0, length=1.0)
        with pytest.raises(ValueError):
            curvature(path, 1.5)
        with pytest.raises(ValueError):
            curvature(path, -0.1)


class TestBuildModel:
    def test_is_the_friction_circle_itself(self):
        path = circle_instance()
        model = build_model(path)
        assert type(model) is FrictionCircle
        assert model == FrictionCircle(path.f_fr, path.v_max ** 2,
                                       model.kappa)

    def test_line_constants(self):
        model = build_model(PathSpec("line", 10.0, 1.0, length=1.0))
        assert model.fplus(0.4, 3.0) == pytest.approx(2.0)
        assert model.fminus(0.4, 3.0) == pytest.approx(-2.0)
        assert model.bu(0.4) == pytest.approx(100.0)
        assert model.bl(0.4) == 0.0
        assert model.slope_cap == pytest.approx(2.0)

    def test_unit_arc_ceiling_and_flat_window(self):
        model = build_model(PathSpec("arc", 10.0, 1.0, radius=1.0, angle=1.0))
        assert model.bu(0.2) == pytest.approx(1.0)
        assert model.fplus(0.2, 1.0) == 0.0

    def test_window_value(self):
        model = build_model(PathSpec("arc", 10.0, 2.0, radius=1.0, angle=1.0))
        assert model.fplus(0.1, 1.0) == pytest.approx(2.0 * math.sqrt(3.0))
        assert model.fplus(0.1, 1.0) == pytest.approx(3.4641016151377544)

    def test_radicand_clamps_to_zero_above_ceiling(self):
        model = build_model(PathSpec("arc", 10.0, 1.0, radius=1.0, angle=1.0))
        assert model.fplus(0.0, 1.5) == 0.0
        assert model.fminus(0.0, 1.5) == 0.0

    def test_invariants_on_sampled_states(self):
        paths = [
            PathSpec("line", 3.0, 1.5, length=2.0),
            PathSpec("arc", 2.0, 1.0, radius=0.8, angle=2.0),
            PathSpec("table", 1.5, 1.0,
                     table=tuple((float(s), 0.5 + 0.4 * math.sin(3 * s))
                                 for s in np.linspace(0, 2, 21))),
        ]
        rng = np.random.default_rng(0)
        for path in paths:
            model = build_model(path)
            a, b = path.domain
            for _ in range(3333):
                s = float(rng.uniform(a, b))
                lo, hi = model.bl(s), model.bu(s)
                assert 0.0 <= lo <= hi
                h = float(rng.uniform(lo, hi))
                up, dn = model.fplus(s, h), model.fminus(s, h)
                assert up >= dn
                assert abs(up) <= model.slope_cap + 1e-12
                assert abs(dn) <= model.slope_cap + 1e-12

    def test_window_symmetry(self):
        model = build_model(PathSpec("arc", 5.0, 1.3, radius=1.1, angle=2.0))
        for h in np.linspace(0.0, 1.4, 17):
            assert model.fplus(0.5, float(h)) == -model.fminus(0.5, float(h))

    def test_concave_convex_in_h(self):
        # second difference of fplus non-positive, of fminus non-negative
        model = build_model(PathSpec("arc", 5.0, 1.0, radius=1.0, angle=2.0))
        cap = model.bu(0.0)
        d = 1e-4
        for h in np.linspace(d, 0.95 * cap, 200):
            h = float(h)
            up = model.fplus(0.0, h - d) + model.fplus(0.0, h + d) \
                - 2 * model.fplus(0.0, h)
            dn = model.fminus(0.0, h - d) + model.fminus(0.0, h + d) \
                - 2 * model.fminus(0.0, h)
            assert up <= 1e-9
            assert dn >= -1e-9


class TestAnalyticOptimum:
    def test_line_rest_to_rest_triangle(self):
        path = PathSpec("line", 10.0, 1.0, length=1.0, endpoints=(0.0, 0.0))
        grid = path.grid(5)
        profile = analytic_optimum(path, grid)
        assert profile.values == pytest.approx([0.0, 0.5, 1.0, 0.5, 0.0])
        assert profile.values[2] == pytest.approx(1.0)
        assert analytic_time(path) == pytest.approx(2.0)

    def test_arc_free_constant(self):
        path = PathSpec("arc", 10.0, 1.0, radius=1.0, angle=2 * math.pi)
        profile = analytic_optimum(path, path.grid(9))
        assert np.all(profile.values == 1.0)
        assert analytic_time(path) == pytest.approx(2 * math.pi)

    def test_line_trapezoid_when_speed_cap_binds(self):
        path = PathSpec("line", 0.5, 1.0, length=1.0, endpoints=(0.0, 0.0))
        grid = path.grid(1001)
        profile = analytic_optimum(path, grid)
        assert float(profile.values.max()) == pytest.approx(0.25)
        # closed-form time: accelerate, cruise, brake
        assert analytic_time(path) == pytest.approx(2.5)
        # cross-check against the solver and the segment integral
        report = solve(grid, build_model(path), endpoints=path.endpoints)
        assert profile_error(report.profile, profile) < 1e-9
        assert traversal_time(profile) == pytest.approx(2.5, abs=1e-6)

    def test_unsupported_combinations_raise(self):
        arc_r2r = PathSpec("arc", 1.0, 1.0, radius=1.0, angle=1.0,
                           endpoints=(0.0, 0.0))
        with pytest.raises(UnsupportedInstanceError):
            analytic_optimum(arc_r2r, arc_r2r.grid(5))
        with pytest.raises(UnsupportedInstanceError):
            analytic_time(arc_r2r)
        for path in (PathSpec("table", 1.0, 1.0, table=((0.0, 0.1), (1.0, 0.2))),
                     PathSpec("line", 1.0, 1.0, length=1.0, endpoints=(0.0, None))):
            with pytest.raises(UnsupportedInstanceError):
                analytic_optimum(path, path.grid(5))
            with pytest.raises(UnsupportedInstanceError):
                analytic_time(path)

    def test_profiles_admissible_at_slope_slack(self):
        for path in (
            PathSpec("line", 10.0, 1.0, length=1.0, endpoints=(0.0, 0.0)),
            PathSpec("line", 0.5, 1.0, length=1.0, endpoints=(0.0, 0.0)),
            PathSpec("arc", 10.0, 1.0, radius=1.0, angle=2 * math.pi),
            PathSpec("line", 2.0, 1.0, length=3.0),
        ):
            model = build_model(path)
            grid = path.grid(33)
            profile = analytic_optimum(path, grid)
            assert check_admissible(profile, model,
                                    tol=model.slope_cap * grid.delta)
        # free line: the speed cap binds everywhere
        report = solve(grid, model, endpoints=path.endpoints)
        assert np.all(report.profile.values == path.v_max ** 2)
        assert np.array_equal(profile.values, report.profile.values)
        assert analytic_time(path) == path.length / path.v_max == 1.5


class TestClosedFormFloats:
    """analytic_optimum and analytic_time give exactly the floats of these
    expressions, written out case by case."""

    @pytest.mark.parametrize("path, triangle", [
        (line_instance(), True), (capped_line_instance(), False),
    ], ids=["triangle", "trapezoid"])
    def test_line_rest_to_rest(self, path, triangle):
        grid = path.grid(1001)
        s, S, f, v = grid.points, path.length, path.f_fr, path.v_max
        h = np.minimum(np.minimum(2.0 * f * s, 2.0 * f * (S - s)), v ** 2)
        assert np.array_equal(analytic_optimum(path, grid).values, h)
        assert (v * v >= f * S) is triangle
        expected = 2.0 * math.sqrt(S / f) if triangle else S / v + v / f
        assert analytic_time(path) == expected

    @pytest.mark.parametrize("endpoints", [None, (None, None)])
    def test_free_line(self, endpoints):
        path = PathSpec("line", 0.1, 1.0, length=3.0, endpoints=endpoints)
        grid = path.grid(17)
        assert np.array_equal(analytic_optimum(path, grid).values,
                              np.full(17, 0.1 ** 2))
        assert analytic_time(path) == 3.0 / 0.1

    @pytest.mark.parametrize("path, cap", [
        (circle_instance(), 1.0 * 1.0),  # f_fr * radius binds
        (PathSpec("arc", 0.3, 1.0, radius=0.7, angle=2.9), 0.3 ** 2),
    ], ids=["friction_binds", "speed_binds"])
    def test_free_arc(self, path, cap):
        assert cap == min(path.v_max ** 2, path.f_fr * path.radius)
        grid = path.grid(33)
        assert np.array_equal(analytic_optimum(path, grid).values,
                              np.full(33, cap))
        assert analytic_time(path) == path.radius * path.angle / math.sqrt(cap)
