import collections
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toppkit import (Discretization, InfeasibleError, PathSpec,
                     agreement_tolerance, analytic_optimum, build_model,
                     bundled_instances, capped_arc_instance, check_admissible,
                     circle_instance, default_tol, dp_optimum, lattice_spacing,
                     line_instance, profile_error, random_table_instance,
                     relax, solve, wave_table_instance)
from toppkit.core import FrictionCircle
from toppkit.oracle import _lattice_down

import conftest
from conftest import (LONG, WIDE, blind_model, constant_box_model, failed_check,
                      plain_model, random_admissible, tightened_path)

INSTANCES = {**{f"table_{k}": (random_table_instance(k), 200)
                for k in range(32)},
             **{name: (path, 201) for name, path in bundled_instances().items()}}

# A few instances for the wider bitwise checks of the inline search.
FEW = {"table_0": random_table_instance(0), "table_1": random_table_instance(1),
       "wave_table": wave_table_instance(), "capped_arc": capped_arc_instance()}

# Each end free, at rest, or at a positive squared speed.
END_VALUES = (None, 0.0, 0.6)


def models_relaxed(path):
    """The path's model, relaxed once and relaxed twice."""
    base = build_model(path)
    return base, relax(base, 0.25), relax(relax(base, 0.3), 0.7)


def assert_inline_equals_callable(grid, model, endpoints, levels=(8, 512)):
    plain = plain_model(model)
    for lv in levels:
        got = dp_optimum(grid, model, lv, endpoints).values
        want = dp_optimum(grid, plain, lv, endpoints).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestDpOptimum:
    def test_line_matches_analytic_within_quantization(self):
        path = line_instance()
        model = build_model(path)
        grid = path.grid(101)
        profile = dp_optimum(grid, model, levels=512,
                             endpoints=path.endpoints)
        ref = analytic_optimum(path, grid)
        tol = lattice_spacing(grid, model, 512) + model.slope_cap * grid.delta
        assert profile_error(profile, ref) <= tol

    def test_circle_sits_on_ceiling_even_when_coarse(self):
        path = circle_instance()
        model = build_model(path)
        grid = path.grid(41)
        profile = dp_optimum(grid, model, levels=8, endpoints=path.endpoints)
        spacing = lattice_spacing(grid, model, 8)
        assert np.max(np.abs(profile.values - 1.0)) <= spacing

    def test_forced_constant_profile(self):
        model = constant_box_model(2.5)
        grid = Discretization.uniform(0.0, 1.0, 9)
        profile = dp_optimum(grid, model, levels=16)
        assert profile.values == pytest.approx(np.full(9, 2.5), abs=1e-12)

    def test_agreement_with_solver_on_instances(self):
        for path in (line_instance(), circle_instance(),
                     wave_table_instance()):
            model = build_model(path)
            grid = path.grid(120)
            report = solve(grid, model, endpoints=path.endpoints)
            profile = dp_optimum(grid, model, levels=512,
                                 endpoints=path.endpoints)
            err = profile_error(profile, report.profile)
            assert err <= agreement_tolerance(grid, model, 512)

    @pytest.mark.parametrize("name", sorted(bundled_instances()))
    def test_agreement_tolerance_is_two_spacings_and_two_reaches(self, name):
        # 2 max(bu) / (levels - 1) + 2 slope_cap delta, from the scalar
        # ceiling and the grid's gaps: a looser band would pass more
        path = bundled_instances()[name]
        model, grid = build_model(path), path.grid(201)
        s = grid.points.tolist()
        bu_max = max(model.bu(x) for x in s)
        delta = max(b - a for a, b in zip(s, s[1:]))
        for levels in (8, 512):
            assert agreement_tolerance(grid, model, levels) == pytest.approx(
                2.0 * bu_max / (levels - 1) + 2.0 * model.slope_cap * delta,
                rel=1e-12, abs=0.0)

    def test_agreement_tolerance_that_overflows_raises(self):
        # 2 * slope_cap * delta = 2 * 1.6e308 * 5: an infinite band would
        # accept any disagreement
        path = PathSpec("line", v_max=1.0, f_fr=8e307, length=10.0)
        grid, model = path.grid(3), build_model(path)
        for levels in (8, 512):
            with pytest.raises(ValueError, match=r"^agreement tolerance 2\*spacing "
                               r"\+ 2\*slope_cap\*delta = [0-9.e-]+ \+ inf is not finite$"):
                agreement_tolerance(grid, model, levels)

    def test_refining_levels_does_not_regress(self):
        path = wave_table_instance()
        model = build_model(path)
        grid = path.grid(80)
        base = solve(grid, model, endpoints=path.endpoints).profile
        for levels in (64, 128, 256, 512):
            coarse = profile_error(dp_optimum(grid, model, levels,
                                              endpoints=path.endpoints), base)
            finer = profile_error(dp_optimum(grid, model, 2 * levels,
                                             endpoints=path.endpoints), base)
            assert finer <= coarse + lattice_spacing(grid, model, levels)

    def test_empty_candidate_set_raises(self):
        from toppkit import DynamicsModel

        def bu(s):
            return -1.0 if s > 0.7 else 4.0

        model = DynamicsModel(fplus=lambda s, h: 1.0,
                              fminus=lambda s, h: -1.0, bu=bu,
                              bl=lambda s: 0.0, slope_cap=1.0)
        grid = Discretization.uniform(0.0, 1.0, 11)
        with pytest.raises(InfeasibleError) as err:
            dp_optimum(grid, model, levels=32)
        assert err.value.pass_name == "backward"
        assert err.value.index == 10
        assert str(err.value) == "empty candidate set at index 10 at s=1.0"

    def test_levels_floor(self):
        path = line_instance()
        grid = path.grid(5)
        with pytest.raises(ValueError):
            dp_optimum(grid, build_model(path), levels=7)
        with pytest.raises(ValueError):
            lattice_spacing(grid, build_model(path), 4)

    @pytest.mark.parametrize("levels", [8.5, 512.0, "512"])
    def test_levels_must_be_an_integer(self, levels):
        path = line_instance()
        grid, model = path.grid(5), build_model(path)
        for call in (lambda: dp_optimum(grid, model, levels),
                     lambda: lattice_spacing(grid, model, levels),
                     lambda: agreement_tolerance(grid, model, levels)):
            with pytest.raises(TypeError):
                call()

    def test_numpy_integer_levels(self):
        path = wave_table_instance()
        grid, model = path.grid(51), build_model(path)
        for levels in (8, 512):
            assert np.array_equal(
                dp_optimum(grid, model, np.int64(levels), path.endpoints).values,
                dp_optimum(grid, model, levels, path.endpoints).values)
            assert lattice_spacing(grid, model, np.int64(levels)) == \
                lattice_spacing(grid, model, levels)

    @pytest.mark.parametrize("endpoints", [
        (float("nan"), None), (None, float("nan")), (-1.0, None), (None, -1.0),
        (-0.5, 0.0)])
    def test_bad_endpoint_rejected(self, endpoints):
        path = line_instance()
        grid, model = path.grid(21), build_model(path)
        for call in (dp_optimum, solve):
            with pytest.raises(ValueError, match="must be non-negative"):
                call(grid, model, endpoints=endpoints)

    def test_infinite_endpoint_is_a_free_end(self):
        path = wave_table_instance()
        grid, model = path.grid(101), build_model(path)
        inf = float("inf")
        for ends in ((inf, None), (None, inf), (inf, inf)):
            assert np.array_equal(dp_optimum(grid, model, endpoints=ends).values,
                                  dp_optimum(grid, model).values)
            assert np.array_equal(solve(grid, model, endpoints=ends).forward,
                                  solve(grid, model).forward)


class TestSampledBounds:
    """A friction-circle model is sampled once per grid and stepped in
    scalar floats; its callables, through ``plain_model``, are the
    reference, and the two must agree bit for bit, relaxed or not."""

    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_equals_the_callable_path(self, name):
        path, n = INSTANCES[name]
        grid = path.grid(n)
        base = build_model(path)
        for model in (base, relax(base, 0.25),
                      relax(relax(base, 0.3), 0.7)):
            plain = plain_model(model)
            for levels in (8, 512):
                assert np.array_equal(
                    dp_optimum(grid, model, levels, path.endpoints).values,
                    dp_optimum(grid, plain, levels, path.endpoints).values)
                assert lattice_spacing(grid, model, levels) == \
                    lattice_spacing(grid, plain, levels)
                assert agreement_tolerance(grid, model, levels) == \
                    agreement_tolerance(grid, plain, levels)

    @pytest.mark.parametrize("name", list(FEW))
    @pytest.mark.parametrize("start", END_VALUES)
    @pytest.mark.parametrize("end", END_VALUES)
    def test_every_endpoint_choice(self, name, start, end):
        path = FEW[name]
        grid = path.grid(101)
        for model in models_relaxed(path):
            assert_inline_equals_callable(grid, model, (start, end))

    @pytest.mark.parametrize("name", list(FEW))
    @pytest.mark.parametrize("n", [2, 3, 1_001])
    def test_grid_sizes(self, name, n):
        path = FEW[name]
        grid = path.grid(n)
        for model in models_relaxed(path):
            assert_inline_equals_callable(grid, model, path.endpoints)

    @given(rows=st.lists(st.tuples(st.floats(0.01, 1.0), st.one_of(
               st.just(0.0), st.floats(0.0, 1e-300), st.floats(1e-3, 3.0))),
               min_size=2, max_size=6),
           v_max=st.floats(0.1, 3.0), f_fr=st.floats(0.1, 3.0),
           n=st.integers(2, 120), start=st.one_of(st.none(), st.floats(0.0, 8.0)),
           end=st.one_of(st.none(), st.floats(0.0, 8.0)))
    @settings(max_examples=60, deadline=None)
    def test_equal_on_drawn_tables(self, rows, v_max, f_fr, n, start, end):
        s = np.cumsum([gap for gap, _ in rows]).tolist()
        path = PathSpec("table", v_max, f_fr,
                        table=tuple(zip(s, (k for _, k in rows))))
        grid = path.grid(n)
        for model in models_relaxed(path):
            assert_inline_equals_callable(grid, model, (start, end))

    @pytest.mark.parametrize("v_max", [1e-161, 3e-161, 1e-155, 1e-150])
    def test_equal_on_subnormal_ceilings(self, v_max):
        """Lines whose ceilings are subnormal. Where the lattice step
        underflows (a ceiling below 511 * 5e-324), the inline scan's
        candidates below the ceiling are all 0 and the callable scan's are
        not, yet both searches end on the same adjacent floats."""
        for f_fr, xi, n, end in itertools.product(
                (5e-323, 3e-322, 1e-315, 1e-300), (0.0, 1e-322),
                (2, 3, 21, 201), (None, 0.0)):
            path = PathSpec("line", v_max, f_fr, length=1.0)
            model = relax(build_model(path), xi)
            assert_inline_equals_callable(path.grid(n), model, (None, end))

    def test_lattice_step_underflow(self):
        """A subnormal candidate range: the lattice step underflows to
        zero. The callable scan takes its other form and stops on adjacent
        floats, so its bisection, whose relative stop underflows to zero
        too, ends at its first midpoint, which rounds onto an end of the
        cell; the ceiling is the lattice point itself. The inline scan's
        candidates are all 0, and its bisection ends on the same float."""
        path = PathSpec("line", 1.0, 5e-323, length=1.0)
        model = relax(build_model(path), 1e-322)
        grid = path.grid(2)
        assert dp_optimum(grid, model, 512, (None, 0.0)).values[0] == 1e-322
        assert_inline_equals_callable(grid, model, (None, 0.0))

    @pytest.mark.parametrize("path", [wave_table_instance(),
                                      random_table_instance(1)],
                             ids=["wave_table", "table_1"])
    def test_no_call_per_evaluation(self, path):
        """A structural guard, free of timing: the search on a friction
        circle makes a bounded number of Python calls, not one or more
        per evaluation (tens of thousands at this size)."""
        n = 1_001
        grid, model = path.grid(n), build_model(path)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            dp_optimum(grid, model, endpoints=path.endpoints)
        finally:
            sys.setprofile(None)
        assert calls <= 4 * n

    @pytest.mark.parametrize("path", [wave_table_instance(),
                                      random_table_instance(1)],
                             ids=["wave_table", "table_1"])
    def test_bracket_answers_most_tests(self, path):
        """A structural guard, free of timing: the search's bracket answers
        most of its tests by comparison, so a point costs a few square
        roots (the top candidate, the hint, the bracket and the forward
        step), not one per bisection step (25-31 a point without it)."""
        n = 1_001
        grid, model = path.grid(n), build_model(path)
        roots = 0

        def count(frame, event, arg):
            nonlocal roots
            roots += event == "c_call" and arg is math.sqrt

        sys.setprofile(count)
        try:
            dp_optimum(grid, model, endpoints=path.endpoints)
        finally:
            sys.setprofile(None)
        assert 0 < roots <= 6 * n

    @given(kappa=st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(1e-3, 1e3)),
           f_fr=st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-3, 1e3)),
           xi=st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 10.0)),
           ds=st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-6, 10.0)),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_braking_test_is_monotone(self, kappa, f_fr, xi, ds, data):
        """The bracket rests on this: in floats, the braking test's left
        side x + fminus(x) ds (the floats the inline search writes out) is
        non-decreasing in x >= 0, also for subnormal values, near f/kappa
        (where the radicand reaches zero) and between adjacent floats."""
        fr = FrictionCircle(f_fr, 1.0, lambda s: kappa, xi)
        edge = f_fr / kappa if 0.0 < kappa and f_fr / kappa < 1e300 else 1.0
        xs = st.one_of(st.floats(0.0, 1e-300), st.floats(0.0, 4.0 * edge),
                       st.floats(edge * (1.0 - 1e-12), edge * (1.0 + 1e-12)))
        x1, x2 = sorted((data.draw(xs), data.draw(xs)))
        if data.draw(st.booleans()):
            x2 = math.nextafter(x1, math.inf)
        assert x1 + fr.fminus(0.0, x1) * ds <= x2 + fr.fminus(0.0, x2) * ds

    @pytest.mark.parametrize("path", [wave_table_instance(),
                                      random_table_instance(1)],
                             ids=["wave_table", "table_1"])
    def test_no_min_or_max_call_per_point(self, path):
        """A structural guard, free of timing: the scalar steps of the
        friction sweeps and of this search compare floats instead of
        calling the builtin min or max. The calls left are the two
        endpoint caps (these instances form no chain block, whose bounds
        call min and max once a block)."""
        n = 1_001
        grid, model = path.grid(n), build_model(path)
        for run in (solve, dp_optimum):
            sites = collections.Counter()

            def count(frame, event, arg):
                if event == "c_call" and (arg is min or arg is max):
                    sites[frame.f_code.co_name, frame.f_lineno] += 1

            sys.setprofile(count)
            try:
                run(grid, model, endpoints=path.endpoints)
            finally:
                sys.setprofile(None)
            assert sum(sites.values()) <= 2, (run.__name__, sites)

    def test_hi_tie_equals_the_callable_path(self):
        """A point where t + slope_cap ds equals bu[i]: min(bu[i], that)
        as a comparison keeps the callable search's float."""
        fr = FrictionCircle(1.0, 6.0, lambda s: np.full(np.shape(s), 1e-200))
        grid, ends = Discretization(np.array([0.0, 1.0])), (None, 4.0)
        assert 4.0 + fr.slope_cap * 1.0 == fr.ceiling(1e-200) == 6.0
        assert_inline_equals_callable(grid, fr, ends)

    def test_calls_no_callable(self):
        path = wave_table_instance()
        grid = path.grid(201)
        base = build_model(path)
        for model in (base, relax(base, 0.25)):
            blind = blind_model(model)
            assert np.array_equal(
                dp_optimum(grid, blind, endpoints=path.endpoints).values,
                dp_optimum(grid, model, endpoints=path.endpoints).values)
            assert agreement_tolerance(grid, blind, 512) == \
                agreement_tolerance(grid, model, 512)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
        # a few denormal ulps apart: the step underflows to zero
        st.tuples(st.integers(-300, 300), st.integers(-300, 300)).map(
            lambda m: (m[0] * 5e-324, m[1] * 5e-324)),
        st.floats(-1e300, 1e300).map(lambda x: (x, x))),
        st.integers(8, 1024))
    def test_lattice_is_numpys_linspace(self, ends, levels):
        lo, hi = sorted(ends)
        got = np.array(list(_lattice_down(lo, hi, levels)))
        want = np.ascontiguousarray(np.linspace(lo, hi, levels)[-2::-1])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestRandomAdmissible:
    def test_no_tightening_reproduces_the_solver(self):
        path = line_instance()
        grid = path.grid(51)
        same = tightened_path(path, 1.0, 1.0)
        assert same == path
        report = solve(grid, build_model(same), endpoints=path.endpoints)
        base = solve(grid, build_model(path), endpoints=path.endpoints)
        assert np.array_equal(report.forward, base.forward)

    def test_halved_acceleration_halves_the_triangle(self):
        path = line_instance()
        grid = path.grid(101)
        tight = tightened_path(path, 0.5, 1.0)
        profile = solve(grid, build_model(tight),
                        endpoints=path.endpoints).profile
        s = grid.points
        expected = np.minimum(s, 1.0 - s)
        assert profile.values == pytest.approx(expected, abs=1e-9)
        optimum = solve(grid, build_model(path),
                        endpoints=path.endpoints).profile
        assert np.all(profile.values <= optimum.values + 1e-12)

    def test_draws_are_admissible_and_reproducible(self):
        path = wave_table_instance()
        model = build_model(path)
        grid = path.grid(101)
        a = random_admissible(grid, path, 42)
        b = random_admissible(grid, path, 42)
        assert np.array_equal(a.values, b.values)
        assert check_admissible(a, model)

    def test_dominated_by_the_solver(self):
        path = circle_instance()
        model = build_model(path)
        grid = path.grid(64)
        optimum = solve(grid, model, endpoints=path.endpoints).profile
        tol = default_tol(model)
        for seed in range(5):
            y = random_admissible(grid, path, seed)
            assert np.all(optimum.values >= y.values - tol)

    def test_inadmissible_draw_raises(self, monkeypatch):
        monkeypatch.setattr(conftest, "check_admissible", failed_check)
        path = line_instance()
        with pytest.raises(RuntimeError, match="^tightened solve not admissible "
                                               "for the original limits: forced$"):
            random_admissible(path.grid(11), path, 0)

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            tightened_path(line_instance(), 0.0, 1.0)
        with pytest.raises(ValueError):
            tightened_path(line_instance(), 0.5, 1.5)


@st.composite
def built_paths(draw):
    """A line, arc or table spec with fields of wide magnitude, each end
    free, at rest or at a positive squared speed; only specs that
    PathSpec accepts are kept."""
    kind = draw(st.sampled_from(("line", "arc", "table")))
    fields = {key: draw(LONG if key in ("length", "radius") else WIDE) for key in
              ("v_max", "f_fr", *{"line": ("length",), "arc": ("radius", "angle"),
                                  "table": ()}[kind])}
    if kind == "table":
        rows = draw(st.lists(st.tuples(LONG, st.one_of(st.just(0.0), WIDE)),
                             min_size=2, max_size=5))
        s = itertools.accumulate(gap for gap, _ in rows)  # may overflow to inf
        fields["table"] = tuple(zip(s, (k for _, k in rows)))
    ends = st.one_of(st.none(), st.just(0.0), WIDE)
    endpoints = draw(st.one_of(st.none(), st.tuples(ends, ends)))
    try:
        return PathSpec(kind, endpoints=endpoints, **fields)
    except ValueError:
        assume(False)


@given(path=built_paths(),
       n=st.one_of(st.integers(2, 12), st.sampled_from((2, 101, 1001))))
@settings(max_examples=200, deadline=None)
def test_built_paths_are_never_infeasible(path, n):
    """A built path's floor is zero and its ceiling is not negative, so
    neither the solver nor the oracle can find an empty step: the reason
    the CLI has no infeasible exit. PathSpec's one range rule keeps every
    float the sweeps form finite, up to the largest fields."""
    try:
        grid = path.grid(n)
    except ValueError as err:  # n points do not fit in a span of a few floats
        assert str(err).startswith(f"uniform grid of n = {n} points on ")
        return
    model = build_model(path)
    solve(grid, model, endpoints=path.endpoints)
    dp_optimum(grid, model, levels=8, endpoints=path.endpoints)
