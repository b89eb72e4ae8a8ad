import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toppkit import (Discretization, InfeasibleError,
                     agreement_tolerance, analytic_optimum, build_model,
                     bundled_instances, check_admissible, circle_instance,
                     default_tol, dp_optimum, lattice_spacing, line_instance,
                     profile_error, random_admissible, random_table_instance,
                     relax, solve, tightened_path, wave_table_instance)
from toppkit.oracle import _lattice_down

from conftest import blind_model, constant_box_model, plain_model

INSTANCES = {**{f"table_{k}": (random_table_instance(k), 200)
                for k in range(32)},
             **{name: (path, 201) for name, path in bundled_instances().items()}}


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

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            tightened_path(line_instance(), 0.0, 1.0)
        with pytest.raises(ValueError):
            tightened_path(line_instance(), 0.5, 1.5)
