import io
import math
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toppkit import (Discretization, DynamicsModel, InfeasibleError, PathSpec,
                     SpeedProfile, build_model, capped_arc_instance,
                     check_admissible, default_tol, dp_optimum, line_instance,
                     profile_error, relax, solve, wave_table_instance)
from toppkit.core import (BLOCK_ROWS, AdmissibilityReport, FrictionCircle,
                          _bad_row, _box_bounds)

from conftest import blind_model, constant_box_model, plain_model


class TestDiscretization:
    def test_uniform_hits_endpoints_exactly(self):
        g = Discretization.uniform(0.0, 1.0, 7)
        assert g.points[0] == 0.0 and g.points[-1] == 1.0
        assert len(g) == 7
        assert g.delta == pytest.approx(1.0 / 6.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Discretization(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            Discretization(np.array([0.0, 0.7, 0.3]))

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            Discretization(np.array([0.0]))
        with pytest.raises(ValueError):
            Discretization.uniform(0.0, 1.0, 1)

    @pytest.mark.parametrize("a, b, n", [(0, 1, 1), (1, 0, 5), (0, 0, 5)])
    def test_uniform_names_n_and_the_span(self, a, b, n):
        # the constructor states each grid rule; uniform prefixes n and [a, b]
        with pytest.raises(ValueError) as err:
            Discretization.uniform(a, b, n)
        assert str(err.value).startswith(f"uniform grid of n = {n} points on [{a}, {b}]: ")

    def test_points_are_readonly(self):
        g = Discretization.uniform(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            g.points[0] = 5.0


class TestCheckAdmissible:
    def test_triangle_profile_is_admissible(self, pinched_bounds_model, grid3):
        p = SpeedProfile(grid3, np.array([0.0, 1.0, 0.0]))
        assert check_admissible(p, pinched_bounds_model, tol=0.0)

    def test_steep_profile_fails_at_first_segment(self, pinched_bounds_model,
                                                  grid3):
        p = SpeedProfile(grid3, np.array([0.0, 1.5, 0.0]))
        verdict = check_admissible(p, pinched_bounds_model, tol=0.0)
        assert not verdict
        assert verdict.index == 0
        assert verdict.constraint == "slope_above_max"

    def test_constant_forced_profile(self, grid3):
        model = constant_box_model(3.0)
        p = SpeedProfile(grid3, np.array([3.0, 3.0, 3.0]))
        assert check_admissible(p, model, tol=0.0)

    def test_bound_violation_reports_smallest_index(self, grid3):
        # wide slope window so only the box constraint can fail
        model = constant_box_model(3.0, f_lo=-10.0, f_hi=10.0)
        p = SpeedProfile(grid3, np.array([3.0, 4.0, 3.0]))
        verdict = check_admissible(p, model, tol=0.0)
        assert verdict.index == 1
        assert verdict.constraint == "above_upper_bound"

    def test_slope_checked_before_next_points_bound(self, grid3):
        # narrow window: the climb to the bad value trips at index 0 first
        model = constant_box_model(3.0)
        p = SpeedProfile(grid3, np.array([3.0, 4.0, 3.0]))
        verdict = check_admissible(p, model, tol=0.0)
        assert verdict.index == 0
        assert verdict.constraint == "slope_above_max"

    def test_boundary_ties_count_as_admissible(self, grid3, line_model):
        # slopes exactly +-2 sit on the window edges
        p = SpeedProfile(grid3, np.array([0.0, 1.0, 0.0]))
        assert check_admissible(p, line_model, tol=0.0)

    def test_mismatched_lengths_rejected(self, grid3):
        with pytest.raises(ValueError):
            SpeedProfile(grid3, np.array([0.0, 1.0]))

    def test_negative_tol_rejected(self, grid3, line_model):
        # NaN and inf would admit a profile far above the ceiling
        p = SpeedProfile(grid3, np.array([0.0, 1e6, 0.0]))
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                check_admissible(p, line_model, tol=tol)

    def test_bound_reported_before_slope_at_same_index(self, grid3):
        # index 0 breaks both the ceiling and the slope window
        model = constant_box_model(3.0)
        p = SpeedProfile(grid3, np.array([4.0, 6.0, 3.0]))
        verdict = check_admissible(p, model, tol=0.0)
        assert verdict.index == 0
        assert verdict.constraint == "above_upper_bound"


class TestCheckAdmissibleFrictionModel:
    """The ordering cases above on a built line model (ceiling 4, window
    +-2*f_fr), sampled from its closed form alone (callables blinded)
    and through its callables."""

    @pytest.fixture(params=["friction", "callables"])
    def model_for(self, request):
        def make(f_fr):
            model = build_model(PathSpec("line", v_max=2.0, f_fr=f_fr,
                                         length=1.0))
            if request.param == "friction":
                return blind_model(model)
            return plain_model(model)
        return make

    def test_bound_violation_reports_smallest_index(self, grid3, model_for):
        p = SpeedProfile(grid3, np.array([4.0, 5.0, 4.0]))
        verdict = check_admissible(p, model_for(10.0), tol=0.0)
        assert (verdict.ok, verdict.index, verdict.constraint) == (
            False, 1, "above_upper_bound")

    def test_bound_reported_before_slope_at_same_index(self, grid3,
                                                       model_for):
        p = SpeedProfile(grid3, np.array([5.0, 7.0, 4.0]))
        verdict = check_admissible(p, model_for(1.0), tol=0.0)
        assert (verdict.ok, verdict.index, verdict.constraint) == (
            False, 0, "above_upper_bound")

    def test_slope_checked_before_next_points_bound(self, grid3, model_for):
        p = SpeedProfile(grid3, np.array([4.0, 5.5, 4.0]))
        verdict = check_admissible(p, model_for(1.0), tol=0.0)
        assert (verdict.ok, verdict.index, verdict.constraint) == (
            False, 0, "slope_above_max")
        assert verdict.detail == "slope=3.0 > fplus=2.0 at s=0.0"

    def test_braking_slope_and_ties(self, grid3, model_for):
        model = model_for(1.0)
        assert check_admissible(SpeedProfile(grid3, np.array([4.0, 3.0, 2.0])),
                                model, tol=0.0)
        verdict = check_admissible(
            SpeedProfile(grid3, np.array([4.0, 3.0, 1.5])), model, tol=0.0)
        assert (verdict.index, verdict.constraint) == (1, "slope_below_min")


@pytest.mark.parametrize("values,constraint", [([1.0, 1e9], "slope_above_max"),
                                               ([1e9, 1.0], "slope_below_min")])
def test_infinite_chord_fails_its_window(values, constraint):
    # (h1 - h0) / 1e-300 overflows to +-inf below the ceiling 1e10: a
    # verdict, with no overflow warning (pytest turns warnings into errors)
    model = build_model(PathSpec("line", v_max=1e5, f_fr=1.0, length=1.0))
    profile = SpeedProfile(Discretization(np.array([0.0, 1e-300])),
                           np.array(values))
    for m in (blind_model(model), plain_model(model)):
        verdict = check_admissible(profile, m)
        assert (verdict.ok, verdict.index, verdict.constraint) == (
            False, 0, constraint)


@pytest.mark.parametrize("bound,constraint", [
    ("bl", "below_lower_bound"), ("bu", "above_upper_bound"),
    ("fminus", "slope_below_min"), ("fplus", "slope_above_max")])
def test_nan_bound_fails_its_check(grid3, bound, constraint):
    # every comparison with NaN is false, so a check written as "h > bu"
    # would pass any profile; each check fails unless its bound holds
    model = replace(constant_box_model(3.0), **{bound: lambda *x: math.nan})
    verdict = check_admissible(SpeedProfile(grid3, np.full(3, 3.0)), model)
    assert (verdict.ok, verdict.index, verdict.constraint) == (
        False, 0, constraint)
    # the detail names the NaN bound rather than assert "h > bu=nan"
    value = "h=3.0" if bound in ("bl", "bu") else "slope=0.0"
    assert verdict.detail == f"{value} at s=0.0, where {bound} is not a number"


def test_nan_curvature_fails_the_ceiling():
    # a NaN curvature makes the ceiling NaN and the slope window [0, 0]:
    # a flat profile far above vmax2 = 100 fails at the ceiling, as the
    # solver and the oracle find no candidate there
    model = FrictionCircle(1.0, 100.0, lambda s: np.full(np.shape(s), np.nan))
    grid = Discretization.uniform(0.0, 1.0, 5)
    verdict = check_admissible(SpeedProfile(grid, np.full(5, 1e9)), model)
    assert (verdict.ok, verdict.index, verdict.constraint) == (
        False, 0, "above_upper_bound")
    assert verdict.detail == "h=1000000000.0 at s=0.0, where bu is not a number"
    for plan in (solve, dp_optimum):
        with pytest.raises(InfeasibleError):
            plan(grid, model)


def unblocked_check_admissible(profile, model, tol=None):
    """check_admissible as one whole-grid array pass: the reference that
    its blocks must reproduce."""
    if tol is None:
        tol = default_tol(model)
    s, h = profile.grid.points, profile.values
    n = h.size
    kappa, lo, hi = _box_bounds(s, model)
    if kappa is not None:
        f_lo, f_hi = model.slopes(kappa[:-1], h[:-1])
    else:
        sl, hl = s.tolist(), h.tolist()
        f_lo, f_hi = (np.array([f(x, y) for x, y in zip(sl[:-1], hl)])
                      for f in (model.fminus, model.fplus))
    with np.errstate(over="ignore"):
        slope = np.diff(h) / np.diff(s)
    fails = np.zeros((4, n), dtype=bool)
    fails[0] = ~(h >= lo - tol)
    fails[1] = ~(h <= hi + tol)
    fails[2, :-1] = ~(slope >= f_lo - tol)
    fails[3, :-1] = ~(slope <= f_hi + tol)
    bad = np.flatnonzero(fails.any(axis=0))
    if bad.size == 0:
        return AdmissibilityReport(True)
    i = int(bad[0])
    name, x, xs, op, y, ys = (
        ("below_lower_bound", "h", h, "<", "bl", lo),
        ("above_upper_bound", "h", h, ">", "bu", hi),
        ("slope_below_min", "slope", slope, "<", "fminus", f_lo),
        ("slope_above_max", "slope", slope, ">", "fplus", f_hi),
    )[int(np.argmax(fails[:, i]))]
    value, bound, at = float(xs[i]), float(ys[i]), f"at s={float(s[i])!r}"
    return AdmissibilityReport(
        False, i, name, f"{x}={value!r} {at}, where {y} is not a number"
        if math.isnan(bound) else f"{x}={value!r} {op} {y}={bound!r} {at}")


# On a flat profile h = 4.5 with ds = 0.03, under the ceiling 9 and the
# slope window +-200: each entry is what one violation at index i sets,
# (i, h) pairs, and every other check holds (chords of at most 167).
VIOLATIONS = {
    "below_lower_bound": lambda i: [(i, -0.1)],
    "above_upper_bound": lambda i: [(i, 9.1)],
    "slope_below_min": lambda i: [(i, 8.5), (i + 1, 0.5)],
    "slope_above_max": lambda i: [(i, 0.5), (i + 1, 8.5)],
}


@pytest.mark.parametrize("n", [2 * BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 2],
                         ids=["last-block-one-point", "last-block-two-points"])
@pytest.mark.parametrize("kind", ["circle", "callables"])
def test_blocks_report_what_one_pass_reports(n, kind):
    grid = Discretization.uniform(0.0, 0.03 * (n - 1), n)
    model = build_model(PathSpec("line", v_max=3.0, f_fr=100.0, length=grid.points[-1]))
    if kind == "callables":
        model = DynamicsModel(fplus=lambda s, h: 200.0, fminus=lambda s, h: -200.0,
                              bu=lambda s: 9.0, bl=lambda s: 0.0, slope_cap=200.0)
    cases = [(name, min(i, n - 2) if name.startswith("slope") else i, VIOLATIONS[name])
             for name in VIOLATIONS for i in (BLOCK_ROWS - 1, BLOCK_ROWS,
                                              BLOCK_ROWS + 1, n - 1)]
    # the point two blocks share: the slope at B - 1 before the bound at B
    cases.append(("slope_below_min", BLOCK_ROWS - 1,
                  lambda i: [(i, 8.5), (i + 1, -0.1)]))
    for name, i, violate in cases:
        h = np.full(n, 4.5)
        for j, x in violate(i):
            h[j] = x
        profile = SpeedProfile(grid, h)
        want = unblocked_check_admissible(profile, model)
        assert (want.index, want.constraint) == (i, name)
        got = check_admissible(profile, model)
        assert (got.ok, got.index, got.constraint, got.detail) == (
            want.ok, want.index, want.constraint, want.detail), (name, i)
    flat = SpeedProfile(grid, np.full(n, 4.5))
    assert check_admissible(flat, model) and unblocked_check_admissible(flat, model)


@pytest.mark.parametrize("path", [line_instance(), wave_table_instance()],
                         ids=["line", "wave_table"])
def test_check_memory_at_1e5(path):
    # 16 block-sized float arrays over the profile and the model: no
    # temporary spans the grid (the whole-grid pass peaked at 8 arrays of n)
    model = build_model(path)
    profile = solve(path.grid(100_001), model, endpoints=path.endpoints).profile
    tracemalloc.start()
    try:
        assert check_admissible(profile, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * (BLOCK_ROWS + 1), peak


class TestProfileError:
    def test_identical_profiles(self, grid3):
        p = SpeedProfile(grid3, np.array([0.0, 1.0, 0.0]))
        assert profile_error(p, p) == 0.0

    def test_single_deviation(self, grid3):
        p = SpeedProfile(grid3, np.array([0.0, 1.0, 0.0]))
        q = SpeedProfile(grid3, np.array([0.0, 0.9, 0.0]))
        assert profile_error(p, q) == pytest.approx(0.1)

    def test_grid_mismatch_rejected(self, grid3):
        other = Discretization(np.array([0.0, 0.4, 1.0]))
        p = SpeedProfile(grid3, np.zeros(3))
        q = SpeedProfile(other, np.zeros(3))
        with pytest.raises(ValueError):
            profile_error(p, q)

    @given(st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
           st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
           st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_metric_properties(self, a, b, c):
        g = Discretization.uniform(0.0, 1.0, 4)
        pa = SpeedProfile(g, np.array(a))
        pb = SpeedProfile(g, np.array(b))
        pc = SpeedProfile(g, np.array(c))
        assert profile_error(pa, pb) == profile_error(pb, pa)
        assert (profile_error(pa, pb) == 0.0) == bool(
            np.array_equal(pa.values, pb.values))
        assert profile_error(pa, pc) <= (profile_error(pa, pb)
                                         + profile_error(pb, pc) + 1e-12)


class TestRelax:
    def test_zero_relaxation_is_pointwise_identity(self, line_model):
        relaxed = relax(line_model, 0.0)
        for s in (0.0, 0.3, 1.0):
            for h in (0.0, 0.5, 2.0):
                assert relaxed.fplus(s, h) == line_model.fplus(s, h)
                assert relaxed.fminus(s, h) == line_model.fminus(s, h)

    def test_additive_shift_on_line_model(self, line_model):
        relaxed = relax(line_model, 0.5)
        assert relaxed.fplus(0.2, 1.0) == pytest.approx(2.5)
        assert relaxed.fminus(0.2, 1.0) == pytest.approx(-2.5)
        assert relaxed.slope_cap == pytest.approx(2.5)
        assert relaxed.xi == pytest.approx(0.5)

    def test_slope_cap_is_two_f_plus_cumulative_xi(self, line_model):
        # not (2 f + 0.1) + 0.2, which is one ulp above 2 f + (0.1 + 0.2)
        twice = relax(relax(line_model, 0.1), 0.2)
        f = twice.f_fr
        assert (2.0 * f + 0.1) + 0.2 != 2.0 * f + (0.1 + 0.2)
        assert twice.slope_cap == 2.0 * f + (0.1 + 0.2)
        assert twice == replace(line_model, xi=0.1 + 0.2)

    def test_relaxation_accumulates(self, line_model):
        twice = relax(relax(line_model, 0.25), 0.25)
        assert twice.xi == pytest.approx(0.5)
        assert twice.fplus(0.0, 0.0) == pytest.approx(2.5)
        assert twice == replace(line_model, xi=0.5)
        assert twice.slopes(np.zeros(1), np.zeros(1)) == (
            pytest.approx([-2.5]), pytest.approx([2.5]))
        # The scalar bounds add f + (a + b), as slopes does, not
        # (f + a) + b; on a curved path the two differ in the last bit.
        path = wave_table_instance()
        twice = relax(relax(build_model(path), 0.3), 0.7)
        rng = np.random.default_rng(3)
        s = rng.uniform(*path.domain, 2000)
        h = rng.uniform(0.0, 1.2, s.size) * twice.ceiling(twice.kappa(s))
        fminus, fplus = twice.slopes(twice.kappa(s), h)
        sl, hl = s.tolist(), h.tolist()
        for arr, f in ((fminus, twice.fminus), (fplus, twice.fplus)):
            values = np.array([f(x, y) for x, y in zip(sl, hl)])
            assert np.array_equal(arr.view(np.int64), values.view(np.int64))

    @pytest.mark.parametrize("path", [line_instance(), capped_arc_instance()],
                             ids=["line", "arc"])
    def test_friction_check_applies_xi(self, path):
        model = build_model(path)
        relaxed = relax(model, 1.0)
        blind = blind_model(relaxed)
        profile = solve(path.grid(201), relaxed,
                        endpoints=path.endpoints).profile
        assert check_admissible(profile, blind)
        verdict = check_admissible(profile, model)
        assert not verdict and verdict.constraint.startswith("slope_")

    def test_negative_level_rejected(self, line_model):
        with pytest.raises(ValueError):
            relax(line_model, -0.1)

    @pytest.mark.parametrize("xi", [math.nan, math.inf])
    def test_non_finite_level_rejected(self, line_model, xi):
        with pytest.raises(ValueError, match="relaxation level"):
            relax(line_model, xi)

    def test_model_without_friction_rejected(self, line_model):
        with pytest.raises(ValueError, match="friction"):
            relax(plain_model(line_model), 0.5)

    @pytest.mark.parametrize("xi", [0.0, 0.3, 1e-322, 2.5])
    def test_is_the_circle_at_the_summed_level(self, xi):
        model = relax(build_model(wave_table_instance()), 0.1)
        assert relax(model, xi) == replace(model, xi=model.xi + xi)

    @given(st.floats(0.0, 3.0))
    @settings(max_examples=60)
    def test_widening_preserves_admissibility(self, xi, ):
        path = line_instance()
        model = build_model(path)
        grid = Discretization.uniform(0.0, 1.0, 9)
        profile = solve(grid, model, endpoints=path.endpoints).profile
        assert check_admissible(profile, model, tol=0.0)
        assert check_admissible(profile, relax(model, xi), tol=0.0)


def csv_file(tmp_path, text):
    """The path of a file holding ``text`` as is (no newline translation)."""
    f = tmp_path / "profile.csv"
    f.write_text(text, encoding="utf-8", newline="")
    return str(f)


class TestSerialization:
    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        g = Discretization(np.array([0.0, 1 / 3, 0.5, 2 / 3, 1.0]))
        p = SpeedProfile(g, np.array([0.0, 0.1 + 0.2, math.pi, 1e-17, 2.0]))
        f = tmp_path / "profile.csv"
        p.to_csv(str(f))
        q = SpeedProfile.from_csv(str(f))
        assert np.array_equal(p.grid.points, q.grid.points)
        assert np.array_equal(p.values, q.values)

    def test_csv_header_checked(self, tmp_path):
        with pytest.raises(ValueError):
            SpeedProfile.from_csv(csv_file(tmp_path, "x,y\n0,0\n"))

    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf", "0.5,-inf",
                                     "inf,1"])
    def test_csv_non_finite_rejected(self, tmp_path, row):
        # every comparison with nan is false, so a nan profile would pass
        # the admissibility check and retime to a nan time
        with pytest.raises(ValueError, match="finite"):
            SpeedProfile.from_csv(csv_file(tmp_path, f"s,h\n0,1\n{row}\n"))

    @pytest.mark.parametrize("text", ["s,h\n0,1\n\n1,2\n\n",
                                      "s,h\r\n0,1\r\n1,2\r\n"],
                             ids=["blank-line", "crlf"])
    def test_csv_blank_lines_and_crlf_accepted(self, tmp_path, text):
        p = SpeedProfile.from_csv(csv_file(tmp_path, text))
        assert p.grid.points.tolist() == [0.0, 1.0]
        assert p.values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("rows,match", [
        ("0,1\n0.5,1,2\n1,1\n", "line 3: expected 2 fields .*, got 3$"),
        ("0,1\n0.5\n1,1\n", "line 3: expected 2 fields .*, got 1$"),
        ("0,1\nx\n1,1\n", "line 3: expected 2 fields .*, got 1$"),
        ("0,1\n0.5,x\n1,1\n", "line 3: 'x' is not a number$"),
        ("0,1,2\n3,4,5\n", "line 2: expected 2 fields .*, got 3$"),
        ("0\n1\n2\n3\n", "line 2: expected 2 fields .*, got 1$"),
        ("0,1\n\n\n0.5,x\n", "line 5: 'x' is not a number$"),
        ("0,1\r\n\r\n0.5,1,2\r\n", "line 4: expected 2 fields .*, got 3$"),
        ("0,1\n \n1,1\n", "line 3: expected 2 fields .*, got 1$"),
        ("0,1\n1_0,1\n", "line 3: '1_0' is not a number$"),
        ("0,1\n1,\n", "line 3: '' is not a number$"),
    ], ids=["3-fields", "1-field", "x", "h-is-x", "all-3-fields",
            "all-1-field", "blank-lines-count", "crlf-blank-line",
            "spaces-only", "underscore", "empty-field"])
    def test_csv_malformed_row_rejected(self, tmp_path, rows, match):
        # the header is line 1 and blank lines count, as in an editor
        with pytest.raises(ValueError, match=match) as err:
            SpeedProfile.from_csv(csv_file(tmp_path, "s,h\n" + rows))
        assert "usecols" not in str(err.value)

    @given(tok=st.text("0123456789+-.eE_infaINFA \x0b\x0c\x1c\x1d\x1e\x1f"
                       "\u00a0\u2003\u0661", max_size=8))
    @settings(max_examples=300)
    def test_bad_row_blames_a_token_exactly_when_loadtxt_rejects_it(self, tok):
        # signs, exponents, inf and nan in any case, "_", Unicode spaces
        # (which both strip) and an Arabic-Indic digit (which float() reads)
        row = f"0,{tok}\n"
        try:
            np.loadtxt(io.StringIO(row), delimiter=",", comments=None, ndmin=2)
            loaded = True
        except ValueError:
            loaded = False
        blamed = _bad_row(io.StringIO("s,h\n" + row)).endswith("is not a number")
        assert blamed != loaded

    def test_csv_malformed_row_of_unseekable_stream(self, tmp_path):
        # a pipe cannot be read twice, so no line is named
        fifo = tmp_path / "profile.csv"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write("s,h\n0,1\n0.5,x\n")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            with pytest.raises(ValueError,
                               match="^profile CSV has a malformed row$"):
                SpeedProfile.from_csv(str(fifo))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()


class TestModelCaps:
    """Both model classes take 0 < slope_cap < inf and 0 <= xi < inf, so
    a tolerance or bracket made from them is finite."""

    @staticmethod
    def callables(slope_cap=1.0, xi=0.0):
        return DynamicsModel(fplus=lambda s, h: 1.0, fminus=lambda s, h: -1.0,
                             bu=lambda s: 1.0, bl=lambda s: 0.0,
                             slope_cap=slope_cap, xi=xi)

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.inf, math.nan])
    def test_bad_slope_cap_rejected(self, line_model, cap):
        with pytest.raises(ValueError, match="^slope_cap must"):
            self.callables(slope_cap=cap)
        with pytest.raises(ValueError, match="^slope_cap must"):
            replace(line_model, f_fr=cap / 2.0)

    @pytest.mark.parametrize("xi", [-1.0, -1e-300, math.inf, math.nan])
    def test_bad_xi_rejected(self, line_model, xi):
        with pytest.raises(ValueError, match="^xi must"):
            self.callables(xi=xi)
        with pytest.raises(ValueError, match="^xi must"):
            replace(line_model, xi=xi)

    @pytest.mark.parametrize("f_fr, xi", [(-1.0, 3.0), (0.0, 1.0),
                                          (-1e-300, 1.0)])
    def test_non_positive_f_fr_rejected(self, line_model, f_fr, xi):
        # slope_cap = 2*f_fr + xi is positive, so only this check names it
        with pytest.raises(ValueError, match="^f_fr must be finite and positive$"):
            replace(line_model, f_fr=f_fr, xi=xi)

    @pytest.mark.parametrize("vmax2", [0.0, -1.0, math.inf, math.nan])
    def test_bad_vmax2_rejected(self, line_model, vmax2):
        with pytest.raises(ValueError, match="^vmax2 must be finite and positive$"):
            replace(line_model, vmax2=vmax2)

    def test_finite_caps_accepted(self, line_model):
        assert self.callables(slope_cap=1e300, xi=1e300).xi == 1e300
        assert replace(line_model, xi=0.0) == line_model


def test_default_tol_scales_with_slope_cap(line_model):
    assert default_tol(line_model) == pytest.approx(2e-9)
    assert default_tol(relax(line_model, 100.0)) == pytest.approx(1.02e-7)


@pytest.mark.parametrize("k", [2.0, 0.5])
def test_default_tol_is_the_edge_of_each_check(line_path, circle_path, k):
    # each profile misses one constraint by k times the default tolerance:
    # twice it is rejected, naming the constraint; half of it is accepted.
    # Line: window +-2, floor 0. Circle: ceiling 1, window [0, 0] there.
    line, circle = build_model(line_path), build_model(circle_path)
    on_line, on_circle = line_path.grid(1001), circle_path.grid(1001)
    s = on_line.points
    tol = default_tol(line)
    assert default_tol(circle) == tol
    cases = [
        (line, on_line, 3.0 + (2.0 + k * tol) * s, "slope_above_max"),
        (line, on_line, 3.0 - (2.0 + k * tol) * s, "slope_below_min"),
        (line, on_line, np.full(s.size, -k * tol), "below_lower_bound"),
        (circle, on_circle, np.full(s.size, 1.0 + k * tol), "above_upper_bound"),
    ]
    for model, grid, values, constraint in cases:
        verdict = check_admissible(SpeedProfile(grid, values), model)
        if k > 1.0:
            assert not verdict and verdict.constraint == constraint
        else:
            assert verdict, constraint


def test_convex_combinations_stay_admissible():
    # the slope window is concave above / convex below in h, so blends
    # of admissible profiles are admissible, endpoints included
    from toppkit import build_model, capped_arc_instance, random_admissible

    path = capped_arc_instance()
    model = build_model(path)
    grid = path.grid(101)
    for k in range(5):
        p1 = random_admissible(grid, path, 2 * k)
        p2 = random_admissible(grid, path, 2 * k + 1)
        assert check_admissible(p1, model, tol=0.0)
        assert check_admissible(p2, model, tol=0.0)
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            mix = SpeedProfile(grid,
                               theta * p1.values + (1 - theta) * p2.values)
            assert check_admissible(mix, model, tol=0.0), theta
