import math
import tracemalloc
from decimal import Decimal as D
from decimal import localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toppkit import (Discretization, SpeedProfile, build_model,
                     bundled_instances, capped_arc_instance, line_instance,
                     random_table_instance, sample_trajectory, solve,
                     traversal_time, wave_table_instance,
                     write_trajectory_csv)
from toppkit.core import BLOCK_ROWS
from toppkit.retime import _knot_times

INSTANCES = {**bundled_instances(),
             **{f"table_{k}": random_table_instance(k) for k in range(5)}}


def profile_on(points, values):
    return SpeedProfile(Discretization(np.array(points)),
                        np.array(values, dtype=float))


def scalar_sample_trajectory(profile, dt):
    """sample_trajectory's formulas, one sample at a time, as its reference."""
    t_knots = _knot_times(profile)
    total = float(t_knots[-1])
    s, h = profile.grid.points, profile.values

    def state_at(t):
        i = int(np.searchsorted(t_knots, t, side="right") - 1)
        i = min(max(i, 0), s.size - 2)
        tau = t - t_knots[i]
        ds = s[i + 1] - s[i]
        m = (h[i + 1] - h[i]) / ds
        root_h0 = math.sqrt(h[i])
        v = abs(root_h0 + 0.5 * m * tau)
        pos = s[i] + tau * (root_h0 + v) * 0.5
        return min(float(pos), float(s[i + 1])), float(v)

    rows = []
    k = 0
    while k * dt < total - 4.0 * math.ulp(total):  # not a few ulps below it
        t = k * dt
        pos, v = state_at(t)
        rows.append((t, pos, v))
        k += 1
    rows.append((total, float(s[-1]), math.sqrt(h[-1])))
    return rows


class TestTraversalTime:
    def test_triangle_closed_form(self):
        assert traversal_time(profile_on([0.0, 0.5, 1.0], [0, 1, 0])) \
            == pytest.approx(2.0)

    def test_constant_speed(self):
        assert traversal_time(profile_on([0.0, 8.0], [4.0, 4.0])) \
            == pytest.approx(4.0)

    def test_stalled_segment_diverges(self):
        assert traversal_time(profile_on([0.0, 1.0], [0.0, 0.0])) == math.inf
        assert traversal_time(
            profile_on([0.0, 0.5, 0.6, 1.0], [1.0, 0.0, 0.0, 1.0])) == math.inf

    def test_time_past_the_largest_float_is_inf(self):
        # 2 * 1e300 / (2 * 1e-100) overflows, silently, like a stall
        assert traversal_time(
            profile_on([0.0, 1e300], [1e-200, 1e-200])) == math.inf

    def test_single_endpoint_zero_is_integrable(self):
        # h = 2s on [0, 1]: time = sqrt(2·1)·... = 2/sqrt(2) = sqrt(2)
        t = traversal_time(profile_on([0.0, 1.0], [0.0, 2.0]))
        assert t == pytest.approx(math.sqrt(2.0))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            traversal_time(profile_on([0.0, 1.0], [1.0, -0.5]))

    @given(st.lists(st.floats(0.01, 9.0), min_size=4, max_size=4),
           st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_pointwise_dominance_reverses_time_order(self, q, scale):
        grid = [0.0, 0.4, 1.1, 2.0]
        p = [qi * si for qi, si in zip(q, scale)]
        tp = traversal_time(profile_on(grid, p))
        tq = traversal_time(profile_on(grid, q))
        assert tp >= tq * (1.0 - 1e-12)

    def test_total_is_a_left_to_right_sum(self):
        # A pairwise-summed total (np.sum) differs in the last bits here.
        for path in (capped_arc_instance(), wave_table_instance()):
            report = solve(path.grid(201), build_model(path),
                           endpoints=path.endpoints)
            s, h = report.profile.grid.points, report.profile.values
            total = 0.0
            for i in range(s.size - 1):
                total += 2.0 * (s[i + 1] - s[i]) / (math.sqrt(h[i])
                                                    + math.sqrt(h[i + 1]))
            assert traversal_time(report.profile) == total

    def test_midpoint_refinement_is_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pts = np.sort(rng.uniform(0.0, 5.0, 7))
            pts[0], pts[-1] = 0.0, 5.0
            if np.any(np.diff(pts) <= 0):
                continue
            vals = rng.uniform(0.05, 4.0, 7)
            coarse = SpeedProfile(Discretization(pts), vals)
            mids = (pts[:-1] + pts[1:]) / 2.0
            fine_pts = np.sort(np.concatenate([pts, mids]))
            fine_vals = np.interp(fine_pts, pts, vals)
            fine = SpeedProfile(Discretization(fine_pts), fine_vals)
            t0, t1 = traversal_time(coarse), traversal_time(fine)
            assert t1 == pytest.approx(t0, rel=1e-12)


class TestSampleTrajectory:
    def test_unit_speed_uniform_samples(self):
        rows = sample_trajectory(profile_on([0.0, 1.0], [1.0, 1.0]), 0.25)
        assert [r[0] for r in rows] == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])
        assert [r[1] for r in rows] == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])
        assert [r[2] for r in rows] == pytest.approx([1.0] * 5)

    def test_triangle_midpoint(self):
        rows = sample_trajectory(profile_on([0.0, 0.5, 1.0], [0, 1, 0]), 1.0)
        t, s, v = rows[1]
        assert (t, s, v) == pytest.approx((1.0, 0.5, 1.0))
        assert rows[-1][0] == pytest.approx(2.0, abs=1e-12)
        assert rows[-1][1] == 1.0

    def test_timestamps_strictly_increasing_and_end_on_total(self):
        path = line_instance()
        report = solve(path.grid(201), build_model(path),
                       endpoints=path.endpoints)
        rows = sample_trajectory(report.profile, 0.03)
        ts = [r[0] for r in rows]
        assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))
        assert ts[-1] == report.traversal_time
        ss = [r[1] for r in rows]
        assert all(s2 >= s1 for s1, s2 in zip(ss, ss[1:]))
        assert ss[0] == 0.0 and ss[-1] == 1.0

    @pytest.mark.parametrize("n", [1001, 100001])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_dt_dividing_total_gives_one_row_per_step(self, name, n):
        # m * (total / m) can round to an ulp below total; that sample
        # must not sit next to the exact last row
        path = INSTANCES[name]
        report = solve(path.grid(n), build_model(path),
                       endpoints=path.endpoints)
        total = report.traversal_time
        for m in (1001, 100000, 100001):
            t = sample_trajectory(report.profile, total / m)[:, 0]
            assert t.size == m + 1
            assert t[-1] == total
            assert np.all(np.diff(t) > 0.0)

    def test_speed_bounded_by_ceiling(self):
        path = line_instance()
        model = build_model(path)
        report = solve(path.grid(101), model, endpoints=path.endpoints)
        rows = sample_trajectory(report.profile, 0.01)
        vmax = math.sqrt(max(model.bu(float(s))
                             for s in report.profile.grid.points))
        assert all(v <= vmax + 1e-9 for _, _, v in rows)

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError):
            sample_trajectory(profile_on([0.0, 1.0], [1.0, 1.0]), 0.0)
        for dt in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                sample_trajectory(profile_on([0.0, 1.0], [1.0, 1.0]), dt)
        # 1 / 1e-320 overflows to inf: too many samples, not an OverflowError
        with pytest.raises(ValueError, match="too many samples"):
            sample_trajectory(profile_on([0.0, 1.0], [1.0, 1.0]), 1e-320)

    @pytest.mark.parametrize("points,values,dt", [
        ([0.0, 0.5, 1.0, 2.0], [1.0, 1.0, 4.0, 4.0], 0.1),  # constant segments
        ([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], 0.07),  # zero at both ends
        ([0.0, 1.0], [0.0, 2.0], 0.1),  # zero at the start
        ([0.0, 1.0], [2.0, 0.0], 0.1),  # zero at the end
        ([0.0, 1.0], [1.0, 1.0], 0.3),  # dt does not divide the total
        ([0.0, 1.0], [1.0, 1.0], 5.0),  # dt above the total
        # an ulp before the knot time 2.82842712474619 of a stop at s = 1,
        # where the trapezoid lands an ulp past s = 1: clamped to the knot
        ([0.0, 1.0, 2.0], [0.5, 0.0, 1.0], 2.8284271247461894),
    ], ids=["constant", "zero-both-ends", "zero-start", "zero-end",
            "non-dividing-dt", "dt-above-total", "ulp-before-a-stop"])
    def test_equals_scalar_loop_bit_for_bit(self, points, values, dt):
        profile = profile_on(points, values)
        rows = sample_trajectory(profile, dt)
        expected = np.array(scalar_sample_trajectory(profile, dt))
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()

    def test_capped_arc_equals_scalar_loop_bit_for_bit(self):
        path = capped_arc_instance()
        report = solve(path.grid(10001), build_model(path),
                       endpoints=path.endpoints)
        dt = report.traversal_time / 10001
        rows = sample_trajectory(report.profile, dt)
        expected = np.array(scalar_sample_trajectory(report.profile, dt))
        assert rows.shape == expected.shape == (10002, 3)
        assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("path,n,divisions", [
        (INSTANCES["capped_arc"], 100001, (10001,)),
        (INSTANCES["capped_line"], 100001, (100001,)),
        (INSTANCES["table_1"], 1001, (1001, 3010)),
        (random_table_instance(12), 1001, (1001, 3010)),
    ], ids=["capped_arc", "capped_line", "table_1", "table_12"])
    def test_positions_within_4_ulps_of_exact_motion(self, path, n, divisions):
        # s0 + sqrt(h0) * tau + m * tau^2 / 4 in 40 digits, with the exact
        # chord slope m and tau; nearly flat segments are where a position
        # recovered by inverting h, s0 + (h - h0) / m, would cancel
        profile = solve(path.grid(n), build_model(path),
                        endpoints=path.endpoints).profile
        t_knots = _knot_times(profile)
        with localcontext() as ctx:
            ctx.prec = 40
            s, h, knots = ([D(x) for x in a.tolist()] for a in
                           (profile.grid.points, profile.values, t_knots))
            for k in divisions:
                rows = sample_trajectory(profile, t_knots[-1] / k)[:-1]
                seg = np.clip(np.searchsorted(t_knots, rows[:, 0], side="right") - 1,
                              0, n - 2)
                for t, pos, i in zip(rows[:, 0].tolist(), rows[:, 1].tolist(),
                                     seg.tolist()):
                    tau = D(t) - knots[i]
                    m = (h[i + 1] - h[i]) / (s[i + 1] - s[i])
                    exact = min(s[i] + h[i].sqrt() * tau + m * tau * tau / 4,
                                s[i + 1])
                    assert abs(D(pos) - exact) <= 4 * D(math.ulp(pos)), (t, pos)

    def test_stalled_profile_rejected(self):
        # named as a stall, not as "too many samples" over an infinite time
        with pytest.raises(ValueError, match="^profile stalls"):
            sample_trajectory(profile_on([0.0, 1.0], [0.0, 0.0]), 0.1)

    def test_non_finite_slope_rejected(self):
        # (1e9 - 1) / 1e-300 overflows: the segment is named, with no
        # overflow warning (pytest turns warnings into errors)
        profile = profile_on([-1.0, 0.0, 1e-300], [1.0, 1.0, 1e9])
        with pytest.raises(ValueError, match=r"^segment 1 from s=0\.0 to "
                           r"s=1e-300: slope \(h1 - h0\) / \(s1 - s0\) is not finite$"):
            sample_trajectory(profile, 0.25)

    @pytest.mark.parametrize("case", ["knots-on-block-edges", "random"])
    def test_blocks_equal_scalar_loop_bit_for_bit(self, case):
        # 3 blocks of samples. Unit speed on integer knots with dt = 1:
        # 3 * BLOCK_ROWS samples, each on a knot, so one lands on each
        # block edge and the last block is full. Then a random profile.
        n = 3 * BLOCK_ROWS + 1
        if case == "knots-on-block-edges":
            profile, dt = profile_on(np.arange(n, dtype=float), np.ones(n)), 1.0
        else:
            h = np.random.default_rng(29).uniform(0.5, 2.0, n)
            profile = profile_on(np.linspace(0.0, 7.0, n), h)
            dt = traversal_time(profile) / (3 * BLOCK_ROWS + 17)
        rows = sample_trajectory(profile, dt)
        expected = np.array(scalar_sample_trajectory(profile, dt))
        assert rows.shape == expected.shape and rows.shape[0] > 3 * BLOCK_ROWS
        assert rows.tobytes() == expected.tobytes()

    def test_non_finite_slope_in_a_later_block_named_first(self):
        # segments B + 10 and 2B + 10 rise by 1e300 over one ulp of s: the
        # first of them is named
        n = 2 * BLOCK_ROWS + 50
        s, h = np.arange(n, dtype=float), np.ones(n)
        for j in (BLOCK_ROWS + 10, 2 * BLOCK_ROWS + 10):
            s[j + 1], h[j + 1] = np.nextafter(s[j], math.inf), 1e300
        j = BLOCK_ROWS + 10
        with pytest.raises(ValueError) as err:
            sample_trajectory(profile_on(s, h), 1.0)
        assert str(err.value) == (
            f"segment {j} from s={float(s[j])!r} to s={float(s[j + 1])!r}: "
            "slope (h1 - h0) / (s1 - s0) is not finite")

    @pytest.mark.parametrize("path", [capped_arc_instance(), wave_table_instance()],
                             ids=["capped_arc", "wave_table"])
    def test_memory_at_1e5(self, path):
        # the rows, the knot times and a byte a segment for the slope scan,
        # plus 8 block-sized float arrays: no temporary spans the samples
        profile = solve(path.grid(100_001), build_model(path),
                        endpoints=path.endpoints).profile
        n, dt = 100_001, traversal_time(profile) / 100_000
        tracemalloc.start()
        try:
            rows = sample_trajectory(profile, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows.nbytes + 8 * n + n + 8 * 8 * BLOCK_ROWS, peak

    def test_csv_output(self, tmp_path):
        rows = sample_trajectory(profile_on([0.0, 1.0], [1.0, 1.0]), 0.5)
        f = tmp_path / "trajectory.csv"
        write_trajectory_csv(rows, str(f))
        lines = f.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "t,s,v"
        assert len(lines) == len(rows) + 1
        assert [float(x) for x in lines[1].split(",")] == [0.0, 0.0, 1.0]
