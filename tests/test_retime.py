import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toppkit import (Discretization, SpeedProfile, build_model,
                     capped_arc_instance, line_instance, sample_trajectory,
                     solve, traversal_time, wave_table_instance,
                     write_trajectory_csv)
from toppkit.retime import _knot_times


def profile_on(points, values):
    return SpeedProfile(Discretization(np.array(points)),
                        np.array(values, dtype=float))


def scalar_sample_trajectory(profile, dt):
    """The per-sample loop that sample_trajectory replaced, as its reference."""
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
        if m == 0.0:
            pos = s[i] + root_h0 * tau
            hh = h[i]
        else:
            root_h = root_h0 + 0.5 * m * tau
            hh = root_h * root_h
            pos = s[i] + (hh - h[i]) / m
        pos = min(max(float(pos), float(s[i])), float(s[i + 1]))
        return pos, math.sqrt(hh)

    rows = []
    k = 0
    while k * dt < total:
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
    ], ids=["constant", "zero-both-ends", "zero-start", "zero-end",
            "non-dividing-dt", "dt-above-total"])
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

    def test_stalled_profile_rejected(self):
        with pytest.raises(ValueError):
            sample_trajectory(profile_on([0.0, 1.0], [0.0, 0.0]), 0.1)

    def test_csv_output(self):
        rows = sample_trajectory(profile_on([0.0, 1.0], [1.0, 1.0]), 0.5)
        buf = io.StringIO()
        write_trajectory_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,s,v"
        assert len(lines) == len(rows) + 1
        assert [float(x) for x in lines[1].split(",")] == [0.0, 0.0, 1.0]
