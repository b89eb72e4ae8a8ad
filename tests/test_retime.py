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


def profile_on(points, values):
    return SpeedProfile(Discretization(np.array(points)),
                        np.array(values, dtype=float))


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
