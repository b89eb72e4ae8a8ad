import json
import os
import subprocess
import sys

import numpy as np
import pytest

from toppkit import (PathSpec, SpeedProfile, agreement_tolerance,
                     build_model, circle_instance, default_tol, line_instance,
                     solve)
from toppkit.cli import _seconds, main
from toppkit.retime import STALLED

from conftest import OVERFLOWING_ROOT

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# Rest to rest around an arc of radius 1e-160: about 4.05e-80 s.
TINY_ARC = PathSpec("arc", 10.0, 1.0, radius=1e-160, angle=3.0,
                    endpoints=(0.0, 0.0))


def write_spec(tmp_path, spec, name="path.json"):
    f = tmp_path / name
    f.write_text(json.dumps(spec.to_json_dict()), encoding="utf-8")
    return str(f)


def printed_seconds(stdout):
    return float(stdout.split("traversal time: ")[1].split(" s")[0])


@pytest.mark.parametrize("t, text", [
    (2.0, "2.000000"), (1e-3, "0.001000"), (0.0014999, "0.001500"),
    (123456.7891234, "123456.789123"), (0.0, "0.000000"),
    (float("inf"), "inf")])
def test_times_from_a_millisecond_print_with_six_decimals(t, text):
    assert _seconds(t) == text == f"{t:.6f}"


@pytest.mark.parametrize("t", [4.0512684627013544e-80, 5e-324, 1e-7,
                               0.0009999994, 0.00099999996])
def test_positive_time_below_a_millisecond_never_prints_zero(t):
    back = float(_seconds(t))
    assert back > 0.0
    assert abs(back - t) <= 1e-6 * t


@pytest.mark.parametrize("t", [1e9, 6.420374e149, 1.7976931348623157e308])
def test_times_from_1e9_print_with_seven_significant_digits(t):
    # :.6f printed 6.42e149 s as an integer of 150 digits
    assert _seconds(t) == f"{t:.7g}"
    assert len(_seconds(t)) <= 13
    assert float(_seconds(t)) == pytest.approx(t, rel=1e-6)


# A table whose traversal time is about 6.4e149 s at --n 11.
SLOW_TABLE = ('{"kind": "table", "v_max": 1, "f_fr": 1e-150, '
              '"table": [[0, 0], [1, 1e150]]}')


@pytest.mark.parametrize("name", OVERFLOWING_ROOT)
def test_solve_with_overflowing_root_finishes(tmp_path, name):
    # Each solve hung, walking the backward step down one float at a time.
    # A child process with a timeout fails instead of stalling the suite.
    spec = write_spec(tmp_path, OVERFLOWING_ROOT[name])
    env = dict(os.environ, PYTHONPATH=SRC)  # the checkout's package
    for n in (3, 11):
        out = tmp_path / f"out_{n}"
        done = subprocess.run(
            [sys.executable, "-m", "toppkit.cli", "solve", "--input", spec,
             "--n", str(n), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads((out / "summary.json").read_text())["admissible"] is True


class TestSolveCommand:
    def test_line_solve_prints_time_and_writes_artifacts(self, tmp_path,
                                                         capsys):
        spec = write_spec(tmp_path, line_instance())
        out = tmp_path / "out"
        code = main(["solve", "--input", spec, "--n", "1001",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        t = float(printed.split(":")[1].split("s")[0])
        assert t == pytest.approx(2.0, abs=1e-3)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["traversal_time"] == pytest.approx(t, abs=1e-6)
        assert {f.name for f in out.iterdir()} == {"profile.csv", "summary.json"}

    def test_tiny_time_prints_positive(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--input", write_spec(tmp_path, TINY_ARC),
                     "--n", "1001", "--out", str(out)]) == 0
        t = json.loads((out / "summary.json").read_text())["traversal_time"]
        assert 4e-80 < t < 4.1e-80
        printed = printed_seconds(capsys.readouterr().out)
        assert abs(printed - t) <= 1e-6 * t

    def test_profile_csv_round_trips_bit_exactly(self, tmp_path):
        spec = write_spec(tmp_path, circle_instance())
        out = tmp_path / "out"
        assert main(["solve", "--input", spec, "--n", "101",
                     "--out", str(out)]) == 0
        path = circle_instance()
        solved = solve(path.grid(101), build_model(path),
                       endpoints=path.endpoints).profile
        reread = SpeedProfile.from_csv(str(out / "profile.csv"))
        assert np.array_equal(reread.values, solved.values)
        assert np.array_equal(reread.grid.points, solved.grid.points)

    @pytest.mark.parametrize("body, message", [
        # v_max**2 underflows to 0: PathSpec names v_max
        ('{"kind": "line", "v_max": 1e-170, "f_fr": 1, "length": 1}',
         "field 'v_max'"),
        # f_fr**2 underflows to 0: the profile is 0 everywhere
        ('{"kind": "line", "v_max": 1, "f_fr": 1e-170, "length": 1, '
         '"endpoints": {"start_h": 0, "end_h": 0}}', STALLED),
        # f_fr**2 = 1e-322 > 0, but the reach 2*f_fr*ds underflows at n = 1001
        ('{"kind": "line", "v_max": 1, "f_fr": 1e-161, "length": 1e-161, '
         '"endpoints": {"start_h": 0, "end_h": 0}}', STALLED),
        # 1e300 m at 1e-100 m/s: the time overflows
        ('{"kind": "line", "v_max": 1e-100, "f_fr": 1, "length": 1e300}',
         STALLED),
    ], ids=["v_max_squared_underflows", "f_fr_squared_underflows",
            "reach_underflows", "time_overflows"])
    def test_stalled_solve_exits_1(self, tmp_path, capsys, body, message):
        # such a solve wrote Infinity (not JSON) and printed "inf s", exit 0
        spec = tmp_path / "stall.json"
        spec.write_text(body, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["solve", "--input", str(spec), "--n", "1001",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]
        assert not out.exists()

    def test_huge_time_prints_seven_significant_digits(self, tmp_path,
                                                       capsys):
        spec = tmp_path / "slow.json"
        spec.write_text(SLOW_TABLE, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["solve", "--input", str(spec), "--n", "11",
                     "--out", str(out)]) == 0
        t = json.loads((out / "summary.json").read_text())["traversal_time"]
        assert 1e149 < t < 1e150
        assert capsys.readouterr().out == f"traversal time: {t:.7g} s\n"

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["solve", "--input", str(tmp_path / "nope.json"),
                     "--n", "11", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_1_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "line", ', encoding="utf-8")
        code = main(["solve", "--input", str(bad), "--n", "11",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    @pytest.mark.parametrize("body, cause", [
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff")],
        ids=["nested_100000_deep", "not_utf8"])
    def test_unparsable_spec_exits_1_naming_the_file(self, tmp_path, capsys,
                                                     body, cause):
        bad = tmp_path / "bad.json"
        bad.write_bytes(body)
        out = tmp_path / "o"
        assert main(["solve", "--input", str(bad), "--n", "11",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: {cause}")
        assert not out.exists()

    def test_memory_error_exits_1(self, tmp_path, capsys, monkeypatch):
        import toppkit.solver as solver

        def no_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(solver, "solve", no_memory)
        out = tmp_path / "o"
        assert main(["solve", "--input", write_spec(tmp_path, line_instance()),
                     "--n", "11", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not out.exists()

    def test_missing_field_exits_1_with_field_name(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "line", "f_fr": 1.0, "length": 1.0}',
                       encoding="utf-8")
        code = main(["solve", "--input", str(bad), "--n", "11",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "v_max" in capsys.readouterr().err

    def test_non_finite_spec_value_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "inf.json"
        bad.write_text('{"kind": "line", "v_max": 1.0, "f_fr": 1.0, '
                       '"length": Infinity}', encoding="utf-8")
        code = main(["solve", "--input", str(bad), "--n", "11",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        '[1, 2]',
        '{"kind": "line", "v_max": null, "f_fr": 1.0, "length": 1.0}',
        '{"kind": "table", "v_max": 1.0, "f_fr": 1.0, "table": 5}',
        '{"kind": "line", "v_max": 1.0, "f_fr": 1.0, "length": 1.0, '
        '"endpoints": [0, 0]}',
        '{"kind": "table", "v_max": 1.0, "f_fr": 1.0, '
        '"table": [[0, 0], [0, null]]}',
        # v_max**2 and 2*f_fr (the model's ceiling and slope cap) overflow
        '{"kind": "line", "v_max": 1e200, "f_fr": 1, "length": 1}',
        '{"kind": "arc", "v_max": 1, "f_fr": 1e308, "radius": 1e308, '
        '"angle": 1}',
        # the arc length radius*angle overflows
        '{"kind": "arc", "v_max": 1, "f_fr": 1, "radius": 1e308, "angle": 10}',
        # the table span overflows; the sweeps' squares of 2*ds*kappa overflow
        '{"kind": "table", "v_max": 1, "f_fr": 1, '
        '"table": [[-1e308, 0], [1e308, 1]]}',
        '{"kind": "table", "v_max": 1, "f_fr": 1, '
        '"table": [[0, 1e300], [1, 1e300]], '
        '"endpoints": {"start_h": 0, "end_h": 0}}',
        # the sweeps' squares f_fr**2 and (kappa*h)**2 overflow on an arc
        '{"kind": "arc", "v_max": 1e150, "f_fr": 1e300, "radius": 1, '
        '"angle": 1, "endpoints": {"start_h": 0, "end_h": 0}}',
        '{"kind": "arc", "v_max": 1e80, "f_fr": 1e160, "radius": 1, '
        '"angle": 1, "endpoints": {"start_h": 0, "end_h": 0}}',
        '{"kind": "arc", "v_max": 1, "f_fr": 1, "radius": 1e-100, '
        '"angle": 1e200, "endpoints": {"start_h": 0, "end_h": 0}}',
        # strings and booleans are not numbers, though float() parses them
        '{"kind": "line", "v_max": "1_0", "f_fr": 1, "length": 1}',
        '{"kind": "line", "v_max": true, "f_fr": 1, "length": 1}',
        '{"kind": "table", "v_max": 1, "f_fr": 1, "table": [[0, 0], [1, "0.5"]]}',
        '{"kind": "line", "v_max": 1, "f_fr": 1, "length": 1, '
        '"endpoints": {"start_h": false, "end_h": 0}}',
    ], ids=["list", "null_v_max", "int_table", "list_endpoints", "null_row",
            "v_max_squared_overflows", "slope_cap_overflows",
            "arc_length_overflows", "table_span_overflows",
            "table_curvature_squared_overflows", "arc_ceiling_squared_overflows",
            "arc_ceiling_squared_overflows_smaller",
            "arc_step_squared_overflows", "string_v_max", "bool_v_max",
            "string_in_table", "bool_endpoint"])
    def test_wrongly_typed_spec_exits_1(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.json"
        bad.write_text(body, encoding="utf-8")
        out = tmp_path / "o"
        code = main(["solve", "--input", str(bad), "--n", "11",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("body, key", [
        ('{"kind": "line", "v_max": 10, "f_fr": 1, "length": 1, '
         '"endpoint": {"start_h": 0, "end_h": 0}}', "'endpoint'"),
        ('{"kind": "line", "v_max": 10, "f_fr": 1, "length": 1, '
         '"endpoints": {"start": 0, "end": 0}}', "'endpoints.start'"),
    ], ids=["endpoint", "endpoints_start"])
    def test_unknown_spec_key_exits_1_naming_it(self, tmp_path, capsys, body, key):
        # the misspelled rest-to-rest ends used to be dropped: 0.1 s, not 2 s
        bad = tmp_path / "typo.json"
        bad.write_text(body, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["solve", "--input", str(bad), "--n", "11",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"unknown key {key}" in err[0]
        assert not out.exists()

    def test_grid_finer_than_span_floats_names_n(self, tmp_path, capsys):
        # 12 points do not fit between 0 and 5e-323, ten floats apart
        spec = tmp_path / "tiny.json"
        spec.write_text('{"kind": "line", "v_max": 1, "f_fr": 1, '
                        '"length": 5e-323}', encoding="utf-8")
        out = tmp_path / "o"
        assert main(["solve", "--input", str(spec), "--n", "12",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: uniform grid of n = 12 points on [0.0, 5e-323]: "
                       "discretization points must be strictly increasing"]
        assert not out.exists()
        assert main(["solve", "--input", str(spec), "--n", "11",
                     "--out", str(out)]) == 0

    def test_subnormal_curvature_solves_without_warning(self, tmp_path,
                                                        capsys):
        # f_fr / kappa overflows to inf: only v_max binds
        spec = tmp_path / "tiny.json"
        spec.write_text('{"kind": "table", "v_max": 1, "f_fr": 1, "table": '
                        '[[0, 2.2250738585e-313], [1, 2.2250738585e-313]]}',
                        encoding="utf-8")
        out = tmp_path / "o"
        assert main(["solve", "--input", str(spec), "--n", "1001",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "summary.json").read_text())
        assert summary["admissible"] is True

    def test_n_floor(self, tmp_path, capsys):
        spec = write_spec(tmp_path, line_instance())
        assert main(["solve", "--input", spec, "--n", "1",
                     "--out", str(tmp_path / "o")]) == 1

    def test_environment_changes_no_artifact(self, tmp_path, monkeypatch):
        # no environment variable, TOPPKIT_TOL among them, changes what
        # solve writes: summary.json's tolerance is the model's default
        spec = write_spec(tmp_path, line_instance())
        files = ("summary.json", "profile.csv")
        outs = []
        for k, raw in enumerate((None, "0.125", "not-a-number")):
            if raw is None:
                monkeypatch.delenv("TOPPKIT_TOL", raising=False)
            else:
                monkeypatch.setenv("TOPPKIT_TOL", raw)
            out = tmp_path / f"o{k}"
            assert main(["solve", "--input", spec, "--n", "11",
                         "--out", str(out)]) == 0
            outs.append({f: (out / f).read_bytes() for f in files})
        assert outs[0] == outs[1] == outs[2]
        summary = json.loads(outs[0]["summary.json"])
        assert summary["admissibility_tol"] == default_tol(
            build_model(line_instance()))
        assert summary["admissible"] is True


class TestSweepCommand:
    def test_line_sweep_writes_csv(self, tmp_path):
        spec = write_spec(tmp_path, line_instance())
        out = tmp_path / "out"
        code = main(["sweep", "--input", spec, "--resolutions", "10,100,1000",
                     "--reference", "analytic", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "n,delta,rho,time_s"
        rhos = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(r <= 1e-9 for r in rhos)

    def test_circle_sweep_rho_within_tol(self, tmp_path):
        spec = write_spec(tmp_path, circle_instance())
        out = tmp_path / "out"
        assert main(["sweep", "--input", spec, "--resolutions", "11,101",
                     "--reference", "analytic", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        tol = 2e-9  # default tolerance for slope cap 2
        assert all(float(line.split(",")[2]) <= tol for line in lines[1:])

    def test_huge_time_prints_seven_significant_digits(self, tmp_path,
                                                       capsys):
        spec = tmp_path / "slow.json"
        spec.write_text(SLOW_TABLE, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["sweep", "--input", str(spec), "--resolutions", "11,21",
                     "--reference", "finest", "--out", str(out)]) == 0
        times = [float(line.split(",")[3]) for line in
                 (out / "sweep.csv").read_text().strip().splitlines()[1:]]
        printed = capsys.readouterr().out.splitlines()
        assert len(times) == len(printed) == 2
        for t, line in zip(times, printed):
            assert 1e149 < t < 1e150
            assert line.endswith(f" time={t:.7g}")

    def test_stalled_solve_exits_1(self, tmp_path, capsys):
        # f_fr**2 underflows to 0: every solve stalls; time=inf was printed
        spec = tmp_path / "stall.json"
        spec.write_text('{"kind": "line", "v_max": 1, "f_fr": 1e-170, '
                        '"length": 1, "endpoints": {"start_h": 0, "end_h": 0}}',
                        encoding="utf-8")
        out = tmp_path / "o"
        assert main(["sweep", "--input", str(spec), "--resolutions", "11,21",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {STALLED}\n"
        assert not out.exists()

    def test_non_dividing_finest_exits_1(self, tmp_path, capsys):
        spec = write_spec(tmp_path, line_instance())
        code = main(["sweep", "--input", spec, "--resolutions", "10,16",
                     "--reference", "finest", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "divide" in capsys.readouterr().err


class TestOracleCommand:
    def test_line_agreement_within_tolerance(self, tmp_path, capsys):
        spec = write_spec(tmp_path, line_instance())
        out = tmp_path / "out"
        code = main(["oracle", "--input", spec, "--n", "200", "--out", str(out)])
        assert code == 0
        agreement = json.loads((out / "agreement.json").read_text())
        assert agreement["within"] is True
        assert agreement["error"] <= agreement["tolerance"]
        assert (out / "oracle.csv").exists()

    def test_disagreement_exits_1(self, tmp_path, capsys, monkeypatch):
        import toppkit.oracle as oracle

        dp_optimum = oracle.dp_optimum

        def shifted(grid, model, levels, endpoints):
            # the oracle's profile, twice the tolerance above the solver's
            profile = dp_optimum(grid, model, levels=levels, endpoints=endpoints)
            tol = agreement_tolerance(grid, model, levels)
            return SpeedProfile(grid, profile.values + 2.0 * tol)

        monkeypatch.setattr(oracle, "dp_optimum", shifted)
        spec = write_spec(tmp_path, line_instance())
        out = tmp_path / "out"
        assert main(["oracle", "--input", spec, "--n", "50",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: oracle disagrees with the solver beyond tolerance"]
        agreement = json.loads((out / "agreement.json").read_text())
        assert agreement["within"] is False
        assert agreement["error"] > agreement["tolerance"]

    def test_tolerance_that_overflows_exits_1(self, tmp_path, capsys):
        # a valid spec whose 2 * slope_cap * delta overflows: the command
        # wrote "tolerance": Infinity (not JSON) and "within": true, exit 0
        spec = tmp_path / "huge.json"
        spec.write_text('{"kind": "line", "v_max": 1.0, "f_fr": 8e307, '
                        '"length": 10.0}', encoding="utf-8")
        out = tmp_path / "o"
        assert main(["oracle", "--input", str(spec), "--n", "3",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: agreement tolerance")
        assert err[0].endswith(" + inf is not finite")
        assert not out.exists()

    def test_levels_flag_is_a_usage_error(self, tmp_path, capsys):
        # the command judges at dp_optimum's default, 512 levels
        spec = write_spec(tmp_path, line_instance())
        assert main(["oracle", "--input", spec, "--n", "50", "--levels", "512",
                     "--out", str(tmp_path / "o")]) == 1
        assert "unrecognized arguments: --levels 512" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRetimeCommand:
    def test_trajectory_csv(self, tmp_path):
        prof = tmp_path / "profile.csv"
        prof.write_text("s,h\n0,1\n1,1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["retime", "--profile", str(prof), "--dt", "0.25",
                     "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,s,v"
        assert len(lines) == 6
        last = [float(x) for x in lines[-1].split(",")]
        assert last == pytest.approx([1.0, 1.0, 1.0])

    def test_tiny_time_prints_positive(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--input", write_spec(tmp_path, TINY_ARC),
                     "--n", "1001", "--out", str(out)]) == 0
        t = json.loads((out / "summary.json").read_text())["traversal_time"]
        capsys.readouterr()
        assert main(["retime", "--profile", str(out / "profile.csv"),
                     "--dt", repr(t / 1000), "--out", str(tmp_path / "r")]) == 0
        printed = printed_seconds(capsys.readouterr().out)
        assert abs(printed - t) <= 1e-6 * t

    def test_stalled_profile_exits_1(self, tmp_path, capsys):
        prof = tmp_path / "profile.csv"
        prof.write_text("s,h\n0,0\n1,0\n", encoding="utf-8")
        assert main(["retime", "--profile", str(prof), "--dt", "0.25",
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf"])
    def test_non_finite_profile_exits_1(self, tmp_path, capsys, row):
        prof = tmp_path / "profile.csv"
        prof.write_text(f"s,h\n0,1\n{row}\n1,1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["retime", "--profile", str(prof), "--dt", "0.25",
                     "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_slope_exits_1(self, tmp_path, capsys):
        prof = tmp_path / "profile.csv"
        prof.write_text("s,h\n0,1\n1e-300,1e9\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["retime", "--profile", str(prof), "--dt", "1e-305",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: segment 0 from s=0.0 to s=1e-300: slope (h1 - h0) / (s1 - s0) "
            "is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["", "0,1\n", "0,1\n0.5,1,2\n1,1\n",
                                      "0,1\n0.5\n1,1\n", "0,1\nx\n1,1\n"],
                             ids=["header-only", "one-row", "3-fields",
                                  "1-field", "x"])
    def test_malformed_profile_exits_1(self, tmp_path, capsys, rows):
        prof = tmp_path / "profile.csv"
        prof.write_text("s,h\n" + rows, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["retime", "--profile", str(prof), "--dt", "0.25",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "usecols" not in err[0]
        assert not out.exists()

    def test_malformed_row_named_by_file_line(self, tmp_path, capsys):
        # line 3 of the second file ends in a no-break space, which
        # np.loadtxt strips: the row it rejects is line 4
        for text, err in (
                ("s,h\n0,1\n\n0.5,1,2\n1,1\n",
                 "line 4: expected 2 fields (s,h), got 3"),
                ("s,h\n0,0\n1,1\u00a0\n2,abc\n", "line 4: 'abc' is not a number")):
            prof = tmp_path / "profile.csv"
            prof.write_text(text, encoding="utf-8")
            assert main(["retime", "--profile", str(prof), "--dt", "0.25",
                         "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err == f"error: profile CSV {err}\n"

    def test_memory_error_exits_1(self, tmp_path, capsys, monkeypatch):
        import toppkit.cli as cli

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 TiB")

        monkeypatch.setattr(cli, "sample_trajectory", no_memory)
        prof = tmp_path / "profile.csv"
        prof.write_text("s,h\n0,1\n1,1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["retime", "--profile", str(prof), "--dt", "1e-13",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 74.5 TiB\n"
        assert not out.exists()

    def test_dt_too_small_exits_1(self, tmp_path, capsys):
        # 1 / 1e-320 overflows: a sample count no float loop could reach
        prof = tmp_path / "profile.csv"
        prof.write_text("s,h\n0,1\n1,1\n", encoding="utf-8")
        assert main(["retime", "--profile", str(prof), "--dt", "1e-320",
                     "--out", str(tmp_path / "o")]) == 1
        assert "too many samples" in capsys.readouterr().err

    def test_bad_dt_exits_1(self, tmp_path):
        prof = tmp_path / "profile.csv"
        prof.write_text("s,h\n0,1\n1,1\n", encoding="utf-8")
        assert main(["retime", "--profile", str(prof), "--dt", "0",
                     "--out", str(tmp_path / "o")]) == 1

    def test_infinite_dt_exits_1(self, tmp_path, capsys):
        prof = tmp_path / "profile.csv"
        prof.write_text("s,h\n0,1\n1,1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["retime", "--profile", str(prof), "--dt", "inf",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: dt must be positive and finite\n")
        assert not out.exists()


def test_usage_errors_exit_1():
    assert main(["solve", "--n", "10"]) == 1  # missing required flags
    assert main(["unknown-command"]) == 1
