import json

import numpy as np
import pytest

from toppkit import (InfeasibleError, SpeedProfile, build_model,
                     circle_instance, line_instance, solve)
from toppkit.cli import main


def write_spec(tmp_path, spec, name="path.json"):
    f = tmp_path / name
    f.write_text(json.dumps(spec.to_json_dict()), encoding="utf-8")
    return str(f)


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
        report = json.loads((out / "report.json").read_text())
        assert report["status"]["feasible"] is True
        assert report["n"] == 1001
        assert report["traversal_time"] == pytest.approx(t, abs=1e-6)
        assert (out / "profile.csv").exists()
        assert (out / "summary.json").exists()

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

    def test_infeasible_exits_2_and_names_index(self, tmp_path, capsys,
                                                monkeypatch):
        # Paths built from the JSON schema have a zero floor and are never
        # infeasible, so stub the solve to exercise the exit-code mapping.
        import numpy as np

        import toppkit.cli as cli
        from toppkit.core import SolveReport, SolveStatus

        def fake_solve(grid, model, endpoints=None):
            return SolveReport(status=SolveStatus(False, 7, "backward"),
                               backward=np.full(len(grid), np.nan))

        monkeypatch.setattr(cli, "solve", fake_solve)
        spec = write_spec(tmp_path, line_instance())
        code = main(["solve", "--input", spec, "--n", "11",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "index 7" in err and "backward" in err
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report == {"status": {"feasible": False, "index": 7,
                                     "pass": "backward"},
                          "n": 11, "traversal_time": None}

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
    ], ids=["list", "null_v_max", "int_table", "list_endpoints", "null_row",
            "v_max_squared_overflows", "slope_cap_overflows"])
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

    def test_n_floor(self, tmp_path, capsys):
        spec = write_spec(tmp_path, line_instance())
        assert main(["solve", "--input", spec, "--n", "1",
                     "--out", str(tmp_path / "o")]) == 1

    def test_tol_env_override_lands_in_summary(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path, line_instance())
        out = tmp_path / "out"
        monkeypatch.setenv("TOPPKIT_TOL", "0.125")
        assert main(["solve", "--input", spec, "--n", "11",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["admissibility_tol"] == 0.125
        assert summary["admissible"] is True

    def test_bad_tol_env_exits_1(self, tmp_path, monkeypatch, capsys):
        spec = write_spec(tmp_path, line_instance())
        for raw in ("not-a-number", "nan", "inf", "-1"):
            monkeypatch.setenv("TOPPKIT_TOL", raw)
            assert main(["solve", "--input", spec, "--n", "11",
                         "--out", str(tmp_path / "o")]) == 1


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

    def test_infeasible_exits_2_and_names_index(self, tmp_path, capsys,
                                                monkeypatch):
        import toppkit.cli as cli

        def fake_sweep(path, resolutions, reference):
            raise InfeasibleError("reference solve infeasible at index 5",
                                  index=5, pass_name="forward")

        monkeypatch.setattr(cli, "convergence_sweep", fake_sweep)
        spec = write_spec(tmp_path, line_instance())
        out = tmp_path / "o"
        assert main(["sweep", "--input", spec, "--resolutions", "11,21",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "infeasible: reference solve infeasible at index 5\n")
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
        code = main(["oracle", "--input", spec, "--n", "200",
                     "--levels", "512", "--out", str(out)])
        assert code == 0
        agreement = json.loads((out / "agreement.json").read_text())
        assert agreement["within"] is True
        assert agreement["error"] <= agreement["tolerance"]
        assert (out / "oracle.csv").exists()

    def test_coarse_levels_on_circle(self, tmp_path):
        spec = write_spec(tmp_path, circle_instance())
        out = tmp_path / "out"
        assert main(["oracle", "--input", spec, "--n", "41", "--levels", "8",
                     "--out", str(out)]) == 0
        agreement = json.loads((out / "agreement.json").read_text())
        assert agreement["within"] is True

    def test_infeasible_oracle_exits_2_and_names_index(self, tmp_path,
                                                       capsys, monkeypatch):
        import toppkit.cli as cli

        def fake_oracle(grid, model, levels, endpoints):
            raise InfeasibleError("empty candidate set at index 3",
                                  index=3, pass_name="backward")

        monkeypatch.setattr(cli, "dp_optimum", fake_oracle)
        spec = write_spec(tmp_path, line_instance())
        out = tmp_path / "o"
        assert main(["oracle", "--input", spec, "--n", "50",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "infeasible: empty candidate set at index 3\n")
        assert not out.exists()

    def test_levels_floor_exits_1(self, tmp_path, monkeypatch):
        import toppkit.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking --levels")

        monkeypatch.setattr(cli, "solve", no_solve)
        spec = write_spec(tmp_path, line_instance())
        assert main(["oracle", "--input", spec, "--n", "50", "--levels", "7",
                     "--out", str(tmp_path / "o")]) == 1
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
        prof = tmp_path / "profile.csv"
        prof.write_text("s,h\n0,1\n\n0.5,1,2\n1,1\n", encoding="utf-8")
        assert main(["retime", "--profile", str(prof), "--dt", "0.25",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: profile CSV line 4: expected 2 fields (s,h), got 3\n")

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


def test_usage_errors_exit_1():
    assert main(["solve", "--n", "10"]) == 1  # missing required flags
    assert main(["unknown-command"]) == 1
