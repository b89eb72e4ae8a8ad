"""What a toppkit process loads, and how it exits.

Each check of what is loaded runs in a fresh interpreter with the
checkout's package, because this test process has imported every module.
"""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from toppkit import line_instance
from toppkit.cli import main

from test_cli import write_spec

ROOT = Path(__file__).resolve().parents[1]
# The checkout's package, with stdout buffered: an exit that skips the
# flush would lose the output.
ENV = dict({k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
           PYTHONPATH=str(ROOT / "src"))
CLI_MODULES = ["toppkit", "toppkit.cli", "toppkit.core", "toppkit.retime"]
# The entry point that `pip install` writes the `toppkit` script for.
SCRIPT = re.search(r'^toppkit = "([\w.]+):(\w+)"$',
                   (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
                   re.MULTILINE)


def run_python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args], env=ENV,
                          capture_output=True, text=True, timeout=60)


def loaded_after(code):
    """The toppkit modules in sys.modules after a fresh interpreter runs code."""
    done = run_python(code + "\nimport json, sys\nprint(json.dumps(sorted("
                      "m for m in sys.modules if m.split('.')[0] == 'toppkit')))")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_of_the_cli_loads_core_and_retime_only():
    assert loaded_after("import toppkit.cli") == CLI_MODULES


def test_retime_adds_the_csv_reader(tmp_path):
    assert main(["solve", "--input", write_spec(tmp_path, line_instance()),
                 "--n", "101", "--out", str(tmp_path / "solved")]) == 0
    profile = tmp_path / "solved" / "profile.csv"
    assert loaded_after(
        "from toppkit.cli import main\n"
        f"assert main(['retime', '--profile', {str(profile)!r}, '--dt', '0.01',"
        f" '--out', {str(tmp_path / 'o')!r}]) == 0") \
        == sorted(CLI_MODULES + ["toppkit.csvread"])


def test_solve_adds_paths_and_solver(tmp_path):
    assert loaded_after(
        "from toppkit.cli import main\n"
        f"assert main(['solve', '--input', {write_spec(tmp_path, line_instance())!r},"
        f" '--n', '101', '--out', {str(tmp_path / 'o')!r}]) == 0") \
        == sorted(CLI_MODULES + ["toppkit.paths", "toppkit.solver"])


def test_star_import_binds_every_public_name_from_its_submodule():
    done = run_python(
        "import json, sys, toppkit\n"
        "listed = dir(toppkit)\n"
        "from toppkit import *\n"
        "print(json.dumps([(n, globals()[n].__module__, listed.count(n),\n"
        "    getattr(sys.modules[globals()[n].__module__], n) is globals()[n])\n"
        "    for n in toppkit.__all__]))")
    assert done.returncode == 0, done.stderr
    bound = json.loads(done.stdout)
    assert len(bound) == len({name for name, *_ in bound}) == 35
    for name, module, listed, same in bound:
        assert module.startswith("toppkit."), name
        assert listed == 1 and same, name


def test_unknown_name_raises_attribute_error_naming_the_package():
    import toppkit

    with pytest.raises(AttributeError, match="module 'toppkit' has no "
                                             "attribute 'no_such_name'"):
        toppkit.no_such_name


def exit_cases(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "line"}', encoding="utf-8")
    # n = 40 001 writes profile.csv through the forked child (8 blocks on)
    return {
        "solve": ["solve", "--input", write_spec(tmp_path, line_instance()),
                  "--n", "40001"],
        "bad_spec": ["solve", "--input", str(bad), "--n", "11"],
        "usage": ["solve", "--n", "11"],
        "help": ["--help"],
    }


def artifacts(out):
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None


@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("case", ["solve", "bad_spec", "usage", "help"])
def test_process_exit_matches_main(tmp_path, capsys, entry, case):
    argv = exit_cases(tmp_path)[case]
    out = ["--out", str(tmp_path / "in_process")] if case != "help" else []
    code = main(argv + out)
    printed = capsys.readouterr()
    assert code == (0 if case in ("solve", "help") else 1)
    if case == "bad_spec":
        assert printed.err.startswith("error: ")
    assert gc.get_freeze_count() == 0

    out = ["--out", str(tmp_path / "process")] if case != "help" else []
    if entry == "module":
        done = subprocess.run([sys.executable, "-m", "toppkit.cli", *argv, *out],
                              env=ENV, capture_output=True, text=True, timeout=60)
    else:
        module, func = SCRIPT.groups()
        done = run_python(f"import sys\nfrom {module} import {func}\n"
                          f"sys.exit({func}())", *argv, *out)
    assert (done.returncode, done.stdout, done.stderr) \
        == (code, printed.out, printed.err)
    assert artifacts(tmp_path / "process") == artifacts(tmp_path / "in_process")
