"""The repository's pytest settings, run on a scratch test file."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CONFTEST = Path(__file__).resolve().parent / "conftest.py"

FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
'''


LOOPING = '''
from hypothesis import given, settings, strategies as st


def test_loops():
    while True:
        pass


@settings(database=None)
@given(st.integers())
def test_loops_given(x):
    while True:
        pass


def test_passes():
    pass
'''


def run_scratch_session(tmp_path, *options):
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         *options, "test_scratch.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # hypothesis' failure report imports libcst, whose mypy_extensions
    # import warns; under "error" that aborted the session (exit code 3)
    # and the tests after the failing one never ran
    (tmp_path / "test_scratch.py").write_text(FAILING_GIVEN)
    done = run_scratch_session(tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


def test_looping_test_fails_at_the_time_limit(tmp_path):
    # with the suite's conftest and the limit lowered to 1 s, a test that
    # never ends fails, a hypothesis test at its first example (no shrink
    # replays a hang), and the test after them still runs
    shutil.copy(CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "test_scratch.py").write_text(LOOPING)
    done = run_scratch_session(tmp_path, "-o", "test_time_limit=1")
    assert done.returncode == 1, done.stdout + done.stderr
    assert "2 failed, 1 passed" in done.stdout
    assert done.stdout.count("TimeLimitExceeded: test still running after 1 s") == 2
