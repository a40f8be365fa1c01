"""The repository's pytest settings keep a failing test an ordinary failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

ONE_FAILING_ONE_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # Reporting a failing @given test makes hypothesis import libcst, which
    # raises a DeprecationWarning; under filterwarnings = ["error"] alone that
    # became an INTERNALERROR (exit 3) and the tests after it never ran.
    (tmp_path / "test_sample.py").write_text(ONE_FAILING_ONE_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_sample.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
