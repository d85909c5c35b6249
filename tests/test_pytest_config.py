"""The repository's pytest configuration reports every test, failing hypothesis tests included."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_is_reported_and_the_next_one_runs(tmp_path):
    """Under filterwarnings = error, a warning that hypothesis' plugin raises
    while it reports a falsified @given test must not end the session."""
    (tmp_path / "test_demo.py").write_text(_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_demo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
