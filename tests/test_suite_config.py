"""The suite's own pytest configuration reports a failing property test as
a failure: turning warnings into errors must not turn the report of a
failed ``@given`` test into an internal error that stops the run."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_every_integer_is_negative(x):
    assert x < 0
'''


def test_a_failing_given_test_is_reported_as_a_failure(tmp_path):
    """Hypothesis's failure report imports its patch writer, which warns
    on import; under ``filterwarnings = ["error"]`` alone that warning
    ended the session with INTERNALERROR."""
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out
    assert "INTERNALERROR" not in out
