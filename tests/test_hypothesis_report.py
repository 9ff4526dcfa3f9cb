"""A failing hypothesis test reports its falsifying example, and the tests
after it still run, under this repository's pytest configuration.

`filterwarnings` in pyproject.toml turns warnings into errors.  When a
test fails, hypothesis's pytest plugin warns from its report hook; as an
error that warning would end the session with an INTERNALERROR, before
the example shows and before the next test runs.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODULE = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_later():
    pass
"""


def test_a_failing_example_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_failing.py").write_text(MODULE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    report = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in report, report
    assert "Falsifying example: test_fails(" in report, report
    assert "1 failed, 1 passed" in report, report
