"""The pytest configuration of ``pyproject.toml`` keeps a failing property's
report.  Every ``DeprecationWarning`` is an error, except the one that
Hypothesis's failure report raises when it imports ``libcst``: without that
exception pytest stops with an internal error and the falsifying example is
lost."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None, derandomize=True)
def test_property_fails(x):
    assert x < 10


def test_other_deprecations_stay_errors():
    warnings.warn("another name is deprecated", DeprecationWarning)
'''


def test_a_failing_property_prints_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_property_fails(" in out, out
    assert "DeprecationWarning: another name is deprecated" in out, out
    assert proc.returncode == 1 and "2 failed" in out, out
