"""The suite's own pytest settings: a warning fails its test, but a
failing property test is reported like any other failure."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    # hypothesis warns (DeprecationWarning) while it reports a failure;
    # under filterwarnings = ["error"] alone that ended the session with
    # an INTERNALERROR and left every later test unrun
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(PROBE))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    argv += ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
