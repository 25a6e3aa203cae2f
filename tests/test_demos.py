"""Every script in demos/ and every fenced ``python`` block of README.md
runs to completion against the library in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S
)


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(  # -W error: warnings fail here as they do in the suite
        [sys.executable, "-W", "error", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))]
)
def test_readme_block_runs(block, tmp_path):
    result = run_python(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr
