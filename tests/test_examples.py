"""Smoke tests: every example script must run cleanly end to end.

Each script runs as ``python examples/<name>.py`` would: in a fresh
interpreter with ``src`` on ``PYTHONPATH``, so a module the test session
already imported cannot hide a broken import, and a hung example fails
on the timeout instead of stalling the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: Per-script wall-clock limit; the slowest example takes a few seconds.
TIMEOUT_S = 120


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, f"{script.name} exited {proc.returncode}:\n{proc.stderr}"
    assert proc.stdout.strip(), f"{script.name} printed nothing"


def test_examples_exist():
    assert len(EXAMPLES) >= 3, "the deliverable requires at least three examples"
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
