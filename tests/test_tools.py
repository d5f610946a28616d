"""The scripts under ``tools/`` run against the current tree.

They import signet directly, so an API change that breaks one of them
fails here rather than the next time someone runs it by hand.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, expect", [
    (["tools/step_memory.py", "cnn_td"], ("tape nodes", "traced peak step")),
    (["tools/code_lines.py"], ("total",)),
], ids=["step_memory", "code_lines"])
def test_tool_runs(argv, expect):
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for text in expect:
        assert text in proc.stdout, proc.stdout
