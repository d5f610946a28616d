"""The benchmark's own smoke test runs against the current tree.

``perfbench/`` drives signet only through public names (``save_model``'s
signature, ``ParameterStore.names``, ``tensor.__all__`` against the traced
op list), so an API change that breaks the benchmark fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
