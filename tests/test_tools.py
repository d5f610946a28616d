"""The scripts under ``tools/`` run against the current tree.

They import signet directly, so an API change that breaks one of them
fails here rather than the next time someone runs it by hand.
"""

import importlib.util
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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_counts_wins_in_the_better_direction():
    bench_pairs = _bench_pairs()
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 2.0, 1.0, 6.0, 7.0]
    higher = bench_pairs.summarize(parent, change, "higher")
    assert higher["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0, "n": 5}
    assert (higher["change_wins"], higher["ties"], higher["pairs"]) == (3, 1, 5)
    assert higher["change_over_parent"] == 2.0 / 3.0
    lower = bench_pairs.summarize(parent, change, "lower")
    assert (lower["change_wins"], lower["ties"]) == (1, 1)


def test_bench_pairs_reads_a_durations_log(tmp_path):
    log = tmp_path / "tier1.log"
    log.write_text("....\n=== slowest 5 durations ===\n"
                   "118.89s setup    tests/a.py::t\n17.56s call     tests/b.py::t\n"
                   "11.00s setup    tests/c.py::t\n5.21s call     tests/d.py::t\n"
                   "646 passed in 180.87s (0:03:00)\n")
    got = _bench_pairs().tier1(str(log))
    assert got == {"passed": 646, "wall_s": 180.87, "slowest": [
        "118.89s setup    tests/a.py::t", "17.56s call     tests/b.py::t",
        "11.00s setup    tests/c.py::t"]}


def test_bench_pairs_environment_records_blas_and_numpy_dispatch(monkeypatch):
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR")
    info = {"blas": "scipy-openblas", "blas_threads": 2, "numpy": "2.4.6", "nproc": 2}
    env = _bench_pairs().environment(info)
    assert set(env) == {"blas", "blas_threads", "blas_core", "numpy", "python", "nproc",
                        "numpy_cpu_baseline", "numpy_cpu_dispatch", "numpy_cpu_features",
                        "NPY_DISABLE_CPU_FEATURES"}
    assert {k: env[k] for k in info} == info
    assert env["NPY_DISABLE_CPU_FEATURES"] == "AVX512_SPR"
    for key in ("numpy_cpu_baseline", "numpy_cpu_dispatch", "numpy_cpu_features"):
        assert all(isinstance(name, str) for name in env[key]), key
    assert set(env["numpy_cpu_baseline"]) <= set(env["numpy_cpu_features"])
