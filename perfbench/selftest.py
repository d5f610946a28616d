"""Smoke test of the benchmark itself, at a tiny input size.

    python3 perfbench/selftest.py      (from the root of a checkout)

For every workload, untraced and traced, it checks that the run is correct
and reports exactly the metrics BENCHMARK.json names, with their units.
It also checks that a rerun with the same seed repeats ``train_loss``
exactly, and that a model file with one flipped byte counts as one failed
grade rather than crashing the run. Exits 1 on any failure.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import sys
import tempfile

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from signet import tensor  # noqa: E402

import run as runner  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def tiny_run(workload: str, seed: int, trace: bool, scratch: str):
    run = workloads.Run(workload, seed, workloads.TINY, tempfile.mkdtemp(dir=scratch),
                        tracer=tracer.Tracer() if trace else None)
    run.write_inputs()
    workloads.run_workload(run, seconds=0.0)
    return run, workloads.per_layer(run) if trace else run.end_to_end()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    helpers = {"astensor", "record", "backward", "grad_check"}
    ops = {n for n in tensor.__all__
           if inspect.isfunction(getattr(tensor, n)) and n not in helpers}
    if ops != set(tracer.TENSOR_OPS):
        failures.append(f"traced ops {sorted(tracer.TENSOR_OPS)} != tensor ops {sorted(ops)}")

    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=work, prefix="selftest-")
    try:
        for workload in runner.WORKLOADS:
            for trace in (False, True):
                run, metrics = tiny_run(workload, 1, trace, scratch)
                where = f"{workload} trace={int(trace)}"
                got = {name: unit for name, (_, unit) in metrics.items()}
                if got != expected[trace]:
                    failures.append(f"{where}: metric names/units differ from BENCHMARK.json: "
                                    f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
                if not run.correct:
                    failures.append(f"{where}: not correct: {run.problems}")
                if not trace and not all(value > 0 for value, _ in metrics.values()):
                    failures.append(f"{where}: a metric is not positive: {metrics}")

        first = tiny_run("train", 3, False, scratch)[1]["train_loss"]
        again = tiny_run("train", 3, False, scratch)[1]["train_loss"]
        if first != again:
            failures.append(f"train_loss {first} then {again} for the same seed")

        run, _ = tiny_run("grade_from_file", 1, False, scratch)
        path = run.model_path("cnn_td", run.sizes.preprocess)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        failed = run.failed
        label = run.grade_unit("cnn_td", path, run.attempts[0])
        if label is not None or run.failed != failed + 1:
            failures.append("a grade from a corrupted model file did not count as one failure")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass  # a benchmark run still uses it

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
