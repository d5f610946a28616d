"""Run one signet benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload train --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` of the current directory; the run
fails, printing no result, when there is none. Inputs are generated from
``--seed`` under ``.perfbench_work/`` and removed afterwards. The line
before the last one records the environment and the input digest; the last
line is the result: end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

WORKLOADS = ("train", "grade_from_file")


def _pin_blas_threads() -> tuple[int, int]:
    """Fix the BLAS pool before numpy loads: min(2, cpus), never above nproc."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def _git_sha(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _metrics(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "signet", "__init__.py")):
        print(f"error: no src/signet under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    nproc, threads = _pin_blas_threads()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    import tracer
    import workloads

    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        run = workloads.Run(args.workload, args.seed, workloads.FULL, work_dir,
                            tracer=tracer.Tracer() if args.trace else None)
        digest = run.write_inputs()
        workloads.run_workload(run, args.seconds)
        metrics = workloads.per_layer(run) if args.trace else run.end_to_end()
        if args.trace:
            print(workloads.arch_table(run), file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": digest,
        "samples": run.samples(),
        "blas": _blas_name(np),
        "blas_threads": threads,
        "nproc": nproc,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": _metrics(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
