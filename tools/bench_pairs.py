"""Compare two checkouts with the benchmark in ABBA pairs and write a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \\
        --title "..." --first-seed 2400 [--parent-sha SHA] [--change-sha SHA] \\
        [--tier1-log FILE]

For each workload of the change's ``BENCHMARK.json``, each of 10 pairs runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0``, with T its
``run_seconds``, once in each checkout, each in a fresh process from the
checkout's root: pair i runs the parent first when i is even and the change
first when i is odd. Seeds are ``first_seed + 100 * k + i`` for the k-th
workload, so both sides of a pair see the same inputs. Run it with nothing
else running on the host.

The file records every run's end-to-end metrics, and per metric each side's
median and IQR (numpy's linear percentiles), the change's median over the
parent's, and the pairs the change won in the metric's better direction.
The environment holds the BLAS name, thread count and core name (read
through ctypes from the OpenBLAS numpy loads), numpy and Python versions,
nproc, and numpy's SIMD dispatch: its baseline, its dispatch targets, the
CPU features it enables and ``NPY_DISABLE_CPU_FEATURES``, all of which the
bits of a training step, and so ``train_loss``, can depend on.
``--tier1-log`` adds the pass count, wall time and slowest three entries of
a ``pytest --durations`` log of the change.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import re
import subprocess
import sys
import time

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its info line, result line and wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"info": info["info"], "result": result, "wall_s": wall}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians and IQRs of each side and the change's paired wins."""
    out = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = np.percentile(runs, [25, 50, 75])
        out[side] = {"median": float(median), "q1": float(q1), "q3": float(q3),
                     "iqr": float(q3 - q1), "n": len(runs)}
    sign = 1.0 if better == "higher" else -1.0
    out["change_over_parent"] = (out["change"]["median"] / out["parent"]["median"]
                                 if out["parent"]["median"] else None)
    out["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out["ties"] = sum(c == p for p, c in zip(parent, change))
    out["pairs"] = len(parent)
    return out


def blas_core() -> str | None:
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def environment(info: dict) -> dict:
    """The BENCH environment record, from a run's info line and from numpy in
    this process, whose interpreter and environment the runs inherit."""
    from numpy._core import _multiarray_umath as umath

    return {
        "blas": info["blas"], "blas_threads": info["blas_threads"], "blas_core": blas_core(),
        "numpy": info["numpy"], "python": platform.python_version(), "nproc": info["nproc"],
        "numpy_cpu_baseline": list(umath.__cpu_baseline__),
        "numpy_cpu_dispatch": list(umath.__cpu_dispatch__),
        "numpy_cpu_features": [name for name, on in umath.__cpu_features__.items() if on],
        "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES"),
    }


def tier1(log_path: str) -> dict:
    with open(log_path) as fh:
        text = fh.read()
    found = re.search(r"(\d+) passed.* in ([\d.]+)s", text)
    slowest = [line.strip() for line in text.splitlines()
               if re.match(r"\s*[\d.]+s (setup|call|teardown) ", line)][:3]
    return {"passed": int(found[1]) if found else None,
            "wall_s": float(found[2]) if found else None, "slowest": slowest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--parent-sha")
    parser.add_argument("--change-sha")
    parser.add_argument("--tier1-log")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    report = {
        "title": args.title,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "design": "ABBA pairs: pair i runs the parent first when i is even and the change "
                  "first when i is odd; each run in a fresh process from the root of its own "
                  "checkout, nothing else running.",
        "parent": {"git_sha": args.parent_sha},
        "change": {"git_sha": args.change_sha},
        "environment": {},
        "workloads": {},
    }
    for k, workload in enumerate(w["name"] for w in bench["workloads"]):
        seeds = [args.first_seed + 100 * k + i for i in range(PAIRS)]
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                run = run_once(trees[side], workload, seed, seconds)
                runs[side].append(run)
                metrics = run["result"]["metrics"]
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{name} {m['value']:.4g}" for name, m in metrics.items()), flush=True)
        report["environment"] = environment(runs["change"][0]["info"])
        metrics = {}
        for m in bench["end_to_end"]:
            values = {side: [r["result"]["metrics"][m["name"]]["value"] for r in runs[side]]
                      for side in SIDES}
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                  **summarize(values["parent"], values["change"], m["better"]),
                                  "parent_runs": values["parent"], "change_runs": values["change"]}
        report["workloads"][workload] = {
            "workload": workload,
            "seeds": seeds,
            "inputs_sha256": {seed: runs["change"][i]["info"]["inputs_sha256"]
                              for i, seed in enumerate(seeds)},
            "samples": {f"{seed}/{side}": runs[side][i]["info"]["samples"]
                        for i, seed in enumerate(seeds) for side in SIDES},
            "correct": all(r["result"]["correct"] for side in SIDES for r in runs[side]),
            "attempted": {side: sum(r["result"]["attempted"] for r in runs[side]) for side in SIDES},
            "failed": {side: sum(r["result"]["failed"] for r in runs[side]) for side in SIDES},
            "run_wall_s": {side: float(np.median([r["wall_s"] for r in runs[side]]))
                           for side in SIDES},
            "metrics": metrics,
        }
    if args.tier1_log:
        report["tier1"] = {"command": "python -m pytest -q -W error::RuntimeWarning --durations=5",
                           "tree": "change",
                           **tier1(args.tier1_log)}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
