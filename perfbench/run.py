#!/usr/bin/env python3
"""Benchmark of the transportbc package: one workload per invocation.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload refine --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for inputs, checks and why each exists):
``refine`` (time stepping), ``spectra`` (transition-matrix analysis) and
``cli`` (many short command-line calls).

The package is imported from ``src/`` of the current directory in fresh
interpreters (``worker.py``) with the BLAS thread count pinned.  Set-up
is measured in several separate interpreters, each against reference
interpreters started around it; the timed passes run in one more, each
operation against a reference kernel run around it.  Both are reported
at the reference speed (``REFERENCE_SETUP_S``, ``worker.REFERENCE_S``).
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``peak_rss_mb``, ``ok_frac``); with ``--trace 1`` they are the
per-layer ones from traced passes.  The line before it records the seed,
the pinned environment and the raw samples.  Trace files are written to
``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"

# One BLAS thread: the package's kernels are mostly Python-level loops over
# small matrices, and a single thread keeps timings steady on a shared
# machine.  Never more than the cores available.
BLAS_THREADS = 1
SETUP_PROBES = 8
# Median time of a reference interpreter (``worker.py --mode reference``,
# which stops after its imports, numpy among them) on the machine the
# benchmark was defined on (x86_64, 2 vCPU, Python 3.11, numpy 2.4), so
# that ``setup_s`` reads as seconds at its usual speed.
REFERENCE_SETUP_S = 0.15
TIME_LIMIT_S = 170.0  # the whole invocation must end within 180 s


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, mode: str, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--outdir", OUT_DIR]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)
    return json.loads(proc.stdout)


def reference_setup(setups: list[float], references: list[float]) -> float:
    """Set-up seconds at the reference speed.

    Fresh interpreters on the shared machine this benchmark was built on
    start up to 1.5x slower for minutes at a time (page faults and CPU
    speed alike), so each set-up is divided by the mean of the reference
    interpreters run just before and just after it; the median ratio
    times ``REFERENCE_SETUP_S`` is reported.
    """
    ratios = [2.0 * s / (before + after) for s, before, after
              in zip(setups, references, references[1:])]
    return REFERENCE_SETUP_S * statistics.median(ratios)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("refine", "spectra", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "transportbc",
                                       "__init__.py")):
        print("error: no src/transportbc here; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = pinned_env(root)

    try:
        setups, references = [], []
        if not args.trace:
            references.append(worker(args, "reference", env, 60.0)["setup_s"])
            for _ in range(SETUP_PROBES):
                setups.append(worker(args, "setup", env, 60.0)["setup_s"])
                references.append(
                    worker(args, "reference", env, 60.0)["setup_s"])
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        run = worker(args, "measure", env, remaining)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    for line in run["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in run["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": reference_setup(setups, references),
                        "unit": "s"},
            "wall_s": {"value": run["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted,
                        "unit": "ratio"},
        }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **run["env"],
              "setup_samples_s": setups, "reference_samples_s": references,
              "pass_s": run["pass_s"],
              "median_pass_s": run["median_pass_s"],
              "median_kernel_s": run["median_kernel_s"],
              "op_reference_s": run["op_reference_s"],
              "traced_pass_s": run.get("traced_pass_s"),
              "per_call": run.get("baseline")}
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
