"""One benchmark process: set up a workload, then time checked passes.

Started by ``run.py`` in a fresh interpreter with the BLAS thread count
pinned and ``src`` on ``PYTHONPATH``; prints one JSON object on stdout.

``--mode setup`` stops once the workload is ready and reports the set-up
time, counted from the first line of this file, before numpy and the
package are imported.  ``--mode reference`` stops after the imports of
this file: its time is the yardstick ``run.py`` divides set-up times by.
``--mode measure`` computes the oracle's expected values (untimed) and
runs passes until ``--seconds`` have passed.  With ``--trace 1``
untraced and traced passes alternate, and the per-layer figures come
from the traced ones.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

# The shared machine this benchmark was built on runs the same code up to
# 1.6x slower for seconds to minutes at a time, on both cores at once, so
# neither the median pass nor each operation's fastest time repeats from
# run to run.  Every operation is therefore timed against a reference
# kernel run just before and just after it: the ratio cancels the
# machine's current speed.  ``REFERENCE_S`` converts ratios back to
# seconds; it is the kernel's median time on that machine (x86_64, 2 vCPU,
# Python 3.11, numpy 2.4 on one OpenBLAS thread), so ``wall_s`` reads as
# seconds at its usual speed.
REFERENCE_S = 1.0e-3
KERNEL_MATRIX = np.random.default_rng(0).standard_normal((60, 60)) / 10.0
KERNEL_S: list[float] = []  # every kernel time of the run, for the record


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy
    products, like the package's own loops; shares no code with it."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    x = np.ones(60)
    for _ in range(100):
        x = KERNEL_MATRIX @ x
        x = x / np.sqrt(np.dot(x, x))
    return time.perf_counter() - start


def run_pass(ops, tracer=None):
    """Run every operation once, each between two runs of the reference
    kernel; returns (op seconds, op / kernel ratios, failed, problems)."""
    gc.collect()
    failed = 0
    problems = []
    op_s, ratios = [], []
    before = reference_kernel()
    KERNEL_S.append(before)
    for op_id, (label, thunk) in enumerate(ops):
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        try:
            bad = thunk()
        except Exception as exc:  # a failing operation is counted, not fatal
            bad = [f"{type(exc).__name__}: {exc}"]
        op_s.append(time.perf_counter() - start)
        after = reference_kernel()
        KERNEL_S.append(after)
        ratios.append(2.0 * op_s[-1] / (before + after))
        before = after
        if bad:
            failed += 1
            problems.append(f"{label}: {'; '.join(bad)}")
    return op_s, ratios, failed, problems


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


def measure(workload, args) -> dict:
    workload.expect()
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.outdir)
    try:
        return timed_passes(workload.ops(scratch), args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def timed_passes(ops, args) -> dict:
    import tracer as tracing

    # per pass: seconds of each op, and each op's ratio to the kernel
    plain, plain_ratio, traced, traced_ratio, summaries = [], [], [], [], []
    attempted = failed = 0
    problems = []
    shapes: dict[str, list[float]] = {}
    tracer = tracing.Tracer() if args.trace else None
    # A pass starts only if it should end within --seconds, judged by the
    # latest pass of its kind, so that no run overruns by a whole pass.
    latest = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        begin = time.perf_counter()
        required = not plain or (use_trace and not traced)
        if not required and begin + latest[use_trace] - start > args.seconds:
            break
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                op_s, ratios, bad, why = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            traced.append(op_s)
            traced_ratio.append(ratios)
            summary = tracer.summarize()
            summaries.append(summary)
            for key, vals in tracer.shape_durations().items():
                shapes.setdefault(key, []).extend(vals)
            attempted += 1
            if not summary["consistent"]:
                bad += 1
                why.append(f"trace bookkeeping: {summary['negative_self']} "
                           "negative self times or self times not summing "
                           "to the traced op time")
        else:
            op_s, ratios, bad, why = run_pass(ops)
            plain.append(op_s)
            plain_ratio.append(ratios)
        latest[use_trace] = time.perf_counter() - begin
        attempted += len(ops)
        failed += bad
        problems += why
    pass_s = [sum(op_s) for op_s in plain]
    result = {"attempted": attempted, "failed": failed,
              "problems": problems[:20], "pass_s": pass_s,
              "median_pass_s": statistics.median(pass_s),
              "median_kernel_s": statistics.median(KERNEL_S),
              "wall_s": reference_pass(plain_ratio),
              "op_reference_s": {
                  label: REFERENCE_S * statistics.median(r) for (label, _), r
                  in zip(ops, zip(*plain_ratio))},
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["traced_pass_s"] = [sum(op_s) for op_s in traced]
        result["per_layer"] = per_layer(summaries)
        result["per_layer"]["trace.overhead_s"] = \
            reference_pass(traced_ratio) - reference_pass(plain_ratio)
        stem = os.path.join(args.outdir, f"{args.workload}-seed{args.seed}")
        tracer.write_spans(stem + "-spans.csv")
        result["baseline"] = tracing.median_per_call(shapes)
        with open(stem + "-trace.json", "w") as fh:
            json.dump({"per_layer": result["per_layer"],
                       "per_call": result["baseline"],
                       "spans": summaries[-1]["spans"],
                       "traced_op_time_s": summaries[-1]["op_s"]}, fh,
                      indent=1)
    return result


def reference_pass(ratios: list[list[float]]) -> float:
    """Seconds of one pass at the reference speed: the sum over operations
    of each one's median ratio to the reference kernel, times
    ``REFERENCE_S``."""
    return REFERENCE_S * sum(statistics.median(r) for r in zip(*ratios))


def per_layer(summaries) -> dict:
    """Medians over the traced passes of each layer's figures."""
    med = statistics.median
    out = {}
    for name in summaries[0]["self_s"]:
        out[f"{name}.self_s"] = med(s["self_s"][name] for s in summaries)
        out[f"{name}.calls"] = statistics.median_low(
            s["calls"][name] for s in summaries)
    for name in summaries[0]["counts"]:
        out[name] = statistics.median_low(s["counts"][name] for s in summaries)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("reference", "setup", "measure"),
                        required=True)
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args()

    if args.mode == "reference":
        json.dump({"setup_s": time.perf_counter() - T0}, sys.stdout)
        return 0
    import workloads  # imports the package

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    result = {"setup_s": time.perf_counter() - T0, "env": environment()}
    if args.mode == "measure":
        result.update(measure(workload, args))
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
