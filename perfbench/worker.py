"""One benchmark process: set up a workload, then time its operations in a
closed loop for ``--seconds`` and check every output.

Started by ``run.py`` with the BLAS thread variables already set.  It
prints ``READY`` when set-up (imports, inputs, one warm-up operation) is
done, so the parent can time set-up from process start, and as its last
line a JSON object with the raw figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)


def import_library():
    """Import skewltl from this checkout's ``src``, never from elsewhere."""
    import skewltl

    where = os.path.realpath(skewltl.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"skewltl imported from {where}, expected under {SRC}")
    return skewltl


def run_round(w, k, tracer=None):
    """One whole round of operations, indices ``k`` to ``k + round_size - 1``.

    Each operation is timed alone; its check runs after the clock stops.
    Returns (times, summaries kept for the reference comparison, failures).
    """
    times, summaries, failures = [], {}, []
    for k in range(k, k + w.round_size):
        out = None
        try:
            t0 = time.perf_counter()
            out = tracer.operation(k, w.op) if tracer else w.op(k)
            times.append(time.perf_counter() - t0)
            summaries[k] = w.check(k, out)
        except Exception as exc:  # a raising operation counts as failed
            failures.append((k, exc))
        out = None
    return times, summaries, failures


def compare_all(w, summaries):
    w.reference()
    failures = []
    for k, summary in summaries.items():
        try:
            w.compare(k, summary)
        except Exception as exc:
            failures.append((k, exc))
    return failures


def peak_rss_mib():
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _median(times):
    return statistics.median(times) if times else 0.0


def _report_failures(name, failures):
    for k, exc in failures[:5]:
        print(f"{name}: operation {k} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def measure(w, seconds):
    """Whole rounds until ``seconds`` have passed, then the comparisons."""
    times, summaries, failures, k = [], {}, [], 0
    deadline = time.perf_counter() + seconds
    while True:
        t, s, f = run_round(w, k)
        k += w.round_size
        times += t
        summaries.update(s)
        failures += f
        if time.perf_counter() >= deadline:
            break
    rss = peak_rss_mib()  # before the reference computations
    failures += compare_all(w, summaries)
    _report_failures(w.name, failures)
    return {"attempted": k, "failed": len({k for k, _ in failures}),
            "op_times": times, "peak_rss_mib": rss}


def trace(w, seconds, seed):
    """Alternate untraced and traced rounds for ``seconds``, so that both
    medians sample the same stretches of the run; the wrappers are
    installed only for the traced rounds."""
    import machine
    import numpy as np
    import tracing

    tracer = tracing.Tracer()
    times = {False: [], True: []}  # by whether the round was traced
    summaries, failures, k = {}, [], 0
    deadline = time.perf_counter() + seconds
    while True:
        for traced in (False, True):
            if traced:
                tracing.install_layer_wrappers(tracer)
            try:
                t, s, f = run_round(w, k, tracer if traced else None)
            finally:
                tracer.uninstall()
            times[traced] += t
            summaries.update(s)
            failures += f
            k += w.round_size
        if time.perf_counter() >= deadline:
            break
    failures += compare_all(w, summaries)
    _report_failures(w.name, failures)

    values = tracing.layer_metrics(tracer.spans, k // 2)
    rng = np.random.Generator(np.random.Philox(seed))
    values["machine.gemm_gflops"] = machine.gemm_gflops(rng, w.m, min(getattr(w, "b", 256), w.m // 2))
    values["machine.dpotrf_gflops"] = machine.dpotrf_gflops(rng, w.m)
    values["trace.op_p50_s"] = _median(times[True])
    values["trace.overhead_s"] = _median(times[True]) - _median(times[False])
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{w.name}-seed{seed}.json"), workload=w.name, seed=seed)
    return {"attempted": k, "failed": len({k for k, _ in failures}),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in tracing.UNITS.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import_library()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    w = workloads.make(args.workload, args.seed, args.smoke, outdir)
    # the traced run calls the CLI in process, in its untraced rounds too
    w.in_process = args.mode == "trace"
    try:
        w.setup()
        w.op(0)  # warm-up, untimed
        print("READY", flush=True)
        if args.mode == "measure":
            result = measure(w, args.seconds)
        else:
            result = trace(w, args.seconds, args.seed)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
