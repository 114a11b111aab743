"""skewltl benchmark: one closed-loop client per workload, timed from outside.

    python3 perfbench/run.py --workload factor-4096 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (op_p50_s, setup_s, peak_rss_mib); with ``--trace 1``
the per-layer metrics of a traced run.  ``--workload all`` runs every
workload in turn, and ``--smoke`` runs them at small m in seconds.

Set-up is timed from process start, so each run starts several fresh
worker processes one after another, each measuring for an equal share of
``--seconds``, and reports the median set-up and the median over all
their timed operations.
Every worker runs with one BLAS thread and OMP_NUM_THREADS=1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("factor-4096", "piv-3000", "apps-1000", "cli-mtx-1000")
# Measuring workers per run; setup_s is the median of their set-ups.
SETUPS = {"factor-4096": 3, "piv-3000": 3, "apps-1000": 5, "cli-mtx-1000": 5}
# One BLAS thread repeats better than two on a 2-core machine shared with
# other work; OMP_NUM_THREADS=1 also keeps kernels2's Python pool and the
# CLI's --threads default at one worker.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every worker of one run must finish within this many seconds.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def start_worker(args, mode, seconds, deadline):
    """Start a worker; return (process, seconds until it reported READY)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode] + (["--smoke"] if args.smoke else [])
    t0 = time.perf_counter()
    # a session of its own, so the deadline also stops the CLI child processes
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=_worker_env(), start_new_session=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_session, (proc,))
    timer.start()
    proc.timer = timer
    try:
        line = proc.stdout.readline()
    except BaseException:  # interrupted while the worker sets up
        _stop(proc)
        raise
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc)
        raise WorkerError(f"{args.workload} worker ({mode}) exited {proc.returncode} before set-up ended")
    return proc, setup


def _kill_session(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop(proc):
    """Kill the worker's session unless the worker has ended, and reap it."""
    if proc.poll() is None:
        _kill_session(proc)
    proc.wait()
    proc.timer.cancel()
    proc.stdout.close()


def finish(proc):
    """Wait for the worker; return the JSON object on its last output line."""
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_untraced(args, deadline):
    """Measure in fresh workers one after another, each for an equal share
    of the run, so that set-ups and timed operations spread over the whole
    run and average over more of the machine's slow and fast phases."""
    n = SETUPS[args.workload]
    setups, times, rss, attempted, failed = [], [], [], 0, 0
    for _ in range(n):
        proc, seconds = start_worker(args, "measure", args.seconds / n, deadline)
        raw = finish(proc)
        setups.append(seconds)
        times += raw["op_times"]
        rss.append(raw["peak_rss_mib"])
        attempted += raw["attempted"]
        failed += raw["failed"]
    op_p50 = statistics.median(times) if times else 0.0
    setup = statistics.median(setups)
    print(f"{args.workload}: op_p50_s {op_p50:.4f} s over {len(times)} operations, "
          f"setup_s {setup:.4f} s (median of {n}: " + ", ".join(f"{s:.3f}" for s in setups)
          + f"), peak_rss_mib {max(rss):.1f} MiB, attempted {attempted}, failed {failed}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"op_p50_s": {"value": op_p50, "unit": "s"},
                        "setup_s": {"value": setup, "unit": "s"},
                        "peak_rss_mib": {"value": max(rss), "unit": "MiB"}}}


def run_traced(args, deadline):
    proc, _ = start_worker(args, "trace", args.seconds, deadline)
    raw = finish(proc)
    m = raw["metrics"]
    print(f"{args.workload}: traced op_p50_s {m['trace.op_p50_s']['value']:.4f} s, tracing overhead "
          f"{m['trace.overhead_s']['value']:+.4f} s, attempted {raw['attempted']}, "
          f"failed {raw['failed']}")
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": m}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "skewltl", "__init__.py")):
        print(f"error: no skewltl sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile first, so the first set-up in a fresh checkout is not slower
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    # SIGTERM unwinds like Ctrl-C, so the running worker is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = (run_traced if args.trace else run_untraced)(args, deadline)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
