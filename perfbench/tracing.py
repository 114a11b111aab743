"""Spans recorded from outside the library, and the per-layer metrics
derived from them.

Wrappers are installed under the names the callers look up (for example
``skewltl.blocked.skew_tridiag_rankk``, which the blocked drivers call), so
nothing under ``src/`` changes.  Spans stay in memory and are written out
once at the end of the run.  A span's self time is its duration minus that
of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

import checks

MIB = 1024 * 1024
FIELDS = ("id", "name", "start", "end", "parent", "op", "attrs")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.op = None

    def call(self, name, fn, args, kwargs, attrs=None):
        rec = [len(self.spans), name, 0.0, 0.0,
               self._stack[-1] if self._stack else None, self.op, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            rec[6] = attrs(args, kwargs, result)
        return result

    def operation(self, k, fn):
        """Run one benchmark operation as a root span with op id ``k``."""
        self.op = k
        try:
            return self.call("op", fn, (k,), {})
        finally:
            self.op = None

    def install(self, module, attr, name, attrs=None):
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.call(name, orig, args, kwargs, attrs)

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def uninstall(self):
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    def write(self, path, **meta):
        with open(path, "w") as fh:
            json.dump({**meta, "fields": FIELDS, "spans": self.spans}, fh)


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _rankk_attrs(args, kwargs, result):
    n, k = _arg(args, kwargs, 2, "a").shape
    return {"flops": 2 * k * n * (n - 1) // 2 + 4 * k * n}


def _gemv_attrs(args, kwargs, result):
    from skewltl import kernels2

    a = _arg(args, kwargs, 2, "a")
    workers = _arg(args, kwargs, 6, "workers")
    fused = _arg(args, kwargs, 7, "fused", True)
    tail_from = _arg(args, kwargs, 8, "tail_from", 0)
    workers = kernels2.get_workers() if workers is None else max(1, workers)
    kept = a.shape[0] - tail_from
    # the kernel's fast path forms all rows of A z and discards the head
    full = fused and workers == 1 and tail_from > 0 and a.flags.f_contiguous
    return {"rows_kept": kept, "rows_computed": a.shape[0] if full else kept}


def _pivot_attrs(args, kwargs, result):
    block = _arg(args, kwargs, 0, "block")
    p = _arg(args, kwargs, 1, "p")
    n = block.shape[0]
    idx = checks.permutation(np.asarray(getattr(p, "pivots", p)), n)
    touched = np.flatnonzero(idx != np.arange(n))
    gathered = int(touched[-1] - touched[0] + 1) if touched.size else 0
    return {"rows_moved": int(touched.size), "rows_gathered": gathered}


def _driver_attrs(args, kwargs, result):
    fc = result.flops
    return {"level3": fc.level3, "panel": fc.panel, "level2": fc.level2,
            "pivot": fc.pivot, "nontrivial": result.p.nontrivial}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _cli_out_attrs(args, kwargs, result):
    argv = list(args[0])
    prefix = argv[argv.index("--out") + 1]
    return {"bytes": sum(os.path.getsize(prefix + s) for s in (".L.mtx", ".tau.txt", ".p.txt"))}


def install_layer_wrappers(tracer):
    """Wrap the public driver, kernel, apps, mmio and CLI functions."""
    from skewltl import apps, blocked, cli, mmio, unblocked

    plan = [
        (blocked, "skew_tridiag_rankk", "kernels3.skew_tridiag_rankk", _rankk_attrs),
        (unblocked, "skew_tridiag_gemv", "kernels2.skew_tridiag_gemv", _gemv_attrs),
        (blocked, "skew_rank2", "kernels2.skew_rank2", None),
        (blocked, "apply_row_pivots", "kernels2.apply_row_pivots", _pivot_attrs),
        (blocked, "ltlt_blk_var2b", "blocked.ltlt_blk_var2b", _driver_attrs),
        (blocked, "ltlt_blk_piv", "blocked.ltlt_blk_piv", _driver_attrs),
        (apps, "ltlt_blk_piv", "blocked.ltlt_blk_piv", _driver_attrs),
        (cli, "ltlt_blk_piv", "blocked.ltlt_blk_piv", _driver_attrs),
        (apps, "pfaffian", "apps.pfaffian", None),
        (apps, "solve", "apps.solve", None),
        (mmio, "mm_write", "mmio.mm_write", _file_attrs),
        (cli, "mm_read", "mmio.mm_read", _file_attrs),
        (cli, "main", "cli.main", _cli_out_attrs),
        (cli, "run_variant", "cli.run_variant", None),
        (cli, "residual_norm", "cli.residual_norm", None),
        (cli, "reconstruct", "core.reconstruct", None),
    ]
    for module, attr, name, attrs in plan:
        tracer.install(module, attr, name, attrs)


# name -> unit of every per-layer metric, in report order
UNITS = {
    "kernels3.rankk_s": "s", "kernels3.rankk_gflops": "GF/s", "kernels3.rankk_calls": "count",
    "kernels2.gemv_s": "s", "kernels2.gemv_calls": "count", "kernels2.gemv_rows_kept_ratio": "ratio",
    "kernels2.rank2_s": "s", "kernels2.row_pivots_s": "s",
    "kernels2.row_pivots_rows_moved_ratio": "ratio",
    "blocked.factor_s": "s", "blocked.self_s": "s", "blocked.flops_level3": "count",
    "blocked.flops_panel": "count", "blocked.flops_level2": "count",
    "core.pivot_elements": "count", "core.nontrivial_pivots": "count",
    "apps.pfaffian_s": "s", "apps.solve_s": "s", "apps.factor_s": "s", "apps.self_s": "s",
    "apps.factorizations_per_op": "count",
    "mmio.read_s": "s", "mmio.read_mib_per_s": "MiB/s", "mmio.write_s": "s",
    "mmio.write_mib_per_s": "MiB/s",
    "cli.factor_s": "s", "cli.residual_s": "s", "cli.self_s": "s", "cli.output_mib": "MiB",
    "machine.gemm_gflops": "GF/s", "machine.dpotrf_gflops": "GF/s",
    "trace.op_p50_s": "s", "trace.overhead_s": "s",
}


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, n_ops):
    """Per-layer figures from the spans of ``n_ops`` traced operations.

    Kernel, apps-factor and CLI times are seconds per operation; driver,
    Pfaffian, solve and Matrix Market times are seconds per call.  A layer
    that did not run reports 0.
    """
    dur = [s[3] - s[2] for s in spans]
    child_time = defaultdict(float)
    for s, d in zip(spans, dur):
        if s[4] is not None:
            child_time[s[4]] += d
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def busy(*names):
        return sum(dur[s[0]] for n in names for s in by_name[n])

    def total(name, key):
        return sum(s[6][key] for s in by_name[name])

    rankk = by_name["kernels3.skew_tridiag_rankk"]
    gemv = by_name["kernels2.skew_tridiag_gemv"]
    drivers = by_name["blocked.ltlt_blk_var2b"] + by_name["blocked.ltlt_blk_piv"]
    nd = len(drivers)
    apps_spans = by_name["apps.pfaffian"] + by_name["apps.solve"]
    apps_ids = {s[0] for s in apps_spans}
    apps_factor = [s for s in drivers if s[4] in apps_ids]
    reads, writes = by_name["mmio.mm_read"], by_name["mmio.mm_write"]
    cli_parts = ("mmio.mm_read", "cli.run_variant", "cli.residual_norm")
    cli_self = 0.0
    for s in by_name["cli.main"]:
        cli_self += dur[s[0]] - sum(dur[c[0]] for n in cli_parts for c in by_name[n] if c[4] == s[0])
    rankk_busy = busy("kernels3.skew_tridiag_rankk")
    return {
        "kernels3.rankk_s": rankk_busy / n_ops,
        "kernels3.rankk_gflops": _div(total("kernels3.skew_tridiag_rankk", "flops"), rankk_busy) / 1e9,
        "kernels3.rankk_calls": len(rankk) / n_ops,
        "kernels2.gemv_s": busy("kernels2.skew_tridiag_gemv") / n_ops,
        "kernels2.gemv_calls": len(gemv) / n_ops,
        "kernels2.gemv_rows_kept_ratio": _div(total("kernels2.skew_tridiag_gemv", "rows_kept"),
                                              total("kernels2.skew_tridiag_gemv", "rows_computed")),
        "kernels2.rank2_s": busy("kernels2.skew_rank2") / n_ops,
        "kernels2.row_pivots_s": busy("kernels2.apply_row_pivots") / n_ops,
        "kernels2.row_pivots_rows_moved_ratio": _div(total("kernels2.apply_row_pivots", "rows_moved"),
                                                     total("kernels2.apply_row_pivots", "rows_gathered")),
        "blocked.factor_s": _div(sum(dur[s[0]] for s in drivers), nd),
        "blocked.self_s": _div(sum(dur[s[0]] - child_time[s[0]] for s in drivers), nd),
        "blocked.flops_level3": _div(sum(s[6]["level3"] for s in drivers), nd),
        "blocked.flops_panel": _div(sum(s[6]["panel"] for s in drivers), nd),
        "blocked.flops_level2": _div(sum(s[6]["level2"] for s in drivers), nd),
        "core.pivot_elements": _div(sum(s[6]["pivot"] for s in drivers), nd),
        "core.nontrivial_pivots": _div(sum(s[6]["nontrivial"] for s in drivers), nd),
        "apps.pfaffian_s": _div(busy("apps.pfaffian"), len(by_name["apps.pfaffian"])),
        "apps.solve_s": _div(busy("apps.solve"), len(by_name["apps.solve"])),
        "apps.factor_s": sum(dur[s[0]] for s in apps_factor) / n_ops,
        "apps.self_s": sum(dur[s[0]] - child_time[s[0]] for s in apps_spans) / n_ops,
        "apps.factorizations_per_op": len(apps_factor) / n_ops,
        "mmio.read_s": _div(busy("mmio.mm_read"), len(reads)),
        "mmio.read_mib_per_s": _div(total("mmio.mm_read", "bytes") / MIB, busy("mmio.mm_read")),
        "mmio.write_s": _div(busy("mmio.mm_write"), len(writes)),
        "mmio.write_mib_per_s": _div(total("mmio.mm_write", "bytes") / MIB, busy("mmio.mm_write")),
        "cli.factor_s": busy("cli.run_variant") / n_ops,
        "cli.residual_s": busy("cli.residual_norm") / n_ops,
        "cli.self_s": cli_self / n_ops,
        "cli.output_mib": total("cli.main", "bytes") / MIB / n_ops,
    }
