"""Yardsticks timed on the same machine at the same BLAS thread count:
a numpy GEMM at the trailing-update shape and LAPACK Cholesky (dpotrf)."""

from __future__ import annotations

import statistics
import time

import numpy as np

REPS = 3


def _median_seconds(fn):
    fn()  # warm-up
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def gemm_gflops(rng, m, b):
    """(m-b-1) x (b+1) times (b+1) x (m-b-1), the shape of the first
    trailing sandwich of ltlt_blk_var2b, rated on 2 n^2 k flops."""
    n, k = m - b - 1, b + 1
    a = np.asfortranarray(rng.standard_normal((n, k)))
    bt = np.ascontiguousarray(rng.standard_normal((k, n)))
    return 2 * n * n * k / _median_seconds(lambda: a @ bt) / 1e9


def dpotrf_gflops(rng, m):
    """scipy.linalg.lapack.dpotrf on an m x m SPD matrix, rated on m^3/3."""
    from scipy.linalg.lapack import dpotrf

    g = rng.standard_normal((m, m))
    spd = np.asfortranarray(0.5 * (g + g.T) + m * np.eye(m))
    del g

    def factor():
        _c, info = dpotrf(spd, lower=1, clean=0, overwrite_a=0)
        if info != 0:
            raise RuntimeError(f"dpotrf info={info}")

    return m ** 3 / 3 / _median_seconds(factor) / 1e9
