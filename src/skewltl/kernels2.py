"""Fused level-2 kernels and pivot-row application.

Kernels update numpy views in place and are dtype-agnostic (exact scalars
flow through).  As in ``kernels3``, beta is applied once and alpha times
the product accumulated after it, so with beta = 1 each stored output entry
is touched exactly once per call, with beta = 0 no value already in the
output is read, and with alpha = 0 no operand value reaches the output.
The rank-2 updates run on the block-column sweep of ``kernels3`` with
k = 1, and row pivots are one BLAS ``?laswp``.  The Python layer is
single-threaded; any parallelism is the BLAS's own.  Callers must not alias
a kernel's output with any of its inputs.
"""

from __future__ import annotations

import numpy as np

from . import _blas, instrument
from .core import SkewTridiagonal, _pack_t, _swap_order, invert_permutation
from .kernels3 import _check_product, _scale, _skew_sweep, _sweep


def get_workers():
    """Always 1: the Python layer is single-threaded.  BLAS threads come from
    OPENBLAS_NUM_THREADS / OMP_NUM_THREADS at process start."""
    return 1


def skew_rank2(a, alpha, x, y, beta=1):
    """A := beta*A + alpha*(x y^T - y x^T), strictly-lower triangle only.

    ``a`` is an n x n lower-storage view; nothing at or above its diagonal
    is read or written.
    """
    n = a.shape[0]
    if a.shape[1] != n or len(x) != n or len(y) != n:
        raise ValueError("dimension mismatch")
    _check_product(a, "A", alpha, beta, x, y)
    instrument.record_call("skew_rank2")
    instrument.add_flops("level2", 2 * n * max(n - 1, 0))
    _scale(a, beta)
    if n <= 1 or alpha == 0:
        return
    _skew_sweep(a, alpha, x[:, None], y[:, None])


def gen_rank2(a, alpha, x, u, y, v, beta=1):
    """A := beta*A + alpha*(x u^T + y v^T) on a p x q rectangle."""
    p, q = a.shape
    x, u, y, v = map(np.asarray, (x, u, y, v))
    if len(x) != p or len(y) != p or len(u) != q or len(v) != q:
        raise ValueError("dimension mismatch")
    _check_product(a, "A", alpha, beta, x, u, y, v)
    instrument.record_call("gen_rank2")
    instrument.add_flops("level2", 4 * p * q)
    _scale(a, beta, tril=False)
    if p == 0 or q == 0 or alpha == 0:
        return
    uv = np.stack((u, v))
    _sweep(a, np.column_stack((x, y)), lambda jc, j1: uv[:, jc:j1], alpha, tril=False)


def skew_tridiag_gemv(y, alpha, a, t: SkewTridiagonal, x, beta=1, fused=True):
    """y := beta*y + alpha * A (T x), with one row of ``a`` per entry of y
    (a caller inside a larger buffer passes the strided view of its rows).
    A product whose dtype y cannot hold under ``same_kind`` casting (complex
    into real, say) raises TypeError before y is written.

    The tridiagonal multiply is a cheap O(k) pass over x, in the dtype of
    tau and x together; with ``fused=False`` T is materialized densely first
    (ladder baseline).
    """
    p, k = a.shape
    if t.m != k or len(x) != k or len(y) != p:
        raise ValueError("dimension mismatch")
    _check_product(y, "y", alpha, beta, a, t.tau, x)
    instrument.record_call("skew_tridiag_gemv")
    instrument.add_flops("level2", 2 * p * k + 4 * k)
    _scale(y, beta, tril=False)
    if alpha == 0:
        return
    if fused:
        # matmul hands a strided view to gemv with its leading dimension;
        # .dot would first copy it (the unfused baseline keeps .dot)
        acc = a @ _pack_t(t.tau, x)
    else:
        acc = a.dot(t.dense().dot(np.asarray(x)))
        instrument.add_flops("level2", 2 * k * k)
    if alpha == -1:
        y -= acc
    else:
        y += alpha * acc


def apply_row_pivots(block, p, forward=True):
    """Permute the rows of ``block`` (1-D or 2-D) by P(p) (or its inverse).

    The swaps run in place as one BLAS ``?laswp`` call, as LAPACK applies a
    panel's interchanges to the columns left of it.  Blocks BLAS cannot take
    (exact scalars, rows that are not unit-strided, read-only views) are
    permuted by one gather of the rows that change place instead, so each
    moved element is copied once.  ``_swap_order`` checks offsets first.
    """
    n, q = block.shape if block.ndim == 2 else (block.shape[0], 1)
    pivots = np.asarray(p.pivots if hasattr(p, "pivots") else p)
    idx = _swap_order(pivots, n)
    rows = np.flatnonzero(idx != np.arange(n))
    instrument.record_call("apply_row_pivots")
    instrument.add_flops("pivot", rows.size * q)
    if not rows.size or not q or _blas.laswp(block, pivots.astype(np.int64), forward):
        return
    if not forward:
        idx = invert_permutation(idx)
    block[rows] = block[idx[rows]]

