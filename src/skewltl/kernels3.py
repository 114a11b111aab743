"""Level-3 "sandwiched" kernels as one block-column sweep.

C is processed one ``NB``-wide block column at a time.  For each block
column the k-side operand (T A^T, T B, or the stacked rank-2k factors) is
packed, so the tridiagonal multiply rides along with that packing step and
no workspace proportional to the full k x m product is ever formed.  The
diagonal block merges through a mask, so entries at or above the diagonal
are never written (and garbage stored there never propagates).  The strip
below it is accumulated in place by one BLAS ``?gemm`` with beta = 1 and C's
own leading dimension, as BLIS-style GEMM accumulates into C (Goto and van
de Geijn, TOMS 2008); cache blocking and any threading are the BLAS's own.
Operands BLAS cannot take (exact scalars, mixed dtypes, rows of C that are
not unit-strided) are updated in ``NB``-row chunks with plain matmuls.

The BLAS is the OpenBLAS numpy itself has loaded for ``matmul``
(``numpy.libs/libscipy_openblas64_-*.so`` in Linux wheels, under
``numpy/.dylibs`` on macOS), reached through ctypes, so it adds no library
to the process and follows the same ``OPENBLAS_NUM_THREADS``.  scipy's
``cython_blas`` would load scipy's separate copy of OpenBLAS, and its f2py
``dgemm`` copies any view whose leading dimension is not its height.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from . import instrument
from .core import SkewTridiagonal

# Block-column width of the sweep, and the row-chunk height of its matmul
# fallback (where a full-height temporary was about 35% slower).  With the
# in-place strip and the drivers' padded leading dimension (n=3583, k=257 at
# ld 4104, one BLAS thread, median of 5 alternated) widths 64, 128, 256, 512
# and 1024 ran at 32, 35, 34, 31 and 26 GF/s in one machine phase, and 128
# and 256 at 39 and 38 GF/s in another: the diagonal tile's temporary and
# masked merge grow with the width, the number of BLAS calls shrinks.
NB = 256

# Inner block width of the blocked drivers' unpivoted left-looking panels:
# one sandwiched product per block of this many columns, then short
# matrix-vector products inside it.  With var2b at m=4096 (b=256, one BLAS
# thread) widths 1, 16, 32, 64 and 128 took 1.30, 1.08, 1.05, 1.04 and
# 1.16 s, of which the panels took 0.48, 0.25, 0.23, 0.22 and 0.32 s.
PANEL_NB = 32


def _check_alias(c, a, name):
    if a is not None and np.shares_memory(c, a):
        raise ValueError(f"output aliases operand {name}")


def _lower_entries(n):
    return n * (n - 1) // 2


_MASKS = {}


def _tril_mask(shape, k):
    key = (shape, k)
    mask = _MASKS.get(key)
    if mask is None:
        if len(_MASKS) > 256:
            _MASKS.clear()
        mask = np.tril(np.ones(shape, dtype=bool), k=k)
        _MASKS[key] = mask
    return mask


def _merge_lower_tile(tile, contrib, alpha, beta):
    """tile := beta*tile + alpha*contrib on the entries strictly below the
    diagonal of a tile whose top-left entry lies on it.  Entries at or above
    the diagonal are masked out of the write, so whatever is stored there is
    neither used nor touched.
    """
    mask = _tril_mask(tile.shape, -1)
    if beta == 1 and tile.dtype != object:
        if alpha == 1:
            np.add(tile, contrib, out=tile, where=mask)
        elif alpha == -1:
            np.subtract(tile, contrib, out=tile, where=mask)
        else:
            np.add(tile, alpha * contrib, out=tile, where=mask)
    else:
        merged = beta * tile + alpha * contrib
        np.copyto(tile, merged, where=mask)


def _accum_tile(tile, contrib, alpha, beta):
    if beta == 1 and tile.dtype != object:
        if alpha == 1:
            np.add(tile, contrib, out=tile)
        elif alpha == -1:
            np.subtract(tile, contrib, out=tile)
        else:
            tile += alpha * contrib
    elif beta == 1:
        tile += alpha * contrib
    else:
        tile[:] = beta * tile + alpha * contrib


def _scale(c, beta, tril=True):
    if beta == 1:
        return
    if not tril:
        c *= beta
        return
    for j in range(c.shape[1]):
        c[j + 1:, j] *= beta


def _pack_t(tau, x):
    """T X for the skew tridiagonal T with subdiagonal tau (X has k rows)."""
    k = x.shape[0]
    out = np.zeros(x.shape, dtype=x.dtype)
    if k > 1:
        out[1:] = tau[:, None] * x[:-1]
        out[:-1] -= tau[:, None] * x[1:]
    return out


# ILP64 CBLAS constants: CblasColMajor, CblasNoTrans, CblasTrans.
_COL_MAJOR, _NO_TRANS, _TRANS = 102, 111, 112
_GEMM_PREFIX = {np.dtype(np.float32): "s", np.dtype(np.float64): "d",
                np.dtype(np.complex64): "c", np.dtype(np.complex128): "z"}


@functools.cache
def _gemm_symbol(prefix):
    """``scipy_cblas_<prefix>gemm64_`` from numpy's OpenBLAS, or None.

    Opening numpy's extension module returns the handle the process already
    holds, and symbol lookup through it searches the libraries it links,
    so this finds the very OpenBLAS numpy's ``matmul`` uses.
    """
    try:
        from numpy._core import _multiarray_umath
        fn = getattr(ctypes.CDLL(_multiarray_umath.__file__),
                     f"scipy_cblas_{prefix}gemm64_")
    except (ImportError, OSError, AttributeError):
        return None
    scalar = {"s": ctypes.c_float, "d": ctypes.c_double}.get(prefix, ctypes.c_void_p)
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    fn.argtypes = ([ctypes.c_int] * 3 + [i64] * 3
                   + [scalar, ptr, i64, ptr, i64, scalar, ptr, i64])
    fn.restype = None
    return fn


def _blas_layout(x):
    """(transpose flag, leading dimension) of a 2-D view for column-major
    BLAS: NoTrans when its rows are unit-strided, Trans when its columns
    are; None otherwise (negative, zero or overlapping strides)."""
    r, s = x.shape
    sr, sc = (st // x.itemsize if st > 0 and st % x.itemsize == 0 else 0
              for st in x.strides)
    if sr == 1 and sc >= r:
        return _NO_TRANS, sc
    if sc == 1 and sr >= s:
        return _TRANS, sr
    return None


def _gemm_into(c, a, b, alpha):
    """C += alpha * A @ B in place with one BLAS ``?gemm`` (beta = 1).

    C must have unit-strided rows; its column stride is the leading
    dimension, so a view into a padded buffer is updated where it lies.  A
    and B may each be F- or C-strided.  Returns False, with C untouched,
    when BLAS cannot take the operands: a dtype other than float32,
    float64, complex64 or complex128 shared by all three, a complex alpha
    with real data, other strides, or no such symbol in numpy's OpenBLAS.
    The call releases the GIL.
    """
    dt = c.dtype
    if (dt not in _GEMM_PREFIX or a.dtype != dt or b.dtype != dt
            or (dt.kind != "c" and np.iscomplexobj(alpha)) or not c.flags.writeable):
        return False
    (m, n), k = c.shape, a.shape[1]
    if a.shape[0] != m or b.shape != (k, n):
        raise ValueError("dimension mismatch")
    if m == 0 or n == 0 or k == 0:
        return True
    lc, la, lb = _blas_layout(c), _blas_layout(a), _blas_layout(b)
    fn = _gemm_symbol(_GEMM_PREFIX[dt])
    if fn is None or lc is None or lc[0] != _NO_TRANS or la is None or lb is None:
        return False
    if dt.kind == "c":
        scalars = np.array([alpha, 1], dtype=dt)
        alpha_arg, beta_arg = scalars.ctypes.data, scalars.ctypes.data + dt.itemsize
    else:
        alpha_arg, beta_arg = float(alpha), 1.0
    fn(_COL_MAJOR, la[0], lb[0], m, n, k, alpha_arg, a.ctypes.data, la[1],
       b.ctypes.data, lb[1], beta_arg, c.ctypes.data, lc[1])
    return True


def _sweep(c, left, pack, alpha, beta, tril=True):
    """C := beta*C + alpha * left @ pack(jc, j1), one block column at a time.

    ``pack(jc, j1)`` returns the k x (j1 - jc) operand of block column
    [jc, j1).  With ``tril`` only entries with row > col are written.  The
    strip below the diagonal block is one in-place BLAS call when beta is 1
    and the operands allow it, and ``NB``-row chunked matmuls otherwise.
    """
    p, q = c.shape
    for jc in range(0, q, NB):
        j1 = min(jc + NB, q)
        top = jc if tril else 0
        if top >= p:
            break
        panel = pack(jc, j1)
        if tril:
            top = min(j1, p)
            _merge_lower_tile(c[jc:top, jc:j1], left[jc:top].dot(panel), alpha, beta)
        if beta == 1 and _gemm_into(c[top:, jc:j1], left[top:], panel, alpha):
            continue
        for ic in range(top, p, NB):
            i1 = min(ic + NB, p)
            _accum_tile(c[ic:i1, jc:j1], left[ic:i1].dot(panel), alpha, beta)


def skew_tridiag_rankk(c, alpha, a, t: SkewTridiagonal, beta=1, *, fused=True):
    """C := beta*C + alpha * A T A^T on the strictly-lower triangle of C.

    A is n x k and T the k-dimensional skew tridiagonal.  Each block column
    of B = T A^T is produced inside the packing step; with ``fused=False``
    the whole of B is materialized and a full square matmul is performed,
    with the upper half discarded at write-back (the unfused baseline).
    """
    n, k = a.shape
    if c.shape[0] != n or c.shape[1] != n or t.m != k:
        raise ValueError("dimension mismatch")
    _check_alias(c, a, "a")
    instrument.record_call("skew_tridiag_rankk")
    instrument.add_flops("level3", 2 * k * _lower_entries(n) + 4 * k * n)
    if n <= 1:
        return
    if alpha == 0 or k == 0:
        _scale(c, beta)
        return
    tau = t.tau
    if not fused:
        instrument.add_flops("level3", 2 * k * _lower_entries(n))  # upper half computed and discarded
        full = a.dot(_pack_t(tau, a.T))
        for j in range(n - 1):
            col = c[j + 1:, j]
            if beta == 1:
                col += alpha * full[j + 1:, j]
            else:
                c[j + 1:, j] = beta * col + alpha * full[j + 1:, j]
        return
    _sweep(c, a, lambda jc, j1: _pack_t(tau, a[jc:j1].T), alpha, beta)


def skew_tridiag_gemm(c, alpha, a, t: SkewTridiagonal, b, beta=1, *, tril=False,
                      fused=True):
    """C := beta*C + alpha * A (T B) on a general p x q block.

    With ``tril=True`` only entries of C with row > col (in view
    coordinates) are written; that realizes the trapezoidal from-the-left
    update of the blocked left-looking driver without a bespoke kernel.
    With ``fused=False`` the whole of T B is materialized first (the
    unfused baseline).
    """
    p, k = a.shape
    kb, q = b.shape
    if kb != k or c.shape != (p, q) or t.m != k:
        raise ValueError("dimension mismatch")
    _check_alias(c, a, "a")
    _check_alias(c, b, "b")
    instrument.record_call("skew_tridiag_gemm")
    written = _lower_entries(min(p, q)) + max(p - q, 0) * q if tril else p * q
    instrument.add_flops("level3", 2 * k * written + 4 * k * q)
    if p == 0 or q == 0:
        return
    if alpha == 0 or k == 0:
        _scale(c, beta, tril)
        return
    if fused:
        tau = t.tau

        def pack(jc, j1):
            return _pack_t(tau, b[:, jc:j1])
    else:
        tb_full = t.dense().dot(np.asarray(b))
        instrument.add_flops("level3", 2 * k * k * q)

        def pack(jc, j1):
            return tb_full[:, jc:j1]
    _sweep(c, a, pack, alpha, beta, tril)


def skew_rank2k(c, alpha, a, b, beta=1, *, skip_zero_columns=True):
    """C := beta*C + alpha*(A B^T - B A^T), strictly-lower triangle of C.

    Columns that are identically zero in either factor contribute nothing
    and are dropped during packing; with B = W = A S from the splitting
    theorem that halves the work, since every other column of W is zero.
    The kept columns are stacked so each chunk is one product
    [A B] [B -A]^T.
    """
    n, k = a.shape
    if b.shape != (n, k) or c.shape[0] != n or c.shape[1] != n:
        raise ValueError("dimension mismatch")
    _check_alias(c, a, "a")
    _check_alias(c, b, "b")
    instrument.record_call("skew_rank2k")
    if skip_zero_columns and k:
        keep = np.flatnonzero((a != 0).any(axis=0) & (b != 0).any(axis=0))
    else:
        keep = np.arange(k)
    keff = len(keep)
    instrument.add_flops("level3", 4 * keff * _lower_entries(n))
    if n <= 1:
        return
    if alpha == 0 or keff == 0:
        _scale(c, beta)
        return
    ak, bk = a[:, keep], b[:, keep]
    left = np.concatenate((ak, bk), axis=1)
    _sweep(c, left, lambda jc, j1: np.concatenate((bk[jc:j1], -ak[jc:j1]), axis=1).T,
           alpha, beta)


def form_w(a, s):
    """W = A S.  Every other column of W is zero, starting with the first."""
    n, bdim = a.shape
    if s.m != bdim:
        raise ValueError("dimension mismatch")
    instrument.record_call("form_w")
    w = np.zeros((n, bdim), dtype=a.dtype, order="F")
    for i, j, v in s.entries:
        w[:, j] += v * a[:, i]
    instrument.add_flops("level3", 2 * n * len(s.entries))
    return w
