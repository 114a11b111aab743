"""In-place ``?gemm``, ``?laswp``, ``?trsm`` and ``?gtsv`` from numpy's own
OpenBLAS.

The BLAS is the OpenBLAS numpy itself has loaded for ``matmul``
(``numpy.libs/libscipy_openblas64_-*.so`` in Linux wheels, under
``numpy/.dylibs`` on macOS), reached through ctypes, so it adds no library
to the process and follows the same ``OPENBLAS_NUM_THREADS``; each call
releases the GIL.  scipy's ``cython_blas`` would load scipy's separate copy
of OpenBLAS, and its f2py ``dgemm`` copies any view whose leading dimension
is not its height.  The package loads scipy only where a caller here
declines.

Each caller updates its output in place and returns True (``gtsv``:
LAPACK's ``info``), or returns False (``gtsv``: None) with every operand
untouched when BLAS cannot take them: a dtype other than
float32, float64, complex64 or complex128 shared by all operands, a
read-only output, strides outside ``_layout``'s rule, or no such symbol in
numpy's OpenBLAS.  The caller then runs its numpy (or scipy) path.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

# BLAS letter of each dtype numpy's OpenBLAS takes.
_BLAS_PREFIX = {np.dtype(np.float32): "s", np.dtype(np.float64): "d",
                np.dtype(np.complex64): "c", np.dtype(np.complex128): "z"}
# ILP64 CBLAS constants: CblasColMajor, CblasNoTrans, CblasTrans, CblasLower,
# CblasLeft, CblasUnit.
_COL_MAJOR, _NO_TRANS, _TRANS = 102, 111, 112
_LOWER, _LEFT, _UNIT = 122, 141, 132


@functools.cache
def _symbol(name, argtypes, restype=None):
    """Function ``name`` of numpy's OpenBLAS with the given ctypes
    ``argtypes`` and ``restype`` (default: returning nothing), or None.

    Opening numpy's extension module returns the handle the process already
    holds, and symbol lookup through it searches the libraries it links,
    so this finds the very OpenBLAS numpy's ``matmul`` uses.
    """
    try:
        from numpy._core import _multiarray_umath
        fn = getattr(ctypes.CDLL(_multiarray_umath.__file__), name)
    except (ImportError, OSError, AttributeError):
        return None
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


def num_threads():
    """The thread count numpy's OpenBLAS runs with, or None where it has no
    ``scipy_openblas_get_num_threads64_``."""
    fn = _symbol("scipy_openblas_get_num_threads64_", (), ctypes.c_int)
    return None if fn is None else fn()


def _scalar(prefix):
    """ctypes type of a CBLAS scalar: by value if real, by pointer if complex."""
    return {"s": ctypes.c_float, "d": ctypes.c_double}.get(prefix, ctypes.c_void_p)


def _gemm_symbol(prefix):
    """``scipy_cblas_<prefix>gemm64_`` from numpy's OpenBLAS, or None."""
    scalar, ptr, i64 = _scalar(prefix), ctypes.c_void_p, ctypes.c_int64
    return _symbol(f"scipy_cblas_{prefix}gemm64_",
                   (ctypes.c_int,) * 3 + (i64,) * 3
                   + (scalar, ptr, i64, ptr, i64, scalar, ptr, i64))


def _trsm_symbol(prefix):
    """``scipy_cblas_<prefix>trsm64_`` from numpy's OpenBLAS, or None."""
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    return _symbol(f"scipy_cblas_{prefix}trsm64_",
                   (ctypes.c_int,) * 5 + (i64, i64, _scalar(prefix), ptr, i64, ptr, i64))


def _laswp_symbol(prefix):
    """Fortran ``scipy_<prefix>laswp_64_`` from numpy's OpenBLAS, or None.

    Every argument goes by reference: n, a, lda, k1, k2, ipiv, incx, with
    int64 integers and ``ipiv`` 1-based.
    """
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    return _symbol(f"scipy_{prefix}laswp_64_", (i64, ptr, i64, i64, i64, ptr, i64))


def _gtsv_symbol(prefix):
    """Fortran ``scipy_<prefix>gtsv_64_`` from numpy's OpenBLAS, or None.

    Every argument goes by reference: n, nrhs, dl, d, du, b, ldb, info, with
    int64 integers.
    """
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    return _symbol(f"scipy_{prefix}gtsv_64_", (i64, i64, ptr, ptr, ptr, ptr, i64, i64))


def _prefix(out, *operands):
    """BLAS letter of the dtype ``out`` shares with every operand, or None
    when there is none or ``out`` is read-only."""
    dt = out.dtype
    ok = dt in _BLAS_PREFIX and out.flags.writeable and all(x.dtype == dt for x in operands)
    return _BLAS_PREFIX[dt] if ok else None


def _layout(x):
    """(transpose flag, leading dimension) of a view for column-major BLAS:
    a 1-D view is one column, NoTrans when unit-strided; a 2-D view is
    NoTrans when its rows are unit-strided, Trans when its columns are.
    None otherwise (negative, zero or overlapping strides)."""
    if x.ndim == 1:
        return (_NO_TRANS, x.shape[0]) if x.strides[0] == x.itemsize else None
    r, s = x.shape
    sr, sc = (st // x.itemsize if st > 0 and st % x.itemsize == 0 else 0
              for st in x.strides)
    if sr == 1 and sc >= r:
        return _NO_TRANS, sc
    if sc == 1 and sr >= s:
        return _TRANS, sr
    return None


def gemm_into(c, a, b, alpha):
    """C += alpha * A @ B in place with one ``?gemm`` (beta = 1).

    C must be NoTrans by ``_layout``; its column stride is the leading
    dimension, so a view into a padded buffer is updated where it lies.  A
    and B may each be NoTrans or Trans.  A complex alpha needs complex data.
    """
    prefix = _prefix(c, a, b)
    if prefix is None or (c.dtype.kind != "c" and np.iscomplexobj(alpha)):
        return False
    (m, n), k = c.shape, a.shape[1]
    if a.shape[0] != m or b.shape != (k, n):
        raise ValueError("dimension mismatch")
    if m == 0 or n == 0 or k == 0:
        return True
    lc, la, lb = _layout(c), _layout(a), _layout(b)
    fn = _gemm_symbol(prefix)
    if fn is None or lc is None or lc[0] != _NO_TRANS or la is None or lb is None:
        return False
    if c.dtype.kind == "c":
        scalars = np.array([alpha, 1], dtype=c.dtype)
        alpha_arg, beta_arg = scalars.ctypes.data, scalars.ctypes.data + c.itemsize
    else:
        alpha_arg, beta_arg = float(alpha), 1.0
    fn(_COL_MAJOR, la[0], lb[0], m, n, k, alpha_arg, a.ctypes.data, la[1],
       b.ctypes.data, lb[1], beta_arg, c.ctypes.data, lc[1])
    return True


def laswp(block, pivots, forward):
    """Swap the rows of ``block`` (1-D or 2-D) in place with one ``?laswp``,
    the swaps of ``pivots`` in order (or in reverse when not ``forward``).

    Offsets must be int64, checked by ``core._offsets``: BLAS checks no
    bounds.  The block must be NoTrans by ``_layout``; a single column is
    taken as 1-D, so its column stride, which BLAS never steps by, is free.
    """
    if block.ndim == 2 and block.shape[1] == 1:
        block = block[:, 0]
    prefix, lay = _prefix(block), _layout(block)
    if prefix is None or lay is None or lay[0] != _NO_TRANS:
        return False
    fn = _laswp_symbol(prefix)
    if fn is None:
        return False
    q = block.shape[1] if block.ndim == 2 else 1
    k2 = int(np.flatnonzero(pivots)[-1]) + 1
    ipiv = np.arange(1, k2 + 1, dtype=np.int64)
    ipiv += pivots[:k2]
    i64 = ctypes.c_int64   # passed by reference, as argtypes declares
    fn(i64(q), block.ctypes.data, i64(lay[1]), i64(1), i64(k2), ipiv.ctypes.data,
       i64(1 if forward else -1))
    return True


def trsm(a, b, trans):
    """B := A^-1 B (A^-T B when ``trans``) in place with one ``?trsm``, for
    an m x m unit lower triangular A and an m x n B; only A's strictly-lower
    part is read.

    A and B must both be NoTrans by ``_layout``; their column strides are
    the leading dimensions, so a view into a padded buffer is read where it
    lies.
    """
    prefix = _prefix(b, a)
    if prefix is None:
        return False
    m, n = b.shape
    if a.shape != (m, m):
        raise ValueError("dimension mismatch")
    if m == 0 or n == 0:
        return True
    la, lb = _layout(a), _layout(b)
    fn = _trsm_symbol(prefix)
    if fn is None or la is None or la[0] != _NO_TRANS or lb is None or lb[0] != _NO_TRANS:
        return False
    one = np.ones(1, dtype=b.dtype)
    alpha = one.ctypes.data if b.dtype.kind == "c" else 1.0
    fn(_COL_MAJOR, _LEFT, _LOWER, _TRANS if trans else _NO_TRANS, _UNIT, m, n, alpha,
       a.ctypes.data, la[1], b.ctypes.data, lb[1])
    return True


def gtsv(dl, d, du, b):
    """Solve the tridiagonal system (subdiagonal dl, diagonal d,
    superdiagonal du) for the columns of ``b`` (1-D or 2-D) in place with one
    ``?gtsv``: Gaussian elimination with partial pivoting.

    Returns LAPACK's ``info`` (0, or i > 0 when U's i-th pivot is exactly
    zero), or None with every operand untouched when BLAS cannot take them;
    dl, d and du must be unit-strided and b NoTrans by ``_layout``.  On
    return d holds U's diagonal and dl, du U's two superdiagonals.  b needs
    a column: ``?gtsv`` writes B's first column even when nrhs = 0.
    """
    prefix, lay = _prefix(b, dl, d, du), _layout(b)
    n = d.shape[0]
    if dl.shape != (n - 1,) or du.shape != (n - 1,) or b.shape[0] != n or not b.size:
        raise ValueError("dimension mismatch")
    if (prefix is None or lay is None or lay[0] != _NO_TRANS
            or not all(v.flags.writeable and _layout(v) is not None for v in (dl, d, du))):
        return None
    fn = _gtsv_symbol(prefix)
    if fn is None:
        return None
    i64 = ctypes.c_int64   # passed by reference, as argtypes declares
    info = i64(0)
    fn(i64(n), i64(b.shape[1] if b.ndim == 2 else 1), dl.ctypes.data, d.ctypes.data,
       du.ctypes.data, b.ctypes.data, i64(lay[1]), info)
    return info.value
