"""Pfaffian computation and linear-system solution on top of the
factorization."""

from __future__ import annotations

import math
import weakref

import numpy as np

from . import _blas
from .blocked import DEFAULT_PIVOT_BLOCK, ltlt_blk_piv
from .core import SingularT, SkewMatrixLower, _work_dtype, compose_permutation
from .unblocked import _check_dtype, _check_size

#: The last factorization ``_factor`` made and no call has reused yet, as
#: (weak reference to the input's data, key, result), or None.  Replaced
#: whole by one assignment, so threads share it without a lock: a race costs
#: at most a refactorization.
_last = None


def _digest(data):
    """sha256 of the strictly-lower columns of ``data``, in column order:
    the bytes the drivers read."""
    import hashlib  # here, not at module level: it loads OpenSSL (3.5 MiB)

    h = hashlib.sha256()
    for j in range(data.shape[0] - 1):
        h.update(np.ascontiguousarray(data[j + 1:, j]))
    return h.digest()


def _forget(ref):
    """Drop the entry whose input data was just collected, so its L buffer
    does not outlive the caller's matrix."""
    global _last
    entry = _last  # read once: another thread may replace it
    if entry is not None and entry[0] is ref:
        _last = None


def _factor(x, b, needed):
    """Check b and x's dtype, then factor x when ``needed`` with
    ``ltlt_blk_piv(fused="var2b")`` at block b (default
    min(``DEFAULT_PIVOT_BLOCK``, m), the pivoted driver's own default), looked
    up in this module when called so a wrapper on it sees it.

    The last result is kept, keyed by (block, dtype, m, ``_digest``), until
    a call with the same key takes it (unfactored, so callers must not
    modify it), another factorization replaces it, or x's data array is
    collected.  Object arrays are factored every time: their bytes are
    pointers, and a freed scalar's address can be reused."""
    global _last
    if b is not None:
        _check_size(b, "block size")
    _check_dtype(x)
    if not needed:
        return None
    b = min(DEFAULT_PIVOT_BLOCK, x.m) if b is None else b
    data = x.data
    if data.dtype == object:
        return ltlt_blk_piv(x, b=b, fused="var2b")
    key = (b, data.dtype.str, x.m, _digest(data))
    entry = _last
    if entry is not None and entry[1] == key:
        _last = None  # one reuse: its L is freed when the caller is done
        return entry[2]
    # a miss frees the old L before the new one is allocated
    entry = _last = None
    res = ltlt_blk_piv(x, b=b, fused="var2b")
    _last = (weakref.ref(data, _forget), key, res)
    return res


def pfaffian(x: SkewMatrixLower, b=None):
    """Pfaffian of x via the pivoted factorization (fused scheme var2b).

    Pf(T) for the tridiagonal factor is the product of (-tau[2r]) under the
    convention Pf([[0, a], [-a, 0]]) = a, and each nontrivial pivot flips
    the sign.  Odd dimension gives exactly 0 and m = 0 gives 1 (ints for
    object x).  Exact scalar types are preserved.  The floating-point
    product is rescaled by powers of two where its partial products leave
    the normal range (``_scaled_product``), so it raises OverflowError only
    when |Pf| itself exceeds the largest finite value of the dtype.

    The factorization is shared with ``solve``: the last one made is reused
    once, by the next call whose strictly-lower bytes, dtype and block size
    match it; until then it is held while x's data array is alive.  Telling
    a hit from a miss costs one sha256 pass over the strictly-lower part.
    Object arrays are factored on every call.
    """
    m = x.m
    res = _factor(x, b, needed=m > 0 and m % 2 == 0)
    if m == 0 or m % 2:
        return (int if x.data.dtype == object else x.data.dtype.type)(m == 0)
    tau, sign = res.t.tau, res.p.sign()
    if tau.dtype == object:
        return math.prod(-tau[0::2], start=sign)
    return _scaled_product(tau.dtype.type(sign), -tau[0::2])


def _ldexp(z, e):
    """z * 2**e for a real or complex scalar z, part by part."""
    return np.ldexp(np.array([z]).view(np.finfo(z.dtype).dtype), e).view(z.dtype)[0]


def _split(z):
    """(z * 2**-e, e) for the e that brings z's larger part into [0.5, 1);
    exact for a finite z, and (0, 0) for z = 0."""
    e = int(np.frexp(max(abs(z.real), abs(z.imag)))[1])
    return _ldexp(z, -e), e


def _scaled_product(val, factors):
    """val times the factors, left to right, in val's dtype.  When a partial
    product leaves the normal range, it and the next factor are brought near
    1 by powers of two, which is exact; so the result is bitwise the plain
    product's wherever that product stays in range.  Raises OverflowError
    when the result's magnitude exceeds the dtype's largest value."""
    fi = np.finfo(val.dtype)
    scale = 0
    with np.errstate(all="ignore"):
        for t in factors:
            v = val * t
            if not fi.tiny <= abs(v) <= fi.max and val and t:
                (val, e0), (t, e1) = _split(val), _split(t)
                scale += e0 + e1
                v = val * t
            val = v
        big = abs(val)
        if np.isinf(big) or scale + int(np.frexp(big)[1]) > fi.maxexp:
            logabs = float(np.log(big)) + scale * np.log(2.0)
            raise OverflowError(f"Pfaffian overflows: log|Pf| = {logabs:.1f}")
        return _ldexp(val, scale) if scale else val


def _tridiag_solve(tau, rhs, tol_scale=10.0):
    """Solve T y = rhs for the skew tridiagonal T (subdiagonal tau) with one
    LAPACK ``?gtsv``: Gaussian elimination with partial pivoting, a row swap
    wherever |subdiagonal| > |diagonal| (|re| + |im| for complex data).
    ``_blas.gtsv`` calls numpy's OpenBLAS; scipy's wrapper runs only where
    it declines (longdouble, or a numpy build without the symbol).

    Raises SingularT at the first row whose pivot, the diagonal of U, is at
    or below tol_scale eps max|tau|; m = 1 (T = 0) raises at row 0.
    Right-hand sides are solved together as columns.
    """
    tau, rhs = np.asarray(tau), np.asarray(rhs)
    dt = _work_dtype(tau, rhs)
    m = len(tau) + 1
    x = np.array(rhs, dtype=dt, order="F")
    if x.shape[0] != m:
        raise ValueError("dimension mismatch")
    if m == 1:  # T = 0, and the threshold's max over an empty tau has no value
        raise SingularT(f"tridiagonal pivot {dt.type(0)!r} at row 0")
    if not x.size:  # ?gtsv needs a column to write: check T on a zero one
        _tridiag_solve(tau, np.zeros(m, dtype=dt), tol_scale)
        return x
    sub = np.array(tau, dtype=dt)
    thresh = tol_scale * np.finfo(float).eps * float(np.max(np.abs(sub)))
    d = np.zeros(m, dtype=dt)
    info = _blas.gtsv(sub, d, -sub, x)
    if info is None:
        from scipy.linalg import get_lapack_funcs

        gtsv, = get_lapack_funcs(("gtsv",), dtype=dt)
        _, d, _, x, info = gtsv(sub, d, -sub, x, overwrite_b=True)
    # info > 0: the pivot of row info - 1 is exactly zero and d past it is stale
    small = np.flatnonzero(np.abs(d[:info or m]) <= thresh)
    if small.size:
        raise SingularT(f"tridiagonal pivot {d[small[0]]!r} at row {small[0]}")
    return x


def _unit_lower_solve(l11, z, trans):
    """z := L11^-1 z (L11^-T z when ``trans``) in place, for the unit lower
    L11 whose strictly-lower part alone is read: one ``_blas.trsm``, or
    scipy's ``solve_triangular`` where it declines."""
    if not _blas.trsm(l11, z, trans):
        from scipy.linalg import solve_triangular

        # scipy solves the transposed system for an A that is not
        # F-contiguous, which rounds differently
        z[:] = solve_triangular(np.asfortranarray(l11), z, trans="T" if trans else "N",
                                lower=True, unit_diagonal=True, check_finite=False)


def solve(x: SkewMatrixLower, b, block=None, tol_scale=10.0):
    """Solve X y = b through the pivoted factorization (fused scheme var2b):
    permute, unit-lower solve, tridiagonal solve (one ``?gtsv``), transposed
    unit-lower solve, permute back.  The triangular solves are ``?trsm``
    calls on L's stored block ``l.data[1:, :-1]`` (L = diag(1, L11):
    ``ltlt_blk_piv`` sets no first column), passed as a view with the
    buffer's leading dimension and converted only when the solve dtype
    differs from L's (complex b with real X); the buffer above its diagonal
    is never read.  b is a vector of length m or an m x k array whose
    columns are right-hand sides (solved together); any other shape raises
    ValueError.  The result is complex when X or b is, float64 otherwise;
    m = 0 gives an empty result of b's shape; a non-finite b raises
    ValueError before X is factored.  Raises SingularT for (numerically)
    singular X, which includes every odd m.  The factorization is reused
    as in ``pfaffian``.
    """
    m = x.m
    b = np.asarray(b)
    if b.ndim not in (1, 2) or b.shape[0] != m:
        raise ValueError("dimension mismatch")
    dt = _work_dtype(x.data, b)
    b = np.asarray_chkfinite(b.astype(dt, copy=False))  # LAPACK is called unchecked
    res = _factor(x, block, needed=m > 0)
    if m == 0:
        return np.empty_like(b)
    one_d = b.ndim == 1
    rhs = b[:, None] if one_d else b
    perm = compose_permutation(res.p)
    # perm is in range, and mode="clip" writes into out without a buffer
    z = np.take(rhs, perm, axis=0, out=np.empty(rhs.shape, dtype=dt, order="F"), mode="clip")
    l11 = res.l.data[1:, :-1]
    if l11.dtype != dt:
        l11 = l11.astype(dt, order="F")
    _unit_lower_solve(l11, z[1:], trans=False)
    z = _tridiag_solve(res.t.tau, z, tol_scale=tol_scale)
    _unit_lower_solve(l11, z[1:], trans=True)
    out = np.empty_like(z)
    out[perm] = z
    return out.ravel() if one_d else out
