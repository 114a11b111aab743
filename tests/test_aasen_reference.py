"""LAPACK's Aasen factorization of iX as a large-m reference.

For real skew X, iX is Hermitian.  If P X P^T = L T L^T with L real, then
P (iX) P^T = L (iT) L^T, and iT is Hermitian tridiagonal.  Aasen's
factorization with L's first column e_0 is unique for a given pivot
sequence, and ``?hetrf_aa`` picks each pivot by ``i?amax``, which ranks a
purely imaginary column by |im|, as the pivoted drivers rank X's column.
So LAPACK's ``?hetrf_aa`` on iX computes the pivoted drivers' P, L and T in
complex arithmetic, at sizes the exact-rational oracle cannot reach.  It is
called from numpy's OpenBLAS through ``_blas._symbol``.
"""

import ctypes
import functools

import numpy as np
import pytest

from skewltl import _blas, ltlt_blk_piv, pfaffian, random_skew, SkewMatrixLower

_I64P, _PTR = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
# (uplo, n, a, lda, ipiv, work, lwork, info), all by reference with int64
# integers, plus the hidden length of uplo
_ARGTYPES = (ctypes.c_char_p, _I64P, _PTR, _I64P, _PTR, _PTR, _I64P, _I64P, ctypes.c_size_t)
_HETRF_AA = {np.float64: "scipy_zhetrf_aa_64_", np.float32: "scipy_chetrf_aa_64_"}

pytestmark = pytest.mark.skipif(_blas._symbol(_HETRF_AA[np.float64], _ARGTYPES) is None,
                                reason="numpy's OpenBLAS exports no zhetrf_aa")


@functools.cache
def _lapack(m, dtype, scale=1.0):
    """(X, pivots, L buffer, tau) from ``?hetrf_aa`` on iX for X =
    random_skew(m, seed=m, scale=scale) in ``dtype``: pivots as the drivers'
    relative offsets, L in the drivers' shifted layout below the
    subdiagonal."""
    fn = _blas._symbol(_HETRF_AA[dtype], _ARGTYPES)
    if fn is None:
        pytest.skip(f"numpy's OpenBLAS exports no {_HETRF_AA[dtype]}")
    x = SkewMatrixLower(random_skew(m, seed=m, scale=scale).data.astype(dtype))
    a = np.asfortranarray(1j * x.dense())
    ipiv = np.zeros(m, dtype=np.int64)
    i64 = ctypes.c_int64
    info = i64(0)
    query = np.zeros(1, dtype=a.dtype)
    fn(b"L", i64(m), a.ctypes.data, i64(m), ipiv.ctypes.data, query.ctypes.data, i64(-1),
       info, 1)
    work = np.zeros(max(int(query[0].real), 1), dtype=a.dtype)
    fn(b"L", i64(m), a.ctypes.data, i64(m), ipiv.ctypes.data, work.ctypes.data,
       i64(work.size), info, 1)
    assert info.value == 0
    lower = np.tril(a, -2)
    assert not lower.imag.any()  # L is real: LAPACK's imaginary parts are exactly 0
    return x, ipiv - 1 - np.arange(m), lower.real, np.diag(a, -1).imag.copy()


def _check(m, dtype, b, fused, tol):
    """Equal pivots; tau within tol m max|tau| and L within tol m."""
    x, pivots, lower, tau = _lapack(m, dtype)
    res = ltlt_blk_piv(x.copy(), b=b, fused=fused)
    assert np.array_equal(res.p.pivots, pivots)
    assert res.t.tau.dtype == dtype
    assert np.abs(res.t.tau - tau).max() <= tol * m * np.abs(tau).max()
    assert np.abs(np.tril(res.l.data, -2) - lower).max() <= tol * m


@pytest.mark.parametrize("fused", ["var1", "var2a", "var2b"])
@pytest.mark.parametrize("m, b", [(m, b) for m in (2, 7, 64, 301) for b in (1, 8, 32)]
                         + [(1000, 16), (1000, 64)])
def test_float64_matches_zhetrf_aa(m, b, fused):
    _check(m, np.float64, b, fused, tol=10 * np.finfo(np.float64).eps)


@pytest.mark.parametrize("fused", ["var1", "var2a", "var2b"])
@pytest.mark.parametrize("m", [64, 1000])
def test_float32_matches_chetrf_aa(m, fused):
    _check(m, np.float32, 32, fused, tol=30 * np.finfo(np.float32).eps)


@pytest.mark.parametrize("m, dtype", [(64, np.float64), (300, np.float64),
                                      (1000, np.float64), (300, np.float32)])
def test_pfaffian_matches_lapack_product(m, dtype):
    # Pf(X) = sign(P) prod(-tau[2r]) from LAPACK's pivots and T, compared as
    # sign and log|Pf|; the scale keeps |Pf| in range (log|Pf| -64 to 89)
    x, pivots, _lower, tau = _lapack(m, dtype, scale=1 / 16)
    sign = (-1) ** np.count_nonzero(pivots) * np.prod(np.sign(-tau[0::2]))
    logabs = float(np.sum(np.log(np.abs(tau[0::2].astype(np.float64)))))
    pf = pfaffian(x)
    assert pf.dtype == dtype and np.sign(pf) == sign
    assert abs(np.log(abs(float(pf))) - logabs) <= 10 * m * np.finfo(dtype).eps
