"""Pfaffian computation and linear-system solution on top of the
factorization."""

from __future__ import annotations

import numpy as np

from .blocked import DEFAULT_BLOCK, ltlt_blk_piv
from .core import SingularT, SkewMatrixLower, compose_permutation


def pfaffian(x: SkewMatrixLower, b=None):
    """Pfaffian of x via the pivoted factorization (fused scheme var2b).

    Pf(T) for the tridiagonal factor is the product of (-tau[2r]) under the
    convention Pf([[0, a], [-a, 0]]) = a, and each nontrivial pivot flips
    the sign.  Odd dimension gives exactly 0; m = 0 gives 1.  Exact scalar
    types are preserved.  Raises OverflowError when |Pf| exceeds the
    largest finite value of the floating-point type.
    """
    m = x.m
    if m == 0:
        return 1.0
    if m % 2:
        return 0.0 if x.data.dtype != object else 0
    res = ltlt_blk_piv(x, b=b or min(DEFAULT_BLOCK, m), fused="var2b")
    tau = res.t.tau
    if tau.dtype != object:
        with np.errstate(divide="ignore"):
            logabs = float(np.sum(np.log(np.abs(tau[0::2]))))
        if logabs > np.log(np.finfo(tau.dtype).max):
            raise OverflowError(f"Pfaffian overflows: log|Pf| = {logabs:.1f}")
    val = res.p.sign()
    for i in range(0, m - 1, 2):
        val = val * (-tau[i])
    return val


def _solve_dtype(*arrays):
    """Working dtype of a solve: float64 or wider, complex when any operand
    is; exact (object) operands are solved in float64."""
    kinds = [np.float64 if a.dtype == object else a.dtype for a in arrays]
    return np.result_type(*kinds, np.float64)


def _tridiag_solve(tau, rhs, tol_scale=10.0):
    """Solve T y = rhs for the skew tridiagonal T by Gaussian elimination
    with partial pivoting (one extra superdiagonal of fill).

    Raises SingularT when a pivot falls at or below 10 eps max|tau|.
    Right-hand sides are solved together as columns.
    """
    tau, rhs = np.asarray(tau), np.asarray(rhs)
    dt = _solve_dtype(tau, rhs)
    m = len(tau) + 1
    x = np.array(rhs, dtype=dt)
    if x.shape[0] != m:
        raise ValueError("dimension mismatch")
    d = np.zeros(m, dtype=dt)
    e = np.zeros(m, dtype=dt)
    f2 = np.zeros(m, dtype=dt)
    sub = np.array(tau, dtype=dt)
    if m > 1:
        e[:m - 1] = -sub
    big = float(np.max(np.abs(sub))) if m > 1 else 0.0
    thresh = tol_scale * np.finfo(float).eps * big
    for k in range(m - 1):
        if abs(sub[k]) > abs(d[k]):
            d[k], sub[k] = sub[k], d[k]
            e[k], d[k + 1] = d[k + 1], e[k]
            if k + 2 < m:
                f2[k], e[k + 1] = e[k + 1], f2[k]
            x[[k, k + 1]] = x[[k + 1, k]]
        if abs(d[k]) <= thresh:
            raise SingularT(f"tridiagonal pivot {d[k]!r} at row {k}")
        mult = sub[k] / d[k]
        d[k + 1] -= mult * e[k]
        if k + 2 < m:
            e[k + 1] -= mult * f2[k]
        x[k + 1] -= mult * x[k]
    if abs(d[m - 1]) <= thresh:
        raise SingularT(f"tridiagonal pivot {d[m - 1]!r} at row {m - 1}")
    x[m - 1] /= d[m - 1]
    if m > 1:
        x[m - 2] = (x[m - 2] - e[m - 2] * x[m - 1]) / d[m - 2]
    for k in range(m - 3, -1, -1):
        x[k] = (x[k] - e[k] * x[k + 1] - f2[k] * x[k + 2]) / d[k]
    return x


def solve(x: SkewMatrixLower, b, block=None, tol_scale=10.0):
    """Solve X y = b through the pivoted factorization (fused scheme var2b):
    permute, unit-lower solve, pivoted tridiagonal solve, transposed
    unit-lower solve, permute back.  b may carry multiple right-hand sides
    as columns (solved together).  The result is complex when X or b is,
    float64 otherwise.  Raises SingularT for (numerically) singular X,
    which includes every odd m.
    """
    from scipy.linalg import solve_triangular

    m = x.m
    b = np.asarray(b)
    dt = _solve_dtype(x.data, b)
    b = b.astype(dt, copy=False)
    one_d = b.ndim == 1
    rhs = b.reshape(m, -1) if one_d else b
    if rhs.shape[0] != m:
        raise ValueError("dimension mismatch")
    res = ltlt_blk_piv(x, b=block or min(DEFAULT_BLOCK, m), fused="var2b")
    perm = compose_permutation(res.p)
    z = rhs[perm]
    ldense = res.l.dense().astype(dt, copy=False)
    z = solve_triangular(ldense, z, lower=True, unit_diagonal=True)
    z = _tridiag_solve(res.t.tau, z, tol_scale=tol_scale)
    z = solve_triangular(ldense, z, trans="T", lower=True, unit_diagonal=True)
    out = np.empty_like(z)
    out[perm] = z
    return out.ravel() if one_d else out
