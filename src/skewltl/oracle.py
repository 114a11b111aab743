"""Slow, obviously correct references used by the test suite.

Nothing here is on a benchmarked path.  The exact routines run in rational
arithmetic (fractions.Fraction inside object arrays) and are capped at
small sizes; the dense sandwich exists in two flavors, a pure-Python
triple loop for small instances and a library matmul chain for larger
comparisons, with the former validating the latter.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import PermutationVector, SkewMatrixLower, ZeroPivot

EXACT_SIZE_CAP = 16
PFAFFIAN_BRUTE_CAP = 12


def dense_sandwich(a, t_dense, b):
    """A @ T @ B by naive triple loops; exact on object dtypes, small only."""
    a = np.asarray(a)
    t_dense = np.asarray(t_dense)
    b = np.asarray(b)
    p, k = a.shape
    if t_dense.shape != (k, k) or b.shape[0] != k:
        raise ValueError("dimension mismatch")
    q = b.shape[1]
    obj = any(m.dtype == object for m in (a, t_dense, b))
    dtype = object if obj else np.result_type(a, t_dense, b)
    tb = np.zeros((k, q), dtype=dtype)
    for i in range(k):
        for s in range(k):
            tis = t_dense[i, s]
            if tis == 0:
                continue
            for j in range(q):
                tb[i, j] += tis * b[s, j]
    out = np.zeros((p, q), dtype=dtype)
    for i in range(p):
        for s in range(k):
            ais = a[i, s]
            if ais == 0:
                continue
            for j in range(q):
                out[i, j] += ais * tb[s, j]
    return out


def sandwich_matmul(a, t_dense, b):
    """Library matmul chain; the large-size reference.  Validated against
    dense_sandwich on small instances in the test suite."""
    return np.asarray(a).dot(np.asarray(t_dense)).dot(np.asarray(b))


def exact_from_int(lower_entries, m) -> SkewMatrixLower:
    """Skew matrix from an integer strictly-lower entry list (column-major)."""
    buf = np.zeros((m, m), dtype=object, order="F")
    it = iter(lower_entries)
    for j in range(m - 1):
        for i in range(j + 1, m):
            buf[i, j] = Fraction(int(next(it)))  # a Python int: no overflow
    return SkewMatrixLower(buf)


def gauss_elim_exact(x: SkewMatrixLower, pivot=False):
    """L T L^T by literal Gauss-transform elimination in exact arithmetic.

    The full (mirrored) matrix is carried and both row and column updates
    are applied explicitly, which keeps this an independent reference for
    the lower-storage production drivers.  Returns (L, tau, p) as object
    arrays of Fractions plus the pivot vector.
    """
    m = x.m
    if m > EXACT_SIZE_CAP:
        raise ValueError(f"exact elimination capped at m={EXACT_SIZE_CAP}")
    full = np.zeros((m, m), dtype=object)
    for j in range(m):
        for i in range(m):
            if i > j:
                full[i, j] = Fraction(x.data[i, j])
            elif i < j:
                full[i, j] = -Fraction(x.data[j, i])
            else:
                full[i, j] = Fraction(0)
    lmat = np.zeros((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            lmat[i, j] = Fraction(1) if i == j else Fraction(0)
    tau = np.zeros(max(m - 1, 0), dtype=object)
    tau[:] = Fraction(0)
    pivots = np.zeros(m, dtype=np.int64)

    for k in range(m - 1):
        if pivot:
            off = 0
            best = abs(full[k + 1, k])
            for i in range(1, m - k - 1):
                v = abs(full[k + 1 + i, k])
                if v > best:  # strict: ties resolve to the lowest index
                    best, off = v, i
            pivots[k + 1] = off
            if off:
                a, b = k + 1, k + 1 + off
                full[[a, b], :] = full[[b, a], :]
                full[:, [a, b]] = full[:, [b, a]]
                lmat[[a, b], :k + 1] = lmat[[b, a], :k + 1]
        piv = full[k + 1, k]
        tau[k] = piv
        if piv == 0:
            if any(full[i, k] != 0 for i in range(k + 2, m)):
                raise ZeroPivot(k)
            continue
        for i in range(k + 2, m):
            li = full[i, k] / piv
            if li == 0:
                continue
            lmat[i, k + 1] = li
            full[i, :] = full[i, :] - li * full[k + 1, :]
            full[:, i] = full[:, i] - li * full[:, k + 1]
    return lmat, tau, PermutationVector(pivots, m)


def pfaffian_bruteforce(x: SkewMatrixLower):
    """Signed sum over perfect matchings, by first-row expansion.

    Exact on integer/Fraction input; odd dimension gives 0 by definition.
    """
    m = x.m
    if m % 2:
        return 0
    if m > PFAFFIAN_BRUTE_CAP:
        raise ValueError(f"brute-force Pfaffian capped at m={PFAFFIAN_BRUTE_CAP}")
    full = x.dense()

    def pf(rows):
        if not rows:
            return 1
        r0 = rows[0]
        acc = 0
        for pos in range(1, len(rows)):
            rj = rows[pos]
            sign = 1 if pos % 2 else -1
            rest = rows[1:pos] + rows[pos + 1:]
            acc = acc + sign * full[r0, rj] * pf(rest)
        return acc

    return pf(list(range(m)))


def flop_model(variant, m):
    """Leading-order flop counts by CLI variant name: 2m^3/3 for the plain
    right-looking elimination, m^3/3 for everything that halves it."""
    if variant == "unb-rl":
        return 2 * m**3 / 3
    if variant in ("unb-ll", "unb-2step", "blk-var1", "blk-var2a", "blk-var2b",
                   "blk-left", "blk-2step"):
        return m**3 / 3
    raise ValueError(f"unknown variant {variant!r}")
