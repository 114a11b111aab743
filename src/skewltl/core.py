"""Storage types for skew-symmetric matrices and their L T L^T factors.

Only the strictly lower triangle of a skew-symmetric matrix is ever stored
or referenced: the diagonal is implicitly zero and the upper triangle is
implied by antisymmetry.  Everything here is dtype-agnostic, so exact
scalar types (fractions.Fraction in an object array) flow through
unchanged; the production path uses float64.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from .instrument import add_flops


class ZeroPivot(ArithmeticError):
    """Unpivoted elimination hit a zero subdiagonal with nonzeros below it."""

    def __init__(self, column):
        super().__init__(f"zero pivot while eliminating column {column}")
        self.column = column


class PivotUnsupported(ValueError):
    """Pivoting was requested from a driver that cannot provide it."""


class InvalidVariant(ValueError):
    """An unknown pivoted scheme or CLI variant name, or
    ``Features(external_t=False)`` on a schedule with no split update."""


class SingularT(ArithmeticError):
    """The tridiagonal factor is numerically singular."""


class SkewMatrixLower:
    """m x m skew-symmetric matrix, strictly-lower triangle stored.

    ``data`` is a column-major (m, m) buffer; entries on or above the
    diagonal are never read or written by any operation in this package.
    Instances are plain value containers: safe to share read-only, all
    mutation is caller-serialized.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        data = np.asarray(data)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("square 2-D buffer required")
        self.data = data

    @property
    def m(self):
        return self.data.shape[0]

    @classmethod
    def zeros(cls, m, dtype=np.float64):
        return cls(np.zeros((m, m), dtype=dtype, order="F"))

    @classmethod
    def from_dense(cls, dense):
        dense = np.asarray(dense)
        x = cls(np.zeros(dense.shape, dtype=dense.dtype, order="F"))
        np.copyto(x.data, dense, where=np.tri(x.m, k=-1, dtype=bool))
        return x

    def dense(self):
        """Full array expanded by antisymmetry (testing and I/O helper)."""
        lower = np.tril(self.data, -1)
        return lower - lower.T

    def copy(self):
        return SkewMatrixLower(np.array(self.data, order="F"))

    def norm(self):
        """Frobenius norm of the implicit full matrix, computed in
        ``_work_dtype``."""
        lower = np.tril(self.data, -1)
        lower = lower.astype(_work_dtype(lower), copy=False)
        return float(np.sqrt(2.0) * np.linalg.norm(lower))

    def __repr__(self):
        return f"SkewMatrixLower(m={self.m}, dtype={self.data.dtype})"


def _work_dtype(*arrays):
    """Floating-point dtype for arithmetic on ``arrays``: float64 or wider,
    complex when any operand is; exact (object) operands count as float64."""
    kinds = [np.float64 if a.dtype == object else a.dtype for a in arrays]
    return np.result_type(*kinds, np.float64)


def random_skew(m, seed=0, scale=1.0):
    """Random skew matrix: strictly-lower entries i.i.d. standard normal.

    Philox is a 64-bit counter-based (splittable) generator, so (seed, m)
    names the matrix reproducibly across runs and platforms.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    x = SkewMatrixLower.zeros(m)
    for i in range(1, m):   # row by row: the draws in row-major order
        x.data[i, :i] = scale * rng.standard_normal(i)
    return x


class SkewTridiagonal:
    """Tridiagonal skew-symmetric factor T, held as its subdiagonal tau.

    The implicit matrix has T[i+1, i] = tau[i], T[i, i+1] = -tau[i] and is
    zero elsewhere.
    """

    __slots__ = ("tau",)

    def __init__(self, tau):
        self.tau = np.asarray(tau)
        if self.tau.ndim != 1:
            raise ValueError("tau must be a vector")

    @property
    def m(self):
        return self.tau.shape[0] + 1

    def dense(self):
        m = self.m
        t = np.zeros((m, m), dtype=self.tau.dtype)
        if m > 1:
            idx = np.arange(m - 1)
            t[idx + 1, idx] = self.tau
            t[idx, idx + 1] = -self.tau
        return t

    def copy(self):
        return SkewTridiagonal(self.tau.copy())

    def __repr__(self):
        return f"SkewTridiagonal(m={self.m})"


def _pack_t(tau, x):
    """T X for the skew tridiagonal T with subdiagonal tau (X: k rows or
    k-vector), in the dtype of tau and X together.  Row i is
    tau[i-1] x[i-1] - tau[i] x[i+1]: the first product is written in place,
    the second is the one temporary."""
    k = x.shape[0]
    out = np.empty(x.shape, dtype=x.dtype if tau.dtype == x.dtype else np.result_type(tau, x))
    if k:
        out[0] = 0
    if k > 1:
        if x.ndim > 1:
            tau = tau[:, None]
        np.multiply(tau, x[:-1], out=out[1:])
        out[:-1] -= tau * x[1:]
    return out


class SSplitting:
    """Sparse S with T = S - S^T; the odd rows of S are identically zero."""

    __slots__ = ("m", "entries")

    def __init__(self, m, entries):
        self.m = m
        self.entries = list(entries)

    def dense(self, dtype):
        s = np.zeros((self.m, self.m), dtype=dtype)
        for i, j, v in self.entries:
            s[i, j] = v
        return s


def form_s_splitting(t: SkewTridiagonal) -> SSplitting:
    """Split T = S - S^T.

    Row 2r of S carries tau[2r-1] at column 2r-1 and -tau[2r] at column
    2r+1 (where those indices exist); odd rows are zero.  The nonzero
    columns of S are the odd ones, which is what makes W = A S skip every
    other column.
    """
    tau = t.tau
    m = t.m
    entries = []
    for row in range(0, m, 2):
        if row >= 2:
            entries.append((row, row - 1, tau[row - 1]))
        if row + 1 < m:
            entries.append((row, row + 1, -tau[row]))
    return SSplitting(m, entries)


class UnitLowerFactor:
    """Unit lower-triangular factor L with first column e_0 by default.

    The buffer keeps L's column j, j >= 1, in buffer column j-1, i.e.
    shifted one column left, occupying rows j and below; buffer[j, j-1]
    holds an explicit 1 (the unit diagonal entry of L column j), so blocked
    trailing updates consume whole panels.  ``mode`` names this one layout.

    ``first_column``, when given, is the strictly-below-diagonal part of a
    non-default first column of L (length m-1).
    """

    __slots__ = ("data", "first_column")
    mode = "ones"

    def __init__(self, data, first_column=None):
        data = np.asarray(data)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("square 2-D buffer required")
        self.data = data
        self.first_column = None if first_column is None else np.asarray(first_column)

    @property
    def m(self):
        return self.data.shape[0]

    @classmethod
    def identity(cls, m, dtype=np.float64):
        buf = np.zeros((m, m), dtype=dtype, order="F")
        np.fill_diagonal(buf[1:], 1)
        return cls(buf)

    def dense(self):
        m = self.m
        out = np.zeros((m, m), dtype=self.data.dtype)
        np.copyto(out[:, 1:], self.data[:, :-1], where=np.tri(m, k=-2, dtype=bool)[:, :-1])
        np.fill_diagonal(out, 1)
        if self.first_column is not None and m:
            out[1:, 0] = self.first_column
        return out

    def max_abs(self):
        """Largest |entry| of L including the unit diagonal."""
        worst = 1.0
        for j in range(1, self.m):
            col = self.data[j + 1:, j - 1]
            if col.size:
                worst = max(worst, float(np.max(np.abs(col))))
        if self.first_column is not None and self.first_column.size:
            worst = max(worst, float(np.max(np.abs(self.first_column))))
        return worst

    def __repr__(self):
        return f"UnitLowerFactor(m={self.m}, mode={self.mode!r})"


class PermutationVector:
    """Accumulated pivot offsets p = (pi_0, ..., pi_{k-1}).

    pi_k is a relative offset inside the remaining subvector: P(pi_k) swaps
    position k with position k + pi_k.  The factorization never computes
    pi_0; it is fixed at zero.  Offsets are int64, checked by ``_offsets``.
    """

    __slots__ = ("pivots", "m")

    def __init__(self, pivots, m):
        self.pivots, bad = _offsets(pivots, m)
        if len(self.pivots) > m:
            raise ValueError("more pivots than rows")
        self.m = m
        if bad is not None:
            raise ValueError(f"pivot {pivots[bad]} out of range at position {bad}")

    def __len__(self):
        return len(self.pivots)

    @property
    def nontrivial(self):
        return int(np.count_nonzero(self.pivots))

    def sign(self):
        """det P(p): each nontrivial offset is one transposition."""
        return -1 if self.nontrivial % 2 else 1


def _offsets(pivots, n):
    """The offset check: (int64 offsets, the first k where pi_k is not 0 or an
    integer value in [0, n - k), else None); 1-D only.  By dtype kind, before any
    cast: bool/int/float by value, object entry by entry, other kinds fail at 0."""
    p = np.asarray(pivots)
    if p.ndim != 1:
        raise ValueError("pivots must be a vector")
    with np.errstate(invalid="ignore"):  # NaN and infinity fail as not integral
        if p.dtype.kind == "O":  # an integral real number, else -1, which fails
            p = np.array([int(v) if isinstance(v, numbers.Real) and v == v // 1
                          and 0 <= v < 2**63 else -1 for v in p.tolist()], dtype=np.int64)
        elif p.dtype.kind not in "biuf":  # complex, strings, dates, ...
            p = np.full(len(p), -1, dtype=np.int64)
        q = p.astype(np.int64, copy=False)
    bad = np.flatnonzero((q != p) | (q < 0) | ((q >= n - np.arange(len(q))) & (q != 0)))
    return q, (int(bad[0]) if bad.size else None)


def compose_permutation(p: PermutationVector) -> np.ndarray:
    """Dense permutation ``perm`` with (P(p) x)[i] = x[perm[i]].

    Equivalent to applying P(pi_0), then P(pi_1) on the trailing subvector,
    and so on.
    """
    return _swap_order(p.pivots, p.m)


def _swap_order(pivots, n):
    """``compose_permutation`` of the offsets ``pivots`` on n rows."""
    return _checked_swaps(pivots, n)[1]


def _checked_swaps(pivots, n):
    """(the int64 offsets ``_offsets`` returns, their ``_swap_order``); raises
    IndexError, before any swap, on an offset ``_offsets`` rejects."""
    pivots, bad = _offsets(pivots, n)
    if bad is not None:
        raise IndexError("pivot out of range")
    idx = list(range(n))
    nz = np.flatnonzero(pivots)
    for k, j in zip(nz.tolist(), (nz + pivots[nz]).tolist()):
        idx[k], idx[j] = idx[j], idx[k]
    return pivots, np.array(idx, dtype=np.intp)


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def _sym_swap_lower(buf, a, b):
    """Swap rows/columns 0 <= a < b < n of the n x n skew matrix in lower storage.

    Only stored (strictly-lower) positions are touched; the entries strictly
    between a and b cross the diagonal under the swap and change sign, as
    does (b, a).  Returns the number of elements moved, for the caller to
    count as ``pivot`` work.
    """
    n = buf.shape[0]
    # rows a and b left of column a: plain row swap
    if a > 0:
        tmp = buf[a, :a].copy()
        buf[a, :a] = buf[b, :a]
        buf[b, :a] = tmp
    # below row b in columns a and b: plain column swap
    if b + 1 < n:
        tmp = buf[b + 1:, a].copy()
        buf[b + 1:, a] = buf[b + 1:, b]
        buf[b + 1:, b] = tmp
    # (i, a) with a < i < b trades places with (b, i); both cross the diagonal
    if b - a > 1:
        tmp = buf[a + 1:b, a].copy()
        buf[a + 1:b, a] = -buf[b, a + 1:b]
        buf[b, a + 1:b] = -tmp
    buf[b, a] = -buf[b, a]
    return 2 * (a + (n - b - 1) + (b - a - 1)) + 1


def apply_symmetric_pivot(x: SkewMatrixLower, k, pi):
    """In place: X := P X P^T for the transposition (k, k + pi), integers."""
    k, pi = operator.index(k), operator.index(pi)
    if pi == 0:
        return
    if pi < 0 or k < 0 or k + pi >= x.m:
        raise IndexError("pivot index out of range")
    add_flops("pivot", _sym_swap_lower(x.data, k, k + pi))


def reconstruct(l: UnitLowerFactor, t: SkewTridiagonal, p: PermutationVector | None = None) -> SkewMatrixLower:
    """P^T (L T L^T) P as a lower-stored skew matrix (testing aid)."""
    if l.m != t.m or (p is not None and p.m != l.m):
        raise ValueError("dimension mismatch")
    ld = l.dense()
    # T L^T by two shifted row products: one m^3 product, not two
    lt = ld.T.astype(np.result_type(ld, t.tau), copy=False)
    full = ld.dot(_pack_t(t.tau, lt))
    if p is not None and len(p) and p.nontrivial:
        perm = compose_permutation(p)
        inv = invert_permutation(perm)
        full = full[np.ix_(inv, inv)]
    return SkewMatrixLower.from_dense(full)


def pack_in_place(x: SkewMatrixLower, l: UnitLowerFactor, t: SkewTridiagonal):
    """Overwrite x with the packed factor layout.

    The subdiagonal of x receives tau, and column j of L (j >= 1) lands in
    column j-1 strictly below the subdiagonal.  The strictly-lower triangle
    then holds exactly the non-unit, non-zero content of L and T.  It has no
    slot for a first column of L other than e_0: one raises ValueError.
    """
    m = x.m
    if l.m != m or t.m != m:
        raise ValueError("dimension mismatch")
    if l.first_column is not None and np.any(l.first_column):
        raise ValueError("the packed layout holds no first column of L other than e_0")
    buf = x.data
    np.copyto(buf, l.data, casting="unsafe", where=np.tri(m, k=-2, dtype=bool))
    np.fill_diagonal(buf[1:], t.tau)


def unpack_in_place(x: SkewMatrixLower):
    """Read (L, T) back out of a packed matrix; exact inverse of pack."""
    m = x.m
    buf = x.data
    tau = buf.diagonal(-1).copy()
    lbuf = np.zeros((m, m), dtype=buf.dtype, order="F")
    np.copyto(lbuf, buf, where=np.tri(m, k=-2, dtype=bool))
    np.fill_diagonal(lbuf[1:], 1)
    return UnitLowerFactor(lbuf), SkewTridiagonal(tau)
