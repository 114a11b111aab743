"""Storage types for skew-symmetric matrices and their L T L^T factors.

Only the strictly lower triangle of a skew-symmetric matrix is ever stored
or referenced: the diagonal is implicitly zero and the upper triangle is
implied by antisymmetry.  Everything here is dtype-agnostic, so exact
scalar types (fractions.Fraction in an object array) flow through
unchanged; the production path uses float64.
"""

from __future__ import annotations

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
    """Panel variant incompatible with the requested options."""


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
        buf = np.zeros(dense.shape, dtype=dense.dtype, order="F")
        il, jl = np.tril_indices(dense.shape[0], -1)
        buf[il, jl] = dense[il, jl]
        return cls(buf)

    def dense(self):
        """Full array expanded by antisymmetry (testing and I/O helper)."""
        lower = np.tril(self.data, -1)
        return lower - lower.T

    def copy(self):
        return SkewMatrixLower(np.array(self.data, order="F"))

    def norm(self):
        """Frobenius norm of the implicit full matrix, computed in float64
        or complex128 (exact entries as float64)."""
        lower = np.tril(self.data, -1)
        dt = np.float64 if lower.dtype == object else np.result_type(lower.dtype, np.float64)
        lower = lower.astype(dt, copy=False)
        return float(np.sqrt(2.0) * np.linalg.norm(lower))

    def __repr__(self):
        return f"SkewMatrixLower(m={self.m}, dtype={self.data.dtype})"


def random_skew(m, seed=0, scale=1.0):
    """Random skew matrix: strictly-lower entries i.i.d. standard normal.

    Philox is a 64-bit counter-based (splittable) generator, so (seed, m)
    names the matrix reproducibly across runs and platforms.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    x = SkewMatrixLower.zeros(m)
    il, jl = np.tril_indices(m, -1)
    x.data[il, jl] = scale * rng.standard_normal(il.size)
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


class SSplitting:
    """Sparse S with T = S - S^T; the odd rows of S are identically zero."""

    __slots__ = ("m", "entries")

    def __init__(self, m, entries):
        self.m = m
        self.entries = list(entries)

    def dense(self, dtype=None):
        if dtype is None:
            vals = np.array([v for *_ij, v in self.entries]) if self.entries else np.array([0.0])
            dtype = vals.dtype
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

    Storage modes (both keep L's column j, j >= 1, in buffer column j-1,
    i.e. shifted one column left, occupying rows j and below):

    * ``"ones"``:   buffer[j, j-1] holds an explicit 1.0 (the unit diagonal
      entry of L column j).  This is the working layout of the drivers; the
      explicit ones let blocked trailing updates consume whole panels.
    * ``"packed"``: buffer[j, j-1] holds tau[j-1] instead, the fully packed
      layout produced by :func:`pack_in_place`.

    ``first_column``, when given, is the strictly-below-diagonal part of a
    non-default first column of L (length m-1).
    """

    __slots__ = ("data", "mode", "first_column")

    def __init__(self, data, mode="ones", first_column=None):
        data = np.asarray(data)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("square 2-D buffer required")
        if mode not in ("ones", "packed"):
            raise ValueError(f"unknown storage mode {mode!r}")
        self.data = data
        self.mode = mode
        self.first_column = None if first_column is None else np.asarray(first_column)

    @property
    def m(self):
        return self.data.shape[0]

    @classmethod
    def identity(cls, m, dtype=np.float64):
        buf = np.zeros((m, m), dtype=dtype, order="F")
        for j in range(1, m):
            buf[j, j - 1] = 1
        return cls(buf)

    def dense(self):
        m = self.m
        out = np.zeros((m, m), dtype=self.data.dtype)
        for j in range(m):
            out[j, j] = 1
        for j in range(1, m):
            out[j + 1:, j] = self.data[j + 1:, j - 1]
        if self.first_column is not None:
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
    pi_0; it is fixed at zero.
    """

    __slots__ = ("pivots", "m")

    def __init__(self, pivots, m):
        self.pivots = np.asarray(pivots, dtype=np.int64)
        if self.pivots.ndim != 1:
            raise ValueError("pivots must be a vector")
        if len(self.pivots) > m:
            raise ValueError("more pivots than rows")
        self.m = m
        for k, off in enumerate(self.pivots):
            if off < 0 or k + off >= m:
                raise ValueError(f"pivot {off} out of range at position {k}")

    def __len__(self):
        return len(self.pivots)

    @classmethod
    def identity(cls, m, k=None):
        return cls(np.zeros(m if k is None else k, dtype=np.int64), m)

    @property
    def nontrivial(self):
        return int(np.count_nonzero(self.pivots))

    def sign(self):
        """det P(p): each nontrivial offset is one transposition."""
        return -1 if self.nontrivial % 2 else 1


def compose_permutation(p: PermutationVector) -> np.ndarray:
    """Dense permutation ``perm`` with (P(p) x)[i] = x[perm[i]].

    Equivalent to applying P(pi_0), then P(pi_1) on the trailing subvector,
    and so on.
    """
    idx = np.arange(p.m)
    for k, off in enumerate(p.pivots):
        if off:
            j = k + off
            idx[k], idx[j] = idx[j], idx[k]
    return idx


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def _sym_swap_lower(buf, a, b):
    """Swap rows/columns a < b of a skew matrix held in lower storage.

    Only stored (strictly-lower) positions are touched; the entries strictly
    between a and b cross the diagonal under the swap and change sign, as
    does (b, a).
    """
    if a == b:
        return
    if a > b:
        a, b = b, a
    n = buf.shape[0]
    if b >= n or a < 0:
        raise IndexError("pivot index out of range")
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
    add_flops("pivot", 2 * (a + (n - b - 1) + (b - a - 1)) + 1)


def apply_symmetric_pivot(x: SkewMatrixLower, k, pi):
    """In place: X := P X P^T for the transposition (k, k + pi)."""
    if pi == 0:
        return
    if pi < 0 or k < 0 or k + pi >= x.m:
        raise IndexError("pivot index out of range")
    _sym_swap_lower(x.data, k, k + pi)


def reconstruct(l: UnitLowerFactor, t: SkewTridiagonal, p: PermutationVector | None = None) -> SkewMatrixLower:
    """P^T (L T L^T) P as a lower-stored skew matrix (testing aid)."""
    if l.m != t.m or (p is not None and p.m != l.m):
        raise ValueError("dimension mismatch")
    ld = l.dense()
    full = ld.dot(t.dense()).dot(ld.T)
    if p is not None and len(p) and p.nontrivial:
        perm = compose_permutation(p)
        inv = invert_permutation(perm)
        full = full[np.ix_(inv, inv)]
    return SkewMatrixLower.from_dense(full)


def pack_in_place(x: SkewMatrixLower, l: UnitLowerFactor, t: SkewTridiagonal):
    """Overwrite x with the packed factor layout.

    The subdiagonal of x receives tau, and column j of L (j >= 1) lands in
    column j-1 strictly below the subdiagonal.  The strictly-lower triangle
    then holds exactly the non-unit, non-zero content of L and T.
    """
    m = x.m
    if l.m != m or t.m != m:
        raise ValueError("dimension mismatch")
    buf = x.data
    for j in range(m - 1):
        buf[j + 1, j] = t.tau[j]
        buf[j + 2:, j] = l.data[j + 2:, j]


def unpack_in_place(x: SkewMatrixLower):
    """Read (L, T) back out of a packed matrix; exact inverse of pack."""
    m = x.m
    buf = x.data
    tau = np.zeros(max(m - 1, 0), dtype=buf.dtype)
    lbuf = np.zeros((m, m), dtype=buf.dtype, order="F")
    for j in range(m - 1):
        tau[j] = buf[j + 1, j]
        lbuf[j + 1, j] = 1
        lbuf[j + 2:, j] = buf[j + 2:, j]
    return UnitLowerFactor(lbuf, "ones"), SkewTridiagonal(tau)
