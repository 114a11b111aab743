"""Unblocked factorization drivers and their three cores: right-looking
(modified Parlett-Reid), left-looking (modified Aasen), and two-step, which
eliminates a pair of columns per iteration.  The left-looking core
``_panel_ll`` is also the panel core of ``ltlt_unb_panel`` and of every
blocked driver; the other two factor whole matrices only.  The frame
``_unblocked`` runs one core as an unblocked driver.

Working layout: the input's strictly-lower part is copied into a zeroed
column-major buffer that the elimination overwrites column by column; the
input is not read on or above its diagonal.  The buffer is returned as
``L.data``; on and above its diagonal it is not part of L.  Inside a blocked
driver's block loop the band of ``kernels3.NB`` entries on and above the
diagonal is scratch, which the trailing updates' full-tile sweep writes and
nothing reads; the loop's scratch scope (``kernels3._upper_scratch``) zeroes
it when it exits, so ``L.data`` is zero there on return.  Once column g is
eliminated, buffer column g holds column g+1 of L shifted one column left,
its unit entry an explicit 1.0 in the subdiagonal slot (tau[g] is kept in
its own vector), so a finished panel is directly consumable as the A operand
of the sandwiched trailing updates.  The same holds inside a panel: the
blocked drivers' unpivoted left-looking panels eliminate in inner blocks,
and each block first takes the couplings of the finished columns to its left
in one sandwiched product.  A panel writes only its own columns.  When the
column stride would be a multiple of 4 KiB, the buffer is allocated one
cache line taller and the drivers work on (and return L as) its top m rows:
power-of-two strides map the columns of a block onto the same cache sets,
which at m = 4096 made the trailing update run at a third of its padded
rate.  A buffer of 32 MiB or more is a private mapping on 4 KiB pages
(``_zeroed``); the factorizations write above its diagonal only inside that
band, so the pages that hold only upper-triangle entries beyond it never
become resident.
"""

from __future__ import annotations

import math
import mmap
import operator
from dataclasses import dataclass

import numpy as np

from . import instrument
from .core import (PermutationVector, SkewMatrixLower, SkewTridiagonal,
                   UnitLowerFactor, ZeroPivot, _sym_swap_lower)
from .instrument import FlopCounter, counting
from .kernels2 import skew_rank2, skew_tridiag_gemv
from .kernels3 import NB, _tril_mask, skew_tridiag_gemm


@dataclass
class FactorizationResult:
    """L, T, pivots, and the flop tally of one factorization.

    ``p`` is empty when the factorization ran unpivoted.
    """

    l: UnitLowerFactor
    t: SkewTridiagonal
    p: PermutationVector
    flops: FlopCounter


def _check_dtype(x: SkewMatrixLower):
    if x.data.dtype.kind in "biu":
        raise TypeError(f"input dtype {x.data.dtype} is not supported: pass a "
                        "floating-point, complex or object array")


def _check_size(n, what):
    if isinstance(n, bool):  # operator.index takes True as 1
        raise TypeError(f"{what}: a bool cannot be interpreted as an integer")
    if operator.index(n) < 1:  # TypeError for a non-integer
        raise ValueError(f"{what} must be >= 1")


#: Numeric work buffers of at least this many bytes are mapped by ``_zeroed``.
#: glibc's largest mmap threshold: from here on ``np.zeros`` gets a fresh
#: mapping anyway, while below it the buffer may come from glibc's heap, whose
#: pages are already resident and are reused without faults.
_MAP_MIN_BYTES = 32 << 20


def _zeroed(shape, dtype):
    """A zeroed column-major array.  A numeric one of at least
    ``_MAP_MIN_BYTES`` is a private anonymous mapping advised off
    transparent huge pages: the kernel zero-fills each 4 KiB page on its
    first write, so pages the drivers never write stay out of RAM and still
    read zero.  (numpy advises huge pages for large arrays, and a 2 MiB page
    of an m = 4096 buffer spans 64 whole columns, upper triangle included.)
    The mapping must be private: a shared one is shmem, which gets no huge
    pages either but faults more slowly.  Object dtype, smaller buffers,
    platforms without ``MADV_NOHUGEPAGE`` and a failing ``mmap`` take
    ``np.zeros``."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if (dtype != object and nbytes >= _MAP_MIN_BYTES
            and hasattr(mmap, "MADV_NOHUGEPAGE")):
        try:
            mem = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            mem.madvise(mmap.MADV_NOHUGEPAGE)
        except OSError:
            pass
        else:
            return np.ndarray(shape, dtype, buffer=mem, order="F")
    return np.zeros(shape, dtype, order="F")


def _workbuf(x: SkewMatrixLower):
    """Working copy of ``x`` (see the module docstring) in a ``_zeroed``
    buffer, and a zeroed tau vector.  Only the buffer's strictly-lower part
    is written, in one pass over the input's: each block column of NB is
    copied, then scanned, so the first NaN or infinity in column-major order
    raises ValueError; exact (object dtype) scalars are not checked.
    Integer and boolean inputs raise TypeError."""
    _check_dtype(x)
    src = x.data
    m = x.m
    if m < 1:
        raise ValueError("m >= 1 required")
    itemsize = src.dtype.itemsize
    ld = m + max(1, 64 // itemsize) if (m * itemsize) % 4096 == 0 else m
    work = _zeroed((ld, m), src.dtype)[:m]
    for j0 in range(0, m, NB):
        j1 = min(j0 + NB, m)
        np.copyto(work[j0:j1, j0:j1], src[j0:j1, j0:j1],
                  where=_tril_mask((j1 - j0, j1 - j0), -1))
        work[j1:, j0:j1] = src[j1:, j0:j1]
        if work.dtype != object:
            bad = ~np.isfinite(work[j0:, j0:j1])
            if bad.any():
                j, i = np.argwhere(bad.T)[0]
                raise ValueError(f"non-finite input entry at ({j0 + i}, {j0 + j})")
    return work, np.zeros(m - 1, dtype=work.dtype)


def _finalize(work, tau, pivots, fc, first_column=None):
    p = np.zeros(0, dtype=np.int64) if pivots is None else pivots
    return FactorizationResult(UnitLowerFactor(work, first_column), SkewTridiagonal(tau),
                               PermutationVector(p, work.shape[0]), fc)


def _eliminate(work, tau, g, pivots, swap_from, tally):
    """Turn buffer column g into column g+1 of L, with its explicit unit
    entry in the subdiagonal slot, and record tau[g] in the external vector.

    With ``pivots``, the largest-magnitude element of the subcolumn is
    swapped to the top first (ties to the lowest index) and the offset is
    recorded; the symmetric swap covers all columns >= swap_from, leaving
    older columns for the caller to fix up in one blocked pass.

    The divisions and the elements the swap moved are added to ``tally``,
    which the caller hands to ``_count`` once per pass over its columns.
    """
    if pivots is not None:
        off = int(abs(work[g + 1:, g]).argmax())
        pivots[g + 1] = off
        if off:
            a = g + 1 - swap_from
            tally[1] += _sym_swap_lower(work[swap_from:, swap_from:], a, a + off)
    piv = work[g + 1, g]
    tau[g] = piv
    below = work[g + 2:, g]
    if piv == 0:
        if pivots is None and below.size and np.any(below != 0):
            raise ZeroPivot(g)
        # whole subcolumn zero: tau 0, L column is a basis vector; continue
    else:
        below /= piv
        tally[0] += below.size
    work[g + 1, g] = 1


def _count(tally):
    """Add an ``_eliminate`` tally of (divisions, elements moved)."""
    instrument.add_flops("level2", tally[0])
    instrument.add_flops("pivot", tally[1])


def _panel_ll(work, tau, lo, base, nelim, *, pivots=None, fused_l2=True,
              fused_l3=True, width=1):
    """Left-looking eliminations of columns [base, base + nelim): the one
    panel core, of the unblocked left-looking and panel drivers and of every
    blocked driver's panels.  It is the only core that can pivot inside a
    panel: a swap may pull in a trailing column that has not seen the
    panel's updates, and this core applies them to each column just before
    eliminating it.

    ``lo`` is the leftmost column in the column updates, decided by the
    caller: ``base`` for a fresh panel, ``base - 1`` when the delayed
    transform of the previous block still has to be folded in.  Each column
    is updated against the L columns and tau values to its left, then
    pivoted (with ``pivots``), then eliminated; swaps reach columns >= lo.

    The columns are taken in inner blocks of ``width``.  Before a block
    [g0, g1) is eliminated, the couplings of columns [lo, g0) reach all of
    it in one sandwiched matrix-matrix product on its strictly-lower part;
    each column g then needs only the couplings of [max(lo, g0 - 1), g), one
    matrix-vector product of at most ``width`` + 1 columns, whose row operand
    is the stored row of L, unit entry included.  The two ranges share
    column g0 - 1 but no coupling.  Pivoting stays column by column whatever
    ``width`` is: a symmetric swap with a column outside the block would mix
    updated and raw data.  Writes stay inside the panel's columns.
    """
    if pivots is not None:
        width = 1
    end = base + nelim
    tally = [0, 0]
    for g0 in range(base, end, width):
        g1 = min(g0 + width, end)
        mid = g0 if width > 1 else lo   # columns [lo, mid) go in one product
        if mid - lo >= 2:
            skew_tridiag_gemm(work[g0:, g0:g1], -1, work[g0:, lo:mid],
                              SkewTridiagonal(tau[lo + 1:mid]), work[g0:g1, lo:mid].T,
                              1, tril=True, fused=fused_l3)
        left = max(lo, mid - 1)
        for g in range(g0, g1):
            if g - left >= 2:
                skew_tridiag_gemv(work[g + 1:, g], -1, work[g + 1:, left:g],
                                  SkewTridiagonal(tau[left + 1:g]), work[g, left:g],
                                  1, fused=fused_l2)
            _eliminate(work, tau, g, pivots, lo, tally)
    _count(tally)


def _panel_rl(work, tau, pivots):
    """Right-looking eliminations of the whole matrix: each transform's skew
    rank-2 reaches the trailing matrix at once (none after the last)."""
    m = work.shape[0]
    tally = [0, 0]
    for g in range(m - 1):
        _eliminate(work, tau, g, pivots, 0, tally)
        s = g + 2
        if s < m:
            skew_rank2(work[s:, s:], 1, work[s:, g], work[s:, g + 1])
    _count(tally)


def _panel_twostep(work, tau, pivots):
    """Two-step eliminations of the whole matrix: because the diagonal
    partner of the pivot is zero, the transform from column g leaves column
    g+1 untouched, so a pair of transforms comes straight from current data
    and their two couplings collapse into one rank-2 via the splitting
    W = L S.  An odd leftover column is the last one, with no trailing
    matrix left to update."""
    m = work.shape[0]
    tally = [0, 0]
    for g in range(0, m - 2, 2):
        _eliminate(work, tau, g, pivots, 0, tally)
        _eliminate(work, tau, g + 1, pivots, 0, tally)
        s = g + 3
        lcol1 = work[s:, g]        # L column g+1 below row g+2
        lcol2 = work[s:, g + 1]    # L column g+2
        # fold the first coupling into column g+2 alone ...
        work[s:, g + 2] -= tau[g + 1] * (work[g + 2, g] * lcol2 - lcol1)
        # ... and combine both couplings in one rank-2 with w, the only
        # nonzero column of L S for this pair
        wv = work[s:, g + 2] - tau[g + 1] * lcol1
        instrument.add_flops("level2", 6 * (m - s))
        if s < m:
            skew_rank2(work[s:, s:], -1, wv, lcol2)
    if m % 2 == 0:
        _eliminate(work, tau, m - 2, pivots, 0, tally)
    _count(tally)


def _unblocked(x, core, pivot, width=None, first_column=None):
    """The frame of the unblocked drivers: check every argument, then make
    one pass of ``core`` over the whole matrix or, with ``width``, a
    left-looking pass over its first columns only, to which L and the
    pivots are trimmed."""
    fcvec = None
    if first_column is not None:
        if pivot:
            raise ValueError("first_column is only supported without pivoting")
        _check_dtype(x)  # before converting to x's dtype
        fcvec = np.asarray(first_column)
        if fcvec.shape != (x.m - 1,):
            raise ValueError("first_column must have length m - 1")
        fcvec = fcvec.astype(x.data.dtype) if x.data.dtype != object else fcvec.copy()
        if fcvec.dtype != object and not np.isfinite(fcvec).all():
            raise ValueError("first_column must be finite")
    if width is not None:
        _check_size(width, "panel width")
    work, tau = _workbuf(x)
    m = x.m
    pivots = np.zeros(m, dtype=np.int64) if pivot else None
    nelim = m - 1 if width is None else min(width, m - 1)
    fc = FlopCounter()
    with counting(fc):
        if fcvec is not None:
            skew_rank2(work[1:, 1:], 1, fcvec, work[1:, 0], 1)
        with instrument.scope("trailing" if width is None else "panel"):
            if core is _panel_ll:
                _panel_ll(work, tau, 0, 0, nelim, pivots=pivots)
            else:
                core(work, tau, pivots)
    if width is not None:
        for j in range(nelim, m):  # strictly lower only: the rest is still zero
            work[j + 1:, j] = 0
        pivots = pivots[:nelim + 1] if pivots is not None else None
    return _finalize(work, tau, pivots, fc, first_column=fcvec)


def ltlt_unb_rl(x: SkewMatrixLower, pivot=False) -> FactorizationResult:
    """Right-looking (modified Parlett-Reid) factorization: eliminate one
    column per iteration, immediately applying its skew rank-2 update to
    the whole trailing matrix.  Roughly 2m^3/3 flops."""
    return _unblocked(x, _panel_rl, pivot)


def ltlt_unb_ll(x: SkewMatrixLower, pivot=False, first_column=None) -> FactorizationResult:
    """Left-looking (modified Aasen) factorization: each column is updated
    against all previously computed factors through one fused
    tridiagonal-sandwiched matrix-vector product (the Hessenberg factor is
    never materialized), then eliminated.  Roughly m^3/3 flops.

    ``first_column`` (length m - 1, finite, unpivoted only) selects a
    non-default first column of L; the matching first transform is applied
    up front and the standard loop then runs unchanged.
    """
    return _unblocked(x, _panel_ll, pivot, first_column=first_column)


def ltlt_unb_twostep(x: SkewMatrixLower, pivot=False) -> FactorizationResult:
    """Two-step right-looking factorization: two columns eliminated per
    iteration with a single trailing rank-2, halving the flops of the
    plain right-looking driver; both subdiagonal values and both L columns
    of each pair are produced."""
    return _unblocked(x, _panel_twostep, pivot)


def ltlt_unb_panel(x: SkewMatrixLower, panel_width, *, pivot=False,
                   first_column=None) -> FactorizationResult:
    """Factor only the first ``panel_width`` columns, left-looking; updates
    stay inside the panel.  The entire remaining matrix must be passed in:
    with pivoting, symmetric swaps reach across all of it.

    The returned factors are partial: only the first panel_width columns of
    L/T (and pivots) are populated.  ``panel_width`` is an integer >= 1;
    ``first_column`` is as in ``ltlt_unb_ll``.
    """
    return _unblocked(x, _panel_ll, pivot, panel_width, first_column)
