"""Blocked factorization drivers.

Variant 1 factors a panel, applies one sandwiched rank-k trailing update,
and finishes the iteration with the straggler rank-2 of the panel's last
transform.  The fused Variants 2a/2b eliminate that straggler: 2a delays
the last transform and folds it into the next iteration's sandwich, 2b has
each panel compute one extra column of L and T so its sandwich already
covers a full set of couplings (the same state shifted one column).  The
two-step driver realizes the 2a sandwich as W = A S plus a skew rank-2k
whose zero columns are skipped.  The left-looking driver pulls all prior
couplings into the panel block from the left instead of updating the
trailing matrix.  All of them, pivoted or not, run one shared block loop;
the schedule table ``_SCHEDULES`` is the one place they differ.  Every
panel is factored by the left-looking core ``unblocked._panel_ll``, the one
core that can pivot: a swap can pull in trailing columns that have not seen
the current panel's updates.  Pivoted factorization exists for the
right-looking family only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import instrument
from .core import (InvalidVariant, PivotUnsupported, SkewMatrixLower,
                   SkewTridiagonal, form_s_splitting)
from .instrument import FlopCounter, counting
from .kernels2 import apply_row_pivots, skew_rank2, skew_tridiag_gemv
from .kernels3 import (PANEL_NB, _upper_scratch, form_w, skew_rank2k,
                       skew_tridiag_gemm, skew_tridiag_rankk)
from .unblocked import FactorizationResult, _check_size, _finalize, _panel_ll, _workbuf

DEFAULT_BLOCK = 256
#: Default block of the pivoted path (``ltlt_blk_piv``, ``apps.pfaffian`` and
#: ``apps.solve``, and the CLI with ``--pivot``).  Its panel is level 2 and
#: memory-bound, with traffic growing as m^2 b / 4, while a smaller block
#: adds trailing updates; LAPACK's Aasen takes 64 for the same reason.
#: Measured with pivoted var2b, one BLAS thread (README: "Block size").
DEFAULT_PIVOT_BLOCK = 128


@dataclass(frozen=True)
class Features:
    """Runtime feature toggles mirroring the optimization ladder, so the
    step-by-step comparison needs no rebuilds (frozen: ``LADDER`` shares them).

    * ``fused_l2``: the panel's and the split update's tridiagonal
      matrix-vector products apply T on the fly (vs. materializing T
      first).  No driver reaches ``gen_rank2``, which has no unfused form.
    * ``external_t``: single fused trailing updates that read L's stored
      unit entries; when off, Variant 1's split stripe + sandwich updates and
      a column-by-column panel.  tau is in an external vector either way.
    * ``fused_l3``: produce the tridiagonal-multiplied operand panels
      inside packing (vs. materializing them wholly and updating the full
      square).
    """

    fused_l2: bool = True
    external_t: bool = True
    fused_l3: bool = True


#: Optimization ladder: cumulative feature steps; step5 additionally
#: switches the driver from blk-var1 to blk-var2b.
LADDER = {
    "step0": Features(fused_l2=False, external_t=False, fused_l3=False),
    "step1": Features(fused_l2=True, external_t=False, fused_l3=False),
    # step2 equals step1: parallelism is the BLAS's own
    "step2": Features(fused_l2=True, external_t=False, fused_l3=False),
    "step3": Features(fused_l2=True, external_t=True, fused_l3=False),
    "step4": Features(fused_l2=True, external_t=True, fused_l3=True),
    "step5": Features(fused_l2=True, external_t=True, fused_l3=True),
}
LADDER_VARIANT = {name: ("blk-var2b" if name == "step5" else "blk-var1") for name in LADDER}


def _run_panel(work, tau, lo, base, nelim, f, pivots=None):
    """Left-looking panel of [base, base + nelim) whose couplings start at
    column ``lo``; the inner blocks are ``PANEL_NB`` wide, or 1 without
    ``f.external_t``.  With ``pivots`` the panel pivots column by column,
    and its row swaps then reach the older L columns [0, lo) in one blocked
    pass."""
    with instrument.scope("panel"):
        _panel_ll(work, tau, lo, base, nelim, pivots=pivots,
                  fused_l2=f.fused_l2, fused_l3=f.fused_l3,
                  width=PANEL_NB if f.external_t else 1)
    if pivots is not None and lo > 0:
        sub = pivots[base + 1: base + nelim + 1]
        if np.any(sub):
            apply_row_pivots(work[base + 1:, :lo], sub, forward=True)


def _apply_couplings(work, tau, lo, hi, f, rank2k):
    """Sandwiched trailing update C := C - A T~ A^T on ``work[hi:, hi:]``
    with the couplings of columns [lo, hi): A = ``work[hi:, lo:hi]`` and
    T~ = tridiag(``tau[lo + 1:hi]``), as in every coupling product.

    With ``rank2k=True`` the update runs as W = A S followed by a skew
    rank-2k whose zero columns are skipped.
    """
    m = work.shape[0]
    if m - hi < 2 or hi - lo < 2:
        return
    a = work[hi:, lo:hi]
    tt = SkewTridiagonal(tau[lo + 1:hi])
    cview = work[hi:, hi:]
    if rank2k:
        w = form_w(a, form_s_splitting(tt))
        skew_rank2k(cview, 1, a, w, 1)
    else:
        skew_tridiag_rankk(cview, -1, a, tt, 1, fused=f.fused_l3)


def _straggler(work, rt):
    """Trailing rank-2 of the panel's last transform (Variant 1 only)."""
    m = work.shape[0]
    if m - rt < 2:
        return
    skew_rank2(work[rt + 1:, rt + 1:], 1, work[rt + 1:, rt - 1],
               work[rt + 1:, rt], 1)


def _split_trailing(work, tau, r, rt, f):
    """Variant 1 trailing update that reads no unit subdiagonal entry of L:
    the stripe below the next pivot column is updated by explicit
    matrix-vector terms, and the remaining block by a sandwich whose A
    operand excludes the unit row."""
    m = work.shape[0]
    be = rt - r
    if be >= 2:
        l32 = work[rt, r:rt - 1]
        l42 = work[rt + 1:, r:rt - 1]
        l43 = work[rt + 1:, rt - 1]
        x43 = work[rt + 1:, rt]
        tau32 = tau[rt - 1]
        skew_tridiag_gemv(x43, -1, l42, SkewTridiagonal(tau[r + 1:rt - 1]), l32, 1,
                          fused=f.fused_l2)
        if l32.size and x43.size:
            x43 -= (tau32 * l32[-1]) * l43
            x43 += tau32 * l42[:, -1]
            instrument.add_flops("level2", 4 * x43.size)
        if m - rt - 1 >= 2:
            skew_tridiag_rankk(work[rt + 1:, rt + 1:], -1, work[rt + 1:, r:rt],
                               SkewTridiagonal(tau[r + 1:rt]), 1, fused=f.fused_l3)


@dataclass(frozen=True)
class _Schedule:
    """How one blocked driver's iterations differ from the others', and whether it pivots."""

    name: str                  # driver name in error messages
    extra_first: bool = False  # the first panel eliminates b + 1 columns (2b)
    carry: bool = False        # each panel's last transform joins the next sandwich
    straggler: bool = False    # trailing rank-2 of each panel's last transform (var1)
    rank2k: bool = False       # sandwich as W = A S plus a skew rank-2k (two-step)
    left: bool = False         # couplings pulled in from the left, no trailing update
    no_pivot: str = ""         # PivotUnsupported message of a schedule that cannot pivot

    def refuse_pivot(self, pivot):
        if pivot and self.no_pivot:
            raise PivotUnsupported(self.no_pivot)


#: The one place the blocked drivers differ, whether they pivot included.
_SCHEDULES = {
    "var1": _Schedule("blk-var1", straggler=True),
    "var2a": _Schedule("blk-var2a", carry=True),
    "var2b": _Schedule("blk-var2b", extra_first=True, carry=True),
    "twostep": _Schedule("blk-2step", carry=True, rank2k=True,
                         no_pivot="blk-2step has no pivoted path; use blk-var2a/blk-var2b"),
    "left": _Schedule("blk-left", carry=True, left=True,
                      no_pivot="a blocked pivoted left-looking algorithm cannot exist"),
}
PIVOTED_FUSED = tuple(k for k, s in _SCHEDULES.items() if not s.no_pivot)


def _right_looking(x, b, scheme, features, pivot):
    """The block loop of every blocked driver, as ``_SCHEDULES[scheme]``
    directs: factor a panel, then apply one sandwiched trailing update (or,
    left-looking, first pull all finished couplings into the panel's block
    column with one trapezoidal product, and update nothing to its right)."""
    s = _SCHEDULES[scheme]
    s.refuse_pivot(pivot)
    _check_size(b, "block size")
    f = features or Features()
    if s.carry and not f.external_t:
        raise InvalidVariant(f"{'pivoted ' if pivot else ''}{s.name} has no split "
                             "trailing update: it needs Features(external_t=True)")
    work, tau = _workbuf(x)
    m = x.m
    pivots = np.zeros(m, dtype=np.int64) if pivot else None
    fc = FlopCounter()
    with counting(fc), _upper_scratch(work):
        r = 0
        while r < m - 1:
            # a carried panel starts at the previous block's delayed transform
            lo = r - 1 if s.carry and r > 0 else r
            be = min(b + 1 if s.extra_first and r == 0 else b, m - 1 - r)
            if s.left and r >= 2:
                skew_tridiag_gemm(work[r:, r:r + be], -1, work[r:, 0:r],
                                  SkewTridiagonal(tau[1:r]), work[r:r + be, 0:r].T,
                                  1, tril=True, fused=f.fused_l3)
            _run_panel(work, tau, lo, r, be, f, pivots)
            rt = r + be
            if not f.external_t:
                _split_trailing(work, tau, r, rt, f)
            elif not s.left:
                _apply_couplings(work, tau, lo, rt, f, s.rank2k)
            if s.straggler:
                _straggler(work, rt)
            r = rt
    return _finalize(work, tau, pivots, fc)


def ltlt_blk_var1(x: SkewMatrixLower, b=DEFAULT_BLOCK,
                  features=None) -> FactorizationResult:
    """Blocked right-looking factorization (Variant 1): panel, sandwiched
    rank-k trailing update, straggler rank-2.  Block size 1 reproduces the
    unblocked right-looking driver."""
    return _right_looking(x, b, "var1", features, pivot=False)


def ltlt_blk_var2a(x: SkewMatrixLower, b=DEFAULT_BLOCK,
                   features=None) -> FactorizationResult:
    """Fused blocked right-looking (Variant 2a): the last transform of each
    panel stays unapplied and rides along in the next iteration's sandwich,
    so no trailing rank-2 is ever issued."""
    return _right_looking(x, b, "var2a", features, pivot=False)


def ltlt_blk_var2b(x: SkewMatrixLower, b=DEFAULT_BLOCK,
                   features=None) -> FactorizationResult:
    """Fused blocked right-looking (Variant 2b): each panel computes one
    extra column of L and T (the first panel eliminates b+1 columns), so
    every sandwich covers a complete set of couplings; the state matches
    Variant 2a shifted by one column."""
    return _right_looking(x, b, "var2b", features, pivot=False)


def ltlt_blk_left(x: SkewMatrixLower, b=DEFAULT_BLOCK, pivot=False,
                  features=None) -> FactorizationResult:
    """Blocked left-looking factorization: before each panel is factored,
    all prior couplings are pulled into it from the left with one
    trapezoidal sandwiched matrix-matrix product; the trailing matrix is
    never updated.

    Pivoting is impossible at the blocked level: selecting the columns to
    pivot into the panel would require updates that depend on pivots not
    yet chosen, so ``pivot=True`` raises ``PivotUnsupported`` first.
    """
    return _right_looking(x, b, "left", features, pivot)


def ltlt_blk_twostep(x: SkewMatrixLower, b=DEFAULT_BLOCK,
                     features=None) -> FactorizationResult:
    """Blocked two-step path: Variant 2a's iteration with the sandwich
    realized as W = A S plus a skew rank-2k update with k = floor(b/2)
    effective columns; with b = 2 each block update is a single rank-2
    pair.  Unpivoted only; the pivoted path uses the var2* drivers."""
    return _right_looking(x, b, "twostep", features, pivot=False)


def ltlt_blk_piv(x: SkewMatrixLower, b=DEFAULT_PIVOT_BLOCK, fused="var1",
                 features=None) -> FactorizationResult:
    """Pivoted blocked right-looking factorization.

    The panel factorization is a pivoted left-looking pass over the entire
    unfactorized trailing matrix; symmetric swaps cover everything from the
    panel's leftmost active column rightward immediately, and the panel's
    pivots are then applied to the older L columns in one blocked pass.
    ``fused`` picks the trailing-update scheme (var1 straggler, or the 2a /
    2b fused sandwiches).  The first pivot is never computed: it is zero.

    The block ``b`` defaults to ``DEFAULT_PIVOT_BLOCK``, smaller than the
    unpivoted drivers' ``DEFAULT_BLOCK``: the pivoted panel runs column by
    column, so its cost grows with b.  A ``fused`` outside ``PIVOTED_FUSED``,
    the schedules that pivot, raises ``InvalidVariant`` first.
    """
    if fused not in PIVOTED_FUSED:
        raise InvalidVariant(f"fused must be one of {PIVOTED_FUSED}, got {fused!r}")
    return _right_looking(x, b, fused, features, pivot=True)
