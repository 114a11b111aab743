"""Level-3 "sandwiched" kernels as one block-column sweep.

Every kernel applies beta once, to the entries it may write (``_scale``;
with beta = 0 it writes zeros there without reading C), and then
accumulates alpha times its product.  With alpha = 0 no product
is formed, so no operand value (NaN or infinity included) reaches C, as
the Level 3 BLAS specify (Dongarra et al., TOMS 1990).

The product is accumulated one ``NB``-wide block column of C at a time.
For each block column the k-side operand (T A^T, T B, or the stacked
rank-2k factors) is packed, so the tridiagonal multiply rides along with
that packing step and no workspace proportional to the full k x m product
is ever formed.  The diagonal block accumulates through a mask, so a
public call never writes entries at or above the diagonal (and garbage
stored there never propagates).  The strip below it is accumulated in
place by one BLAS ``?gemm`` with C's own leading dimension, whatever beta
was, as BLIS-style GEMM accumulates into C (Goto and van de Geijn, TOMS
2008); cache blocking and any threading are the BLAS's own, reached
through ``_blas``.  Operands BLAS cannot take (exact scalars, mixed
dtypes, rows of C that are not unit-strided) are updated in ``NB``-row
chunks with plain matmuls.  The rank-2 kernels ``skew_rank2`` and
``gen_rank2`` of ``kernels2`` run on this sweep with k = 1.

Inside a blocked driver's block loop (``_upper_scratch(work)``), where
nothing reads the work buffer on or above its diagonal, the sweep sends each
whole block column, diagonal tile included, to one ``?gemm``: the tile's
temporary and masked add go, and the tile's upper part takes garbage that
the scope zeroes again when it exits.  Public calls, other threads, exact
scalars and operands BLAS declines keep the masked tile.

Every kernel checks the dtype of its product against C before writing
anything (``_check_product``): a complex product into a real C raises
TypeError and leaves C as it was.
"""

from __future__ import annotations

import functools
import operator
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from . import _blas, instrument
from .core import SkewTridiagonal, _pack_t

# Block-column width of the sweep, and the row-chunk height of its matmul
# fallback (where a full-height temporary was about 35% slower).  With the
# in-place strip and the drivers' padded leading dimension (n=3583, k=257 at
# ld 4104, one BLAS thread, median of 5 alternated) widths 64, 128, 256, 512
# and 1024 ran at 32, 35, 34, 31 and 26 GF/s in one machine phase, and 128
# and 256 at 39 and 38 GF/s in another: the diagonal tile's temporary and
# masked add grow with the width, the number of BLAS calls shrinks.
NB = 256

# Inner block width of the blocked drivers' unpivoted left-looking panels:
# one sandwiched product per block of this many columns, then short
# matrix-vector products inside it.  With var2b at m=4096 (b=256, one BLAS
# thread) widths 1, 16, 32, 64 and 128 took 1.30, 1.08, 1.05, 1.04 and
# 1.16 s, of which the panels took 0.48, 0.25, 0.23, 0.22 and 0.32 s.
PANEL_NB = 32


#: True only inside ``_upper_scratch``: other threads and public calls see False.
_full_tile = ContextVar("skewltl_full_tile", default=False)


@contextmanager
def _upper_scratch(work):
    """Let ``_sweep`` write on and above the diagonal of ``work`` for the
    enclosed calls; zero that band on normal exit, not on an exception."""
    with instrument._bound(_full_tile, True):
        yield
    _clear_upper_band(work)


def _clear_upper_band(work):
    """Zero what full-tile sweeps may have written on or above the diagonal
    of the square ``work``: entries (i, j) with 0 <= j - i < NB.  Only
    nonzero entries are written, so a page no sweep wrote is read (the
    kernel maps its zero page) but never made resident."""
    if work.dtype == object:  # BLAS declines exact scalars: nothing written
        return
    m = work.shape[0]
    w = min(NB, m)
    head = work[:w - 1, :w - 1]  # the columns whose band starts at row 0
    np.copyto(head, 0, where=~_tril_mask(head.shape, -1) & (head != 0))
    # row j - w + 1 of the band holds column j's entries (j - w + 1 + t, j),
    # each a contiguous run that ends on the diagonal
    s0, s1 = work.strides
    band = np.lib.stride_tricks.as_strided(work[:, w - 1:], (m - w + 1, w), (s0 + s1, s0))
    np.copyto(band, 0, where=band != 0)


#: ``_check_product``'s result per combination of dtypes and scalar types.
_RULES = {}
_dtype = operator.attrgetter("dtype")


def _check_product(c, name, alpha, beta, *operands):
    """Raise TypeError, before anything is written, when C (``name`` in
    the message) cannot hold beta*C + alpha*(product of the operand arrays)
    under ``same_kind`` casting (a complex product into a real C, say).
    Scalars numpy has no dtype for (``Fraction``) count as object.  Under
    NEP 50 a Python scalar's value never changes the result dtype, so the
    rule is evaluated once per combination of C's and the operands' dtypes
    and the scalars' types.  Returns the product's dtype."""
    key = (c.dtype, type(alpha), type(beta), getattr(alpha, "dtype", None),
           getattr(beta, "dtype", None), *map(_dtype, operands))
    rule = _RULES.get(key)
    if rule is None:
        scalars = [v if isinstance(v, (int, float, complex, np.generic, np.ndarray))
                   else np.dtype(object) for v in (alpha, beta)]
        dt = np.result_type(*operands, *scalars)
        rule = _RULES[key] = (dt, np.can_cast(dt, c.dtype, "same_kind"))
    if not rule[1]:
        raise TypeError(f"cannot write a {rule[0]} product into a {c.dtype} {name}")
    return rule[0]


def _check_alias(c, a, name):
    if a is not None and np.shares_memory(c, a):
        raise ValueError(f"output aliases operand {name}")


def _lower_entries(n):
    return n * (n - 1) // 2


@functools.lru_cache(maxsize=256)
def _tril_mask(shape, k):
    """Shared, read-only lower-triangle mask; at most 256 are kept."""
    mask = np.tril(np.ones(shape, dtype=bool), k=k)
    mask.flags.writeable = False
    return mask


def _scale(c, beta, tril=True):
    """C := beta*C, on the strictly-lower entries only with ``tril``; one
    block column at a time, so no mask larger than an ``NB`` tile is made.
    With beta = 0 those entries are set to zero without being read, so a NaN
    or infinity already in C does not survive."""
    if beta == 1:
        return
    if not tril:
        _scale_view(c, beta)
        return
    p, q = c.shape
    for jc in range(0, min(p, q), NB):
        j1 = min(jc + NB, q)
        top = min(j1, p)
        tile = c[jc:top, jc:j1]
        _scale_view(tile, beta, _tril_mask(tile.shape, -1))
        _scale_view(c[top:, jc:j1], beta)


def _scale_view(v, beta, where=True):
    if beta == 0:  # beta is a zero of its own type, cast as a product would be
        np.copyto(v, beta, where=where)
    else:
        np.multiply(v, beta, out=v, where=where)


def _sweep(c, left, pack, alpha, tril=True):
    """C += alpha * left @ pack(jc, j1), one block column at a time.

    ``pack(jc, j1)`` returns the k x (j1 - jc) operand of block column
    [jc, j1).  With ``tril`` only entries with row > col are written.  The
    strip below the diagonal block is one in-place BLAS call when the
    operands allow it, and ``NB``-row chunked matmuls otherwise.  Under
    ``_upper_scratch`` the diagonal block goes into the strip's BLAS call
    instead.
    """
    p, q = c.shape
    full = tril and _full_tile.get()
    for jc in range(0, q, NB):
        j1 = min(jc + NB, q)
        top = jc if tril else 0
        if top >= p:
            break
        panel = pack(jc, j1)
        if full and _blas.gemm_into(c[jc:, jc:j1], left[jc:], panel, alpha):
            continue
        if tril:
            top = min(j1, p)
            tile = c[jc:top, jc:j1]
            np.add(tile, alpha * left[jc:top].dot(panel), out=tile,
                   where=_tril_mask(tile.shape, -1))
        if _blas.gemm_into(c[top:, jc:j1], left[top:], panel, alpha):
            continue
        for ic in range(top, p, NB):
            i1 = min(ic + NB, p)
            c[ic:i1, jc:j1] += alpha * left[ic:i1].dot(panel)


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
    _check_product(c, "C", alpha, beta, a, t.tau)
    instrument.record_call("skew_tridiag_rankk")
    instrument.add_flops("level3", 2 * k * _lower_entries(n) + 4 * k * n)
    _scale(c, beta)
    if n <= 1 or alpha == 0 or k == 0:
        return
    tau = t.tau
    if not fused:
        instrument.add_flops("level3", 2 * k * _lower_entries(n))  # upper half computed and discarded
        full = a.dot(_pack_t(tau, a.T))
        np.add(c, alpha * full, out=c, where=np.tri(n, k=-1, dtype=bool))
        return
    _sweep(c, a, lambda jc, j1: _pack_t(tau, a[jc:j1].T), alpha)


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
    _check_product(c, "C", alpha, beta, a, t.tau, b)
    instrument.record_call("skew_tridiag_gemm")
    written = _lower_entries(min(p, q)) + max(p - q, 0) * q if tril else p * q
    instrument.add_flops("level3", 2 * k * written + 4 * k * q)
    _scale(c, beta, tril)
    if p == 0 or q == 0 or alpha == 0 or k == 0:
        return
    if not fused:
        tb = t.dense().dot(np.asarray(b))
        instrument.add_flops("level3", 2 * k * k * q)
        _sweep(c, a, lambda jc, j1: tb[:, jc:j1], alpha, tril)
        return
    _sweep(c, a, lambda jc, j1: _pack_t(t.tau, b[:, jc:j1]), alpha, tril)


def skew_rank2k(c, alpha, a, b, beta=1):
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
    _check_product(c, "C", alpha, beta, a, b)
    instrument.record_call("skew_rank2k")
    keep = np.flatnonzero((a != 0).any(axis=0) & (b != 0).any(axis=0))
    keff = len(keep)
    instrument.add_flops("level3", 4 * keff * _lower_entries(n))
    _scale(c, beta)
    if n <= 1 or alpha == 0 or keff == 0:
        return
    _skew_sweep(c, alpha, a[:, keep], b[:, keep])


def _skew_sweep(c, alpha, a, b):
    """C += alpha*(A B^T - B A^T) on the strictly-lower triangle of C, one
    product [A B] [B -A]^T per block column."""
    left = np.concatenate((a, b), axis=1)
    _sweep(c, left, lambda jc, j1: np.concatenate((b[jc:j1], -a[jc:j1]), axis=1).T,
           alpha)


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
