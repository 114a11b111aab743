"""Correctness checks that use numpy and scipy only, never skewltl.

Each check raises ``CheckError`` when an output is wrong and returns
quietly otherwise.  Factors are read through their documented storage:
L column j (j >= 1) sits in buffer column j-1 from row j down, with an
explicit 1.0 at row j; L column 0 is e_0; tau is the subdiagonal of T;
pivot offset k swaps positions k and k + p[k] of the remaining subvector.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(float).eps
# Column block used when applying L, so no m x m temporary is formed.
_NB = 512


class CheckError(AssertionError):
    """An output failed its correctness check."""


def skew_apply(lower, v):
    """X v for X = lower - lower^T (lower holds the strictly-lower part)."""
    return lower @ v - lower.T @ v


def check_pivots(pivots, m):
    """The offsets form a valid pivot vector of length m with p[0] = 0."""
    p = np.asarray(pivots)
    if p.shape != (m,) or not np.issubdtype(p.dtype, np.integer):
        raise CheckError(f"pivot vector has shape {p.shape} and dtype {p.dtype}, expected ({m},) integers")
    if m and p[0] != 0:
        raise CheckError(f"first pivot offset is {p[0]}, expected 0")
    bad = np.flatnonzero((p < 0) | (np.arange(m) + p >= m))
    if bad.size:
        raise CheckError(f"pivot offset {p[bad[0]]} at position {bad[0]} leaves the matrix")


def permutation(pivots, m):
    """perm with (P v)[i] = v[perm[i]] for the swap sequence ``pivots``."""
    idx = np.arange(m)
    for k in np.flatnonzero(np.asarray(pivots)):
        j = k + pivots[k]
        idx[k], idx[j] = idx[j], idx[k]
    return idx


def _l_apply(lbuf, v, trans=False, absolute=False):
    """L v (or L^T v) from the shifted buffer, optionally with |L|."""
    m = lbuf.shape[0]
    out = np.zeros_like(v)
    out[0] = np.abs(v[0]) if absolute else v[0]
    for c0 in range(0, m - 1, _NB):
        c1 = min(c0 + _NB, m - 1)
        blk = lbuf[c0 + 1:, c0:c1].copy()
        blk[:c1 - c0] = np.tril(blk[:c1 - c0])
        if absolute:
            blk = np.abs(blk)
        if trans:
            out[c0 + 1:c1 + 1] += blk.T @ v[c0 + 1:]
        else:
            out[c0 + 1:] += blk @ v[c0 + 1:c1 + 1]
    return out


def _t_apply(tau, v):
    out = np.zeros_like(v)
    out[1:] += tau[:, None] * v[:-1]
    out[:-1] -= tau[:, None] * v[1:]
    return out


def check_unit_diagonal(lbuf):
    """The explicit unit entries of the shifted L buffer are exactly 1."""
    m = lbuf.shape[0]
    diag = lbuf[np.arange(1, m), np.arange(m - 1)]
    if not np.all(diag == 1.0):
        j = int(np.flatnonzero(diag != 1.0)[0])
        raise CheckError(f"L[{j + 1}, {j + 1}] is {diag[j]!r}, expected 1")


def check_max_abs_l(lbuf, limit=1.0):
    """Every entry of L is at most ``limit`` in magnitude (pivoted drivers)."""
    m = lbuf.shape[0]
    worst = 0.0
    for c0 in range(0, m - 1, _NB):
        c1 = min(c0 + _NB, m - 1)
        blk = lbuf[c0 + 1:, c0:c1].copy()
        blk[:c1 - c0] = np.tril(blk[:c1 - c0])
        worst = max(worst, float(np.max(np.abs(blk))))
    if not worst <= limit:
        raise CheckError(f"max|L| = {worst!r} exceeds {limit}")


def check_backward_error(lower, lbuf, tau, pivots, probes, c=1.0):
    """||P X P^T V - L T L^T V|| <= c m eps max(||X|| ||V||, |||L||T||L^T||V|||).

    The second term is the componentwise backward-error bound of an
    L T L^T factorization (Higham, Accuracy and Stability, ch. 11); it
    governs the unpivoted drivers, whose |L| grows on random input.
    Returns the error as a share of the bound.
    """
    m = lower.shape[0]
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (m - 1,):
        raise CheckError(f"tau has shape {tau.shape}, expected ({m - 1},)")
    if not np.all(np.isfinite(tau)):
        raise CheckError("tau has non-finite entries")
    check_unit_diagonal(lbuf)
    v = probes
    if pivots is not None:
        perm = permutation(pivots, m)
        w = np.empty_like(v)
        w[perm] = v
        lhs = skew_apply(lower, w)[perm]
    else:
        lhs = skew_apply(lower, v)
    rhs = _l_apply(lbuf, _t_apply(tau, _l_apply(lbuf, v, trans=True)))
    err = float(np.linalg.norm(lhs - rhs))
    xnorm = np.sqrt(2.0) * np.linalg.norm(lower)
    growth = np.linalg.norm(_l_apply(lbuf, _t_apply(np.abs(tau), _l_apply(
        lbuf, np.abs(v), trans=True, absolute=True)), absolute=True))
    bound = c * m * EPS * max(xnorm * np.linalg.norm(v), growth)
    if not err <= bound:
        raise CheckError(f"backward error {err:.3e} exceeds {bound:.3e}")
    return err / bound


def half_logabsdet(lower):
    """0.5 log|det X| by LU (numpy.linalg.slogdet)."""
    return 0.5 * float(np.linalg.slogdet(lower - lower.T)[1])


def check_logabs_pfaffian(tau, ref_half_logdet, rtol=1e-6):
    """sum log|tau[0::2]| agrees with 0.5 log|det X|."""
    got = float(np.sum(np.log(np.abs(np.asarray(tau[0::2], dtype=float)))))
    if not abs(got - ref_half_logdet) <= rtol * max(1.0, abs(ref_half_logdet)):
        raise CheckError(f"sum log|tau_2i| = {got!r}, 0.5 log|det X| = {ref_half_logdet!r}")


def householder_pfaffian(lower):
    """(sign, log|Pf X|) from X = Q H Q^T, H tridiagonal (Hessenberg of a
    skew matrix): Pf X = det Q * prod(-H[2i+1, 2i])."""
    from scipy.linalg import hessenberg

    x = lower - lower.T
    m = x.shape[0]
    if m % 2:
        return 0.0, -np.inf
    h, q = hessenberg(x, calc_q=True)
    sub = -h[np.arange(1, m, 2), np.arange(0, m - 1, 2)]
    sign = np.linalg.slogdet(q)[0] * np.prod(np.sign(sub))
    return float(sign), float(np.sum(np.log(np.abs(sub))))


def check_pfaffian(value, ref, rtol=1e-8):
    """Pf has the reference sign exactly and log|Pf| within rtol."""
    ref_sign, ref_log = ref
    if not np.isfinite(value) or value == 0:
        raise CheckError(f"Pfaffian is {value!r}")
    if np.sign(value) != ref_sign:
        raise CheckError(f"Pfaffian sign {np.sign(value):+.0f}, reference {ref_sign:+.0f}")
    got = float(np.log(abs(value)))
    if not abs(got - ref_log) <= rtol * max(1.0, abs(ref_log)):
        raise CheckError(f"log|Pf| = {got!r}, reference {ref_log!r}")


def check_solve(lower, y, b, c=1.0):
    """||X Y - B|| <= c m eps ||X|| ||Y||."""
    m = lower.shape[0]
    y = np.asarray(y)
    if y.shape != b.shape:
        raise CheckError(f"solution has shape {y.shape}, expected {b.shape}")
    err = float(np.linalg.norm(skew_apply(lower, y) - b))
    bound = c * m * EPS * np.sqrt(2.0) * np.linalg.norm(lower) * np.linalg.norm(y)
    if not err <= bound:
        raise CheckError(f"solve residual {err:.3e} exceeds {bound:.3e}")


def check_close(y, ref, rtol=1e-6):
    """||Y - Y_ref|| <= rtol ||Y_ref|| (Y_ref from numpy.linalg.solve)."""
    diff = float(np.linalg.norm(np.asarray(y) - ref))
    if not diff <= rtol * np.linalg.norm(ref):
        raise CheckError(f"solution differs from numpy.linalg.solve by {diff:.3e}")


def check_mtx_roundtrip(path, lower):
    """scipy.io.mmread gives back exactly X = lower - lower^T."""
    from scipy.io import mmread

    got = mmread(path)
    got = got.toarray() if hasattr(got, "toarray") else np.asarray(got)
    if got.shape != lower.shape or not np.array_equal(got, lower - lower.T):
        raise CheckError(f"{path} does not read back as the generated matrix")


def read_cli_factors(prefix, m):
    """(lbuf, tau, pivots) from the files written by ``skewltl factor --out``.

    L is checked to be unit lower triangular with first column e_0 and is
    returned in the shifted-buffer layout the other checks read.
    """
    from scipy.io import mmread

    ldense = mmread(prefix + ".L.mtx")
    ldense = ldense.toarray() if hasattr(ldense, "toarray") else np.asarray(ldense)
    if ldense.shape != (m, m):
        raise CheckError(f"L file is {ldense.shape}, expected ({m}, {m})")
    if np.any(np.triu(ldense, 1)) or not np.all(np.diag(ldense) == 1.0):
        raise CheckError("L file is not unit lower triangular")
    if np.any(ldense[1:, 0]):
        raise CheckError("first column of L is not e_0")
    lbuf = np.zeros((m, m), order="F")
    lbuf[:, :m - 1] = ldense[:, 1:]
    tau = np.atleast_1d(np.loadtxt(prefix + ".tau.txt", dtype=float))
    pivots = np.atleast_1d(np.loadtxt(prefix + ".p.txt", dtype=np.int64))
    return lbuf, tau, pivots


def check_cli_residual(stdout, m, c=1.0):
    """The printed relative residual is finite and at most c m eps."""
    import re

    found = re.search(r"residual=(\S+)", stdout)
    if not found:
        raise CheckError("no residual in the CLI output")
    res = float(found.group(1))
    if not (np.isfinite(res) and res <= c * m * EPS):
        raise CheckError(f"CLI residual {res!r} exceeds {c * m * EPS:.3e}")
