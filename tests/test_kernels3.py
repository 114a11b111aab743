"""Block-column level-3 kernels against dense references."""

import threading
from fractions import Fraction

import numpy as np
import pytest

from skewltl import SkewTridiagonal, _blas, form_s_splitting
from skewltl._blas import gemm_into
from skewltl.kernels3 import (NB, form_w, skew_rank2k,
                              skew_tridiag_gemm, skew_tridiag_rankk)
from skewltl.instrument import FlopCounter, counting
from skewltl.oracle import dense_sandwich, sandwich_matmul

RNG = np.random.Generator(np.random.Philox(123))


def lower_of(a):
    return np.tril(a, -1)


class TestRankK:
    def test_noop_scale(self):
        c = np.asfortranarray(RNG.standard_normal((5, 5)))
        want = 0.5 * lower_of(c)
        skew_tridiag_rankk(c, 0.0, RNG.standard_normal((5, 2)),
                           SkewTridiagonal(np.zeros(1)), 0.5)
        assert np.allclose(lower_of(c), want)

    def test_identity_a(self):
        c = np.zeros((2, 2), order="F")
        skew_tridiag_rankk(c, 1.0, np.eye(2), SkewTridiagonal(np.array([5.0])), 1.0)
        assert c[1, 0] == 5.0

    @pytest.mark.parametrize("m,k", [(7, 3), (40, 7), (65, 9), (130, 16), (2 * NB + 37, 9)])
    @pytest.mark.parametrize("fused", [True, False])
    def test_against_dense(self, m, k, fused):
        a = RNG.standard_normal((m, k))
        t = SkewTridiagonal(RNG.standard_normal(k - 1))
        c = np.asfortranarray(RNG.standard_normal((m, m)))
        want = lower_of(c) - lower_of(sandwich_matmul(a, t.dense(), a.T))
        skew_tridiag_rankk(c, -1.0, a, t, 1.0, fused=fused)
        tol = 8 * np.finfo(float).eps * k * max(1.0, np.max(np.abs(a))**2 * max(1.0, np.max(np.abs(t.tau))))
        assert np.allclose(lower_of(c), want, atol=tol)

    @pytest.mark.parametrize("m,k", [(40, 7), (2 * NB + 37, 9)])
    @pytest.mark.parametrize("beta", [0.5, 0.0])
    def test_against_dense_beta(self, m, k, beta):
        # beta scales the strictly-lower part first; NaN above stays NaN
        a = RNG.standard_normal((m, k))
        t = SkewTridiagonal(RNG.standard_normal(k - 1))
        c = np.asfortranarray(RNG.standard_normal((m, m)))
        iu, ju = np.triu_indices(m)
        c[iu, ju] = np.nan
        want = beta * lower_of(np.nan_to_num(c)) - lower_of(sandwich_matmul(a, t.dense(), a.T))
        skew_tridiag_rankk(c, -1.0, a, t, beta)
        assert np.allclose(lower_of(np.nan_to_num(c)), want)
        assert np.all(np.isnan(c[iu, ju]))

    def test_upper_never_written(self):
        m, k = 20, 5
        c = np.zeros((m, m), order="F")
        iu, ju = np.triu_indices(m)
        c[iu, ju] = np.nan
        a = RNG.standard_normal((m, k))
        skew_tridiag_rankk(c, -1.0, a, SkewTridiagonal(RNG.standard_normal(k - 1)), 1.0)
        assert np.all(np.isnan(c[iu, ju]))
        assert np.all(np.isfinite(c[np.tril_indices(m, -1)]))

    def test_aliasing_rejected(self):
        c = np.zeros((6, 6), order="F")
        with pytest.raises(ValueError, match="alias"):
            skew_tridiag_rankk(c, 1.0, c[:, :2], SkewTridiagonal(np.zeros(1)), 1.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            skew_tridiag_rankk(np.zeros((4, 4)), 1.0, np.zeros((4, 2)),
                               SkewTridiagonal(np.zeros(2)), 1.0)


class TestGemm:
    def test_scale_only(self):
        c = RNG.standard_normal((3, 4))
        want = 2.0 * c
        skew_tridiag_gemm(c, 0.0, np.zeros((3, 2)), SkewTridiagonal(np.zeros(1)),
                          np.zeros((2, 4)), 2.0)
        assert np.allclose(c, want)

    def test_identity_embeds_t(self):
        t = SkewTridiagonal(np.array([1.0, -4.0]))
        c = np.zeros((3, 3))
        skew_tridiag_gemm(c, 2.0, np.eye(3), t, np.eye(3), 1.0)
        assert np.array_equal(c, 2.0 * t.dense())

    @pytest.mark.parametrize("fused", [True, False])
    def test_against_dense(self, fused):
        # the last two shapes span several NB-wide block columns and row chunks
        k = 9
        for p, q in ((20, 30), (2 * NB + 5, NB + 3), (NB + 3, 2 * NB + 5)):
            a = RNG.standard_normal((p, k))
            t = SkewTridiagonal(RNG.standard_normal(k - 1))
            b = RNG.standard_normal((k, q))
            c0 = RNG.standard_normal((p, q))
            want = c0 - sandwich_matmul(a, t.dense(), b)
            c = c0.copy()
            skew_tridiag_gemm(c, -1.0, a, t, b, 1.0, fused=fused)
            assert np.allclose(c, want), (p, q)

    @pytest.mark.parametrize("beta", [0.5, 0.0])
    @pytest.mark.parametrize("tril", [False, True])
    def test_against_dense_beta(self, beta, tril):
        k = 9
        for p, q in ((20, 30), (2 * NB + 5, NB + 3), (NB + 3, 2 * NB + 5)):
            a = RNG.standard_normal((p, k))
            t = SkewTridiagonal(RNG.standard_normal(k - 1))
            b = RNG.standard_normal((k, q))
            c0 = RNG.standard_normal((p, q))
            want = beta * c0 + 0.5 * sandwich_matmul(a, t.dense(), b)
            if tril:
                above = ~np.tril(np.ones((p, q), dtype=bool), -1)
                want[above] = c0[above]
            c = c0.copy()
            skew_tridiag_gemm(c, 0.5, a, t, b, beta, tril=tril)
            assert np.allclose(c, want), (p, q)

    def test_tril_mode(self):
        k = 5
        for p, q in ((12, 7), (2 * NB + 5, NB + 3), (NB + 3, 2 * NB + 5)):
            a = RNG.standard_normal((p, k))
            t = SkewTridiagonal(RNG.standard_normal(k - 1))
            b = RNG.standard_normal((k, q))
            c0 = np.asfortranarray(RNG.standard_normal((p, q)))
            c = c0.copy(order="F")
            skew_tridiag_gemm(c, -1.0, a, t, b, 1.0, tril=True)
            prod = sandwich_matmul(a, t.dense(), b)
            below = np.tril(np.ones((p, q), dtype=bool), -1)
            assert np.allclose(c[below], (c0 - prod)[below]), (p, q)
            assert np.array_equal(c[~below], c0[~below]), (p, q)


class TestRank2K:
    def test_b_equals_a_cancels(self):
        m, k = 10, 4
        a = RNG.standard_normal((m, k))
        c = np.asfortranarray(RNG.standard_normal((m, m)))
        want = lower_of(c)
        skew_rank2k(c, 3.0, a, a.copy(), 1.0)
        assert np.allclose(lower_of(c), want)

    def test_alpha_zero_scales(self):
        c = np.asfortranarray(RNG.standard_normal((4, 4)))
        want = 0.25 * lower_of(c)
        skew_rank2k(c, 0.0, np.ones((4, 2)), np.ones((4, 2)), 0.25)
        assert np.allclose(lower_of(c), want)

    @pytest.mark.parametrize("m,k,zero_cols", [
        pytest.param(12, 3, False, id="12-3"),
        pytest.param(32, 8, False, id="32-8"),
        pytest.param(NB + 21, 6, True, id=f"{NB + 21}-6-zero-columns"),
    ])
    def test_against_dense(self, m, k, zero_cols):
        a = RNG.standard_normal((m, k))
        b = RNG.standard_normal((m, k))
        if zero_cols:
            b[:, ::2] = 0.0
        c0 = np.asfortranarray(RNG.standard_normal((m, m)))
        want = lower_of(c0) + 0.5 * lower_of(a.dot(b.T) - b.dot(a.T))
        c = c0.copy(order="F")
        skew_rank2k(c, 0.5, a, b, 1.0)
        assert np.allclose(lower_of(c), want)

    @pytest.mark.parametrize("m,k", [(32, 8), (NB + 21, 6)])
    @pytest.mark.parametrize("beta", [0.5, 0.0])
    def test_against_dense_beta(self, m, k, beta):
        a = RNG.standard_normal((m, k))
        b = RNG.standard_normal((m, k))
        c0 = np.asfortranarray(RNG.standard_normal((m, m)))
        want = beta * lower_of(c0) - 2.0 * lower_of(a.dot(b.T) - b.dot(a.T))
        c = c0.copy(order="F")
        skew_rank2k(c, -2.0, a, b, beta)
        assert np.allclose(lower_of(c), want)

    def test_zero_columns_skipped_in_count(self):
        m, k = 16, 6
        a = RNG.standard_normal((m, k))
        b = RNG.standard_normal((m, k))
        b[:, ::2] = 0.0
        fc = FlopCounter()
        with counting(fc):
            c = np.asfortranarray(RNG.standard_normal((m, m)))
            skew_rank2k(c, 1.0, a, b, 1.0)
        assert fc.level3 == 4 * 3 * (m * (m - 1) // 2)


@pytest.mark.parametrize("kernel", ["rankk", "gemm-tril", "rank2k"])
@pytest.mark.parametrize("beta", [0.5, 0.0])
def test_beta_strips_take_blas(monkeypatch, kernel, beta):
    # beta is applied once up front, so the strip below each diagonal tile
    # accumulates through the in-place ?gemm whatever beta is
    calls = []

    def counted(*args):
        calls.append(gemm_into(*args))
        return calls[-1]

    monkeypatch.setattr(_blas, "gemm_into", counted)
    m, k = 2 * NB + 37, 7
    a, b = RNG.standard_normal((m, k)), RNG.standard_normal((m, k))
    t = SkewTridiagonal(RNG.standard_normal(k - 1))
    c0 = np.asfortranarray(RNG.standard_normal((m, m)))
    c = c0.copy(order="F")
    if kernel == "rankk":
        skew_tridiag_rankk(c, -1.0, a, t, beta)
        prod = -sandwich_matmul(a, t.dense(), a.T)
    elif kernel == "gemm-tril":
        skew_tridiag_gemm(c, -1.0, a, t, b.T, beta, tril=True)
        prod = -sandwich_matmul(a, t.dense(), b.T)
    else:
        skew_rank2k(c, 0.5, a, b, beta)
        prod = 0.5 * (a.dot(b.T) - b.dot(a.T))
    assert calls == [True] * -(-m // NB)
    below = np.tri(m, k=-1, dtype=bool)
    assert np.allclose(c[below], (beta * c0 + prod)[below], rtol=1e-12, atol=1e-12)
    assert np.array_equal(c[~below], c0[~below])


@pytest.mark.parametrize("kernel", ["rankk", "rankk-unfused", "gemm", "gemm-unfused",
                                    "gemm-tril", "rank2k"])
def test_beta_zero_reads_no_output(kernel):
    # beta = 0 writes zeros without reading C (Level 3 BLAS), so a NaN and an
    # infinity planted in C, in the diagonal tile and in the strip below it,
    # leave the same result as a zeroed C
    m, k = NB + 9, 5
    a, b = RNG.standard_normal((m, k)), RNG.standard_normal((m, k))
    t = SkewTridiagonal(RNG.standard_normal(k - 1))
    calls = {
        "rankk": lambda c: skew_tridiag_rankk(c, -1.0, a, t, 0.0),
        "rankk-unfused": lambda c: skew_tridiag_rankk(c, -1.0, a, t, 0.0, fused=False),
        "gemm": lambda c: skew_tridiag_gemm(c, -1.0, a, t, b.T, 0.0),
        "gemm-unfused": lambda c: skew_tridiag_gemm(c, -1.0, a, t, b.T, 0.0, fused=False),
        "gemm-tril": lambda c: skew_tridiag_gemm(c, -1.0, a, t, b.T, 0.0, tril=True),
        "rank2k": lambda c: skew_rank2k(c, 0.5, a, b, 0.0),
    }
    planted, zeroed = np.zeros((m, m), order="F"), np.zeros((m, m), order="F")
    planted[2, 0], planted[m - 1, 1] = np.nan, np.inf
    if kernel in ("gemm", "gemm-unfused"):  # these write all of C
        planted[0, m - 1], planted[3, 3] = -np.inf, np.nan
    calls[kernel](planted)
    calls[kernel](zeroed)
    assert np.array_equal(planted, zeroed)


BLAS_DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


def random_of(dtype, shape, order="C"):
    x = RNG.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * RNG.standard_normal(shape)
    return np.asarray(x, dtype=dtype, order=order)


def rtol_of(dtype):
    return 100 * np.finfo(dtype).eps


class TestInPlaceGemm:
    """The block-column strip accumulated in place by BLAS ?gemm."""

    @pytest.mark.parametrize("dtype", BLAS_DTYPES)
    def test_fast_path_active(self, dtype):
        # a lost library lookup would silently fall back to the slower path
        c = random_of(dtype, (7, 5), "F")
        a, b = random_of(dtype, (7, 3), "F"), random_of(dtype, (3, 5), "F")
        want = c - a.dot(b)
        assert gemm_into(c, a, b, -1)
        assert np.allclose(c, want, rtol=rtol_of(dtype), atol=rtol_of(dtype))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("a_order", ["F", "C"])
    @pytest.mark.parametrize("b_order", ["F", "C"])
    def test_layouts_match_numpy(self, dtype, a_order, b_order):
        # C is a view into a padded buffer (leading dimension above its
        # height); A and B are strided views in either order
        p, q, k = 40, 23, 11
        alpha = 0.5 - 2j if np.dtype(dtype).kind == "c" else -0.75
        buf = random_of(dtype, (p + 9, q + 4), "F")
        before = buf.copy(order="F")
        c = buf[3:3 + p, 2:2 + q]
        a = random_of(dtype, (p + 2, k + 3), a_order)[1:1 + p, 2:2 + k]
        b = random_of(dtype, (k + 1, q + 2), b_order)[1:, 2:]
        want = c + alpha * a.dot(b)
        assert gemm_into(c, a, b, alpha)
        assert np.allclose(c, want, rtol=1e-13, atol=1e-13)
        outside = np.ones(buf.shape, dtype=bool)
        outside[3:3 + p, 2:2 + q] = False
        assert np.array_equal(buf[outside], before[outside])

    def test_row_strided_c_falls_back(self):
        c = random_of(np.float64, (9, 6))          # C order: rows not unit-strided
        a, b = random_of(np.float64, (9, 4)), random_of(np.float64, (4, 6))
        c0 = c.copy()
        assert not gemm_into(c, a, b, 1.0)
        assert not gemm_into(np.asfortranarray(c)[::-1], a, b, 1.0)
        column = c[:, :1].copy()                   # C-ordered (m, 1): Trans, not NoTrans
        assert not gemm_into(column, a, b[:, :1], 1.0)
        assert np.array_equal(column, c0[:, :1])
        assert np.array_equal(c, c0)
        t = SkewTridiagonal(RNG.standard_normal(3))
        skew_tridiag_gemm(c, -1.0, a, t, b, 1.0)
        assert np.allclose(c, c0 - sandwich_matmul(a, t.dense(), b))

    def test_mixed_dtypes_fall_back(self):
        c = random_of(np.float64, (5, 4), "F")
        assert not gemm_into(c, random_of(np.float32, (5, 2), "F"),
                             random_of(np.float64, (2, 4), "F"), 1.0)
        assert not gemm_into(c, random_of(np.float64, (5, 2), "F"),
                             random_of(np.float64, (2, 4), "F"), 1j)

    def test_missing_symbol_falls_back(self, monkeypatch):
        m, k = NB + 40, 6
        a = RNG.standard_normal((m, k))
        t = SkewTridiagonal(RNG.standard_normal(k - 1))
        c0 = np.asfortranarray(RNG.standard_normal((m, m)))
        fast = c0.copy(order="F")
        skew_tridiag_rankk(fast, -1.0, a, t, 1.0)
        monkeypatch.setattr(_blas, "_gemm_symbol", lambda prefix: None)
        assert not gemm_into(c0[:, :3].copy(order="F"), a, a[:3].T.copy(), 1.0)
        slow = c0.copy(order="F")
        skew_tridiag_rankk(slow, -1.0, a, t, 1.0)
        assert np.allclose(lower_of(slow), lower_of(fast), rtol=1e-13, atol=1e-13)

    def test_object_dtype_exact(self):
        m, k = NB + 9, 4
        rng = np.random.default_rng(8)
        a = np.array([[Fraction(int(v), 3) for v in row]
                      for row in rng.integers(-4, 5, (m, k))], dtype=object)
        tau = np.array([Fraction(int(v), 2) for v in rng.integers(1, 5, k - 1)],
                       dtype=object)
        c = np.zeros((m, m), dtype=object, order="F")
        c[:] = Fraction(0)
        assert not gemm_into(c[NB:, :NB], a[NB:], a[:NB].T, 1)
        skew_tridiag_rankk(c, -1, a, SkewTridiagonal(tau), 1)
        want = -a.dot(SkewTridiagonal(tau).dense()).dot(a.T)
        il, jl = np.tril_indices(m, -1)
        assert all(isinstance(v, Fraction) for v in c[il, jl])
        assert np.array_equal(c[il, jl], want[il, jl])

    def test_object_dtype_beta_exact(self):
        # beta = 1/2 scales, then the diagonal tile and the strip below it
        # accumulate, all in Fractions
        m, k = NB + 9, 4
        rng = np.random.default_rng(9)
        a = np.array([[Fraction(int(v), 3) for v in row]
                      for row in rng.integers(-4, 5, (m, k))], dtype=object)
        tau = np.array([Fraction(int(v), 2) for v in rng.integers(1, 5, k - 1)],
                       dtype=object)
        c0 = np.array([[Fraction(int(v), 5) for v in row]
                       for row in rng.integers(-4, 5, (m, m))], dtype=object)
        c = c0.copy(order="F")
        skew_tridiag_rankk(c, -1, a, SkewTridiagonal(tau), Fraction(1, 2))
        want = c0 / 2 - a.dot(SkewTridiagonal(tau).dense()).dot(a.T)
        il, jl = np.tril_indices(m, -1)
        assert all(isinstance(v, Fraction) for v in c[il, jl])
        assert np.array_equal(c[il, jl], want[il, jl])
        iu, ju = np.triu_indices(m)
        assert np.array_equal(c[iu, ju], c0[iu, ju])

    @pytest.mark.parametrize("kernel", ["rankk", "rank2k", "gemm-tril"])
    def test_only_strict_lower_read_or_written(self, kernel):
        # NaN at and above the diagonal and in the buffer's padding rows:
        # they must stay NaN, and none may leak into the strict lower part
        m, k, ld = 2 * NB + 37, 7, 2 * NB + 45
        buf = np.asfortranarray(RNG.standard_normal((ld, m)))
        upper = ~np.tril(np.ones((m, m), dtype=bool), -1)
        buf[:m][upper] = np.nan
        buf[m:] = np.nan
        c = buf[:m]
        c0 = np.where(upper, 0.0, c)
        a, b = RNG.standard_normal((m, k)), RNG.standard_normal((m, k))
        t = SkewTridiagonal(RNG.standard_normal(k - 1))
        if kernel == "rankk":
            skew_tridiag_rankk(c, -1.0, a, t, 1.0)
            want = c0 - sandwich_matmul(a, t.dense(), a.T)
        elif kernel == "rank2k":
            skew_rank2k(c, 1.0, a, b, 1.0)
            want = c0 + a.dot(b.T) - b.dot(a.T)
        else:
            skew_tridiag_gemm(c, -1.0, a, t, b.T, 1.0, tril=True)
            want = c0 - sandwich_matmul(a, t.dense(), b.T)
        assert np.all(np.isnan(c[upper])) and np.all(np.isnan(buf[m:]))
        assert np.allclose(c[~upper], want[~upper], rtol=1e-12, atol=1e-12)

    def test_threads_match_serial(self):
        # ctypes releases the GIL, so the BLAS calls of four threads overlap
        m, k = 3 * NB + 11, 33
        jobs = []
        for _ in range(4):
            a = RNG.standard_normal((m, k))
            jobs.append((np.asfortranarray(RNG.standard_normal((m, m))), a,
                         SkewTridiagonal(RNG.standard_normal(k - 1))))
        serial = []
        for c0, a, t in jobs:
            c = c0.copy(order="F")
            skew_tridiag_rankk(c, -1.0, a, t, 1.0)
            serial.append(c)
        got = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def run(i):
            c0, a, t = jobs[i]
            start.wait()
            for _ in range(3):
                c = c0.copy(order="F")
                skew_tridiag_rankk(c, -1.0, a, t, 1.0)
                got[i].append(np.array_equal(c, serial[i]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert got == [[True] * 3] * len(jobs)


class TestFormW:
    def test_zero_tau(self):
        a = RNG.standard_normal((6, 4))
        w = form_w(a, form_s_splitting(SkewTridiagonal(np.zeros(3))))
        assert not w.any()

    def test_b2_structure(self):
        a = RNG.standard_normal((5, 2))
        t0 = 2.5
        w = form_w(a, form_s_splitting(SkewTridiagonal(np.array([t0]))))
        assert not w[:, 0].any()
        assert np.allclose(w[:, 1], -t0 * a[:, 0])

    def test_even_columns_zero(self):
        b = 7
        a = RNG.standard_normal((9, b))
        s = form_s_splitting(SkewTridiagonal(RNG.standard_normal(b - 1)))
        w = form_w(a, s)
        assert not w[:, ::2].any()
        assert np.allclose(w, a.dot(s.dense(float)))

    def test_cross_kernel_equivalence(self):
        # rank-2k on (A, W) reproduces the sandwiched rank-k; both checked
        # against the dense reference
        m, k = 14, 5
        a = RNG.standard_normal((m, k))
        t = SkewTridiagonal(RNG.standard_normal(k - 1))
        w = form_w(a, form_s_splitting(t))
        assert np.allclose(w, a.dot(form_s_splitting(t).dense(float)))
        c0 = np.asfortranarray(RNG.standard_normal((m, m)))
        want = lower_of(c0) - lower_of(sandwich_matmul(a, t.dense(), a.T))
        c1 = c0.copy(order="F")
        skew_tridiag_rankk(c1, -1.0, a, t, 1.0)
        c2 = c0.copy(order="F")
        skew_rank2k(c2, 1.0, a, w, 1.0)
        assert np.allclose(lower_of(c1), want)
        assert np.allclose(lower_of(c2), want)


def _f(*shape):
    return np.zeros(shape, order="F")


@pytest.mark.parametrize("call", [
    lambda: skew_tridiag_gemm(_f(3, 4), 1.0, _f(3, 2), SkewTridiagonal(np.zeros(1)),
                              _f(3, 4)),
    lambda: skew_tridiag_gemm(_f(3, 5), 1.0, _f(3, 2), SkewTridiagonal(np.zeros(1)),
                              _f(2, 4)),
    lambda: skew_tridiag_gemm(_f(3, 4), 1.0, _f(3, 2), SkewTridiagonal(np.zeros(2)),
                              _f(2, 4)),
    lambda: skew_rank2k(_f(4, 4), 1.0, _f(4, 2), _f(4, 3)),
    lambda: skew_rank2k(_f(5, 5), 1.0, _f(4, 2), _f(4, 2)),
    lambda: form_w(_f(4, 3), form_s_splitting(SkewTridiagonal(np.zeros(3)))),
    lambda: _blas.gemm_into(_f(3, 4), _f(2, 2), _f(2, 4), 1.0),
    lambda: _blas.gemm_into(_f(3, 4), _f(3, 2), _f(3, 4), 1.0),
    lambda: _blas.trsm(_f(3, 4), _f(3, 2), False),
    lambda: _blas.gtsv(np.zeros(2), np.ones(3), np.zeros(3), _f(3, 1)),
    lambda: _blas.gtsv(np.zeros(2), np.ones(3), np.zeros(2), _f(4, 1)),
], ids=["gemm-b", "gemm-c", "gemm-t", "rank2k-b", "rank2k-c", "form_w",
        "gemm_into-a", "gemm_into-b", "trsm", "gtsv-du", "gtsv-b"])
def test_dimension_mismatch_rejected(call):
    with pytest.raises(ValueError, match="dimension mismatch"):
        call()


def test_triple_loop_validates_matmul_chain():
    p, k, q = 5, 3, 4
    a = RNG.standard_normal((p, k))
    t = RNG.standard_normal((k, k))
    b = RNG.standard_normal((k, q))
    assert np.allclose(dense_sandwich(a, t, b), sandwich_matmul(a, t, b))


@pytest.mark.parametrize("kernel", ["rankk", "gemm", "gemm-tril", "rank2k"])
@pytest.mark.parametrize("beta", [0.5, 0.0])
def test_complex_product_into_real_c_rejected(kernel, beta):
    # the product's dtype is checked before beta is applied, so C is left
    # bitwise untouched (the Level 2 kernels are checked in test_kernels2)
    n, k = NB + 9, 4
    a = RNG.standard_normal((n, k)) + 1j
    t = SkewTridiagonal(RNG.standard_normal(k - 1))
    c0 = np.asfortranarray(RNG.standard_normal((n, n)))
    c = c0.copy(order="F")
    calls = {
        "rankk": lambda: skew_tridiag_rankk(c, -1.0, a, t, beta),
        "gemm": lambda: skew_tridiag_gemm(c, -1.0, a, t, a.real.T, beta),
        "gemm-tril": lambda: skew_tridiag_gemm(c, -1.0, a.real, t, a.T, beta, tril=True),
        "rank2k": lambda: skew_rank2k(c, 1.0, a.real, a, beta),
    }
    with pytest.raises(TypeError, match="cannot write a complex128 product into a float64 C"):
        calls[kernel]()
    assert c.tobytes() == c0.tobytes()


def test_complex_tau_into_complex_c():
    # a complex T with a real A packs in complex: nothing is dropped
    n, k = 9, 4
    a = RNG.standard_normal((n, k))
    t = SkewTridiagonal(RNG.standard_normal(k - 1) + 1j)
    c = np.zeros((n, n), dtype=complex, order="F")
    skew_tridiag_rankk(c, -1.0, a, t, 1)
    want = -sandwich_matmul(a, t.dense(), a.T)
    assert np.allclose(c, np.tril(want, -1), rtol=1e-13, atol=1e-13)
