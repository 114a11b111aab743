"""Block-column level-3 kernels against dense references."""

import numpy as np
import pytest

from skewltl import SkewTridiagonal, form_s_splitting
from skewltl.kernels3 import (NB, form_w, skew_rank2k, skew_tridiag_gemm,
                              skew_tridiag_rankk)
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


def test_triple_loop_validates_matmul_chain():
    p, k, q = 5, 3, 4
    a = RNG.standard_normal((p, k))
    t = RNG.standard_normal((k, k))
    b = RNG.standard_normal((k, q))
    assert np.allclose(dense_sandwich(a, t, b), sandwich_matmul(a, t, b))
