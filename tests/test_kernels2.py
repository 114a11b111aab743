"""Level-2 kernels against dense references."""

from fractions import Fraction

import numpy as np
import pytest

from skewltl import (PermutationVector, SkewMatrixLower, SkewTridiagonal,
                     ltlt_blk_piv, random_skew)
from skewltl import _blas
from skewltl.kernels2 import (apply_row_pivots, gen_rank2, skew_rank2,
                              skew_tridiag_gemv)
from skewltl.kernels3 import NB

EPS = np.finfo(float).eps
RNG = np.random.Generator(np.random.Philox(77))


def lower_of(a):
    return np.tril(a, -1)


class TestSkewRank2:
    def test_noop(self):
        a = np.asfortranarray(RNG.standard_normal((5, 5)))
        before = a.copy()
        skew_rank2(a, 0.0, np.ones(5), np.ones(5), 1.0)
        assert np.array_equal(a, before)

    def test_alpha_zero_reads_no_operand(self):
        # alpha = 0 only scales: the infinite x never meets the zero alpha
        n = NB + 9
        a = np.asfortranarray(RNG.standard_normal((n, n)))
        want = 0.5 * lower_of(a)
        x = np.full(n, np.inf)
        skew_rank2(a, 0.0, x, RNG.standard_normal(n), 0.5)
        assert np.array_equal(lower_of(a), want)

    def test_two_by_two(self):
        a = np.zeros((2, 2), order="F")
        skew_rank2(a, 1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)
        assert a[1, 0] == -1.0

    # n = 2 NB + 37 spans three block columns of the sweep; beta is applied
    # first, then the strips accumulate through BLAS (buffer views:
    # test_sentinels)
    @pytest.mark.parametrize("n, dtype", [
        *(pytest.param(n, np.float64, id=str(n)) for n in (2, 3, 16, 64, 2 * NB + 37)),
        *(pytest.param(n, dt, id=f"{n}-{np.dtype(dt).name}")
          for n in (16, 2 * NB + 37) for dt in (np.float32, np.complex128))])
    def test_against_dense(self, n, dtype):
        a = np.asfortranarray(random_of(dtype, (n, n), RNG))
        x = random_of(dtype, n, RNG)
        y = random_of(dtype, n, RNG)
        alpha, beta = 1.25, 0.5
        want = beta * lower_of(a) + alpha * lower_of(np.outer(x, y) - np.outer(y, x))
        skew_rank2(a, alpha, x, y, beta)
        eps = np.finfo(dtype).eps
        assert np.allclose(lower_of(a), want, atol=4 * eps * n * max(1, np.max(np.abs(want))))

    def test_exact_antisymmetry(self):
        # reconstructed full update is exactly antisymmetric on exact input
        n = 6
        a = np.zeros((n, n), dtype=object, order="F")
        x = np.array([Fraction(i, 3) for i in range(1, n + 1)], dtype=object)
        y = np.array([Fraction(2 - i, 5) for i in range(n)], dtype=object)
        skew_rank2(a, 1, x, y, 1)
        full = np.tril(a, -1) - np.tril(a, -1).T
        want = np.outer(x, y) - np.outer(y, x)
        assert np.array_equal(full, want - np.diag(np.diag(want)))

    @pytest.mark.parametrize("n", [2, 5, 17, 64, 130, 2 * NB + 37])
    def test_sentinels(self, n):
        # A as the drivers hand it over: a view into a buffer 8 rows taller.
        # NaN on the diagonal and in the padding rows shows any read of
        # them; seeded values strictly above the diagonal show any write
        # (a write leaves a NaN a NaN, bit for bit).  beta = 1 takes the
        # in-place BLAS strip below each diagonal tile.
        rng = np.random.Generator(np.random.Philox(n))
        buf = np.full((n + 8, n), np.nan, order="F")
        buf[:n] = np.triu(rng.standard_normal((n, n)), 1) + lower_of(rng.standard_normal((n, n)))
        np.fill_diagonal(buf, np.nan)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        alpha = 1.25
        want = lower_of(buf[:n]) + alpha * lower_of(np.outer(x, y) - np.outer(y, x))
        before = buf.copy(order="F")
        skew_rank2(buf[:n], alpha, x, y, 1.0)
        assert np.allclose(lower_of(buf[:n]), want,
                           atol=4 * EPS * n * max(1, np.max(np.abs(want))))
        upper = ~np.tri(n + 8, n, k=-1, dtype=bool)
        upper[n:] = True
        assert same_bits(buf[upper], before[upper])
        assert np.isnan(buf[n:]).all() and np.isnan(np.diagonal(buf)).all()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            skew_rank2(np.zeros((3, 3)), 1.0, np.ones(2), np.ones(3), 1.0)


class TestGenRank2:
    def test_noop(self):
        a = RNG.standard_normal((4, 3))
        before = a.copy()
        gen_rank2(a, 0.0, np.ones(4), np.ones(3), np.ones(4), np.ones(3), 1.0)
        assert np.array_equal(a, before)

    def test_scalar_case(self):
        a = np.array([[2.0]])
        gen_rank2(a, 0.5, np.array([3.0]), np.array([4.0]), np.array([5.0]), np.array([6.0]), 1.0)
        assert a[0, 0] == 2.0 + 0.5 * (12.0 + 30.0)

    # (2 NB + 37) x (NB + 5) spans two block columns; in F order the update
    # takes the in-place BLAS path.  The ids keep the "True" of the removed
    # fused=True/False parameter.
    @pytest.mark.parametrize("p, q, beta, order", [
        pytest.param(8, 4, 0.25, "C", id="True"),
        *(pytest.param(2 * NB + 37, NB + 5, beta, "F", id=f"True-{2 * NB + 37}-{beta}")
          for beta in (0.25, 1.0))])
    def test_against_dense(self, p, q, beta, order):
        a = np.asarray(RNG.standard_normal((p, q)), order=order)
        x, y = RNG.standard_normal(p), RNG.standard_normal(p)
        u, v = RNG.standard_normal(q), RNG.standard_normal(q)
        want = beta * a + 2.0 * (np.outer(x, u) + np.outer(y, v))
        got = a.copy(order="K")
        gen_rank2(got, 2.0, x, u, y, v, beta)
        assert np.allclose(got, want)


class TestSkewTridiagGemv:
    def test_scale_only(self):
        y = np.array([1.0, 2.0])
        skew_tridiag_gemv(y, 0.0, np.zeros((2, 3)), SkewTridiagonal(np.zeros(2)),
                          np.zeros(3), 2.0)
        assert np.array_equal(y, [2.0, 4.0])

    def test_small_identity(self):
        for tau, x, want in (([2.0, 3.0], [1.0, 1.0, 1.0], [-2.0, -1.0, 3.0]),
                             ([], [4.0], [0.0])):
            k = len(x)
            y = np.zeros(k)
            skew_tridiag_gemv(y, 1.0, np.eye(k), SkewTridiagonal(np.array(tau)),
                              np.array(x), 0.0)
            assert np.array_equal(y, want)

    def test_mixed_dtype_promotes(self):
        # T x is formed in the dtype of tau and x together, either way round
        k = 5
        a = RNG.standard_normal((7, k))
        real, cplx = RNG.standard_normal(k), RNG.standard_normal(k) * (1 + 2j)
        for tau, x in ((real[1:], cplx), (cplx[1:], real)):
            t = SkewTridiagonal(tau)
            y = np.zeros(7, dtype=np.complex128)
            skew_tridiag_gemv(y, 1.0, a, t, x, 0.0)
            assert np.allclose(y, a.dot(t.dense().dot(x)), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("alpha, x, beta", [
        (-1.0, [1j, 0, 1], 0.5), (-1.0, [1j, 0, 1], 1),
        (1j, [1.0, 0, 1], 0.5), (1j, [1.0, 0, 1], 1), (0, [1.0, 0, 1], 1j)])
    def test_complex_product_into_real_y_rejected(self, alpha, x, beta):
        # a complex x, alpha or beta raises the same error in every beta
        # branch (and for alpha = 0) before y is written
        y = np.zeros(2)
        with pytest.raises(TypeError, match="cannot write a complex128 product "
                                            "into a float64 y"):
            skew_tridiag_gemv(y, alpha, np.ones((2, 3)), SkewTridiagonal(np.array([1.0, 2.0])),
                              np.array(x), beta)
        assert np.array_equal(y, np.zeros(2))

    @pytest.mark.parametrize("fused", [True, False])
    def test_against_dense(self, fused):
        p, k = 12, 6
        a = RNG.standard_normal((p, k))
        t = SkewTridiagonal(RNG.standard_normal(k - 1))
        x = RNG.standard_normal(k)
        y0 = RNG.standard_normal(p)
        want = 0.5 * y0 + 1.5 * a.dot(t.dense().dot(x))
        y = y0.copy()
        skew_tridiag_gemv(y, 1.5, a, t, x, 0.5, fused=fused)
        assert np.allclose(y, want)

    @pytest.mark.parametrize("fused", [True, False])
    def test_padded_tail_view(self, fused):
        # A as the drivers hand it over: the tail rows of a view into a
        # buffer whose leading dimension exceeds the row count
        p, k, r0 = 40, 6, 9
        a = np.asfortranarray(RNG.standard_normal((p + 8, k)))[:p]
        assert not a.flags.f_contiguous
        t = SkewTridiagonal(RNG.standard_normal(k - 1))
        x = RNG.standard_normal(k)
        y0 = RNG.standard_normal(p - r0)
        want = 0.5 * y0 + 1.5 * a[r0:].dot(t.dense().dot(x))
        y = y0.copy()
        skew_tridiag_gemv(y, 1.5, a[r0:], t, x, 0.5, fused=fused)
        assert np.allclose(y, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("kernel", ["skew_rank2", "gen_rank2", "gemv", "gemv-unfused"])
def test_beta_zero_reads_no_output(kernel):
    # beta = 0 writes zeros without reading C (Level 3 BLAS), so a NaN and an
    # infinity planted in C, in the diagonal tile and in the strip below it,
    # leave the same result as a zeroed C
    n = NB + 9
    x, y, u, v = (RNG.standard_normal(n) for _ in range(4))
    a, t = RNG.standard_normal((n, 5)), SkewTridiagonal(RNG.standard_normal(4))
    calls = {
        "skew_rank2": lambda c: skew_rank2(c, 0.5, x, y, 0.0),
        "gen_rank2": lambda c: gen_rank2(c, 0.5, x, u, y, v, 0.0),
        "gemv": lambda c: skew_tridiag_gemv(c[:, 0], 1.5, a, t, x[:5], 0.0),
        "gemv-unfused": lambda c: skew_tridiag_gemv(c[:, 0], 1.5, a, t, x[:5], 0.0,
                                                    fused=False),
    }
    planted, zeroed = np.zeros((n, n), order="F"), np.zeros((n, n), order="F")
    planted[2, 0], planted[n - 1, 0] = np.nan, np.inf
    if kernel != "skew_rank2":  # these write the first row too
        planted[0, 0] = np.nan
    if kernel == "gen_rank2":
        planted[0, n - 1] = -np.inf
    calls[kernel](planted)
    calls[kernel](zeroed)
    assert np.array_equal(planted, zeroed)


class TestApplyRowPivots:
    def test_all_zero_offsets(self):
        b = RNG.standard_normal((5, 2))
        before = b.copy()
        apply_row_pivots(b, PermutationVector(np.zeros(4, dtype=np.int64), 5))
        assert np.array_equal(b, before)

    def test_single_swap(self):
        b = np.array([[1.0], [2.0], [3.0]])
        apply_row_pivots(b, PermutationVector(np.array([1]), 3))
        assert b.ravel().tolist() == [2.0, 1.0, 3.0]

    def test_forward_inverse_identity(self):
        rng = np.random.Generator(np.random.Philox(8))
        n = 9
        pivots = np.array([int(rng.integers(0, n - k)) for k in range(n - 1)])
        p = PermutationVector(pivots, n)
        b = rng.standard_normal((n, 4))
        before = b.copy()
        apply_row_pivots(b, p, forward=True)
        apply_row_pivots(b, p, forward=False)
        assert np.allclose(b, before)

    def test_matches_sequential(self):
        b = np.arange(12.0).reshape(6, 2)
        want = b.copy()
        pivots = [2, 0, 3]
        for k, off in enumerate(pivots):
            want[[k, k + off]] = want[[k + off, k]]
        apply_row_pivots(b, PermutationVector(np.array(pivots), 6))
        assert np.array_equal(b, want)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply_row_pivots(np.zeros((3, 1)), np.array([5]))

    def test_vector_block(self):
        b = np.array([1.0, 2.0, 3.0])
        apply_row_pivots(b, np.array([1]))
        assert b.tolist() == [2.0, 1.0, 3.0]


BLAS_DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


def random_of(dtype, shape, rng):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def random_offsets(rng, n, k=None):
    return np.array([int(rng.integers(0, n - i)) for i in range(n if k is None else k)])


def gathered(block, pivots, forward, monkeypatch):
    """apply_row_pivots with the ?laswp lookup patched away (the gather)."""
    with monkeypatch.context() as mp:
        mp.setattr(_blas, "_laswp_symbol", lambda prefix: None)
        apply_row_pivots(block, pivots, forward)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLaswp:
    """Row interchanges in place through numpy's OpenBLAS ``?laswp``."""

    @pytest.mark.parametrize("dtype", BLAS_DTYPES)
    def test_fast_path_active(self, dtype):
        rng = np.random.Generator(np.random.Philox(40))
        b = np.asfortranarray(random_of(dtype, (7, 3), rng))
        want = b.copy()
        pivots = np.array([3, 0, 4, 1])
        for k, off in enumerate(pivots):
            want[[k, k + off]] = want[[k + off, k]]
        assert _blas._laswp_symbol(_blas._BLAS_PREFIX[np.dtype(dtype)]) is not None
        assert _blas.laswp(b, pivots, True)
        assert np.array_equal(b, want)

    @pytest.mark.parametrize("dtype", BLAS_DTYPES)
    @pytest.mark.parametrize("forward", [True, False])
    def test_padded_view_matches_gather(self, dtype, forward, monkeypatch):
        # the drivers' call: work[base + 1:, :lo] of a buffer whose leading
        # dimension exceeds its height; NaN sentinels fill everything else.
        # A single column takes ?laswp at its F stride (the leading
        # dimension) and at its C stride (one element) alike
        rng = np.random.Generator(np.random.Philox(41))
        m, ld, base = 40, 48, 9
        work = np.full((ld, m), np.nan, dtype=dtype, order="F")
        work[:m] = random_of(dtype, (m, m), rng)
        pivots = random_offsets(rng, m - base - 1, 12)
        blocks = [(7, lambda w: w[base + 1:m, :7]),
                  (1, lambda w: w[base + 1:m, :1]),
                  (1, lambda w: w[base + 1:m, 0].reshape(-1, 1))]
        for lo, block in blocks:
            assert _blas.laswp(block(work.copy(order="F")), pivots, forward)
            fast, slow = work.copy(order="F"), work.copy(order="F")
            apply_row_pivots(block(fast), pivots, forward)
            gathered(block(slow), pivots, forward, monkeypatch)
            assert same_bits(fast, slow)
            assert not np.array_equal(fast[:m, :lo], work[:m, :lo])
            assert np.isnan(fast[m:]).all()
            assert same_bits(fast[:, lo:], work[:, lo:])
            assert same_bits(fast[:base + 1], work[:base + 1])

    @pytest.mark.parametrize("forward", [True, False])
    def test_vector_block_matches_gather(self, forward, monkeypatch):
        rng = np.random.Generator(np.random.Philox(42))
        v = rng.standard_normal(30)
        pivots = random_offsets(rng, 30, 29)
        fast, slow = v.copy(), v.copy()
        apply_row_pivots(fast, pivots, forward)
        gathered(slow, pivots, forward, monkeypatch)
        assert same_bits(fast, slow)
        assert _blas.laswp(v.copy(), pivots, forward)

    def test_trailing_zero_offsets(self, monkeypatch):
        # a pivot vector longer than the block is legal when its tail is zero
        rng = np.random.Generator(np.random.Philox(43))
        b = np.asfortranarray(rng.standard_normal((6, 3)))
        pivots = np.array([2, 0, 3, 1, 0, 0, 0, 0, 0])
        fast, slow = b.copy(order="F"), b.copy(order="F")
        apply_row_pivots(fast, pivots)
        gathered(slow, pivots, True, monkeypatch)
        assert same_bits(fast, slow)
        assert not np.array_equal(fast, b)

    def test_out_of_range_leaves_block(self):
        b = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        before = b.copy()
        with pytest.raises(IndexError):
            apply_row_pivots(b, np.array([1, 2, 0, 1]))
        assert same_bits(b, before)

    def test_fallbacks_take_the_gather(self):
        pivots = np.array([2, 1, 0])
        base = np.arange(12.0).reshape(4, 3)
        want = base[[2, 0, 1, 3]]
        exact = np.array([[Fraction(int(v))] for v in base[:, 0]], dtype=object)
        assert not _blas.laswp(exact, pivots, True)
        apply_row_pivots(exact, pivots)
        assert exact[:, 0].tolist() == want[:, 0].tolist()
        c_order = base.copy()
        assert not _blas.laswp(c_order, pivots, True)
        apply_row_pivots(c_order, pivots)
        assert np.array_equal(c_order, want)
        tall = np.asfortranarray(np.arange(24.0).reshape(8, 3))
        for strided in (np.asfortranarray(base)[::-1], tall[::2], tall[::2, 0]):
            want_strided = strided[[2, 0, 1, 3]]
            assert not _blas.laswp(strided, pivots, True)
            apply_row_pivots(strided, pivots)
            assert np.array_equal(strided, want_strided)
        frozen = np.asfortranarray(base)
        frozen.flags.writeable = False
        assert not _blas.laswp(frozen, pivots, True)
        with pytest.raises(ValueError):
            apply_row_pivots(frozen, pivots)
        assert np.array_equal(frozen, base)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128])
    @pytest.mark.parametrize("fused", ["var1", "var2a", "var2b"])
    def test_drivers_match_gather(self, dtype, fused, monkeypatch):
        m = 517
        data = random_skew(m, seed=44).data
        if np.dtype(dtype).kind == "c":
            data = data + 1j * random_skew(m, seed=45).data
        x = SkewMatrixLower(np.asfortranarray(data.astype(dtype)))
        fast = ltlt_blk_piv(x.copy(), b=128, fused=fused)
        with monkeypatch.context() as mp:
            mp.setattr(_blas, "_laswp_symbol", lambda prefix: None)
            slow = ltlt_blk_piv(x.copy(), b=128, fused=fused)
        assert fast.p.nontrivial
        assert same_bits(fast.p.pivots, slow.p.pivots)
        assert same_bits(fast.t.tau, slow.t.tau)
        assert same_bits(fast.l.data, slow.l.data)
        assert fast.flops == slow.flops


def test_level2_oracle_equivalence_100_instances():
    # every level-2 kernel equals its dense counterpart within
    # 4 eps n max|operand| per entry
    rng = np.random.Generator(np.random.Philox(2025))
    for _ in range(100):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(1, 17))
        scale = float(rng.uniform(0.5, 4.0))
        a = np.asfortranarray(scale * rng.standard_normal((n, n)))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        want = lower_of(a) + lower_of(np.outer(x, y) - np.outer(y, x))
        skew_rank2(a, 1.0, x, y, 1.0)
        tol = 4 * EPS * n * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(lower_of(a) - want)) <= tol

        g = rng.standard_normal((n, k))
        u, v = rng.standard_normal(k), rng.standard_normal(k)
        want = g + np.outer(x, u) + np.outer(y, v)
        gen_rank2(g, 1.0, x, u, y, v, 1.0)
        tol = 4 * EPS * max(n, k) * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(g - want)) <= tol

        t = SkewTridiagonal(rng.standard_normal(k - 1))
        av = rng.standard_normal((n, k))
        xv = rng.standard_normal(k)
        yv = rng.standard_normal(n)
        want = yv + av.dot(t.dense().dot(xv))
        skew_tridiag_gemv(yv, 1.0, av, t, xv, 1.0)
        tol = 4 * EPS * max(n, k) * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(yv - want)) <= tol


@pytest.mark.parametrize("call", [
    lambda: gen_rank2(np.zeros((4, 3)), 1.0, np.ones(4), np.ones(2), np.ones(4), np.ones(3)),
    lambda: gen_rank2(np.zeros((4, 3)), 1.0, np.ones(4), np.ones(3), np.ones(5), np.ones(3)),
    lambda: skew_tridiag_gemv(np.zeros(4), 1.0, np.zeros((4, 3)),
                              SkewTridiagonal(np.zeros(1)), np.ones(3)),
    lambda: skew_tridiag_gemv(np.zeros(4), 1.0, np.zeros((4, 3)),
                              SkewTridiagonal(np.zeros(2)), np.ones(2)),
    lambda: skew_tridiag_gemv(np.zeros(5), 1.0, np.zeros((4, 3)),
                              SkewTridiagonal(np.zeros(2)), np.ones(3)),
], ids=["gen_rank2-u", "gen_rank2-y", "gemv-t", "gemv-x", "gemv-y"])
def test_dimension_mismatch_rejected(call):
    with pytest.raises(ValueError, match="dimension mismatch"):
        call()


@pytest.mark.parametrize("kernel", ["skew_rank2", "gen_rank2"])
def test_complex_product_into_real_a_rejected(kernel):
    # the product's dtype is checked before beta is applied, so A is left
    # bitwise untouched
    n = 6
    x, y = RNG.standard_normal(n), RNG.standard_normal(n)
    a0 = np.asfortranarray(RNG.standard_normal((n, n)))
    a = a0.copy(order="F")
    with pytest.raises(TypeError, match="cannot write a complex128 product into a float64 A"):
        if kernel == "skew_rank2":
            skew_rank2(a, 1j, x, y, 0.5)
        else:
            gen_rank2(a, 1.0, x, y + 1j, y, x, 0.5)
    assert a.tobytes() == a0.tobytes()


class TestGemvDtypeRule:
    """``skew_tridiag_gemv`` evaluates its dtype rule once per combination of
    dtypes and scalar types (``kernels3._check_product``)."""

    def test_complex_rejected_after_real_call(self):
        a, t = np.ones((2, 3)), SkewTridiagonal(np.array([1.0, 2.0]))
        y = np.zeros(2)
        skew_tridiag_gemv(y, 1.0, a, t, np.ones(3), 0.5)
        for alpha, x, beta in ((1.0, np.array([1j, 0, 1]), 0.5), (1j, np.ones(3), 0.5),
                               (1.0, np.ones(3), 0.5j), (np.complex64(1), np.ones(3), 0.5)):
            y = np.full(2, 3.0)
            with pytest.raises(TypeError, match="into a float64 y"):
                skew_tridiag_gemv(y, alpha, a, t, x, beta)
            assert np.array_equal(y, [3.0, 3.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128])
    def test_result_dtype_unchanged(self, dtype):
        # NEP 50: a Python scalar takes the arrays' precision, a numpy scalar
        # keeps its own; each scalar type gets its own rule
        from skewltl.kernels3 import _check_product
        a = RNG.standard_normal((5, 3)).astype(dtype)
        t = SkewTridiagonal(RNG.standard_normal(2).astype(dtype))
        x = RNG.standard_normal(3).astype(dtype)
        for alpha in (-1, 1.5, np.float32(1.5), np.float64(1.5), np.array(1.5, np.float32),
                      True):
            for _ in range(2):  # once to fill the rule, once to read it
                y = np.zeros(5, dtype=dtype)
                got = _check_product(y, "y", alpha, 1, a, t.tau, x)
                assert got == np.result_type(a, t.tau, x, alpha, 1)
                skew_tridiag_gemv(y, alpha, a, t, x, 1)
                want = alpha * a.dot(t.dense().dot(x))
                assert y.dtype == dtype
                assert np.allclose(y, want, rtol=1e-5, atol=1e-5)

    def test_float32_y_numpy_alpha(self):
        # a float32 y and a np.float32 alpha compute in float32, as before
        a = RNG.standard_normal((4, 3)).astype(np.float32)
        t = SkewTridiagonal(RNG.standard_normal(2).astype(np.float32))
        x = RNG.standard_normal(3).astype(np.float32)
        skew_tridiag_gemv(np.zeros(4), 2.0, a.astype(float), SkewTridiagonal(t.tau.astype(float)),
                          x.astype(float), 1)
        y = np.ones(4, dtype=np.float32)
        skew_tridiag_gemv(y, np.float32(0.5), a, t, x, 1)
        z = t.tau.dtype.type(0)
        tx = np.array([z - t.tau[0] * x[1], t.tau[0] * x[0] - t.tau[1] * x[2], t.tau[1] * x[1]],
                      dtype=np.float32)
        assert y.dtype == np.float32
        assert np.array_equal(y, np.float32(1) + np.float32(0.5) * (a @ tx))

    def test_fraction_scalars(self):
        # scalars numpy has no dtype for count as object: exact on object
        # arrays, rejected on a float y
        a = np.array([[Fraction(1, 2), Fraction(1)]], dtype=object)
        t = SkewTridiagonal(np.array([Fraction(3)], dtype=object))
        x = np.array([Fraction(1), Fraction(2)], dtype=object)
        y = np.array([Fraction(1)], dtype=object)
        skew_tridiag_gemv(y, Fraction(1, 3), a, t, x, Fraction(2))
        assert y[0] == 2 + Fraction(1, 3) * (Fraction(1, 2) * -6 + 3)
        yf = np.zeros(1)
        with pytest.raises(TypeError, match="cannot write a object product into a float64 y"):
            skew_tridiag_gemv(yf, Fraction(1, 3), np.ones((1, 2)), SkewTridiagonal(np.ones(1)),
                              np.ones(2), 1)
