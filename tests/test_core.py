"""Storage types, splitting, pivots, reconstruction, packing."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewltl import (PermutationVector, SkewMatrixLower, SkewTridiagonal,
                     apply_symmetric_pivot, compose_permutation,
                     form_s_splitting, ltlt_unb_rl, pack_in_place,
                     random_skew, reconstruct, unpack_in_place)
from skewltl import ltlt_blk_piv, ltlt_unb_ll
from skewltl.core import (UnitLowerFactor, _swap_order, _sym_swap_lower,
                          invert_permutation)
from skewltl.kernels2 import apply_row_pivots

from helpers import worked_example


class TestSkewMatrixLower:
    def test_dense_antisymmetric(self):
        x = random_skew(7, seed=1)
        d = x.dense()
        assert np.array_equal(d, -d.T)
        assert not d.diagonal().any()

    def test_from_dense_ignores_upper_and_diagonal(self):
        d = np.arange(16, dtype=float).reshape(4, 4)
        x = SkewMatrixLower.from_dense(d)
        assert x.data[2, 1] == d[2, 1]
        assert x.data[1, 2] == 0.0
        assert x.data[1, 1] == 0.0

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 300])
    @pytest.mark.parametrize("seed,scale", [(0, 1.0), (3, 1.0), (11, 0.5), (5, -1e-3)])
    def test_construction_matches_index_arrays(self, m, seed, scale):
        # the seeded instances of the test suites depend on these bytes: one
        # draw of all strictly-lower entries in row-major order
        rng = np.random.Generator(np.random.Philox(seed))
        want = np.zeros((m, m), order="F")
        il, jl = np.tril_indices(m, -1)
        want[il, jl] = scale * rng.standard_normal(il.size)
        got = random_skew(m, seed=seed, scale=scale).data
        assert got.flags.f_contiguous
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        dense = np.random.default_rng(seed).standard_normal((m, m))
        ref = np.zeros((m, m), order="F")
        ref[il, jl] = dense[il, jl]
        got = SkewMatrixLower.from_dense(dense).data
        assert got.flags.f_contiguous and got.tobytes() == ref.tobytes()

    def test_norm_matches_dense(self):
        x = random_skew(9, seed=2)
        assert np.isclose(x.norm(), np.linalg.norm(x.dense()))

    @pytest.mark.filterwarnings("error")
    def test_norm_complex(self):
        # imaginary parts count; a cast to float would drop them with only a
        # ComplexWarning
        x = SkewMatrixLower(random_skew(6, seed=2).data * (1 + 1j))
        assert np.isclose(x.norm(), np.linalg.norm(x.dense()))
        assert np.isclose(x.norm(), np.sqrt(2) * random_skew(6, seed=2).norm())

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SkewMatrixLower(np.zeros((3, 4)))

    def test_upper_triangle_never_touched(self):
        # poison the unreferenced region; factoring must neither read nor
        # write it
        x = random_skew(24, seed=3)
        iu, ju = np.triu_indices(24)
        x.data[iu, ju] = np.nan
        r = ltlt_unb_rl(x)
        assert np.all(np.isfinite(r.t.tau))
        assert np.all(np.isnan(x.data[iu, ju]))

    def test_upper_triangle_never_touched_blocked_pivoted(self):
        from skewltl import ltlt_blk_piv
        m = 40
        x = random_skew(m, seed=3)
        iu, ju = np.triu_indices(m)
        x.data[iu, ju] = np.nan
        r = ltlt_blk_piv(x, b=8, fused="var2b")
        assert np.all(np.isfinite(r.t.tau))
        assert np.all(np.isfinite(r.l.dense()))
        assert np.all(np.isnan(x.data[iu, ju]))


class TestSSplitting:
    def test_m1_empty(self):
        s = form_s_splitting(SkewTridiagonal(np.zeros(0)))
        assert s.entries == []

    def test_m2_single_entry(self):
        s = form_s_splitting(SkewTridiagonal(np.array([5.0])))
        assert s.entries == [(0, 1, -5.0)]

    def test_m4_pattern(self):
        s = form_s_splitting(SkewTridiagonal(np.array([2.0, 3.0, 7.0])))
        assert {(i, j, v) for i, j, v in s.entries} == {(0, 1, -2.0), (2, 1, 3.0), (2, 3, -7.0)}
        t = SkewTridiagonal(np.array([2.0, 3.0, 7.0])).dense()
        sd = s.dense(float)
        assert np.array_equal(sd - sd.T, t)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**31))
    def test_splitting_property(self, m, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        t = SkewTridiagonal(rng.standard_normal(m - 1))
        sd = form_s_splitting(t).dense(float)
        assert np.array_equal(sd - sd.T, t.dense())
        assert not sd[1::2, :].any()


class TestSymmetricPivot:
    def test_identity_offset(self):
        x = random_skew(5, seed=4)
        before = x.data.copy()
        apply_symmetric_pivot(x, 2, 0)
        assert np.array_equal(x.data, before)

    def test_two_by_two_sign_flip(self):
        x = SkewMatrixLower.zeros(2)
        x.data[1, 0] = 3.0
        apply_symmetric_pivot(x, 0, 1)
        assert x.data[1, 0] == -3.0

    def test_worked_example_against_dense(self):
        x = worked_example()
        want = x.dense()
        perm = np.arange(4)
        perm[1], perm[3] = perm[3], perm[1]
        want = want[np.ix_(perm, perm)]
        apply_symmetric_pivot(x, 1, 2)
        assert np.array_equal(x.dense(), want)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 12), st.data())
    def test_random_chain_matches_dense(self, m, data):
        x = random_skew(m, seed=data.draw(st.integers(0, 10**6)))
        dense = x.dense()
        perm = np.arange(m)
        for _ in range(data.draw(st.integers(1, 4))):
            k = data.draw(st.integers(0, m - 2))
            off = data.draw(st.integers(0, m - 1 - k))
            apply_symmetric_pivot(x, k, off)
            perm[k], perm[k + off] = perm[k + off], perm[k]
        assert np.array_equal(x.dense(), dense[np.ix_(perm, perm)])

    def test_out_of_range(self):
        x = random_skew(4, seed=0)
        with pytest.raises(IndexError):
            apply_symmetric_pivot(x, 2, 2)

    @pytest.mark.parametrize("k, pi", [(0, 1.5), (1.5, 0), (np.float64(1), 1)])
    def test_non_integer_index_rejected(self, k, pi):
        # read through operator.index, as a block size is
        x = random_skew(4, seed=0)
        before = x.data.copy()
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            apply_symmetric_pivot(x, k, pi)
        assert np.array_equal(x.data, before)


class TestSymSwapStrides:
    """``_sym_swap_lower`` at row strides of 8 float64 or 4 float32 items.

    numpy 2.4.6's ``np.negative(v, out=w)`` returns wrong values when both
    views have that stride (it reads v as if contiguous), so a swap whose
    sign flips negate a row in place through it fails here."""

    @pytest.mark.parametrize("dtype,m", [(np.float64, 8), (np.float32, 4)])
    def test_every_pair_against_dense(self, dtype, m):
        base = random_skew(m, seed=31).data.astype(dtype, order="F")
        for a in range(m):
            for b in range(a + 1, m):
                buf = base.copy(order="F")
                _sym_swap_lower(buf, a, b)
                perm = np.arange(m)
                perm[a], perm[b] = b, a
                want = SkewMatrixLower(base).dense()[np.ix_(perm, perm)]
                assert np.array_equal(SkewMatrixLower(buf).dense(), want), (a, b)

    @pytest.mark.parametrize("factor", [
        lambda x: ltlt_blk_piv(x, b=3, fused="var2b"),
        lambda x: ltlt_unb_ll(x, pivot=True)])
    def test_pivoted_drivers_at_m8(self, factor):
        x = random_skew(8, seed=32)
        res = factor(x.copy())
        assert res.p.nontrivial
        rec = reconstruct(res.l, res.t, res.p).dense()
        assert np.allclose(rec, x.dense(), rtol=1e-13, atol=1e-13)


class TestPermutation:
    def test_identity(self):
        p = PermutationVector(np.zeros(3, dtype=np.int64), 3)
        assert np.array_equal(compose_permutation(p), [0, 1, 2])

    def test_spec_example(self):
        p = PermutationVector(np.array([0, 1]), 3)
        assert np.array_equal(compose_permutation(p), [0, 2, 1])

    def test_matches_sequential_swaps(self):
        rng = np.random.Generator(np.random.Philox(9))
        m = 6
        pivots = np.array([int(rng.integers(0, m - k)) for k in range(m)])
        p = PermutationVector(pivots, m)
        v = np.arange(100, 100 + m)
        seq = v.copy()
        for k, off in enumerate(pivots):
            seq[k], seq[k + off] = seq[k + off], seq[k]
        assert np.array_equal(v[compose_permutation(p)], seq)

    def test_validation(self):
        with pytest.raises(ValueError):
            PermutationVector(np.array([0, 5]), 3)

    @pytest.mark.parametrize("pivots, message", [
        ([0, 5], "pivot 5 out of range at position 1"),
        ([2, 0, 2, -1], "pivot 2 out of range at position 2"),
        ([0, -1, 9], "pivot -1 out of range at position 1"),
        ([4, 0, 0, 0], "pivot 4 out of range at position 0"),
    ])
    def test_first_bad_offset_named(self, pivots, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PermutationVector(np.array(pivots), 3 if len(pivots) < 4 else 4)

    @pytest.mark.parametrize("pivots", [[0, 0, 2], [1, 0, -1], [0, 3, 1]])
    def test_swap_order_out_of_range(self, pivots):
        with pytest.raises(IndexError, match="^pivot out of range$"):
            _swap_order(np.array(pivots), 3)

    def test_swap_order_matches_loop(self):
        # the reference: every offset in turn, as numpy scalars
        rng = np.random.Generator(np.random.Philox(10))
        n = 300
        pivots = np.array([int(rng.integers(0, n - k)) for k in range(n)])
        pivots[rng.random(n) < 0.5] = 0
        want = np.arange(n)
        for k, off in enumerate(pivots):
            want[k], want[k + off] = want[k + off], want[k]
        got = _swap_order(pivots, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [0.5, 0.9, np.nan, np.inf])
    def test_non_integral_offset_rejected(self, bad):
        # each entry point raises its out-of-range error before any row moves,
        # though the valid swap at position 0 comes first
        pivots = np.array([1.0, bad, 0.0])
        with pytest.raises(ValueError, match="^pivot .+ out of range at position 1$"):
            PermutationVector(pivots, 3)
        p = PermutationVector(np.zeros(3, dtype=np.int64), 3)
        p.pivots = pivots
        with pytest.raises(IndexError, match="^pivot out of range$"):
            compose_permutation(p)
        for dtype in (np.float64, object):  # the ?laswp path and the gather
            block = np.arange(6).reshape(3, 2).astype(dtype, order="F")
            before = block.copy()
            with pytest.raises(IndexError, match="^pivot out of range$"):
                apply_row_pivots(block, pivots)
            assert np.array_equal(block, before)

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, object])
    def test_integral_float_offsets(self, dtype, forward):
        # offsets read back with np.loadtxt's default dtype move the same rows
        pivots = np.array([2, 0, 1, 0])
        want = np.arange(8).reshape(4, 2).astype(dtype, order="F")
        got = want.copy(order="F")
        apply_row_pivots(want, pivots, forward)
        apply_row_pivots(got, pivots.astype(np.float64), forward)
        assert np.array_equal(got, want)
        assert not np.array_equal(want, np.arange(8).reshape(4, 2))

    def test_sign(self):
        assert PermutationVector(np.array([0, 0]), 4).sign() == 1
        assert PermutationVector(np.array([0, 2, 1]), 4).sign() == 1
        assert PermutationVector(np.array([0, 2]), 4).sign() == -1

    def test_invert(self):
        perm = np.array([2, 0, 3, 1])
        inv = invert_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(4))


class TestReconstruct:
    def test_identity_l_zero_t(self):
        l = UnitLowerFactor.identity(4)
        t = SkewTridiagonal(np.zeros(3))
        assert not reconstruct(l, t).dense().any()

    def test_identity_l_embeds_t(self):
        l = UnitLowerFactor.identity(4)
        t = SkewTridiagonal(np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(reconstruct(l, t).dense(), t.dense())

    def test_worked_example_roundtrip(self):
        x = worked_example()
        r = ltlt_unb_rl(x)
        rec = reconstruct(r.l, r.t, r.p)
        assert np.allclose(rec.dense(), x.dense(), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reconstruct(UnitLowerFactor.identity(4), SkewTridiagonal(np.zeros(4)))


class TestPack:
    def test_m2(self):
        x = SkewMatrixLower.zeros(2)
        x.data[1, 0] = 7.0
        r = ltlt_unb_rl(x)
        box = x.copy()
        pack_in_place(box, r.l, r.t)
        assert box.data[1, 0] == 7.0

    def test_worked_example_layout(self):
        x = worked_example()
        r = ltlt_unb_rl(x)
        box = x.copy()
        pack_in_place(box, r.l, r.t)
        d = box.data
        assert np.allclose([d[1, 0], d[2, 1], d[3, 2]], [2.0, 4.0, 10.5])
        assert np.allclose([d[2, 0], d[3, 0], d[3, 1]], [0.5, 1.5, 0.25])

    def test_pack_unpack_inverse(self):
        x = random_skew(11, seed=12)
        r = ltlt_unb_rl(x, pivot=True)
        box = x.copy()
        pack_in_place(box, r.l, r.t)
        l2, t2 = unpack_in_place(box)
        assert np.array_equal(t2.tau, r.t.tau)
        assert np.array_equal(l2.dense(), r.l.dense())


@pytest.mark.parametrize("call, match", [
    (lambda: pack_in_place(SkewMatrixLower.zeros(4), UnitLowerFactor.identity(3),
                           SkewTridiagonal(np.zeros(3))), "dimension mismatch"),
    (lambda: pack_in_place(SkewMatrixLower.zeros(4), UnitLowerFactor.identity(4),
                           SkewTridiagonal(np.zeros(4))), "dimension mismatch"),
    (lambda: SkewTridiagonal(np.zeros((2, 2))), "tau must be a vector"),
    (lambda: UnitLowerFactor(np.zeros((3, 2))), "square 2-D buffer required"),
    (lambda: PermutationVector(np.zeros((2, 2), dtype=np.int64), 4),
     "pivots must be a vector"),
    (lambda: PermutationVector(np.zeros(4, dtype=np.int64), 3), "more pivots than rows"),
], ids=["pack-l", "pack-t", "tau-2d", "l-nonsquare", "pivots-2d", "pivots-too-many"])
def test_bad_shape_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestUnitLowerFactor:
    def test_identity_dense(self):
        assert np.array_equal(UnitLowerFactor.identity(3).dense(), np.eye(3))

    def test_first_column(self):
        l = UnitLowerFactor.identity(3)
        l.first_column = np.array([0.5, -0.25])
        d = l.dense()
        assert np.array_equal(d[:, 0], [1.0, 0.5, -0.25])

    @pytest.mark.parametrize("dtype", [np.float64, object], ids=["float64", "Fraction"])
    def test_max_abs_counts_first_column(self, dtype):
        # max|L| is 1.5 in the stored columns and -3.25 in the first column
        buf = np.zeros((4, 4), dtype=dtype, order="F")
        buf[3, 1] = Fraction(3, 2) if dtype is object else 1.5
        fc = [Fraction(1, 4), Fraction(-13, 4), Fraction(0)]
        l = UnitLowerFactor(buf, np.array(fc, dtype=dtype))
        assert l.max_abs() == 3.25
        assert UnitLowerFactor(buf).max_abs() == 1.5

    def test_empty_with_first_column(self):
        d = UnitLowerFactor(np.zeros((0, 0)), first_column=np.zeros(0)).dense()
        assert d.shape == (0, 0)
