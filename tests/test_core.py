"""Storage types, splitting, pivots, reconstruction, packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewltl import (PermutationVector, SkewMatrixLower, SkewTridiagonal,
                     apply_symmetric_pivot, compose_permutation,
                     form_s_splitting, ltlt_unb_rl, pack_in_place,
                     random_skew, reconstruct, unpack_in_place)
from skewltl.core import UnitLowerFactor, invert_permutation

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


class TestUnitLowerFactor:
    def test_identity_dense(self):
        assert np.array_equal(UnitLowerFactor.identity(3).dense(), np.eye(3))

    def test_first_column(self):
        l = UnitLowerFactor.identity(3)
        l.first_column = np.array([0.5, -0.25])
        d = l.dense()
        assert np.array_equal(d[:, 0], [1.0, 0.5, -0.25])

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            UnitLowerFactor(np.zeros((2, 2)), mode="diag")
