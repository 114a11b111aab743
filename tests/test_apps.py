"""Pfaffian and solve."""

from fractions import Fraction

import numpy as np
import pytest

from skewltl import (SingularT, SkewMatrixLower, pfaffian, random_skew, solve)
from skewltl import ltlt_blk_piv, ltlt_blk_var1, ltlt_unb_ll, ltlt_unb_rl
from skewltl.apps import _tridiag_solve
from skewltl.oracle import exact_from_int, pfaffian_bruteforce

from helpers import worked_example


class TestPfaffian:
    def test_two_by_two(self):
        x = SkewMatrixLower.zeros(2)
        x.data[1, 0] = 3.0
        assert pfaffian(x) == -3.0  # X[0,1] = -3

    def test_worked_example(self):
        assert np.isclose(pfaffian(worked_example()), 21.0)

    def test_worked_example_exact(self):
        x = exact_from_int([2, 1, 3, 4, 1, 5], 4)
        pf = pfaffian(x)
        assert pf == Fraction(21)

    def test_overflow_raises(self):
        # 0.5 log|det X| is about 807.6, past log(float64 max) = 709.8
        with pytest.raises(OverflowError, match=r"log\|Pf\| = 807\.6"):
            pfaffian(random_skew(600, seed=3))

    def test_odd_dimension_zero(self):
        assert pfaffian(random_skew(3, seed=1)) == 0.0
        assert pfaffian(random_skew(7, seed=2)) == 0.0

    def test_empty(self):
        assert pfaffian(SkewMatrixLower.zeros(0)) == 1.0

    def test_zero_block_rejected(self):
        with pytest.raises(ValueError, match="block size must be >= 1"):
            pfaffian(random_skew(4, seed=1), b=0)

    def test_matches_bruteforce(self):
        for seed in range(8):
            rng = np.random.Generator(np.random.Philox(seed))
            m = int(rng.integers(1, 5)) * 2
            ints = rng.integers(-6, 7, size=m * (m - 1) // 2)
            x = exact_from_int(ints, m)
            assert pfaffian(x) == pfaffian_bruteforce(x)

    def test_squared_equals_det(self):
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox(100 + seed))
            m = int(rng.integers(1, 7)) * 2
            x = random_skew(m, seed=200 + seed)
            pf = pfaffian(x)
            det = np.linalg.det(x.dense())
            assert abs(pf * pf - det) <= 1e-10 * max(1.0, abs(det))

    def test_invariant_across_variants(self):
        # the Pfaffian does not depend on which driver produced the factors
        x = worked_example()
        vals = []
        for res in (ltlt_unb_rl(x), ltlt_unb_ll(x, pivot=True),
                    ltlt_blk_var1(x, b=2), ltlt_blk_piv(x, b=2, fused="var2b")):
            tau = res.t.tau
            v = res.p.sign()
            for i in range(0, 3, 2):
                v = v * (-tau[i])
            vals.append(float(v))
        assert np.allclose(vals, 21.0)


class TestSolve:
    def test_unit_vector(self):
        a = 2.5
        x = SkewMatrixLower.zeros(2)
        x.data[1, 0] = a
        y = solve(x, np.array([0.0, a]))
        assert np.allclose(y, [1.0, 0.0])

    def test_worked_example_all_ones(self):
        x = worked_example()
        b = x.dense().dot(np.ones(4))
        y = solve(x, b)
        assert np.allclose(y, np.ones(4), atol=1e-12)

    def test_multiple_rhs(self):
        m = 20
        x = random_skew(m, seed=3)
        want = np.random.Generator(np.random.Philox(4)).standard_normal((m, 3))
        b = x.dense().dot(want)
        y = solve(x, b)
        assert y.shape == (m, 3)
        assert np.allclose(y, want, atol=1e-9)

    def test_roundtrip_bound(self):
        eps = np.finfo(float).eps
        for m in (10, 50, 200):
            x = random_skew(m, seed=5)
            want = np.random.Generator(np.random.Philox(6)).standard_normal(m)
            y = solve(x, x.dense().dot(want))
            num = np.linalg.norm(x.dense().dot(y) - x.dense().dot(want))
            assert num <= 100 * eps * m * np.linalg.norm(x.dense()) * np.linalg.norm(want)

    @pytest.mark.parametrize("complex_b", [False, True])
    def test_complex_x(self, complex_b):
        # complex X is solved in complex arithmetic, never cast to float
        eps = np.finfo(float).eps
        rng = np.random.Generator(np.random.Philox(10))
        for m in (6, 200):
            d = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            d = d - d.T
            x = SkewMatrixLower.from_dense(d)
            b = rng.standard_normal((m, 2))
            if complex_b:
                b = b + 1j * rng.standard_normal((m, 2))
            y = solve(x, b)
            assert y.dtype == np.complex128
            num = np.linalg.norm(d @ y - b)
            assert num <= 100 * eps * m * np.linalg.norm(d) * np.linalg.norm(y)

    def test_exact_x_solved_in_float64(self):
        x = exact_from_int([2, 1, 3, 4, 1, 5], 4)
        y = solve(x, np.ones(4))
        assert y.dtype == np.float64
        assert np.allclose(x.dense().astype(float) @ y, 1.0, atol=1e-12)

    def test_singular_rank2(self):
        # X = u v^T - v u^T has rank 2; solving a 4x4 must fail
        rng = np.random.Generator(np.random.Philox(7))
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        x = SkewMatrixLower.from_dense(np.outer(u, v) - np.outer(v, u))
        with pytest.raises(SingularT):
            solve(x, np.ones(4))

    def test_odd_dimension_singular(self):
        with pytest.raises(SingularT):
            solve(random_skew(5, seed=8), np.ones(5))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            solve(random_skew(4, seed=0), np.ones(5))

    def test_vector_of_multiple_length_rejected(self):
        # a length-2m vector must not be read as two interleaved columns
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(random_skew(6, seed=0), np.arange(12.0))

    def test_three_dimensional_rhs_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(random_skew(6, seed=0), np.ones((6, 2, 2)))


    def test_zero_block_rejected(self):
        with pytest.raises(ValueError, match="block size must be >= 1"):
            solve(random_skew(4, seed=1), np.ones(4), block=0)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128])
    def test_empty(self, shape, dtype):
        # as numpy.linalg.solve: an empty result of b's shape in the solve dtype
        b = np.ones(shape, dtype=dtype)
        y = solve(SkewMatrixLower.zeros(0), b)
        assert y.shape == shape
        assert y.dtype == np.linalg.solve(np.zeros((0, 0)), b).dtype


class TestTridiagSolve:
    def test_small_against_dense(self):
        from skewltl.core import SkewTridiagonal
        rng = np.random.Generator(np.random.Philox(9))
        for m in (2, 3, 6, 11):
            tau = rng.standard_normal(m - 1) + 0.5
            t = SkewTridiagonal(tau).dense()
            if abs(np.linalg.det(t)) < 1e-8:
                continue
            b = rng.standard_normal(m)
            y = _tridiag_solve(tau, b)
            assert np.allclose(t.dot(y), b, atol=1e-10)

    def test_zero_t_singular(self):
        with pytest.raises(SingularT):
            _tridiag_solve(np.zeros(3), np.ones(4))
