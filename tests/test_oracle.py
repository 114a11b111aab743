"""The reference implementations themselves."""

from fractions import Fraction

import numpy as np
import pytest

from skewltl import ZeroPivot
from skewltl.core import SkewTridiagonal
from skewltl.oracle import (dense_sandwich, exact_from_int, flop_model,
                            gauss_elim_exact, pfaffian_bruteforce,
                            sandwich_matmul)

from helpers import random_int_skew


class TestDenseSandwich:
    def test_identity_inputs(self):
        t = np.array([[0.0, -2.0], [2.0, 0.0]])
        assert np.array_equal(dense_sandwich(np.eye(2), t, np.eye(2)), t)

    def test_zero_t(self):
        a = np.ones((3, 2))
        assert not dense_sandwich(a, np.zeros((2, 2)), a.T).any()

    def test_hand_expansion(self):
        a = np.array([[1.0, 2.0], [0.0, 3.0]])
        t = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[1.0], [1.0]])
        # A (T b) = A (1, 2)^T = (1+4, 6)^T
        assert dense_sandwich(a, t, b).ravel().tolist() == [5.0, 6.0]

    def test_matches_matmul_chain(self):
        rng = np.random.Generator(np.random.Philox(1))
        a = rng.standard_normal((5, 3))
        t = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 4))
        assert np.allclose(dense_sandwich(a, t, b), sandwich_matmul(a, t, b))

    def test_exact_on_fractions(self):
        a = np.array([[Fraction(1, 3)]], dtype=object)
        t = np.array([[Fraction(3, 5)]], dtype=object)
        assert dense_sandwich(a, t, a)[0, 0] == Fraction(1, 15)


class TestGaussElimExact:
    def test_worked_example(self):
        x = exact_from_int([2, 1, 3, 4, 1, 5], 4)
        lm, tau, p = gauss_elim_exact(x)
        assert tau.tolist() == [Fraction(2), Fraction(4), Fraction(21, 2)]
        assert lm[2][1] == Fraction(1, 2)
        assert lm[3][1] == Fraction(3, 2)
        assert lm[3][2] == Fraction(1, 4)
        # cross-check through the Pfaffian identity
        assert (-tau[0]) * (-tau[2]) == Fraction(21) == pfaffian_bruteforce(x)

    def test_m2(self):
        x = exact_from_int([7], 2)
        _lm, tau, _p = gauss_elim_exact(x)
        assert tau.tolist() == [Fraction(7)]

    def test_zero_pivot(self):
        x = exact_from_int([0, 1, 0], 3)
        with pytest.raises(ZeroPivot):
            gauss_elim_exact(x)

    def test_pivoted_reconstructs(self):
        # assemble P^T (L T L^T) P in exact arithmetic and compare entrywise
        from skewltl.core import compose_permutation, invert_permutation
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(6):
            x = random_int_skew(rng, 6)
            lm, tau, p = gauss_elim_exact(x, pivot=True)
            full = lm.dot(SkewTridiagonal(tau).dense()).dot(lm.T)
            inv = invert_permutation(compose_permutation(p))
            assert np.array_equal(full[np.ix_(inv, inv)], x.dense())

    def test_size_cap(self):
        rng = np.random.Generator(np.random.Philox(3))
        with pytest.raises(ValueError):
            gauss_elim_exact(random_int_skew(rng, 17))


def test_exact_from_int_keeps_python_ints():
    # numpy integers inside a Fraction would overflow int64 in silence
    x = exact_from_int(np.array([2 ** 40], dtype=np.int64), 2)
    assert x.data[1, 0] ** 2 == 2 ** 80


class TestPfaffianBruteforce:
    def test_two_by_two(self):
        x = exact_from_int([4], 2)
        assert pfaffian_bruteforce(x) == Fraction(-4)  # X[0,1] = -4

    def test_four_by_four_formula(self):
        rng = np.random.Generator(np.random.Philox(4))
        x = random_int_skew(rng, 4)
        d = x.dense()
        want = d[0, 1] * d[2, 3] - d[0, 2] * d[1, 3] + d[0, 3] * d[1, 2]
        assert pfaffian_bruteforce(x) == want

    def test_worked_example(self):
        assert pfaffian_bruteforce(exact_from_int([2, 1, 3, 4, 1, 5], 4)) == Fraction(21)

    def test_odd_zero(self):
        rng = np.random.Generator(np.random.Philox(5))
        assert pfaffian_bruteforce(random_int_skew(rng, 5)) == 0

    def test_squared_is_det(self):
        rng = np.random.Generator(np.random.Philox(6))
        x = random_int_skew(rng, 6)
        pf = pfaffian_bruteforce(x)
        det = Fraction(round(np.linalg.det(x.dense().astype(float))))
        assert pf * pf == det

    def test_cap(self):
        rng = np.random.Generator(np.random.Philox(7))
        with pytest.raises(ValueError):
            pfaffian_bruteforce(random_int_skew(rng, 14))


class TestFlopModel:
    def test_values(self):
        assert flop_model("unb-rl", 100) == pytest.approx(2e6 / 3)
        assert flop_model("unb-ll", 100) == pytest.approx(1e6 / 3)
        assert flop_model("blk-var1", 100) == flop_model("unb-2step", 100)

    def test_unknown(self):
        with pytest.raises(ValueError):
            flop_model("cholesky", 10)
