"""Pfaffian and solve."""

import gc
import inspect
import os
import subprocess
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest

from skewltl import (SingularT, SkewMatrixLower, _blas, apps, pfaffian, random_skew,
                     solve)
from skewltl import ltlt_blk_piv, ltlt_blk_var1, ltlt_unb_ll, ltlt_unb_rl
from skewltl.apps import _tridiag_solve
from skewltl.blocked import DEFAULT_PIVOT_BLOCK
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

    @pytest.mark.parametrize("tau, dtype", [
        ([1e200, 1, 1e200, 1, 1e-200, 1, 1e-200], np.float64),
        ([1e200, 1, 1e200, 1, 1e-200, 1, 1e-200], np.complex128),
        ([1e-200, 1, 1e-200, 1, 1e200, 1, 1e200], np.float64),
        ([1e30, 1, 1e30, 1, 1e-30, 1, 1e-30], np.float32),
    ], ids=["float64-high-first", "complex128-high-first", "float64-low-first",
            "float32-high-first"])
    def test_partial_products_out_of_range(self, tau, dtype):
        # |Pf| is about 1, but the partial products overflow or underflow
        m = len(tau) + 1
        x = SkewMatrixLower(np.zeros((m, m), dtype=dtype, order="F"))
        x.data[np.arange(1, m), np.arange(m - 1)] = tau
        res = ltlt_blk_piv(x.copy(), fused="var2b")
        assert np.array_equal(res.t.tau, np.array(tau, dtype=dtype))
        exact = Fraction(res.p.sign())
        for t in res.t.tau[0::2]:
            exact *= -Fraction(float(t.real))
        got = pfaffian(x)
        assert got.dtype == dtype and got.imag == 0
        want = np.real(dtype(exact))
        assert abs(Fraction(float(got.real)) - exact) <= 4 * Fraction(float(np.spacing(want)))

    def test_odd_dimension_zero(self):
        assert pfaffian(random_skew(3, seed=1)) == 0.0
        assert pfaffian(random_skew(7, seed=2)) == 0.0

    def test_empty(self):
        assert pfaffian(SkewMatrixLower.zeros(0)) == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128, object])
    def test_trivial_sizes_keep_scalar_type(self, dtype):
        # 1 at m = 0 and 0 at odd m: an int for object input, else x's own
        # scalar type, as at even m > 0
        want = int if dtype is object else dtype
        for m, value in [(0, 1), (1, 0), (3, 0)]:
            got = pfaffian(SkewMatrixLower.zeros(m, dtype=dtype))
            assert type(got) is want and got == value

    def test_zero_block_rejected(self):
        with pytest.raises(ValueError, match="block size must be >= 1"):
            pfaffian(random_skew(4, seed=1), b=0)

    @pytest.mark.parametrize("m", [3, 0])
    def test_zero_block_rejected_without_factoring(self, m):
        # odd m and m = 0 return without a factorization; b is checked first
        with pytest.raises(ValueError, match="block size must be >= 1"):
            pfaffian(random_skew(m, seed=1) if m else SkewMatrixLower.zeros(0), b=0)

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
        # m = 512 stores L in a padded buffer, so its block is a strided view
        for m in (10, 50, 200, 512):
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

    def test_tridiag_solve_rhs_length_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            _tridiag_solve(np.ones(3), np.ones(5))

    def test_three_dimensional_rhs_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(random_skew(6, seed=0), np.ones((6, 2, 2)))


    def test_zero_block_rejected(self):
        with pytest.raises(ValueError, match="block size must be >= 1"):
            solve(random_skew(4, seed=1), np.ones(4), block=0)

    def test_zero_block_rejected_when_empty(self):
        with pytest.raises(ValueError, match="block size must be >= 1"):
            solve(SkewMatrixLower.zeros(0), np.ones(0), block=0)

    def test_nan_above_diagonal_ignored(self, monkeypatch):
        # factorizations ignore what lies above the diagonal; L's buffer keeps it
        m = 40
        x = random_skew(m, seed=11)
        b = np.random.Generator(np.random.Philox(12)).standard_normal((m, 2))
        want = solve(x, b)
        iu, ju = np.triu_indices(m)
        x.data[iu, ju] = np.nan
        monkeypatch.setattr(apps, "_last", None)  # factor again, NaN and all
        assert np.array_equal(solve(x, b), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rhs_rejected(self, bad):
        b = np.ones(6)
        b[3] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(random_skew(6, seed=0), b)

    def test_nonfinite_rhs_rejected_before_factoring(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factored before the right-hand side was checked")

        monkeypatch.setattr(apps, "ltlt_blk_piv", refuse)
        monkeypatch.setattr(apps, "_last", None)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(random_skew(6, seed=0), np.array([1, 2, np.nan, 4, 5, 6.0]))

    def test_one_by_one_singular(self):
        with pytest.raises(SingularT, match="at row 0"):
            solve(random_skew(1, seed=0), np.ones(1))

    def test_single_factorization(self, monkeypatch):
        # pfaffian then solve on an unchanged x factor once, through
        # apps.ltlt_blk_piv; a changed x.data is factored again
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(kwargs)
            return ltlt_blk_piv(*args, **kwargs)

        monkeypatch.setattr(apps, "ltlt_blk_piv", wrapped)
        monkeypatch.setattr(apps, "_last", None)
        eps = np.finfo(float).eps
        for m in (12, 2100):  # at 2100 L's buffer is mapped
            calls.clear()
            x = random_skew(m, seed=13, scale=1.6 / m ** 0.5)
            b = np.ones((m, 2))
            pfaffian(x)
            assert len(calls) == 1
            for k in (1, 2):
                y = solve(x, b)
                assert len(calls) == k
                d = x.dense()
                assert np.linalg.norm(d @ y - b) <= m * eps * np.linalg.norm(d) * np.linalg.norm(y)
                x.data[7, 3] += 1
            assert all(c["fused"] == "var2b" for c in calls)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex128])
    def test_empty(self, shape, dtype):
        # as numpy.linalg.solve: an empty result of b's shape in the solve dtype
        b = np.ones(shape, dtype=dtype)
        y = solve(SkewMatrixLower.zeros(0), b)
        assert y.shape == shape
        assert y.dtype == np.linalg.solve(np.zeros((0, 0)), b).dtype


class TestFactorCache:
    """``apps._factor`` keeps its last result, keyed by the block size, the
    dtype, m and the sha256 of the strictly-lower columns, while the input's
    data array is alive."""

    @pytest.fixture(autouse=True)
    def calls(self, monkeypatch):
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(kwargs["b"])
            return ltlt_blk_piv(*args, **kwargs)

        monkeypatch.setattr(apps, "ltlt_blk_piv", wrapped)
        monkeypatch.setattr(apps, "_last", None)
        return calls

    @staticmethod
    def fresh(x, b):
        # the answers of an empty cache, on a copy of x
        apps._last = None
        copy = SkewMatrixLower(x.data.copy())
        return pfaffian(copy), solve(copy, b)

    def test_changed_entry_refactors(self, calls):
        m = 40
        x = random_skew(m, seed=50)
        b = np.random.Generator(np.random.Philox(51)).standard_normal((m, 2))
        pfaffian(x)
        x.data[30, 4] = 0.25
        y = solve(x, b)
        assert len(calls) == 2
        pf = pfaffian(x)
        assert len(calls) == 2
        want_pf, want_y = self.fresh(x, b)
        assert pf == want_pf and np.array_equal(y, want_y)

    def test_miss_frees_the_old_result_first(self, monkeypatch):
        # two L buffers are never held at once
        x0 = random_skew(40, seed=57)
        pfaffian(x0)
        old = weakref.ref(apps._last[2].l.data)
        seen = []

        def wrapped(*args, **kwargs):
            seen.append(old())
            return ltlt_blk_piv(*args, **kwargs)

        monkeypatch.setattr(apps, "ltlt_blk_piv", wrapped)
        pfaffian(random_skew(40, seed=58))
        assert seen == [None]

    def test_nan_above_diagonal_is_a_hit(self, calls):
        m = 40
        x = random_skew(m, seed=52)
        b = np.ones(m)
        want_pf, want_y = self.fresh(x, b)
        iu, ju = np.triu_indices(m)
        assert pfaffian(x) == want_pf
        x.data[iu, ju] = np.nan
        assert np.array_equal(solve(x, b), want_y)
        assert len(calls) == 2
        assert np.array_equal(solve(x, b), want_y)  # factored with the NaN
        x.data[iu, ju] = 5.0
        assert pfaffian(x) == want_pf
        assert len(calls) == 3

    def test_hit_takes_the_entry(self, calls):
        # the entry serves one reuse, so after pfaffian then solve no L is held
        x = random_skew(40, seed=59)
        pfaffian(x)
        l_data = weakref.ref(apps._last[2].l.data)
        solve(x, np.ones(40))
        assert apps._last is None and l_data() is None
        pfaffian(x)
        assert len(calls) == 2

    def test_block_size_is_part_of_the_key(self, calls):
        x = random_skew(40, seed=53)
        pfaffian(x, b=16)
        solve(x, np.ones(40), block=16)
        assert calls == [16]
        pfaffian(x)
        assert calls == [16, 40]
        pfaffian(x, b=40)  # the default at m = 40
        solve(x, np.ones(40), block=8)
        assert calls == [16, 40, 8]

    def test_default_block_is_the_pivoted_drivers(self, calls):
        # above DEFAULT_PIVOT_BLOCK, no block means ltlt_blk_piv's own default
        m = DEFAULT_PIVOT_BLOCK + 10
        x = random_skew(m, seed=54, scale=1.6 / m ** 0.5)
        pfaffian(x)
        solve(x, np.ones(m))
        assert calls == [DEFAULT_PIVOT_BLOCK]
        assert inspect.signature(ltlt_blk_piv).parameters["b"].default == DEFAULT_PIVOT_BLOCK

    def test_object_dtype_never_cached(self, calls):
        x = exact_from_int([2, 1, 3, 4, 1, 5], 4)
        assert pfaffian(x) == Fraction(21)
        assert pfaffian(x) == Fraction(21)
        y = solve(x, np.ones(4))
        assert len(calls) == 3 and apps._last is None
        assert np.allclose(x.dense().astype(float) @ y, 1.0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.complex128])
    def test_other_dtypes_hit(self, calls, dtype):
        m = 30
        x = random_skew(m, seed=54)
        x = SkewMatrixLower(x.data * (1 + 0.5j) if dtype == np.complex128
                            else x.data.astype(dtype))
        b = np.random.Generator(np.random.Philox(55)).standard_normal((m, 3))
        pf, y = pfaffian(x), solve(x, b)
        assert len(calls) == 1
        want_pf, want_y = self.fresh(x, b)
        assert pf == want_pf and np.array_equal(y, want_y)

    def test_entry_dropped_with_data(self):
        x = random_skew(40, seed=56)
        pfaffian(x)
        l_data = weakref.ref(apps._last[2].l.data)
        del x
        gc.collect()
        assert apps._last is None and l_data() is None

    def test_threads(self):
        # four threads interleave pfaffian and solve on one shared input and
        # one input each; every answer is the serial one, bitwise
        m = 120
        xs = [random_skew(m, seed=60 + i) for i in range(5)]
        b = np.random.Generator(np.random.Philox(65)).standard_normal((m, 2))
        serial = [(pfaffian(x), solve(x, b)) for x in xs]
        errors = []

        def run(i):
            for k in range(8):
                j = 4 if k % 2 else i
                if k % 3:
                    pf, y = pfaffian(xs[j]), solve(xs[j], b)
                else:
                    y, pf = solve(xs[j], b), pfaffian(xs[j])
                if pf != serial[j][0] or not np.array_equal(y, serial[j][1]):
                    errors.append((i, k))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside _factor too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_import_loads_no_hashlib(self):
        # hashlib loads OpenSSL; only the first cached factorization needs it
        import skewltl
        src = os.path.dirname(os.path.dirname(os.path.abspath(skewltl.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, skewltl.cli; "
                "print(sorted(m for m in sys.modules if 'hashlib' in m))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"


class TestSolveOnNumpyBlas:
    """solve's triangular and tridiagonal solves through ``_blas`` on numpy's
    OpenBLAS, and scipy's routines where ``_blas`` declines."""

    def test_loads_no_scipy(self):
        if any(f(p) is None for f in (_blas._trsm_symbol, _blas._gtsv_symbol) for p in "dz"):
            pytest.skip("numpy's OpenBLAS exports no ?trsm or ?gtsv")
        import skewltl
        src = os.path.dirname(os.path.dirname(os.path.abspath(skewltl.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, numpy as np, skewltl\n"
                "x = skewltl.random_skew(64, seed=1)\n"
                "xc = skewltl.SkewMatrixLower(x.data * (1 + 1j))\n"
                "for v in (x, xc):\n"
                "    skewltl.pfaffian(v)\n"
                "    skewltl.solve(v, np.ones(64))\n"
                "    skewltl.solve(v, np.ones((64, 3)))\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("shape", [(40,), (40, 1), (40, 3)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_fallback_parity(self, monkeypatch, dtype, shape, order):
        # scipy's solve_triangular and ?gtsv give the same result: bitwise in
        # float64 with several columns; within 1e-13 relative for one column
        # (scipy reaches ?trsv, which rounds differently from ?trsm) and in
        # complex128 (two OpenBLAS builds)
        rng = np.random.Generator(np.random.Philox(14))
        x = random_skew(40, seed=15)
        b = np.array(rng.standard_normal(shape).astype(dtype), order=order)
        if dtype == np.complex128:
            b += 1j * rng.standard_normal(shape)
        fast = solve(x, b)
        monkeypatch.setattr(_blas, "trsm", lambda *args: False)
        monkeypatch.setattr(_blas, "gtsv", lambda *args: None)
        slow = solve(x, b)
        assert slow.dtype == fast.dtype and slow.shape == fast.shape == shape
        if dtype == np.float64 and shape == (40, 3):
            assert np.array_equal(slow, fast)
        else:
            assert np.allclose(slow, fast, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("complex_b", [False, True])
    def test_padded_leading_dimension(self, monkeypatch, complex_b):
        # at m=512 the float64 column stride is 4096 B, so _workbuf pads the
        # buffer: trsm gets L's block as a view whose leading dimension is
        # not its height, or a converted copy for complex b
        m = 512
        x = random_skew(m, seed=16)
        rng = np.random.Generator(np.random.Philox(17))
        b = rng.standard_normal((m, 4)) + (1j * rng.standard_normal((m, 4)) if complex_b else 0)
        seen = []

        def spy(a, z, trans):
            seen.append(a.strides[1] // a.itemsize)
            return trsm(a, z, trans)

        trsm = _blas.trsm
        monkeypatch.setattr(_blas, "trsm", spy)
        y = solve(x, b)
        want = np.linalg.solve(x.dense(), b)
        assert np.allclose(y, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
        # the padded buffer's leading dimension m + 8, or the copy's own
        assert seen == 2 * [m - 1 if complex_b else m + 8]

    def test_trsm_declines_row_major_a(self):
        # only a column-major A is taken; B is left as it was
        a = np.ascontiguousarray(np.tril(np.ones((5, 5))))
        b = np.asfortranarray(np.arange(10.0).reshape(5, 2))
        assert not _blas.trsm(a, b, False)
        assert np.array_equal(b, np.arange(10.0).reshape(5, 2))

    def test_zero_columns(self, monkeypatch):
        # ?gtsv writes B's first column even for nrhs = 0, so it never gets
        # an empty B; the singularity check still runs
        cols = []

        def spy(dl, d, du, b):
            cols.append(b.shape[1] if b.ndim == 2 else 1)
            return gtsv(dl, d, du, b)

        gtsv = _blas.gtsv
        monkeypatch.setattr(_blas, "gtsv", spy)
        y = solve(random_skew(64, seed=19), np.ones((64, 0)))
        assert y.shape == (64, 0) and cols == [1]
        with pytest.raises(SingularT, match="at row 4$"):
            _tridiag_solve(np.array([1.0, 2.0, 3.0, 0.0, 0.0]), np.ones((6, 0)))

    def test_threads(self):
        # four threads each solve their own input; ctypes releases the GIL
        m = 200
        xs = [random_skew(m, seed=20 + i) for i in range(4)]
        bs = [np.random.Generator(np.random.Philox(30 + i)).standard_normal((m, 3))
              for i in range(4)]
        serial = [solve(x, b) for x, b in zip(xs, bs)]
        got = [None] * 4

        def run(i):
            for _ in range(5):
                got[i] = solve(xs[i], bs[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for i in range(4):
            assert np.array_equal(got[i], serial[i])


@pytest.mark.parametrize("m", [0, 3])
@pytest.mark.parametrize("dtype", [np.int64, np.bool_])
@pytest.mark.parametrize("call", [lambda x: pfaffian(x),
                                  lambda x: solve(x, np.ones(x.m))],
                         ids=["pfaffian", "solve"])
def test_integer_and_bool_rejected_without_factorization(call, dtype, m):
    # sizes whose answer needs no factorization still check the dtype
    x = SkewMatrixLower(np.zeros((m, m), dtype=dtype))
    with pytest.raises(TypeError, match=rf"input dtype {np.dtype(dtype).name} "):
        call(x)


def gepp_tridiag(tau, rhs):
    """Reference for ``_tridiag_solve``: T y = rhs by Gaussian elimination
    with partial pivoting written out row by row, the order ``?gtsv`` uses
    (swap when |subdiagonal| > |diagonal|, one superdiagonal of fill)."""
    m = len(tau) + 1
    sub = np.array(tau, dtype=np.result_type(tau, rhs, np.float64))
    x = np.array(rhs, dtype=sub.dtype)
    d, e, f2 = (np.zeros(m, dtype=sub.dtype) for _ in range(3))
    e[:m - 1] = -sub
    for k in range(m - 1):
        if abs(sub[k]) > abs(d[k]):
            d[k], sub[k] = sub[k], d[k]
            e[k], d[k + 1] = d[k + 1], e[k]
            if k + 2 < m:
                f2[k], e[k + 1] = e[k + 1], f2[k]
            x[[k, k + 1]] = x[[k + 1, k]]
        mult = sub[k] / d[k]
        d[k + 1] -= mult * e[k]
        if k + 2 < m:
            e[k + 1] -= mult * f2[k]
        x[k + 1] -= mult * x[k]
    x[m - 1] /= d[m - 1]
    x[m - 2] = (x[m - 2] - e[m - 2] * x[m - 1]) / d[m - 2]
    for k in range(m - 3, -1, -1):
        x[k] = (x[k] - e[k] * x[k + 1] - f2[k] * x[k + 2]) / d[k]
    return x


class TestTridiagSolve:
    @pytest.mark.parametrize("m", [2, 4, 10, 300])
    @pytest.mark.parametrize("nrhs", [None, 3])
    def test_matches_reference_elimination(self, m, nrhs):
        # float64 is bitwise the elimination loop; complex pivots by
        # |re| + |im| in zgtsv, by the modulus here, so agree to rounding
        rng = np.random.Generator(np.random.Philox(m))
        tau = rng.standard_normal(m - 1) + rng.choice([-2.0, 2.0], m - 1)
        b = rng.standard_normal(m if nrhs is None else (m, nrhs))
        assert np.array_equal(_tridiag_solve(tau, b), gepp_tridiag(tau, b))
        ctau = tau + 1j * rng.standard_normal(m - 1)
        got, want = _tridiag_solve(ctau, b), gepp_tridiag(ctau, b)
        assert np.allclose(got, want, rtol=1e-10, atol=0)

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

    @pytest.mark.parametrize("side,raises", [("below", True), ("at", True), ("above", False)])
    def test_pivot_threshold(self, side, raises):
        # the row-2 pivot equals tau[2]; SingularT at or below 10 eps max|tau|
        thresh = 10 * np.finfo(float).eps * 2.0
        p = {"below": np.nextafter(thresh, 0), "at": thresh,
             "above": np.nextafter(thresh, 1)}[side]
        tau = np.array([1.0, 0.5, p, 1.0, 2.0])
        if raises:
            with pytest.raises(SingularT, match="at row 2$"):
                _tridiag_solve(tau, np.ones(6))
        else:
            assert np.all(np.isfinite(_tridiag_solve(tau, np.ones(6))))
