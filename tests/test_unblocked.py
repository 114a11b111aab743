"""Unblocked drivers: worked example, agreement, pivoting, breakdown,
panel restriction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewltl import (SkewMatrixLower, ZeroPivot, ltlt_unb_ll, ltlt_unb_panel,
                     ltlt_unb_rl, ltlt_unb_twostep, random_skew, reconstruct)
from skewltl import unblocked
from skewltl.instrument import CallTrace, tracing
from skewltl.oracle import exact_from_int, flop_model, gauss_elim_exact
from skewltl.unblocked import _workbuf

from helpers import random_int_skew, residual, worked_example

EPS = np.finfo(float).eps
DRIVERS = [ltlt_unb_rl, ltlt_unb_ll, ltlt_unb_twostep]


@pytest.mark.parametrize("driver", DRIVERS)
class TestWorkedExample:
    def test_factors(self, driver):
        r = driver(worked_example())
        assert np.allclose(r.t.tau, [2.0, 4.0, 10.5])
        ld = r.l.dense()
        assert np.allclose([ld[2, 1], ld[3, 1], ld[3, 2]], [0.5, 1.5, 0.25])
        assert not len(r.p.pivots)

    def test_exact(self, driver):
        x = exact_from_int([2, 1, 3, 4, 1, 5], 4)
        r = driver(x)
        assert r.t.tau.tolist() == [Fraction(2), Fraction(4), Fraction(21, 2)]


@pytest.mark.parametrize("driver", DRIVERS)
class TestTrivial:
    def test_m1(self, driver):
        r = driver(SkewMatrixLower.zeros(1))
        assert len(r.t.tau) == 0

    def test_m2(self, driver):
        x = SkewMatrixLower.zeros(2)
        x.data[1, 0] = -3.5
        r = driver(x)
        assert r.t.tau.tolist() == [-3.5]
        assert np.array_equal(r.l.dense(), np.eye(2))

    def test_zero_matrix(self, driver):
        r = driver(SkewMatrixLower.zeros(5))
        assert not r.t.tau.any()
        assert np.array_equal(r.l.dense(), np.eye(5))


class TestVariantAgreementExact:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10**6))
    def test_all_variants_match_oracle(self, m, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        x = random_int_skew(rng, m)
        try:
            lm, tau, _p = gauss_elim_exact(x)
        except ZeroPivot:
            return
        for driver in DRIVERS:
            r = driver(x)
            assert np.array_equal(r.t.tau, tau)
            assert np.array_equal(r.l.dense(), lm)

    def test_pivoted_oracle_agreement(self):
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(10):
            x = random_int_skew(rng, 6)
            lm, tau, p = gauss_elim_exact(x, pivot=True)
            r = ltlt_unb_ll(x, pivot=True)
            assert np.array_equal(r.p.pivots, p.pivots)
            assert np.array_equal(r.t.tau, tau)
            assert np.array_equal(r.l.dense(), lm)
            rec = reconstruct(r.l, r.t, r.p)
            assert np.array_equal(rec.dense(), x.dense())


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("pivot", [False, True])
@pytest.mark.parametrize("m", [10, 100])
def test_reconstruction_residual(driver, pivot, m, base_seed=4):
    x = random_skew(m, seed=base_seed)
    r = driver(x, pivot=pivot)
    assert residual(x, r) <= 50 * EPS * m


def test_pivot_boundedness():
    rng = np.random.Generator(np.random.Philox(5))
    for trial in range(25):
        m = int(rng.integers(3, 24))
        x = random_skew(m, seed=1000 + trial)
        # engineered near-breakdown: tiny pivot over large subcolumn
        x.data[1, 0] = 1e-14
        x.data[2:, 0] *= 1e3
        for driver in DRIVERS:
            r = driver(x, pivot=True)
            assert r.l.max_abs() <= 1.0 + 1e-15
            assert r.p.pivots[0] == 0


#: skew_rank2 calls of (unb-rl, unb-twostep) by m: one per elimination g
#: with g + 2 < m, one per pair (g, g + 1) with g + 3 < m; an empty
#: trailing block gets no call, and no block is ever rectangular
RANK2_CALLS = {1: (0, 0), 2: (0, 0), 3: (1, 0), 4: (2, 1), 7: (5, 2)}


@pytest.mark.parametrize("pivot", [False, True])
@pytest.mark.parametrize("m", list(RANK2_CALLS))
def test_rank2_call_sequence(m, pivot):
    x = random_skew(m, seed=m)
    for driver, calls in zip((ltlt_unb_rl, ltlt_unb_twostep), RANK2_CALLS[m]):
        tr = CallTrace()
        with tracing(tr):
            driver(x, pivot=pivot)
        assert tr.calls == [("skew_rank2", "trailing")] * calls, driver.__name__


class TestBreakdown:
    def test_zero_pivot_raises_with_column(self):
        x = SkewMatrixLower.zeros(3)
        x.data[2, 0] = 1.0  # chi_21 = 0 but x_31 != 0
        for driver in DRIVERS:
            with pytest.raises(ZeroPivot) as exc:
                driver(x)
            assert exc.value.column == 0

    def test_zero_column_degenerate_continues(self):
        x = SkewMatrixLower.zeros(3)
        x.data[2, 1] = 4.0  # column 0 entirely zero
        for driver in DRIVERS:
            r = driver(x)
            assert r.t.tau.tolist() == [0.0, 4.0]
            assert np.array_equal(r.l.dense(), np.eye(3))

    def test_pivoting_removes_breakdown(self):
        x = SkewMatrixLower.zeros(3)
        x.data[2, 0] = 1.0
        r = ltlt_unb_rl(x, pivot=True)
        assert residual(x, r) <= 50 * EPS * 3


class TestFirstColumn:
    def test_reconstruct_matches_original(self):
        m = 9
        x = random_skew(m, seed=6)
        rng = np.random.Generator(np.random.Philox(7))
        l21 = rng.standard_normal(m - 1) * 0.5
        r = ltlt_unb_ll(x, first_column=l21)
        assert np.array_equal(r.l.dense()[1:, 0], l21)
        assert residual(x, r) <= 100 * EPS * m

    def test_pivot_conflict(self):
        with pytest.raises(ValueError):
            ltlt_unb_ll(random_skew(4, seed=0), pivot=True, first_column=np.zeros(3))

    def test_bad_length(self):
        with pytest.raises(ValueError):
            ltlt_unb_ll(random_skew(4, seed=0), first_column=np.zeros(4))

    def test_length_checked_before_input(self):
        x = random_skew(40, seed=33)
        x.data[30, 2] = np.nan
        with pytest.raises(ValueError, match="first_column must have length m - 1"):
            ltlt_unb_ll(x, first_column=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_nonfinite_rejected_before_input(self, monkeypatch, dtype, bad):
        x, fc = _nonfinite_first_column(dtype, bad)
        monkeypatch.setattr(unblocked, "_workbuf", _input_read)
        with pytest.raises(ValueError, match="first_column must be finite"):
            ltlt_unb_ll(x, first_column=fc)

    def test_float32_input_keeps_its_dtype(self):
        m = 9
        x = SkewMatrixLower(random_skew(m, seed=6).data.astype(np.float32))
        fc = 0.5 * np.random.Generator(np.random.Philox(7)).standard_normal(m - 1)
        r = ltlt_unb_ll(x, first_column=fc)
        assert r.l.first_column.dtype == np.float32 and r.t.tau.dtype == np.float32
        assert np.array_equal(r.l.first_column, fc.astype(np.float32))
        assert residual(x, r) <= 100 * np.finfo(np.float32).eps * m

    def test_complex128(self):
        m = 9
        x = SkewMatrixLower(random_skew(m, seed=6).data + 1j * random_skew(m, seed=8).data)
        rng = np.random.Generator(np.random.Philox(7))
        fc = 0.5 * (rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1))
        r = ltlt_unb_ll(x, first_column=fc)
        assert r.l.first_column.dtype == np.complex128
        assert np.array_equal(r.l.dense()[1:, 0], fc)
        assert not np.shares_memory(r.l.first_column, fc)
        assert residual(x, r) <= 100 * EPS * m

    def test_fraction_exact(self):
        m = 8
        x = random_int_skew(np.random.Generator(np.random.Philox(15)), m)
        fc = np.array([Fraction(k - 3, 4) for k in range(m - 1)], dtype=object)
        r = ltlt_unb_ll(x, first_column=fc)
        assert r.l.first_column.dtype == object
        assert not np.shares_memory(r.l.first_column, fc)
        assert np.array_equal(reconstruct(r.l, r.t, r.p).dense(), x.dense())

    def test_object_input_float_first_column(self):
        # an object input converts nothing: the column keeps the dtype given
        x = random_int_skew(np.random.Generator(np.random.Philox(16)), 6)
        fc = np.full(5, 0.25)
        r = ltlt_unb_ll(x, first_column=fc)
        assert r.l.first_column.dtype == np.float64
        assert np.array_equal(r.l.first_column, fc)
        assert not np.shares_memory(r.l.first_column, fc)


def _nonfinite_first_column(dtype, bad, m=12):
    """A finite m x m input of ``dtype`` and a first column of that dtype
    whose entry 3 is ``bad`` (its imaginary part, for complex)."""
    x = SkewMatrixLower(random_skew(m, seed=14).data.astype(dtype))
    fc = np.full(m - 1, 0.5, dtype=dtype)
    fc[3] = complex(0.0, bad) if dtype == np.complex128 else bad
    return x, fc


def _input_read(x):
    raise AssertionError("the input was read before the arguments were checked")


class TestTwoStep:
    def test_odd_dimension_matches_rl(self):
        x = random_skew(7, seed=8)
        a = ltlt_unb_twostep(x)
        b = ltlt_unb_rl(x)
        assert np.allclose(a.t.tau, b.t.tau, atol=1e-12)

    def test_pivoted_reconstructs(self):
        x = random_skew(12, seed=9)
        r = ltlt_unb_twostep(x, pivot=True)
        assert r.l.max_abs() <= 1.0 + 1e-15
        assert residual(x, r) <= 50 * EPS * 12


class TestFlops:
    def test_rl_matches_model(self):
        m = 300
        x = random_skew(m, seed=10)
        f = ltlt_unb_rl(x).flops.total
        assert abs(f / flop_model("unb-rl", m) - 1.0) < 0.05

    def test_ll_matches_model(self):
        m = 300
        x = random_skew(m, seed=10)
        f = ltlt_unb_ll(x).flops.total
        assert abs(f / flop_model("unb-ll", m) - 1.0) < 0.05

    def test_twostep_halves_rl(self):
        m = 300
        x = random_skew(m, seed=10)
        frl = ltlt_unb_rl(x).flops.total
        f2s = ltlt_unb_twostep(x).flops.total
        assert abs(frl / f2s - 2.0) < 0.1


class TestPanel:
    def test_full_width_equals_driver(self):
        x = random_skew(10, seed=11)
        for pivot in (False, True):
            part = ltlt_unb_panel(x, 10, pivot=pivot)
            full = ltlt_unb_ll(x, pivot=pivot)
            assert np.array_equal(part.t.tau, full.t.tau)
            assert np.array_equal(part.l.dense(), full.l.dense())
            assert np.array_equal(part.p.pivots, full.p.pivots)

    def test_width_one(self):
        x = worked_example()
        part = ltlt_unb_panel(x, 1)
        assert part.t.tau[0] == 2.0
        assert not part.t.tau[1:].any()
        ld = part.l.dense()
        assert np.allclose(ld[2:, 1], [0.5, 1.5])
        assert np.array_equal(ld[:, 2], [0, 0, 1, 0])

    def test_pivoted_prefix_agreement(self):
        x = random_skew(12, seed=12)
        part = ltlt_unb_panel(x, 4, pivot=True)
        full = ltlt_unb_ll(x, pivot=True)
        assert np.array_equal(part.t.tau[:4], full.t.tau[:4])
        assert np.array_equal(part.p.pivots, full.p.pivots[:5])
        # the full run's later pivots row-swap the panel's L columns
        lpart = part.l.dense()[:, 1:5].copy()
        for k, off in enumerate(full.p.pivots[5:].tolist(), start=5):
            if off:
                lpart[[k, k + off]] = lpart[[k + off, k]]
        assert np.array_equal(lpart, full.l.dense()[:, 1:5])

    def test_pivot_requires_left_looking(self):
        # the pivoted panel updates each column from the left before
        # eliminating it: matrix-vector products, no rank-2 update
        tr = CallTrace()
        with tracing(tr):
            ltlt_unb_panel(random_skew(8, seed=0), 4, pivot=True)
        assert tr.calls == [("skew_tridiag_gemv", "panel")] * 2

    def test_unknown_variant(self):
        # every panel is left-looking: the keyword is gone, its old default too
        with pytest.raises(TypeError, match="variant"):
            ltlt_unb_panel(random_skew(4, seed=0), 2, variant="ll")
        # and its old third position cannot pass for pivot
        with pytest.raises(TypeError, match="positional"):
            ltlt_unb_panel(random_skew(4, seed=0), 2, "ll")

    @pytest.mark.parametrize("width", [-1, 0])
    @pytest.mark.parametrize("pivot", [False, True])
    def test_nonpositive_width_rejected(self, width, pivot):
        with pytest.raises(ValueError):
            ltlt_unb_panel(random_skew(6, seed=1), width, pivot=pivot)

    def test_first_column_conflict_checked_before_width(self):
        with pytest.raises(ValueError, match="first_column"):
            ltlt_unb_panel(random_skew(6, seed=1), -1, pivot=True,
                           first_column=np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_nonfinite_first_column_rejected_before_input(self, monkeypatch, dtype, bad):
        x, fc = _nonfinite_first_column(dtype, bad)
        monkeypatch.setattr(unblocked, "_workbuf", _input_read)
        with pytest.raises(ValueError, match="first_column must be finite"):
            ltlt_unb_panel(x, 5, first_column=fc)

    def test_updates_confined_to_panel(self):
        # columns at or beyond the panel edge keep their original values
        m, b = 10, 4
        x = random_skew(m, seed=13)
        for pivot in (False, True):
            r = ltlt_unb_panel(x, b, pivot=pivot)
            assert not r.t.tau[b:].any()
            assert np.array_equal(r.l.dense()[:, b + 1:], np.eye(m)[:, b + 1:])


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 16), st.integers(0, 10**6))
def test_property_reconstruction_small(m, seed):
    x = random_skew(m, seed=seed)
    r = ltlt_unb_ll(x, pivot=True)
    assert residual(x, r) <= 50 * EPS * m


class TestWorkLayout:
    def test_power_of_two_stride_padded(self):
        # 512 doubles is a 4 KiB column stride: padded by one cache line
        x = random_skew(512, seed=1)
        work, tau = _workbuf(x)
        assert work.shape == (512, 512) and tau.shape == (511,)
        assert np.array_equal(work, x.data)
        assert work.strides == (8, 520 * 8)
        assert work.strides[1] % 4096 != 0

    def test_other_stride_unchanged(self):
        x = random_skew(500, seed=1)
        work, _ = _workbuf(x)
        assert np.array_equal(work, x.data)
        assert work.strides == (8, 500 * 8)

    def test_factor_is_the_padded_view(self):
        r = ltlt_unb_ll(random_skew(512, seed=2))
        assert r.l.data.shape == (512, 512)
        assert r.l.data.strides == (8, 520 * 8)
