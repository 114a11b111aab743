"""Blocked drivers: block-size agreement, fused variants, pivoting, traces,
feature toggles, other dtypes, concurrent flop counting."""

import dataclasses
import errno
import mmap
import os
import re
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from skewltl import (LADDER, Features, PivotUnsupported, SkewMatrixLower, ZeroPivot,
                     ltlt_blk_left, ltlt_blk_piv, ltlt_blk_twostep,
                     ltlt_blk_var1, ltlt_blk_var2a, ltlt_blk_var2b,
                     ltlt_unb_ll, ltlt_unb_panel, ltlt_unb_rl, ltlt_unb_twostep,
                     pfaffian, random_skew, reconstruct, solve)
from skewltl import blocked, instrument, unblocked
from skewltl.blocked import DEFAULT_PIVOT_BLOCK, LADDER_VARIANT
from skewltl.cli import VARIANT_NAMES, run_variant
from skewltl.core import (InvalidVariant, SkewTridiagonal, UnitLowerFactor,
                          compose_permutation)
from skewltl.kernels3 import PANEL_NB
from skewltl.oracle import gauss_elim_exact

from helpers import random_int_skew, residual, worked_example

EPS = np.finfo(float).eps
BLOCKED = [ltlt_blk_var1, ltlt_blk_var2a, ltlt_blk_var2b, ltlt_blk_left,
           ltlt_blk_twostep]


class TestDegenerateBlocks:
    def test_b1_reproduces_unblocked_rl(self):
        x = random_int_skew(np.random.Generator(np.random.Philox(1)), 7)
        a = ltlt_blk_var1(x, b=1)
        b = ltlt_unb_rl(x)
        assert np.array_equal(a.t.tau, b.t.tau)
        assert np.array_equal(a.l.dense(), b.l.dense())

    def test_b_full_is_single_panel(self):
        x = random_int_skew(np.random.Generator(np.random.Philox(2)), 8)
        for blk, unb in ((ltlt_blk_var1, ltlt_unb_ll),
                         (ltlt_blk_var2a, ltlt_unb_ll),
                         (ltlt_blk_left, ltlt_unb_ll)):
            a = blk(x, b=8)
            b = unb(x)
            assert np.array_equal(a.t.tau, b.t.tau)
            assert np.array_equal(a.l.dense(), b.l.dense())

    def test_var2b_b2_matches_twostep_exactly(self):
        x = random_int_skew(np.random.Generator(np.random.Philox(3)), 8)
        a = ltlt_blk_var2b(x, b=2)
        b = ltlt_unb_twostep(x)
        assert np.array_equal(a.t.tau, b.t.tau)
        assert np.array_equal(a.l.dense(), b.l.dense())


class TestExactAgreement:
    def test_all_blocked_match_oracle(self):
        rng = np.random.Generator(np.random.Philox(4))
        done = 0
        while done < 12:
            m = int(rng.integers(3, 9))
            x = random_int_skew(rng, m)
            try:
                lm, tau, _p = gauss_elim_exact(x)
            except ZeroPivot:
                continue
            done += 1
            for blk in BLOCKED:
                for b in (1, 2, 3) if blk is not ltlt_blk_var2a else (2, 3):
                    r = blk(x, b=b)
                    assert np.array_equal(r.t.tau, tau), (blk.__name__, b)
                    assert np.array_equal(r.l.dense(), lm), (blk.__name__, b)

    def test_padded_object_buffer(self):
        # m = 512 object entries is a 4 KiB column stride, so the object
        # path runs on a padded buffer.  Rational elimination at this size
        # takes minutes, so X = L T L^T is built from integer L (entries in
        # {-1, 0, 1}) and tau = +-1: every quotient and update stays a small
        # integer, held exactly, and the unique factors are known.  The
        # pivot search sees |L| <= 1 below a unit entry, so it keeps every
        # ties-to-lowest pivot in place.
        lm, tau, x = _known_integer_factors(512, seed=9)
        for r in (ltlt_blk_var2b(x, b=64), ltlt_blk_piv(x, b=64, fused="var2b")):
            assert r.l.data.dtype == object and r.l.data.strides == (8, 520 * 8)
            assert np.array_equal(r.t.tau, tau)
            assert np.array_equal(r.l.dense(), lm)
            assert not r.p.nontrivial

    @pytest.mark.parametrize("b", [40, 96])
    def test_inner_block_boundaries(self, b):
        # unpivoted panels run in PANEL_NB-column inner blocks; with b = 40
        # and 96 the inner blocks straddle both the var2a carry column and
        # the var2b extra column.  Exact factors, built as above.
        m = 200
        lm, tau, x = _known_integer_factors(m, seed=12)
        for blk in BLOCKED:
            r = blk(x, b=b)
            assert np.array_equal(r.t.tau, tau), blk.__name__
            assert np.array_equal(r.l.dense(), lm), blk.__name__


def _known_integer_factors(m, seed):
    """L with entries in {-1, 0, 1}, tau = +-1 and X = L T L^T as exact
    (object dtype) integers."""
    rng = np.random.Generator(np.random.Philox(seed))
    lm = np.tril(rng.integers(-1, 2, size=(m, m)), -1) + np.eye(m, dtype=np.int64)
    lm[1:, 0] = 0
    tau = rng.choice([-1, 1], size=m - 1)
    dense = lm @ SkewTridiagonal(tau).dense() @ lm.T
    return lm, tau, SkewMatrixLower(np.tril(dense, -1).astype(object))


@pytest.mark.parametrize("b", [1, 2, 3, 8, 16, 64])
def test_block_size_agreement(b):
    # fixed well-behaved instance: the unpivoted path has no growth control,
    # so the bound is only meaningful away from near-breakdown draws
    m = 96
    x = random_skew(m, seed=40)
    ref = ltlt_unb_ll(x)
    bound = 50 * EPS * m
    for blk in BLOCKED:
        if blk is ltlt_blk_var2a and b == 1:
            continue  # b=1 2a panel has one delayed column each step; fine but slow
        r = blk(x, b=b)
        assert residual(x, r) <= bound, blk.__name__
        assert np.allclose(r.t.tau, ref.t.tau, atol=1e-9 * max(1, np.max(np.abs(ref.t.tau))))


class TestPivoted:
    @pytest.mark.parametrize("fused", ["var1", "var2a", "var2b"])
    def test_reconstruction_and_bound(self, fused):
        for m, b in ((30, 8), (64, 16), (200, 32)):
            x = random_skew(m, seed=21)
            # engineered near-singular leading block
            x.data[1, 0] = 1e-13
            r = ltlt_blk_piv(x, b=b, fused=fused)
            assert r.l.max_abs() <= 1.0 + 1e-15
            assert residual(x, r) <= 50 * EPS * m

    def test_trivial_pivots_match_unpivoted(self):
        # engineered X whose pivot subcolumns always peak at the top:
        # build from known L (entries < 1) and decreasing tau
        m = 12
        rng = np.random.Generator(np.random.Philox(22))
        lbuf = np.zeros((m, m), order="F")
        for j in range(1, m):
            lbuf[j, j - 1] = 1.0
            lbuf[j + 1:, j - 1] = rng.uniform(-0.05, 0.05, m - j - 1)
        l = UnitLowerFactor(lbuf)
        tau = 10.0 * np.power(0.5, np.arange(m - 1))
        x = reconstruct(l, SkewTridiagonal(tau))
        r = ltlt_blk_piv(x, b=4)
        assert not r.p.pivots.any()
        u = ltlt_blk_var1(x, b=4)
        assert np.allclose(r.t.tau, u.t.tau)
        assert np.allclose(r.l.dense(), u.l.dense())

    def test_worked_example_first_pivot(self):
        r = ltlt_blk_piv(worked_example(), b=2)
        assert r.p.pivots[0] == 0
        assert r.p.pivots[1] == 2  # |3| is the largest of (2, 1, 3)

    def test_duplicated_rows_near_singular(self):
        # exactly singular input: row/col 42 duplicates row/col 17
        m = 200
        d = random_skew(m, seed=23).dense()
        d[42, :] = d[17, :]
        d[:, 42] = d[:, 17]
        d[17, 42] = d[42, 17] = d[42, 42] = 0.0
        y = SkewMatrixLower.from_dense(d)
        assert np.array_equal(y.dense(), d)  # construction stayed skew
        r = ltlt_blk_piv(y, b=32, fused="var2b")
        assert residual(y, r) <= 50 * EPS * m
        assert r.l.max_abs() <= 1.0 + 1e-15


class TestLeftLooking:
    def test_pivot_unsupported(self):
        with pytest.raises(PivotUnsupported):
            ltlt_blk_left(random_skew(8, seed=0), b=2, pivot=True)

    def test_agreement_with_var1(self):
        m = 48
        x = random_skew(m, seed=24)
        a = ltlt_blk_left(x, b=6)
        b = ltlt_blk_var1(x, b=6)
        assert np.allclose(a.t.tau, b.t.tau)
        assert residual(x, a) <= 50 * EPS * m

    def test_trace_pulls_from_the_left_only(self):
        # one trapezoidal product per block with couplings to its left, and
        # no update of the trailing matrix
        m, b = 96, 16
        tr = instrument.CallTrace()
        with instrument.tracing(tr):
            ltlt_blk_left(random_skew(m, seed=27), b=b)
        assert tr.count("skew_tridiag_rankk") == 0
        assert tr.count("skew_rank2", "trailing") == 0
        starts = range(0, m - 1, b)
        assert tr.count("skew_tridiag_gemm", "trailing") == sum(r >= 2 for r in starts)


#: schedule row -> its PivotUnsupported message, for the rows with no pivoted form
REFUSED = {"twostep": "blk-2step has no pivoted path; use blk-var2a/blk-var2b",
           "left": "a blocked pivoted left-looking algorithm cannot exist"}


@pytest.mark.parametrize("scheme", list(blocked._SCHEDULES))
def test_every_schedule_pivots_or_refuses(scheme):
    # through the CLI dispatch, each row either pivots as ltlt_blk_piv with
    # its scheme, or refuses with its own message; ltlt_blk_piv itself takes
    # only the rows that pivot
    x = random_skew(20, seed=34)
    variant = blocked._SCHEDULES[scheme].name
    if scheme in REFUSED:
        with pytest.raises(PivotUnsupported, match=f"^{re.escape(REFUSED[scheme])}$"):
            run_variant(variant, x, block=4, pivot=True)
        with pytest.raises(InvalidVariant, match="fused must be one of"):
            ltlt_blk_piv(x, b=4, fused=scheme)
        return
    got = run_variant(variant, x, block=4, pivot=True)
    want = ltlt_blk_piv(x, b=4, fused=scheme)
    assert got.p.nontrivial
    assert np.array_equal(got.p.pivots, want.p.pivots)
    assert got.l.data.tobytes() == want.l.data.tobytes()
    assert np.array_equal(got.t.tau, want.t.tau)
    assert scheme in blocked.PIVOTED_FUSED


def test_left_looking_pivot_refused_before_block_check():
    with pytest.raises(PivotUnsupported, match="cannot exist"):
        ltlt_blk_left(random_skew(8, seed=0), b=1.5, pivot=True)


class TestTwoStepBlocked:
    def test_zero_tau_panel_noop_trailing(self):
        # X built so the first panel's taus are all zero: W = 0, trailing
        # untouched by the rank-2k
        m, b = 8, 4
        x = SkewMatrixLower.zeros(m)
        x.data[5:, 4] = [1.0, 2.0, 3.0]
        x.data[6:, 5] = [4.0, 5.0]
        x.data[7, 6] = 6.0
        before = x.data[4:, 4:].copy()
        tr = instrument.CallTrace()
        with instrument.tracing(tr):
            r = ltlt_blk_twostep(x, b=b)
        assert not r.t.tau[:b].any()
        assert residual(x, r) <= 50 * EPS * m

    def test_pivot_rejected_via_cli_dispatch(self):
        with pytest.raises(PivotUnsupported):
            run_variant("blk-2step", random_skew(6, seed=0), block=2, pivot=True)


class TestTrace:
    def test_var1_one_trailing_rank2_per_block_except_last(self):
        m, b = 64, 8
        x = random_skew(m, seed=25)
        tr = instrument.CallTrace()
        with instrument.tracing(tr):
            ltlt_blk_var1(x, b=b)
        iters = (m - 1 + b - 1) // b
        assert tr.count("skew_rank2", "trailing") == iters - 1

    @pytest.mark.parametrize("blk", [ltlt_blk_var2a, ltlt_blk_var2b, ltlt_blk_twostep])
    def test_fused_variants_no_trailing_rank2(self, blk):
        x = random_skew(64, seed=25)
        tr = instrument.CallTrace()
        with instrument.tracing(tr):
            blk(x, b=8)
        assert tr.count("skew_rank2", "trailing") == 0

    def test_panel_gemm_only_in_unpivoted_external_t_panels(self):
        # one sandwiched product per inner block after the first; pivoted
        # panels, split-update panels and the unblocked reference stay
        # column by column
        m = 2 * PANEL_NB + 40
        x = random_skew(m, seed=25)
        runs = {"var2b": lambda: ltlt_blk_var2b(x, b=m),
                "piv-var2b": lambda: ltlt_blk_piv(x, b=m, fused="var2b"),
                "split-var1": lambda: ltlt_blk_var1(
                    x, b=m, features=Features(external_t=False)),
                "unb-ll": lambda: ltlt_unb_ll(x)}
        counts = {}
        for name, run in runs.items():
            tr = instrument.CallTrace()
            with instrument.tracing(tr):
                run()
            counts[name] = (tr.count("skew_tridiag_gemm", "panel"),
                            tr.count("skew_tridiag_gemm"))
        # b = m: a single panel of m - 1 columns and no trailing update
        gemms = (m - 1) // PANEL_NB
        assert counts == {"var2b": (gemms, gemms), "piv-var2b": (0, 0),
                          "split-var1": (0, 0), "unb-ll": (0, 0)}


def _recorder(monkeypatch, module, name):
    """Count the calls made through ``module.name``."""
    calls = []
    orig = getattr(module, name)

    def record(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


class TestPatchPoints:
    """The benchmark's tracer wraps these module globals of ``blocked``; the
    drivers must reach them through the module at call time."""

    @pytest.mark.parametrize("kernel,run", [
        ("skew_tridiag_rankk", lambda x: ltlt_blk_var2b(x, b=8)),
        ("apply_row_pivots", lambda x: ltlt_blk_piv(x, b=8, fused="var2b")),
        ("skew_rank2", lambda x: ltlt_blk_var1(x, b=8)),
    ])
    def test_kernel_reached_through_module(self, monkeypatch, kernel, run):
        calls = _recorder(monkeypatch, blocked, kernel)
        run(random_skew(40, seed=5))
        assert calls

    @pytest.mark.parametrize("run", [
        lambda x: ltlt_blk_var2b(x, b=8),
        lambda x: ltlt_blk_piv(x, b=8, fused="var2b"),
        lambda x: ltlt_blk_var1(x, b=8, features=Features(external_t=False)),
        ltlt_unb_ll,
    ], ids=["var2b", "piv-var2b", "var1-split", "unb-ll"])
    def test_gemv_gets_only_its_rows(self, monkeypatch, run):
        # every matrix-vector product is handed exactly the rows it updates
        shapes = []
        for module in (unblocked, blocked):
            orig = module.skew_tridiag_gemv

            def record(y, alpha, a, *args, orig=orig, **kwargs):
                shapes.append((a.shape[0], len(y)))
                return orig(y, alpha, a, *args, **kwargs)

            monkeypatch.setattr(module, "skew_tridiag_gemv", record)
        run(random_skew(40, seed=5))
        assert shapes and all(rows == n for rows, n in shapes)

    @pytest.mark.parametrize("driver", BLOCKED + [ltlt_blk_piv],
                             ids=lambda fn: fn.__name__)
    def test_drivers_do_not_call_each_other(self, monkeypatch, driver):
        # traced driver spans must never nest
        def refuse(*args, **kwargs):
            raise AssertionError("a public driver called another")

        for other in BLOCKED + [ltlt_blk_piv]:
            if other is not driver:
                monkeypatch.setattr(blocked, other.__name__, refuse)
        r = driver(random_skew(20, seed=6), b=8)
        assert r.t.tau.shape == (19,)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("variant,pivot", [
        (v, p) for v in VARIANT_NAMES for p in (False, True)
        if not (p and v in ("blk-left", "blk-2step"))])
    def test_rejected(self, variant, pivot, bad):
        x = random_skew(40, seed=30)
        x.data[23, 11] = bad
        with pytest.raises(ValueError, match=r"\(23, 11\)"):
            run_variant(variant, x, block=8, pivot=pivot)

    def test_upper_triangle_not_checked(self):
        x = random_skew(40, seed=30)
        x.data[11, 23] = np.nan
        r = ltlt_blk_piv(x, b=8)
        assert np.all(np.isfinite(r.t.tau))

    @pytest.mark.parametrize("pivot", [False, True])
    def test_rejected_past_first_block(self, pivot):
        # (550, 300) lies in the second NB block column and block row
        x = random_skew(600, seed=30)
        x.data[550, 300] = np.nan
        x.data[599, 598] = np.inf
        with pytest.raises(ValueError, match=r"\(550, 300\)"):
            run_variant("blk-var2b", x, block=64, pivot=pivot)


class TestInputPass:
    """Every argument is checked before the input is read, and the one
    pass over the input copies its strictly-lower part only."""

    @pytest.mark.parametrize("blk", BLOCKED)
    def test_unknown_panel_variant_at_m1(self, blk):
        # every panel is left-looking: the keyword is gone, its old default too
        with pytest.raises(TypeError, match="panel_variant"):
            blk(random_skew(1), panel_variant="ll")

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_])
    @pytest.mark.parametrize("run", [
        lambda x: ltlt_blk_var2b(x, b=2),
        lambda x: ltlt_blk_piv(x, b=2),
        ltlt_unb_ll,
        pfaffian,
        lambda x: solve(x, np.ones(x.m)),
        lambda x: ltlt_unb_ll(x, first_column=np.full(3, np.nan)),
    ], ids=["var2b", "piv", "unb_ll", "pfaffian", "solve", "unb_ll_nan_first_column"])
    def test_integer_and_bool_rejected(self, run, dtype):
        x = SkewMatrixLower(np.tril(np.ones((4, 4)), -1).astype(dtype, order="F"))
        name = np.dtype(dtype).name
        with pytest.raises(TypeError, match=rf"input dtype {name} is not supported"):
            run(x)

    @pytest.mark.parametrize("b", [16.0, np.float64(8.0), True],
                             ids=["float", "float64", "bool"])
    @pytest.mark.parametrize("run", [
        lambda x, b: ltlt_blk_var2b(x, b=b),
        lambda x, b: ltlt_blk_piv(x, b=b),
        lambda x, b: pfaffian(x, b=b),
        lambda x, b: solve(x, np.ones(x.m), block=b),
    ], ids=["var2b", "piv", "pfaffian", "solve"])
    def test_non_integral_block_before_nonfinite(self, run, b):
        # the NaN's ValueError would come from the input pass
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            run(_nan_at_30_2(), b)

    def test_non_integral_panel_width_before_nonfinite(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            ltlt_unb_panel(_nan_at_30_2(), 2.5)

    @pytest.mark.parametrize("run", [
        lambda x: ltlt_unb_panel(x, True),
        lambda x: ltlt_blk_left(x, True),
    ], ids=["unb_panel", "left"])
    def test_positional_bool_rejected_before_nonfinite(self, run):
        # operator.index takes True as 1: a positional True, meant as
        # pivot=True, must not pass as a panel width or block size of 1
        with pytest.raises(TypeError, match="a bool cannot be interpreted as an integer"):
            run(_nan_at_30_2())

    @pytest.mark.parametrize("m,b", [(5, 8.0), (4, 2.5), (5, True), (4, True)])
    def test_non_integral_block_at_any_m(self, m, b):
        # odd m needs no factorization; at m = 4 one block of 2.5 covers it
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            pfaffian(random_skew(m), b=b)

    @pytest.mark.parametrize("fused", ["left", "twostep"])
    def test_pivoted_fused_scheme_rejected(self, fused):
        with pytest.raises(InvalidVariant, match="fused must be one of"):
            ltlt_blk_piv(random_skew(8, seed=1), b=4, fused=fused)

    @pytest.mark.parametrize("driver", BLOCKED + [
        ltlt_blk_piv, ltlt_unb_rl, ltlt_unb_ll, ltlt_unb_twostep, ltlt_unb_panel,
    ], ids=lambda d: d.__name__)
    def test_empty_input_rejected(self, driver):
        width = (1,) if driver is ltlt_unb_panel else ()
        with pytest.raises(ValueError, match="m >= 1 required"):
            driver(SkewMatrixLower.zeros(0), *width)

    @pytest.mark.parametrize("factor", [
        lambda x: ltlt_blk_var2b(x, b=64),
        lambda x: ltlt_blk_piv(x, b=64, fused="var2b"),
        lambda x: _all_mapped(ltlt_blk_var2b, x, b=64),
    ], ids=["var2b", "piv", "var2b-mapped"])
    def test_layout_and_upper_triangle_ignored(self, factor):
        # 600 > NB: the copy runs over more than one block column
        x = random_skew(600, seed=32)
        c_order = SkewMatrixLower(np.ascontiguousarray(x.data))
        nan_upper = x.copy()
        nan_upper.data[np.triu_indices(600)] = np.nan
        ref = factor(x)
        assert not np.triu(ref.l.data).any()
        for y in (c_order, nan_upper):
            r = factor(y)
            assert np.array_equal(r.t.tau, ref.t.tau)
            assert np.array_equal(r.p.pivots, ref.p.pivots)
            assert r.l.data.tobytes() == ref.l.data.tobytes()


def _nan_at_30_2():
    """An m = 40 input with one NaN, at (30, 2).  The input pass raises
    ValueError on it, so any other error was raised before that pass."""
    x = random_skew(40, seed=33)
    x.data[30, 2] = np.nan
    return x


_MMAP = mmap.mmap   # the class, even where a test has replaced mmap.mmap


def _mapping(a):
    """The ``mmap`` under array ``a``, or None."""
    while a is not None and not isinstance(a, _MMAP):
        a = getattr(a, "base", None)
    return a


def _all_mapped(driver, x, **kw):
    """``driver(x, **kw)`` with every numeric work buffer mapped."""
    with mock.patch.object(unblocked, "_MAP_MIN_BYTES", 0):
        return driver(x, **kw)


class TestFeatures:
    def test_split_updates_agree(self):
        m = 40
        x = random_skew(m, seed=27)
        ref = ltlt_blk_var1(x, b=8)
        for feats in (Features(external_t=False),
                      Features(external_t=False, fused_l3=False),
                      Features(fused_l2=False, external_t=False, fused_l3=False)):
            r = ltlt_blk_var1(x, b=8, features=feats)
            assert np.allclose(r.t.tau, ref.t.tau, atol=1e-11)
            assert residual(x, r) <= 50 * EPS * m

    def test_split_updates_exact(self):
        x = random_int_skew(np.random.Generator(np.random.Philox(28)), 8)
        lm, tau, _p = gauss_elim_exact(x)
        r = ltlt_blk_var1(x, b=3, features=Features(external_t=False, fused_l3=False))
        assert np.array_equal(r.t.tau, tau)
        assert np.array_equal(r.l.dense(), lm)

    def test_fused_variants_require_external_t(self):
        x = random_skew(8, seed=0)
        for blk in (ltlt_blk_var2a, ltlt_blk_var2b, ltlt_blk_left, ltlt_blk_twostep):
            with pytest.raises(InvalidVariant):
                blk(x, b=2, features=Features(external_t=False))

    @pytest.mark.parametrize("run,who", [
        (lambda x, f: ltlt_blk_var2a(x, b=2, features=f), "blk-var2a"),
        (lambda x, f: ltlt_blk_var2b(x, b=2, features=f), "blk-var2b"),
        (lambda x, f: ltlt_blk_left(x, b=2, features=f), "blk-left"),
        (lambda x, f: ltlt_blk_twostep(x, b=2, features=f), "blk-2step"),
        (lambda x, f: ltlt_blk_piv(x, b=2, fused="var2b", features=f), "pivoted blk-var2b"),
    ], ids=["var2a", "var2b", "left", "twostep", "piv-var2b"])
    def test_require_external_t_message(self, run, who):
        # only Variant 1 has the split trailing update that external_t=False selects
        want = f"^{who} has no split trailing update: it needs Features\\(external_t=True\\)$"
        with pytest.raises(InvalidVariant, match=want):
            run(random_skew(8, seed=0), Features(external_t=False))

    def test_frozen(self):
        # LADDER's instances are shared by every run, bench --opt-ladder included
        with pytest.raises(dataclasses.FrozenInstanceError):
            LADDER["step4"].fused_l3 = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            Features().external_t = False

    def test_pivoted_split_mode(self):
        m = 32
        x = random_skew(m, seed=29)
        r = ltlt_blk_piv(x, b=8, features=Features(external_t=False, fused_l3=False))
        assert residual(x, r) <= 50 * EPS * m

    def test_bad_block(self):
        with pytest.raises(ValueError):
            ltlt_blk_var1(random_skew(4, seed=0), b=0)

    def test_zero_pivot_propagates(self):
        x = SkewMatrixLower.zeros(5)
        x.data[2, 0] = 1.0
        with pytest.raises(ZeroPivot):
            ltlt_blk_var1(x, b=2)


def _layout_runs():
    """{id: run} for every public driver, pivoted and unpivoted where it has
    both, and every ``LADDER`` step both ways."""
    b = PANEL_NB + 8   # two panels; the first is eliminated in inner blocks
    runs = {d.__name__ + "-piv" * p: lambda x, d=d, p=p: d(x, pivot=p)
            for d in (ltlt_unb_rl, ltlt_unb_ll, ltlt_unb_twostep) for p in (False, True)}
    runs |= {d.__name__: lambda x, d=d: d(x, b=b) for d in BLOCKED}
    runs |= {f"ltlt_blk_piv-{fu}": lambda x, fu=fu: ltlt_blk_piv(x, b=b, fused=fu)
             for fu in blocked.PIVOTED_FUSED}
    by_name = {"blk-var1": ltlt_blk_var1, "blk-var2b": ltlt_blk_var2b}
    for step, f in LADDER.items():
        name = LADDER_VARIANT[step]
        runs[step] = lambda x, d=by_name[name], f=f: d(x, b=b, features=f)
        runs[step + "-piv"] = lambda x, fu=name[len("blk-"):], f=f: ltlt_blk_piv(
            x, b=b, fused=fu, features=f)
    return runs


_LAYOUT_RUNS = _layout_runs()
_PANEL_WIDTH = PANEL_NB + 5


def _layout_input(dtype):
    m = 2 * PANEL_NB + 9
    if dtype is Fraction:
        return random_int_skew(np.random.Generator(np.random.Philox(47)), m)
    return random_skew(m, seed=47)


@pytest.mark.parametrize("dtype", [np.float64, Fraction], ids=["float64", "Fraction"])
@pytest.mark.parametrize("name", list(_LAYOUT_RUNS))
def test_unit_subdiagonal_stored(name, dtype):
    # every elimination stores L's unit entry in the subdiagonal slot and
    # moves tau to its own vector: the panels' inner-block products and the
    # fused trailing updates read those slots as L
    r = _LAYOUT_RUNS[name](_layout_input(dtype))
    assert all(v == 1 for v in np.diagonal(r.l.data, -1))


@pytest.mark.parametrize("dtype", [np.float64, Fraction], ids=["float64", "Fraction"])
@pytest.mark.parametrize("pivot", [False, True], ids=["ll-False", "ll-True"])
def test_unit_subdiagonal_stored_in_panel(pivot, dtype):
    r = ltlt_unb_panel(_layout_input(dtype), _PANEL_WIDTH, pivot=pivot)
    sub = np.diagonal(r.l.data, -1)
    assert all(v == 1 for v in sub[:_PANEL_WIDTH])
    assert not any(sub[_PANEL_WIDTH:])   # columns not factored stay zero


@pytest.mark.slow
def test_level3_dominates_nonpanel_flops():
    # the blocked drivers cast (nearly) all work outside the panel
    # factorization as level-3; the panel's matrix-vector share is its own
    # counter class and structurally scales as 3b/2m (~19% here), so the
    # 90% claim is measured over the non-panel classes
    m, b = 2048, 256
    x = random_skew(m, seed=30)
    fc = ltlt_blk_var1(x, b=b).flops
    share = fc.level3 / (fc.level2 + fc.level3 + fc.pivot)
    assert share >= 0.90


def _dtype_instance(dtype, m):
    data = random_skew(m, seed=11).data
    if np.dtype(dtype).kind == "c":
        data = data + 1j * random_skew(m, seed=12).data
    return SkewMatrixLower(data.astype(dtype))


@pytest.mark.parametrize("dtype,m,padded", [
    (np.float32, 1024, True), (np.float32, 300, False),
    (np.complex128, 256, True), (np.complex128, 100, False),
])
@pytest.mark.parametrize("pivot", [False, True])
def test_other_dtypes(dtype, m, padded, pivot):
    """var2b and pivoted var2b in float32 and complex128, on padded and
    unpadded buffers; errors are measured in double precision."""
    x = _dtype_instance(dtype, m)
    r = ltlt_blk_piv(x, b=64, fused="var2b") if pivot else ltlt_blk_var2b(x, b=64)
    itemsize = np.dtype(dtype).itemsize
    assert r.t.tau.dtype == dtype and r.l.data.dtype == dtype
    assert (r.l.data.strides[1] != m * itemsize) == padded
    ld = r.l.dense().astype(complex)
    td = r.t.dense().astype(complex)
    xd = x.dense().astype(complex)
    if pivot:
        perm = compose_permutation(r.p)
        xd = xd[np.ix_(perm, perm)]
    err = np.linalg.norm(ld @ td @ ld.T - xd)
    eps = np.finfo(dtype).eps
    if pivot:
        assert r.l.max_abs() <= 1.0 + 4 * eps
        assert err <= m * eps * np.linalg.norm(xd)
    else:
        # no growth control: bound by the componentwise |L||T||L^T| term
        growth = np.linalg.norm(abs(ld) @ abs(td) @ abs(ld).T)
        assert err <= m * eps * growth


def test_concurrent_flop_counts():
    """Drivers on concurrent threads each count exactly their own flops."""
    jobs = [lambda: ltlt_blk_var2b(random_skew(300, seed=1), b=64),
            lambda: ltlt_blk_piv(random_skew(300, seed=2), b=64, fused="var1")] * 2
    serial = [job().flops for job in jobs]
    got = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def run(i):
        start.wait()
        got[i] = jobs[i]().flops

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial


def test_bitwise_reproducible():
    # fixed seed, single worker: identical bits run to run
    x = random_skew(64, seed=31)
    r1 = ltlt_blk_var2b(x, b=16)
    r2 = ltlt_blk_var2b(x, b=16)
    assert np.array_equal(r1.t.tau, r2.t.tau)
    assert np.array_equal(r1.l.dense(), r2.l.dense())


# Every driver that owns a work buffer, as run(x, b).
_BUFFER_OWNERS = {
    "blk-var1": lambda x, b: ltlt_blk_var1(x, b=b),
    "blk-var2a": lambda x, b: ltlt_blk_var2a(x, b=b),
    "blk-var2b": lambda x, b: ltlt_blk_var2b(x, b=b),
    "blk-left": lambda x, b: ltlt_blk_left(x, b=b),
    "blk-twostep": lambda x, b: ltlt_blk_twostep(x, b=b),
    "piv-var1": lambda x, b: ltlt_blk_piv(x, b=b, fused="var1"),
    "piv-var2a": lambda x, b: ltlt_blk_piv(x, b=b, fused="var2a"),
    "piv-var2b": lambda x, b: ltlt_blk_piv(x, b=b, fused="var2b"),
    "unb-rl": lambda x, b: ltlt_unb_rl(x),
    "unb-ll": lambda x, b: ltlt_unb_ll(x, pivot=True),
    "unb-twostep": lambda x, b: ltlt_unb_twostep(x),
    "unb-panel": lambda x, b: ltlt_unb_panel(x, b, pivot=True),
}


def _outcome(run, x, b):
    """Whether L's buffer was mapped, and everything a run returns or records."""
    tr = instrument.CallTrace()
    with instrument.tracing(tr):
        r = run(x, b)
    return _mapping(r.l.data) is not None, (
        r.l.data.tobytes(), r.t.tau.tobytes(), r.p.pivots.tobytes(), r.flops, tr.calls)


def _smaps_entry(addr):
    """(Size, Rss) in kB of the mapping in /proc/self/smaps that holds addr."""
    fields, inside = {}, False
    with open("/proc/self/smaps") as f:
        for line in f:
            head = re.match(r"([0-9a-f]+)-([0-9a-f]+) ", line)
            if head:
                if inside:
                    break
                inside = int(head[1], 16) <= addr < int(head[2], 16)
            elif inside:
                key, _, rest = line.partition(":")
                fields[key] = rest.split()
    return int(fields["Size"][0]), int(fields["Rss"][0])


def _status_kb(key):
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


@pytest.mark.skipif(not hasattr(mmap, "MADV_NOHUGEPAGE"),
                    reason="without MADV_NOHUGEPAGE no work buffer is mapped")
class TestMappedWorkBuffer:
    """Large numeric work buffers are private anonymous mappings on 4 KiB
    pages (``unblocked._zeroed``); results are the same bits either way."""

    @pytest.mark.parametrize("m", [5, 40, 600])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128])
    @pytest.mark.parametrize("name", list(_BUFFER_OWNERS))
    def test_parity(self, monkeypatch, name, dtype, m):
        run = _BUFFER_OWNERS[name]
        x = _dtype_instance(dtype, m)
        b = max(2, m // 8)
        mapped, ref = _outcome(run, x, b)
        assert not mapped
        monkeypatch.setattr(unblocked, "_MAP_MIN_BYTES", 0)
        assert _outcome(run, x, b) == (True, ref)

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                        reason="needs /proc/self/smaps")
    def test_upper_triangle_not_resident(self):
        # 2100^2 doubles are 33.6 MiB, above the mapping threshold; the panel
        # driver clears its unfactored columns, below the diagonal only
        x = random_skew(2100, seed=41)
        shmem = _status_kb("RssShmem")
        for run in (ltlt_blk_var2b, lambda x: ltlt_unb_panel(x, 32),
                    lambda x: ltlt_blk_piv(x, DEFAULT_PIVOT_BLOCK, fused="var2b")):
            r = run(x)
            assert _mapping(r.l.data) is not None
            size, rss = _smaps_entry(r.l.data.ctypes.data)
            assert size >= r.l.data.nbytes // 1024
            assert rss <= 0.8 * size
            # read after Rss: a read maps untouched pages to the zero page
            assert not np.triu(r.l.data).any()
            del r
        # a shared mapping would be shmem: about 24 MiB of it here
        assert _status_kb("RssShmem") - shmem < 1024

    def test_mmap_failure_falls_back(self, monkeypatch):
        run, x, tried = _BUFFER_OWNERS["piv-var2b"], random_skew(600, seed=42), []
        ref = _outcome(run, x, 64)

        def no_memory(*args, **kwargs):
            tried.append(args)
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(unblocked, "_MAP_MIN_BYTES", 0)
        monkeypatch.setattr(mmap, "mmap", no_memory)
        assert _outcome(run, x, 64) == ref
        assert tried

    def test_without_nohugepage_not_mapped(self, monkeypatch):
        monkeypatch.setattr(unblocked, "_MAP_MIN_BYTES", 0)
        monkeypatch.delattr(mmap, "MADV_NOHUGEPAGE", raising=False)
        assert _mapping(ltlt_blk_var2b(random_skew(40, seed=43), b=8).l.data) is None

    def test_object_dtype_never_mapped(self):
        x = random_int_skew(np.random.Generator(np.random.Philox(44)), 7)
        assert isinstance(x.data[1, 0], Fraction)
        ref = ltlt_blk_var2b(x, b=3)
        r = _all_mapped(ltlt_blk_var2b, x, b=3)
        assert _mapping(r.l.data) is None
        assert np.array_equal(r.l.data, ref.l.data)
        assert np.array_equal(r.t.tau, ref.t.tau)

    def test_two_threads(self):
        jobs = [lambda: ltlt_blk_var2b(random_skew(2100, seed=45)),
                lambda: ltlt_blk_piv(random_skew(2100, seed=46), fused="var2b")]
        serial = [job() for job in jobs]
        got = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def run(i):
            start.wait()
            got[i] = jobs[i]()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        for r, ref in zip(got, serial):
            assert _mapping(r.l.data) is not None
            assert r.l.data.tobytes() == ref.l.data.tobytes()
            assert r.t.tau.tobytes() == ref.t.tau.tobytes()
            assert r.p.pivots.tobytes() == ref.p.pivots.tobytes()


class TestFullTileSweep:
    """Inside the block loop the sweep writes whole block columns, diagonal
    tiles included (``kernels3._upper_scratch``); no public kernel call
    outside that loop may do so."""

    @staticmethod
    def _public_calls_keep_upper():
        # a public rankk and a tril gemm: every entry on or above the
        # diagonal must keep its bits
        from skewltl.kernels3 import skew_tridiag_gemm, skew_tridiag_rankk
        rng = np.random.Generator(np.random.Philox(61))
        n, k = 40, 6
        a, bt = rng.standard_normal((n, k)), rng.standard_normal((k, n))
        t = SkewTridiagonal(rng.standard_normal(k - 1))
        upper = ~np.tri(n, k=-1, dtype=bool)
        for call in (lambda c: skew_tridiag_rankk(c, -1.0, a, t, 1),
                     lambda c: skew_tridiag_gemm(c, -1.0, a, t, bt, 1, tril=True)):
            c0 = np.asfortranarray(rng.standard_normal((n, n)))
            c = c0.copy(order="F")
            call(c)
            if not np.array_equal(c[upper], c0[upper]) or np.array_equal(c, c0):
                return False
        return True

    def test_scope_zeroes_band_on_exit(self):
        # the scope alone zeroes what the full-tile sweep wrote on and above
        # the diagonal; on an exception it only resets the switch
        from skewltl import kernels3
        from skewltl.kernels3 import _upper_scratch, skew_tridiag_rankk
        rng = np.random.Generator(np.random.Philox(64))
        n, k = 40, 6
        a, t = rng.standard_normal((n, k)), SkewTridiagonal(rng.standard_normal(k - 1))
        upper = ~np.tri(n, k=-1, dtype=bool)
        ref = np.zeros((n, n), order="F")
        skew_tridiag_rankk(ref, -1.0, a, t, 1)
        work = np.zeros((n, n), order="F")
        with _upper_scratch(work):
            skew_tridiag_rankk(work, -1.0, a, t, 1)
            assert work[upper].any()
        assert not work[upper].any()
        assert np.allclose(work, ref, rtol=1e-14, atol=1e-14)
        with pytest.raises(KeyError), _upper_scratch(work):
            skew_tridiag_rankk(work, -1.0, a, t, 1)
            raise KeyError("stop")
        assert not kernels3._full_tile.get()
        assert work[upper].any()

    def test_after_driver_raised(self):
        # a zero pivot in column 12, in var2b's second panel (b = 8): the
        # first panel's trailing update already ran inside the loop
        rng = np.random.Generator(np.random.Philox(62))
        x = SkewMatrixLower.zeros(24)
        x.data[:12, :12] = np.tril(rng.standard_normal((12, 12)), -1)
        x.data[12:, 12:] = np.tril(rng.standard_normal((12, 12)), -1)
        x.data[13, 12] = 0.0
        trace = instrument.CallTrace()
        with instrument.tracing(trace), pytest.raises(ZeroPivot) as err:
            ltlt_blk_var2b(x, b=8)
        assert err.value.column == 12
        assert trace.count("skew_tridiag_rankk") >= 1
        assert self._public_calls_keep_upper()

    def test_other_thread_while_driver_runs(self, monkeypatch):
        # the public calls run in a second thread while the driver waits
        # inside its first trailing update, with the switch set
        from skewltl import kernels3
        inner, seen = blocked.skew_tridiag_rankk, []

        def rankk(*args, **kwargs):
            if not seen:
                seen.append(kernels3._full_tile.get())
                worker = threading.Thread(
                    target=lambda: seen.append(self._public_calls_keep_upper()))
                worker.start()
                worker.join(timeout=60)
                seen.append(worker.is_alive())
            return inner(*args, **kwargs)

        monkeypatch.setattr(blocked, "skew_tridiag_rankk", rankk)
        r = ltlt_blk_var2b(random_skew(300, seed=63), b=32)
        assert seen == [True, True, False]
        assert not np.triu(r.l.data).any()
