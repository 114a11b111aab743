"""Command-line harness: factorization, verification, and benchmarking.

Batch, non-interactive.  ``factor`` runs one factorization and reports the
reconstruction residual, ``verify`` runs the invariant suite, and ``bench``
sweeps variants/sizes/blocks and emits CSV rows
``variant,m,block,threads,pivot,seconds,gflops,flops_l2,flops_l3``.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import tempfile
import time

import numpy as np

from . import _blas, kernels3
from .apps import pfaffian, solve
from .blocked import (DEFAULT_BLOCK, DEFAULT_PIVOT_BLOCK, LADDER, LADDER_VARIANT,
                      ltlt_blk_left, ltlt_blk_piv, ltlt_blk_twostep,
                      ltlt_blk_var1, ltlt_blk_var2a, ltlt_blk_var2b)
from .core import (InvalidVariant, PivotUnsupported, SkewMatrixLower,
                   ZeroPivot, random_skew, reconstruct)
from .mmio import _write_coordinate, mm_read, mm_write
from .unblocked import (ltlt_unb_ll, ltlt_unb_rl, ltlt_unb_twostep)

WORKED_EXAMPLE = (2.0, 1.0, 3.0, 4.0, 1.0, 5.0)


def worked_example_matrix():
    x = SkewMatrixLower.zeros(4)
    (x.data[1, 0], x.data[2, 0], x.data[3, 0],
     x.data[2, 1], x.data[3, 1], x.data[3, 2]) = WORKED_EXAMPLE
    return x


def _unblocked(driver):
    return lambda x, b, pivot, f: driver(x, pivot=pivot)


def _pivotable(driver, fused):
    """``driver`` unpivoted, ``ltlt_blk_piv`` with scheme ``fused`` pivoted.
    ``ltlt_blk_piv`` is looked up here when called, so a wrapper installed
    on ``cli.ltlt_blk_piv`` sees the call."""
    return lambda x, b, pivot, f: (ltlt_blk_piv(x, b=b, fused=fused, features=f)
                                   if pivot else driver(x, b=b, features=f))


def _blk_2step(x, b, pivot, f):
    if pivot:
        raise PivotUnsupported("blk-2step has no pivoted path; use blk-var2a/blk-var2b")
    return ltlt_blk_twostep(x, b=b, features=f)


#: CLI variant name -> f(x, block, pivot, features)
_DRIVERS = {
    "unb-rl": _unblocked(ltlt_unb_rl),
    "unb-ll": _unblocked(ltlt_unb_ll),
    "unb-2step": _unblocked(ltlt_unb_twostep),
    "blk-var1": _pivotable(ltlt_blk_var1, "var1"),
    "blk-var2a": _pivotable(ltlt_blk_var2a, "var2a"),
    "blk-var2b": _pivotable(ltlt_blk_var2b, "var2b"),
    "blk-left": lambda x, b, pivot, f: ltlt_blk_left(x, b=b, pivot=pivot, features=f),
    "blk-2step": _blk_2step,
}
VARIANT_NAMES = tuple(_DRIVERS)


def _default_block(pivot):
    """The block the drivers take when none is given: ``ltlt_blk_piv``'s
    with ``pivot``, the unpivoted blocked drivers' otherwise."""
    return DEFAULT_PIVOT_BLOCK if pivot else DEFAULT_BLOCK


def run_variant(name, x, block=None, pivot=False, features=None):
    """Dispatch a factorization by CLI variant name; ``block=None`` takes
    the driver's own default (``_default_block``)."""
    if name not in _DRIVERS:
        raise InvalidVariant(f"unknown variant {name!r}; choose from {VARIANT_NAMES}")
    return _DRIVERS[name](x, _default_block(pivot) if block is None else block, pivot, features)


def residual_norm(x, result):
    """||P X P^T - L T L^T||_F / ||X||_F, with both operands scaled by max|X|
    first so that entries near the overflow threshold do not square to inf."""
    diff = reconstruct(result.l, result.t, result.p).dense()
    xd = x.dense()
    scale = xd.max()  # X = -X^T, so max X = max|X|
    if scale:
        diff /= scale
        xd /= scale
    diff -= xd
    num = np.linalg.norm(diff)
    den = np.linalg.norm(xd)
    return float(num / den) if den else float(num)


def _write_factor_files(prefix, result):
    l = result.l
    m = l.m
    one = np.ones(1)
    cols = [(0, 0, one)]
    if l.first_column is not None:
        cols.append((1, 0, l.first_column))
    for j in range(1, m):
        cols += [(j, j, one), (j + 1, j, l.data[j + 1:, j - 1])]
    _write_coordinate(prefix + ".L.mtx", "general", m, cols)
    np.savetxt(prefix + ".tau.txt", np.asarray(result.t.tau, dtype=float))
    np.savetxt(prefix + ".p.txt", result.p.pivots, fmt="%d")


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 1


def cmd_factor(args):
    if args.block is not None and args.block < 1:
        return _fail(f"--block must be >= 1, got {args.block}")
    if not (args.preset or args.infile) and args.size < 1:
        return _fail(f"--size must be >= 1, got {args.size}")
    try:
        if args.preset:
            x = worked_example_matrix()
        elif args.infile:
            x = mm_read(args.infile)
        else:
            x = random_skew(args.size, seed=args.seed)
    except (OSError, ValueError) as exc:
        return _fail(exc)
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}")
    if x.m < 1:
        return _fail(f"the matrix is {x.m}x{x.m}; factor needs m >= 1")
    result = run_variant(args.variant, x, block=args.block, pivot=args.pivot)
    res = residual_norm(x, result)
    if not math.isfinite(res):
        return _fail(f"non-finite residual ({res}); the factorization overflowed")
    if x.m <= 8:
        taus = ", ".join(f"{v:g}" for v in result.t.tau)
        print(f"tau = {taus}")
        if result.p.nontrivial:
            print(f"pivots = {result.p.pivots.tolist()}")
    print(f"m={x.m} variant={args.variant} pivot={args.pivot} "
          f"residual={res:.3e} seed={args.seed}")
    if args.out:
        _write_factor_files(args.out, result)
        print(f"wrote {args.out}.L.mtx, {args.out}.tau.txt, {args.out}.p.txt")
    return 0


def _bench_one(variant, m, block, pivot, seed, reps, features=None):
    x = random_skew(m, seed=seed)
    times = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = run_variant(variant, x, block=block, pivot=pivot, features=features)
        times.append(time.perf_counter() - t0)
    seconds = statistics.median(times)
    from .oracle import flop_model
    gflops = flop_model(variant, m) / seconds / 1e9
    fc = result.flops
    return (seconds, gflops, fc.level2 + fc.panel, fc.level3)


def _omp_outer_threads():
    """The outer level of OMP_NUM_THREADS (the first field of a per-level
    list), the count OpenBLAS takes at load; 1 if unset or not a count.
    ``bench`` falls back on it where OpenBLAS cannot report its count."""
    field = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    return int(field) if field.isdecimal() else 1


def _int_list(text, default):
    """Items of a comma-separated int option ([default] if unset); None if malformed."""
    try:
        return [int(s) for s in text.split(",")] if text else [default]
    except ValueError:
        return None


def cmd_bench(args):
    sizes = _int_list(args.sizes, args.size)
    blocks = _int_list(args.blocks, _default_block(args.pivot) if args.block is None
                       else args.block)
    if sizes is None or blocks is None:
        return _fail("--sizes and --blocks take comma-separated integers")
    variants = args.variant.split(",")
    for v in variants:
        if v not in VARIANT_NAMES:
            return _fail(f"unknown variant {v!r}")
    if not sizes or min(sizes) < 2 or min(blocks) < 1:
        return _fail("invalid sweep")
    if args.reps < 1:
        return _fail(f"--reps must be >= 1, got {args.reps}")
    # (CSV label, variant, features) per configuration
    if args.opt_ladder:
        configs = [(f"{LADDER_VARIANT[step]}+{step}", LADDER_VARIANT[step], feats)
                   for step, feats in LADDER.items()]
    else:
        configs = [(v, v, None) for v in variants]
    threads = _blas.num_threads() or _omp_outer_threads()
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write(f"# seed={args.seed}\n")
        out.write("variant,m,block,threads,pivot,seconds,gflops,flops_l2,flops_l3\n")
        for m in sizes:
            for label, variant, feats in configs:
                for b in blocks:
                    sec, gf, l2, l3 = _bench_one(variant, m, b, args.pivot,
                                                 args.seed, args.reps, feats)
                    out.write(f"{label},{m},{b},{threads},"
                              f"{int(args.pivot)},{sec:.6f},{gf:.3f},{l2},{l3}\n")
    finally:
        if args.out:
            out.close()
    return 0


def _verify_checks(max_size, seed, exact):
    """Yield (name, callable) pairs; each callable raises AssertionError on
    failure."""
    from fractions import Fraction

    from . import instrument, oracle
    from .core import (SkewTridiagonal, apply_symmetric_pivot,
                       form_s_splitting, pack_in_place, unpack_in_place)
    from .unblocked import ltlt_unb_panel

    eps = np.finfo(float).eps
    rng = np.random.Generator(np.random.Philox(seed))
    msmall = min(max_size, 24)

    def chk_splitting():
        for m in (1, 2, 5, msmall):
            tau = rng.standard_normal(max(m - 1, 0))
            t = SkewTridiagonal(tau)
            s = form_s_splitting(t).dense(float)
            assert np.array_equal(s - s.T, t.dense()), "S - S^T != T"
            assert not s[1::2, :].any(), "odd rows of S not zero"

    def chk_pivot_chain():
        m = min(max_size, 12)
        x = random_skew(m, seed=seed + 1)
        dense = x.dense()
        perm = np.arange(m)
        for k, off in [(0, 3), (2, m - 1 - 2), (1, 0), (4, 2)]:
            apply_symmetric_pivot(x, k, off)
            perm[k], perm[k + off] = perm[k + off], perm[k]
        expect = dense[np.ix_(perm, perm)]
        assert np.array_equal(x.dense(), expect), "pivot chain != dense P X P^T"

    def chk_pack():
        m = min(max_size, 20)
        x = random_skew(m, seed=seed + 2)
        r = ltlt_unb_ll(x, pivot=True)
        box = x.copy()
        pack_in_place(box, r.l, r.t)
        l2, t2 = unpack_in_place(box)
        assert np.array_equal(t2.tau, r.t.tau), "tau roundtrip"
        assert np.array_equal(l2.dense(), r.l.dense()), "L roundtrip"

    def chk_mm():
        m = min(max_size, 16)
        x = random_skew(m, seed=seed + 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.mtx")
            mm_write(path, x)
            y = mm_read(path)
        assert np.array_equal(x.dense(), y.dense()), "matrix market roundtrip"

    def chk_kernels():
        m, k = min(max_size, 40), 9
        a = rng.standard_normal((m, k))
        tau = rng.standard_normal(k - 1)
        t = SkewTridiagonal(tau)
        c = random_skew(m, seed=seed + 4)
        got = c.copy()
        kernels3.skew_tridiag_rankk(got.data, -1.0, a, t, 1.0)
        want = c.dense() - oracle.sandwich_matmul(a, t.dense(), a.T)
        il, jl = np.tril_indices(m, -1)
        err = np.max(np.abs(got.data[il, jl] - want[il, jl]))
        assert err <= 1e-13 * k * max(1.0, np.max(np.abs(want))), f"rankk err {err}"

    def chk_residuals():
        for m in (10, min(max_size, 100)):
            x = random_skew(m, seed=seed + 5)
            bound = 50 * eps * m
            for variant in VARIANT_NAMES:
                for pivot in (False, True):
                    if pivot and variant in ("blk-left", "blk-2step"):
                        continue
                    r = run_variant(variant, x, block=min(DEFAULT_BLOCK, 16), pivot=pivot)
                    err = residual_norm(x, r)
                    assert err <= bound, f"{variant} pivot={pivot} m={m}: {err} > {bound}"

    def chk_pivot_bound():
        for trial in range(10):
            m = int(rng.integers(4, min(max_size, 32) + 1))
            x = random_skew(m, seed=seed + 10 + trial)
            x.data[1, 0] = 1e-13
            r = ltlt_blk_piv(x, b=8)
            assert r.l.max_abs() <= 1.0 + 1e-15, "pivoted |L| > 1"

    def chk_pfaffian():
        x = worked_example_matrix()
        assert abs(pfaffian(x) - 21.0) < 1e-12, "worked example Pfaffian"
        for trial in range(8):
            m = int(rng.integers(1, 6)) * 2
            y = random_skew(m, seed=seed + 30 + trial)
            pf = pfaffian(y)
            det = np.linalg.det(y.dense())
            assert abs(pf * pf - det) <= 1e-10 * max(1.0, abs(det)), "Pf^2 != det"

    def chk_solve():
        m = min(max_size if max_size % 2 == 0 else max_size - 1, 40)
        x = random_skew(m, seed=seed + 50)
        want = rng.standard_normal(m)
        b = x.dense().dot(want)
        got = solve(x, b)
        assert np.allclose(got, want, atol=1e-8 * max(1, np.max(np.abs(want)))), "solve"

    def chk_trace():
        x = random_skew(min(max_size, 48), seed=seed + 60)
        tr = instrument.CallTrace()
        with instrument.tracing(tr):
            ltlt_blk_var2b(x, b=8)
        assert tr.count("skew_rank2", "trailing") == 0, "var2b issued trailing rank-2"

    def chk_panel():
        m = min(max_size, 12)
        x = random_skew(m, seed=seed + 70)
        full = ltlt_unb_ll(x, pivot=True)
        part = ltlt_unb_panel(x, 4, pivot=True)
        assert np.array_equal(part.t.tau[:4], full.t.tau[:4]), "panel tau prefix"
        assert np.array_equal(part.p.pivots, full.p.pivots[:5]), "panel pivot prefix"

    def chk_exact():
        count = 0
        trial = 0
        while count < 25:
            trial += 1
            m = int(rng.integers(2, 9))
            ints = rng.integers(-9, 10, size=m * (m - 1) // 2)
            x = oracle.exact_from_int(ints, m)
            try:
                lm, tau, _p = oracle.gauss_elim_exact(x)
            except ZeroPivot:
                continue
            count += 1
            for fn in (ltlt_unb_rl, ltlt_unb_ll, ltlt_unb_twostep):
                r = fn(x)
                assert np.array_equal(r.t.tau, tau), f"{fn.__name__} tau (exact)"
                assert np.array_equal(r.l.dense(), lm), f"{fn.__name__} L (exact)"
        wx = oracle.exact_from_int([2, 1, 3, 4, 1, 5], 4)
        _lm, tau, _p = oracle.gauss_elim_exact(wx)
        assert tau[2] == Fraction(21, 2), "worked example tau_2 != 21/2"
        assert pfaffian(wx) == 21, "worked example exact Pfaffian"

    checks = [
        ("s-splitting", chk_splitting),
        ("symmetric-pivot-chain", chk_pivot_chain),
        ("pack-unpack", chk_pack),
        ("matrix-market-roundtrip", chk_mm),
        ("kernel-vs-oracle", chk_kernels),
        ("residual-all-variants", chk_residuals),
        ("pivot-bound", chk_pivot_bound),
        ("pfaffian", chk_pfaffian),
        ("solve", chk_solve),
        ("fused-trace", chk_trace),
        ("panel-prefix", chk_panel),
    ]
    if exact:
        checks.append(("exact-rational-agreement", chk_exact))
    return checks


#: smallest --max-size: below it the fixed pivot chain and the random
#: sizes of the checks do not fit
_VERIFY_MIN_SIZE = 7


def cmd_verify(args):
    if args.max_size < _VERIFY_MIN_SIZE:
        return _fail(f"--max-size must be >= {_VERIFY_MIN_SIZE}, got {args.max_size}")
    failures = 0
    for name, fn in _verify_checks(args.max_size, args.seed, args.exact):
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # broken invariant machinery is also a failure
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{'FAILED' if failures else 'PASSED'} ({failures} failures)")
    return 1 if failures else 0


def build_parser():
    ap = argparse.ArgumentParser(prog="skewltl",
                                 description="Skew-symmetric L T L^T factorization toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("factor", help="factor one matrix and report the residual")
    fp.add_argument("--size", type=int, default=100)
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument("--in", dest="infile", metavar="PATH", help="Matrix Market input")
    fp.add_argument("--preset", choices=["worked-example"])
    fp.add_argument("--variant", default="blk-var2b", choices=VARIANT_NAMES)
    block_help = (f"block size (default: {DEFAULT_BLOCK}, or {DEFAULT_PIVOT_BLOCK} with "
                  "--pivot, the drivers' own defaults)")
    fp.add_argument("--block", type=int, help=block_help)
    fp.add_argument("--pivot", action="store_true")
    fp.add_argument("--threads", type=int, help="accepted and ignored; the BLAS thread count "
                    "comes from OPENBLAS_NUM_THREADS/OMP_NUM_THREADS at process start")
    fp.add_argument("--out", metavar="PREFIX", help="write L/tau/p files")
    fp.set_defaults(func=cmd_factor)

    vp = sub.add_parser("verify", help="run the invariant suite")
    vp.add_argument("--max-size", type=int, default=64,
                    help=f"largest matrix size the checks use (at least {_VERIFY_MIN_SIZE})")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--exact", action="store_true", help="include rational-arithmetic oracles")
    vp.set_defaults(func=cmd_verify)

    bp = sub.add_parser("bench", help="benchmark sweep, CSV output")
    bp.add_argument("--size", type=int, default=1024)
    bp.add_argument("--sizes", help="comma-separated m values")
    bp.add_argument("--block", type=int, help=block_help)
    bp.add_argument("--blocks", help="comma-separated block sizes")
    bp.add_argument("--variant", default="blk-var2b",
                    help="variant name or comma-separated list")
    bp.add_argument("--pivot", action="store_true")
    bp.add_argument("--reps", type=int, default=3)
    bp.add_argument("--seed", type=int, default=0)
    bp.add_argument("--out", metavar="PATH", help="CSV file (default stdout)")
    bp.add_argument("--opt-ladder", action="store_true",
                    help="run ladder steps 0-4 on blk-var1, 5 on blk-var2b; ignores --variant")
    bp.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}")
    try:
        return args.func(args)
    except ZeroPivot as exc:
        return _fail(f"breakdown, zero pivot in column {exc.column}; rerun with --pivot")
    except (PivotUnsupported, InvalidVariant) as exc:  # a refused driver call
        return _fail(exc)


def console():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
