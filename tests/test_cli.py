"""Command-line interface: exit codes, presets, CSV schema, verify."""

import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from skewltl import (InvalidVariant, PermutationVector, PivotUnsupported, SkewMatrixLower,
                     ltlt_blk_left, ltlt_blk_piv, ltlt_blk_twostep, ltlt_blk_var1,
                     ltlt_blk_var2a, ltlt_blk_var2b, ltlt_unb_ll, ltlt_unb_rl,
                     ltlt_unb_twostep, mm_write, random_skew, reconstruct)
from skewltl import _blas, cli
from skewltl.blocked import DEFAULT_BLOCK, DEFAULT_PIVOT_BLOCK
from skewltl.cli import VARIANT_NAMES, main, run_variant

from helpers import worked_example


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFactor:
    def test_smoke(self, capsys):
        code, out, _ = run(capsys, "factor", "--size", "100", "--seed", "7",
                           "--variant", "blk-var2b", "--block", "64", "--pivot")
        assert code == 0
        assert "residual=" in out

    def test_worked_example_preset(self, capsys):
        code, out, _ = run(capsys, "factor", "--size", "4", "--preset", "worked-example")
        assert code == 0
        assert "tau = 2, 4, 10.5" in out

    def test_breakdown_exit_code(self, capsys, tmp_path):
        x = SkewMatrixLower.zeros(3)
        x.data[2, 0] = 1.0  # zero pivot with nonzero below
        path = tmp_path / "bad.mtx"
        mm_write(path, x)
        code, _, err = run(capsys, "factor", "--in", str(path), "--variant", "unb-rl")
        assert code == 1
        assert "column 0" in err

    def test_breakdown_recovered_with_pivot(self, capsys, tmp_path):
        x = SkewMatrixLower.zeros(3)
        x.data[2, 0] = 1.0
        path = tmp_path / "bad.mtx"
        mm_write(path, x)
        code, out, _ = run(capsys, "factor", "--in", str(path),
                           "--variant", "unb-rl", "--pivot")
        assert code == 0

    def test_malformed_input(self, capsys, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real skew-symmetric\n"
                        "3 3 2\n2 1 1.0\n2 1 5.0\n")
        code, _, err = run(capsys, "factor", "--in", str(path))
        assert code == 1
        assert err.startswith("error:") and "duplicate" in err

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "factor", "--in", "/nonexistent.mtx")
        assert code == 1
        assert "error" in err

    def test_pivoted_left_looking_rejected(self, capsys):
        code, _, err = run(capsys, "factor", "--size", "16",
                           "--variant", "blk-left", "--pivot")
        assert code == 1
        assert "cannot exist" in err

    def test_output_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "fac")
        code, out, _ = run(capsys, "factor", "--size", "12", "--seed", "3",
                           "--variant", "unb-ll", "--pivot", "--out", prefix)
        assert code == 0
        assert os.path.exists(prefix + ".L.mtx")
        tau = np.loadtxt(prefix + ".tau.txt")
        piv = np.loadtxt(prefix + ".p.txt", dtype=int)
        assert tau.shape == (11,)
        assert piv.shape == (12,)

    def test_factor_files_round_trip(self, capsys, tmp_path):
        # the .p.txt offsets, read back as np.loadtxt's float64, rebuild the
        # in-process factorization's P
        prefix = str(tmp_path / "fac")
        code, _, _ = run(capsys, "factor", "--size", "40", "--variant", "blk-var2b",
                         "--pivot", "--out", prefix)
        assert code == 0
        res = ltlt_blk_piv(random_skew(40, seed=0), fused="var2b")
        assert res.p.nontrivial
        piv = np.loadtxt(prefix + ".p.txt")
        assert piv.dtype == np.float64
        got = reconstruct(res.l, res.t, PermutationVector(piv, 40))
        assert got.data.tobytes() == reconstruct(res.l, res.t, res.p).data.tobytes()

    def test_residual_finite_near_overflow(self, capsys, tmp_path):
        # squaring entries of 1e300 overflows an unscaled Frobenius norm
        path = tmp_path / "huge.mtx"
        mm_write(path, random_skew(50, seed=1, scale=1e300))
        code, out, _ = run(capsys, "factor", "--in", str(path),
                           "--variant", "blk-var2b", "--pivot")
        assert code == 0
        res = float(out.split("residual=")[1].split()[0])
        assert res < 1e-12

    def test_non_finite_residual_exit_code(self, capsys, tmp_path):
        # unpivoted growth from entries near 1e307 overflows the factors
        path = tmp_path / "over.mtx"
        mm_write(path, random_skew(50, seed=1, scale=1e307))
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, "factor", "--in", str(path), "--variant", "blk-var2b")
        assert code == 1
        assert err.startswith("error:") and "non-finite residual" in err
        assert "residual=" not in out

    @pytest.mark.parametrize("argv,message", [
        (("--block", "0"), "--block must be >= 1"),
        (("--size", "0"), "--size must be >= 1"),
        (("--size", "-3"), "--size must be >= 1"),
        (("--seed", "-1"), "--seed must be >= 0"),
    ])
    def test_invalid_option_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "factor", *argv)
        assert code == 1
        assert err.startswith("error:") and message in err
        assert out == ""

    @pytest.mark.parametrize("size_line,message", [
        ("0 0 0", "needs m >= 1"),
        # 71 PiB: the allocation fails at once rather than lazily
        ("100000000 100000000 0", "out of memory"),
        ("-3 -3 0", "bad.mtx: malformed size line"),
        ("3 3 -1", "bad.mtx: malformed size line"),
    ])
    def test_invalid_size_line_rejected(self, capsys, tmp_path, size_line, message):
        path = tmp_path / "bad.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real skew-symmetric\n{size_line}\n")
        code, out, err = run(capsys, "factor", "--in", str(path))
        assert code == 1
        assert err.startswith("error:") and message in err
        assert out == ""

    def test_matrix_market_input_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "w.mtx"
        mm_write(path, worked_example())
        code, out, _ = run(capsys, "factor", "--in", str(path), "--variant", "unb-2step")
        assert code == 0
        assert "tau = 2, 4, 10.5" in out


class TestBench:
    def test_single_row_smoke(self, capsys):
        code, out, _ = run(capsys, "bench", "--size", "64", "--block", "16",
                           "--reps", "2", "--variant", "unb-rl")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# seed=0"
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert len(rows) == 1
        row = rows[0]
        assert row["variant"] == "unb-rl"
        assert row["m"] == "64"
        assert float(row["seconds"]) > 0
        assert int(row["flops_l2"]) > 0

    def test_sweep_schema(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "48,64", "--blocks", "8,16",
                           "--reps", "1", "--variant", "blk-var1,blk-var2b")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[1].split(",")
        assert header == ["variant", "m", "block", "threads", "pivot",
                          "seconds", "gflops", "flops_l2", "flops_l3"]
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert len(rows) == 8  # 2 sizes x 2 blocks x 2 variants

    def test_opt_ladder(self, capsys):
        code, out, _ = run(capsys, "bench", "--size", "48", "--block", "8",
                           "--reps", "1", "--opt-ladder")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(out.strip().splitlines()[1:]))))
        steps = [r["variant"] for r in rows]
        assert steps == [f"blk-var1+step{i}" for i in range(5)] + ["blk-var2b+step5"]

    def test_pivoted_opt_ladder_runs_each_step(self, capsys):
        # each step keeps its own features: step1 splits the trailing
        # update, step3 keeps tau external
        code, out, _ = run(capsys, "bench", "--size", "64", "--block", "8",
                           "--reps", "1", "--opt-ladder", "--pivot")
        assert code == 0
        rows = {r["variant"]: (r["flops_l2"], r["flops_l3"]) for r in
                csv.DictReader(io.StringIO("\n".join(out.strip().splitlines()[1:])))}
        assert rows["blk-var1+step1"] != rows["blk-var1+step3"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--size", "32", "--block", "8",
                         "--reps", "1", "--variant", "unb-ll", "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("# seed=0")

    @pytest.mark.parametrize("pivot", [False, True])
    def test_default_block_is_the_drivers(self, capsys, pivot):
        # without --block, bench and factor take the driver's own default
        calls = []
        real = cli._DRIVERS["blk-var2b"]
        want = DEFAULT_PIVOT_BLOCK if pivot else DEFAULT_BLOCK

        def spy(x, b, pv, f):
            calls.append(b)
            return real(x, b, pv, f)

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(cli._DRIVERS, "blk-var2b", spy)
            code, out, _ = run(capsys, "bench", "--size", "40", "--reps", "1",
                               *(["--pivot"] if pivot else []))
            assert code == 0
            assert run(capsys, "factor", "--size", "40", *(["--pivot"] if pivot else []))[0] == 0
        row = next(csv.DictReader(io.StringIO("\n".join(out.strip().splitlines()[1:]))))
        assert row["block"] == str(want)
        assert calls == [want, want]

    def test_invalid_variant(self, capsys):
        code, _, err = run(capsys, "bench", "--variant", "cholesky")
        assert code == 1
        assert "unknown variant" in err

    @pytest.mark.parametrize("variant,message", [("blk-left", "cannot exist"),
                                                 ("blk-2step", "no pivoted path")])
    def test_refused_pivot_reported(self, capsys, variant, message):
        # main reports the driver's own refusal for every command, as for factor
        code, out, err = run(capsys, "bench", "--size", "16", "--block", "4", "--reps", "1",
                             "--variant", variant, "--pivot")
        assert code == 1
        assert err.startswith("error:") and message in err
        assert out.strip().splitlines() == [
            "# seed=0", "variant,m,block,threads,pivot,seconds,gflops,flops_l2,flops_l3"]

    def test_invalid_sweep(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "1")
        assert code == 1
        assert "invalid sweep" in err

    @pytest.mark.parametrize("argv,message", [
        (("--sizes", "8,x"), "--sizes and --blocks take comma-separated integers"),
        (("--blocks", "8,x"), "--sizes and --blocks take comma-separated integers"),
        (("--seed", "-1"), "--seed must be >= 0"),
    ])
    def test_malformed_option_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "bench", "--size", "8", *argv)
        assert code == 1
        assert err.startswith("error:") and message in err
        assert out == ""

    def test_zero_reps_rejected(self, capsys):
        code, out, err = run(capsys, "bench", "--size", "8", "--reps", "0")
        assert code == 1
        assert err.startswith("error:") and "--reps must be >= 1" in err
        assert out == ""

    def test_reproducible_single_thread(self, capsys):
        args = ["bench", "--size", "48", "--block", "8", "--reps", "1",
                "--variant", "blk-var2b", "--seed", "11"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        # timing columns differ; flop counts and schema must not
        r1 = list(csv.DictReader(io.StringIO("\n".join(out1.strip().splitlines()[1:]))))
        r2 = list(csv.DictReader(io.StringIO("\n".join(out2.strip().splitlines()[1:]))))
        for a, b in zip(r1, r2):
            assert a["flops_l2"] == b["flops_l2"]
            assert a["flops_l3"] == b["flops_l3"]


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-size", "16")
        assert code == 0
        assert "PASSED" in out

    def test_exact_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-size", "12", "--exact")
        assert code == 0
        assert "exact-rational-agreement" in out

    @pytest.mark.parametrize("size", ["6", "1", "0"])
    def test_max_size_below_minimum_rejected(self, capsys, size):
        code, out, err = run(capsys, "verify", "--max-size", size)
        assert code == 1
        assert err.startswith("error:") and "--max-size must be >= 7" in err
        assert out == ""  # no check ran

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", "-1")
        assert code == 1
        assert err.startswith("error:") and "--seed must be >= 0" in err
        assert out == ""  # no check ran

    def test_minimum_max_size_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-size", "7", "--exact")
        assert code == 0
        assert "PASSED" in out

    def test_negative_control(self, capsys, monkeypatch):
        # an injected kernel bug must flip the exit code
        from skewltl import kernels3

        orig = kernels3.skew_tridiag_rankk

        def broken(c, alpha, a, t, beta=1, **kw):
            return orig(c, alpha * (1 + 1e-8), a, t, beta, **kw)

        monkeypatch.setattr(kernels3, "skew_tridiag_rankk", broken)
        code, out, _ = run(capsys, "verify", "--max-size", "16")
        assert code == 1
        assert "FAIL" in out

    def test_check_raising_other_error_reported(self, capsys, monkeypatch):
        # a check whose own machinery breaks fails with the error's type named
        def broken():
            raise KeyError("tau")

        monkeypatch.setattr(cli, "_verify_checks",
                            lambda *args: [("broken", broken), ("fine", lambda: None)])
        code, out, _ = run(capsys, "verify", "--max-size", "16")
        assert code == 1
        assert out.splitlines() == ["FAIL broken: KeyError: 'tau'", "ok   fine",
                                    "FAILED (1 failures)"]


def test_factor_threads_flag(capsys):
    code, out, _ = run(capsys, "factor", "--size", "64", "--threads", "2",
                       "--variant", "blk-var2a")
    assert code == 0


def bench_threads_column(capsys):
    code, out, _ = run(capsys, "bench", "--size", "16", "--block", "8", "--reps", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO("\n".join(out.strip().splitlines()[1:]))))
    return [r["threads"] for r in rows]


def test_omp_per_level_list(capsys, monkeypatch):
    # a valid OpenMP per-level list: factor and verify ignore it, and bench
    # records the count OpenBLAS runs with, which the process fixed at load
    monkeypatch.setenv("OMP_NUM_THREADS", "4,2")
    code, _, _ = run(capsys, "factor", "--size", "10")
    assert code == 0
    code, _, _ = run(capsys, "verify", "--max-size", "8")
    assert code == 0
    assert bench_threads_column(capsys) == [str(_blas.num_threads())]


@pytest.mark.parametrize("fields", ["{}", "{},1"])
def test_bench_threads_column_is_blas_count(capsys, monkeypatch, fields):
    # an OMP_NUM_THREADS that differs from the count OpenBLAS runs with
    n = _blas.num_threads()
    assert n is not None and n >= 1
    monkeypatch.setenv("OMP_NUM_THREADS", fields.format(n + 1))
    assert bench_threads_column(capsys) == [str(n)]


def test_bench_threads_option_removed(capsys):
    # the threads column records the measured count; no option sets it
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--size", "16", "--threads", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    assert "--threads" not in capsys.readouterr().out


def test_bench_threads_fallback(capsys, monkeypatch):
    # where OpenBLAS cannot report its count, the field is left empty: no
    # environment variable is read in its place
    monkeypatch.setattr(_blas, "num_threads", lambda: None)
    monkeypatch.setenv("OMP_NUM_THREADS", "3,1")
    assert bench_threads_column(capsys) == [""]


#: CLI variant -> (unpivoted direct call, pivoted direct call or None)
DIRECT = {
    "unb-rl": (lambda x: ltlt_unb_rl(x), lambda x: ltlt_unb_rl(x, pivot=True)),
    "unb-ll": (lambda x: ltlt_unb_ll(x), lambda x: ltlt_unb_ll(x, pivot=True)),
    "unb-2step": (lambda x: ltlt_unb_twostep(x),
                  lambda x: ltlt_unb_twostep(x, pivot=True)),
    "blk-var1": (lambda x: ltlt_blk_var1(x, b=8),
                 lambda x: ltlt_blk_piv(x, b=8, fused="var1")),
    "blk-var2a": (lambda x: ltlt_blk_var2a(x, b=8),
                  lambda x: ltlt_blk_piv(x, b=8, fused="var2a")),
    "blk-var2b": (lambda x: ltlt_blk_var2b(x, b=8),
                  lambda x: ltlt_blk_piv(x, b=8, fused="var2b")),
    "blk-left": (lambda x: ltlt_blk_left(x, b=8), None),
    "blk-2step": (lambda x: ltlt_blk_twostep(x, b=8), None),
}


class TestDispatch:
    def test_table_covers_every_variant(self):
        assert set(DIRECT) == set(VARIANT_NAMES)

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidVariant, match="unknown variant 'nope'"):
            run_variant("nope", random_skew(4, seed=0))

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    @pytest.mark.parametrize("pivot", [False, True])
    def test_matches_direct_call(self, variant, pivot):
        x = random_skew(30, seed=4)
        direct = DIRECT[variant][pivot]
        if direct is None:
            with pytest.raises(PivotUnsupported):
                run_variant(variant, x, block=8, pivot=pivot)
            return
        got = run_variant(variant, x, block=8, pivot=pivot)
        want = direct(x)
        assert np.array_equal(got.t.tau, want.t.tau)
        assert np.array_equal(got.l.data, want.l.data)
        assert np.array_equal(got.p.pivots, want.p.pivots)
        assert got.flops == want.flops

    def test_pivoted_driver_looked_up_at_call_time(self, monkeypatch):
        # wrappers installed on cli.ltlt_blk_piv (as the benchmark's tracer
        # does) must see the pivoted blocked path
        calls = []

        def recorder(*args, **kwargs):
            calls.append(kwargs.get("fused"))
            return ltlt_blk_piv(*args, **kwargs)

        monkeypatch.setattr(cli, "ltlt_blk_piv", recorder)
        run_variant("blk-var2b", random_skew(20, seed=1), block=8, pivot=True)
        assert calls == ["var2b"]


def test_import_loads_no_scipy():
    # scipy is imported only inside the apps functions that use it, so
    # `skewltl factor` starts without loading it
    import skewltl
    src = os.path.dirname(os.path.dirname(os.path.abspath(skewltl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, skewltl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
