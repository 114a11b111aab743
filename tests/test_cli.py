"""Command-line interface: exit codes, presets, CSV schema, verify."""

import csv
import io
import os

import numpy as np

from skewltl import SkewMatrixLower, mm_write, random_skew
from skewltl.cli import main

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

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--size", "32", "--block", "8",
                         "--reps", "1", "--variant", "unb-ll", "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("# seed=0")

    def test_invalid_variant(self, capsys):
        code, _, err = run(capsys, "bench", "--variant", "cholesky")
        assert code == 1
        assert "unknown variant" in err

    def test_invalid_sweep(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "1")
        assert code == 1
        assert "invalid sweep" in err

    def test_reproducible_single_thread(self, capsys):
        args = ["bench", "--size", "48", "--block", "8", "--reps", "1",
                "--variant", "blk-var2b", "--seed", "11", "--threads", "1"]
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


def test_factor_threads_flag(capsys):
    code, out, _ = run(capsys, "factor", "--size", "64", "--threads", "2",
                       "--variant", "blk-var2a")
    assert code == 0
