"""Every correctness check accepts the library's true output and rejects a
corrupted one."""

import contextlib
import io

import numpy as np
import pytest
from skewltl import blocked, cli, mm_write, pfaffian, solve
from skewltl.core import SkewMatrixLower

import checks
import workloads

M = 40


@pytest.fixture(scope="module")
def lower():
    return workloads.skew_lower(workloads.generator(7, "piv-3000", 0), M)


@pytest.fixture(scope="module")
def probes():
    return workloads.generator(7, "piv-3000", 1).standard_normal((M, workloads.PROBES))


@pytest.fixture
def pivoted(lower):
    return blocked.ltlt_blk_piv(SkewMatrixLower(lower), b=8, fused="var2b")


@pytest.fixture
def unpivoted(lower):
    return blocked.ltlt_blk_var2b(SkewMatrixLower(lower), b=8)


def _backward(lower, r, probes):
    pivots = r.p.pivots if len(r.p.pivots) else None
    return checks.check_backward_error(lower, r.l.data, r.t.tau, pivots, probes)


def test_true_factors_pass(lower, probes, pivoted, unpivoted):
    ref = checks.half_logabsdet(lower)
    for r in (pivoted, unpivoted):
        assert _backward(lower, r, probes) < 0.1
        checks.check_logabs_pfaffian(r.t.tau, ref)
    checks.check_pivots(pivoted.p.pivots, M)
    checks.check_max_abs_l(pivoted.l.data)


@pytest.mark.parametrize("which", ["pivoted", "unpivoted"])
def test_perturbed_tau_fails_backward_error(lower, probes, which, request):
    r = request.getfixturevalue(which)
    r.t.tau[5] *= 1 + 1e-8
    with pytest.raises(checks.CheckError, match="backward error"):
        _backward(lower, r, probes)


def test_perturbed_tau_fails_logdet(lower, pivoted):
    pivoted.t.tau[4] *= 1.01
    with pytest.raises(checks.CheckError, match="log"):
        checks.check_logabs_pfaffian(pivoted.t.tau, checks.half_logabsdet(lower))


def test_changed_pivot_offset_fails(lower, probes, pivoted):
    k = int(np.flatnonzero(pivoted.p.pivots)[3])
    pivoted.p.pivots[k] -= 1
    checks.check_pivots(pivoted.p.pivots, M)  # still a valid vector ...
    with pytest.raises(checks.CheckError, match="backward error"):
        _backward(lower, pivoted, probes)  # ... but not this matrix's pivots
    pivoted.p.pivots[k] = M - k
    with pytest.raises(checks.CheckError, match="leaves the matrix"):
        checks.check_pivots(pivoted.p.pivots, M)
    pivoted.p.pivots[k] = 0
    pivoted.p.pivots[0] = 1
    with pytest.raises(checks.CheckError, match="first pivot"):
        checks.check_pivots(pivoted.p.pivots, M)


def test_large_l_entry_fails(pivoted):
    pivoted.l.data[M - 1, 3] = 1.5
    with pytest.raises(checks.CheckError, match="max"):
        checks.check_max_abs_l(pivoted.l.data)


def test_unit_diagonal_altered_fails(lower, probes, pivoted):
    pivoted.l.data[10, 9] = 1.0 + 1e-12
    with pytest.raises(checks.CheckError, match="expected 1"):
        _backward(lower, pivoted, probes)


def test_householder_pfaffian_matches_worked_example_and_library(lower):
    x = cli.worked_example_matrix()
    sign, logabs = checks.householder_pfaffian(x.data)
    assert sign == 1 and logabs == pytest.approx(np.log(21.0), rel=1e-13)
    ref = checks.householder_pfaffian(lower)
    checks.check_pfaffian(pfaffian(SkewMatrixLower(lower)), ref)


def test_perturbed_or_flipped_pfaffian_fails(lower):
    pf = pfaffian(SkewMatrixLower(lower))
    ref = checks.householder_pfaffian(lower)
    with pytest.raises(checks.CheckError, match="sign"):
        checks.check_pfaffian(-pf, ref)
    with pytest.raises(checks.CheckError, match="log"):
        checks.check_pfaffian(pf * (1 + 1e-6), ref)
    with pytest.raises(checks.CheckError):
        checks.check_pfaffian(float("inf"), ref)


def test_perturbed_solution_entry_fails(lower):
    rhs = workloads.generator(7, "apps-1000", 1).standard_normal((M, workloads.RHS))
    y = solve(SkewMatrixLower(lower), rhs)
    ref = np.linalg.solve(lower - lower.T, rhs)
    checks.check_solve(lower, y, rhs)
    checks.check_close(y, ref)
    y[3, 2] *= 1 + 1e-5
    with pytest.raises(checks.CheckError, match="residual"):
        checks.check_solve(lower, y, rhs)
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_close(y, ref, rtol=1e-7)


def _alter_line(path, lineno):
    with open(path) as fh:
        lines = fh.readlines()
    i, j, v = lines[lineno].split()
    lines[lineno] = f"{i} {j} {float(v) * (1 + 1e-9)!r}\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def test_altered_matrix_market_line_fails(lower, tmp_path):
    path = str(tmp_path / "x.mtx")
    mm_write(path, SkewMatrixLower(lower))
    checks.check_mtx_roundtrip(path, lower)
    _alter_line(path, 17)
    with pytest.raises(checks.CheckError, match="does not read back"):
        checks.check_mtx_roundtrip(path, lower)


@pytest.fixture
def cli_factors(lower, tmp_path):
    path, prefix = str(tmp_path / "x.mtx"), str(tmp_path / "fac")
    mm_write(path, SkewMatrixLower(lower))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["factor", "--in", path, "--variant", "blk-var2b", "--pivot",
                         "--block", "8", "--out", prefix, "--threads", "1"])
    assert code == 0
    return prefix, buf.getvalue()


def _check_cli(lower, probes, prefix):
    lbuf, tau, pivots = checks.read_cli_factors(prefix, M)
    checks.check_pivots(pivots, M)
    checks.check_backward_error(lower, lbuf, tau, pivots, probes)


def test_cli_outputs_pass(lower, probes, cli_factors):
    prefix, stdout = cli_factors
    checks.check_cli_residual(stdout, M)
    _check_cli(lower, probes, prefix)


def test_altered_l_file_line_fails(lower, probes, cli_factors):
    prefix, _ = cli_factors
    _alter_line(prefix + ".L.mtx", 60)
    with pytest.raises(checks.CheckError, match="backward error"):
        _check_cli(lower, probes, prefix)


def test_altered_tau_or_pivot_file_fails(lower, probes, cli_factors):
    prefix, _ = cli_factors
    tau = np.loadtxt(prefix + ".tau.txt")
    piv = np.loadtxt(prefix + ".p.txt", dtype=np.int64)
    np.savetxt(prefix + ".tau.txt", tau * np.r_[1.0, 1 + 1e-8, np.ones(M - 3)])
    with pytest.raises(checks.CheckError, match="backward error"):
        _check_cli(lower, probes, prefix)
    np.savetxt(prefix + ".tau.txt", tau)
    k = int(np.flatnonzero(piv)[2])
    piv[k] -= 1
    np.savetxt(prefix + ".p.txt", piv, fmt="%d")
    with pytest.raises(checks.CheckError, match="backward error"):
        _check_cli(lower, probes, prefix)


def test_bad_cli_residual_fails():
    for text in ("m=40 residual=nan seed=0", "m=40 residual=1.0e-09 seed=0", "no residual"):
        with pytest.raises(checks.CheckError):
            checks.check_cli_residual(text, M)
