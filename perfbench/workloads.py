"""The four benchmark workloads: inputs made from the seed, one timed
operation each, and the checks that operation's output must pass.

Every library call goes through a module attribute (``blocked.ltlt_blk_piv``,
``apps.pfaffian``, ``mmio.mm_write``, ``cli.main``) so that the traced run's
wrappers, installed under those names, see it.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys

import numpy as np
from skewltl import apps, blocked, cli, mmio
from skewltl.core import SkewMatrixLower

import checks

# Sizes of the full workloads and of the smoke mode, which runs every code
# path at small m in seconds.
SIZES = {
    "factor-4096": {"full": dict(m=4096, b=256), "smoke": dict(m=96, b=16)},
    "piv-3000": {"full": dict(m=3000, b=256), "smoke": dict(m=80, b=16)},
    "apps-1000": {"full": dict(m=1000, inputs=4), "smoke": dict(m=64, inputs=2)},
    "cli-mtx-1000": {"full": dict(m=1000), "smoke": dict(m=48)},
}
NAMES = tuple(SIZES)
PROBES = 4
RHS = 16


def generator(seed, workload, stream):
    """Philox stream ``stream`` of ``workload`` under the run's seed."""
    tag = NAMES.index(workload)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, tag, stream))))


def skew_lower(rng, m, scale=1.0):
    """Strictly-lower part of a skew matrix, N(0, scale^2) entries drawn
    column by column (column-major, zero on and above the diagonal)."""
    lower = np.zeros((m, m), order="F")
    for j in range(m - 1):
        lower[j + 1:, j] = scale * rng.standard_normal(m - j - 1)
    return lower


def _l_buffer(result):
    l = result.l
    if l.mode != "ones" or l.first_column is not None:
        raise checks.CheckError(f"L returned in storage mode {l.mode!r} with first_column set")
    return l.data


class Factor:
    """One factorization of one matrix per operation: ``ltlt_blk_var2b``
    (factor-4096) or ``ltlt_blk_piv(fused="var2b")`` (piv-3000)."""

    round_size = 1

    def __init__(self, name, seed, m, b, outdir):
        self.name, self.seed, self.m, self.b = name, seed, m, b
        self.pivot = name.startswith("piv")

    def setup(self):
        self.lower = skew_lower(generator(self.seed, self.name, 0), self.m)
        self.x = SkewMatrixLower(self.lower)
        self.probes = generator(self.seed, self.name, 1).standard_normal((self.m, PROBES))

    def op(self, k):
        if self.pivot:
            return blocked.ltlt_blk_piv(self.x, b=self.b, fused="var2b")
        return blocked.ltlt_blk_var2b(self.x, b=self.b)

    def check(self, k, r):
        lbuf = _l_buffer(r)
        pivots = None
        if self.pivot:
            pivots = r.p.pivots
            checks.check_pivots(pivots, self.m)
            checks.check_max_abs_l(lbuf)
        elif len(r.p.pivots):
            raise checks.CheckError("unpivoted driver returned pivots")
        checks.check_backward_error(self.lower, lbuf, r.t.tau, pivots, self.probes)
        return np.array(r.t.tau, dtype=float)

    def reference(self):
        self.ref = checks.half_logabsdet(self.lower)

    def compare(self, k, tau):
        checks.check_logabs_pfaffian(tau, self.ref)


class Apps:
    """``pfaffian(x)`` then ``solve(x, B)`` with 16 right-hand sides, cycling
    over a few inputs.  Entries have standard deviation 1.6/sqrt(m), which
    keeps log|Pf| within a few dozen of 0, far inside float64 range."""

    def __init__(self, name, seed, m, inputs, outdir):
        self.name, self.seed, self.m = name, seed, m
        self.round_size = inputs

    def setup(self):
        scale = 1.6 / np.sqrt(self.m)
        self.lowers, self.xs, self.rhs = [], [], []
        for i in range(self.round_size):
            lower = skew_lower(generator(self.seed, self.name, 2 * i), self.m, scale)
            self.lowers.append(lower)
            self.xs.append(SkewMatrixLower(lower))
            self.rhs.append(generator(self.seed, self.name, 2 * i + 1).standard_normal((self.m, RHS)))

    def op(self, k):
        i = k % self.round_size
        return apps.pfaffian(self.xs[i]), apps.solve(self.xs[i], self.rhs[i])

    def check(self, k, out):
        i = k % self.round_size
        checks.check_solve(self.lowers[i], out[1], self.rhs[i])
        return out

    def reference(self):
        self.ref_pf = [checks.householder_pfaffian(lw) for lw in self.lowers]
        self.ref_y = [np.linalg.solve(lw - lw.T, b) for lw, b in zip(self.lowers, self.rhs)]

    def compare(self, k, out):
        i = k % self.round_size
        checks.check_pfaffian(out[0], self.ref_pf[i])
        checks.check_close(out[1], self.ref_y[i])


class CliMtx:
    """``mm_write`` of the matrix, then ``skewltl factor --in FILE --variant
    blk-var2b --pivot --out PREFIX --threads 1``: as a child process, or in
    process through ``cli.main(argv)`` when ``in_process`` is set (traced).
    The input file is written by the operation itself, the warm-up included."""

    round_size = 1

    def __init__(self, name, seed, m, outdir):
        self.name, self.seed, self.m = name, seed, m
        self.path = os.path.join(outdir, "x.mtx")
        self.prefix = os.path.join(outdir, "fac")
        self.argv = ["factor", "--in", self.path, "--variant", "blk-var2b", "--pivot",
                     "--out", self.prefix, "--threads", "1"]
        self.in_process = False

    def setup(self):
        self.lower = skew_lower(generator(self.seed, self.name, 0), self.m)
        self.x = SkewMatrixLower(self.lower)
        self.probes = generator(self.seed, self.name, 1).standard_normal((self.m, PROBES))

    def op(self, k):
        mmio.mm_write(self.path, self.x)
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv)
            return code, buf.getvalue(), ""
        proc = subprocess.run([sys.executable, "-m", "skewltl.cli", *self.argv],
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, k, out):
        code, stdout, stderr = out
        if code != 0:
            raise checks.CheckError(f"skewltl factor exited {code}: {stderr.strip()[-300:]}")
        checks.check_cli_residual(stdout, self.m)
        checks.check_mtx_roundtrip(self.path, self.lower)
        lbuf, tau, pivots = checks.read_cli_factors(self.prefix, self.m)
        checks.check_pivots(pivots, self.m)
        checks.check_backward_error(self.lower, lbuf, tau, pivots, self.probes)

    def reference(self):
        pass

    def compare(self, k, out):
        pass


def make(name, seed, smoke, outdir):
    params = SIZES[name]["smoke" if smoke else "full"]
    cls = {"factor-4096": Factor, "piv-3000": Factor, "apps-1000": Apps,
           "cli-mtx-1000": CliMtx}[name]
    return cls(name, seed, outdir=outdir, **params)
