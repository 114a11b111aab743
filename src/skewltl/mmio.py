"""Matrix Market exchange for skew-symmetric matrices.

Coordinate format with the ``skew-symmetric`` qualifier, 1-based indices,
strictly-lower entries only.  The reader validates the header and rejects
nonzero diagonal entries, entries above the diagonal, duplicate
coordinates, NaN or infinite values, and an entry count other than the
declared nnz (explicit zero diagonal entries count toward it).
"""

from __future__ import annotations

import math

import numpy as np

from .core import SkewMatrixLower

_BANNER = "%%MatrixMarket"
_EXPECT = ("matrix", "coordinate", "real", "skew-symmetric")


def mm_write(path, x: SkewMatrixLower):
    m = x.m
    il, jl = np.tril_indices(m, -1)
    vals = x.data[il, jl]
    keep = vals != 0
    il, jl, vals = il[keep], jl[keep], vals[keep]
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real skew-symmetric\n")
        fh.write(f"{m} {m} {len(vals)}\n")
        for i, j, v in zip(il, jl, vals):
            fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")


def mm_read(path) -> SkewMatrixLower:
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != _BANNER:
            raise ValueError(f"{path}: malformed Matrix Market header")
        fields = tuple(tok.lower() for tok in header[1:])
        if len(fields) != 4:
            raise ValueError(f"{path}: malformed Matrix Market header")
        if fields[:3] != _EXPECT[:3]:
            raise ValueError(f"{path}: unsupported format {' '.join(fields[:3])!r}")
        if fields[3] != "skew-symmetric":
            raise ValueError(f"{path}: symmetry qualifier {fields[3]!r}, expected 'skew-symmetric'")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed size line")
        m, n, nnz = (int(t) for t in parts)
        if m != n:
            raise ValueError(f"{path}: matrix is {m}x{n}, expected square")
        x = SkewMatrixLower.zeros(m)
        # flat column-major views of x.data and of one duplicate flag per
        # coordinate; plain memoryview/bytearray item access keeps the
        # per-line cost low
        flat = memoryview(x.data.T).cast("B").cast("d")
        present = bytearray(m * m)
        seen = 0
        for line in fh:
            if not line.strip() or line.startswith("%"):
                continue
            si, sj, sv = line.split()
            i, j, v = int(si) - 1, int(sj) - 1, float(sv)
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"{path}: entry ({si}, {sj}) out of range")
            if i < j:
                raise ValueError(f"{path}: entry ({si}, {sj}) above the diagonal")
            k = j * m + i
            if present[k]:
                raise ValueError(f"{path}: duplicate entry ({si}, {sj})")
            if not math.isfinite(v):
                raise ValueError(f"{path}: non-finite value {sv!r} at ({si}, {sj})")
            if i == j and v != 0.0:
                raise ValueError(f"{path}: nonzero diagonal entry at row {si}")
            present[k] = 1
            flat[k] = v
            seen += 1
        if seen != nnz:
            raise ValueError(f"{path}: {seen} entries, declared nnz={nnz}")
        return x
