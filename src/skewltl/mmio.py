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


def _write_coordinate(path, qualifier, m, segments, transpose=False):
    """Write the nonzeros of ``segments`` as an m x m coordinate file.

    ``segments`` is a sequence of (i, j, values): ``values`` runs down
    column j from row i (0-based).  With ``transpose`` each entry is written
    at the mirrored coordinate (j, i).  Every segment is formatted with one
    join, so per-entry Python objects live only as long as their segment.
    """
    nnz = sum(int(np.count_nonzero(v)) for _, _, v in segments)
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {qualifier}\n{m} {m} {nnz}\n")
        for i, j, values in segments:
            nz = np.flatnonzero(values)
            rows = (nz + (i + 1)).tolist()
            vals = values[nz].astype(float, copy=False).tolist()
            if transpose:
                fh.write("".join(f"{j + 1} {r} {v!r}\n" for r, v in zip(rows, vals)))
            else:
                fh.write("".join(f"{r} {j + 1} {v!r}\n" for r, v in zip(rows, vals)))


def mm_write(path, x: SkewMatrixLower):
    """Write the strictly-lower entries of ``x`` row by row."""
    rows = x.data.T
    _write_coordinate(path, "skew-symmetric", x.m,
                      [(0, i, rows[:i, i]) for i in range(x.m)], transpose=True)


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
