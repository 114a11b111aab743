"""Matrix Market exchange for skew-symmetric matrices.

Coordinate format with the ``skew-symmetric`` qualifier, 1-based indices,
strictly-lower entries only.  The reader parses the entry lines in chunks
with ``np.loadtxt`` and validates each chunk with array operations.  It
rejects malformed headers, entry lines other than ``row col value`` with
integer indices, nonzero diagonal entries, entries above the diagonal,
duplicate coordinates, NaN or infinite values, and an entry count other
than the declared nnz (explicit zero diagonal entries count toward it);
the first offending entry in file order is named.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import SkewMatrixLower

_BANNER = "%%MatrixMarket"
_EXPECT = ("matrix", "coordinate", "real", "skew-symmetric")
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
# Entry lines parsed per np.loadtxt call: large enough to amortize the call,
# small enough that the parsed chunk (24 bytes a line) stays near 1.5 MB.
_CHUNK_ROWS = 1 << 16


def _write_coordinate(path, qualifier, m, segments, transpose=False):
    """Write the nonzeros of ``segments`` as an m x m coordinate file.

    ``segments`` is a sequence of (i, j, values): ``values`` runs down
    column j from row i (0-based).  With ``transpose`` each entry is written
    at the mirrored coordinate (j, i).  Every segment is formatted with one
    join, so per-entry Python objects live only as long as their segment.
    The files are ``real``, so complex values raise a ValueError before
    anything is written.
    """
    for _, _, values in segments:
        if np.iscomplexobj(values):
            raise ValueError(f"{path}: cannot write {values.dtype} entries to a real "
                             "Matrix Market file")
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


def _malformed_line(path, skip):
    """ValueError naming the first entry line after the ``skip`` header
    lines that is not ``row col value`` with integer indices."""
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            tokens = line.split("%", 1)[0].split()
            if n <= skip or not tokens:
                continue
            try:
                si, sj, sv = tokens
                int(si), int(sj), float(sv)
            except ValueError:
                return ValueError(f"{path}: line {n}: expected 'row col value' with "
                                  f"integer indices, got {line.strip()!r}")
    return ValueError(f"{path}: malformed entry line")


def _store_entries(path, e, x, present):
    """Validate one parsed chunk and write it into ``x``; the first
    offending entry in file order is reported."""
    m = x.m
    i, j, v = e["i"] - 1, e["j"] - 1, e["v"]
    out = (i < 0) | (i >= m) | (j < 0) | (j >= m)
    k = np.where(out, 0, j * m + i)
    again = np.ones(k.size, dtype=bool)
    again[np.unique(k, return_index=True)[1]] = False
    checks = (
        (out, "entry ({si}, {sj}) out of range"),
        (i < j, "entry ({si}, {sj}) above the diagonal"),
        (present[k] | again, "duplicate entry ({si}, {sj})"),
        (~np.isfinite(v), "non-finite value {sv!r} at ({si}, {sj})"),
        ((i == j) & (v != 0), "nonzero diagonal entry at row {si}"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        r = int(np.argmax(bad))
        msg = next(msg for mask, msg in checks if mask[r])
        raise ValueError(f"{path}: " + msg.format(si=int(e["i"][r]), sj=int(e["j"][r]),
                                                  sv=str(e["v"][r])))
    present[k] = True
    x.data.reshape(-1, order="F")[k] = v   # data is column-major: a view


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
        skip = 2
        while line.startswith("%"):
            line = fh.readline()
            skip += 1
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed size line")
        m, n, nnz = (int(t) for t in parts)
        if m != n:
            raise ValueError(f"{path}: matrix is {m}x{n}, expected square")
        x = SkewMatrixLower.zeros(m)
        present = np.zeros(m * m, dtype=bool)   # one flag byte per coordinate
        seen = 0
        with warnings.catch_warnings():
            # comment and blank lines, and the end of the file, are expected
            warnings.filterwarnings("ignore", ".*contained no data", UserWarning)
            while True:
                try:
                    e = np.loadtxt(fh, dtype=_ENTRY, comments="%",
                                   max_rows=_CHUNK_ROWS, ndmin=1)
                except ValueError:
                    raise _malformed_line(path, skip) from None
                if not e.size:
                    break
                _store_entries(path, e, x, present)
                seen += e.size
        if seen != nnz:
            raise ValueError(f"{path}: {seen} entries, declared nnz={nnz}")
        return x
