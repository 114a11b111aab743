"""Matrix Market reader/writer."""

import numpy as np
import pytest

from skewltl import SkewMatrixLower, mm_read, mm_write, random_skew
from skewltl.cli import _write_factor_files
from skewltl.core import PermutationVector, SkewTridiagonal, UnitLowerFactor
from skewltl.instrument import FlopCounter
from skewltl.unblocked import FactorizationResult


def test_roundtrip(tmp_path):
    x = random_skew(13, seed=5)
    path = tmp_path / "x.mtx"
    mm_write(path, x)
    y = mm_read(path)
    assert y.m == 13
    assert np.array_equal(x.dense(), y.dense())


def test_zero_matrix_header(tmp_path):
    path = tmp_path / "z.mtx"
    mm_write(path, SkewMatrixLower.zeros(5))
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real skew-symmetric"
    assert lines[1].split() == ["5", "5", "0"]
    assert len(lines) == 2


def test_handwritten_entries(tmp_path):
    path = tmp_path / "h.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "3 3 3\n"
        "2 1 4.0\n"
        "3 1 1.0\n"
        "3 2 5.0\n")
    x = mm_read(path)
    assert x.data[1, 0] == 4.0
    assert x.data[2, 0] == 1.0
    assert x.data[2, 1] == 5.0


def test_comment_lines_skipped(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "% a comment\n"
        "2 2 1\n"
        "2 1 -3.5\n")
    assert mm_read(path).data[1, 0] == -3.5


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%MatrixMarket matrix coordinate real skew-symmetric\n2 2 0\n")
    with pytest.raises(ValueError, match="header"):
        mm_read(path)


def test_symmetry_mismatch(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 0\n")
    with pytest.raises(ValueError, match="skew-symmetric"):
        mm_read(path)


def test_nonzero_diagonal_rejected(tmp_path):
    path = tmp_path / "diag.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n"
        "1 1 2.0\n")
    with pytest.raises(ValueError, match="diagonal"):
        mm_read(path)


def test_zero_diagonal_tolerated(tmp_path):
    path = tmp_path / "zdiag.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 2\n"
        "1 1 0.0\n"
        "2 1 1.5\n")
    assert mm_read(path).data[1, 0] == 1.5


def test_upper_entry_rejected(tmp_path):
    path = tmp_path / "up.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n"
        "1 2 2.0\n")
    with pytest.raises(ValueError, match="above the diagonal"):
        mm_read(path)


def test_nonsquare_rejected(tmp_path):
    path = tmp_path / "rect.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real skew-symmetric\n2 3 0\n")
    with pytest.raises(ValueError, match="square"):
        mm_read(path)


HEADER = "%%MatrixMarket matrix coordinate real skew-symmetric\n"


@pytest.mark.parametrize("name,body,match", [
    ("duplicate", "3 3 2\n2 1 1.0\n2 1 5.0\n", "duplicate entry"),
    ("duplicate-diagonal", "2 2 2\n1 1 0.0\n1 1 0.0\n", "duplicate entry"),
    ("nan", "2 2 1\n2 1 nan\n", "non-finite"),
    ("inf", "2 2 1\n2 1 -inf\n", "non-finite"),
    ("too-few", "3 3 3\n2 1 1.0\n", "1 entries, declared nnz=3"),
    ("too-many", "3 3 1\n2 1 1.0\n3 1 2.0\n", "2 entries, declared nnz=1"),
])
def test_malformed_entries_rejected(tmp_path, name, body, match):
    path = tmp_path / f"{name}.mtx"
    path.write_text(HEADER + body)
    with pytest.raises(ValueError, match=match):
        mm_read(path)


def test_write_format_exact(tmp_path):
    # row-major order over the strictly-lower triangle, explicit zeros
    # (including -0.0) dropped, values written as repr of the float
    x = SkewMatrixLower.zeros(4)
    x.data[1, 0], x.data[2, 0], x.data[3, 0] = 0.1, 0.0, -2.5
    x.data[2, 1], x.data[3, 1], x.data[3, 2] = 1e-300, -0.0, 3.0
    path = tmp_path / "x.mtx"
    mm_write(path, x)
    assert path.read_text() == (
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "4 4 4\n"
        "2 1 0.1\n"
        "3 2 1e-300\n"
        "4 1 -2.5\n"
        "4 3 3.0\n")
    scipy_io = pytest.importorskip("scipy.io")
    assert np.array_equal(scipy_io.mmread(path).toarray(), x.dense())


def test_factor_file_format_exact(tmp_path):
    # L column by column with its unit diagonal; the first column and the
    # stored entries below the subdiagonal slots, zeros dropped
    d = np.zeros((4, 4), order="F")
    d[2, 0], d[3, 0], d[3, 1] = 0.25, 0.0, -1.5
    d[2, 1] = 7.0  # the subdiagonal slot of L column 2: not part of L's body
    l = UnitLowerFactor(d, "ones", np.array([0.0, 0.5, 0.0]))
    result = FactorizationResult(l, SkewTridiagonal(np.array([1.0, 2.0, 3.0])),
                                 PermutationVector(np.zeros(4, dtype=np.int64), 4),
                                 FlopCounter())
    prefix = str(tmp_path / "fac")
    _write_factor_files(prefix, result)
    path = prefix + ".L.mtx"
    with open(path) as fh:
        assert fh.read() == (
            "%%MatrixMarket matrix coordinate real general\n"
            "4 4 7\n"
            "1 1 1.0\n"
            "3 1 0.5\n"
            "2 2 1.0\n"
            "3 2 0.25\n"
            "3 3 1.0\n"
            "4 3 -1.5\n"
            "4 4 1.0\n")
    scipy_io = pytest.importorskip("scipy.io")
    assert np.array_equal(scipy_io.mmread(path).toarray(), l.dense())
