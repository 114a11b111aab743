"""Matrix Market reader/writer."""

import numpy as np
import pytest

from skewltl import SkewMatrixLower, mm_read, mm_write, mmio, random_skew
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
    # entry lines are "row col value" with integer indices; the line number
    # counts the header, comment and blank lines
    ("two-fields", "% c\n3 3 2\n3 1 1.0\n\n2 1\n", r"line 6: expected 'row col value'"),
    ("four-fields", "3 3 2\n3 1 1.0\n2 1 1.0 7\n", r"line 4: expected 'row col value'"),
    ("non-integer-index", "3 3 1\n2.5 1 1.0\n", r"line 3: expected 'row col value'"),
    ("float-index", "3 3 1\n2.0 1 1.0\n", r"line 3: expected 'row col value'"),
    ("bad-value", "3 3 1\n2 1 abc\n", r"line 3: expected 'row col value'"),
])
def test_malformed_entries_rejected(tmp_path, name, body, match):
    path = tmp_path / f"{name}.mtx"
    path.write_text(HEADER + body)
    with pytest.raises(ValueError, match=rf"{name}\.mtx: .*{match}"):
        mm_read(path)


@pytest.mark.parametrize("chunk", [1, 2, 1 << 16])
def test_first_offending_entry_reported(tmp_path, monkeypatch, chunk):
    # a NaN precedes an entry above the diagonal: the NaN is named
    monkeypatch.setattr(mmio, "_CHUNK_ROWS", chunk)
    path = tmp_path / "order.mtx"
    path.write_text(HEADER + "4 4 3\n2 1 1.0\n3 1 nan\n1 3 2.0\n")
    with pytest.raises(ValueError, match=r"non-finite value 'nan' at \(3, 1\)"):
        mm_read(path)


def test_comments_and_blank_lines_in_body(tmp_path):
    path = tmp_path / "cb.mtx"
    path.write_text(HEADER + "3 3 3\n2 1 4.0\n\n% middle\n3 1 1.0\n   \n"
                    "% another\n3 2 5.0\n\n")
    x = mm_read(path)
    assert (x.data[1, 0], x.data[2, 0], x.data[2, 1]) == (4.0, 1.0, 5.0)


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_duplicate_across_chunks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(mmio, "_CHUNK_ROWS", chunk)
    path = tmp_path / "dup.mtx"
    path.write_text(HEADER + "4 4 4\n2 1 1.0\n3 1 2.0\n4 1 3.0\n2 1 5.0\n")
    with pytest.raises(ValueError, match=r"duplicate entry \(2, 1\)"):
        mm_read(path)


def test_roundtrip_several_chunks(tmp_path):
    m = 400   # 79,800 entries: two chunks
    assert m * (m - 1) // 2 > mmio._CHUNK_ROWS
    x = random_skew(m, seed=6)
    path = tmp_path / "big.mtx"
    mm_write(path, x)
    y = mm_read(path)
    assert np.array_equal(x.data, y.data)
    scipy_io = pytest.importorskip("scipy.io")
    assert np.array_equal(scipy_io.mmread(path).toarray(), y.dense())


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


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_complex_entries_rejected(tmp_path, dtype):
    # the files are real: writing only the real part would read back as a
    # different matrix
    x = SkewMatrixLower((random_skew(5, seed=7).data * (1 + 1j)).astype(dtype))
    path = tmp_path / "c.mtx"
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        mm_write(path, x)
    assert not path.exists()


def test_exact_entries_written(tmp_path):
    from fractions import Fraction
    x = SkewMatrixLower.zeros(3, dtype=object)
    x.data[1, 0], x.data[2, 0], x.data[2, 1] = Fraction(1, 4), 0, Fraction(-3)
    path = tmp_path / "q.mtx"
    mm_write(path, x)
    assert path.read_text().splitlines()[1:] == ["3 3 2", "2 1 0.25", "3 2 -3.0"]
    assert np.array_equal(mm_read(path).dense(), x.dense().astype(float))


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
