"""CSV writer: chunk boundaries, value formatting and byte equality with a
plain one-row-at-a-time writer."""

import numpy as np
import pytest

from maintsim import output
from maintsim.output import _fmt, read_csv, write_csv


def _reference_csv(header, rows, metadata=None) -> bytes:
    """One row per write, one formatted value at a time."""

    def fmt(value):
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, (list, tuple)):
            return ",".join(fmt(v) for v in value)
        return str(value)

    lines = [f"# {key}={fmt(metadata[key])}\n" for key in sorted(metadata or {})]
    lines.append(",".join(header) + "\n")
    lines += [",".join(fmt(v) for v in row) + "\n" for row in rows]
    return "".join(lines).encode()


def _rows(n):
    # a float grid, a mixed float/int column, strings, ints and booleans
    return [
        (0.1 * k, k if k % 3 else 1.5 * k, f"p{k % 4}", k * 7, k % 2 == 0, 1e-300 * k)
        for k in range(n)
    ]


HEADER = ["t", "mixed", "name", "count", "flag", "tiny"]
META = {"sigma": 5.0, "seed": 3, "T": "20,40", "grid": (1.0, 2), "tool": "maintsim test"}


@pytest.mark.parametrize(
    "n", [0, 1, output._CHUNK_ROWS - 1, output._CHUNK_ROWS, output._CHUNK_ROWS + 1, 2 * output._CHUNK_ROWS + 3]
)
@pytest.mark.parametrize("as_generator", [False, True])
def test_chunked_writer_matches_reference(tmp_path, n, as_generator):
    rows = _rows(n)
    out = tmp_path / "out.csv"
    count = write_csv(out, HEADER, (r for r in rows) if as_generator else rows, META)
    assert count == n
    assert out.read_bytes() == _reference_csv(HEADER, rows, META)


def test_no_metadata_and_zero_rows(tmp_path):
    out = tmp_path / "empty.csv"
    assert write_csv(out, ["a", "b"], iter(())) == 0
    assert out.read_bytes() == b"a,b\n"


def test_columns_zipped_from_lists(tmp_path):
    # the theory command hands over whole columns
    t = [0.0, 0.25, 100.0 / 3]
    values = np.array([0.0, 1.0 / 3, 2e-17]).tolist()
    out = tmp_path / "cols.csv"
    assert write_csv(out, ["t", "error_t"], zip(t, values)) == 3
    assert out.read_bytes() == _reference_csv(["t", "error_t"], list(zip(t, values)))
    _, header, rows = read_csv(out)
    assert header == ["t", "error_t"]
    assert [[float(v) for v in r] for r in rows] == [list(p) for p in zip(t, values)]


def test_rejects_row_of_wrong_width(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [(1.0, 2.0), (3.0,)])


class TestFmt:
    def test_numpy_scalars_format_as_python_values(self):
        assert _fmt(np.float64(1.5)) == "1.5"
        assert _fmt(np.float64(0.1)) == repr(0.1)
        assert _fmt(np.int64(7)) == "7"
        assert _fmt(np.bool_(True)) == "True"
        assert _fmt(np.str_("MAINT")) == "MAINT"
        assert _fmt((np.float64(2.0), np.int32(3))) == "2.0,3"

    def test_python_values(self):
        assert _fmt(0.1) == "0.1"
        assert _fmt(1e-300) == "1e-300"
        assert _fmt(True) == "True"
        assert _fmt(42) == "42"
        assert _fmt("x") == "x"
        assert _fmt([1.0, 2]) == "1.0,2"

    def test_numpy_column_in_csv(self, tmp_path):
        out = tmp_path / "np.csv"
        rows = list(zip(np.array([0.5, 1.5]), np.array([3, 4])))
        write_csv(out, ["x", "n"], rows, {"sigma": np.float64(5.0)})
        assert out.read_text() == "# sigma=5.0\nx,n\n0.5,3\n1.5,4\n"
