"""CSV writer: chunk boundaries, value formatting, column checks and byte
equality with a plain one-row-at-a-time writer."""

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


def _columns(n, as_arrays):
    # a float grid, a mixed float/int column, strings, ints, booleans and
    # tiny floats; the grid, the ints and the booleans as numpy arrays or
    # as lists
    k = np.arange(n)
    numeric = [0.1 * k, k * 7, k % 2 == 0]
    grid, ints, flags = numeric if as_arrays else [col.tolist() for col in numeric]
    mixed = [j if j % 3 else 1.5 * j for j in range(n)]
    return [grid, mixed, [f"p{j % 4}" for j in range(n)], ints, flags, [1e-300 * j for j in range(n)]]


HEADER = ["t", "mixed", "name", "count", "flag", "tiny"]
META = {"sigma": 5.0, "seed": 3, "T": "20,40", "grid": (1.0, 2), "tool": "maintsim test"}


@pytest.mark.parametrize(
    "n", [0, 1, output._CHUNK_ROWS - 1, output._CHUNK_ROWS, output._CHUNK_ROWS + 1, 2 * output._CHUNK_ROWS + 3]
)
@pytest.mark.parametrize("as_arrays", [False, True])
def test_chunked_writer_matches_reference(tmp_path, n, as_arrays):
    columns = _columns(n, as_arrays)
    out = tmp_path / "out.csv"
    count = write_csv(out, HEADER, columns, META)
    assert count == n
    assert out.read_bytes() == _reference_csv(HEADER, zip(*columns), META)


def test_no_metadata_and_zero_rows(tmp_path):
    out = tmp_path / "empty.csv"
    assert write_csv(out, ["a", "b"], (np.array([]), [])) == 0
    assert out.read_bytes() == b"a,b\n"


def test_float64_columns_round_trip(tmp_path):
    # the theory command hands over its grid and the kernel output as arrays
    t = np.array([0.0, 0.25, 100.0 / 3])
    values = np.array([0.0, 1.0 / 3, 2e-17])
    out = tmp_path / "cols.csv"
    assert write_csv(out, ["t", "error_t"], (t, values)) == 3
    assert out.read_bytes() == _reference_csv(["t", "error_t"], zip(t.tolist(), values.tolist()))
    _, header, rows = read_csv(out)
    assert header == ["t", "error_t"]
    assert [[float(v) for v in r] for r in rows] == np.column_stack([t, values]).tolist()


def test_rejects_columns_of_unequal_length(tmp_path):
    bad = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_csv(bad, ["a", "b"], (np.array([1.0, 3.0]), [2.0]))
    assert not bad.exists()


def test_rejects_column_count_other_than_header(tmp_path):
    bad = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_csv(bad, ["a", "b"], ([1.0, 3.0],))
    with pytest.raises(ValueError):
        write_csv(bad, ["a"], ([1.0], [2.0]))
    assert not bad.exists()


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
        write_csv(out, ["x", "n"], (np.array([0.5, 1.5]), np.array([3, 4])), {"sigma": np.float64(5.0)})
        assert out.read_text() == "# sigma=5.0\nx,n\n0.5,3\n1.5,4\n"
