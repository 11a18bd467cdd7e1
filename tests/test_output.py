"""CSV writer: chunk and part boundaries, forked parts that fail, value
formatting, column checks and byte equality with a plain one-row-at-a-time
writer."""

import os
import tempfile

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


C = output._CHUNK_ROWS


@pytest.fixture
def forks(monkeypatch):
    """Every fork the writer makes, as seen from the process that made it."""
    made = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(output.os, "fork", fork)
    return made


def _set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(output.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


# every chunk boundary, and every row count where a table gains a part
@pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 3, 3 * C - 1, 3 * C, 3 * C + 1])
@pytest.mark.parametrize("as_arrays", [False, True])
def test_chunked_writer_matches_reference(tmp_path, monkeypatch, forks, n, as_arrays):
    # on 1, 2 and 3 CPUs: a table of k chunks is written in min(CPUs, k)
    # parts with the rows split evenly, so these n fall on each side of
    # every part boundary
    columns = _columns(n, as_arrays)
    want = _reference_csv(HEADER, zip(*columns), META)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "out.csv"
    for cpus in (1, 2, 3):
        _set_cpus(monkeypatch, cpus)
        forks.clear()
        assert write_csv(out, HEADER, columns, META) == n
        assert out.read_bytes() == want, cpus
        assert len(forks) == max(1, min(cpus, n // C)) - 1
        assert list(tmp_path.iterdir()) == [out]


class _Cell:
    """Formats as "cell", but raises in the process that made it if
    ``fails_in_parent``, else in every other process."""

    def __init__(self, fails_in_parent: bool):
        self.parent = os.getpid()
        self.fails_in_parent = fails_in_parent

    def __str__(self):
        if (os.getpid() == self.parent) == self.fails_in_parent:
            raise RuntimeError("injected")
        return "cell"


def test_failing_child_raises_os_error(tmp_path, monkeypatch, forks):
    _set_cpus(monkeypatch, 3)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "out.csv"
    with pytest.raises(OSError, match="exited with status 1"):
        write_csv(out, ["x"], ([_Cell(fails_in_parent=False)] * (3 * C),))
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.iterdir()) == [out]


def test_failing_parent_part_reaps_every_child(tmp_path, monkeypatch, forks):
    # the children are waited for before the parent's error propagates
    _set_cpus(monkeypatch, 3)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="injected"):
        write_csv(out, ["x"], ([_Cell(fails_in_parent=True)] * (3 * C),))
    assert len(forks) == 2
    # no child is left running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.iterdir()) == [out]


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
