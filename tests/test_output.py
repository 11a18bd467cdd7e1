"""CSV writer and fork pool: chunk boundaries, chunks handed out on demand
and in rounds, forked workers that fail or die, value formatting, column
checks and byte equality with a plain one-row-at-a-time writer."""

import os
import pickle
import signal
import tempfile
import time

import numpy as np
import pytest

from maintsim import output
from maintsim.output import _fmt, map_ordered, read_csv, write_csv


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


# every chunk boundary, and every row count where a table gains a chunk
@pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 3, 3 * C - 1, 3 * C, 3 * C + 1])
@pytest.mark.parametrize("as_arrays", [False, True])
def test_chunked_writer_matches_reference(tmp_path, monkeypatch, forks, n, as_arrays):
    # on 1, 2 and 3 CPUs: a table of k chunks is formatted by min(CPUs, k)
    # workers, the caller and min(CPUs, k) - 1 forked children, so these n
    # fall on each side of every chunk boundary and worker count
    columns = _columns(n, as_arrays)
    want = _reference_csv(HEADER, zip(*columns), META)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "out.csv"
    for cpus in (1, 2, 3):
        _set_cpus(monkeypatch, cpus)
        forks.clear()
        assert write_csv(out, HEADER, columns, META) == n
        assert out.read_bytes() == want, cpus
        assert len(forks) == max(1, min(cpus, -(-n // C))) - 1
        assert list(tmp_path.iterdir()) == [out]


class _Unpicklable(Exception):
    """Pickles, but cannot be rebuilt from its pickle."""

    def __init__(self, message, detail):
        super().__init__(message)


class _Cell:
    """Formats as "cell", or does ``in_parent`` in the process that made it
    and ``in_child`` in every other: "raise", "unpicklable" or "die".  The
    process that made it first sleeps ``parent_sleep`` seconds, once, so
    that the children take chunks."""

    def __init__(self, in_parent: str = "cell", in_child: str = "cell", parent_sleep: float = 0.0):
        self.parent = os.getpid()
        self.in_parent = in_parent
        self.in_child = in_child
        self.parent_sleep = parent_sleep

    def __str__(self):
        mine = os.getpid() == self.parent
        if mine:
            time.sleep(self.parent_sleep)
            self.parent_sleep = 0.0
        action = self.in_parent if mine else self.in_child
        if action == "raise":
            raise RuntimeError("injected")
        if action == "unpicklable":
            raise _Unpicklable("injected", "detail")
        if action == "die":
            os.kill(os.getpid(), signal.SIGKILL)
        return "cell"


def _write_cells(tmp_path, monkeypatch, cell, chunks=3):
    _set_cpus(monkeypatch, 3)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "out.csv"
    write_csv(out, ["x"], ([cell] * (chunks * C),))
    return out


def test_failing_child_raises_os_error(tmp_path, monkeypatch, forks):
    # a child killed while it formats a chunk: the caller names the rows
    # that no process returned, after reaping every child
    with pytest.raises(OSError, match=f"formatting CSV rows [0-9]+ to [0-9]+ was killed by signal {signal.SIGKILL}"):
        _write_cells(tmp_path, monkeypatch, _Cell(in_child="die", parent_sleep=0.5))
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.iterdir()) == [tmp_path / "out.csv"]


def test_child_exception_reaches_the_caller_as_itself(tmp_path, monkeypatch, forks):
    with pytest.raises(RuntimeError, match="^injected$"):
        _write_cells(tmp_path, monkeypatch, _Cell(in_child="raise", parent_sleep=0.5))
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_exception_that_cannot_be_rebuilt_is_an_os_error(tmp_path, monkeypatch, forks):
    with pytest.raises(OSError, match=r"formatting CSV rows [0-9]+ to [0-9]+ raised _Unpicklable\('injected'\)"):
        _write_cells(tmp_path, monkeypatch, _Cell(in_child="unpicklable", parent_sleep=0.5))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_parent_part_reaps_every_child(tmp_path, monkeypatch, forks):
    # the children are killed and reaped before the parent's error
    # propagates
    with pytest.raises(RuntimeError, match="injected"):
        _write_cells(tmp_path, monkeypatch, _Cell(in_parent="raise"))
    assert len(forks) == 2
    # no child is left running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.iterdir()) == [tmp_path / "out.csv"]


def _pid_of_chunk(parent_sleep):
    """A pool task: the pid that computed chunk k, as bytes; the caller
    sleeps ``parent_sleep`` seconds on each of its chunks."""
    parent = os.getpid()

    def work(k):
        if os.getpid() == parent:
            time.sleep(parent_sleep)
        return pickle.dumps((k, os.getpid()))

    return work


def test_a_slow_worker_takes_fewer_chunks(monkeypatch, forks):
    # chunks are handed out on demand: while the caller sleeps on its first
    # chunk, the child takes every other one (an even split would leave the
    # caller half of them)
    _set_cpus(monkeypatch, 2)
    got = [pickle.loads(data) for data in map_ordered(_pid_of_chunk(1.0), 40)]
    assert [k for k, _ in got] == list(range(40))
    assert len(forks) == 1
    assert sum(pid == os.getpid() for _, pid in got) == 1


def test_indices_are_handed_out_in_rounds(monkeypatch, forks):
    # rounds of 3: three rounds fork one child each, and the last round,
    # one index, runs in the caller
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(output, "_ROUND", 3)
    got = [pickle.loads(data) for data in map_ordered(_pid_of_chunk(0.0), 10)]
    assert [k for k, _ in got] == list(range(10))
    assert len(forks) == 3
    assert got[9][1] == os.getpid()


def test_a_failed_fork_leaves_the_chunks_to_fewer_workers(monkeypatch):
    # at a process limit the second fork fails: the caller and the one
    # child take every chunk
    _set_cpus(monkeypatch, 3)
    real_fork, made = os.fork, []

    def fork():
        if made:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(output.os, "fork", fork)
    got = [pickle.loads(data) for data in map_ordered(_pid_of_chunk(0.0), 30)]
    assert [k for k, _ in got] == list(range(30))
    assert len(made) == 1
    assert {pid for _, pid in got} <= {os.getpid(), made[0]}


def test_keyboard_interrupt_in_the_caller_reaps_every_child(monkeypatch, forks):
    # the children would sleep for a minute; the caller's interrupt kills
    # them, and every one is reaped before it propagates
    _set_cpus(monkeypatch, 3)
    parent = os.getpid()

    def work(k):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60.0)
        return b""

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        list(map_ordered(work, 10))
    assert time.monotonic() - start < 30.0
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_threaded_caller_forks_nothing(monkeypatch, forks):
    import threading

    _set_cpus(monkeypatch, 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30.0,))
    other.start()
    try:
        got = [pickle.loads(data) for data in map_ordered(_pid_of_chunk(0.0), 5)]
    finally:
        stop.set()
        other.join(timeout=30.0)
    assert not other.is_alive()
    assert got == [(k, os.getpid()) for k in range(5)]
    assert forks == []


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
