"""CSV writer and fork pool: chunk boundaries, chunks handed out on demand
and in rounds, values of any picklable type sent back, forked workers that
fail or die, value formatting, column checks and byte equality with a
plain one-row-at-a-time writer."""

import os
import pickle
import signal
import tempfile
import time

import pytest

from maintsim import output
from maintsim.output import _fmt, map_ordered, read_csv, write_csv


def _reference_csv(header, rows, metadata=None) -> bytes:
    """One row per write, one formatted value at a time."""

    def fmt(value):
        return repr(value) if isinstance(value, float) else str(value)

    lines = [f"# {key}={fmt(metadata[key])}\n" for key in sorted(metadata or {})]
    lines.append(",".join(header) + "\n")
    lines += [",".join(fmt(v) for v in row) + "\n" for row in rows]
    return "".join(lines).encode()


class _Lazy:
    """``fn`` of the row index, computed when sliced, as ``theory``'s
    columns are."""

    def __init__(self, fn, n):
        self.fn, self.n = fn, n

    def __len__(self):
        return self.n

    def __getitem__(self, rows):
        return list(map(self.fn, range(self.n)[rows]))


def _columns(n, lazy):
    # a float grid, a mixed float/int column, strings, ints, booleans and
    # tiny floats; the grid, the ints and the booleans as lists or as lazy
    # columns
    numeric = [lambda j: 0.1 * j, lambda j: j * 7, lambda j: j % 2 == 0]
    grid, ints, flags = (_Lazy(fn, n) if lazy else list(map(fn, range(n))) for fn in numeric)
    mixed = [j if j % 3 else 1.5 * j for j in range(n)]
    return [grid, mixed, [f"p{j % 4}" for j in range(n)], ints, flags, [1e-300 * j for j in range(n)]]


HEADER = ["t", "mixed", "name", "count", "flag", "tiny"]
META = {"sigma": 5.0, "seed": 3, "T": "20,40", "flag": True, "tool": "maintsim test"}


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


# every chunk boundary, and every row count where a table gains a chunk
@pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 3, 3 * C - 1, 3 * C, 3 * C + 1])
@pytest.mark.parametrize("lazy", [False, True])
def test_chunked_writer_matches_reference(tmp_path, monkeypatch, set_cpus, forks, n, lazy):
    # on 1, 2 and 3 CPUs: a table of k chunks is formatted by min(CPUs, k)
    # workers, the caller and min(CPUs, k) - 1 forked children, so these n
    # fall on each side of every chunk boundary and worker count
    columns = _columns(n, lazy)
    want = _reference_csv(HEADER, zip(*(col[:] for col in columns)), META)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "out.csv"
    for cpus in (1, 2, 3):
        set_cpus(cpus)
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


def _write_cells(tmp_path, monkeypatch, set_cpus, cell, chunks=3):
    set_cpus(3)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "out.csv"
    write_csv(out, ["x"], ([cell] * (chunks * C),))
    return out


def test_failing_child_raises_os_error(tmp_path, monkeypatch, set_cpus, forks):
    # a child killed while it formats a chunk: the caller names the rows
    # that no process returned, after reaping every child
    with pytest.raises(OSError, match=f"formatting CSV rows [0-9]+ to [0-9]+ was killed by signal {signal.SIGKILL}"):
        _write_cells(tmp_path, monkeypatch, set_cpus, _Cell(in_child="die", parent_sleep=0.5))
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.iterdir()) == [tmp_path / "out.csv"]


def test_a_record_cut_short_is_a_chunk_not_returned():
    # a worker killed while it writes a record leaves a cut pickle: the
    # records before it come back, and its chunk is named as not returned
    with tempfile.TemporaryFile() as fh:
        fh.write(pickle.dumps((0, False, "whole")) + pickle.dumps((1, False, "x" * 100_000))[:-10])
        got = output._read_back([fh], range(2), [-signal.SIGKILL], lambda k: f"computing chunk {k}")
        assert next(got) == "whole"
        with pytest.raises(OSError, match=f"computing chunk 1 was killed by signal {signal.SIGKILL}"):
            next(got)


def test_child_exception_reaches_the_caller_as_itself(tmp_path, monkeypatch, set_cpus, forks):
    with pytest.raises(RuntimeError, match="^injected$"):
        _write_cells(tmp_path, monkeypatch, set_cpus, _Cell(in_child="raise", parent_sleep=0.5))
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_exception_that_cannot_be_rebuilt_is_an_os_error(tmp_path, monkeypatch, set_cpus, forks):
    with pytest.raises(OSError, match=r"formatting CSV rows [0-9]+ to [0-9]+ raised _Unpicklable\('injected'\)"):
        _write_cells(tmp_path, monkeypatch, set_cpus, _Cell(in_child="unpicklable", parent_sleep=0.5))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_parent_part_reaps_every_child(tmp_path, monkeypatch, set_cpus, forks):
    # the children are killed and reaped before the parent's error
    # propagates
    with pytest.raises(RuntimeError, match="injected"):
        _write_cells(tmp_path, monkeypatch, set_cpus, _Cell(in_parent="raise"))
    assert len(forks) == 2
    # no child is left running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.iterdir()) == [tmp_path / "out.csv"]


def _pid_of_chunk(parent_sleep):
    """A pool task: chunk k and the pid that computed it; the caller
    sleeps ``parent_sleep`` seconds on each of its chunks."""
    parent = os.getpid()

    def work(k):
        if os.getpid() == parent:
            time.sleep(parent_sleep)
        return k, os.getpid()

    return work


def test_one_cpu_yields_each_value_as_computed_and_never_pickles(monkeypatch, set_cpus, forks):
    set_cpus(1)
    values = [object() for _ in range(3)]

    def unpicklable(*args, **kwargs):
        raise AssertionError("pickled on one CPU")

    monkeypatch.setattr(output.pickle, "dumps", unpicklable)
    assert all(got is value for got, value in zip(map_ordered(values.__getitem__, 3), values, strict=True))
    assert forks == []


def test_values_of_any_picklable_type_come_back_equal(set_cpus, forks):
    # a child's values travel as pickles, the caller's own as well
    set_cpus(3)
    work = _pid_of_chunk(0.0)
    got = list(map_ordered(lambda k: {"k": work(k), "text": "x" * k, "raw": bytes(k), "none": None}, 200))
    assert [value["k"][0] for value in got] == list(range(200))
    assert all(value["text"] == "x" * k and value["raw"] == bytes(k) and value["none"] is None for k, value in enumerate(got))
    assert len(forks) == 2


def test_a_value_that_does_not_pickle_in_a_child_raises_its_pickling_error(set_cpus, forks):
    # the caller sleeps on its first chunk, so the child takes the second
    set_cpus(2)
    parent = os.getpid()

    def work(k):
        if os.getpid() == parent:
            time.sleep(0.5)
            return k
        return lambda: k

    with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
        list(map_ordered(work, 20))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_slow_worker_takes_fewer_chunks(set_cpus, forks):
    # chunks are handed out on demand: while the caller sleeps on its first
    # chunk, the child takes every other one (an even split would leave the
    # caller half of them)
    set_cpus(2)
    got = list(map_ordered(_pid_of_chunk(1.0), 40))
    assert [k for k, _ in got] == list(range(40))
    assert len(forks) == 1
    assert sum(pid == os.getpid() for _, pid in got) == 1


def test_indices_are_handed_out_in_rounds(monkeypatch, set_cpus, forks):
    # rounds of 3: three rounds fork one child each, and the last round,
    # one index, runs in the caller
    set_cpus(2)
    monkeypatch.setattr(output, "_ROUND", 3)
    got = list(map_ordered(_pid_of_chunk(0.0), 10))
    assert [k for k, _ in got] == list(range(10))
    assert len(forks) == 3
    assert got[9][1] == os.getpid()


def test_a_failed_fork_leaves_the_chunks_to_fewer_workers(monkeypatch, set_cpus):
    # at a process limit the second fork fails: the caller and the one
    # child take every chunk
    set_cpus(3)
    real_fork, made = os.fork, []

    def fork():
        if made:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(output.os, "fork", fork)
    got = list(map_ordered(_pid_of_chunk(0.0), 30))
    assert [k for k, _ in got] == list(range(30))
    assert len(made) == 1
    assert {pid for _, pid in got} <= {os.getpid(), made[0]}


def test_keyboard_interrupt_in_the_caller_reaps_every_child(set_cpus, forks):
    # the children would sleep for a minute; the caller's interrupt kills
    # them, and every one is reaped before it propagates
    set_cpus(3)
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


def test_a_threaded_caller_forks_nothing(set_cpus, forks):
    import threading

    set_cpus(2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30.0,))
    other.start()
    try:
        got = list(map_ordered(_pid_of_chunk(0.0), 5))
    finally:
        stop.set()
        other.join(timeout=30.0)
    assert not other.is_alive()
    assert got == [(k, os.getpid()) for k in range(5)]
    assert forks == []


def test_no_metadata_and_zero_rows(tmp_path):
    out = tmp_path / "empty.csv"
    assert write_csv(out, ["a", "b"], ([], [])) == 0
    assert out.read_bytes() == b"a,b\n"


def test_float64_columns_round_trip(tmp_path):
    # every float is written as its repr, so it reads back bit for bit
    t = [0.0, 0.25, 100.0 / 3]
    values = [0.0, 1.0 / 3, 2e-17]
    out = tmp_path / "cols.csv"
    assert write_csv(out, ["t", "error_t"], (t, values)) == 3
    assert out.read_bytes() == _reference_csv(["t", "error_t"], zip(t, values))
    _, header, rows = read_csv(out)
    assert header == ["t", "error_t"]
    assert [[float(v) for v in r] for r in rows] == [list(pair) for pair in zip(t, values)]


def test_rejects_columns_of_unequal_length(tmp_path):
    bad = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_csv(bad, ["a", "b"], ([1.0, 3.0], [2.0]))
    assert not bad.exists()


def test_rejects_column_count_other_than_header(tmp_path):
    bad = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_csv(bad, ["a", "b"], ([1.0, 3.0],))
    with pytest.raises(ValueError):
        write_csv(bad, ["a"], ([1.0], [2.0]))
    assert not bad.exists()


class TestFmt:
    def test_python_values(self):
        assert _fmt(0.1) == "0.1"
        assert _fmt(1e-300) == "1e-300"
        assert _fmt(True) == "True"
        assert _fmt(42) == "42"
        assert _fmt("x") == "x"
