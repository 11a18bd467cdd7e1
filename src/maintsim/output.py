"""Byte-deterministic CSV and run-manifest writers, and the fork pool that
long tables and every Monte Carlo experiment run on.

Every experiment output starts with a ``# key=value`` metadata block
capturing the full resolved configuration and seed, so a file plus the tool
version pins down exactly how to regenerate it.  Floats are serialized with
``repr`` (shortest round-trip form) and nothing time- or host-dependent is
ever written.

Tables are handed over by columns of Python values (float, int, str,
bool): one sequence per header name that has a length and gives a list
for a slice of rows, such as a list or the lazy columns of ``theory``,
which compute their values when sliced.  ``write_csv`` slices and formats
them a chunk of rows at a time, each chunk by one ``%`` operation on a row
template repeated once per row (``%s`` of a Python float is its ``repr``),
and never builds row tuples of values.  The chunks go through
``map_ordered`` and are written in row order.  This module never imports
numpy.

``map_ordered(work, count)`` yields ``work(k)``, any picklable value, for
k = 0 to count - 1 in index order, whichever process computed it.  Given
more than one usable CPU, it forks one worker per CPU but one (at most one
per index) and the caller works too.  Each worker takes the next index
from one pipe when it is done with the last, so a worker on a busy CPU
takes fewer, and appends one pickled (k, failed, value) record per chunk
to its own unnamed temporary file, made before the fork; once every child
has exited, the caller reads the records back in index order.  Indices are
handed out in rounds of at most ``_ROUND`` (fresh workers each), so the
files never hold more than one round's results, and memory holds one chunk
per worker.  An exception raised in a child reaches the caller as itself;
one that does not survive pickling, and a child that dies without
returning its chunk, raise an ``OSError`` naming the chunk.  Given one
usable CPU or one index, and where ``os.fork`` or ``os.sched_getaffinity``
is missing or the caller runs other threads, no child is forked and
``work(k)`` is yielded as it is computed, never pickled.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import struct
import tempfile
import threading
from collections import namedtuple
from contextlib import ExitStack, contextmanager

# rows formatted and written per write call; bounds the memory a long grid
# needs, in the caller and in every forked worker
_CHUNK_ROWS = 4096

# cells of exactly these types are formatted by ``%s`` as ``_fmt`` would
_PLAIN = {float, int, str, bool}

# indices handed out per round of the pool; bounds what its temporary files
# hold, and at 4 bytes each a round fits in one page, the smallest buffer a
# pipe can have
_ROUND = 1024
_INDEX = struct.Struct("<I")


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _cells(values) -> list:
    """A column slice as values that ``%s`` formats as ``_fmt`` does."""
    if set(map(type, values)) <= _PLAIN:
        return values
    return list(map(_fmt, values))


def _format_rows(columns, start: int, stop: int) -> str:
    """Rows ``start`` to ``stop`` of ``columns``, formatted."""
    width = len(columns)
    row = ",".join(["%s"] * width) + "\n"
    cells = [None] * ((stop - start) * width)
    for j, col in enumerate(columns):
        cells[j::width] = _cells(col[start:stop])
    return row * (stop - start) % tuple(cells)


# ---------------------------------------------------------------------------
# fork pool


def _usable_cpus() -> int:
    """CPUs the pool may use: 1 where it cannot fork safely."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1  # fork copies one thread only, so a threaded caller forks none
    return len(os.sched_getaffinity(0))


def map_ordered(work, count: int, doing=lambda k: f"computing chunk {k}"):
    """``work(k)`` for k = 0 to ``count`` - 1, in index order, on every
    usable CPU (see the module docstring).  ``doing(k)`` names chunk k in
    the ``OSError`` of a worker that does not return it."""
    cpus = _usable_cpus()
    for lo in range(0, count, _ROUND):
        chunks = range(lo, min(lo + _ROUND, count))
        if min(cpus, len(chunks)) == 1:
            for k in chunks:
                yield work(k)
        else:
            yield from _pool_round(work, chunks, min(cpus, len(chunks)), doing)


def _pool_round(work, chunks: range, workers: int, doing):
    """``map_ordered`` over ``chunks`` with the caller and ``workers`` - 1
    forked children."""
    with ExitStack() as stack:
        files = [stack.enter_context(tempfile.TemporaryFile()) for _ in range(workers)]
        take, give = os.pipe()
        stack.callback(os.close, take)
        try:
            # every index before the first fork: the pipe ends when it is
            # empty, and no worker can lose an index that another needs
            os.write(give, b"".join(map(_INDEX.pack, chunks)))
        finally:
            os.close(give)
        children = []
        try:
            for out in files[1:]:
                try:
                    pid = os.fork()
                except OSError:
                    break  # at a process or memory limit: fewer workers
                if pid == 0:
                    _serve(work, take, out)
                children.append(pid)
            _take_chunks(work, take, files[0], in_child=False)
        except BaseException:
            for pid in children:  # their chunks are not needed any more
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            # every child is reaped, also when the caller's share raised
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
        yield from _read_back(files, chunks, codes, doing)


def _serve(work, take: int, out) -> None:
    """In a forked child: take chunks until the pipe is empty, then exit 0,
    or 1 if anything escaped.  ``os._exit`` runs no cleanup of the
    parent's and flushes none of its buffers."""
    code = 1
    try:
        gc.disable()  # no finalizer of an object the parent still owns runs here
        _take_chunks(work, take, out, in_child=True)
        code = 0
    finally:
        os._exit(code)


def _take_chunks(work, take: int, out, in_child: bool) -> None:
    """Compute the chunks whose indices this worker reads from the pipe
    ``take``, appending one pickled (k, failed, value) record of each to
    ``out``.  In a child, a chunk that raises, or whose value does not
    pickle, is recorded as a failure and empties the pipe, so that no
    worker starts another chunk."""
    while index := os.read(take, _INDEX.size):
        (k,) = _INDEX.unpack(index)
        try:
            record = pickle.dumps((k, False, work(k)))
        except BaseException as exc:
            if not in_child:
                raise
            out.write(pickle.dumps((k, True, _sendable(exc))))
            while os.read(take, 1 << 16):
                pass
            break
        out.write(record)
    out.flush()


def _sendable(exc: BaseException):
    """``exc``, or its repr if it does not survive pickling."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return repr(exc)


def _read_record(fh):
    """The next (k, failed, value) record of ``fh``, or None at its end or
    at a record cut short by a worker that died writing it."""
    try:
        return pickle.load(fh)
    except (EOFError, pickle.UnpicklingError):
        return None


def _read_back(files, chunks: range, codes: list, doing):
    """The results of ``chunks`` from the workers' ``files``, in index order;
    each file holds its worker's records in the order it took them."""
    for fh in files:
        fh.seek(0)
    heads = [_read_record(fh) for fh in files]
    for k in chunks:
        i = next((i for i, head in enumerate(heads) if head is not None and head[0] == k), None)
        if i is None:
            raise OSError(f"the process {doing(k)} {_how_it_ended(codes)}")
        _, failed, value = heads[i]
        heads[i] = _read_record(files[i])
        if failed:
            if isinstance(value, BaseException):
                raise value
            raise OSError(f"the process {doing(k)} raised {value}, which could not be sent back")
        yield value


def _how_it_ended(codes: list) -> str:
    """How the first child that failed ended, from its exit code."""
    code = next((code for code in codes if code), 0)
    if code < 0:
        return f"was killed by signal {-code}"
    return f"exited with status {code}" if code else "returned no result"


# ---------------------------------------------------------------------------
# outputs


def write_csv(path, header: list[str], columns, metadata: dict | None = None) -> int:
    """Write metadata comments, a header row, and data rows; returns the
    number of data rows.

    ``columns`` holds one sequence per header column, all of one length,
    each sliced a chunk of ``_CHUNK_ROWS`` rows at a time inside the work
    of ``map_ordered``: on every usable CPU, a column whose slices are
    computed when asked for is computed there too, and a long grid never
    exists as values or strings all at once.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header names")
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    count = lengths.pop() if lengths else 0
    with open(path, "w", newline="") as fh:
        if metadata:
            for key in sorted(metadata):
                fh.write(f"# {key}={_fmt(metadata[key])}\n")
        fh.write(",".join(header) + "\n")

        def rows(k: int) -> tuple[int, int]:
            return k * _CHUNK_ROWS, min(count, (k + 1) * _CHUNK_ROWS)

        for text in map_ordered(
            lambda k: _format_rows(columns, *rows(k)),
            -(-count // _CHUNK_ROWS),
            lambda k: "formatting CSV rows %d to %d" % rows(k),
        ):
            fh.write(text)
    return count


@contextmanager
def replaced_on_success(*paths):
    """One temporary name beside each of ``paths`` for the block to write.
    If the block succeeds, each is renamed onto its path, in order; if it
    fails, every one is unlinked, so a failed run leaves no file."""
    tag = f"{os.getpid()}.{os.urandom(4).hex()}"
    temps = [os.path.join(os.path.dirname(p), f".{os.path.basename(p)}.{tag}.tmp") for p in map(os.fspath, paths)]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            try:
                os.unlink(temp)
            except FileNotFoundError:
                pass
        raise


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    """Inverse of write_csv, with values left as strings."""
    metadata: dict = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                metadata[key] = value
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return metadata, header, rows


# everything needed to reproduce an experiment's outputs byte for byte:
# experiment and tool_version are strings, seed an int, config a dict and
# outputs a tuple of file names
RunManifest = namedtuple("RunManifest", ["experiment", "seed", "config", "outputs", "tool_version"])


def write_manifest(path, manifest: RunManifest) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(manifest._asdict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_manifest(path) -> RunManifest:
    import json

    with open(path) as fh:
        data = json.load(fh)
    data["outputs"] = tuple(data["outputs"])
    return RunManifest(**data)
