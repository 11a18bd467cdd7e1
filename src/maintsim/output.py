"""Byte-deterministic CSV and run-manifest writers.

Every experiment output starts with a ``# key=value`` metadata block
capturing the full resolved configuration and seed, so a file plus the tool
version pins down exactly how to regenerate it.  Floats are serialized with
``repr`` (shortest round-trip form) and nothing time- or host-dependent is
ever written.

Tables are handed over by columns: one float64 array or list per header
name.  ``write_csv`` formats them a chunk of rows at a time, each chunk by
one ``%`` operation on a row template repeated once per row (``%s`` of a
Python float is its ``repr``), and never builds row tuples of values.

A table of at least two chunks is written in contiguous parts, one per
usable CPU (each part at least one chunk long).  The calling process
formats the first part straight into the file; a forked child formats each
other part into its own unnamed temporary file, and the caller appends
those files in order once every child has exited.  Each part formats its
rows exactly as a single part would, so the bytes do not depend on the CPU
count.  Where ``os.fork`` or ``os.sched_getaffinity`` is missing, or the
caller runs other threads, the table is one part.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import tempfile
import threading
from contextlib import ExitStack
from dataclasses import asdict, dataclass

import numpy as np

# rows formatted and written per write call; bounds the memory a long grid
# needs, in the caller and in every forked child
_CHUNK_ROWS = 4096

# cells of exactly these types are formatted by ``%s`` as ``_fmt`` would
_PLAIN = {float, int, str, bool}


def _fmt(value) -> str:
    if isinstance(value, np.generic):  # np.float64 would repr as "np.float64(...)"
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(map(_fmt, value))
    return str(value)


def _cells(values) -> list:
    """A column slice as values that ``%s`` formats as ``_fmt`` does."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if set(map(type, values)) <= _PLAIN:
        return values
    return list(map(_fmt, values))


def _write_rows(write, columns, start: int, stop: int) -> None:
    """Rows ``start`` to ``stop`` of ``columns`` through ``write``, a chunk
    of ``_CHUNK_ROWS`` rows per call."""
    width = len(columns)
    row = ",".join(["%s"] * width) + "\n"
    for lo in range(start, stop, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, stop)
        cells = [None] * ((hi - lo) * width)
        for j, col in enumerate(columns):
            cells[j::width] = _cells(col[lo:hi])
        write(row * (hi - lo) % tuple(cells))


def _part_count(count: int) -> int:
    """Parts a table of ``count`` rows is written in: one per usable CPU,
    none shorter than a chunk."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1  # fork copies one thread only, so a threaded caller forks none
    return max(1, min(len(os.sched_getaffinity(0)), count // _CHUNK_ROWS))


def _format_part(tmp, encoding: str, columns, start: int, stop: int) -> None:
    """In a forked child: rows ``start`` to ``stop`` into ``tmp``, then exit
    0, or 1 if anything raised.  ``os._exit`` runs no cleanup of the
    parent's and flushes none of its buffers."""
    code = 1
    try:
        gc.disable()  # no finalizer of an object the parent still owns runs here
        with open(tmp.fileno(), "w", encoding=encoding, newline="", closefd=False) as out:
            _write_rows(out.write, columns, start, stop)
        code = 0
    finally:
        os._exit(code)


def _write_table(fh, columns, count: int) -> None:
    """Every data row into the text file ``fh``, in ``_part_count`` parts."""
    parts = _part_count(count)
    bounds = [count * k // parts for k in range(parts + 1)]
    with ExitStack() as stack:
        children = []
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                tmp = stack.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
                if pid == 0:
                    _format_part(tmp, fh.encoding, columns, start, stop)
                children.append((pid, tmp))
            _write_rows(fh.write, columns, 0, bounds[1])
        finally:
            # every child is waited for, in order, also when this part raised
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
        for start, stop, code in zip(bounds[1:-1], bounds[2:], codes):
            if code:
                raise OSError(f"the process formatting CSV rows {start} to {stop} exited with status {code}")
        fh.flush()
        for _, tmp in children:
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh.buffer)


def write_csv(path, header: list[str], columns, metadata: dict | None = None) -> int:
    """Write metadata comments, a header row, and data rows; returns the
    number of data rows.

    ``columns`` holds one sequence per header column, a numpy array or a
    list, all of one length.  Rows are formatted a chunk of ``_CHUNK_ROWS``
    at a time, so a long grid never exists as strings all at once, and a
    long table in parts on every usable CPU (see the module docstring).
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
        _write_table(fh, columns, count)
    return count


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


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce an experiment's outputs byte for byte."""

    experiment: str
    seed: int
    config: dict
    outputs: tuple[str, ...]
    tool_version: str


def write_manifest(path, manifest: RunManifest) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(manifest), fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_manifest(path) -> RunManifest:
    with open(path) as fh:
        data = json.load(fh)
    data["outputs"] = tuple(data["outputs"])
    return RunManifest(**data)
