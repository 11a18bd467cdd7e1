"""Byte-deterministic CSV and run-manifest writers.

Every experiment output starts with a ``# key=value`` metadata block
capturing the full resolved configuration and seed, so a file plus the tool
version pins down exactly how to regenerate it.  Floats are serialized with
``repr`` (shortest round-trip form) and nothing time- or host-dependent is
ever written.

Tables are handed over by columns: one float64 array or list per header
name.  ``write_csv`` formats them a chunk of rows at a time, each column
slice by one map over its Python values, and never builds row tuples of
values.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

# rows formatted and written per fh.write; bounds the memory a long grid needs
_CHUNK_ROWS = 4096

# a column holding one of these types only is formatted by one C-level map
_PLAIN = {float: float.__repr__, int: int.__repr__, str: str}


def _fmt(value) -> str:
    if isinstance(value, np.generic):  # np.float64 would repr as "np.float64(...)"
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(map(_fmt, value))
    return str(value)


def _format_column(values) -> list[str]:
    if isinstance(values, np.ndarray):
        values = values.tolist()
    kinds = set(map(type, values))
    plain = _PLAIN.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(plain or _fmt, values))


def write_csv(path, header: list[str], columns, metadata: dict | None = None) -> int:
    """Write metadata comments, a header row, and data rows; returns the
    number of data rows.

    ``columns`` holds one sequence per header column, a numpy array or a
    list, all of one length.  Rows are formatted a chunk of ``_CHUNK_ROWS``
    at a time, column by column, so a long grid never exists as strings all
    at once.
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
        for start in range(0, count, _CHUNK_ROWS):
            cells = [_format_column(col[start : start + _CHUNK_ROWS]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
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
