"""Byte-deterministic CSV and run-manifest writers.

Every experiment output starts with a ``# key=value`` metadata block
capturing the full resolved configuration and seed, so a file plus the tool
version pins down exactly how to regenerate it.  Floats are serialized with
``repr`` (shortest round-trip form) and nothing time- or host-dependent is
ever written.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import islice

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


def _format_column(values: tuple) -> list[str]:
    kinds = set(map(type, values))
    plain = _PLAIN.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(plain or _fmt, values))


def write_csv(path, header: list[str], rows, metadata: dict | None = None) -> int:
    """Write metadata comments, a header row, and data rows; returns the
    number of data rows.

    Every row holds one value per header column.  Rows are formatted a
    chunk of ``_CHUNK_ROWS`` at a time, column by column, so memory stays
    flat however many rows an iterator yields.
    """
    count = 0
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        if metadata:
            for key in sorted(metadata):
                fh.write(f"# {key}={_fmt(metadata[key])}\n")
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            if set(map(len, chunk)) != {len(header)}:
                raise ValueError(f"every row must hold {len(header)} values, one per header column")
            columns = [_format_column(col) for col in zip(*chunk)]
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
            count += len(chunk)
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
