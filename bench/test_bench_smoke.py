"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q bench/test_bench_smoke.py

It checks that every metric BENCHMARK.json declares is printed with its
unit, and that corrupted output is counted as a failed run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# runs the real CLI, then rewrites its CSV through the given expression
CORRUPT = (
    "import sys\n"
    "from maintsim.cli import main\n"
    "status = main(sys.argv[1:])\n"
    "path = sys.argv[sys.argv.index('--out') + 1]\n"
    "lines = open(path).read().splitlines(keepends=True)\n"
    "open(path, 'w').write(''.join({edit}))\n"
    "sys.exit(status)\n"
)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _corrupt_prefix(edit: str) -> list[str]:
    return [sys.executable, "-c", CORRUPT.format(edit=edit)]


def test_corrupted_output_counts_in_fail_ratio(tmp_path):
    session = run.Session("count", 1, run.SIZES["smoke"], str(tmp_path), time.monotonic() + 120)
    assert session.run()["problems"] == []

    # every MAINT bin a thousand times worse: MAINT now loses to MADRD
    worse = (
        "[l if not l.startswith('MAINT,') else ','.join(f[:3] + [repr(float(v) * 1000) for v in f[3:]]) + '\\n' "
        "for l in lines for f in [l.rstrip().split(',')]]"
    )
    problems = session.run(_corrupt_prefix(worse))["problems"]
    assert any("worse than MADRD" in p for p in problems), problems

    # a bytewise change that every check accepts still differs from the first run
    problems = session.run(_corrupt_prefix("lines + ['# extra=1\\n']"))["problems"]
    assert problems == ["output differs from the session's first run"]

    assert (session.attempted, session.failed) == (3, 2)


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "tracer.py"):
        (bench / name).write_bytes(open(os.path.join(BENCH_DIR, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
