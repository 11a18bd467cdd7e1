"""Run one maintsim CLI invocation in-process with every layer traced.

Usage::

    python bench/tracer.py SPANS_JSON -- <maintsim CLI arguments>

The tracer wraps each public function of ``maintsim.mobility``,
``protocols``, ``montecarlo``, ``analytic``, ``output`` and ``cli`` and
rebinds the wrapper in every module namespace that binds the original by
name (``protocols.position_at`` and ``montecarlo.position_at`` as well as
``mobility.position_at``), so calls across modules are seen too.  No file
of the package is edited.  Each call records a span (id, parent id, layer,
start, end) in memory; counts are recorded at the same boundaries.  When the
CLI returns, the spans and counts are written to SPANS_JSON and the process
exits with the CLI's exit code.

``layer_stats`` turns a spans file into per-layer call counts and self
times (span time minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# dependency order; also the order in which import times are measured
MODULES = ("mobility", "analytic", "protocols", "montecarlo", "output", "cli")

# functions that share a layer; every other public function is its own
# layer, named <module>.<function>
GROUPS = {
    "protocols": {
        "interpolate": "maint",
        "maint_init": "maint",
        "maint_on_query": "maint",
        "maint_on_timer": "maint",
        "extrapolate_madrd": "madrd",
        "madrd_on_localization": "madrd",
        "dvm_next_interval": "dvm",
        "dvm_on_localization": "dvm",
    },
    "analytic": {
        name: "moments"
        for name in (
            "cond_waypoint_time_moment",
            "cond_interarrival_moment",
            "cond_position_second_moment",
            "position_second_moment_given_count",
            "position_second_moment",
            "displacement_cross_moment",
        )
    },
    # argparse, settings and row assembly all count as the CLI's own work
    "cli": {"cmd_theory": "main", "cmd_simulate": "main", "read_config_file": "main", "entry": "main"},
}

RUNNERS = ("run_maint_timer", "run_maint_query_driven", "run_madrd", "run_sfr", "run_dvm")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_legs(counts, args, kwargs, result):
    counts["mobility.legs"] += len(result.start_times)


def _count_points(counts, args, kwargs, result):
    counts["mobility.position_at.points"] += int(np.size(_arg(args, kwargs, 1, "t")))


def _count_estimates(counts, args, kwargs, result):
    est = result[0]
    counts["montecarlo.queries"] += len(est)
    counts["montecarlo.answered"] += int((~np.isnan(est).any(axis=1)).sum())


def _count_windows(counts, args, kwargs, result):
    counts["montecarlo.windows"] += int(_arg(args, kwargs, 4, "n_windows"))


def _count_records(counts, args, kwargs, result):
    counts["montecarlo.records"] += len(result)


def _count_csv(counts, args, kwargs, result):
    counts["output.rows"] += result
    counts["output.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_manifest(counts, args, kwargs, result):
    counts["output.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


COUNTERS = {
    "mobility.generate_trajectory": _count_legs,
    "mobility.position_at": _count_points,
    "montecarlo.sample_window_errors": _count_windows,
    "montecarlo.collect_error_records": _count_records,
    "output.write_csv": _count_csv,
    "output.write_manifest": _count_manifest,
    **{f"montecarlo.{name}": _count_estimates for name in RUNNERS},
}


class Tracer:
    """In-memory span recorder for one traced run (one trace id)."""

    def __init__(self) -> None:
        self.trace_id = f"{os.getpid()}-{time.time_ns()}"
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, layer, start, end))
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every public function of the traced modules and rebind the
        wrapper wherever the original is bound by name."""
        package = importlib.import_module("maintsim")
        modules = [importlib.import_module(f"maintsim.{m}") for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, modules):
            groups = GROUPS.get(short, {})
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = self.wrap(f"{short}.{groups.get(name, name)}", obj)
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, name, wrappers[id(obj)])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"trace_id": self.trace_id, "spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_stats(path) -> tuple[dict, dict, float]:
    """Per-layer ``{"calls": n, "self_s": s}``, the counts, and the time
    covered by root spans (the CLI's ``main``) of a spans file."""
    with open(path) as fh:
        data = json.load(fh)
    child_time: Counter = Counter()
    for _sid, parent, _layer, start, end in data["spans"]:
        child_time[parent] += end - start
    layers: dict = {}
    for sid, _parent, layer, start, end in data["spans"]:
        entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[sid]
    return layers, data["counts"], child_time[-1]


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <maintsim CLI arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("maintsim.cli")
    try:
        status = cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
