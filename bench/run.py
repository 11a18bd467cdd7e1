"""maintsim benchmark: end-to-end CLI timings and a traced per-layer run.

Usage (from the repository root)::

    python3 bench/run.py --workload count --seed 1 --seconds 25 --trace 0

Every workload runs the real ``maintsim`` CLI from ``src/`` in a child
process, one child at a time, with BLAS/OpenMP pinned to one thread and all
outputs in a scratch directory under ``bench/`` that is removed at the end.
One warm-up run is checked but not timed; then the workload is run again
and again until ``--seconds`` have passed (at least three times).

``--trace 0`` reports the end-to-end metrics (means over the timed runs):
``wall_s`` (spawn to exit, including the CSV and manifest writes),
``work_per_s`` (work units per second at the workload's size),
``setup_s`` (``maintsim --version``, run once after every timed run) and
``peak_rss_mb`` (the child's own rusage from ``os.wait4``).

``--trace 1`` reports the per-layer metrics: import times measured in fresh
interpreters, then untraced reference runs as above, then one run under
``tracer.py``, which calls ``maintsim.cli.main`` in-process with every
layer wrapped (see README.md).  ``trace.overhead_s`` is the traced wall
time minus the mean untraced wall time.

Every run's output is checked (see ``CHECKS``) and compared byte for byte
with the warm-up run of the same session; a run that exits non-zero, fails
a check or differs counts as failed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (so the failure
ratio is ``failed / attempted``) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy, here or in a child
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

from tracer import MODULES, layer_stats  # noqa: E402  (after the thread pins)

CLI = [sys.executable, "-c", "from maintsim.cli import entry; entry()"]
TRACER = [sys.executable, os.path.join(BENCH_DIR, "tracer.py")]
IMPORT_PROBE = (
    "import importlib, json, sys, time\n"
    "out = {}\n"
    "for m in sys.argv[1:]:\n"
    "    t0 = time.perf_counter()\n"
    "    importlib.import_module('maintsim.' + m)\n"
    "    out[m] = time.perf_counter() - t0\n"
    "print(json.dumps(out))\n"
)

MIN_RUNS = 3
IMPORT_RUNS = 5
DEADLINE_S = 170.0  # the whole session, children included

# workload sizes: "full" is what BENCHMARK.json measures, "smoke" is for the
# benchmark's own smoke test
SIZES = {
    "full": {"count": 1000, "sweep": 300, "theory_step": "0.001", "moments": 150_000},
    "smoke": {"count": 300, "sweep": 50, "theory_step": "0.5", "moments": 10_000},
}

# the count experiment's MAINT timer periods (ExperimentConfig.maint_periods)
MAINT_PERIODS = (2.0, 4.0, 5.0, 10.0, 20.0, 25.0, 50.0)
MIN_BIN_SAMPLES = 30
Z_LIMIT = 4.0
MIRROR_RTOL = 1e-9


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


# ---------------------------------------------------------------------------
# workloads


def workload_argv(name: str, seed: int, size: dict, out: str) -> list[str]:
    """CLI arguments of one workload run; inputs depend only on the seed."""
    if name == "count":
        return ["simulate", "fig4", "--seed", str(seed), "--replications", str(size["count"]), "--out", out]
    if name == "sweep":
        return ["simulate", "fig6", "--seed", str(seed), "--replications", str(size["sweep"]), "--out", out]
    if name == "theory":
        # no RNG in the CLI: the seed picks sigma, which scales the curve
        sigma = round(random.Random(seed).uniform(1.0, 10.0), 6)
        return [
            "theory", "--mode", "error_t", "--sigma", repr(sigma), "--lambda", "0.1",
            "--T", "100", "--t", f"0:100:{size['theory_step']}", "--out", out,
        ]
    return ["simulate", "moments", "--seed", str(seed), "--samples", str(size["moments"]), "--out", out]


def _columns(header, rows, *names):
    index = [header.index(n) for n in names]
    return [[row[i] for i in index] for row in rows]


def check_count(meta, header, rows) -> list[str]:
    """MAINT is no worse than MADRD in every well-populated shared bin, and
    every MAINT localization count is floor(span/p) + 1 for a configured p."""
    span = float(meta["span"])
    allowed = {math.floor(span / p * (1.0 + 1e-12)) + 1 for p in MAINT_PERIODS}
    bins: dict = {"MAINT": {}, "MADRD": {}}
    for proto, count, n, sq, ab in _columns(
        header, rows, "protocol", "localization_count", "samples", "mean_sq_error", "mean_abs_error"
    ):
        bins.setdefault(proto, {})[int(count)] = (int(n), float(sq), float(ab))
    maint, madrd = bins["MAINT"], bins["MADRD"]
    problems = []
    expected = int(meta["replications"]) * int(meta["queries"])
    for proto in ("MAINT", "MADRD"):
        total = sum(n for n, _, _ in bins[proto].values())
        if total != expected:
            problems.append(f"{proto} has {total} samples, expected {expected}")
    problems += [f"MAINT localization count {k} matches no period" for k in sorted(set(maint) - allowed)]
    for k in sorted(set(maint) & set(madrd)):
        (n1, sq1, ab1), (n2, sq2, ab2) = maint[k], madrd[k]
        if n1 >= MIN_BIN_SAMPLES and n2 >= MIN_BIN_SAMPLES and (sq1 > sq2 or ab1 > ab2):
            problems.append(f"count {k}: MAINT ({sq1}, {ab1}) worse than MADRD ({sq2}, {ab2})")
    return problems


def check_sweep(meta, header, rows) -> list[str]:
    """Simulation agrees with theory (|z| < 4) and the asymptote is constant."""
    problems = []
    for T, mean, se, theory in _columns(header, rows, "T", "mean_sq_error", "std_error", "theory_error_avg"):
        z = (float(mean) - float(theory)) / float(se)
        if not abs(z) < Z_LIMIT:
            problems.append(f"T={T}: |z| = {abs(z):.2f}")
    if len({a for (a,) in _columns(header, rows, "asymptote")}) != 1:
        problems.append("asymptote column is not constant")
    return problems


def check_theory(meta, header, rows) -> list[str]:
    """Zero error at t = 0 and t = T; rows mirrored about T/2 agree."""
    T = float(meta["T"])
    pts = [(float(t), float(e)) for t, e in _columns(header, rows, "t", "error_t")]
    problems = []
    if pts[0] != (0.0, 0.0) or pts[-1] != (T, 0.0):
        problems.append(f"endpoints {pts[0]} and {pts[-1]} are not (0, 0) and ({T}, 0)")
    n = len(pts) - 1
    for k in range(n // 2 + 1):
        (t1, e1), (t2, e2) = pts[k], pts[n - k]
        if abs(t1 + t2 - T) > MIRROR_RTOL * T:
            problems.append(f"grid is not symmetric at t={t1}")
            break
        if abs(e1 - e2) > MIRROR_RTOL * max(abs(e1), abs(e2)):
            problems.append(f"error at t={t1} ({e1}) differs from t={t2} ({e2})")
    return problems


def check_moments(meta, header, rows) -> list[str]:
    """Every moment formula within |z| < 4 of its Monte Carlo estimate."""
    return [f"{name}: z = {z}" for name, z in _columns(header, rows, "check", "z") if not abs(float(z)) < Z_LIMIT]


CHECKS = {"count": check_count, "sweep": check_sweep, "theory": check_theory, "moments": check_moments}


def work_units(name: str, meta, rows) -> int:
    """Replications (count), windows (sweep), grid rows (theory), samples (moments)."""
    if name == "count":
        return int(meta["replications"])
    if name == "sweep":
        return int(meta["replications"]) * len(rows)
    if name == "theory":
        return len(rows)
    return int(meta["samples"])


# ---------------------------------------------------------------------------
# child processes


def child_env(workdir: str) -> dict:
    # os.environ already pins THREAD_VARS
    return dict(os.environ, PYTHONPATH=SRC, MAINTSIM_OUTDIR=workdir)


def spawn(cmd, env, workdir, deadline) -> tuple[int | None, float, float, str]:
    """Run one child to completion: (exit code or None on timeout, wall
    seconds from spawn to exit, peak RSS in MB, captured stdout)."""
    out_path = os.path.join(workdir, "child.out")
    with open(out_path, "wb") as out:
        signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=workdir, stdout=out, stderr=subprocess.STDOUT)
        signal.alarm(max(1, int(deadline - time.monotonic())))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:  # deadline, SIGTERM or ^C: never leave the child behind
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, ChildTimeout):
                raise
            status = None
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = None if status is None else os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as fh:
        text = fh.read()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, text


class Session:
    """Runs, checks and tallies the CLI runs of one workload."""

    def __init__(self, name: str, seed: int, size: dict, workdir: str, deadline: float):
        self.name = name
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env(workdir)
        self.out = os.path.join(workdir, f"{name}.csv")
        self.argv = workload_argv(name, seed, size, self.out)
        # simulate writes a manifest beside its CSV; theory writes the CSV only
        self.outputs = [self.out] + ([self.out + ".manifest.json"] if self.argv[0] == "simulate" else [])
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.units = None

    def run(self, prefix=None) -> dict:
        """One checked run of the workload (``prefix`` replaces the CLI)."""
        rc, wall, rss, text = spawn((prefix or CLI) + self.argv, self.env, self.workdir, self.deadline)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if rc is not None:
            problems += self._check()
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {self.name} run {self.attempted}: {'; '.join(problems[:5])}", file=sys.stderr)
            print(text[-2000:], file=sys.stderr)
        return {"wall": wall, "rss": rss, "problems": problems}

    def _check(self) -> list[str]:
        from maintsim.output import read_csv

        try:
            digest = hashlib.sha256()
            for path in self.outputs:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            meta, header, rows = read_csv(self.out)
            problems = CHECKS[self.name](meta, header, rows) if rows else ["no data rows"]
            units = work_units(self.name, meta, rows)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            return [f"unreadable output: {exc!r}"]
        if self.digest is None:
            self.digest, self.units = digest.hexdigest(), units
        elif digest.hexdigest() != self.digest:
            problems.append("output differs from the session's first run")
        return problems

    def timed_runs(self, seconds: float, between=None) -> list[dict]:
        """Warm-up, then runs until ``seconds`` have passed (at least
        MIN_RUNS); ``between`` is called after every timed run."""
        self.run()
        runs = []
        stop = time.monotonic() + seconds
        while len(runs) < MIN_RUNS or time.monotonic() < stop:
            runs.append(self.run())
            if between is not None:
                between()
        return runs

    def setup_wall(self) -> float:
        rc, wall, _, text = spawn(CLI + ["--version"], self.env, self.workdir, self.deadline)
        if rc != 0 or not text.startswith("maintsim "):
            raise RuntimeError(f"maintsim --version failed ({rc}): {text[-500:]}")
        return wall

    def import_times(self) -> dict:
        """Median import time of each module, each probe a fresh interpreter."""
        samples: dict = {}
        for _ in range(IMPORT_RUNS):
            rc, _, _, text = spawn(
                [sys.executable, "-c", IMPORT_PROBE, *MODULES], self.env, self.workdir, self.deadline
            )
            if rc != 0:
                raise RuntimeError(f"import probe failed ({rc}): {text[-500:]}")
            for mod, secs in json.loads(text.strip().splitlines()[-1]).items():
                samples.setdefault(mod, []).append(secs)
        return {mod: statistics.median(v) for mod, v in samples.items()}


# ---------------------------------------------------------------------------
# metrics


def summarize(values) -> dict:
    """Mean, median, quartiles, extremes and sample count of a list of numbers."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"mean": statistics.mean(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(session: Session, seconds: float) -> dict:
    setup = []
    runs = session.timed_runs(seconds, between=lambda: setup.append(session.setup_wall()))
    walls = [r["wall"] for r in runs]
    units = session.units or 0
    series = {
        "wall_s": (walls, "s"),
        "work_per_s": ([units / w for w in walls], "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": ([r["rss"] for r in runs], "MB"),
    }
    metrics = {}
    for name, (values, unit) in series.items():
        stats = summarize(values)
        print(f"{name} [{unit}]: " + " ".join(f"{k}={v:.6g}" for k, v in stats.items()))
        # the mean, not the median: see "Noise" in README.md
        metrics[name] = {"value": stats["mean"], "unit": unit}
    print(f"work units per run: {units}")
    return metrics


SELF_TIME_LAYERS = (
    "mobility.generate_trajectory", "mobility.position_at",
    "protocols.localize", "protocols.maint", "protocols.madrd",
    "montecarlo.run_maint_timer", "montecarlo.run_madrd",
    "montecarlo.collect_error_records", "montecarlo.bin_records",
    "montecarlo.sample_window_errors", "montecarlo.validate_conditional_moments",
    "montecarlo.sample_window_positions",
    "analytic.error_at", "analytic.error_avg", "analytic.moments",
    "output.write_csv", "output.write_manifest",
    "cli.parse_grid", "cli.main",
)
CALL_LAYERS = (
    "mobility.generate_trajectory", "mobility.position_at", "protocols.localize",
    "montecarlo.sample_window_errors", "analytic.error_at", "analytic.error_avg", "analytic.moments",
)
COUNTS = ("mobility.legs", "mobility.position_at.points", "montecarlo.records", "montecarlo.windows",
          "output.rows", "output.bytes")


def per_layer(session: Session, seconds: float) -> dict:
    imports = session.import_times()
    runs = session.timed_runs(seconds)
    untraced = statistics.mean(r["wall"] for r in runs)
    spans = os.path.join(session.workdir, "spans.json")
    traced = session.run(TRACER + [spans, "--"])
    layers, counts, main_s = layer_stats(spans)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in CALL_LAYERS:
        put(f"{layer}.calls", layers.get(layer, {}).get("calls", 0), "count")
    for layer in SELF_TIME_LAYERS:
        put(f"{layer}.self_s", layers.get(layer, {}).get("self_s", 0.0), "s")
    for name in COUNTS:
        put(name, counts.get(name, 0), "count")
    queries = counts.get("montecarlo.queries", 0)
    # vacuously 1 when no protocol runner posed a query
    put("montecarlo.queries_answered_frac", counts.get("montecarlo.answered", 0) / queries if queries else 1.0, "ratio")
    for mod in MODULES:
        put(f"{mod}.import_s", imports[mod], "s")
    put("trace.wall_s", traced["wall"], "s")
    put("trace.main_s", main_s, "s")
    put("trace.overhead_s", traced["wall"] - untraced, "s")

    print(f"untraced mean wall_s={untraced:.6g} over {len(runs)} runs; "
          f"traced wall_s={traced['wall']:.6g}, of which cli.main {main_s:.6g}")
    print(f"  {'layer':45s} {'calls':>9s}  self_s  share of traced wall, of cli.main")
    for layer, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        self_s = entry["self_s"]
        print(f"  {layer:45s} {entry['calls']:>9d} {self_s:7.4f} {self_s / traced['wall']:6.1%} {self_s / main_s:6.1%}")
    return metrics


# ---------------------------------------------------------------------------
# environment and entry point


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "maintsim")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "maintsim", "cli.py")):
        print(f"no maintsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = tempfile.mkdtemp(prefix=".run-", dir=BENCH_DIR)
    try:
        session = Session(args.workload, args.seed, SIZES[args.size], workdir, deadline)
        print("env " + json.dumps(environment(), sort_keys=True))
        argv = " ".join(session.argv).replace(workdir, "<scratch>")
        print(f"workload {args.workload} seed {args.seed} size {args.size}: maintsim {argv}")
        measure = per_layer if args.trace else end_to_end
        metrics = measure(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"fail_ratio [ratio]: {session.failed / session.attempted:.6g} ({session.failed}/{session.attempted} runs)")
    result = {"correct": session.failed == 0, "attempted": session.attempted, "failed": session.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
