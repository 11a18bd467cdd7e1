"""Replicated experiments: error vs localization count, simulated vs
closed-form error over the localization period, the constant-ratio sweep,
and Monte Carlo validation of the conditional-moment formulas.

The period sweeps use the window engine: each replication is one
localization window [0, T] with exact fixes at both ends and the estimate
is the straight line between them, which is exactly what the timer-driven
interpolation protocol computes inside every window (waypoint occurrences
are memoryless, so windows of a long run are identically distributed to a
fresh one).  Windows are drawn a fixed batch of rows at a time, and a batch
draws its leg durations only, in extra rounds for the rows still short of
T: given them, each window's error averaged over velocities and a uniform
query time is exact (``sample_window_mean_errors``).  The count experiment
evaluates whole paths as ``mobility.TrajectoryBlock`` leg matrices and runs
the block-batched protocol runners on chunks of replications
(``mobility.replication_chunk``): the timer schemes localize their tick
grids as arrays, and the adaptive schemes advance all rows in lock-step.
The reference runners, which drive the event-driven state machines of
``protocols`` one replication at a time, and the sampled window estimator
the sweeps used before 0.5.0 live with the tests: a differential test
requires the batched runners to reproduce their call counts and estimates,
and the window engine must agree with the sampled estimator.

The count experiment draws replications a chunk at a time: chunk c draws
the paths of its R replications and then their query times, an (R, queries)
matrix, from one stream keyed by (seed, c).  R depends only on the model,
and the last chunk is drawn in full and then cut, so a replication's path
and queries do not depend on the number of replications, and aggregation
is a pure function of the collected records.  Each chunk goes through the
runners whole, with the fixed schedules ``MAINT_PERIODS``, ``MADRD_CONFIGS``
and ``DVM_CONFIG``.

The moment check samples its conditioned quantities by construction, apart
from the window engine, so it checks the formulas independently of it.
One producer thread makes every draw of the check, in stream order, from
the one generator, while the calling thread checks the block drawn before:
at most two draw items are alive at a time, held or in flight.  Each block
is drawn as the row-major sampler drew it, a few rows at a time straight
into column-major rows, one contiguous (samples,) row per quantity, which
the caller handles in place; the stream and every value are unchanged, so
the output does not depend on thread scheduling or the number of CPUs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .analytic import (
    cond_interarrival_moment,
    cond_position_second_moment,
    cond_waypoint_time_moment,
    displacement_cross_moment,
    error_avg,
    position_second_moment,
    position_second_moment_given_count,
)
from .errors import ParameterError
from .mobility import (
    ModelParams,
    TrajectoryBlock,
    _window_durations,
    chunk_rows,
    replication_chunk,
)
from .protocols import DvmConfig, MadrdConfig

# stream tags: the period sweeps draw from (seed, tag, index) and the moment
# check from (seed, tag).  The count experiment's chunks are (seed, chunk),
# so they never share a key with a sweep; the moment check's key equals chunk
# 104's, but no experiment draws from both.
_STREAM_PERIOD = 102
_STREAM_ASYMPTOTE = 103
_STREAM_MOMENTS = 104

KNOWN_PROTOCOLS = ("MAINT", "MADRD", "SFR", "DVM")


# the count experiment's fixed schedules: timer periods (MAINT and SFR) and
# MADRD base intervals cycle through their grids across replications
MAINT_PERIODS = (2.0, 4.0, 5.0, 10.0, 20.0, 25.0, 50.0)
MADRD_CONFIGS = tuple(MadrdConfig(base_interval=b, e_thresh=5.0) for b in (2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 35.0, 50.0))
DVM_CONFIG = DvmConfig(threshold_distance=5.0)


@dataclass(frozen=True)
class BinnedResult:
    """Per-localization-count aggregate of error records."""

    key: int
    mean_sq_error: float
    mean_abs_error: float
    sample_count: int
    standard_error: float
    standard_error_abs: float


@dataclass(frozen=True)
class PeriodPoint:
    T: float
    lambda_rate: float
    mean_sq_error: float
    std_error: float
    samples: int
    theory: float


# ---------------------------------------------------------------------------
# vectorized window engine


# windows are drawn this many at a time; the batch size is part of the
# stream layout, because each batch draws all its leg durations before
# anything else, and whether a batch needs a second round of durations
# depends on all its rows
_WINDOW_BATCH = 4096


def sample_window_mean_errors(
    rng: np.random.Generator,
    lambda_rate: float,
    sigma: float,
    T: float,
    n_windows: int,
) -> np.ndarray:
    """Squared interpolation error of each of ``n_windows`` windows,
    averaged over the velocities and a uniform query time: shape
    (n_windows,).

    Each window is localized exactly at 0 and T and a query at t is
    answered with the straight line between the two fixes.  Only the leg
    durations are drawn.  Given them, the error at t is a linear form in
    the Gaussian velocities, so its mean over them is exact:
    2 sigma^2 sum_j c_j(t)^2, with c_j(t) = clip(t - s_j, 0, d_j) - (t/T) d_j
    for leg j starting at s_j and spending d_j inside the window.  c_j is
    piecewise linear through 0, -a s_j, a r_j and 0 at 0, s_j, s_j + d_j
    and T, where a = d_j / T and r_j = T - s_j - d_j, so its mean square
    over t is a^2 (s_j^3 + r_j^3 + d_j (s_j^2 - s_j r_j + r_j^2)) / (3T).
    As s^3 + r^3 = (s + r)(s^2 - s r + r^2) and s_j + d_j + r_j = T, the
    window's value is 2 sigma^2 T^2 / 3 * sum_j a^2 (s^2 - s r + r^2), with
    s and r in units of T.  Every leg's term is non-negative, so the sum
    cancels nothing.

    The trade-off: the velocity part of the model is integrated
    analytically here, so the period sweeps no longer simulate whole paths.
    Whole-path simulation stays checked by the moment check's window rows
    (``position_sq_unconditional``, ``displacement_cross_moment``), by the
    count experiment, and by a test that holds the timer protocol on whole
    paths to the closed-form average.
    """
    out = np.empty(n_windows)
    for done in range(0, n_windows, _WINDOW_BATCH):
        m = min(_WINDOW_BATCH, n_windows - done)
        a, s = _window_durations(rng, lambda_rate, T, m)
        # in place, in units of T, so a batch holds four (m, legs) matrices
        s /= T
        a /= T
        r = np.subtract(1.0, s)
        np.minimum(a, r, out=a)
        np.maximum(a, 0.0, out=a)
        r -= a
        # s^2 - s r + r^2 = s (s - r) + r^2, which is at least
        # 3/4 max(s, r)^2, so this form loses at most a few ulps
        tmp = np.subtract(s, r)
        s *= tmp
        np.square(r, out=tmp)
        s += tmp
        s *= np.square(a, out=a)
        s.sum(axis=1, out=out[done : done + m])
    out *= 2.0 * (sigma * T) ** 2 / 3.0
    return out


# ---------------------------------------------------------------------------
# block-batched protocol runners (many replications each, in lock-step)


def _tick_counts(periods: np.ndarray, span: float) -> np.ndarray:
    """Last tick index n of each grid {k * period : k = 0..n}, as
    ``protocols.sfr_schedule`` computes it.  The reference runners localize
    every tick, so a last tick that rounds past the span fails here as it
    does there."""
    if not np.all(periods > 0):
        raise ParameterError(f"periods must be > 0, got {periods.min()}")
    n = np.floor(span / periods * (1.0 + 1e-12))
    if np.any(n * periods > span):
        raise ParameterError(f"time outside [0, {span}]")
    return n


def _last_tick(q: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """Index k of the last tick k * period <= q, for query times ``q`` and
    periods ``pc`` (rows, 1).  q / period may round across an integer; one
    step either way corrects it."""
    k = np.floor(q / pc)
    k = np.where(k * pc > q, k - 1.0, k)
    return np.where((k + 1.0) * pc <= q, k + 1.0, k)


def run_maint_timer_block(block: TrajectoryBlock, periods, query_times):
    """The timer-driven interpolation protocol, with fixes at 0, period,
    2 * period, ... up to the span, for every row of a block: ``periods``
    (rows,), ``query_times`` (rows, queries).  Returns (estimates (rows,
    queries, 2), localization counts (rows,)).

    Queries precede ticks in the event order, so a query is answered
    at the first tick k * period >= q with k >= 1, with the chord between
    the fixes at ticks k - 1 and k.  Both ends of every window are localized
    in one call.
    """
    p = np.asarray(periods, dtype=float)
    q = np.asarray(query_times, dtype=float)
    n = _tick_counts(p, block.span)
    pc = p[:, None]
    if q.size and np.any(n == 0):
        raise ParameterError("a period schedules no tick within the span; nothing can bracket a query")
    k = _last_tick(q, pc)
    k = np.maximum(k + (k * pc < q), 1.0)  # the first tick at or after q
    late = k > n[:, None]
    if late.any():
        row = int(np.argwhere(late)[0, 0])
        raise ParameterError(
            f"query at {q[row].max()} lies beyond the final localization at {n[row] * p[row]}"
        )
    lo = (k - 1.0) * pc
    hi = k * pc
    x, y = block.position(np.concatenate([lo, hi], axis=1))
    m = q.shape[1]
    xa, xb, ya, yb = x[:, :m], x[:, m:], y[:, :m], y[:, m:]
    dt = hi - lo
    s = q - lo
    est = np.stack([xa + (xb - xa) / dt * s, ya + (yb - ya) / dt * s], axis=-1)
    return est, n.astype(np.int64) + 1


def run_sfr_block(block: TrajectoryBlock, periods, query_times):
    """The fixed-rate baseline for every row of a block: each query gets the
    fix at the last tick k * period <= q."""
    p = np.asarray(periods, dtype=float)
    q = np.asarray(query_times, dtype=float)
    n = _tick_counts(p, block.span)
    pc = p[:, None]
    k = np.minimum(_last_tick(q, pc), n[:, None])
    x, y = block.position(k * pc)
    return np.stack([x, y], axis=-1), n.astype(np.int64) + 1


class _FixTrail:
    """Fix history of a block of adaptive schedulers run in lock-step.

    Every row is localized at 0, and at ``bootstrap`` if that falls before
    the span (``booted`` holds those rows); ``add`` localizes a subset of
    rows once more.  Rows not localized in a round get an +inf time in its
    column, so each row's fix times stay sorted.  Each round localizes a
    subset of the rows of the round before, so every row still running was
    localized in each of the last two columns.
    """

    def __init__(self, block: TrajectoryBlock, bootstrap: np.ndarray) -> None:
        self.block = block
        rows = len(block)
        self.booted = np.flatnonzero(bootstrap < block.span)
        t0 = np.zeros(rows)
        self.columns = [(t0, *block.position(t0))]
        self.add(self.booted, bootstrap[self.booted])

    def add(self, rows: np.ndarray, t: np.ndarray):
        x, y = self.block.position(t, rows)
        column = (np.full(len(self.block), np.inf), np.zeros(len(self.block)), np.zeros(len(self.block)))
        for col, new in zip(column, (t, x, y)):
            col[rows] = new
        self.columns.append(column)
        return x, y

    def pair(self, rows: np.ndarray):
        """(t, x, y) of the last two fixes of ``rows``, which the last two
        rounds localized: the earlier, then the latest."""
        return [a[rows] for a in self.columns[-2]], [a[rows] for a in self.columns[-1]]

    def answer(self, query_times: np.ndarray):
        """Fix matrices (rows, fixes), localization counts, and for every
        query the index of the latest fix at or before it."""
        t, x, y = (np.column_stack(cols) for cols in zip(*self.columns))
        j = (t[:, None, :] <= query_times[:, :, None]).sum(axis=2) - 1
        return t, x, y, np.isfinite(t).sum(axis=1), j


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot`` elementwise.  ``np.hypot`` differs from it in the last
    ulp for about 0.5 % of inputs, and the state machines use math.hypot."""
    return np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=float)


def run_madrd_block(block: TrajectoryBlock, configs, query_times):
    """The dead-reckoning baseline for every row of a block, one
    ``MadrdConfig`` per row: fixes at 0 and at the base interval, then at
    intervals that ``protocols.madrd_on_localization`` adapts; each query is
    extrapolated from the last two fixes at or before it.

    Rows advance in lock-step: each round localizes every row whose next
    fix still falls within the span and retires the others.
    """
    q = np.asarray(query_times, dtype=float)
    interval = np.array([c.base_interval for c in configs], dtype=float)
    e_thresh = np.array([c.e_thresh for c in configs], dtype=float)
    lo_clamp = np.array([c.min_interval for c in configs], dtype=float)
    hi_clamp = np.array([c.clamp_max for c in configs], dtype=float)
    trail = _FixTrail(block, interval)
    rows = trail.booted
    while True:
        t = trail.columns[-1][0][rows] + interval[rows]
        due = t <= block.span
        rows, t = rows[due], t[due]
        if not rows.size:
            break
        (pt, px, py), (lt, lx, ly) = trail.pair(rows)
        x, y = trail.add(rows, t)
        dx = lx + (lx - px) / (lt - pt) * (t - lt) - x
        dy = ly + (ly - py) / (lt - pt) * (t - lt) - y
        dist = _hypot(dx, dy)
        e = e_thresh[rows]
        iv = interval[rows]
        iv = np.where(dist > e, iv / 2.0, np.where(dist < e / 2.0, iv * 2.0, iv))
        interval[rows] = np.minimum(np.maximum(iv, lo_clamp[rows]), hi_clamp[rows])

    t, x, y, calls, j = trail.answer(q)
    r = np.broadcast_to(np.arange(len(block))[:, None], j.shape)
    est = np.stack([x[r, j], y[r, j]], axis=-1)
    later = j > 0  # before the second fix the sensor is taken as stationary
    rl, jl = r[later], j[later]
    dt = t[rl, jl] - t[rl, jl - 1]
    age = q[later] - t[rl, jl]
    est[later, 0] = x[rl, jl] + (x[rl, jl] - x[rl, jl - 1]) / dt * age
    est[later, 1] = y[rl, jl] + (y[rl, jl] - y[rl, jl - 1]) / dt * age
    return est, calls


def run_dvm_block(block: TrajectoryBlock, configs, query_times, bootstrap_interval: float = 1.0):
    """The velocity-monotonic baseline for every row of a block, one
    ``DvmConfig`` per row, with the lock-step rounds of ``run_madrd_block``:
    fixes at 0 and at ``bootstrap_interval``, then at the intervals of
    ``protocols.dvm_next_interval``; each query gets the latest fix."""
    q = np.asarray(query_times, dtype=float)
    threshold = np.array([c.threshold_distance for c in configs], dtype=float)
    lo_clamp = np.array([c.min_interval for c in configs], dtype=float)
    hi_clamp = np.array([c.max_interval for c in configs], dtype=float)
    trail = _FixTrail(block, np.full(len(block), float(bootstrap_interval)))
    rows = trail.booted
    while rows.size:
        (pt, px, py), (lt, lx, ly) = trail.pair(rows)
        speed = _hypot(lx - px, ly - py) / (lt - pt)
        # a resting sensor gets threshold / 0 = inf, which the clamp turns
        # into max_interval as dvm_next_interval does
        with np.errstate(divide="ignore"):
            iv = np.minimum(np.maximum(threshold[rows] / speed, lo_clamp[rows]), hi_clamp[rows])
        t = lt + iv
        due = t <= block.span
        rows, t = rows[due], t[due]
        if rows.size:
            trail.add(rows, t)

    _, x, y, calls, j = trail.answer(q)
    r = np.arange(len(block))[:, None]
    return np.stack([x[r, j], y[r, j]], axis=-1), calls


# ---------------------------------------------------------------------------
# error-vs-count experiment


@dataclass(frozen=True, eq=False)
class ErrorTable:
    """Error records as columns: row i is one query evaluation of one
    protocol in one replication."""

    protocol: np.ndarray
    replication_index: np.ndarray
    query_time: np.ndarray
    sq_error: np.ndarray
    abs_error: np.ndarray
    localization_count: np.ndarray

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def concat(cls, tables) -> ErrorTable:
        tables = list(tables)
        if not tables:
            return cls(*(np.empty(0, dtype) for dtype in (str, np.int64, float, float, float, np.int64)))
        return cls(*(np.concatenate(cols) for cols in zip(*(t.columns for t in tables))))

    def __len__(self) -> int:
        return len(self.sq_error)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ErrorTable):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))


def collect_error_records(
    model: ModelParams, replications: int, queries: int, protocols=("MAINT", "MADRD")
) -> ErrorTable:
    """Run every given protocol over fresh trajectories and record one
    error sample per query.

    Per replication: take its path, draw ``queries`` query times uniformly
    on [0, span], and give every protocol the same path and queries.  Truth
    comes from the path; estimates only from protocol-visible fixes.  The
    schedule parameters (``MAINT_PERIODS`` for the timer schemes,
    ``MADRD_CONFIGS`` for dead reckoning) cycle through their grids across
    replications to populate the localization-count axis.

    Replications are drawn a chunk at a time (see the module docstring), and
    each chunk goes through the block-batched runners whole; the chunk size
    already keeps a chunk's first round of legs within
    ``mobility._BLOCK_LEGS`` entries unless it holds a single row.  Records
    come in replication order, then protocol order (MAINT, MADRD, SFR, DVM),
    then query order, so the number of replications does not change the
    records of a replication or their place in the table.
    """
    if replications < 1:
        raise ParameterError(f"replications must be >= 1, got {replications}")
    if queries < 1:
        raise ParameterError(f"queries must be >= 1, got {queries}")
    unknown = [p for p in protocols if p not in KNOWN_PROTOCOLS]
    if unknown:
        raise ParameterError(f"unknown protocols: {unknown}; known: {KNOWN_PROTOCOLS}")
    protos = [p for p in KNOWN_PROTOCOLS if p in protocols]
    if not protos:
        return ErrorTable.concat([])
    if "MAINT" in protos:
        for p in MAINT_PERIODS:
            n = math.floor(model.span / p * (1.0 + 1e-12))
            if abs(n * p - model.span) > 1e-9 * model.span:
                raise ParameterError(
                    f"maint period {p} does not divide span {model.span}; "
                    "late queries could never be bracketed"
                )
    protocol_column = np.repeat(np.array(protos), queries)
    rows_per_chunk = chunk_rows(model)
    tables: list[ErrorTable] = []
    for first in range(0, replications, rows_per_chunk):
        paths, rng = replication_chunk(model, first // rows_per_chunk)
        qts = rng.uniform(0.0, model.span, (rows_per_chunk, queries))
        rows = np.arange(first, min(replications, first + rows_per_chunk))
        legs, qts = paths[: len(rows)], qts[: len(rows)]
        periods = np.array(MAINT_PERIODS)[rows % len(MAINT_PERIODS)]
        runs = []
        if "MAINT" in protos:
            runs.append(run_maint_timer_block(legs, periods, qts))
        if "MADRD" in protos:
            runs.append(run_madrd_block(legs, [MADRD_CONFIGS[r % len(MADRD_CONFIGS)] for r in rows], qts))
        if "SFR" in protos:
            runs.append(run_sfr_block(legs, periods, qts))
        if "DVM" in protos:
            runs.append(run_dvm_block(legs, [DVM_CONFIG] * len(rows), qts))
        tx, ty = legs.position(qts)
        est = np.stack([e for e, _ in runs], axis=1)  # (rows, protocols, queries, 2)
        ex = est[..., 0] - tx[:, None, :]
        ey = est[..., 1] - ty[:, None, :]
        sq = (ex * ex + ey * ey).ravel()
        calls = np.stack([c for _, c in runs], axis=1)
        tables.append(
            ErrorTable(
                protocol=np.tile(protocol_column, len(rows)),
                replication_index=np.repeat(rows, len(protocol_column)),
                query_time=np.repeat(qts, len(protos), axis=0).ravel(),
                sq_error=sq,
                abs_error=np.sqrt(sq),
                localization_count=np.repeat(calls.ravel(), queries),
            )
        )
    return ErrorTable.concat(tables)


def bin_records(table: ErrorTable) -> dict[str, list[BinnedResult]]:
    """Group the records of a table by (protocol, localization count) and
    aggregate.

    Pure function of the record multiset: every bin sums its values in
    sorted order, so permuting the rows changes nothing.  Empty bins
    simply do not appear.
    """
    if not len(table):
        return {}
    names, codes = np.unique(table.protocol, return_inverse=True)
    order = np.lexsort((table.sq_error, table.localization_count, codes))
    codes, counts = codes[order], table.localization_count[order]
    sq_sorted, ab_all = table.sq_error[order], table.abs_error[order]
    cuts = np.flatnonzero((codes[1:] != codes[:-1]) | (counts[1:] != counts[:-1])) + 1
    bounds = np.concatenate([[0], cuts, [len(table)]])
    out: dict[str, list[BinnedResult]] = {}
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        sq = sq_sorted[lo:hi]
        ab = np.sort(ab_all[lo:hi])
        n = hi - lo
        out.setdefault(str(names[codes[lo]]), []).append(
            BinnedResult(
                key=int(counts[lo]),
                mean_sq_error=float(sq.mean()),
                mean_abs_error=float(ab.mean()),
                sample_count=n,
                standard_error=float(sq.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
                standard_error_abs=float(ab.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
            )
        )
    return out


def run_error_vs_count(model: ModelParams, replications: int, queries: int) -> dict[str, list[BinnedResult]]:
    """Error against localization count for the interpolation protocol and
    the dead-reckoning baseline over identical trajectories."""
    return bin_records(collect_error_records(model, replications, queries))


# ---------------------------------------------------------------------------
# period sweeps


def run_period_sweep(model: ModelParams, T_values, replications: int, ratio_C: float | None = None) -> list[PeriodPoint]:
    """Simulated mean squared error per localization period, paired with the
    closed-form average; one window per replication, timer-style fixes at 0
    and T.  With ``ratio_C`` set, the waypoint rate is tied to the period
    (lambda = T/C, the constant-ratio sweep); otherwise it is the model's."""
    if replications < 1:
        raise ParameterError(f"replications must be >= 1, got {replications}")
    if ratio_C is not None and not (math.isfinite(ratio_C) and ratio_C > 0):
        raise ParameterError(f"ratio_C must be finite and > 0, got {ratio_C}")
    bad_T = [T for T in T_values if not (math.isfinite(T) and T > 0)]
    if bad_T:
        raise ParameterError(f"every T must be finite and > 0, got {bad_T[0]}")
    if not T_values:
        raise ParameterError("T_values must be non-empty for a period sweep")
    tag = _STREAM_PERIOD if ratio_C is None else _STREAM_ASYMPTOTE
    points = []
    for i, T in enumerate(T_values):
        T = float(T)
        lam = model.lambda_rate if ratio_C is None else T / ratio_C
        rng = np.random.default_rng([model.seed, tag, i])
        values = sample_window_mean_errors(rng, lam, model.sigma, T, replications)
        n = len(values)
        se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        points.append(
            PeriodPoint(
                T=T,
                lambda_rate=lam,
                mean_sq_error=float(values.mean()),
                std_error=se,
                samples=n,
                theory=error_avg(model.sigma, lam, T),
            )
        )
    return points


# ---------------------------------------------------------------------------
# conditional-moment validation


@dataclass(frozen=True)
class MomentCheck:
    name: str
    mc_mean: float
    std_error: float
    theory: float
    z: float
    samples: int


@dataclass
class MomentReport:
    checks: list[MomentCheck] = field(default_factory=list)

    @property
    def max_abs_z(self) -> float:
        return max((abs(c.z) for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return all(abs(c.z) < 4.0 for c in self.checks)

    def rows(self):
        for c in self.checks:
            yield (c.name, c.mc_mean, c.std_error, c.theory, c.z, c.samples)


def _z_check(name: str, sample: np.ndarray, theory: float, dev: np.ndarray) -> MomentCheck:
    """z-score of the sample mean against ``theory``.

    ``dev`` is a buffer of the sample's size for the squared deviations; it
    may be ``sample`` itself, which is then overwritten.  The mean is reused
    for the deviations, so the standard error equals ``sample.std(ddof=1) /
    sqrt(n)`` bit for bit, without its second mean and its temporary.
    """
    n = sample.size
    mean = sample.mean()
    np.subtract(sample, mean, out=dev)
    np.square(dev, out=dev)
    se = float(np.sqrt(dev.sum() / (n - 1)) / math.sqrt(n))
    mean = float(mean)
    z = (mean - theory) / se if se > 0 else 0.0
    return MomentCheck(name=name, mc_mean=mean, std_error=se, theory=theory, z=float(z), samples=n)


def _sort_columns(rows: list[np.ndarray], spare: np.ndarray) -> np.ndarray:
    """Sort the values of every sample across the equal-length ``rows`` in
    place, so ``rows[k]`` holds the k-th smallest value of each sample, and
    return the buffer left over as the spare.

    An insertion network of compare-exchanges between neighbouring rows: the
    minimum goes into the spare buffer, the maximum into the upper row, and
    the spare takes the lower row's place in the list, so no row is copied
    back.  min and max only move values, so the rows equal ``np.sort`` across
    them bit for bit.
    """
    for top in range(1, len(rows)):
        for k in range(top, 0, -1):
            np.minimum(rows[k - 1], rows[k], out=spare)
            np.maximum(rows[k - 1], rows[k], out=rows[k])
            rows[k - 1], spare = spare, rows[k - 1]
    return spare


# a (samples, n) draw is made this many rows at a time; any count gives the
# same stream, because the generator fills a draw row-major and in order
_DRAW_ROWS = 8192


def _draw_rows(draw, scale: float, samples: int, n: int, spare: int = 0) -> np.ndarray:
    """``scale`` times a (samples, n) draw of ``draw`` (``Generator.random``
    or ``standard_normal``), as the first n rows of an (n + spare, samples)
    array whose ``spare`` last rows are left unset.

    ``uniform(0, hi)`` is ``0.0 + hi * random()``, which is ``random() * hi``
    exactly, so a scaled ``random`` draw is the uniform one bit for bit.
    """
    out = np.empty((n + spare, samples))
    chunk = np.empty((min(_DRAW_ROWS, samples), n))
    for start in range(0, samples, _DRAW_ROWS):
        part = chunk[: min(_DRAW_ROWS, samples - start)]
        draw(out=part)
        np.multiply(part.T, scale, out=out[:n, start : start + len(part)])
    return out


def _moment_draws(rng, tau, sigma, lambda_rate, t, T, n_max, samples):
    """Every draw of ``validate_conditional_moments``, in stream order, each
    as a (tag, item) pair; the caller checks each tag as it takes the item.

    For n = 1..n_max: the n waypoint times in (0, tau) with one spare row,
    then the n velocities.  For i = 0..n_max: the i waypoint times in (0, t)
    with one spare row, then the i + 1 velocities (for i = 0 only the one
    displacement over t).  Last, the windows of the unconditional checks,
    one ``_WINDOW_BATCH`` block at a time.
    """
    for n in range(1, n_max + 1):
        yield ("times", n), _draw_rows(rng.random, tau, samples, n, spare=1)
        yield ("velocities", n), _draw_rows(rng.standard_normal, sigma, samples, n)
    for i in range(0, n_max + 1):
        if i == 0:
            yield ("displacement", 0), _draw_rows(rng.standard_normal, t * sigma, samples, 1)
        else:
            yield ("count times", i), _draw_rows(rng.random, t, samples, i, spare=1)
            yield ("count velocities", i), _draw_rows(rng.standard_normal, sigma, samples, i + 1)
    for done in range(0, samples, _WINDOW_BATCH):
        yield ("windows", done), TrajectoryBlock.windows(rng, lambda_rate, sigma, T, min(_WINDOW_BATCH, samples - done))


def validate_conditional_moments(
    tau: float = 10.0,
    sigma: float = 5.0,
    lambda_rate: float = 0.1,
    t: float = 5.0,
    T: float = 10.0,
    n_max: int = 6,
    samples: int = 100_000,
    seed: int = 0,
) -> MomentReport:
    """Monte Carlo z-scores for every conditional-moment formula.

    Conditioned quantities are sampled by construction (given n waypoints in
    (0, tau), their times are sorted uniforms), so no rejection is needed.
    The unconditional second moment and the cross moment come from direct
    window simulation.  Passing means every |z| < 4.

    A producer thread draws the stream of ``_moment_draws`` while this
    thread checks the block drawn before.  Each conditioned block arrives
    as column-major rows, one contiguous (samples,) row per quantity, so
    every check reads a contiguous row.  Times are sorted, differenced and
    summed in place, row by row, in the order ``np.sort``, ``np.diff``,
    ``np.cumsum`` and ``sum`` use on a row-major (samples, n) matrix, so
    the stream and every value are those of a row-major sampler.
    """
    # imported here: only the moment check runs a thread, and the module
    # loads logging, which the other experiments would pay for at start-up
    from concurrent.futures import ThreadPoolExecutor

    if samples < 10_000:
        raise ParameterError(f"samples must be >= 10000, got {samples}")
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    rng = np.random.default_rng([seed, _STREAM_MOMENTS])
    report = MomentReport()
    draws = _moment_draws(rng, tau, sigma, lambda_rate, t, T, n_max, samples)
    # one thread makes the draws in order; two are queued at the start, and
    # one more each time this thread lets go of an item, so at most two draw
    # items are alive, held here or in flight
    pool = ThreadPoolExecutor(1, thread_name_prefix="maintsim-draws")
    pending = deque()

    def draw_next():
        pending.append(pool.submit(next, draws))

    def take(*tag):
        # the loops below take the items in the order _moment_draws yields them
        got, item = pending.popleft().result()
        if got != tag:
            raise AssertionError(f"drew {got} where {tag} was due")
        return item

    try:
        draw_next()
        draw_next()
        for n in range(1, n_max + 1):
            by_k = [[] for _ in range(n)]
            # rows[k] holds, in turn, the k-th waypoint time, the gap before
            # it, and the position reached at it; sq the square being checked
            rows = list(take("times", n))
            sq = _sort_columns(rows, rows.pop())
            for k, row in enumerate(rows, start=1):
                by_k[k - 1] += (
                    _z_check(f"waypoint_time n={n} k={k} order=1", row, cond_waypoint_time_moment(tau, n, k, 1), sq),
                    _z_check(
                        f"waypoint_time n={n} k={k} order=2",
                        np.square(row, out=sq),
                        cond_waypoint_time_moment(tau, n, k, 2),
                        sq,
                    ),
                )
            # last row first, so every subtraction reads two undifferenced times
            for k in range(n - 1, 0, -1):
                rows[k] -= rows[k - 1]
            for k, row in enumerate(rows, start=1):
                by_k[k - 1] += (
                    _z_check(f"interarrival n={n} k={k} order=1", row, cond_interarrival_moment(tau, n, 1), sq),
                    _z_check(
                        f"interarrival n={n} k={k} order=2",
                        np.square(row, out=sq),
                        cond_interarrival_moment(tau, n, 2),
                        sq,
                    ),
                )
            vel = take("velocities", n)
            for row, v in zip(rows, vel):
                row *= v  # products commute: these are (sigma * v) * gap exactly
            del vel, v
            draw_next()
            for k in range(1, n):
                rows[k] += rows[k - 1]
            for k, row in enumerate(rows, start=1):
                by_k[k - 1].append(
                    _z_check(
                        f"waypoint_position_sq n={n} k={k}",
                        np.square(row, out=sq),
                        cond_position_second_moment(tau, n, k, sigma),
                        sq,
                    )
                )
            del rows, row, sq
            draw_next()
            for checks in by_k:
                report.checks += checks

        # position second moment given an exact waypoint count in (0, t)
        for i in range(0, n_max + 1):
            if i == 0:
                (x,) = take("displacement", 0)
            else:
                # rows: waypoint times, then gaps, then each leg's displacement
                rows = list(take("count times", i))
                tail = _sort_columns(rows, rows.pop())
                np.subtract(t, rows[-1], out=tail)
                for k in range(i - 1, 0, -1):
                    rows[k] -= rows[k - 1]
                vel = take("count velocities", i)
                for row, v in zip(rows, vel):
                    row *= v
                tail *= vel[i]
                del vel, v, row
                draw_next()
                # summed sample by sample, so numpy picks the same order as
                # for the row-major product; a chunk of samples at a time
                # into rows[0], as a whole (samples, i) copy would raise the
                # peak while the next block is drawn
                x = rows[0]
                for a in range(0, samples, _DRAW_ROWS):
                    x[a : a + _DRAW_ROWS] = np.stack([r[a : a + _DRAW_ROWS] for r in rows], axis=1).sum(axis=1)
                del rows
                x += tail
                del tail
            report.checks.append(
                _z_check(
                    f"position_sq_given_count i={i}",
                    np.square(x, out=x),
                    position_second_moment_given_count(t, i, sigma),
                    x,
                )
            )
            del x
            draw_next()

        # unconditional position second moment and the split-window cross
        # moment; x and y coordinates are iid so both contribute samples:
        # the x coordinates fill the first half of each array, the y the second
        at_t = np.empty(2 * samples)
        at_T = np.empty(2 * samples)
        for done in range(0, samples, _WINDOW_BATCH):
            block = take("windows", done)
            m = len(block)
            x, y = block.position(np.broadcast_to((t, T), (m, 2)))
            del block
            draw_next()
            at_t[done : done + m], at_T[done : done + m] = x.T
            at_t[samples + done : samples + done + m], at_T[samples + done : samples + done + m] = y.T
            del x, y
    finally:
        # on an early exit, the queued draws are dropped and the one running
        # is waited for
        pool.shutdown(cancel_futures=True)
    # the cross moment first, while at_t is whole; then at_t's squares
    at_T -= at_t
    at_T *= at_t
    cross = _z_check("displacement_cross_moment", at_T, displacement_cross_moment(t, T, lambda_rate, sigma), at_T)
    del at_T
    report.checks.append(
        _z_check(
            "position_sq_unconditional",
            np.square(at_t, out=at_t),
            position_second_moment(t, lambda_rate, sigma),
            at_t,
        )
    )
    report.checks.append(cross)
    return report
