"""Replicated experiments: error vs localization count, simulated vs
closed-form error over the localization period, the constant-ratio sweep,
and Monte Carlo validation of the conditional-moment formulas.

The period sweeps use the window engine: each replication is one
localization window [0, T] with exact fixes at both ends and the estimate
is the straight line between them, which is exactly what the timer-driven
interpolation protocol computes inside every window (waypoint occurrences
are memoryless, so windows of a long run are identically distributed to a
fresh one).  A chunk of windows draws its leg durations only, a Poisson
waypoint count per window and then normalized exponential spacings of
[0, T]: given them, each window's error averaged over velocities and a
uniform query time is exact (``sample_window_mean_errors``).

The count experiment runs the block-batched protocol runners on whole paths
as ``mobility.TrajectoryBlock`` leg matrices, with the fixed schedules
``MAINT_PERIODS`` and ``MADRD_BASES``: the timer schemes localize their tick
grids as arrays, and the adaptive schemes advance all rows in lock-step.
Replication r is row r mod R of chunk r // R, where R = ``_count_rows``
depends only on the model; chunk c draws the paths of its R replications
and then their query times, an (R, queries) matrix, from one stream keyed
by (seed, c) (``_count_stream``).  The last chunk is drawn in full and then
cut, so a replication's path and queries do not depend on the number of
replications.  The reference runners, which drive the event-driven state
machines of ``protocols`` one replication at a time, live with the tests:
a differential test requires the batched runners to reproduce their call
counts and estimates.

The moment check samples its conditioned quantities by construction, apart
from the window engine, so it checks the formulas independently of it.
Given n points in an interval, their gaps are normalized exponential
spacings, so their times are running sums and nothing is sorted.  Squared
positions are checked through their expectation over the Gaussian
velocities given the gaps (the conditional expectation), so those checks
draw no velocities; only the position given no waypoint, whose expectation
would be a constant, is sampled.  The unconditional moments and the
pointwise errors come from whole windows.

Every experiment is one fold of keyed chunks (``_fold``).  It is cut into
groups of the same number of samples each: the count experiment is one
group; a sweep has one per period; the moment check one per conditioned
count n, one per exact count i and one for its windows.  A group draws its
samples in chunks of rows that a draw budget sets, the chunks of all
groups are numbered in turn, and chunk k draws from its own stream.  Each
chunk is reduced where it is drawn to the count, mean and sum of squared
deviations of each of its keys (a (protocol, localization count) bin, a
check), and ``output.map_ordered`` runs the chunks on every usable CPU and
hands these back in chunk order, to be merged pairwise into the running
ones (``_Moments``), so no result depends on the CPU count.  Every
experiment returns the same rows, one ``Estimate`` per key: its sample
count, mean and standard error, and the closed form and z-score where one
exists.  Chunks depend only on the model and the sizes, so memory stays
the same whatever the replication or sample count, the conditioned counts
and lambda.  The fold runs with float overflow ignored, and its result is
checked once: a mean or standard error that is not finite (a sigma so
large that squared errors overflow) fails with a ``ParameterError`` before
anything is written.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from typing import NamedTuple

import numpy as np

from .analytic import (
    cond_interarrival_moment,
    cond_position_second_moment,
    cond_waypoint_time_moment,
    displacement_cross_moment,
    error_at,
    error_avg,
    position_second_moment,
    position_second_moment_given_count,
)
from .errors import ParameterError
from .mobility import (
    ModelParams,
    TrajectoryBlock,
    _check_positive,
    _check_seed,
    _window_durations,
    block_rows,
)
from .output import map_ordered

# stream tags: the period sweeps and the moment check draw chunk k of their
# groups from (seed, tag, k).  The count experiment's chunks are (seed, c)
# (``_count_stream``), and numpy's SeedSequence pads a short key with zeros,
# so its chunks 102 to 104 share the keys of chunk 0 of a tag; no experiment
# draws from both.
_STREAM_PERIOD = 102
_STREAM_ASYMPTOTE = 103
_STREAM_MOMENTS = 104

# the count experiment's fixed schedules: timer periods (MAINT and SFR) and
# MADRD base intervals cycle through their grids across replications; the
# other settings are the defaults of ``protocols.MadrdConfig`` and ``DvmConfig``
MAINT_PERIODS = (2.0, 4.0, 5.0, 10.0, 20.0, 25.0, 50.0)
MADRD_BASES = (2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 35.0, 50.0)
MADRD_E_THRESH, MADRD_MIN_INTERVAL, MADRD_MAX_PER_BASE = 5.0, 0.1, 4.0
DVM_THRESHOLD, DVM_MIN_INTERVAL, DVM_MAX_INTERVAL = 5.0, 0.1, 100.0


class Estimate(NamedTuple):
    """The Monte Carlo mean of quantity ``key`` over ``samples`` samples and
    its standard error; where a closed form exists, its value ``theory`` and
    z = (mean - theory) / std_error, else None for both."""

    key: object
    samples: int
    mean: float
    std_error: float
    theory: float | None
    z: float | None


def _overflow_ignored():
    """The fold's arithmetic may overflow to inf, and inf - inf makes nan;
    ``_Moments.result`` reports either once, as a ``ParameterError``, so
    numpy's warning on each operation is silenced."""
    return np.errstate(over="ignore", invalid="ignore")


def _merge(a, b):
    """Count, mean and sum of squared deviations of two sample sets joined
    (Chan, Golub and LeVeque, *Am. Stat.* 37(3), 1983); means and sums may
    be arrays, one entry per check."""
    na, ma, qa = a
    nb, mb, qb = b
    n = na + nb
    with _overflow_ignored():
        d = mb - ma
        return n, ma + d * (nb / n), qa + qb + d * d * (na * nb / n)


def _chunk_moments(values: np.ndarray):
    """Count, mean and sum of squared deviations of ``values`` (..., m), m
    samples of every check; the buffer is overwritten."""
    with _overflow_ignored():
        mean = values.mean(axis=-1)
        values -= mean[..., None]
        return values.shape[-1], mean, np.square(values, out=values).sum(axis=-1)


class _Moments:
    """Count, mean and sum of squared deviations of a set of checks, fed a
    chunk's partial result at a time.

    Each chunk's partial result is merged pairwise, as a binary counter
    carries: a partial merges with another of its own level, so every mean
    and sum is built up as a balanced tree of chunks.
    """

    def __init__(self) -> None:
        self._levels: list = []

    def merge(self, part) -> None:
        """Take a partial result: count, mean and sum of squared deviations."""
        level = 0
        while level < len(self._levels) and self._levels[level] is not None:
            part = _merge(self._levels[level], part)
            self._levels[level] = None
            level += 1
        if level == len(self._levels):
            self._levels.append(None)
        self._levels[level] = part

    def result(self):
        """Count, mean and standard error of every check; one sample's sum
        of squared deviations is 0, and so is its standard error.  A mean
        or standard error that is not finite raises a ``ParameterError``."""
        parts = [p for p in self._levels if p is not None]
        n, mean, m2 = parts[0]
        for part in parts[1:]:
            n, mean, m2 = _merge(part, (n, mean, m2))
        se = np.sqrt(m2 / max(n - 1, 1)) / math.sqrt(n)
        if not (np.isfinite(mean).all() and np.isfinite(se).all()):
            raise ParameterError("a Monte Carlo mean or standard error overflows float64; lower sigma")
        return n, mean, se

    def checks(self, keys, theories) -> list[Estimate]:
        """One ``Estimate`` per key, in the order of the flattened leading
        axes of the chunks, against its closed form in ``theories`` (None
        where there is none).  A standard error of 0 gives an infinite z,
        which fails the check: it cannot tell the mean from the theory."""
        n, mean, se = self.result()
        out = []
        for key, theory, mu, s in zip(keys, theories, np.ravel(mean).tolist(), np.ravel(se).tolist()):
            z = None if theory is None else (mu - theory) / s if s > 0 else math.inf
            out.append(Estimate(key, n, mu, s, theory, z))
        return out


def _fold(stream, samples: int, groups) -> list[dict]:
    """One ``_Moments`` per key of each of ``groups``, (rows per chunk,
    work) pairs, fed in chunk order.  A group's ``samples`` samples are cut
    into chunks of ``rows`` (the last holds the rest), the chunks of all
    groups are numbered in turn, and chunk k of a group is ``work(stream(k),
    first, m)``: its m samples from the group's sample ``first`` on, as
    (key, (count, mean, sum of squared deviations)) pairs.
    ``output.map_ordered`` runs the chunks on every usable CPU and hands
    their pairs back in chunk order, so every key's merge tree is the same
    on any number of CPUs."""
    firsts = [0]  # the first chunk of each group, and the chunk count last
    for rows, _ in groups:
        firsts.append(firsts[-1] + -(-samples // rows))

    def chunk(k: int):
        g = bisect_right(firsts, k) - 1
        rows, work = groups[g]
        first = (k - firsts[g]) * rows
        return g, work(stream(k), first, min(rows, samples - first))

    np.random.default_rng  # loads numpy.random once, before the pool forks
    folds = [{} for _ in groups]
    for g, parts in map_ordered(chunk, firsts[-1]):
        for key, part in parts:
            folds[g].setdefault(key, _Moments()).merge(part)
    return folds


def _fold_groups(seed: int, tag: int, samples: int, groups) -> list[Estimate]:
    """The estimates of ``groups``, (rows per chunk, sampler, [(keys,
    closed forms), ...]) each, all ``samples`` samples a group: a ``_fold``
    in which chunk k draws from ``default_rng([seed, tag, k])``, and a
    chunk of m rows is ``sampler(rng, m)``, one array (..., m) per (keys,
    closed forms) pair, its flattened leading axes following the keys."""

    def work(sample, rng, first: int, m: int):
        return list(enumerate(map(_chunk_moments, sample(rng, m))))

    folds = _fold(
        lambda k: np.random.default_rng([seed, tag, k]),
        samples,
        [(rows, partial(work, sample)) for rows, sample, _ in groups],
    )
    return [
        row
        for fold, (_, _, checks) in zip(folds, groups)
        for j, (keys, theories) in enumerate(checks)
        for row in fold[j].checks(keys, theories)
    ]


# the largest --replications and --samples: every experiment runs in fixed
# memory, so a run this size takes minutes to hours, and a typo such as 1e12
# would otherwise run for days
_MAX_SAMPLES = 100_000_000

# the largest --queries: a chunk's records grow with the queries, and so
# does the count experiment's peak memory (a peak RSS of about 82 MB per
# process at 1000 and the default model)
_MAX_QUERIES = 1000


def _check_replications(replications: int) -> None:
    if not 1 <= replications <= _MAX_SAMPLES:
        raise ParameterError(f"replications must be >= 1 and at most {_MAX_SAMPLES}, got {replications}")


# ---------------------------------------------------------------------------
# vectorized window engine


# one draw budget for every chunk: a chunk of windows holds at most
# _WINDOW_BATCH rows, fewer once a high quantile of its legs would exceed
# _CHUNK_DRAWS (``mobility.block_rows``), and a conditioned chunk of the
# moment check at most _CHUNK_DRAWS exponentials, (n + 1) * rows
# (``_chunk_rows``); in both, a single row wider than the budget is drawn
# alone.  So a chunk's matrices stay within one bound at any
# --replications, --samples, --n-max and lambda * T.  Both sizes are part
# of the stream layout (a chunk of windows draws all its waypoint counts,
# then all its leg durations, and the chunks are numbered by them), so
# changing either constant changes the output.
_WINDOW_BATCH = 4096
_CHUNK_DRAWS = 1 << 15

# the count experiment's chunks follow the same rule with their own cap and
# budget: at most _COUNT_ROWS replications, fewer once a high quantile of
# their legs would exceed _COUNT_LEGS; part of its stream layout too
_COUNT_ROWS = 256
_COUNT_LEGS = 1 << 16


def _count_rows(model: ModelParams) -> int:
    """R, the replications per chunk of the count experiment."""
    return block_rows(model.lambda_rate, model.span, _COUNT_ROWS, _COUNT_LEGS)


def _count_stream(seed: int, c: int) -> np.random.Generator:
    """Chunk c's stream: the paths of its R replications, then their query
    times."""
    return np.random.default_rng([seed, c])


def sample_window_mean_errors(rng: np.random.Generator, m: int, *, lambda_rate: float, sigma: float, T: float):
    """Squared interpolation error of each of ``m`` windows, averaged over
    the velocities and a uniform query time, shape (m,): one chunk of a
    period sweep, drawn from ``rng``.

    Each window is localized exactly at 0 and T and a query at t is
    answered with the straight line between the two fixes.  Only the leg
    durations are drawn, and every leg ends inside the window.  Given them,
    the error at t is a linear form in the Gaussian velocities, so its mean
    over them is exact: 2 sigma^2 sum_j c_j(t)^2, with
    c_j(t) = clip(t - s_j, 0, d_j) - (t/T) d_j for leg j starting at s_j
    and lasting d_j.  c_j is piecewise linear through 0, -a s_j, a r_j and
    0 at 0, s_j, s_j + d_j and T, where a = d_j / T and
    r_j = T - s_j - d_j, so its mean square
    over t is a^2 (s_j^3 + r_j^3 + d_j (s_j^2 - s_j r_j + r_j^2)) / (3T).
    As s^3 + r^3 = (s + r)(s^2 - s r + r^2) and s_j + d_j + r_j = T, the
    window's value is 2 sigma^2 T^2 / 3 * sum_j a^2 (s^2 - s r + r^2), with
    s and r in units of T.  Every leg's term is non-negative, so the sum
    cancels nothing, and a padding leg's is exactly 0, as its a is.

    The trade-off: the velocity part of the model is integrated
    analytically here, so the period sweeps no longer simulate whole paths.
    Whole-path simulation stays checked by the moment check's window rows
    (``position_sq_unconditional``, ``displacement_cross_moment``), by the
    count experiment, and by a test that holds the timer protocol on whole
    paths to the closed-form average.
    """
    # drawn in units of T, so a chunk holds four (m, legs) matrices
    a, s, _ = _window_durations(rng, lambda_rate * T, 1.0, m)
    r = np.subtract(1.0, s)
    r -= a
    # s^2 - s r + r^2 = s (s - r) + r^2, which is at least
    # 3/4 max(s, r)^2, so this form loses at most a few ulps
    tmp = np.subtract(s, r)
    s *= tmp
    np.square(r, out=tmp)
    s += tmp
    s *= np.square(a, out=a)
    out = s.sum(axis=1)
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


def _per_row(block: TrajectoryBlock, *values):
    """Each of ``values``, a scalar or one per row, as a new array (rows,)."""
    return [np.array(np.broadcast_to(v, len(block)), dtype=float) for v in values]


def run_madrd_block(block: TrajectoryBlock, base_interval, e_thresh, min_interval, max_interval, query_times):
    """The dead-reckoning baseline for every row of a block, with the
    settings of ``protocols.MadrdConfig``, scalars or one per row: fixes at
    0 and at the base interval, then at intervals that
    ``protocols.madrd_on_localization`` adapts; each query is extrapolated
    from the last two fixes at or before it.

    Rows advance in lock-step: each round localizes every row whose next
    fix still falls within the span and retires the others.
    """
    q = np.asarray(query_times, dtype=float)
    interval, e_thresh, lo_clamp, hi_clamp = _per_row(block, base_interval, e_thresh, min_interval, max_interval)
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


def run_dvm_block(block: TrajectoryBlock, threshold, min_interval, max_interval, query_times, bootstrap_interval=1.0):
    """The velocity-monotonic baseline for every row of a block, with the
    settings of ``protocols.DvmConfig``, scalars or one per row, and the
    lock-step rounds of ``run_madrd_block``: fixes at 0 and at
    ``bootstrap_interval``, then at the intervals of
    ``protocols.dvm_next_interval``; each query gets the latest fix."""
    q = np.asarray(query_times, dtype=float)
    threshold, lo_clamp, hi_clamp = _per_row(block, threshold, min_interval, max_interval)
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


class ChunkRecords(NamedTuple):
    """Error records of one chunk of replications: protocol ``protocols[p]``
    answered query j of replication ``replications[i]``, at
    ``query_times[i, j]``, with squared error ``sq_error[i, p, j]``, and
    localized ``localization_count[i, p]`` times in that replication."""

    protocols: tuple[str, ...]
    replications: np.ndarray
    query_times: np.ndarray
    localization_count: np.ndarray
    sq_error: np.ndarray


def chunk_records(
    model: ModelParams, rng: np.random.Generator, first: int, m: int, queries: int, protocols=("MAINT", "MADRD")
):
    """Error records of replications ``first`` to ``first + m - 1``, as
    one ``ChunkRecords``, for arguments that ``run_error_vs_count`` checks.

    Draws a chunk's R paths and then their query times, ``queries`` per
    replication uniformly on [0, span], from its stream ``rng``, and keeps
    the first m of each.  Per replication, every protocol (MAINT, MADRD,
    SFR or DVM, in the order given) gets the same path and queries.  Truth comes from the path;
    estimates only from protocol-visible fixes.  The schedules
    (``MAINT_PERIODS`` for the timer schemes, ``MADRD_BASES`` for dead
    reckoning) cycle through their grids across replications to populate
    the localization-count axis.  The chunk goes through the block-batched
    runners whole; its size keeps its legs near ``_COUNT_LEGS`` entries
    (its rows times a high quantile of a row's leg count) unless it holds a
    single row.
    """
    per_chunk = _count_rows(model)
    paths = TrajectoryBlock.windows(rng, model.lambda_rate, model.sigma, model.span, per_chunk)
    qts = rng.uniform(0.0, model.span, (per_chunk, queries))
    rows = np.arange(first, first + m)
    legs, qts = paths[:m], qts[:m]
    periods = np.array(MAINT_PERIODS)[rows % len(MAINT_PERIODS)]
    base = np.array(MADRD_BASES)[rows % len(MADRD_BASES)]
    runners = {
        "MAINT": lambda: run_maint_timer_block(legs, periods, qts),
        "MADRD": lambda: run_madrd_block(legs, base, MADRD_E_THRESH, MADRD_MIN_INTERVAL, MADRD_MAX_PER_BASE * base, qts),
        "SFR": lambda: run_sfr_block(legs, periods, qts),
        "DVM": lambda: run_dvm_block(legs, DVM_THRESHOLD, DVM_MIN_INTERVAL, DVM_MAX_INTERVAL, qts),
    }
    unknown = [p for p in protocols if p not in runners]
    if unknown:
        raise ParameterError(f"unknown protocols: {unknown}; known: {list(runners)}")
    runs = [runners[p]() for p in protocols]
    tx, ty = legs.position(qts)
    est = np.stack([e for e, _ in runs], axis=1)  # (rows, protocols, queries, 2)
    ex = est[..., 0] - tx[:, None, :]
    ey = est[..., 1] - ty[:, None, :]
    calls = np.stack([c for _, c in runs], axis=1)
    with _overflow_ignored():
        sq = ex * ex + ey * ey
    return ChunkRecords(tuple(protocols), rows, qts, calls, sq)


def _chunk_bins(chunk: ChunkRecords):
    """The records of ``chunk`` grouped by (protocol, localization count),
    by one grouping: each group's key, and its count, mean and sum of
    squared deviations of the squared and of the absolute error."""
    calls, sq = chunk.localization_count, chunk.sq_error.ravel()
    width = int(calls.max()) + 1
    keys, pair_bin = np.unique((calls + width * np.arange(calls.shape[1])).ravel(), return_inverse=True)
    queries = chunk.sq_error.shape[2]
    record_bin = np.repeat(pair_bin, queries)
    counts = np.bincount(pair_bin, minlength=len(keys)) * queries
    values = np.stack([sq, np.sqrt(sq)])
    with _overflow_ignored():
        mean = np.stack([np.bincount(record_bin, v, len(keys)) for v in values]) / counts
        values -= mean[:, record_bin]
        np.square(values, out=values)
    m2 = np.stack([np.bincount(record_bin, v, len(keys)) for v in values])
    return [
        ((chunk.protocols[key // width], key % width), (n, part_mean, part_m2))
        for key, n, part_mean, part_m2 in zip(keys.tolist(), counts.tolist(), mean.T, m2.T)
    ]


def run_error_vs_count(model: ModelParams, replications: int, queries: int) -> list[Estimate]:
    """Error against localization count for the interpolation protocol and
    the dead-reckoning baseline over identical trajectories: two rows per
    (protocol, localization count) bin, keyed (protocol, count, "sq") and
    (protocol, count, "abs"), the squared and the absolute error, in bin
    order.  No closed form exists, so their theory and z are None.

    The replications are one ``_fold`` group.  Each chunk's records
    (``chunk_records``) are grouped by (protocol, localization count) where
    they are drawn, and the bins' partial moments are merged in chunk
    order, so a worker holds one chunk at a time.  Empty bins do not
    appear.  The arguments are checked before anything is drawn.
    """
    _check_replications(replications)
    if not 1 <= queries <= _MAX_QUERIES:
        raise ParameterError(f"queries must be >= 1 and at most {_MAX_QUERIES}, got {queries}")
    per_chunk = _count_rows(model)  # a window above the cap fails first
    for p, n in zip(MAINT_PERIODS, _tick_counts(np.array(MAINT_PERIODS), model.span).tolist()):
        if abs(n * p - model.span) > 1e-9 * model.span:
            raise ParameterError(
                f"maint period {p} does not divide span {model.span}; late queries could never be bracketed"
            )
    groups = [(per_chunk, lambda rng, first, m: _chunk_bins(chunk_records(model, rng, first, m, queries)))]
    (bins,) = _fold(partial(_count_stream, model.seed), replications, groups)
    return [
        row
        for (protocol, count), stats in sorted(bins.items())
        for row in stats.checks([(protocol, count, "sq"), (protocol, count, "abs")], (None, None))
    ]


# ---------------------------------------------------------------------------
# period sweeps


def run_period_sweep(
    sigma: float,
    seed: int,
    T_values,
    replications: int,
    *,
    lambda_rate: float | None = None,
    ratio_C: float | None = None,
) -> list[Estimate]:
    """Simulated mean squared error per localization period, paired with the
    closed-form average: one row per period, keyed (T, lambda); one window
    per replication, timer-style fixes at 0 and T.  Exactly one of
    ``lambda_rate`` and ``ratio_C`` is given: a fixed waypoint rate, or a
    rate tied to the period (lambda = T/C, the constant-ratio sweep).  Each
    period is one chunk group (see the module docstring).  The arguments are
    checked, and every closed form is evaluated, before anything is drawn."""
    if (lambda_rate is None) == (ratio_C is None):
        raise ParameterError("give exactly one of lambda_rate and ratio_C")
    if ratio_C is None:
        _check_positive(sigma=sigma, lambda_rate=lambda_rate)
    else:
        _check_positive(sigma=sigma, ratio_C=ratio_C)
    _check_seed(seed)
    _check_replications(replications)
    bad_T = [T for T in T_values if not (math.isfinite(T) and T > 0)]
    if bad_T:
        raise ParameterError(f"every T must be finite and > 0, got {bad_T[0]}")
    if not T_values:
        raise ParameterError("T_values must be non-empty for a period sweep")
    tag = _STREAM_PERIOD if ratio_C is None else _STREAM_ASYMPTOTE
    periods = [(float(T), lambda_rate if ratio_C is None else float(T) / ratio_C) for T in T_values]
    groups = [
        (
            block_rows(lam, T, _WINDOW_BATCH, _CHUNK_DRAWS),
            lambda rng, m, lam=lam, T=T: (sample_window_mean_errors(rng, m, lambda_rate=lam, sigma=sigma, T=T),),
            [([(T, lam)], [error_avg(sigma, lam, T)])],
        )
        for T, lam in periods
    ]
    return _fold_groups(seed, tag, replications, groups)


# ---------------------------------------------------------------------------
# conditional-moment validation


# the moment check's largest --n-max: it returns 5 n_max^2 / 2 rows,
# which the fixed-size chunks do not bound
_MAX_N_MAX = 100


def _chunk_rows(width: int) -> int:
    """Rows in a chunk of rows of ``width`` draws each (the last chunk of a
    check holds the rest)."""
    return max(1, _CHUNK_DRAWS // width)


def _spacings(rng: np.random.Generator, span: float, parts: int, rows: int) -> np.ndarray:
    """The ``parts`` gaps between 0, the ``parts - 1`` sorted uniform points
    of (0, span) and span, for ``rows`` samples: shape (parts, rows).

    Normalized exponential spacings (Renyi 1953; Devroye 1986, ch. V): with
    E_1..E_parts iid standard exponential, span * E_k / sum E are exactly
    the gaps of sorted uniforms, so nothing is sorted.
    """
    gaps = rng.standard_exponential((parts, rows))
    scale = gaps.sum(axis=0)
    np.divide(span, scale, out=scale)
    gaps *= scale
    return gaps


def _conditioned_chunk(rng: np.random.Generator, m: int, *, tau: float, sigma: float, n: int):
    """The 5 n checks given n waypoints in (0, tau), m samples each: per
    waypoint k, its time and the time squared, the gap before it and the gap
    squared, and the squared position's expectation given the gaps, sigma^2
    times the running sum of squared gaps."""
    gaps = _spacings(rng, tau, n + 1, m)
    q = np.empty((n, 5, m))
    time, gap, gap_sq, position_sq = q[:, 0], q[:, 2], q[:, 3], q[:, 4]
    gap[...] = gaps[:n]
    del gaps
    np.square(gap, out=gap_sq)
    time[0] = gap[0]
    position_sq[0] = gap_sq[0]
    for k in range(1, n):
        np.add(time[k - 1], gap[k], out=time[k])
        np.add(position_sq[k - 1], gap_sq[k], out=position_sq[k])
    np.square(time, out=q[:, 1])
    position_sq *= sigma * sigma
    return (q,)


def _given_count_chunk(rng: np.random.Generator, m: int, *, t: float, sigma: float, i: int):
    """The squared position at t given i waypoints in (0, t), m samples:
    sampled given none, else through its expectation given the i + 1
    gaps."""
    if i == 0:
        x = rng.standard_normal(m)
        x *= t * sigma
        np.square(x, out=x)
    else:
        x = _spacings(rng, t, i + 1, m)
        x = np.square(x, out=x).sum(axis=0)
        x *= sigma * sigma
    return (x,)


def _window_chunk(rng: np.random.Generator, m: int, *, lambda_rate: float, sigma: float, T: float, t: float):
    """m whole windows at T/4, t and T: the unconditional second moment and
    the split-window cross moment per coordinate (x and y are iid, so both
    contribute samples), and the interpolation error at T/4 and at t over
    both coordinates."""
    quarter = T / 4.0
    block = TrajectoryBlock.windows(rng, lambda_rate, sigma, T, m)
    x, y = block.position(np.broadcast_to((quarter, t, T), (m, 3)))
    at_q, at_t, at_T = np.moveaxis(np.stack([x, y]), -1, 0)  # each (coordinate, window)
    per_coordinate = np.stack([at_t * at_t, at_t * (at_T - at_t)]).reshape(2, 2 * m)
    err = np.stack([at_q - quarter / T * at_T, at_t - t / T * at_T])
    return per_coordinate, np.square(err, out=err).sum(axis=1)


def validate_conditional_moments(
    tau: float = 10.0,
    sigma: float = 5.0,
    lambda_rate: float = 0.1,
    t: float = 5.0,
    T: float = 10.0,
    n_max: int = 6,
    samples: int = 100_000,
    seed: int = 0,
) -> list[Estimate]:
    """Monte Carlo z-scores for every conditional-moment formula, and for
    the expected interpolation error at T/4 and at t: one row per check,
    keyed by its name.

    Given n waypoints in (0, tau), their gaps are drawn as normalized
    exponential spacings (``_spacings``) and the waypoint times are their
    running sums.  The squared position at waypoint k is checked through its
    expectation over the velocities given the gaps, sigma^2 sum_{j<=k} g_j^2
    per coordinate, and so is the position at t given i >= 1 waypoints in
    (0, t), from the i + 1 spacings of (0, t).  Given no waypoint the
    position at t is a sampled t sigma N(0, 1), as that expectation would be
    a constant.  The unconditional second moment, the cross moment and the
    errors come from whole windows of ``TrajectoryBlock.windows``, evaluated
    at T/4, t and T; the error at s is |X(s) - (s/T) X(T)|^2 over both
    coordinates.  The CLI's gate passes when every |z| < 4.

    Every quantity is drawn a fixed-size chunk at a time, each chunk from
    its own stream, on every usable CPU, and reduced to partial moments that
    are merged in chunk order (see the module docstring).  So the rows do
    not depend on the CPU count, and memory does not grow with ``samples``,
    ``n_max`` or ``lambda_rate * T``.  The arguments are checked, and every
    closed form is evaluated, before anything is drawn.
    """
    _check_positive(tau=tau, sigma=sigma, lambda_rate=lambda_rate, t=t, T=T)
    if not t <= T:
        raise ParameterError(f"t must lie in (0, T] = (0, {T}], got {t}")
    _check_seed(seed)
    if not 10_000 <= samples <= _MAX_SAMPLES:
        raise ParameterError(f"samples must be >= 10000 and at most {_MAX_SAMPLES}, got {samples}")
    if not 1 <= n_max <= _MAX_N_MAX:
        raise ParameterError(f"n_max must be >= 1 and at most {_MAX_N_MAX}, got {n_max}")
    # sized first, so a lambda * T above the cap fails before any draw
    window_rows = block_rows(lambda_rate, T, _WINDOW_BATCH, _CHUNK_DRAWS)
    # every closed form is evaluated here, so a parameter one of them cannot
    # take (a lambda whose square underflows, a sigma whose square
    # overflows) also fails before any draw
    groups = []
    for n in range(1, n_max + 1):
        names, theories = [], []
        for k in range(1, n + 1):
            for order in (1, 2):
                names.append(f"waypoint_time n={n} k={k} order={order}")
                theories.append(cond_waypoint_time_moment(tau, n, k, order))
            for order in (1, 2):
                names.append(f"interarrival n={n} k={k} order={order}")
                theories.append(cond_interarrival_moment(tau, n, order))
            names.append(f"waypoint_position_sq n={n} k={k}")
            theories.append(cond_position_second_moment(tau, n, k, sigma))
        groups.append((_chunk_rows(n + 1), partial(_conditioned_chunk, tau=tau, sigma=sigma, n=n), [(names, theories)]))
    for i in range(n_max + 1):
        theory = position_second_moment_given_count(t, i, sigma)
        checks = [([f"position_sq_given_count i={i}"], [theory])]
        groups.append((_chunk_rows(i + 1), partial(_given_count_chunk, t=t, sigma=sigma, i=i), checks))
    quarter = T / 4.0
    checks = [
        (
            ["position_sq_unconditional", "displacement_cross_moment"],
            [position_second_moment(t, lambda_rate, sigma), displacement_cross_moment(t, T, lambda_rate, sigma)],
        ),
        ([f"error_at t={s:g}" for s in (quarter, t)], [error_at(sigma, lambda_rate, T, s) for s in (quarter, t)]),
    ]
    groups.append((window_rows, partial(_window_chunk, lambda_rate=lambda_rate, sigma=sigma, T=T, t=t), checks))
    return _fold_groups(seed, _STREAM_MOMENTS, samples, groups)
