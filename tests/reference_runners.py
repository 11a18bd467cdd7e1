"""Reference runners: the event-driven state machines of
``maintsim.protocols`` driven one replication at a time.

They are the oracle of the differential tests, which hold the
block-batched runners of ``maintsim.montecarlo`` to the same call counts
and estimates.  Each runs on one path, a one-row ``TrajectoryBlock`` such
as ``generate_trajectory`` returns, and returns (estimates (n, 2),
localization count) for the query times it is given.

``count_chunk`` draws one chunk of the count experiment's paths as the
experiment does, and ``generate_trajectory`` cuts one replication's path
out of its chunk.  ``sample_window_positions`` evaluates
windows of ``TrajectoryBlock.windows`` at fixed times, for the tests that
hold the window positions to the closed forms; it cuts them into the
chunks of ``window_chunk_sizes``, as the period sweeps and the moment check
do, but draws every chunk from the one generator it is given.
"""

import numpy as np

from maintsim.errors import ParameterError
from maintsim.mobility import ModelParams, TrajectoryBlock, block_rows
from maintsim.montecarlo import _CHUNK_DRAWS, _WINDOW_BATCH, _count_rows, _count_stream
from maintsim.protocols import (
    DvmConfig,
    DvmState,
    MadrdConfig,
    MadrdState,
    Query,
    dvm_next_interval,
    dvm_on_localization,
    interpolate,
    localize,
    madrd_on_localization,
    maint_init,
    maint_on_query,
    maint_on_timer,
    sfr_schedule,
)


def count_chunk(params: ModelParams, chunk: int) -> tuple[TrajectoryBlock, np.random.Generator]:
    """The paths of replications chunk * R to chunk * R + R - 1 of the count
    experiment, R = ``_count_rows(params)``, and the chunk's stream after
    them, from which the chunk draws its query times next."""
    rng = _count_stream(params.seed, chunk)
    return TrajectoryBlock.windows(rng, params.lambda_rate, params.sigma, params.span, _count_rows(params)), rng


def generate_trajectory(params: ModelParams, replication_index: int = 0) -> TrajectoryBlock:
    """Path of one replication, row r mod R of chunk r // R, as a one-row
    block.

    Deterministic given ``(params.seed, replication_index)``.  It draws the
    whole chunk and copies the row's legs that start by the span, so the
    path can be evaluated up to the horizon without edge bias and does not
    keep the chunk alive.  Its legs are bit for bit those of the chunk row.
    """
    if int(replication_index) != replication_index or replication_index < 0:
        raise ParameterError(f"replication_index must be a non-negative integer, got {replication_index}")
    chunk, row = divmod(int(replication_index), _count_rows(params))
    paths, _ = count_chunk(params, chunk)
    n_legs = int(np.count_nonzero(paths.start_times[row] <= params.span))
    legs = (paths.start_times, paths.start_x, paths.start_y, paths.vel_x, paths.vel_y)
    return TrajectoryBlock(params.span, *(a[row : row + 1, :n_legs].copy() for a in legs))


def run_maint_timer(traj: TrajectoryBlock, period: float, query_times):
    """Timer-driven interpolation protocol over the full span.

    Localizations fire at 0, period, 2*period, ... regardless of traffic, so
    the call count is floor(span/period) + 1 exactly.  Every query must fall
    at or before the final tick (otherwise no enclosing pair ever exists).
    Returns (estimates (n, 2), localization count).
    """
    qts = np.asarray(query_times, dtype=float)
    ticks = sfr_schedule(period, traj.span)[1:]
    if qts.size and not len(ticks):
        raise ParameterError(f"period {period} schedules no tick within the span; nothing can bracket a query")
    horizon = float(ticks[-1]) if len(ticks) else 0.0
    if qts.size and qts.max() > horizon:
        raise ParameterError(
            f"query at {qts.max()} lies beyond the final localization at {horizon}"
        )
    state = maint_init(traj, period)
    events = sorted(
        [(float(t), 0, i) for i, t in enumerate(qts)] + [(float(t), 1, -1) for t in ticks]
    )
    est = np.empty((qts.size, 2))
    for when, kind, idx in events:
        if kind == 0:
            maint_on_query(state, Query(time=when, requester=idx), clock=when)
        else:
            for resp in maint_on_timer(state, traj, when):
                est[resp.requester] = interpolate(resp.fix_a, resp.fix_b, qts[resp.requester])
    return est, state.calls


def run_sfr(traj: TrajectoryBlock, period: float, query_times):
    """Fixed-rate baseline: answer every query with the latest fix."""
    qts = np.asarray(query_times, dtype=float)
    ticks = sfr_schedule(period, traj.span)
    fx, fy = traj.position(ticks[None])
    idx = np.searchsorted(ticks, qts, side="right") - 1
    return np.column_stack([fx[0, idx], fy[0, idx]]), len(ticks)


def _madrd_fix_sequence(traj: TrajectoryBlock, cfg: MadrdConfig):
    """All MADRD localizations over the span.

    Bootstrap: one fix at 0 and one after the base interval (no velocity is
    defined until two fixes exist); adaptation starts at the third fix.
    """
    fix0 = localize(traj, 0.0)
    if cfg.base_interval >= traj.span:
        return [fix0], 1
    fix1 = localize(traj, cfg.base_interval)
    state = MadrdState(fix_prev=fix0, fix_last=fix1, next_interval=cfg.base_interval, config=cfg)
    fixes = [fix0, fix1]
    next_t = state.fix_last.time + state.next_interval
    while next_t <= traj.span:
        madrd_on_localization(state, localize(traj, next_t))
        fixes.append(state.fix_last)
        next_t = state.fix_last.time + state.next_interval
    return fixes, state.calls


def run_madrd(traj: TrajectoryBlock, cfg: MadrdConfig, query_times):
    """Dead-reckoning baseline: answer each query by extrapolating from the
    last two fixes known at the query time (stationary before the second
    fix exists)."""
    qts = np.asarray(query_times, dtype=float)
    fixes, calls = _madrd_fix_sequence(traj, cfg)
    times = np.array([f.time for f in fixes])
    fx = np.array([f.pos[0] for f in fixes])
    fy = np.array([f.pos[1] for f in fixes])
    j = np.searchsorted(times, qts, side="right") - 1
    est = np.empty((qts.size, 2))
    first = j == 0
    est[first, 0] = fx[0]
    est[first, 1] = fy[0]
    later = ~first
    if later.any():
        jl = j[later]
        dt = times[jl] - times[jl - 1]
        age = qts[later] - times[jl]
        est[later, 0] = fx[jl] + (fx[jl] - fx[jl - 1]) / dt * age
        est[later, 1] = fy[jl] + (fy[jl] - fy[jl - 1]) / dt * age
    return est, calls


def run_dvm(traj: TrajectoryBlock, cfg: DvmConfig, query_times, bootstrap_interval: float = 1.0):
    """Velocity-monotonic baseline: schedule by recent speed, answer with the
    latest fix."""
    qts = np.asarray(query_times, dtype=float)
    fix0 = localize(traj, 0.0)
    if bootstrap_interval >= traj.span:
        return np.tile(fix0.pos, (qts.size, 1)), 1
    fix1 = localize(traj, bootstrap_interval)
    state = DvmState(fix_prev=fix0, fix_last=fix1, config=cfg)
    fixes = [fix0, fix1]
    next_t = state.fix_last.time + dvm_next_interval(state)
    while next_t <= traj.span:
        dvm_on_localization(state, localize(traj, next_t))
        fixes.append(state.fix_last)
        next_t = state.fix_last.time + dvm_next_interval(state)
    times = np.array([f.time for f in fixes])
    fx = np.array([f.pos[0] for f in fixes])
    fy = np.array([f.pos[1] for f in fixes])
    j = np.searchsorted(times, qts, side="right") - 1
    return np.column_stack([fx[j], fy[j]]), state.calls


def window_chunk_sizes(n_windows: int, lambda_rate: float, horizon: float) -> list[int]:
    """Rows of each chunk of ``n_windows`` windows over [0, horizon]: full
    chunks of ``block_rows`` with the engine's cap and draw budget, then the
    rest."""
    rows = block_rows(lambda_rate, horizon, _WINDOW_BATCH, _CHUNK_DRAWS)
    return [min(rows, n_windows - done) for done in range(0, n_windows, rows)]


def sample_window_positions(
    rng: np.random.Generator,
    lambda_rate: float,
    sigma: float,
    horizon: float,
    n_windows: int,
    eval_times,
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates at fixed times of independent windows, drawn from ``rng``
    a chunk of ``window_chunk_sizes`` after another; shapes (n_windows,
    len(eval_times))."""
    times = [float(t) for t in eval_times]
    xs = np.empty((n_windows, len(times)))
    ys = np.empty((n_windows, len(times)))
    done = 0
    for m in window_chunk_sizes(n_windows, lambda_rate, horizon):
        block = TrajectoryBlock.windows(rng, lambda_rate, sigma, horizon, m)
        for j, t in enumerate(times):
            xs[done : done + m, j], ys[done : done + m, j] = block.position(np.full(m, t))
        done += m
    return xs, ys
