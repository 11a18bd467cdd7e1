"""Reference runners: the event-driven state machines of
``maintsim.protocols`` driven one replication at a time.

They are the oracle of the differential tests, which hold the
block-batched runners of ``maintsim.montecarlo`` to the same call counts
and estimates.  Each returns (estimates (n, 2), localization count) for the
query times it is given.
"""

import numpy as np

from maintsim.errors import ParameterError
from maintsim.mobility import Trajectory, position_at
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


def run_maint_timer(traj: Trajectory, period: float, query_times):
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
    state = maint_init(traj, period, mode="timer")
    events = sorted(
        [(float(t), 0, i) for i, t in enumerate(qts)] + [(float(t), 1, -1) for t in ticks]
    )
    est = np.empty((qts.size, 2))
    for when, kind, idx in events:
        if kind == 0:
            maint_on_query(state, Query(time=when, requester=idx), traj, clock=when)
        else:
            for resp in maint_on_timer(state, traj, when):
                est[resp.requester] = interpolate(resp.fix_a, resp.fix_b, qts[resp.requester])
    return est, state.calls


def run_sfr(traj: Trajectory, period: float, query_times):
    """Fixed-rate baseline: answer every query with the latest fix."""
    qts = np.asarray(query_times, dtype=float)
    ticks = sfr_schedule(period, traj.span)
    fx, fy = position_at(traj, ticks)
    idx = np.searchsorted(ticks, qts, side="right") - 1
    return np.column_stack([fx[idx], fy[idx]]), len(ticks)


def _madrd_fix_sequence(traj: Trajectory, cfg: MadrdConfig):
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


def run_madrd(traj: Trajectory, cfg: MadrdConfig, query_times):
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


def run_dvm(traj: Trajectory, cfg: DvmConfig, query_times, bootstrap_interval: float = 1.0):
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
