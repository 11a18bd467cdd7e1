"""Reference runners: the event-driven state machines of
``maintsim.protocols`` driven one replication at a time.

They are the oracle of the differential tests, which hold the
block-batched runners of ``maintsim.montecarlo`` to the same call counts
and estimates.  Each runs on one path, a one-row ``TrajectoryBlock`` such
as ``generate_trajectory`` returns, and returns (estimates (n, 2),
localization count) for the query times it is given.

``validate_conditional_moments`` is the moment check of 0.4.0 and 0.5.0
in its row-major form, kept as the distributional oracle of the streamed
one in ``maintsim.montecarlo``: it sorts uniforms and samples velocities
where that one draws exponential spacings and takes expectations over
the velocities, so the two must agree check by check within their joint
standard error.  It keeps its own z-check, on ``np.std``, and draws its
windows with ``sample_window_positions``, which the analytic and
window-engine tests use too.

``sample_window_errors`` is the period sweeps' estimator of 0.4.0, kept as
the oracle of ``maintsim.montecarlo.sample_window_mean_errors``: it draws
whole paths and query times and averages sampled squared errors, so the
two must agree within their joint standard error.  Both draw their windows
through ``TrajectoryBlock.windows``, so this checks the velocity average,
not the law of the leg durations; the window tests hold that to the iid
duration rounds of 0.7.0.
"""

import math

import numpy as np

from maintsim.analytic import (
    cond_interarrival_moment,
    cond_position_second_moment,
    cond_waypoint_time_moment,
    displacement_cross_moment,
    error_at,
    position_second_moment,
    position_second_moment_given_count,
)
from maintsim.errors import ParameterError
from maintsim.mobility import TrajectoryBlock
from maintsim.montecarlo import _STREAM_MOMENTS, MomentCheck, MomentReport, _window_batches
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


def sample_window_errors(
    rng: np.random.Generator,
    lambda_rate: float,
    sigma: float,
    T: float,
    n_windows: int,
    n_queries: int,
) -> np.ndarray:
    """Squared interpolation errors, shape (n_windows, n_queries).

    Each window is localized exactly at 0 and T; each query time is uniform
    on [0, T] and answered with the straight line between the two fixes.
    Queries within a window share its trajectory, so rows are the
    independent units for standard errors.
    """
    out = np.empty((n_windows, n_queries))
    for done, m in _window_batches(n_windows, lambda_rate, T):
        block = TrajectoryBlock.windows(rng, lambda_rate, sigma, T, m)
        x_end, y_end = block.position(np.full(m, T))
        for qi in range(n_queries):
            tq = rng.uniform(0.0, T, m)
            frac = tq / T
            x, y = block.position(tq)
            ex = x - x_end * frac
            ey = y - y_end * frac
            out[done : done + m, qi] = ex * ex + ey * ey
    return out


def sample_window_positions(
    rng: np.random.Generator,
    lambda_rate: float,
    sigma: float,
    horizon: float,
    n_windows: int,
    eval_times,
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates at fixed times for independent windows; shapes
    (n_windows, len(eval_times)).  Draws the windows of the moment check."""
    times = [float(t) for t in eval_times]
    xs = np.empty((n_windows, len(times)))
    ys = np.empty((n_windows, len(times)))
    for done, m in _window_batches(n_windows, lambda_rate, horizon):
        block = TrajectoryBlock.windows(rng, lambda_rate, sigma, horizon, m)
        for j, t in enumerate(times):
            xs[done : done + m, j], ys[done : done + m, j] = block.position(np.full(m, t))
    return xs, ys


def _z_check(name: str, sample: np.ndarray, theory: float) -> MomentCheck:
    """The z-check of 0.4.0, on ``np.std``: the oracle of ``montecarlo._z_check``."""
    mean = float(sample.mean())
    se = float(sample.std(ddof=1) / math.sqrt(sample.size))
    z = (mean - theory) / se if se > 0 else 0.0
    return MomentCheck(name=name, mc_mean=mean, std_error=se, theory=theory, z=float(z), samples=sample.size)


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
    The unconditional second moment, the cross moment and the interpolation
    errors at T/4 and t come from direct window simulation.  Passing means
    every |z| < 4.
    """
    if samples < 10_000:
        raise ParameterError(f"samples must be >= 10000, got {samples}")
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    rng = np.random.default_rng([seed, _STREAM_MOMENTS])
    report = MomentReport()

    for n in range(1, n_max + 1):
        wp = np.sort(rng.uniform(0.0, tau, (samples, n)), axis=1)
        gaps = np.diff(wp, axis=1, prepend=0.0)
        vel = sigma * rng.standard_normal((samples, n))
        pos = np.cumsum(vel * gaps, axis=1)
        for k in range(1, n + 1):
            col = k - 1
            report.checks.append(
                _z_check(
                    f"waypoint_time n={n} k={k} order=1",
                    wp[:, col],
                    cond_waypoint_time_moment(tau, n, k, 1),
                )
            )
            report.checks.append(
                _z_check(
                    f"waypoint_time n={n} k={k} order=2",
                    wp[:, col] ** 2,
                    cond_waypoint_time_moment(tau, n, k, 2),
                )
            )
            report.checks.append(
                _z_check(
                    f"interarrival n={n} k={k} order=1",
                    gaps[:, col],
                    cond_interarrival_moment(tau, n, 1),
                )
            )
            report.checks.append(
                _z_check(
                    f"interarrival n={n} k={k} order=2",
                    gaps[:, col] ** 2,
                    cond_interarrival_moment(tau, n, 2),
                )
            )
            report.checks.append(
                _z_check(
                    f"waypoint_position_sq n={n} k={k}",
                    pos[:, col] ** 2,
                    cond_position_second_moment(tau, n, k, sigma),
                )
            )

    # position second moment given an exact waypoint count in (0, t)
    for i in range(0, n_max + 1):
        if i == 0:
            x = t * sigma * rng.standard_normal(samples)
        else:
            wp = np.sort(rng.uniform(0.0, t, (samples, i)), axis=1)
            gaps = np.diff(wp, axis=1, prepend=0.0)
            vel = sigma * rng.standard_normal((samples, i + 1))
            x = (vel[:, :i] * gaps).sum(axis=1) + (t - wp[:, i - 1]) * vel[:, i]
        report.checks.append(
            _z_check(
                f"position_sq_given_count i={i}",
                x**2,
                position_second_moment_given_count(t, i, sigma),
            )
        )

    # unconditional position second moment and the split-window cross moment;
    # x and y coordinates are iid so both contribute samples.  Then the
    # interpolation error over both coordinates at T/4 and t
    quarter = T / 4.0
    xs, ys = sample_window_positions(rng, lambda_rate, sigma, T, samples, (quarter, t, T))
    at_t = np.concatenate([xs[:, 1], ys[:, 1]])
    at_T = np.concatenate([xs[:, 2], ys[:, 2]])
    report.checks.append(
        _z_check("position_sq_unconditional", at_t**2, position_second_moment(t, lambda_rate, sigma))
    )
    report.checks.append(
        _z_check(
            "displacement_cross_moment",
            at_t * (at_T - at_t),
            displacement_cross_moment(t, T, lambda_rate, sigma),
        )
    )
    for j, s in ((0, quarter), (1, t)):
        ex = xs[:, j] - s / T * xs[:, 2]
        ey = ys[:, j] - s / T * ys[:, 2]
        report.checks.append(_z_check(f"error_at t={s:g}", ex**2 + ey**2, error_at(sigma, lambda_rate, T, s)))
    return report
