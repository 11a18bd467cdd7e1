"""Random-waypoint trajectories on the unbounded plane.

A trajectory is a chain of straight legs starting at the origin.  At each
waypoint the sensor draws an independent leg duration (exponential, mean
``1/lambda_rate``) and a velocity vector with iid ``Normal(0, sigma)``
components, then moves in a straight line for that long.  Waypoint
occurrences therefore form a Poisson process with rate ``lambda_rate``.

Trajectories are immutable after generation and safe to share between
replication workers.

``TrajectoryBlock`` holds many paths of the same model as padded
(rows, legs) matrices and evaluates all rows at once.  It is built either by
stacking generated trajectories (the count experiment) or by drawing
independent windows over [0, horizon] straight from a caller's generator
(the window engine of ``montecarlo``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class ModelParams:
    """Mobility-model parameters.

    lambda_rate: waypoint rate (1/second), sigma: velocity-component standard
    deviation (unit/second), seed: base RNG seed, span: simulated horizon
    (seconds).
    """

    lambda_rate: float
    sigma: float
    seed: int
    span: float

    def __post_init__(self) -> None:
        for name in ("lambda_rate", "sigma", "span"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be finite and > 0, got {value}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear path; legs tile [0, span] with the last one allowed
    to overshoot the horizon (its full drawn duration is kept)."""

    span: float
    start_times: np.ndarray  # leg start times, start_times[0] == 0
    start_x: np.ndarray
    start_y: np.ndarray
    vel_x: np.ndarray
    vel_y: np.ndarray
    durations: np.ndarray

    @property
    def waypoint_times(self) -> np.ndarray:
        """Times of direction changes after the start (may exceed span)."""
        return self.start_times[1:]


def generate_trajectory(params: ModelParams, replication_index: int = 0) -> Trajectory:
    """Draw a trajectory covering [0, params.span].

    Deterministic given ``(params.seed, replication_index)``: each pair keys
    an independent RNG stream.  Legs are drawn until their cumulative
    duration reaches the span; the overshooting final leg is kept so the
    path can be evaluated up to the horizon without edge bias.
    """
    if int(replication_index) != replication_index or replication_index < 0:
        raise ParameterError(f"replication_index must be a non-negative integer, got {replication_index}")
    rng = np.random.default_rng([params.seed, replication_index])
    lam = params.lambda_rate

    expected = lam * params.span
    block = max(16, int(expected + 10.0 * math.sqrt(expected + 1.0) + 8))
    gaps = rng.standard_exponential(block, method="inv") / lam
    total = gaps.sum()
    while total < params.span:
        more = rng.standard_exponential(block, method="inv") / lam
        gaps = np.concatenate([gaps, more])
        total = gaps.sum()

    ends = np.cumsum(gaps)
    n_legs = int(np.searchsorted(ends, params.span, side="left")) + 1
    gaps = gaps[:n_legs]
    ends = ends[:n_legs]

    us = params.sigma * rng.standard_normal(n_legs)
    vs = params.sigma * rng.standard_normal(n_legs)

    start_times = np.concatenate([[0.0], ends[:-1]])
    xs = np.concatenate([[0.0], np.cumsum(us[:-1] * gaps[:-1])])
    ys = np.concatenate([[0.0], np.cumsum(vs[:-1] * gaps[:-1])])

    return Trajectory(
        span=params.span,
        start_times=start_times,
        start_x=xs,
        start_y=ys,
        vel_x=us,
        vel_y=vs,
        durations=gaps,
    )


def _check_time(traj: Trajectory, t) -> np.ndarray:
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0.0) or np.any(ts > traj.span):
        raise ParameterError(f"time outside [0, {traj.span}]")
    return ts


def position_at(traj: Trajectory, t):
    """True position at time ``t`` (scalar or array), 0 <= t <= span."""
    ts = _check_time(traj, t)
    idx = np.searchsorted(traj.start_times, ts, side="right") - 1
    dt = ts - traj.start_times[idx]
    x = traj.start_x[idx] + traj.vel_x[idx] * dt
    y = traj.start_y[idx] + traj.vel_y[idx] * dt
    if np.ndim(t) == 0:
        return float(x), float(y)
    return x, y


def waypoint_count(traj: Trajectory, t) -> int:
    """Number of waypoints in (0, t]."""
    ts = _check_time(traj, t)
    n = np.searchsorted(traj.waypoint_times, ts, side="right")
    if np.ndim(t) == 0:
        return int(n)
    return n



@dataclass(frozen=True)
class TrajectoryBlock:
    """Legs of several paths over one span, stacked into padded (rows, legs)
    matrices.  Padding legs never move a row: ``stack`` pads start times
    with +inf, so a padding leg never starts at or before any time, and
    ``windows`` pads a row with zero-duration legs after its last one."""

    span: float
    start_times: np.ndarray
    start_x: np.ndarray
    start_y: np.ndarray
    vel_x: np.ndarray
    vel_y: np.ndarray

    @classmethod
    def stack(cls, trajs) -> TrajectoryBlock:
        spans = {traj.span for traj in trajs}
        if len(spans) != 1:
            raise ParameterError(f"a block needs trajectories over one span, got spans {sorted(spans)}")
        lengths = np.array([len(traj.start_times) for traj in trajs])
        filled = np.arange(lengths.max()) < lengths[:, None]

        def pad(name: str, fill: float) -> np.ndarray:
            out = np.full(filled.shape, fill)
            out[filled] = np.concatenate([getattr(traj, name) for traj in trajs])
            return out

        return cls(
            span=spans.pop(),
            start_times=pad("start_times", np.inf),
            start_x=pad("start_x", 0.0),
            start_y=pad("start_y", 0.0),
            vel_x=pad("vel_x", 0.0),
            vel_y=pad("vel_y", 0.0),
        )

    @classmethod
    def windows(
        cls, rng: np.random.Generator, lambda_rate: float, sigma: float, horizon: float, rows: int
    ) -> TrajectoryBlock:
        """``rows`` independent paths of the model covering [0, horizon],
        all starting at the origin.

        Draws from ``rng`` in a fixed order: the leg durations, further
        rounds of durations for the rows whose legs still fall short of the
        horizon (the other rows get zero-duration legs in each round), then
        the x and the y velocity components of every leg.
        """
        expected = lambda_rate * horizon
        cols = max(8, int(expected + 10.0 * math.sqrt(expected + 1.0) + 8))
        gaps = rng.standard_exponential((rows, cols), method="inv") / lambda_rate
        total = gaps.sum(axis=1)
        while True:
            short = total < horizon
            if not short.any():
                break
            pad = np.zeros((rows, cols))
            pad[short] = rng.standard_exponential((int(short.sum()), cols), method="inv") / lambda_rate
            gaps = np.hstack([gaps, pad])
            total += pad.sum(axis=1)
        u = sigma * rng.standard_normal(gaps.shape)
        v = sigma * rng.standard_normal(gaps.shape)

        def leg_starts(steps: np.ndarray) -> np.ndarray:
            # summed straight into the result, with no second full-size
            # temporary: these matrices set the sweeps' peak memory
            out = np.zeros_like(steps)
            np.cumsum(steps[:, :-1], axis=1, out=out[:, 1:])
            return out

        return cls(
            span=horizon,
            start_times=leg_starts(gaps),
            start_x=leg_starts(u * gaps),
            start_y=leg_starts(v * gaps),
            vel_x=u,
            vel_y=v,
        )

    def __len__(self) -> int:
        return len(self.start_times)

    def position(self, t, rows=None):
        """Coordinates at times ``t`` of shape (n,) or (n, k), one row of
        ``t`` per trajectory row: all rows, or the n row indices ``rows``.

        Same arithmetic as ``position_at``: the count of leg starts at or
        before a time equals ``searchsorted(side="right")``.
        """
        ts = np.asarray(t, dtype=float)
        if np.any(ts < 0.0) or np.any(ts > self.span):
            raise ParameterError(f"time outside [0, {self.span}]")
        flat = ts[:, None] if ts.ndim == 1 else ts
        if rows is None:
            r = np.arange(len(self))[:, None]
            starts = self.start_times[:, None, :]
        else:
            r = np.asarray(rows)[:, None]
            starts = self.start_times[r]
        idx = (starts <= flat[:, :, None]).sum(axis=2) - 1
        dt = flat - self.start_times[r, idx]
        x = self.start_x[r, idx] + self.vel_x[r, idx] * dt
        y = self.start_y[r, idx] + self.vel_y[r, idx] * dt
        return x.reshape(ts.shape), y.reshape(ts.shape)
