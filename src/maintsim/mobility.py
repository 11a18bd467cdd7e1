"""Random-waypoint trajectories on the unbounded plane.

A trajectory is a chain of straight legs starting at the origin.  At each
waypoint the sensor draws an independent leg duration (exponential, mean
``1/lambda_rate``) and a velocity vector with iid ``Normal(0, sigma)``
components, then moves in a straight line for that long.  Waypoint
occurrences therefore form a Poisson process with rate ``lambda_rate``.

``TrajectoryBlock`` is the one path type: one or many paths of the model
over one span as padded (rows, legs) matrices, immutable after generation,
whose ``position`` evaluates every row at once.  ``windows`` draws
independent paths over [0, horizon] straight from a caller's generator; the
count experiment and the moment check use it.  It draws only what the
window holds, by the direct construction of a Poisson process: a row's
waypoint count N is Poisson(lambda * horizon), and given N its N + 1 legs
are normalized exponential spacings of [0, horizon] (Renyi 1953; Devroye
1986, ch. V), so every leg ends inside the window and nothing is trimmed
(``_window_durations``, all that the period sweeps of ``montecarlo``
draw); then the velocities of those legs.  Every caller sizes its blocks
with ``block_rows``: a cap on the rows and a budget of legs at a high
quantile of a row's leg count, so that the memory of a block stays bounded
however large lambda * horizon is (a single row wider than the budget is
drawn alone).  A lambda * horizon above ``_MAX_WINDOW_LEGS``, the most that
keeps one row within a stated memory budget, is refused before anything
is drawn.

One such row, cut to a one-row block, is the path that the event-driven
state machines of ``protocols`` localize on, through the same ``position``
as the block runners.  How the experiments cut their draws into chunks,
and which stream each chunk draws from, is ``montecarlo``'s.
"""

from __future__ import annotations

import math
import numbers
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
        _check_positive(lambda_rate=self.lambda_rate, sigma=self.sigma, span=self.span)
        _check_seed(self.seed)


def _check_positive(**values: float) -> None:
    """Raise a ``ParameterError`` naming the first value that is not finite
    and > 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be finite and > 0, got {value}")


def _check_seed(seed) -> None:
    # numpy's seed sequences take integers only
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")


# the largest lambda * horizon a window may expect, so that one row fits in
# a budget of _ROW_BUDGET bytes.  At its peak a row takes about _ROW_BYTES
# bytes a leg (traced with tracemalloc: 56 for a row whose positions are
# evaluated at a few times, as in the moment check and in fig4 at one
# query; 33 for a row of the period sweeps), so the cap is about 1.9e7,
# far below numpy's limits on a Poisson mean and on an array's size.  A
# lambda * horizon of 1e9 would need some 56 GB and be killed by the OS.
# fig4 evaluates its rows at every query time, about 2 bytes a leg more per
# query, which this cap does not bound
_ROW_BUDGET = 1 << 30
_ROW_BYTES = 56
_MAX_WINDOW_LEGS = _ROW_BUDGET // _ROW_BYTES


def _expected_waypoints(lambda_rate: float, horizon: float) -> float:
    """lambda * horizon, the mean waypoint count of a window, once it is
    checked to be non-negative and at most ``_MAX_WINDOW_LEGS``: every
    window is sized and drawn through here, so any other fails before
    anything is allocated."""
    expected = lambda_rate * horizon
    if expected < 0:
        raise ParameterError(f"lambda times the window length must be >= 0, got {expected:g}")
    if not expected <= _MAX_WINDOW_LEGS:
        raise ParameterError(f"lambda times the window length must be at most {_MAX_WINDOW_LEGS:g}, got {expected:g}")
    return expected


def _leg_count_quantile(lambda_rate: float, horizon: float) -> int:
    """A high quantile of the legs of one window row, one plus a
    Poisson(lambda * horizon) count: the mean plus about three standard
    deviations.  It sizes batches only (``block_rows``)."""
    expected = _expected_waypoints(lambda_rate, horizon)
    return max(2, int(expected + 3.0 * math.sqrt(expected) + 2))


def block_rows(lambda_rate: float, horizon: float, most: int, budget: int) -> int:
    """Rows of one ``TrajectoryBlock.windows`` draw over [0, horizon]: at
    most ``most``, and fewer once ``_leg_count_quantile`` legs per row would
    exceed ``budget``; one row at the least, however wide.  A batch is as
    wide as its longest row, which can pass the quantile by a few legs."""
    return min(most, max(1, budget // _leg_count_quantile(lambda_rate, horizon)))


def _window_durations(rng: np.random.Generator, lambda_rate: float, horizon: float, rows: int):
    """Leg durations and start times, each (rows, legs), and the mask of the
    live legs, in the draw order of ``TrajectoryBlock.windows``.  Padding
    legs have duration 0 and start just past the horizon."""
    legs = rng.poisson(_expected_waypoints(lambda_rate, horizon), rows) + 1
    live = np.arange(legs.max()) < legs[:, None]
    gaps = np.zeros(live.shape)
    gaps[live] = rng.standard_exponential(int(legs.sum()))
    # the last start plus the last gap is the row's running sum: padding
    # adds exact zeros to it.  Divided first, so a one-leg row lasts exactly
    # the horizon
    starts = _leg_starts(gaps)
    gaps /= (starts[:, -1] + gaps[:, -1])[:, None]
    gaps *= horizon
    np.cumsum(gaps[:, :-1], axis=1, out=starts[:, 1:])
    starts[~live] = np.nextafter(horizon, np.inf)
    return gaps, starts, live


def _window_legs(rng: np.random.Generator, lambda_rate: float, sigma: float, horizon: float, rows: int):
    """Leg durations, start times and x and y velocity components, each
    (rows, legs), in the draw order that ``TrajectoryBlock.windows``
    documents: ``_window_durations``, then the velocities of the live legs."""
    gaps, starts, live = _window_durations(rng, lambda_rate, horizon, rows)
    n_live = int(np.count_nonzero(live))
    u = np.zeros(live.shape)
    u[live] = sigma * rng.standard_normal(n_live)
    v = np.zeros(live.shape)
    v[live] = sigma * rng.standard_normal(n_live)
    return gaps, starts, u, v


def _leg_starts(steps: np.ndarray) -> np.ndarray:
    # summed straight into the result, with no second full-size temporary:
    # these matrices set the sweeps' peak memory
    out = np.zeros_like(steps)
    np.cumsum(steps[:, :-1], axis=1, out=out[:, 1:])
    return out


@dataclass(frozen=True)
class TrajectoryBlock:
    """Legs of several paths over one span, stacked into padded (rows, legs)
    matrices.  Padding legs never move a row within the span: they start
    after the span."""

    span: float
    start_times: np.ndarray
    start_x: np.ndarray
    start_y: np.ndarray
    vel_x: np.ndarray
    vel_y: np.ndarray

    @classmethod
    def windows(
        cls, rng: np.random.Generator, lambda_rate: float, sigma: float, horizon: float, rows: int
    ) -> TrajectoryBlock:
        """``rows`` independent paths of the model covering [0, horizon],
        all starting at the origin.

        Draws from ``rng`` in a fixed order.  First every row's waypoint
        count N, Poisson(lambda_rate * horizon), as one vector.  Then the
        N + 1 standard exponentials of every row, as one flat vector in
        row-major order; each row's are scaled to sum to the horizon and
        are its leg durations, and the starts are their running sums.  Last
        come the x, then the y velocity components of those legs, each as
        one flat vector in row-major order.  The block is as wide as its
        longest row; the other rows' padding legs have duration and
        velocity 0 and start past the horizon, so they never move a row
        within [0, horizon].
        """
        gaps, starts, u, v = _window_legs(rng, lambda_rate, sigma, horizon, rows)
        return cls(horizon, starts, _leg_starts(u * gaps), _leg_starts(v * gaps), u, v)

    def __len__(self) -> int:
        return len(self.start_times)

    def __getitem__(self, rows: slice) -> TrajectoryBlock:
        """The block of the rows ``rows`` selects, as views."""
        return TrajectoryBlock(
            self.span, self.start_times[rows], self.start_x[rows], self.start_y[rows], self.vel_x[rows], self.vel_y[rows]
        )

    def position(self, t, rows=None):
        """Coordinates at times ``t`` of shape (n,) or (n, k), one row of
        ``t`` per trajectory row: all rows, or the n row indices ``rows``.
        A single time on a one-row block is a (1, 1) ``t``.

        The leg in force at a time is the last one that starts at or before
        it: the count of such starts, less one, which equals
        ``searchsorted(side="right") - 1`` on the row's sorted starts.
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
