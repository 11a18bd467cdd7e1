"""Tracking protocols: MAINT interpolation plus the MADRD, SFR and DVM
baselines.

All four schemes pay one unit of energy per localization call, so each
state carries a ``calls`` counter and nothing else measures energy.  Each
state machine serves a single simulated sensor, whose true path is a
one-row ``mobility.TrajectoryBlock`` (a row of a replication chunk);
distinct sensors can run concurrently because no state is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, DegeneratePairError, ParameterError, StaleQueryError
from .mobility import TrajectoryBlock


@dataclass(frozen=True)
class LocalizationFix:
    """Exact (time, position) sample of the true path."""

    time: float
    pos: tuple[float, float]


@dataclass(frozen=True)
class Query:
    time: float
    requester: object


@dataclass(frozen=True)
class Response:
    """Answer to one query: the two fixes enclosing its time."""

    requester: object
    fix_a: LocalizationFix
    fix_b: LocalizationFix


def localize(truth: TrajectoryBlock, t: float) -> LocalizationFix:
    """Invoke the (costly) positioning primitive: an exact fix of the
    one-row path ``truth``."""
    x, y = truth.position(np.array([[t]]))
    return LocalizationFix(time=t, pos=(float(x[0, 0]), float(y[0, 0])))


# ---------------------------------------------------------------------------
# position estimators


def interpolate(fix_a: LocalizationFix, fix_b: LocalizationFix, t_query: float) -> tuple[float, float]:
    """Linear interpolation between two fixes; exact at both endpoints."""
    dt = fix_b.time - fix_a.time
    if dt <= 0.0:
        raise DegeneratePairError(f"fix pair spans no time ({fix_a.time} .. {fix_b.time})")
    if not (fix_a.time <= t_query <= fix_b.time):
        raise BracketError(f"t={t_query} outside fix bracket [{fix_a.time}, {fix_b.time}]")
    vx = (fix_b.pos[0] - fix_a.pos[0]) / dt
    vy = (fix_b.pos[1] - fix_a.pos[1]) / dt
    s = t_query - fix_a.time
    return fix_a.pos[0] + vx * s, fix_a.pos[1] + vy * s


# ---------------------------------------------------------------------------
# MAINT


@dataclass
class MaintState:
    """Sensor-side MAINT scheduler: queries are buffered until the next
    timer tick, which localizes and answers them all."""

    last_fix: LocalizationFix
    pending: list[Query] = field(default_factory=list)
    calls: int = 1


def maint_init(truth: TrajectoryBlock, period_T: float) -> MaintState:
    """Localize once at time 0 and return fresh scheduler state.

    The caller schedules the timer ticks every ``period_T``; it is only
    checked here, so a bad period fails before the first tick.
    """
    if not period_T > 0:
        raise ParameterError(f"period_T must be > 0, got {period_T}")
    return MaintState(last_fix=localize(truth, 0.0))


def maint_on_query(state: MaintState, q: Query, clock: float) -> None:
    """Buffer a query until the next timer tick.

    Every response carries the two fixes enclosing the query time, so the
    base station can interpolate.  A repeated requester is buffered once
    per window.
    """
    if q.time != clock:
        raise ParameterError(f"query time {q.time} disagrees with clock {clock}")
    if q.time < state.last_fix.time:
        raise StaleQueryError(f"query at {q.time} predates last fix at {state.last_fix.time}")
    if all(p.requester != q.requester for p in state.pending):
        # keep the buffer time-ordered even under out-of-order delivery
        at = len(state.pending)
        while at > 0 and state.pending[at - 1].time > q.time:
            at -= 1
        state.pending.insert(at, q)


def maint_on_timer(state: MaintState, truth: TrajectoryBlock, clock: float) -> list[Response]:
    """Timer tick: localize now and flush all buffered queries."""
    if clock < state.last_fix.time:
        raise ParameterError(f"timer tick at {clock} predates last fix at {state.last_fix.time}")
    new_fix = localize(truth, clock)
    state.calls += 1
    responses = [Response(q.requester, state.last_fix, new_fix) for q in state.pending]
    state.pending.clear()
    state.last_fix = new_fix
    return responses


# ---------------------------------------------------------------------------
# MADRD


@dataclass(frozen=True)
class MadrdConfig:
    """Dead-reckoning adaptation knobs.  ``max_interval`` defaults to four
    base intervals; the error threshold is on the same scale as sigma."""

    base_interval: float
    e_thresh: float = 5.0
    min_interval: float = 0.1
    max_interval: float | None = None

    def __post_init__(self) -> None:
        if not self.base_interval > 0:
            raise ParameterError(f"base_interval must be > 0, got {self.base_interval}")
        if not self.e_thresh > 0:
            raise ParameterError(f"e_thresh must be > 0, got {self.e_thresh}")
        if self.max_interval is not None and not self.max_interval > 0:
            raise ParameterError(f"max_interval must be > 0, got {self.max_interval}")
        if not 0 < self.min_interval <= self.clamp_max:
            raise ParameterError("need 0 < min_interval <= max_interval")

    @property
    def clamp_max(self) -> float:
        return self.max_interval if self.max_interval is not None else 4.0 * self.base_interval


@dataclass
class MadrdState:
    fix_prev: LocalizationFix
    fix_last: LocalizationFix
    next_interval: float
    config: MadrdConfig
    calls: int = 2

    @property
    def velocity_est(self) -> tuple[float, float]:
        dt = self.fix_last.time - self.fix_prev.time
        if dt <= 0.0:
            raise DegeneratePairError("last two fixes coincide in time")
        return (
            (self.fix_last.pos[0] - self.fix_prev.pos[0]) / dt,
            (self.fix_last.pos[1] - self.fix_prev.pos[1]) / dt,
        )


def extrapolate_madrd(state: MadrdState, t_query: float) -> tuple[float, float]:
    """Dead-reckoned position: continue at the velocity between the last two
    fixes."""
    if t_query < state.fix_last.time:
        raise ParameterError(f"t={t_query} predates last fix at {state.fix_last.time}")
    vx, vy = state.velocity_est
    s = t_query - state.fix_last.time
    return state.fix_last.pos[0] + vx * s, state.fix_last.pos[1] + vy * s


def madrd_on_localization(state: MadrdState, new_fix: LocalizationFix) -> MadrdState:
    """Fold in a fresh fix: score the predictor against it, adapt the
    localization interval multiplicatively, and shift the fix pair.

    Prediction error above e_thresh halves the interval, below e_thresh/2
    doubles it; anything in between (including an exact tie at the
    threshold) leaves it unchanged.  The result is clamped.
    """
    if new_fix.time <= state.fix_last.time:
        raise ParameterError(f"new fix at {new_fix.time} must postdate {state.fix_last.time}")
    px, py = extrapolate_madrd(state, new_fix.time)
    distance_error = math.hypot(px - new_fix.pos[0], py - new_fix.pos[1])
    cfg = state.config
    if distance_error > cfg.e_thresh:
        state.next_interval /= 2.0
    elif distance_error < cfg.e_thresh / 2.0:
        state.next_interval *= 2.0
    state.next_interval = min(max(state.next_interval, cfg.min_interval), cfg.clamp_max)
    state.fix_prev = state.fix_last
    state.fix_last = new_fix
    state.calls += 1
    return state


# ---------------------------------------------------------------------------
# SFR


def sfr_schedule(period: float, span: float) -> np.ndarray:
    """Fixed-rate localization times {0, period, 2*period, ...} <= span.

    Queries under SFR are answered with the most recent fix.  The division
    tolerates one ulp of noise so exact multiples are kept.
    """
    if not period > 0:
        raise ParameterError(f"period must be > 0, got {period}")
    if span < 0:
        raise ParameterError(f"span must be >= 0, got {span}")
    n = int(math.floor(span / period * (1.0 + 1e-12)))
    return np.arange(n + 1, dtype=float) * period


# ---------------------------------------------------------------------------
# DVM


@dataclass(frozen=True)
class DvmConfig:
    threshold_distance: float = 5.0
    min_interval: float = 0.1
    max_interval: float = 100.0

    def __post_init__(self) -> None:
        if not self.threshold_distance > 0:
            raise ParameterError(f"threshold_distance must be > 0, got {self.threshold_distance}")
        if not 0 < self.min_interval <= self.max_interval:
            raise ParameterError("need 0 < min_interval <= max_interval")


@dataclass
class DvmState:
    fix_prev: LocalizationFix
    fix_last: LocalizationFix
    config: DvmConfig
    calls: int = 2


def dvm_next_interval(state: DvmState) -> float:
    """Time to traverse the threshold distance at the speed observed between
    the last two fixes; a resting sensor gets the maximum interval (the
    scheme's known blind spot when motion resumes abruptly)."""
    dt = state.fix_last.time - state.fix_prev.time
    if dt <= 0.0:
        raise DegeneratePairError("last two fixes coincide in time")
    dist = math.hypot(
        state.fix_last.pos[0] - state.fix_prev.pos[0],
        state.fix_last.pos[1] - state.fix_prev.pos[1],
    )
    speed = dist / dt
    cfg = state.config
    if speed == 0.0:
        return cfg.max_interval
    return min(max(cfg.threshold_distance / speed, cfg.min_interval), cfg.max_interval)


def dvm_on_localization(state: DvmState, new_fix: LocalizationFix) -> DvmState:
    """Shift the fix pair after a fresh localization."""
    if new_fix.time <= state.fix_last.time:
        raise ParameterError(f"new fix at {new_fix.time} must postdate {state.fix_last.time}")
    state.fix_prev = state.fix_last
    state.fix_last = new_fix
    state.calls += 1
    return state
