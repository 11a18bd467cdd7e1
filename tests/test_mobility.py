"""Trajectory generation against the model it claims to implement: Poisson
waypoint counts, exponential leg durations, and exact piecewise-linear
evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maintsim.analytic import position_second_moment
from maintsim.errors import ParameterError
from maintsim.mobility import ModelParams, TrajectoryBlock, _leg_count_quantile, _window_legs
from maintsim.montecarlo import _COUNT_LEGS, _COUNT_ROWS, _count_rows, chunk_records
from reference_runners import count_chunk, generate_trajectory
from waypoint_laws import waypoint_count_pmf

PARAMS = ModelParams(lambda_rate=0.1, sigma=5.0, seed=1234, span=100.0)
N_REPS = 100_000


@pytest.fixture(scope="module")
def ensemble_stats():
    """Tests share the collected statistics of ``ensemble``."""
    return ensemble()


def ensemble():
    """One pass over the first 1e5 replications, drawn a chunk at a time."""
    stats = {"counts_span": [], "counts_10": [], "x_at_10": [], "first_durations": []}
    for c in range(-(-N_REPS // _count_rows(PARAMS))):
        block, _ = count_chunk(PARAMS, c)
        waypoints = block.start_times[:, 1:]  # leg starts after the first
        stats["counts_span"].append((waypoints <= PARAMS.span).sum(axis=1))
        stats["counts_10"].append((waypoints <= 10.0).sum(axis=1))
        stats["x_at_10"].append(block.position(np.full(len(block), 10.0))[0])
        # the first waypoint, or the span if it comes later: the first
        # leg's duration
        stats["first_durations"].append(np.minimum(waypoints[:, 0], PARAMS.span))
    return {name: np.concatenate(parts)[:N_REPS] for name, parts in stats.items()}


def manual_trajectory(legs, span):
    """One-row path from (duration, u, v) triples starting at the origin."""
    durations = np.array([d for d, _, _ in legs], dtype=float)
    us = np.array([u for _, u, _ in legs], dtype=float)
    vs = np.array([v for _, _, v in legs], dtype=float)
    start_times = np.concatenate([[0.0], np.cumsum(durations)[:-1]])
    xs = np.concatenate([[0.0], np.cumsum(us[:-1] * durations[:-1])])
    ys = np.concatenate([[0.0], np.cumsum(vs[:-1] * durations[:-1])])
    return TrajectoryBlock(span, *(a[None] for a in (start_times, xs, ys, us, vs)))


def point(path, t):
    """(x, y) of the one-row ``path`` at the single time ``t``, as floats."""
    x, y = path.position(np.array([[t]]))
    return float(x[0, 0]), float(y[0, 0])


def drawn_durations(params, r):
    """Leg durations of replication r as its chunk draws them (the chunk's
    stream is keyed by (seed, chunk)), for the legs of its trajectory."""
    rows = _count_rows(params)
    rng = np.random.default_rng([params.seed, r // rows])
    gaps, starts, _, _ = _window_legs(rng, params.lambda_rate, params.sigma, params.span, rows)
    row = r % rows
    return gaps[row, : np.count_nonzero(starts[row] <= params.span)]


class TestGeneration:
    def test_deterministic_per_replication(self):
        a = generate_trajectory(PARAMS, 7)
        b = generate_trajectory(PARAMS, 7)
        assert np.array_equal(a.start_times, b.start_times)
        assert np.array_equal(a.vel_x, b.vel_x)
        assert np.array_equal(a.vel_y, b.vel_y)

    def test_replications_differ(self):
        a = generate_trajectory(PARAMS, 0)
        b = generate_trajectory(PARAMS, 1)
        assert not np.array_equal(a.start_times[0, 1:4], b.start_times[0, 1:4])

    def test_legs_cover_span_and_are_contiguous(self):
        traj = generate_trajectory(PARAMS, 3)
        (starts,) = traj.start_times
        durations = drawn_durations(PARAMS, 3)
        assert len(traj) == 1
        assert len(durations) == len(starts)
        assert starts[0] == 0.0
        assert starts[-1] < PARAMS.span
        # the last leg ends at the span
        assert starts[-1] + durations[-1] == pytest.approx(PARAMS.span, rel=1e-13)
        ends = starts[:-1] + durations[:-1]
        assert np.array_equal(ends, starts[1:])
        assert (durations > 0).all()

    def test_mean_waypoint_count(self, ensemble_stats):
        mean = ensemble_stats["counts_span"].mean()
        target = PARAMS.lambda_rate * PARAMS.span
        band = 3.0 * math.sqrt(target) / math.sqrt(N_REPS)
        assert abs(mean - target) < band

    def test_variance_waypoint_count(self, ensemble_stats):
        counts = ensemble_stats["counts_span"]
        target = PARAMS.lambda_rate * PARAMS.span
        # var of the sample variance of Poisson(m): (mu4 - m^2)/n, mu4 = m + 3m^2
        band = 3.0 * math.sqrt((target + 3 * target**2 - target**2) / N_REPS)
        assert abs(counts.var(ddof=1) - target) < band

    def test_count_pmf_total_variation(self, ensemble_stats):
        counts = ensemble_stats["counts_10"]
        ks = np.arange(counts.max() + 1)
        empirical = np.bincount(counts) / counts.size
        theory = waypoint_count_pmf(ks, 10.0, PARAMS.lambda_rate)
        tv = 0.5 * (np.abs(empirical - theory).sum() + (1.0 - theory.sum()))
        assert tv < 0.01

    def test_leg_duration_moments(self, ensemble_stats):
        # first legs are iid Exp(lambda) draws truncated at the span
        d = ensemble_stats["first_durations"]
        lam, cut = PARAMS.lambda_rate, math.exp(-PARAMS.lambda_rate * PARAMS.span)
        mean_target = (1.0 - cut) / lam
        se1 = d.std(ddof=1) / math.sqrt(d.size)
        assert abs(d.mean() - mean_target) < 3.0 * se1
        second_target = 2.0 / lam**2 * (1.0 - cut * (1.0 + lam * PARAMS.span))
        se2 = (d**2).std(ddof=1) / math.sqrt(d.size)
        assert abs((d**2).mean() - second_target) < 3.0 * se2

    def test_position_moments_against_closed_form(self, ensemble_stats):
        x = ensemble_stats["x_at_10"]
        se_mean = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean()) < 3.0 * se_mean
        target = position_second_moment(10.0, PARAMS.lambda_rate, PARAMS.sigma)
        sq = x**2
        se_sq = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - target) < 3.0 * se_sq

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            ModelParams(lambda_rate=0.0, sigma=5.0, seed=1, span=100.0)
        with pytest.raises(ParameterError):
            ModelParams(lambda_rate=0.1, sigma=-1.0, seed=1, span=100.0)
        with pytest.raises(ParameterError):
            ModelParams(lambda_rate=0.1, sigma=5.0, seed=1, span=0.0)
        with pytest.raises(ParameterError):
            ModelParams(lambda_rate=0.1, sigma=5.0, seed=-2, span=100.0)
        with pytest.raises(ParameterError):
            generate_trajectory(PARAMS, -1)


class TestChunkStreams:
    @pytest.mark.parametrize("r", [0, 1, 255, 256, 300, 1000])
    def test_trajectory_is_its_chunk_row(self, r):
        rows = _count_rows(PARAMS)
        block, _ = count_chunk(PARAMS, r // rows)
        traj = generate_trajectory(PARAMS, r)
        n = traj.start_times.shape[1]
        row = r % rows
        assert traj.span == PARAMS.span
        for name in ("start_times", "start_x", "start_y", "vel_x", "vel_y"):
            assert np.array_equal(getattr(traj, name), getattr(block, name)[row : row + 1, :n]), name
        # the row's legs stop at the one that ends on the span
        last = traj.start_times[0, -1]
        assert last <= PARAMS.span
        assert last + drawn_durations(PARAMS, r)[-1] == pytest.approx(PARAMS.span, rel=1e-13)
        assert np.all(block.start_times[row, n:] > PARAMS.span)

    def test_chunk_stream_is_keyed_by_seed_and_chunk(self):
        # chunk 2 of the count experiment draws its paths and then its query
        # times from (seed, 2)
        rows = _count_rows(PARAMS)
        rng = np.random.default_rng([PARAMS.seed, 2])
        block = TrajectoryBlock.windows(rng, PARAMS.lambda_rate, PARAMS.sigma, PARAMS.span, rows)
        again, _ = count_chunk(PARAMS, 2)
        assert np.array_equal(block.start_x, again.start_x)
        records = chunk_records(PARAMS, np.random.default_rng([PARAMS.seed, 2]), 2 * rows, rows, 3)
        assert np.array_equal(records.query_times, rng.uniform(0.0, PARAMS.span, (rows, 3)))

    @pytest.mark.parametrize("lam,span", [(0.1, 100.0), (2.0, 100.0), (10.0, 100.0), (1e4, 1e3), (1.9e4, 1e3)])
    def test_chunk_rows_cap_the_chunk_legs(self, lam, span):
        # arithmetic only: the largest of these would draw 1.9e7 legs per
        # row, just below the cap
        params = ModelParams(lambda_rate=lam, sigma=5.0, seed=0, span=span)
        rows, cols = _count_rows(params), _leg_count_quantile(lam, span)
        assert 1 <= rows <= _COUNT_ROWS
        assert rows * cols <= _COUNT_LEGS or rows == 1
        assert rows == _COUNT_ROWS or (rows + 1) * cols > _COUNT_LEGS
        if lam * span >= 1000:
            assert rows < _COUNT_ROWS


class TestPositionAt:
    def test_single_leg_linear_motion(self):
        traj = manual_trajectory([(10.0, 1.0, 2.0)], span=10.0)
        assert point(traj, 3.0) == (3.0, 6.0)

    def test_origin_convention(self):
        traj = generate_trajectory(PARAMS, 5)
        assert point(traj, 0.0) == (0.0, 0.0)

    def test_waypoint_positions_equal_cumulative_sums(self):
        traj = generate_trajectory(PARAMS, 9)
        durations = drawn_durations(PARAMS, 9)
        waypoints = traj.start_times[0, 1:]
        inside = waypoints[waypoints <= traj.span]
        assert inside.size > 1
        for i, t in enumerate(inside, start=1):
            x, y = point(traj, float(t))
            assert x == float(np.cumsum(traj.vel_x[0, :i] * durations[:i])[-1])
            assert y == float(np.cumsum(traj.vel_y[0, :i] * durations[:i])[-1])

    def test_continuous_at_waypoints(self):
        traj = generate_trajectory(PARAMS, 9)
        waypoints = traj.start_times[0, 1:]
        for t in waypoints[waypoints < traj.span]:
            before = point(traj, float(np.nextafter(t, 0.0)))
            at = point(traj, float(t))
            speed = np.hypot(traj.vel_x, traj.vel_y).max()
            assert math.hypot(at[0] - before[0], at[1] - before[1]) < speed * 1e-9 + 1e-12

    def test_vectorized_matches_scalar(self):
        traj = generate_trajectory(PARAMS, 2)
        ts = np.linspace(0.0, traj.span, 17)
        xs, ys = traj.position(ts[None])
        assert xs.shape == ys.shape == (1, 17)
        for t, x, y in zip(ts, xs[0], ys[0]):
            assert point(traj, float(t)) == (x, y)

    def test_domain_errors(self):
        traj = generate_trajectory(PARAMS, 2)
        with pytest.raises(ParameterError):
            point(traj, -0.001)
        with pytest.raises(ParameterError):
            point(traj, traj.span + 0.001)

    @given(st.floats(0.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_piecewise_linear_within_leg(self, t):
        traj = generate_trajectory(PARAMS, 4)
        idx = int(np.searchsorted(traj.start_times[0], t, side="right")) - 1
        x, y = point(traj, t)
        dt = t - traj.start_times[0, idx]
        assert x == traj.start_x[0, idx] + traj.vel_x[0, idx] * dt
        assert y == traj.start_y[0, idx] + traj.vel_y[0, idx] * dt
