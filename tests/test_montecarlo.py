"""Experiment runners: determinism, aggregation invariants, call-count
accounting, and agreement between the event-driven protocols, the
block-batched runners, the vectorized window engine, and the closed
forms."""

import math
import os
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from maintsim import montecarlo
from maintsim.analytic import error_at, error_avg
from maintsim.errors import ParameterError
from maintsim.mobility import (
    ModelParams,
    _leg_count_quantile,
    _leg_starts,
    _window_durations,
    _window_legs,
    TrajectoryBlock,
)
from maintsim.montecarlo import (
    DVM_MAX_INTERVAL,
    DVM_MIN_INTERVAL,
    DVM_THRESHOLD,
    MADRD_BASES,
    MADRD_E_THRESH,
    MADRD_MAX_PER_BASE,
    MADRD_MIN_INTERVAL,
    MAINT_PERIODS,
    ChunkRecords,
    _COUNT_LEGS,
    _chunk_bins,
    _count_rows,
    _count_stream,
    _fold,
    chunk_records,
    run_dvm_block,
    run_error_vs_count,
    run_madrd_block,
    run_maint_timer_block,
    run_period_sweep,
    run_sfr_block,
    sample_window_mean_errors,
    validate_conditional_moments,
    _WINDOW_BATCH,
)
from maintsim.protocols import DvmConfig, MadrdConfig, MadrdState, extrapolate_madrd, interpolate, localize
from reference_runners import (
    _madrd_fix_sequence,
    count_chunk,
    generate_trajectory,
    run_dvm,
    run_madrd,
    run_maint_timer,
    run_sfr,
    sample_window_positions,
    window_chunk_sizes,
)
from test_mobility import point

MODEL = ModelParams(lambda_rate=0.1, sigma=5.0, seed=77, span=100.0)


class TestMaintTimerRunner:
    @pytest.mark.parametrize("span,period,expected", [(100.0, 25.0, 5), (100.0, 7.0, 15), (100.0, 100.0, 2), (40.0, 40.0, 2)])
    def test_call_count_is_floor_plus_one(self, span, period, expected):
        model = ModelParams(lambda_rate=0.1, sigma=5.0, seed=3, span=span)
        traj = generate_trajectory(model, 0)
        horizon = math.floor(span / period) * period
        qts = np.linspace(0.0, horizon, 4)
        _, calls = run_maint_timer(traj, period, qts)
        assert calls == expected == math.floor(span / period) + 1

    def test_rejects_query_past_last_tick(self):
        traj = generate_trajectory(MODEL, 1)
        with pytest.raises(ParameterError):
            run_maint_timer(traj, 30.0, [95.0])  # last tick at 90

    def test_rejects_queries_when_no_tick_fits_the_span(self):
        traj = generate_trajectory(MODEL, 1)
        with pytest.raises(ParameterError):
            run_maint_timer(traj, 150.0, [0.0])

    def test_estimates_match_window_engine_semantics(self):
        # fixes land at k*period; the estimate inside a window is the chord
        traj = generate_trajectory(MODEL, 2)
        period = 20.0
        qts = np.array([5.0, 27.0, 63.0, 99.0])
        est, _ = run_maint_timer(traj, period, qts)
        for t, (ex, ey) in zip(qts, est):
            lo = math.floor(t / period) * period
            hi = lo + period
            (x0, y0), (x1, y1) = point(traj, lo), point(traj, hi)
            f = (t - lo) / period
            assert ex == pytest.approx(x0 + (x1 - x0) * f, rel=1e-12, abs=1e-12)
            assert ey == pytest.approx(y0 + (y1 - y0) * f, rel=1e-12, abs=1e-12)

    def test_every_query_answered_once(self):
        traj = generate_trajectory(MODEL, 3)
        qts = np.sort(np.random.default_rng(5).uniform(0.0, 100.0, 40))
        est, _ = run_maint_timer(traj, 25.0, qts)
        assert est.shape == (40, 2)
        assert np.isfinite(est).all()
        # answered at the first localization at or after arrival, with the
        # chord between its fix and the one a period before
        for q_time, got in zip(qts, est):
            hi = max(math.ceil(q_time / 25.0), 1) * 25.0
            assert tuple(got) == interpolate(localize(traj, hi - 25.0), localize(traj, hi), float(q_time))

    def test_agrees_with_closed_form_average(self):
        # event-driven protocol over full spans vs the closed form
        T = 20.0
        sq = []
        rng = np.random.default_rng(11)
        for r in range(400):
            traj = generate_trajectory(MODEL, r)
            qts = rng.uniform(0.0, MODEL.span, 3)
            est, _ = run_maint_timer(traj, T, qts)
            (tx,), (ty,) = traj.position(qts[None])
            sq.extend(((est[:, 0] - tx) ** 2 + (est[:, 1] - ty) ** 2).tolist())
        sq = np.array(sq)
        theory = error_avg(MODEL.sigma, MODEL.lambda_rate, T)
        se = sq.std(ddof=1) / math.sqrt(sq.size)  # correlated within replication: inflate
        assert abs(sq.mean() - theory) < 5.0 * se


class TestMadrdRunner:
    def test_vectorized_answers_match_state_machine(self):
        traj = generate_trajectory(MODEL, 5)
        cfg = MadrdConfig(base_interval=10.0)
        fixes, calls = _madrd_fix_sequence(traj, cfg)
        assert calls == len(fixes)
        qts = np.array([1.0, 11.0, 37.0, 64.0, 99.5])
        est, _ = run_madrd(traj, cfg, qts)
        times = [f.time for f in fixes]
        for t, (ex, ey) in zip(qts, est):
            j = int(np.searchsorted(times, t, side="right")) - 1
            if j == 0:
                expected = fixes[0].pos
            else:
                state = MadrdState(fixes[j - 1], fixes[j], next_interval=1.0, config=cfg)
                expected = extrapolate_madrd(state, float(t))
            assert ex == pytest.approx(expected[0], rel=1e-12, abs=1e-12)
            assert ey == pytest.approx(expected[1], rel=1e-12, abs=1e-12)

    def test_no_future_fixes_used(self):
        traj = generate_trajectory(MODEL, 6)
        cfg = MadrdConfig(base_interval=10.0)
        fixes, _ = _madrd_fix_sequence(traj, cfg)
        assert all(f.time <= traj.span for f in fixes)
        assert all(b.time > a.time for a, b in zip(fixes, fixes[1:]))

    def test_intervals_respect_clamps(self):
        traj = generate_trajectory(MODEL, 7)
        cfg = MadrdConfig(base_interval=5.0, min_interval=0.5, max_interval=12.0)
        fixes, _ = _madrd_fix_sequence(traj, cfg)
        gaps = np.diff([f.time for f in fixes])
        assert (gaps[1:] >= 0.5 - 1e-12).all()
        assert (gaps[1:] <= 12.0 + 1e-12).all()

    def test_base_interval_beyond_span(self):
        traj = generate_trajectory(MODEL, 8)
        est, calls = run_madrd(traj, MadrdConfig(base_interval=500.0), np.array([10.0, 90.0]))
        assert calls == 1
        assert (est == point(traj, 0.0)).all()


class TestSfrRunner:
    def test_answers_never_use_future_fixes(self):
        traj = generate_trajectory(MODEL, 9)
        qts = np.random.default_rng(2).uniform(0.0, 100.0, 50)
        est, calls = run_sfr(traj, 25.0, qts)
        assert calls == 5
        for t, (ex, ey) in zip(qts, est):
            fix_time = math.floor(t / 25.0) * 25.0
            assert (ex, ey) == point(traj, fix_time)


def stack_block(trajs):
    """One-row paths over one span as one block, padded with legs that start
    at +inf and so never start at or before any time."""
    lengths = np.array([traj.start_times.shape[1] for traj in trajs])
    filled = np.arange(lengths.max()) < lengths[:, None]

    def pad(name, fill):
        out = np.full(filled.shape, fill)
        out[filled] = np.concatenate([getattr(traj, name)[0] for traj in trajs])
        return out

    (span,) = {traj.span for traj in trajs}
    return TrajectoryBlock(
        span, pad("start_times", np.inf), pad("start_x", 0.0), pad("start_y", 0.0), pad("vel_x", 0.0), pad("vel_y", 0.0)
    )


def madrd_settings(cfgs):
    """The block runner's per-row MADRD settings of ``cfgs``: base interval,
    error threshold and interval clamps."""
    names = ("base_interval", "e_thresh", "min_interval", "clamp_max")
    return [np.array([getattr(c, name) for c in cfgs]) for name in names]


def dvm_settings(cfgs):
    """The block runner's per-row DVM settings of ``cfgs``: threshold
    distance and interval clamps."""
    names = ("threshold_distance", "min_interval", "max_interval")
    return [np.array([getattr(c, name) for c in cfgs]) for name in names]


def count_madrd(r):
    """The count experiment's MADRD schedule of replication r, as the
    specification's config with its defaults."""
    return MadrdConfig(base_interval=MADRD_BASES[r % len(MADRD_BASES)], e_thresh=MADRD_E_THRESH)


COUNT_DVM = DvmConfig(threshold_distance=DVM_THRESHOLD)


def assert_blocks_match_scalar(trajs, qts, periods, madrd_cfgs, dvm_cfgs, bootstrap=1.0, rtol=1e-12, block=None):
    """Every block-batched runner against its scalar reference, row by row:
    call counts exactly, estimates to ``rtol`` relative.  The runners take
    ``block``, or the trajectories stacked."""
    block = stack_block(trajs) if block is None else block
    batched = {
        "MAINT": run_maint_timer_block(block, periods, qts),
        "SFR": run_sfr_block(block, periods, qts),
        "MADRD": run_madrd_block(block, *madrd_settings(madrd_cfgs), qts),
        "DVM": run_dvm_block(block, *dvm_settings(dvm_cfgs), qts, bootstrap_interval=bootstrap),
    }
    for i, traj in enumerate(trajs):
        scalar = {
            "MAINT": run_maint_timer(traj, periods[i], qts[i]),
            "SFR": run_sfr(traj, periods[i], qts[i]),
            "MADRD": run_madrd(traj, madrd_cfgs[i], qts[i]),
            "DVM": run_dvm(traj, dvm_cfgs[i], qts[i], bootstrap_interval=bootstrap),
        }
        for name, (est, calls) in scalar.items():
            b_est, b_calls = batched[name]
            assert b_calls[i] == calls, (name, i)
            np.testing.assert_allclose(b_est[i], est, rtol=rtol, atol=0.0, err_msg=f"{name} row {i}")


def error_chunks(model, replications, queries, protocols=("MAINT", "MADRD")):
    """Every chunk's records of a run, in chunk order."""
    rows = _count_rows(model)
    return [
        chunk_records(model, _count_stream(model.seed, c), first, min(rows, replications - first), queries, protocols)
        for c, first in enumerate(range(0, replications, rows))
    ]


def record_rows(chunks):
    """(protocol, replication, query time, squared error, calls) rows of
    ``ChunkRecords``, as Python values, in stream order: replication, then
    protocol, then query."""
    rows = []
    for c in chunks:
        columns = (c.replications, c.query_times, c.localization_count, c.sq_error)
        for r, qts, calls, sq in zip(*(col.tolist() for col in columns)):
            for name, n, errors in zip(c.protocols, calls, sq):
                rows += [(name, r, q, e, n) for q, e in zip(qts, errors)]
    return rows


def scalar_records(model, replications, queries, protocols):
    """The per-replication loop over the scalar runners: (protocol,
    replication, query time, squared error, calls) rows."""
    rows = []
    per_chunk = _count_rows(model)
    for r in range(replications):
        traj = generate_trajectory(model, r)
        # the chunk's query times are drawn after its paths, one row each
        _, qrng = count_chunk(model, r // per_chunk)
        qts = qrng.uniform(0.0, model.span, (per_chunk, queries))[r % per_chunk]
        (tx,), (ty,) = traj.position(qts[None])
        period = MAINT_PERIODS[r % len(MAINT_PERIODS)]
        runs = {
            "MAINT": run_maint_timer(traj, period, qts),
            "MADRD": run_madrd(traj, count_madrd(r), qts),
            "SFR": run_sfr(traj, period, qts),
            "DVM": run_dvm(traj, COUNT_DVM, qts),
        }
        for name in protocols:
            est, calls = runs[name]
            sq = (est[:, 0] - tx) ** 2 + (est[:, 1] - ty) ** 2
            rows += [(name, r, float(q), float(e), calls) for q, e in zip(qts, sq)]
    return rows


ALL_PROTOCOLS = ("MAINT", "MADRD", "SFR", "DVM")


class TestBlockRunners:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_queries", [1, 5])
    def test_random_trajectories_match_scalar_runners(self, seed, n_queries):
        model = ModelParams(lambda_rate=0.1, sigma=5.0, seed=seed, span=100.0)
        trajs = [generate_trajectory(model, r) for r in range(50)]
        qts = np.random.default_rng([seed, n_queries]).uniform(0.0, 100.0, (50, n_queries))
        periods = np.array([MAINT_PERIODS[r % len(MAINT_PERIODS)] for r in range(50)])
        madrd = [count_madrd(r) for r in range(50)]
        assert_blocks_match_scalar(trajs, qts, periods, madrd, [DvmConfig()] * 50)

    def test_queries_at_zero_at_a_tick_and_at_the_span(self):
        # the last period equals the span: one tick, two MAINT calls
        periods = np.array([4.0, 5.0, 10.0, 25.0, 50.0, 100.0])
        trajs = [generate_trajectory(MODEL, r) for r in range(len(periods))]
        qts = np.column_stack([np.zeros(len(periods)), periods, np.full(len(periods), 100.0)])
        madrd = [MadrdConfig(base_interval=p) for p in periods]
        assert_blocks_match_scalar(trajs, qts, periods, madrd, [DvmConfig()] * len(periods))
        _, calls = run_maint_timer_block(stack_block(trajs), periods, qts)
        assert calls[-1] == 2

    def test_queries_on_ticks_that_round(self):
        # q / period rounds across an integer for many ticks m * period of
        # these periods.  A query on a tick may take either adjacent window
        # within rounding, and only some trajectories show which one it
        # took, so 40 trajectories take queries on the ticks and the
        # estimates must be exactly the scalar runner's; six more take
        # queries one ulp either side of the ticks.
        periods = np.concatenate([np.full(40, 0.3), np.tile([0.1, 0.3, 0.7], 2)])
        ticks = np.arange(1, 141) * periods[:, None]
        qts = np.vstack([ticks[:40], np.nextafter(ticks[40:43], np.inf), np.nextafter(ticks[43:], -np.inf)])
        trajs = [generate_trajectory(MODEL, r) for r in range(len(periods))]
        madrd = [MadrdConfig(base_interval=5.0)] * len(periods)
        assert_blocks_match_scalar(trajs, qts, periods, madrd, [DvmConfig()] * len(periods), rtol=0.0)

    def test_madrd_base_at_or_beyond_span_localizes_once(self):
        bases = (100.0, 150.0, 10.0)
        trajs = [generate_trajectory(MODEL, r) for r in range(3)]
        qts = np.array([[10.0, 90.0]] * 3)
        madrd = [MadrdConfig(base_interval=b) for b in bases]
        assert_blocks_match_scalar(trajs, qts, np.full(3, 20.0), madrd, [DvmConfig()] * 3)
        _, calls = run_madrd_block(stack_block(trajs), *madrd_settings(madrd), qts)
        assert calls[0] == calls[1] == 1 < calls[2]

    @pytest.mark.parametrize("bootstrap", [100.0, 250.0])
    def test_dvm_bootstrap_at_or_beyond_span(self, bootstrap):
        trajs = [generate_trajectory(MODEL, r) for r in range(4)]
        qts = np.array([[0.0, 40.0, 100.0]] * 4)
        madrd = [MadrdConfig(base_interval=10.0)] * 4
        assert_blocks_match_scalar(trajs, qts, np.full(4, 25.0), madrd, [DvmConfig()] * 4, bootstrap=bootstrap)
        dvm = dvm_settings([DvmConfig()] * 4)
        _, calls = run_dvm_block(stack_block(trajs), *dvm, qts, bootstrap_interval=bootstrap)
        assert (calls == 1).all()

    def test_interval_clamps(self):
        # fast sensors halve MADRD down to min_interval, slow ones double it
        # up to max_interval; DVM intervals hit both of its clamps
        models = [ModelParams(lambda_rate=0.1, sigma=s, seed=8, span=100.0) for s in (40.0, 0.2)]
        trajs = [generate_trajectory(m, r) for m in models for r in range(10)]
        qts = np.random.default_rng(3).uniform(0.0, 100.0, (20, 4))
        madrd = [MadrdConfig(base_interval=5.0, min_interval=0.5, max_interval=12.0)] * 20
        dvm = [DvmConfig(min_interval=0.5, max_interval=3.0)] * 20
        assert_blocks_match_scalar(trajs, qts, np.full(20, 10.0), madrd, dvm)
        gaps = np.concatenate([np.diff([f.time for f in _madrd_fix_sequence(t, madrd[0])[0]]) for t in trajs])
        assert np.isclose(gaps, 0.5).any() and np.isclose(gaps, 12.0).any()

    def test_near_stationary_sensor(self):
        model = ModelParams(lambda_rate=0.1, sigma=1e-8, seed=4, span=100.0)
        trajs = [generate_trajectory(model, r) for r in range(16)]
        qts = np.random.default_rng(4).uniform(0.0, 100.0, (16, 3))
        periods = np.array([MAINT_PERIODS[r % len(MAINT_PERIODS)] for r in range(16)])
        madrd = [count_madrd(r) for r in range(16)]
        assert_blocks_match_scalar(trajs, qts, periods, madrd, [DvmConfig()] * 16)

    def test_rejects_query_past_last_tick(self):
        block = stack_block([generate_trajectory(MODEL, 1)])
        with pytest.raises(ParameterError):
            run_maint_timer_block(block, np.array([30.0]), np.array([[95.0]]))  # last tick at 90

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_records_match_scalar_loop(self, seed):
        model = ModelParams(lambda_rate=0.1, sigma=5.0, seed=seed, span=100.0)
        expected = sorted(scalar_records(model, 40, 2, ALL_PROTOCOLS))
        got = sorted(record_rows(error_chunks(model, 40, 2, ALL_PROTOCOLS)))
        assert len(got) == len(expected) == 4 * 40 * 2
        for g, e in zip(got, expected):
            assert g[:3] == e[:3] and g[4] == e[4]
            assert g[3] == pytest.approx(e[3], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 7, 60])
    def test_chunk_rows_match_scalar_runners(self, n):
        # the runners on the first n rows of a chunk's own leg matrices, as
        # the count experiment feeds them, against the scalar runners on
        # generate_trajectory
        model = ModelParams(lambda_rate=0.1, sigma=5.0, seed=3, span=100.0)
        paths, rng = count_chunk(model, 1)
        first = _count_rows(model)
        trajs = [generate_trajectory(model, first + r) for r in range(n)]
        qts = rng.uniform(0.0, model.span, (len(paths), 3))[:n]
        periods = np.array([MAINT_PERIODS[r % len(MAINT_PERIODS)] for r in range(n)])
        madrd = [count_madrd(r) for r in range(n)]
        assert_blocks_match_scalar(trajs, qts, periods, madrd, [DvmConfig()] * n, rtol=0.0, block=paths[:n])

    def test_replication_count_does_not_change_earlier_records(self):
        # the last chunk is drawn in full and cut, so a longer run repeats a
        # shorter one's records as its prefix
        small = list(error_chunks(MODEL, 300, 2))
        big = list(error_chunks(MODEL, 1000, 2))
        assert len(small) == 2 and len(big) == 4
        assert record_rows(big)[: 2 * 300 * 2] == record_rows(small)
        assert np.array_equal(np.concatenate([c.replications for c in small]), np.arange(300))

    def test_blocks_cap_padded_legs(self):
        # about 1000 legs per trajectory: a chunk holds far fewer than 256
        # rows, and every evaluated block stays under the leg cap
        model = ModelParams(lambda_rate=10.0, sigma=5.0, seed=1, span=100.0)
        rows = _count_rows(model)
        paths, _ = count_chunk(model, 0)
        assert 1 < rows < 256 and len(paths) == rows
        assert paths.start_times.size <= _COUNT_LEGS
        chunks = error_chunks(model, rows + 5, 1)
        assert np.array_equal(np.concatenate([c.replications for c in chunks]), np.arange(rows + 5))


class TestPeriodSweep:
    def test_deterministic(self):
        run = dict(sigma=5.0, seed=77, T_values=(20.0, 50.0), replications=300, lambda_rate=0.1)
        assert run_period_sweep(**run) == run_period_sweep(**run)

    def test_matches_theory_within_band(self):
        for p in run_period_sweep(5.0, 77, (20.0, 100.0), 4000, lambda_rate=0.1):
            assert abs(p.mean_sq_error - p.theory) < 4.0 * p.std_error

    def test_theory_column_is_the_closed_form(self):
        (point,) = run_period_sweep(5.0, 77, (35.0,), 100, lambda_rate=0.1)
        assert point.theory == error_avg(5.0, 0.1, 35.0)

    def test_small_period_shrinks_error(self):
        small, large = run_period_sweep(5.0, 77, (1.0, 100.0), 2000, lambda_rate=0.1)
        assert small.theory < 0.01 * large.theory
        assert small.mean_sq_error < 0.01 * large.mean_sq_error

    def test_standard_error_scaling(self):
        (p1,) = run_period_sweep(5.0, 77, (50.0,), 2000, lambda_rate=0.1)
        (p4,) = run_period_sweep(5.0, 77, (50.0,), 8000, lambda_rate=0.1)
        ratio = p4.std_error / p1.std_error
        assert 0.4 <= ratio <= 0.6

    def test_samples_column(self):
        (point,) = run_period_sweep(5.0, 77, (20.0,), 150, lambda_rate=0.1)
        assert point.samples == 150

    def test_needs_grid(self):
        with pytest.raises(ParameterError):
            run_period_sweep(5.0, 77, (), 100, lambda_rate=0.1)

    def test_memory_does_not_grow_with_short_windows(self, set_cpus):
        # 20 full chunks against about a hundred: a vector of every
        # window's value would grow by 8 bytes a window, 2.5 MB here.  On
        # one CPU: tracemalloc does not see a forked worker's memory
        set_cpus(1)
        run_period_sweep(5.0, 77, (20.0,), 10, lambda_rate=0.1)  # keep one-time imports out of the peak
        sizes = (20 * _WINDOW_BATCH, 400_000)
        runs = (lambda n=n: run_period_sweep(5.0, 77, (20.0,), n, lambda_rate=0.1) for n in sizes)
        peaks = [peak for _, peak in traced_memory(*runs)]
        assert abs(peaks[1] - peaks[0]) <= 1 << 19, peaks


class TestAsymptoticSweep:
    def test_lambda_tied_to_period(self):
        points = run_period_sweep(10.0, 5, (20.0, 200.0), 1500, ratio_C=50.0)
        assert [p.lambda_rate for p in points] == [0.4, 4.0]
        for p in points:
            assert p.theory == error_avg(10.0, p.lambda_rate, p.T)
            assert abs(p.mean_sq_error - p.theory) < 4.0 * p.std_error


class TestErrorVsCount:
    RUN = dict(model=MODEL, replications=1200, queries=1)

    def test_record_invariants(self):
        chunks = list(error_chunks(**self.RUN))
        assert all(c.protocols == ("MAINT", "MADRD") for c in chunks)
        for c in chunks:
            rows = len(c.replications)
            assert c.query_times.shape == (rows, 1) and c.localization_count.shape == (rows, 2)
            assert c.sq_error.shape == (rows, 2, 1) and np.all(c.sq_error >= 0.0)
            assert np.all(c.localization_count >= 1)
            assert np.all((0.0 <= c.query_times) & (c.query_times <= MODEL.span))

    def test_truth_is_the_trajectory_position(self):
        maint = [row for row in record_rows(error_chunks(**self.RUN)) if row[0] == "MAINT"][:40]
        # recompute the estimate independently and recover the recorded error
        for _, rep, query_time, sq_error, count in maint:
            traj = generate_trajectory(MODEL, rep)
            period = MAINT_PERIODS[rep % len(MAINT_PERIODS)]
            est, calls = run_maint_timer(traj, period, [query_time])
            tx, ty = point(traj, query_time)
            sq = (est[0, 0] - tx) ** 2 + (est[0, 1] - ty) ** 2
            assert count == calls
            assert sq_error == pytest.approx(sq, rel=1e-9, abs=1e-15)

    def test_fold_matches_two_pass(self):
        # three chunks of the four protocols at two queries a replication,
        # then a chunk of one replication and one query whose counts no
        # other record has: every bin of the fold against a two-pass mean
        # and standard error over the concatenated records
        chunks = list(error_chunks(MODEL, 600, 2, ALL_PROTOCOLS))
        calls = np.array([[10_000, 10_001, 10_002, 10_003]])
        sq = np.array([[[4.0], [0.25], [9.0], [0.0]]])
        chunks.append(ChunkRecords(ALL_PROTOCOLS, np.array([600]), np.array([[50.0]]), calls, sq))
        assert len(chunks) == 4
        groups = {}
        for name, _, _, error, count in record_rows(chunks):
            groups.setdefault((name, count), []).append(error)
        # one group of one-replication chunks whose stream is the chunk
        # index, so that chunk k's records are chunks[k]
        (folds,) = _fold(lambda k: k, len(chunks), [(1, lambda k, first, m: _chunk_bins(chunks[k]))])
        assert folds.keys() == groups.keys()
        for key, errors in groups.items():
            got_n, got_mean, got_se = folds[key].result()
            n = len(errors)
            sq_errors = np.array(errors)
            assert got_n == n
            for x, mean, se in zip((sq_errors, np.sqrt(sq_errors)), got_mean, got_se):
                assert mean == pytest.approx(x.mean(), rel=1e-12, abs=0.0), key
                want = x.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
                assert se == pytest.approx(want, rel=1e-12, abs=0.0), key
        assert sum(len(errors) == 1 for errors in groups.values()) >= 4

    def test_one_sample_has_zero_standard_error(self):
        (point,) = run_period_sweep(5.0, 77, (20.0,), 1, lambda_rate=0.1)
        assert point.samples == 1 and point.std_error == 0.0
        bins = run_error_vs_count(MODEL, 1, 1)
        assert [len(results) for results in bins.values()] == [1, 1]
        for (b,) in bins.values():
            assert b.sample_count == 1 and b.standard_error == 0.0 and b.standard_error_abs == 0.0

    def test_deterministic_rerun(self):
        assert record_rows(error_chunks(**self.RUN)) == record_rows(error_chunks(**self.RUN))
        assert run_error_vs_count(**self.RUN) == run_error_vs_count(**self.RUN)

    def test_empty_bins_omitted(self):
        bins = run_error_vs_count(**self.RUN)
        for results in bins.values():
            assert all(b.sample_count >= 1 for b in results)

    def test_maint_bins_are_the_period_grid(self):
        bins = run_error_vs_count(**self.RUN)
        expected = {math.floor(MODEL.span / p) + 1 for p in MAINT_PERIODS}
        assert {b.key for b in bins["MAINT"]} == expected

    def test_dominance_on_shared_bins(self):
        bins = run_error_vs_count(**self.RUN)
        maint = {b.key: b for b in bins["MAINT"]}
        madrd = {b.key: b for b in bins["MADRD"]}
        shared = [k for k in maint if k in madrd and maint[k].sample_count >= 30 and madrd[k].sample_count >= 30]
        assert shared, "no shared well-populated bins"
        for k in shared:
            assert maint[k].mean_sq_error <= madrd[k].mean_sq_error

    def test_near_stationary_sensor_has_negligible_error(self):
        model = ModelParams(lambda_rate=0.1, sigma=1e-8, seed=4, span=100.0)
        for results in run_error_vs_count(model, 60, 1).values():
            for b in results:
                assert b.mean_sq_error < 1e-12

    def test_memory_does_not_grow_with_replications(self):
        # the fold holds one chunk of records and a few merged moments a
        # bin, so the traced peak is the same at 2 000 and at 20 000
        # replications; a table of every record grew with them
        run_error_vs_count(MODEL, 10, 1)  # keep one-time imports out of the peak
        runs = (lambda n=n: run_error_vs_count(MODEL, n, 1) for n in (2000, 20_000))
        peaks = [peak for _, peak in traced_memory(*runs)]
        assert abs(peaks[1] - peaks[0]) <= 1 << 19, peaks

    def test_rejects_non_divisor_period(self):
        # 2 s, the first period, does not divide a 33 s span
        model = ModelParams(lambda_rate=0.1, sigma=5.0, seed=77, span=33.0)
        with pytest.raises(ParameterError, match="does not divide span"):
            run_error_vs_count(model, 10, 1)

    def test_all_four_protocols_record(self):
        chunk = chunk_records(MODEL, _count_stream(MODEL.seed, 0), 0, 40, 1, ALL_PROTOCOLS)
        assert chunk.protocols == ALL_PROTOCOLS
        assert chunk.localization_count.shape == (40, 4) and chunk.sq_error.shape == (40, 4, 1)

    def test_schedules_are_the_specification_defaults(self):
        # the count experiment's MADRD and DVM settings are plain constants,
        # so that the simulate path never loads protocols; they must be the
        # configs' own defaults, as the reference runners use them
        for r, base in enumerate(MADRD_BASES):
            cfg = count_madrd(r)
            assert (cfg.min_interval, cfg.clamp_max) == (MADRD_MIN_INTERVAL, MADRD_MAX_PER_BASE * base)
        assert (COUNT_DVM.min_interval, COUNT_DVM.max_interval) == (DVM_MIN_INTERVAL, DVM_MAX_INTERVAL)


def waypoint_process(rng, lam, horizon, rows, sigma=None):
    """The random-waypoint process over [0, horizon] as its definition
    reads, the one oracle of its law: from the origin, legs of iid Exp(lam)
    durations follow each other until the horizon is covered, and every leg
    that starts by the horizon moves at a velocity of iid Normal(0, sigma)
    components.  ``clip_and_sum`` gives its positions.

    Each round draws, for every row at once, the expected count plus three
    standard deviations of legs, until every row covers the horizon (rows
    already covered take zero-duration legs).  Then, if ``sigma`` is given,
    the x and the y velocity components of the legs that start by the
    horizon, row by row; the other legs stand still.  Returns the durations
    and the starts, (rows, legs), and the x and y velocities if drawn."""
    expected = lam * horizon
    cols = max(2, int(expected + 3.0 * math.sqrt(expected) + 2))
    gaps = rng.standard_exponential((rows, cols)) / lam
    total = gaps.sum(axis=1)
    while (total < horizon).any():
        short = total < horizon
        pad = np.zeros((rows, cols))
        pad[short] = rng.standard_exponential((int(short.sum()), cols)) / lam
        gaps = np.hstack([gaps, pad])
        total += pad.sum(axis=1)
    starts = np.hstack([np.zeros((rows, 1)), np.cumsum(gaps, axis=1)[:, :-1]])
    if sigma is None:
        return gaps, starts
    live_rows, live_cols = np.nonzero(starts <= horizon)
    u = np.zeros(gaps.shape)
    u[live_rows, live_cols] = sigma * rng.standard_normal(len(live_rows))
    v = np.zeros(gaps.shape)
    v[live_rows, live_cols] = sigma * rng.standard_normal(len(live_rows))
    return gaps, starts, u, v


def clip_and_sum(gaps, starts, vel, t):
    """One coordinate at per-row times ``t``: each leg's velocity times the
    part of the leg that lies before ``t``."""
    return (vel * np.clip(np.asarray(t)[:, None] - starts, 0.0, gaps)).sum(axis=1)


def _plain_window_durations(rng, lam, horizon, rows):
    """The window's draw order written out row by row: the Poisson counts,
    then each row's N + 1 exponentials in turn, divided by their running
    sum and scaled by the horizon; the starts are the running sums of the
    durations.  Returns the durations, the starts and each row's N + 1."""
    counts = rng.poisson(lam * horizon, rows) + 1
    flat = rng.standard_exponential(int(counts.sum()))
    width = int(counts.max())
    gaps = np.zeros((rows, width))
    starts = np.full((rows, width), np.nextafter(horizon, np.inf))
    at = 0
    for row, n in enumerate(counts):
        e = flat[at : at + n]
        at += n
        d = e / np.cumsum(e)[-1] * horizon
        gaps[row, :n] = d
        starts[row, 0] = 0.0
        starts[row, 1:n] = np.cumsum(d)[:-1]
    return gaps, starts, counts


def _plain_window_legs(rng, lam, sigma, horizon, rows):
    """``_plain_window_durations``, then the x and the y velocities of
    every row's legs, row by row; padding legs stand still."""
    gaps, starts, counts = _plain_window_durations(rng, lam, horizon, rows)
    us = sigma * rng.standard_normal(int(counts.sum()))
    vs = sigma * rng.standard_normal(int(counts.sum()))
    u, v = np.zeros(gaps.shape), np.zeros(gaps.shape)
    at = 0
    for row, n in enumerate(counts):
        u[row, :n] = us[at : at + n]
        v[row, :n] = vs[at : at + n]
        at += n
    return gaps, starts, u, v


def expanded_window_mean_errors(gaps, starts, sigma, T):
    """Each window's squared error averaged over the velocities and a
    uniform query time, summed leg by leg in the expanded form: with d the
    part of a leg inside the window and a = d/T, the leg's chord error
    integrates to a^2 s^3/3 + (1-a)^2 d^3/3 - (1-a) a s d^2 + a^2 s^2 d
    + a^2 (T-s-d)^3/3 over [0, T]."""
    s = starts
    d = np.clip(T - s, 0.0, gaps)
    a = d / T
    legs = (
        a**2 * s**3 / 3
        + (1 - a) ** 2 * d**3 / 3
        - (1 - a) * a * s * d**2
        + a**2 * s**2 * d
        + a**2 * (T - s - d) ** 3 / 3
    )
    return 2.0 * sigma**2 * legs.sum(axis=1) / T


def _z(a, b):
    """Two-sample z-score of the means of ``a`` and ``b``."""
    se = math.hypot(*(v.std(ddof=1) / math.sqrt(v.size) for v in (a, b)))
    return (a.mean() - b.mean()) / se


class _FixedLegs:
    """A generator whose every window has ``count`` waypoints and whose
    exponentials repeat ``legs``; it draws nothing else."""

    def __init__(self, count, legs):
        self._count = count
        self._legs = np.asarray(legs, dtype=float)

    def poisson(self, lam, size):
        return np.full(size, self._count)

    def standard_exponential(self, size):
        return np.resize(self._legs, size)


class _Counting:
    """Passes every draw through to ``rng`` and records the size of each
    draw of waypoint counts and of durations, and the number of normals and
    uniforms drawn."""

    def __init__(self, rng):
        self._rng = rng
        self.poisson_sizes = []
        self.exponential_sizes = []
        self.normals = 0
        self.uniforms = 0

    def poisson(self, lam, size):
        self.poisson_sizes.append(size)
        return self._rng.poisson(lam, size)

    def standard_exponential(self, size):
        self.exponential_sizes.append(size)
        return self._rng.standard_exponential(size)

    def standard_normal(self, size):
        self.normals += int(np.prod(size))
        return self._rng.standard_normal(size)

    def uniform(self, low, high, size):
        self.uniforms += int(np.prod(size))
        return self._rng.uniform(low, high, size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def traced_memory(*calls):
    """For each call in turn, the traced memory that its result keeps and
    its traced peak, both above what was traced before it."""
    import tracemalloc

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    out = []
    try:
        for call in calls:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            kept, peak = tracemalloc.get_traced_memory()
            del result
            out.append((kept - base, peak - base))
    finally:
        if started:
            tracemalloc.stop()
    return out


def window_errors(rng, lam, sigma, T, n):
    """``n`` windows of ``sample_window_mean_errors`` as one vector, drawn
    from ``rng`` a chunk of ``window_chunk_sizes`` after another."""
    return np.concatenate([
        sample_window_mean_errors(rng, m, lambda_rate=lam, sigma=sigma, T=T) for m in window_chunk_sizes(n, lam, T)
    ])


class TestWindowEngine:
    def test_reproducible_given_generator_state(self):
        a = window_errors(np.random.default_rng(9), 0.1, 5.0, 20.0, 500)
        b = window_errors(np.random.default_rng(9), 0.1, 5.0, 20.0, 500)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("lam,T", [(0.1, 20.0), (4.0, 200.0)])
    def test_block_matches_clip_and_sum_oracle(self, lam, T):
        rows = 64
        block = TrajectoryBlock.windows(np.random.default_rng(5), lam, 5.0, T, rows)
        gaps, starts, u, v = _plain_window_legs(np.random.default_rng(5), lam, 5.0, T, rows)
        assert np.array_equal(block.start_times, starts)
        ts = np.random.default_rng(6).uniform(0.0, T, (rows, 8))
        ts[:, 0] = 0.0
        ts[:, 1] = T
        x, y = block.position(ts)
        for vel, got in ((u, x), (v, y)):
            # the largest distance a row can cover sets the rounding scale
            reach = np.abs(vel * gaps).sum(axis=1)
            for j in range(ts.shape[1]):
                want = clip_and_sum(gaps, starts, vel, ts[:, j])
                assert np.all(np.abs(got[:, j] - want) <= 1e-12 * reach)
        assert np.all(x[:, 0] == 0.0) and np.all(y[:, 0] == 0.0)

    def test_errors_follow_the_stream_contract(self):
        # two chunks of one period: chunk k draws from (seed, tag, k), the
        # second from k = 1 and not after the first
        lam, sigma, T = 0.1, 5.0, 20.0
        keys = [[8, montecarlo._STREAM_PERIOD, k] for k in (0, 1)]
        sizes = window_chunk_sizes(_WINDOW_BATCH + 7, lam, T)
        assert sizes == [_WINDOW_BATCH, 7]
        got = [
            sample_window_mean_errors(np.random.default_rng(key), m, lambda_rate=lam, sigma=sigma, T=T)
            for key, m in zip(keys, sizes)
        ]
        want = [
            expanded_window_mean_errors(*_plain_window_durations(np.random.default_rng(key), lam, T, m)[:2], sigma, T)
            for key, m in zip(keys, sizes)
        ]
        assert [g.shape for g in got] == [(_WINDOW_BATCH,), (7,)]
        np.testing.assert_allclose(np.concatenate(got), np.concatenate(want), rtol=1e-9)
        # the sweep folds the same chunks: its mean and standard error are
        # those of the values, to rounding
        (point,) = run_period_sweep(sigma, 8, (T,), _WINDOW_BATCH + 7, lambda_rate=lam)
        values = np.concatenate(got)
        assert point.samples == len(values)
        assert point.mean_sq_error == pytest.approx(values.mean(), rel=1e-12, abs=0.0)
        assert point.std_error == pytest.approx(values.std(ddof=1) / math.sqrt(len(values)), rel=1e-12, abs=0.0)

    def test_positions_follow_the_stream_contract(self):
        lam, sigma, horizon, times = 0.5, 2.0, 8.0, (3.0, 8.0)
        xs, ys = sample_window_positions(np.random.default_rng(4), lam, sigma, horizon, 300, times)
        gaps, starts, u, v = _plain_window_legs(np.random.default_rng(4), lam, sigma, horizon, 300)
        for j, t in enumerate(times):
            np.testing.assert_allclose(xs[:, j], clip_and_sum(gaps, starts, u, np.full(300, t)), rtol=1e-9)
            np.testing.assert_allclose(ys[:, j], clip_and_sum(gaps, starts, v, np.full(300, t)), rtol=1e-9)

    @pytest.mark.parametrize("expected", [1.0, 2.3, 20.0, 800.0, 3200.0, 40_000.0])
    def test_batches_stay_within_the_draw_budget(self, monkeypatch, set_cpus, expected):
        # a chunk's leg-count quantile holds at most the budget of
        # durations, or a single row where one row alone is wider; windows
        # short enough for 8 legs a row still come 4096 at a time.  The
        # sweep's chunks are recorded, not drawn, on one CPU, where the
        # caller takes every chunk in order
        lam = 4.0
        cols = _leg_count_quantile(lam, expected / lam)
        full = min(_WINDOW_BATCH, max(1, montecarlo._CHUNK_DRAWS // cols))
        assert full == _WINDOW_BATCH or cols > 8
        assert full * cols <= max(montecarlo._CHUNK_DRAWS, cols)
        set_cpus(1)
        sizes = []
        monkeypatch.setattr(montecarlo, "sample_window_mean_errors", lambda rng, m, **kw: sizes.append(m) or np.zeros(m))
        for n in (1, 300, _WINDOW_BATCH + 1, 20_000):
            sizes.clear()
            (point,) = run_period_sweep(5.0, 0, (expected / lam,), n, lambda_rate=lam)
            chunks = -(-n // full)
            assert sizes == [full] * (chunks - 1) + [n - (chunks - 1) * full]
            assert sizes == window_chunk_sizes(n, lam, expected / lam)
            assert point.samples == n

    @pytest.mark.parametrize("lam,T", [(4.0, 200.0), (8.0, 400.0)])
    def test_memory_does_not_grow_with_windows(self, set_cpus, lam, T):
        # lambda * T = 800 and 3200: a chunk's leg-count quantile holds at
        # most the draw budget of durations, and the sweep folds each chunk
        # into running moments, so the traced peak is the same at 300 and
        # at 20 000 windows; batches of 4096 windows peaked at about 230 MB
        # at lambda * T = 800, and a vector of every window's value grew by
        # 8 bytes a window.  On one CPU, where the caller draws every
        # chunk: tracemalloc does not see a forked worker's memory
        set_cpus(1)
        run_period_sweep(10.0, 1, (T,), 10, lambda_rate=lam)  # keep one-time imports out
        runs = (lambda n=n: run_period_sweep(10.0, 1, (T,), n, lambda_rate=lam) for n in (300, 20_000))
        peaks = [peak for _, peak in traced_memory(*runs)]
        assert abs(peaks[1] - peaks[0]) <= 1 << 19, peaks
        assert max(peaks) <= 4 << 20, peaks

    def test_mean_errors_draw_only_durations(self):
        # one chunk: all its waypoint counts, then all its durations
        rng = _Counting(np.random.default_rng(2))
        sample_window_mean_errors(rng, _WINDOW_BATCH, lambda_rate=0.1, sigma=5.0, T=20.0)
        assert rng.poisson_sizes == [_WINDOW_BATCH]
        assert len(rng.exponential_sizes) == 1
        assert rng.normals == 0 and rng.uniforms == 0

    @pytest.mark.parametrize("first", [10.0, 20.0])
    def test_waypoint_free_window_has_no_error(self, first):
        # no waypoint: one leg covers [0, T] exactly, whatever its
        # exponential
        got = window_errors(_FixedLegs(0, [first, math.pi]), 1.0, 5.0, 10.0, 3)
        assert np.array_equal(got, np.zeros(3))

    @pytest.mark.parametrize("w", [1e-3, 0.3, 5.0, 9.99])
    def test_one_waypoint_window_matches_quadrature(self, w):
        import mpmath  # in the test extra; only this test needs it
        sigma, T = 5.0, 10.0
        (got,) = window_errors(_FixedLegs(1, [w, T - w]), 1.0, sigma, T, 1)
        with mpmath.workdps(40):
            sigma_m, T_m, w_m = mpmath.mpf(sigma), mpmath.mpf(T), mpmath.mpf(w)

            def chord_sq(t):
                before = min(t, w_m) - t / T_m * w_m
                after = max(t - w_m, 0) - t / T_m * (T_m - w_m)
                return before**2 + after**2

            want = 2 * sigma_m**2 / T_m * mpmath.quad(chord_sq, [0, w_m, T_m])
        assert got == pytest.approx(float(want), rel=1e-13)

    def test_per_leg_form_matches_midpoint_rule(self):
        lam, sigma, T, rows, n = 0.5, 3.0, 10.0, 8, 200_000
        gaps, starts, _ = _window_durations(np.random.default_rng(3), lam, T, rows)
        got = window_errors(np.random.default_rng(3), lam, sigma, T, rows)
        assert gaps.shape[1] > 3
        t = (np.arange(n) + 0.5) * (T / n)
        d = np.clip(T - starts, 0.0, gaps)
        integral = np.zeros(rows)
        for j in range(gaps.shape[1]):
            chord = np.clip(t - starts[:, [j]], 0.0, d[:, [j]]) - t / T * d[:, [j]]
            integral += (chord * chord).sum(axis=1) * (T / n)
        np.testing.assert_allclose(got, 2.0 * sigma**2 * integral / T, rtol=1e-8)
        np.testing.assert_allclose(got, expanded_window_mean_errors(gaps, starts, sigma, T), rtol=1e-12)

    @pytest.mark.parametrize("expected", [1e-3, 0.1, 1.0, 10.0, 800.0])
    def test_rows_reach_the_horizon(self, expected):
        # every live leg ends inside the window and the last one on its
        # end; padding legs last 0 and start past it
        lam, rows = 4.0, 256
        T = expected / lam
        gaps, starts, live = _window_durations(np.random.default_rng(11), lam, T, rows)
        np.testing.assert_allclose(gaps.sum(axis=1), T, rtol=1e-13)
        assert np.all(live[:, 0]) and np.all(live[:, :-1] >= live[:, 1:])
        assert np.all(gaps[live] > 0.0) and np.all(gaps[~live] == 0.0)
        assert np.all(starts[live] <= T) and np.all(starts[~live] > T)
        last = live.sum(axis=1) - 1
        ends = starts[np.arange(rows), last] + gaps[np.arange(rows), last]
        np.testing.assert_allclose(ends, T, rtol=1e-13)

    @pytest.mark.parametrize("lam,T", [(0.1, 10.0), (0.1, 20.0), (4.0, 200.0)])
    def test_velocities_only_for_live_legs(self, lam, T):
        rng = _Counting(np.random.default_rng(12))
        block = TrajectoryBlock.windows(rng, lam, 5.0, T, 512)
        live = block.start_times <= T
        assert rng.normals == 2 * np.count_nonzero(live) == 2 * sum(rng.exponential_sizes)
        assert np.all(block.vel_x[~live] == 0.0) and np.all(block.vel_y[~live] == 0.0)
        assert np.all(block.vel_x[live] != 0.0) and np.all(block.vel_y[live] != 0.0)

    def test_moment_windows_draw_a_few_values_per_row(self):
        # the moment check's windows, lambda * T = 1: a row has one plus a
        # Poisson(1) count of legs, so it takes about 2 durations and 4
        # normals; drawing 23 legs per row took 23 durations and 46 normals
        rng = _Counting(np.random.default_rng(13))
        sample_window_positions(rng, 0.1, 5.0, 10.0, _WINDOW_BATCH, (5.0, 10.0))
        assert rng.poisson_sizes == [_WINDOW_BATCH]
        (durations,) = rng.exponential_sizes
        assert 1.9 * _WINDOW_BATCH < durations < 2.1 * _WINDOW_BATCH
        assert rng.normals == 2 * durations


class TestPoissonWindows:
    @pytest.mark.parametrize("lam,horizon,rows", [(0.5, 6.0, 200), (1e-3, 1.0, 50), (4.0, 200.0, 9), (20.0, 2.0, 1)])
    def test_bit_for_bit_the_plain_row_by_row_draw(self, lam, horizon, rows):
        got = _window_legs(np.random.default_rng(21), lam, 5.0, horizon, rows)
        want = _plain_window_legs(np.random.default_rng(21), lam, 5.0, horizon, rows)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)
        block = TrajectoryBlock.windows(np.random.default_rng(21), lam, 5.0, horizon, rows)
        gaps, starts, u, v = want
        assert np.array_equal(block.start_times, starts)
        assert np.array_equal(block.vel_x, u) and np.array_equal(block.vel_y, v)
        assert np.array_equal(block.start_x, _leg_starts(u * gaps))

    @pytest.mark.parametrize("expected", [1e-3, 1.0, 800.0])
    def test_counts_are_poisson(self, expected):
        from scipy.stats import chisquare, poisson

        rows = 200_000 if expected < 1.0 else 20_000
        _, _, live = _window_durations(np.random.default_rng([22, int(expected)]), 1.0, expected, rows)
        counts = live.sum(axis=1) - 1
        # up to ten bins of about equal probability, as the law allows
        edges = np.unique(poisson.ppf(np.linspace(0.1, 0.9, 9), expected))
        observed = np.bincount(np.searchsorted(edges, counts), minlength=len(edges) + 1)
        probs = np.diff(poisson.cdf(edges, expected), prepend=0.0, append=1.0)
        assert chisquare(observed, probs * rows).pvalue > 1e-4
        z = (counts.mean() - expected) / math.sqrt(expected / rows)
        assert abs(z) < 4.0

    @pytest.mark.parametrize("expected", [1e-3, 1.0, 8.0, 800.0])
    def test_window_means_match_the_iid_rounds(self, expected):
        # against the 0.7.0 rounds of iid exponential legs: the two laws
        # agree, not the draws
        sigma, T = 5.0, 10.0
        lam, n = expected / T, (200_000 if expected < 1.0 else 20_000)
        got = window_errors(np.random.default_rng([23, int(expected)]), lam, sigma, T, n)
        rng = np.random.default_rng([24, int(expected)])
        want = np.concatenate([
            expanded_window_mean_errors(*waypoint_process(rng, lam, T, m), sigma, T)
            for m in window_chunk_sizes(n, lam, T)
        ])
        assert abs(_z(got, want)) < 4.0

    @pytest.mark.parametrize("expected", [1e-3, 1.0, 8.0, 800.0])
    def test_positions_match_the_iid_rounds(self, expected):
        sigma, T = 5.0, 10.0
        lam, n = expected / T, (200_000 if expected < 1.0 else 20_000)
        xs, ys = sample_window_positions(np.random.default_rng([25, int(expected)]), lam, sigma, T, n, (T / 2, T))
        rng = np.random.default_rng([26, int(expected)])
        want = []
        for m in window_chunk_sizes(n, lam, T):
            gaps, starts, u, v = waypoint_process(rng, lam, T, m, sigma)
            at = [np.full(m, t) for t in (T / 2, T)]
            want.append(np.stack([clip_and_sum(gaps, starts, w, t) for w in (u, v) for t in at], axis=1))
        want = np.concatenate(want)
        got = np.concatenate([xs, ys], axis=1)
        for j in range(4):
            assert abs(_z(got[:, j] ** 2, want[:, j] ** 2)) < 4.0, j


class TestMomentValidation:
    def test_passes_on_default_grid(self):
        report = validate_conditional_moments(samples=20_000, n_max=4, seed=6)
        assert report.passed
        assert 0.0 < max_abs_z(report) < 4.0
        # 5 checks per (n, k) pair + count-conditioned + two unconditional
        # + two errors
        assert len(report.checks) == 5 * (4 * 5 // 2) + 5 + 2 + 2

    def test_rows_align_with_checks(self):
        report = validate_conditional_moments(samples=10_000, n_max=2, seed=6)
        rows = list(report.rows())
        assert len(rows) == len(report.checks)
        assert all(len(r) == 6 for r in rows)

    def test_rejects_small_samples(self):
        with pytest.raises(ParameterError, match="samples must be >= 10000"):
            validate_conditional_moments(samples=5000)

    def test_sample_cap_is_inclusive(self, monkeypatch):
        with pytest.raises(ParameterError, match="at most 100000000"):
            validate_conditional_moments(samples=montecarlo._MAX_SAMPLES + 1)
        monkeypatch.setattr(montecarlo, "_MAX_SAMPLES", 10_001)
        assert validate_conditional_moments(samples=10_001, n_max=1).checks[0].samples == 10_001
        with pytest.raises(ParameterError):
            validate_conditional_moments(samples=10_002, n_max=1)

    def test_window_cap_fails_before_any_draw(self, monkeypatch):
        # lambda * T above the window cap: the window batches are sized
        # before the conditioned rows are drawn, so nothing is drawn
        real_rng, made = np.random.default_rng, []
        monkeypatch.setattr(np.random, "default_rng", lambda key: made.append(_FailingDraws(real_rng(key))) or made[-1])
        with pytest.raises(ParameterError, match="lambda times the window length"):
            validate_conditional_moments(lambda_rate=1e300, samples=10_000)
        assert sum(rng.calls for rng in made) == 0

    @pytest.mark.parametrize(
        "bad, match",
        [(dict(lambda_rate=1e-300), "lambda_rate\\*\\*2 underflows"), (dict(sigma=1e200), "sigma\\*\\*2 overflows")],
        ids=["lambda", "sigma"],
    )
    def test_closed_form_failure_comes_before_any_draw(self, monkeypatch, bad, match):
        # a lambda whose square underflows ended in a ZeroDivisionError from
        # position_second_moment, and a sigma whose square overflows in an
        # OverflowError, each only after every row had been drawn
        real_rng, made = np.random.default_rng, []
        monkeypatch.setattr(np.random, "default_rng", lambda key: made.append(_FailingDraws(real_rng(key))) or made[-1])
        with pytest.raises(ParameterError, match=match):
            validate_conditional_moments(samples=10_000, **bad)
        assert sum(rng.calls for rng in made) == 0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(sigma=math.nan),
            dict(lambda_rate=-1.0),
            dict(lambda_rate=0.0),
            dict(tau=0.0),
            dict(t=-1.0),
            dict(t=50.0),
            dict(T=-1.0),
            dict(T=math.inf),
            dict(seed=-1),
            dict(seed=1.5),
        ],
        ids=repr,
    )
    def test_bad_arguments_fail_before_any_draw(self, monkeypatch, bad):
        # a negative lambda * T ended in math.sqrt's "math domain error", a
        # bad seed in numpy's own errors, and t > T only after every
        # conditioned row was drawn
        real_rng, made = np.random.default_rng, []
        monkeypatch.setattr(np.random, "default_rng", lambda key: made.append(_FailingDraws(real_rng(key))) or made[-1])
        with pytest.raises(ParameterError):
            validate_conditional_moments(samples=10_000, **bad)
        assert sum(rng.calls for rng in made) == 0

    # the two parameter points of acceptance criterion 4, without their n_max
    POINTS = (
        dict(tau=10.0, sigma=5.0, lambda_rate=0.1, t=5.0, T=10.0),
        dict(tau=4.0, sigma=2.0, lambda_rate=0.5, t=3.0, T=8.0),
    )

    def test_expectations_given_gaps_cut_the_standard_error(self):
        # the velocities are integrated out, so the spacing check's squared
        # positions vary less than sampled ones, drawn here at the same size
        # from sorted uniforms and sampled velocities
        kw = dict(n_max=3, samples=20_000, seed=2)
        got = {c.name: c for c in validate_conditional_moments(**kw).checks}
        rng, sigma, m = np.random.default_rng(2), 5.0, kw["samples"]

        def sampled_se(span, points, legs):
            # the position after the first ``legs`` gaps between 0, the
            # ``points`` sorted uniforms of (0, span) and span
            ends = np.sort(rng.uniform(0.0, span, (m, points)), axis=1)
            gaps = np.diff(ends, axis=1, prepend=0.0, append=span)[:, :legs]
            x = (sigma * rng.standard_normal(gaps.shape) * gaps).sum(axis=1)
            return (x * x).std(ddof=1) / math.sqrt(m)

        want = {"waypoint_position_sq n=3 k=3": sampled_se(10.0, 3, 3)}
        want.update({f"position_sq_given_count i={i}": sampled_se(5.0, i, i + 1) for i in (1, 2, 3)})
        for name, se in want.items():
            assert got[name].std_error < 0.8 * se, name
        # given no waypoint the position is still sampled, so the check is not vacuous
        assert got["position_sq_given_count i=0"].std_error > 0.0

    @pytest.mark.parametrize("point", range(len(POINTS)))
    def test_error_rows_are_z_tested_against_the_closed_form(self, point):
        kw = self.POINTS[point]
        report = validate_conditional_moments(samples=10_000, n_max=1, seed=3, **kw)
        rows = report.checks[-2:]
        times = (kw["T"] / 4.0, kw["t"])
        assert [c.name for c in rows] == [f"error_at t={s:g}" for s in times]
        for s, c in zip(times, rows):
            assert c.theory == error_at(kw["sigma"], kw["lambda_rate"], kw["T"], s)
            assert c.samples == 10_000 and abs(c.z) < 4.0

    @pytest.mark.parametrize("sizes", [(7,), (1000, 1), (4096, 4096, 3), (1, 2, 3, 4, 5, 6, 7, 8, 9)])
    def test_streamed_moments_match_one_pass(self, sizes):
        rng = np.random.default_rng(len(sizes))
        data = rng.normal(3.0, 2.0, (2, 3, sum(sizes)))
        stats = montecarlo._Moments()
        cuts = np.cumsum((0, *sizes))
        for a, b in zip(cuts[:-1], cuts[1:]):
            stats.merge(montecarlo._chunk_moments(data[..., a:b].copy()))
        checks = stats.checks([str(j) for j in range(6)], [0.0] * 6)
        flat = data.reshape(6, -1)
        n = flat.shape[1]
        assert [c.samples for c in checks] == [n] * 6
        np.testing.assert_allclose([c.mc_mean for c in checks], flat.mean(axis=1), rtol=1e-13)
        se = flat.std(axis=1, ddof=1) / math.sqrt(n)
        np.testing.assert_allclose([c.std_error for c in checks], se, rtol=1e-12)

    def test_zero_standard_error_fails_the_check(self):
        # an se of 0 cannot tell a mean from its theory: z is inf and the
        # check fails, where z = 0 passed it whatever the mean
        stats = montecarlo._Moments()
        stats.merge(montecarlo._chunk_moments(np.full((2, 100), 3.0)))
        checks = stats.checks(["on theory", "off theory"], [3.0, 4.0])
        assert [(c.mc_mean, c.std_error, c.z) for c in checks] == [(3.0, 0.0, math.inf)] * 2
        assert not montecarlo.MomentReport(checks).passed
        assert not montecarlo.MomentReport(checks[:1]).passed

    def test_non_finite_moments_fail_once_without_warnings(self):
        # squared deviations that overflow make an inf standard error, and
        # inf - inf a nan mean: the fold raises no RuntimeWarning on the way,
        # and its result is refused
        for values in ([1e300, -1e300, 1e300], [math.inf, -math.inf, 1.0]):
            stats = montecarlo._Moments()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                stats.merge(montecarlo._chunk_moments(np.array([values])))
                stats.merge(montecarlo._chunk_moments(np.array([[1.0, 2.0]])))
                with pytest.raises(ParameterError, match="overflows float64; lower sigma"):
                    stats.checks(["x"], [0.0])

    @pytest.mark.parametrize("parts", [1, 2, 4, 7])
    def test_spacings_are_the_gaps_of_sorted_uniforms(self, parts):
        rows = 100_000
        gaps = montecarlo._spacings(np.random.default_rng(parts), 3.0, parts, rows)
        assert gaps.shape == (parts, rows) and np.all(gaps > 0)
        np.testing.assert_allclose(gaps.sum(axis=0), 3.0, rtol=1e-15)
        # the running sums against sorted uniforms on (0, 3), point by point
        times = np.cumsum(gaps[:-1], axis=0)
        want = np.sort(np.random.default_rng(10 + parts).uniform(0.0, 3.0, (parts - 1, rows)), axis=0)
        for got_k, want_k in zip(times, want):
            for a, b in ((got_k, want_k), (got_k**2, want_k**2)):
                z = (a.mean() - b.mean()) / math.hypot(a.std(), b.std()) * math.sqrt(rows)
                assert abs(z) < 4.0

    @pytest.mark.parametrize("width", [1, 2, 7, 13, montecarlo._CHUNK_DRAWS + 1])
    def test_chunks_stay_within_the_draw_budget(self, width):
        # any n_max: a chunk of (n + 1, rows) draws holds at most the budget,
        # or a single row where one row alone is wider; the last chunk of a
        # check holds the rest of its samples
        rows = montecarlo._chunk_rows(width)
        assert rows >= 1
        assert rows * width <= max(montecarlo._CHUNK_DRAWS, width)
        per_coordinate = {"position_sq_unconditional", "displacement_cross_moment"}  # x and y both count
        for samples in (10_000, 10_001):
            report = validate_conditional_moments(samples=samples, n_max=1, seed=0)
            assert {c.samples for c in report.checks if c.name not in per_coordinate} == {samples}

    @pytest.mark.parametrize("n_max", [6, 9])
    def test_memory_does_not_grow_with_samples(self, n_max):
        # the check streams fixed-size chunks, so its traced peak is the
        # same at 20 000 and at 400 000 samples, and small at both
        validate_conditional_moments(samples=10_000, n_max=n_max)  # keep one-time imports out of the peak
        peaks = [peak for _, peak in traced_memory(
            *(lambda s=s: validate_conditional_moments(samples=s, n_max=n_max) for s in (20_000, 400_000))
        )]
        assert abs(peaks[1] - peaks[0]) <= 1 << 20, peaks
        assert max(peaks) <= 8 << 20, peaks

    def test_memory_does_not_grow_with_lambda(self):
        # the window stage sizes its batches by the draw budget, so the
        # traced peak is the same at lambda * T = 1 and 100 (4096 and 248
        # windows a batch), at 20 000 and at 100 000 samples; batches of
        # 4096 windows at lambda * T = 100 peaked at about 54 MB
        validate_conditional_moments(samples=10_000)  # keep one-time imports out of the peak
        peaks = [peak for _, peak in traced_memory(
            *(
                lambda lam=lam, s=s: validate_conditional_moments(samples=s, lambda_rate=lam)
                for lam in (0.1, 10.0)
                for s in (20_000, 100_000)
            )
        )]
        assert max(peaks) - min(peaks) <= 1 << 20, peaks
        assert max(peaks) <= 8 << 20, peaks

    def test_memory_does_not_grow_with_n_max(self):
        # the chunks of every n hold at most the same number of draws, so
        # the traced peak, less the report the check returns (which holds
        # O(n_max^2) checks), is the same at n_max 6 and 20
        validate_conditional_moments(samples=10_000, n_max=6)  # keep one-time imports out of the peak
        working = [peak - kept for kept, peak in traced_memory(
            *(lambda n=n: validate_conditional_moments(samples=10_000, n_max=n) for n in (6, 20))
        )]
        assert abs(working[1] - working[0]) <= 1 << 20, working

    @pytest.mark.parametrize("samples", [20_000, 60_000])
    def test_peak_memory_per_sample(self, samples):
        # the fixed chunk buffers weigh most per sample at small sizes: the
        # traced peak is 26 doubles per sample at 20 000 and 10 at 60 000;
        # the row-major sampler took 38 (60 000) to 47 (20 000)
        validate_conditional_moments(samples=10_000, n_max=6)  # keep one-time imports out of the peak
        [(_, peak)] = traced_memory(lambda: validate_conditional_moments(samples=samples, n_max=6))
        assert peak <= 32 * 8 * samples, peak / (8 * samples)

    @pytest.mark.parametrize("n_max", [2, 9])
    def test_stream_does_not_depend_on_draw_rows(self, monkeypatch, n_max):
        # many small chunks per n, and one shorter last chunk: the chunk
        # size moves draws between samples and deepens the merge tree, but
        # the checks, their closed forms and sample counts stay, and every
        # check still agrees with its closed form
        kw = dict(n_max=n_max, samples=10_001, seed=3)
        want = validate_conditional_moments(**kw).checks
        monkeypatch.setattr(montecarlo, "_CHUNK_DRAWS", 999)
        assert -(-kw["samples"] // montecarlo._chunk_rows(n_max + 1)) > 20
        report = validate_conditional_moments(**kw)
        assert [(c.name, c.theory, c.samples) for c in report.checks] == [(c.name, c.theory, c.samples) for c in want]
        assert report.passed, max_abs_z(report)

    def test_each_draw_keeps_at_most_one_earlier_draw_alive(self, monkeypatch, set_cpus):
        # before each draw of spacings or of a window batch, at most one
        # earlier draw may still be referenced, so the check holds at most
        # two chunks of draws whatever --samples asks for; on one CPU, where
        # the caller draws every chunk
        set_cpus(1)
        refs, alive = [], []

        def watch(draw):
            def watched(*args):
                alive.append(sum(r() is not None for r in refs))
                item = draw(*args)
                refs.append(weakref.ref(item))
                return item

            return watched

        monkeypatch.setattr(montecarlo, "_spacings", watch(montecarlo._spacings))
        monkeypatch.setattr(TrajectoryBlock, "windows", classmethod(watch(TrajectoryBlock.windows.__func__)))
        validate_conditional_moments(samples=10_000, n_max=4, seed=1)
        # 1 + 1 + 2 + 2 chunks of the n blocks, as many of the counts, and
        # 3 window batches; each chunk's draws are freed once it is reduced
        # to partial moments, so none is alive at the next draw
        assert len(refs) == 6 + 6 + 3
        assert max(alive) == 0

    @pytest.mark.parametrize("exc", [MemoryError, RuntimeError])
    @pytest.mark.parametrize("where", ["first", "middle", "window", "last"])
    def test_draw_failure_reaches_the_caller(self, monkeypatch, set_cpus, exc, where):
        # on one CPU, where the caller draws every chunk in order: count the
        # draw calls of one check over all its chunk streams, then fail the
        # same check at the first, a middle, the first window and the last
        # call; the check starts no thread, so none is left behind either
        set_cpus(1)
        kw = dict(samples=10_000, n_max=2, seed=0)
        real_rng, real_windows = np.random.default_rng, TrajectoryBlock.windows.__func__
        counter, first_window = [0], []

        def windows(cls, rng, *args):
            if not first_window:
                first_window.append(counter[0] + 1)
            return real_windows(cls, rng, *args)

        monkeypatch.setattr(TrajectoryBlock, "windows", classmethod(windows))
        monkeypatch.setattr(np.random, "default_rng", lambda key: _FailingDraws(real_rng(key), counter=counter))
        validate_conditional_moments(**kw)
        total, window = counter[0], first_window[0]
        fail_at = {"first": 1, "middle": window // 2, "window": window, "last": total}[where]
        counter = [0]
        monkeypatch.setattr(np.random, "default_rng", lambda key: _FailingDraws(real_rng(key), fail_at, exc, counter))
        before = threading.active_count()
        with pytest.raises(exc, match="injected"):
            validate_conditional_moments(**kw)
        assert threading.active_count() == before

    @pytest.mark.parametrize("exc", [MemoryError, ParameterError, RuntimeError])
    def test_draw_failure_in_a_child_reaches_the_caller(self, monkeypatch, set_cpus, exc):
        # on two CPUs the caller sleeps before its first chunk, so the child
        # draws the others, and fails at its first draw: the caller raises
        # the child's exception as itself, and no child is left behind
        set_cpus(2)
        real_rng, parent = np.random.default_rng, os.getpid()

        def default_rng(key):
            if os.getpid() == parent:
                time.sleep(0.5)
                return real_rng(key)
            return _FailingDraws(real_rng(key), 1, exc)

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        with pytest.raises(exc, match="^injected$"):
            validate_conditional_moments(samples=10_000, n_max=2, seed=0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("call", [1, 2])
    def test_caller_memory_error_stops_the_producer(self, monkeypatch, set_cpus, call):
        # the check allocates one matrix per chunk of the n blocks: on one
        # CPU, where the caller draws every chunk, a MemoryError from the
        # first or the second stops the check, reaches the caller and
        # leaves no thread behind (named after the producer thread of
        # 0.5.0, which 0.6.0 deleted)
        set_cpus(1)
        empty = np.empty
        calls = []

        def failing_empty(*args, **kwargs):
            # the generator's own allocations pass
            if sys._getframe(1).f_code is not montecarlo._conditioned_chunk.__code__:
                return empty(*args, **kwargs)
            calls.append(args)
            if len(calls) == call:
                raise MemoryError("injected")
            return empty(*args, **kwargs)

        monkeypatch.setattr(np, "empty", failing_empty)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="injected"):
            validate_conditional_moments(samples=10_000, n_max=2, seed=0)
        assert len(calls) == call and calls[-1][0] == (call, 5, 10_000)
        assert threading.active_count() == before

    @pytest.mark.parametrize("call", [1, 12, 32, 36])
    def test_keyboard_interrupt_stops_the_producer(self, monkeypatch, call):
        # n_max = 3 makes 30 checks of the n blocks, 4 count-conditioned
        # ones, 2 from the windows and 2 errors; an interrupt while any of
        # them is made stops the check and leaves no thread behind (named
        # after the producer thread of 0.5.0, which 0.6.0 deleted)
        make = montecarlo.MomentCheck
        calls = []

        def interrupted(**kwargs):
            calls.append(kwargs["name"])
            if len(calls) == call:
                raise KeyboardInterrupt
            return make(**kwargs)

        monkeypatch.setattr(montecarlo, "MomentCheck", interrupted)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            validate_conditional_moments(samples=10_000, n_max=3, seed=0)
        assert len(calls) == call
        assert threading.active_count() == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_report_does_not_depend_on_the_cpu_count(self, set_cpus):
        # every chunk draws from its own stream and the partial moments are
        # merged in chunk order, so 1, 2 and 3 usable CPUs give equal checks
        reports = []
        for cpus in (1, 2, 3):
            set_cpus(cpus)
            reports.append(validate_conditional_moments(samples=20_000, n_max=4, seed=5).checks)
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_concurrent_checks_equal_the_checks_drawn_alone(self):
        # the check keeps no shared state: three checks at once, on three
        # threads with switches forced every microsecond (so each draws its
        # chunks itself), each equal the report drawn alone (on every usable
        # CPU)
        kw = [dict(samples=10_000, n_max=3, seed=s) for s in range(3)]
        want = [validate_conditional_moments(**k).checks for k in kw]
        got = [None] * 3

        def run(i):
            got[i] = validate_conditional_moments(**kw[i]).checks

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(i,)) for i in range(3)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert got == want


class _FailingDraws:
    """Passes every draw through to ``rng``, counting the calls, and raises
    ``exc`` from call number ``fail_at``.  Generators given one ``counter``,
    a one-item list, count their calls together."""

    def __init__(self, rng, fail_at=None, exc=MemoryError, counter=None):
        self._rng = rng
        self._fail_at = fail_at
        self._exc = exc
        self._counter = [0] if counter is None else counter

    @property
    def calls(self) -> int:
        return self._counter[0]

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._counter[0] += 1
            if self._counter[0] == self._fail_at:
                raise self._exc("injected")
            return draw(*args, **kwargs)

        return counted


def max_abs_z(report) -> float:
    """The largest |z| of a moment report's checks."""
    return max((abs(c.z) for c in report.checks), default=0.0)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ParameterError, match="replications must be >= 1"):
            run_error_vs_count(MODEL, 0, 1)
        with pytest.raises(ParameterError, match="queries must be >= 1"):
            run_error_vs_count(MODEL, 10, 0)
        with pytest.raises(ParameterError, match="at most 1000, got 1001"):
            run_error_vs_count(MODEL, 10, 1001)
        with pytest.raises(ParameterError, match="unknown protocols"):
            chunk_records(MODEL, _count_stream(MODEL.seed, 0), 0, 10, 1, ("MAINT", "BOGUS"))
        with pytest.raises(ParameterError, match="ratio_C must be finite"):
            run_period_sweep(5.0, 77, (20.0,), 10, ratio_C=0.0)
        with pytest.raises(ParameterError, match="every T must be finite"):
            run_period_sweep(5.0, 77, (20.0, math.inf), 10, lambda_rate=0.1)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(sigma=math.nan),
            dict(seed=-1),
            dict(seed=1.5),
            dict(lambda_rate=-1.0),
            dict(lambda_rate=None),
            dict(ratio_C=50.0),
            dict(lambda_rate=None, ratio_C=math.inf),
            # lambda^2 T^2 underflows in the closed form
            dict(lambda_rate=1e-300),
            dict(T_values=(20.0, -1.0)),
            # the second period's window is above the cap
            dict(T_values=(20.0, 1e25), lambda_rate=None, ratio_C=50.0),
        ],
        ids=repr,
    )
    def test_sweep_bad_arguments_fail_before_any_draw(self, monkeypatch, bad):
        real_rng, made = np.random.default_rng, []
        monkeypatch.setattr(np.random, "default_rng", lambda key: made.append(_FailingDraws(real_rng(key))) or made[-1])
        run = dict(sigma=5.0, seed=77, T_values=(20.0, 50.0), replications=10, lambda_rate=0.1)
        with pytest.raises(ParameterError):
            run_period_sweep(**{**run, **bad})
        assert sum(rng.calls for rng in made) == 0

    def test_negative_window_is_refused(self):
        # math.sqrt of a negative lambda * T raised "math domain error"
        with pytest.raises(ParameterError, match="must be >= 0"):
            _leg_count_quantile(-1.0, 10.0)
