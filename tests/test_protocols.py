"""Protocol state machines: window semantics of the interpolation scheme,
dead-reckoning adaptation, fixed-rate scheduling, and velocity-monotonic
intervals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maintsim.errors import BracketError, DegeneratePairError, ParameterError, StaleQueryError
from maintsim.mobility import ModelParams
from maintsim.protocols import (
    DvmConfig,
    DvmState,
    LocalizationFix,
    MadrdConfig,
    MadrdState,
    Query,
    dvm_next_interval,
    extrapolate_madrd,
    interpolate,
    localize,
    madrd_on_localization,
    maint_init,
    maint_on_query,
    maint_on_timer,
    sfr_schedule,
)
from reference_runners import generate_trajectory
from test_mobility import manual_trajectory, point

PARAMS = ModelParams(lambda_rate=0.1, sigma=5.0, seed=99, span=100.0)


class TestInterpolate:
    def test_midpoint(self):
        a = LocalizationFix(0.0, (0.0, 0.0))
        b = LocalizationFix(10.0, (10.0, 20.0))
        assert interpolate(a, b, 5.0) == (5.0, 10.0)

    def test_exact_at_endpoints(self):
        a = LocalizationFix(2.0, (1.5, -2.5))
        b = LocalizationFix(7.0, (4.0, 3.0))
        assert interpolate(a, b, 2.0) == a.pos
        assert interpolate(a, b, 7.0) == b.pos

    def test_single_leg_matches_truth(self):
        traj = manual_trajectory([(20.0, 1.5, -0.75)], span=20.0)
        a = localize(traj, 3.0)
        b = localize(traj, 17.0)
        for t in np.linspace(3.0, 17.0, 29):
            est = interpolate(a, b, float(t))
            true = point(traj, float(t))
            assert est[0] == pytest.approx(true[0], abs=1e-12)
            assert est[1] == pytest.approx(true[1], abs=1e-12)

    def test_out_of_bracket(self):
        a = LocalizationFix(0.0, (0.0, 0.0))
        b = LocalizationFix(10.0, (1.0, 1.0))
        with pytest.raises(BracketError):
            interpolate(a, b, 10.5)
        with pytest.raises(BracketError):
            interpolate(a, b, -0.5)

    def test_degenerate_pair(self):
        a = LocalizationFix(5.0, (0.0, 0.0))
        b = LocalizationFix(5.0, (1.0, 1.0))
        with pytest.raises(DegeneratePairError):
            interpolate(a, b, 5.0)


class TestMaint:
    def test_window_collects_queries_and_answers_at_tick(self):
        traj = generate_trajectory(PARAMS, 0)
        state = maint_init(traj, period_T=20.0)
        assert state.calls == 1
        for i, t in enumerate((4.0, 9.0, 16.5)):
            maint_on_query(state, Query(t, f"D{i}"), clock=t)
        assert state.calls == 1
        responses = maint_on_timer(state, traj, 20.0)
        assert [r.requester for r in responses] == ["D0", "D1", "D2"]
        for r in responses:
            assert r.fix_a.time == 0.0
            assert r.fix_b.time == 20.0
            assert r.fix_a.pos == point(traj, 0.0)
            assert r.fix_b.pos == point(traj, 20.0)
        assert state.pending == []
        assert state.calls == 2

    @pytest.mark.parametrize("period", [0.0, -1.0, float("nan")])
    def test_init_rejects_a_period_that_schedules_nothing(self, period):
        # the state keeps no period, so a bad one must fail here, before the
        # caller schedules its first tick
        with pytest.raises(ParameterError, match="period_T must be > 0"):
            maint_init(generate_trajectory(PARAMS, 0), period_T=period)

    def test_response_brackets_query_time(self):
        traj = generate_trajectory(PARAMS, 1)
        state = maint_init(traj, period_T=10.0)
        maint_on_query(state, Query(3.0, "a"), clock=3.0)
        (resp,) = maint_on_timer(state, traj, 10.0)
        assert resp.fix_a.time <= 3.0 <= resp.fix_b.time

    def test_duplicate_requester_buffered_once(self):
        traj = generate_trajectory(PARAMS, 2)
        state = maint_init(traj, period_T=50.0)
        maint_on_query(state, Query(5.0, "dup"), clock=5.0)
        maint_on_query(state, Query(9.0, "dup"), clock=9.0)
        assert len(state.pending) == 1
        responses = maint_on_timer(state, traj, 50.0)
        assert len(responses) == 1

    def test_out_of_order_arrivals_keep_buffer_sorted(self):
        traj = generate_trajectory(PARAMS, 2)
        state = maint_init(traj, period_T=50.0)
        for t, who in ((9.0, "b"), (4.0, "a"), (16.5, "c")):
            maint_on_query(state, Query(t, who), clock=t)
        assert [q.time for q in state.pending] == [4.0, 9.0, 16.5]
        responses = maint_on_timer(state, traj, 50.0)
        assert [r.requester for r in responses] == ["a", "b", "c"]

    def test_stale_query_rejected(self):
        traj = generate_trajectory(PARAMS, 3)
        state = maint_init(traj, period_T=10.0)
        maint_on_timer(state, traj, 10.0)
        with pytest.raises(StaleQueryError):
            maint_on_query(state, Query(9.0, "late"), clock=9.0)

    def test_estimate_is_endpoint_fraction_when_window_starts_at_origin(self):
        # fixes at 0 and T from the origin: interpolation reduces to
        # (position at T) * t / T
        traj = generate_trajectory(PARAMS, 6)
        T = 40.0
        a = localize(traj, 0.0)
        b = localize(traj, T)
        for t in (3.0, 17.0, 29.0):
            est = interpolate(a, b, t)
            assert est[0] == pytest.approx(b.pos[0] * t / T, rel=1e-12, abs=1e-12)
            assert est[1] == pytest.approx(b.pos[1] * t / T, rel=1e-12, abs=1e-12)

    def test_zero_waypoint_window_is_exact(self):
        # no direction change inside the bracket: interpolation reproduces
        # the true position to machine precision
        traj = manual_trajectory([(15.0, 2.0, -1.0), (30.0, -0.5, 3.0)], span=45.0)
        a = localize(traj, 16.0)
        b = localize(traj, 44.0)
        for t in np.linspace(16.0, 44.0, 23):
            est = interpolate(a, b, float(t))
            true = point(traj, float(t))
            assert math.hypot(est[0] - true[0], est[1] - true[1]) < 1e-10

    def test_clock_mismatch_rejected(self):
        traj = generate_trajectory(PARAMS, 7)
        state = maint_init(traj, period_T=10.0)
        with pytest.raises(ParameterError):
            maint_on_query(state, Query(5.0, "a"), clock=6.0)


class TestMadrd:
    def line_state(self, base=10.0, **cfg_kwargs):
        cfg = MadrdConfig(base_interval=base, **cfg_kwargs)
        return MadrdState(
            fix_prev=LocalizationFix(0.0, (0.0, 0.0)),
            fix_last=LocalizationFix(10.0, (10.0, 0.0)),
            next_interval=base,
            config=cfg,
        )

    def test_constant_velocity_continuation(self):
        state = self.line_state()
        assert extrapolate_madrd(state, 15.0) == (15.0, 0.0)
        assert extrapolate_madrd(state, 10.0) == state.fix_last.pos

    def test_exact_on_same_leg(self):
        traj = manual_trajectory([(50.0, 1.25, -0.5)], span=50.0)
        state = MadrdState(
            fix_prev=localize(traj, 5.0),
            fix_last=localize(traj, 15.0),
            next_interval=10.0,
            config=MadrdConfig(base_interval=10.0),
        )
        for t in (20.0, 33.0, 48.0):
            est = extrapolate_madrd(state, t)
            true = point(traj, t)
            assert est[0] == pytest.approx(true[0], abs=1e-12)
            assert est[1] == pytest.approx(true[1], abs=1e-12)

    def test_degenerate_pair(self):
        state = MadrdState(
            fix_prev=LocalizationFix(5.0, (0.0, 0.0)),
            fix_last=LocalizationFix(5.0, (1.0, 0.0)),
            next_interval=10.0,
            config=MadrdConfig(base_interval=10.0),
        )
        with pytest.raises(DegeneratePairError):
            extrapolate_madrd(state, 6.0)

    def test_perfect_predictor_grows_interval_to_clamp(self):
        state = self.line_state(base=10.0)
        for step in range(1, 5):
            t = 10.0 + 10.0 * step
            madrd_on_localization(state, LocalizationFix(t, (t, 0.0)))
        assert state.next_interval == state.config.clamp_max == 40.0

    def test_large_error_halves_interval(self):
        state = self.line_state(base=10.0)
        # predicted (20, 0); actual 6 units off > e_thresh = 5
        madrd_on_localization(state, LocalizationFix(20.0, (20.0, 6.0)))
        assert state.next_interval == 5.0
        assert state.fix_prev.time == 10.0 and state.fix_last.time == 20.0

    def test_threshold_tie_leaves_interval(self):
        state = self.line_state(base=10.0)
        madrd_on_localization(state, LocalizationFix(20.0, (20.0, 5.0)))
        assert state.next_interval == 10.0

    def test_mid_band_error_leaves_interval(self):
        state = self.line_state(base=10.0)
        madrd_on_localization(state, LocalizationFix(20.0, (20.0, 3.0)))
        assert state.next_interval == 10.0

    def test_counts_calls(self):
        state = self.line_state(base=10.0)
        assert state.calls == 2
        madrd_on_localization(state, LocalizationFix(20.0, (20.0, 0.0)))
        assert state.calls == 3

    @given(errors=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_interval_stays_clamped(self, errors):
        state = self.line_state(base=10.0, min_interval=0.1, max_interval=25.0)
        t = 10.0
        for e in errors:
            predicted_y = 0.0
            t += state.next_interval
            madrd_on_localization(state, LocalizationFix(t, (t, predicted_y + e)))
            assert 0.1 <= state.next_interval <= 25.0

    def test_rejects_out_of_order_fix(self):
        state = self.line_state()
        with pytest.raises(ParameterError):
            madrd_on_localization(state, LocalizationFix(10.0, (10.0, 0.0)))


class TestSfr:
    def test_schedule(self):
        assert sfr_schedule(25.0, 100.0).tolist() == [0.0, 25.0, 50.0, 75.0, 100.0]

    def test_schedule_tolerates_binary_rounding(self):
        # 0.1 does not divide 100 exactly in floats; the schedule still must
        assert len(sfr_schedule(0.1, 100.0)) == 1001

    def test_stationary_sensor_zero_error_same_cost(self):
        traj = manual_trajectory([(100.0, 0.0, 0.0)], span=100.0)
        times = sfr_schedule(25.0, 100.0)
        for t in times:
            assert point(traj, float(t)) == (0.0, 0.0)
        assert len(times) == 5  # calls unaffected by the sensor resting

    def test_last_fix_semantics(self):
        # a query just before the next tick is answered with the stale fix
        traj = manual_trajectory([(100.0, 1.0, 0.0)], span=100.0)
        times = sfr_schedule(25.0, 100.0)
        fix_idx = int(np.searchsorted(times, 24.9, side="right")) - 1
        assert times[fix_idx] == 0.0

    def test_rejects_bad_period(self):
        with pytest.raises(ParameterError):
            sfr_schedule(0.0, 100.0)


class TestDvm:
    def make_state(self, speed, threshold=10.0, min_interval=0.1, max_interval=100.0):
        return DvmState(
            fix_prev=LocalizationFix(0.0, (0.0, 0.0)),
            fix_last=LocalizationFix(2.0, (2.0 * speed, 0.0)),
            config=DvmConfig(threshold, min_interval, max_interval),
        )

    def test_interval_is_threshold_over_speed(self):
        assert dvm_next_interval(self.make_state(speed=5.0)) == 2.0

    def test_resting_sensor_gets_max_interval(self):
        assert dvm_next_interval(self.make_state(speed=0.0)) == 100.0

    @given(speed=st.floats(0.2, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_doubling_speed_halves_interval(self, speed):
        lo = dvm_next_interval(self.make_state(speed=speed, min_interval=1e-6, max_interval=1e6))
        hi = dvm_next_interval(self.make_state(speed=2 * speed, min_interval=1e-6, max_interval=1e6))
        assert hi == pytest.approx(lo / 2.0, rel=1e-12)

    def test_clamps(self):
        assert dvm_next_interval(self.make_state(speed=1000.0)) == 0.1
        assert dvm_next_interval(self.make_state(speed=1e-9, max_interval=50.0)) == 50.0

    def test_degenerate_pair(self):
        state = DvmState(
            fix_prev=LocalizationFix(1.0, (0.0, 0.0)),
            fix_last=LocalizationFix(1.0, (1.0, 0.0)),
            config=DvmConfig(),
        )
        with pytest.raises(DegeneratePairError):
            dvm_next_interval(state)
