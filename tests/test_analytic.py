"""Closed-form moments and error curves against independent oracles.

Every non-trivial expected value asserted here is cross-checked in this
file by an oracle that does not share code with the formula under test:
order-statistics sampling for conditional moments, direct trajectory
simulation for unconditional ones, adaptive quadrature for the averaged
error, and series expansions for limits.
"""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from maintsim import output
from maintsim.analytic import (
    cond_interarrival_moment,
    cond_position_second_moment,
    cond_waypoint_time_moment,
    displacement_cross_moment,
    error_asymptote,
    error_at,
    error_at_curve,
    error_avg,
    position_second_moment,
    position_second_moment_given_count,
)
from maintsim.cli import EXIT_OK, EXIT_VALIDATION, main
from maintsim.errors import ParameterError, UnsupportedMomentError
from reference_runners import sample_window_positions
from waypoint_laws import (
    interarrival_density,
    waypoint_count_pmf,
    waypoint_time_density,
    waypoint_time_gap_joint_density,
)


# ---------------------------------------------------------------------------
# conditional waypoint-time moments (k-th of n, window tau)


def _sorted_uniforms(rng, tau, n, samples):
    wp = np.sort(rng.uniform(0.0, tau, (samples, n)), axis=1)
    gaps = np.diff(wp, axis=1, prepend=0.0)
    return wp, gaps


class TestCondWaypointTimeMoment:
    def test_frozen_values(self):
        assert cond_waypoint_time_moment(10.0, 4, 2, 1) == 4.0
        assert cond_waypoint_time_moment(10.0, 4, 2, 2) == 20.0
        # single waypoint: uniform on (0, tau), mean by symmetry
        assert cond_waypoint_time_moment(10.0, 1, 1, 1) == 5.0

    def test_order_statistics_oracle(self):
        rng = np.random.default_rng(2024)
        wp, _ = _sorted_uniforms(rng, 10.0, 4, 200_000)
        t2 = wp[:, 1]
        for sample, expected in ((t2, 4.0), (t2**2, 20.0)):
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - expected) < 3.0 * se

    def test_rejects_bad_order(self):
        with pytest.raises(UnsupportedMomentError):
            cond_waypoint_time_moment(10.0, 4, 2, 3)

    def test_rejects_bad_query(self):
        with pytest.raises(ParameterError):
            cond_waypoint_time_moment(10.0, 4, 5, 1)
        with pytest.raises(ParameterError):
            cond_waypoint_time_moment(-1.0, 4, 2, 1)


class TestCondInterarrivalMoment:
    def test_frozen_values(self):
        assert cond_interarrival_moment(10.0, 4, 1) == 2.0
        assert cond_interarrival_moment(10.0, 4, 2) == pytest.approx(200.0 / 30.0, rel=1e-15)
        assert cond_interarrival_moment(10.0, 1, 1) == 5.0

    def test_spacings_oracle(self):
        rng = np.random.default_rng(7)
        _, gaps = _sorted_uniforms(rng, 10.0, 4, 200_000)
        for k in range(4):  # the law is the same for every gap index
            g = gaps[:, k]
            se1 = g.std(ddof=1) / math.sqrt(g.size)
            assert abs(g.mean() - 2.0) < 3.0 * se1
            se2 = (g**2).std(ddof=1) / math.sqrt(g.size)
            assert abs((g**2).mean() - 200.0 / 30.0) < 3.0 * se2

    def test_rejects_bad_order(self):
        with pytest.raises(UnsupportedMomentError):
            cond_interarrival_moment(10.0, 4, 0)


class TestCondPositionSecondMoment:
    def test_frozen_values(self):
        assert cond_position_second_moment(10.0, 4, 2, 5.0) == pytest.approx(1000.0 / 3.0, rel=1e-15)
        # k = n = 1: one gap, uniform; sigma^2 tau^2 / 3
        assert cond_position_second_moment(10.0, 1, 1, 5.0) == pytest.approx(2500.0 / 3.0, rel=1e-15)

    def test_weighted_spacings_oracle(self):
        rng = np.random.default_rng(11)
        _, gaps = _sorted_uniforms(rng, 10.0, 4, 200_000)
        vel = 5.0 * rng.standard_normal(gaps.shape)
        x2 = np.cumsum(vel * gaps, axis=1)[:, 1]
        sq = x2**2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - 1000.0 / 3.0) < 3.0 * se

    def test_first_moment_is_zero(self):
        rng = np.random.default_rng(12)
        _, gaps = _sorted_uniforms(rng, 10.0, 4, 100_000)
        vel = 5.0 * rng.standard_normal(gaps.shape)
        x2 = np.cumsum(vel * gaps, axis=1)[:, 1]
        se = x2.std(ddof=1) / math.sqrt(x2.size)
        assert abs(x2.mean()) < 3.0 * se


class TestPositionSecondMomentGivenCount:
    def test_no_waypoints_is_pure_drift(self):
        assert position_second_moment_given_count(10.0, 0, 5.0) == 2500.0

    def test_frozen_value(self):
        assert position_second_moment_given_count(10.0, 2, 5.0) == 1250.0

    def test_conditioned_oracle(self):
        rng = np.random.default_rng(21)
        t, sigma, i, samples = 10.0, 5.0, 2, 200_000
        wp, gaps = _sorted_uniforms(rng, t, i, samples)
        vel = sigma * rng.standard_normal((samples, i + 1))
        x = (vel[:, :i] * gaps).sum(axis=1) + (t - wp[:, i - 1]) * vel[:, i]
        sq = x**2
        se = sq.std(ddof=1) / math.sqrt(samples)
        assert abs(sq.mean() - 1250.0) < 3.0 * se

    @pytest.mark.parametrize("i", range(0, 8))
    def test_decreasing_in_count(self, i):
        assert position_second_moment_given_count(10.0, i, 5.0) > position_second_moment_given_count(
            10.0, i + 1, 5.0
        )


class TestPositionSecondMoment:
    def test_zero_at_zero(self):
        assert position_second_moment(0.0, 0.1, 5.0) == 0.0

    def test_frozen_value(self):
        # 50 * (100 - 100 + 100/e), cross-checked by the trajectory oracle below
        assert position_second_moment(10.0, 0.1, 5.0) == pytest.approx(1839.3972058572112, rel=1e-12)

    def test_trajectory_oracle(self):
        rng = np.random.default_rng(31)
        xs, ys = sample_window_positions(rng, 0.1, 5.0, 10.0, 150_000, (10.0,))
        sq = np.concatenate([xs[:, 0], ys[:, 0]]) ** 2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - 1839.3972058572112) < 3.5 * se

    def test_small_time_series(self):
        # sigma^2 t^2 (1 - lambda t / 3) to second order
        t, lam, sigma = 1e-3, 0.1, 5.0
        expected = sigma**2 * t**2 * (1.0 - lam * t / 3.0)
        assert position_second_moment(t, lam, sigma) == pytest.approx(expected, rel=1e-7)

    def test_extreme_lambda(self):
        # lambda^2 underflows to 0: refused as the error kernels refuse it,
        # not a division by zero; where 2 sigma^2 / lambda^2 falls below the
        # normal range the gap, about lambda t, is divided by lambda twice
        with pytest.raises(ParameterError, match="lambda_rate\\*\\*2 underflows"):
            position_second_moment(5.0, 1e-300, 5.0)
        # 2 sigma^2 / lambda^2 = 2e-314 is subnormal; then lambda^2 overflows
        assert math.isclose(position_second_moment(1.0, 1e153, 1e-4), 2e-161, rel_tol=1e-14)
        assert math.isclose(position_second_moment(1.0, 1e200, 5.0), 5e-199, rel_tol=1e-14)
        with pytest.raises(ParameterError, match="sigma\\*\\*2 overflows"):
            position_second_moment(1.0, 0.1, 1e200)


class TestDisplacementCrossMoment:
    def test_endpoints_vanish(self):
        assert displacement_cross_moment(0.0, 10.0, 0.1, 5.0) == 0.0
        assert displacement_cross_moment(10.0, 10.0, 0.1, 5.0) == 0.0

    def test_frozen_value(self):
        # 2500 (1 - 2 e^-1/2 + e^-1), split-window oracle below
        assert displacement_cross_moment(5.0, 10.0, 0.1, 5.0) == pytest.approx(387.0453043654386, rel=1e-12)

    def test_split_window_oracle(self):
        rng = np.random.default_rng(41)
        xs, ys = sample_window_positions(rng, 0.1, 5.0, 10.0, 400_000, (5.0, 10.0))
        before = np.concatenate([xs[:, 0], ys[:, 0]])
        after = np.concatenate([xs[:, 1], ys[:, 1]]) - before
        prod = before * after
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean() - 387.0453043654386) < 3.5 * se

    @given(
        lam=st.floats(0.02, 2.0),
        T=st.floats(1.0, 100.0),
        frac=st.floats(0.0, 1.0),
        sigma=st.floats(0.5, 20.0),
    )
    def test_bounds_and_symmetry(self, lam, T, frac, sigma):
        t = frac * T
        value = displacement_cross_moment(t, T, lam, sigma)
        assert 0.0 <= value <= sigma**2 / lam**2 * (1 + 1e-12)
        mirrored = displacement_cross_moment(T - t, T, lam, sigma)
        # abs tolerance at the bound's scale: T - t rounds to T for t below an ulp
        assert value == pytest.approx(mirrored, rel=1e-9, abs=1e-12 * sigma**2 / lam**2)

    def test_extreme_lambda(self):
        with pytest.raises(ParameterError, match="lambda_rate\\*\\*2 underflows"):
            displacement_cross_moment(5.0, 10.0, 1e-300, 5.0)
        # sigma^2 / lambda^2 = 1e-100, with lambda^2 itself past the range
        assert math.isclose(displacement_cross_moment(0.5, 1.0, 1e200, 1e150), 1e-100, rel_tol=1e-14)
        with pytest.raises(ParameterError, match="sigma\\*\\*2 overflows"):
            displacement_cross_moment(5.0, 10.0, 0.1, 1e200)


class TestErrorAt:
    def test_endpoints_exactly_zero(self):
        assert error_at(5.0, 0.1, 100.0, 0.0) == 0.0
        assert error_at(5.0, 0.1, 100.0, 100.0) == 0.0

    def test_frozen_midpoint_value(self):
        # bracket evaluated term by term; agrees with the protocol-level
        # Monte Carlo oracle below
        assert error_at(5.0, 0.1, 100.0, 50.0) == pytest.approx(17567.26597016644, rel=1e-10)

    def test_symmetry_is_exact_on_clean_grid(self):
        for t in (10.0, 20.0, 30.0, 40.0):
            left = error_at(5.0, 0.1, 100.0, t)
            right = error_at(5.0, 0.1, 100.0, 100.0 - t)
            assert left == right

    def test_protocol_simulation_oracle(self):
        rng = np.random.default_rng(51)
        t, T = 50.0, 100.0
        xs, ys = sample_window_positions(rng, 0.1, 5.0, T, 250_000, (t, T))
        frac = t / T
        sq = (xs[:, 0] - xs[:, 1] * frac) ** 2 + (ys[:, 0] - ys[:, 1] * frac) ** 2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - 17567.26597016644) < 3.5 * se

    @given(
        lam=st.floats(0.02, 2.0),
        T=st.floats(1.0, 100.0),
        frac=st.floats(0.0, 1.0),
        sigma=st.floats(0.5, 20.0),
    )
    @settings(max_examples=200)
    def test_nonnegative_and_symmetric(self, lam, T, frac, sigma):
        t = frac * T
        v = error_at(sigma, lam, T, t)
        assert v >= 0.0
        mirrored = error_at(sigma, lam, T, T - t)
        assert v == pytest.approx(mirrored, rel=1e-9, abs=1e-12 * sigma**2 * T * T)

    def test_nonnegative_just_above_zero(self):
        # the bracket cancels to a few ulps of its terms here, and came out
        # at -1e-323 before it was clamped at 0; larger t keep their bits
        assert error_at(1.0, 0.0625, 24.0, 2.233349536577976e-162) == 0.0
        assert error_at(1.0, 0.0625, 24.0, 1e-160) == 1.2376e-320

    def test_requires_t(self):
        with pytest.raises(TypeError):
            error_at(5.0, 0.1, 100.0)


class TestErrorAvg:
    def test_frozen_reference_point(self):
        # quadrature of the pointwise curve reproduces this to 1e-8
        assert error_avg(5.0, 0.1, 100.0) == pytest.approx(10133.26674676968, rel=1e-12)

    GRID_SIGMA = (1.0, 5.0, 10.0)
    GRID_LAMBDA = (0.05, 0.1, 0.5)
    GRID_T = (10.0, 50.0, 100.0, 200.0)

    @pytest.mark.parametrize("sigma", GRID_SIGMA)
    @pytest.mark.parametrize("lam", GRID_LAMBDA)
    @pytest.mark.parametrize("T", GRID_T)
    def test_quadrature_identity(self, sigma, lam, T):
        closed = error_avg(sigma, lam, T)
        integral, est_err = quad(
            lambda t: error_at(sigma, lam, T, t),
            0.0,
            T,
            epsabs=1e-13 * closed * T,
            epsrel=1e-11,
            limit=400,
        )
        assert est_err < 1e-7 * integral
        assert integral / T == pytest.approx(closed, rel=1e-6)

    def test_vanishes_with_the_period(self):
        sigma = 5.0
        value = error_avg(sigma, 0.1, 1e-3)
        assert 0.0 < value < 1e-4 * sigma**2
        # leading term of the series: 2 sigma^2 lambda T^3 / 45
        assert value == pytest.approx(2 * 25.0 * 0.1 * 1e-9 / 45.0, rel=1e-4)

    def test_series_and_direct_branches_agree(self):
        lam = 1.0
        below = error_avg(5.0, lam, 0.9999999)
        above = error_avg(5.0, lam, 1.0000001)
        assert below == pytest.approx(above, rel=1e-6)

    def test_constant_ratio_value(self):
        # lambda tied to T: T=200, C=50
        assert error_avg(10.0, 4.0, 200.0) == pytest.approx(3312.5624218750004, rel=1e-12)

    def test_rejects_pointwise_query(self):
        with pytest.raises(TypeError):
            error_avg(5.0, 0.1, 100.0, 3.0)


class TestErrorAsymptote:
    def test_frozen_value(self):
        assert error_asymptote(10.0, 50.0) == pytest.approx(10000.0 / 3.0, rel=1e-15)

    def test_no_motion_no_error(self):
        assert error_asymptote(0.0, 50.0) == 0.0

    def test_constant_ratio_convergence(self):
        limit = error_asymptote(10.0, 50.0)
        gap_200 = abs(error_avg(10.0, 200.0 / 50.0, 200.0) - limit) / limit
        gap_400 = abs(error_avg(10.0, 400.0 / 50.0, 400.0) - limit) / limit
        assert gap_200 < 0.01
        assert gap_400 < gap_200

    def test_rejects_bad_ratio(self):
        with pytest.raises(ParameterError):
            error_asymptote(10.0, 0.0)


# ---------------------------------------------------------------------------
# kernels against the scalar reference
#
# The oracle below is the scalar, pure-``math`` evaluation that the kernels
# once replaced by array code, kept verbatim.  Outputs are
# byte-deterministic, so the kernels must agree with it bit for bit, not to
# a tolerance.


def _exp_gap_ref(x):
    if x < 1e-2:
        return x * x * (0.5 + x * (-1.0 / 6 + x * (1.0 / 24 + x * (-1.0 / 120 + x / 720))))
    return math.expm1(-x) + x


def _one_minus_exp_ref(x):
    return -math.expm1(-x)


def _avg_bracket_ref(x):
    if x < 1.0:
        total = 0.0
        x_pow = x * x * x
        fact = 120.0
        sign = -1.0
        for k in range(3, 40):
            term = sign * x_pow * (12.0 - (k + 1) * (k + 2)) / fact
            total += term
            if abs(term) <= 1e-18 * abs(total):
                break
            x_pow *= x
            fact *= k + 3
            sign = -sign
        return total
    return x - 5.0 + 12.0 / x + (12.0 / (x * x)) * math.expm1(-x) - math.exp(-x)


def _error_at_ref(sigma, lam, T, t):
    u = min(t, T - t)
    w = max(t, T - t)
    a = lam * u
    b = lam * w
    bracket = u * u * _exp_gap_ref(b) + w * w * _exp_gap_ref(a) - u * w * _one_minus_exp_ref(a) * _one_minus_exp_ref(b)
    return 4.0 * sigma**2 / (lam * lam * T * T) * bracket


def _error_avg_ref(sigma, lam, T):
    return 2.0 * sigma**2 / (3.0 * lam * lam) * _avg_bracket_ref(lam * T)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _ulps(x):
    """x and its neighbours one ulp below and above."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _theory_csv(path, mode, *flags):
    """The bytes of ``theory --mode mode`` with ``flags``, written to ``path``."""
    assert main(["theory", "--mode", mode, *flags, "--out", str(path)]) == EXIT_OK
    return path.read_bytes()


class TestArrayKernels:
    # lambda*T from 1e-3 to 800, the range the sweeps and fig6 reach
    LAMBDA_T = np.geomspace(1e-3, 800.0, 41).tolist()

    def _t_grid(self, lam, T):
        # both ends, the midpoint, a coarse sweep and the Maclaurin switch at
        # lambda*t = 1e-2 with one ulp either side (t <= T only)
        switch = [v for v in _ulps(1e-2 / lam) if v <= T]
        return [0.0, T / 2, T, *np.linspace(0.0, T, 37).tolist(), *switch]

    @pytest.mark.parametrize("lam", [0.1, 1.0, 3.7])
    def test_error_at_matches_scalar_oracle(self, lam):
        for x in self.LAMBDA_T:
            T = x / lam
            t = self._t_grid(lam, T)
            got = [error_at(4.2, lam, T, v) for v in t]
            want = [_error_at_ref(4.2, lam, T, v) for v in t]
            assert _bits(got) == _bits(want), (lam, T)

    def test_error_at_straddles_the_series_switch(self):
        # lambda = 1: the bracket arguments are u and w themselves
        for u in _ulps(1e-2):
            for T in (2.5e-2, 1.0, 50.0):
                got = [error_at(3.0, 1.0, T, u), error_at(3.0, 1.0, T, T - u)]
                want = [_error_at_ref(3.0, 1.0, T, u), _error_at_ref(3.0, 1.0, T, T - u)]
                assert _bits(got) == _bits(want), (u, T)

    def test_error_at_scalar_arguments_give_float(self):
        value = error_at(5.0, 0.1, 100.0, 37.5)
        assert type(value) is float
        assert value == _error_at_ref(5.0, 0.1, 100.0, 37.5)

    def test_error_at_varying_T(self):
        T = [10.0, 20.0, 80.0]
        got = [error_at(2.0, 0.3, v, v / 3) for v in T]
        assert _bits(got) == _bits([_error_at_ref(2.0, 0.3, v, v / 3) for v in T])

    def test_error_avg_matches_scalar_oracle(self):
        # dense on both sides of the series switch at lambda*T = 1
        near_one = [v for x in (0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0) for v in _ulps(x)]
        for lam in (0.05, 1.0, 6.0):
            T = [x / lam for x in self.LAMBDA_T + near_one]
            got = [error_avg(7.5, lam, v) for v in T]
            want = [_error_avg_ref(7.5, lam, v) for v in T]
            assert _bits(got) == _bits(want), lam

    def test_error_avg_series_boundary_bits(self):
        # lambda = 1 puts the bracket argument exactly on and beside x = 1
        for x in _ulps(1.0):
            assert _bits(error_avg(5.0, 1.0, x)) == _bits(_error_avg_ref(5.0, 1.0, x))

    def test_error_avg_per_element_cutoff(self):
        # arguments that stop adding series terms at different k each give
        # the oracle's bits
        T = [1e-3, 0.3, 0.999, 0.05, 0.7]
        assert _bits([error_avg(5.0, 1.0, v) for v in T]) == _bits([_error_avg_ref(5.0, 1.0, v) for v in T])

    def test_error_avg_varying_lambda(self):
        # the asymptote sweep ties lambda to T
        T = np.arange(20.0, 401.0, 20.0).tolist()
        got = [error_avg(10.0, v / 50.0, v) for v in T]
        assert _bits(got) == _bits([_error_avg_ref(10.0, v / 50.0, v) for v in T])

    def test_large_lambda_leaves_the_other_elements_bits(self):
        # lambda**2 overflows above lambda ~ 1e154, where the kernels divide
        # the bracket by lambda instead (values checked against mpmath in
        # test_cli); lambdas in range keep the oracle's bits
        for lam in (0.1, 3.7):
            assert _bits(error_avg(5.0, lam, 100.0)) == _bits(_error_avg_ref(5.0, lam, 100.0))
            assert _bits(error_at(5.0, lam, 100.0, 30.0)) == _bits(_error_at_ref(5.0, lam, 100.0, 30.0))
        for lam in (1e155, 1e200):
            assert 0.0 < error_avg(5.0, lam, 100.0) < math.inf
            assert 0.0 < error_at(5.0, lam, 100.0, 30.0) < math.inf

    @given(
        sigma=st.floats(0.5, 20.0),
        lam=st.floats(1e-3, 10.0),
        lam_T=st.floats(1e-3, 800.0),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_kernels_match_the_oracle_over_the_sweep_range(self, sigma, lam, lam_T, data):
        # the oracle has no clamp: where its bracket cancels below 0 just
        # above t = 0, the kernel gives 0
        T = lam_T / lam
        t = data.draw(st.floats(0.0, T), label="t")
        want = _error_at_ref(sigma, lam, T, t)
        assert _bits(error_at(sigma, lam, T, t)) == _bits(want if want > 0.0 else 0.0)
        assert _bits(error_avg(sigma, lam, T)) == _bits(_error_avg_ref(sigma, lam, T))

    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_chunks_give_the_whole_grid_bits(self, tmp_path, monkeypatch, set_cpus, chunk):
        # every theory mode over three full chunks of the CSV writer and a
        # short one, on two CPUs, against the grid written as one chunk on one
        n = 3 * chunk + 5
        runs = [
            ("error_t", "--sigma", "5", "--lambda", "0.1", "--T", f"{n - 1}", "--t", f"0:{n - 1}:1"),
            ("error_avg", "--sigma", "5", "--lambda", "0.1", "--T", f"0.5:{n - 0.5}:1"),
            ("asymptote", "--sigma", "10", "--C", "50", "--T", f"1:{n}:1"),
        ]
        set_cpus(1)
        monkeypatch.setattr(output, "_CHUNK_ROWS", 11 * n)
        want = [_theory_csv(tmp_path / "whole.csv", *argv) for argv in runs]
        set_cpus(2)
        monkeypatch.setattr(output, "_CHUNK_ROWS", chunk)
        got = [_theory_csv(tmp_path / "chunks.csv", *argv) for argv in runs]
        for g, w in zip(got, want):
            assert g == w
            assert g.count(b"\n") - g.count(b"# ") - 1 == n  # data rows: all but metadata and header

    def test_error_at_memory_stays_chunk_sized(self, tmp_path, set_cpus):
        # each chunk of the CSV writer computes its own grid points and
        # errors, so the traced peak of theory error_t at 200 001 rows is
        # that at 10 001 rows give or take less than one chunk of the
        # written CSV; with the grid and its errors held whole as float64
        # arrays, it grew by 16 bytes a row
        import tracemalloc

        set_cpus(1)  # no forked worker, whose memory is not traced
        out = tmp_path / "grid.csv"
        argv = ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100", "--out", str(out)]
        assert main([*argv, "--t", "0:100:1"]) == EXIT_OK  # one-time allocations
        peaks = []
        for step in ("0.01", "0.0005"):
            tracemalloc.start()
            try:
                assert main([*argv, "--t", f"0:100:{step}"]) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chunk_bytes = out.stat().st_size * output._CHUNK_ROWS // 200_001
        assert abs(peaks[1] - peaks[0]) < chunk_bytes, (peaks, chunk_bytes)

    def test_moments_keep_their_scalar_values(self):
        assert position_second_moment(10.0, 0.1, 5.0) == 2.0 * 25.0 / 0.1**2 * _exp_gap_ref(1.0)
        assert position_second_moment(0.05, 0.1, 5.0) == 2.0 * 25.0 / 0.1**2 * _exp_gap_ref(0.1 * 0.05)
        a, b = 0.1 * 3.0, 0.1 * (10.0 - 3.0)
        expected = 25.0 / 0.1**2 * _one_minus_exp_ref(a) * _one_minus_exp_ref(b)
        assert displacement_cross_moment(3.0, 10.0, 0.1, 5.0) == expected


class TestErrorArguments:
    BAD = [math.inf, -math.inf, math.nan, 0.0, -1.0]

    @pytest.mark.parametrize("bad", BAD)
    def test_rejects_bad_sigma_lambda_T(self, bad):
        for args in ((bad, 0.1, 100.0), (5.0, bad, 100.0), (5.0, 0.1, bad)):
            with pytest.raises(ParameterError):
                error_at(*args, 1.0)
            with pytest.raises(ParameterError):
                error_avg(*args)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1e-9, 100.0 + 1e-9])
    def test_rejects_t_outside_window(self, bad):
        with pytest.raises(ParameterError):
            error_at(5.0, 0.1, 100.0, bad)
        curve = error_at_curve(5.0, 0.1, 100.0)
        assert curve(50.0) == error_at(5.0, 0.1, 100.0, 50.0)
        with pytest.raises(ParameterError):
            curve(bad)

    def test_rejects_bad_element_in_T_grid(self):
        # a grid is evaluated a point at a time: the good points give
        # values, the bad one a parameter error
        assert error_avg(5.0, 0.1, 10.0) > 0.0
        with pytest.raises(ParameterError):
            error_avg(5.0, 0.1, math.inf)
        assert error_avg(5.0, 0.1, 10.0) > 0.0
        with pytest.raises(ParameterError):
            error_avg(5.0, math.nan, 10.0)

    def test_rejects_underflowing_scale(self):
        with pytest.raises(ParameterError, match="underflows"):
            error_at(5.0, 1e-300, 100.0, 50.0)
        with pytest.raises(ParameterError, match="underflows"):
            error_avg(5.0, 1e-300, 100.0)

    def test_rejects_overflow(self):
        with pytest.raises(ParameterError, match="overflows"):
            error_avg(1e200, 0.1, 100.0)
        with pytest.raises(ParameterError, match="not finite"):
            error_at(5.0, 0.1, 1e200, 5e199)

    @given(
        sigma=st.floats(1e-300, 1e300),
        lam=st.floats(1e-300, 1e300),
        T=st.floats(),
        t=st.floats(),
    )
    @settings(max_examples=500, deadline=None)
    def test_every_argument_gives_a_finite_value_or_a_parameter_error(self, sigma, lam, T, t):
        # Python floats raise where numpy gave inf or nan (ZeroDivisionError,
        # and OverflowError from ** and math.exp): every such case must end
        # in a parameter error, and in exit 2 from the CLI
        import tempfile

        cases = [
            (error_at, (sigma, lam, T, t), ["error_t", "--lambda", repr(lam), f"--T={T!r}", f"--t={t!r}"]),
            (error_avg, (sigma, lam, T), ["error_avg", "--lambda", repr(lam), f"--T={T!r}"]),
            (position_second_moment, (t, lam, sigma), None),
            (displacement_cross_moment, (t, T, lam, sigma), None),
        ]
        for kernel, args, cli in cases:
            try:
                value = kernel(*args)
            except ParameterError:
                if cli is not None:
                    mode, *flags = cli
                    with tempfile.TemporaryDirectory() as tmp:
                        out = os.path.join(tmp, "theory.csv")
                        argv = ["theory", "--mode", mode, "--sigma", repr(sigma), *flags, "--out", out]
                        assert main(argv) == EXIT_VALIDATION, argv
                        assert not os.path.exists(out)
                continue
            assert type(value) is float and math.isfinite(value) and value >= 0.0, (kernel.__name__, args, value)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -2.0])
    def test_asymptote_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError):
            error_asymptote(10.0, bad)
        if bad != 0.0:
            with pytest.raises(ParameterError):
                error_asymptote(bad, 50.0)

    def test_no_runtime_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for t in np.linspace(0.0, 100.0, 101).tolist():
                error_at(5.0, 0.1, 100.0, t)
            for v in (1e-3, 1e3):
                error_avg(5.0, v, v)
            with pytest.raises(ParameterError):
                error_at(5.0, 0.1, 1e200, 5e199)


# ---------------------------------------------------------------------------
# densities


class TestDensities:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_waypoint_time_density_normalizes(self, n):
        tau = 10.0
        for k in range(1, n + 1):
            integral, _ = quad(
                lambda x: waypoint_time_density(x, tau, n, k), 0.0, tau, epsabs=1e-12, epsrel=1e-12, limit=200
            )
            assert abs(integral - 1.0) <= 1e-8

    @pytest.mark.parametrize("n", range(1, 11))
    def test_interarrival_density_normalizes(self, n):
        tau = 10.0
        integral, _ = quad(lambda y: interarrival_density(y, tau, n), 0.0, tau, epsabs=1e-12, epsrel=1e-12)
        assert abs(integral - 1.0) <= 1e-8

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 3), (6, 2)])
    def test_joint_density_normalizes(self, n, k):
        tau = 10.0
        integral, _ = dblquad(
            lambda y, x: waypoint_time_gap_joint_density(x, y, tau, n, k),
            0.0,
            tau,
            0.0,
            lambda x: tau - x,
            epsabs=1e-10,
            epsrel=1e-10,
        )
        assert integral == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 5), (3, 1)])
    def test_density_moments_match_closed_forms(self, n, k):
        tau = 10.0
        mean, _ = quad(lambda x: x * waypoint_time_density(x, tau, n, k), 0.0, tau, epsabs=1e-12, epsrel=1e-12)
        assert mean == pytest.approx(cond_waypoint_time_moment(tau, n, k, 1), rel=1e-9)
        second, _ = quad(
            lambda y: y * y * interarrival_density(y, tau, n), 0.0, tau, epsabs=1e-12, epsrel=1e-12
        )
        assert second == pytest.approx(cond_interarrival_moment(tau, n, 2), rel=1e-9)

    def test_density_domains(self):
        assert waypoint_time_density(-1.0, 10.0, 4, 2) == 0.0
        assert waypoint_time_density(11.0, 10.0, 4, 2) == 0.0
        assert interarrival_density(10.0, 10.0, 4) == 0.0
        with pytest.raises(ParameterError):
            waypoint_time_density(1.0, 10.0, 4, 5)
        with pytest.raises(ParameterError):
            waypoint_time_gap_joint_density(1.0, 1.0, 10.0, 4, 1)


class TestWaypointCountPmf:
    def test_matches_scipy(self):
        from scipy.stats import poisson

        ks = np.arange(0, 30)
        ours = waypoint_count_pmf(ks, 10.0, 0.1)
        ref = poisson.pmf(ks, 1.0)
        assert np.allclose(ours, ref, rtol=1e-12)

    def test_sums_to_one(self):
        ks = np.arange(0, 200)
        assert waypoint_count_pmf(ks, 100.0, 0.1).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_horizon(self):
        assert waypoint_count_pmf(0, 0.0, 0.1) == 1.0
        assert waypoint_count_pmf(3, 0.0, 0.1) == 0.0
