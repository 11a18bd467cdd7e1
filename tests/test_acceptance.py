"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Tolerances are pinned here and nowhere else:
  1. period sweep within 5% of the closed form at every T (>= 2000 samples
     per T), < 60 s
  2. constant-ratio sweep within 3 standard errors everywhere, closed form
     within 1% of the limit at T = 200, < 60 s
  3. interpolation beats dead reckoning in every shared localization-count
     bin with >= 30 samples on both sides (>= 10000 replications), < 5 min
  4. all conditional/unconditional moment z-scores below 4 at >= 1e5
     samples; conditional densities integrate to 1 +/- 1e-8 for n <= 10
  5. structural identities: endpoint zeros and symmetry, quadrature
     identity to 1e-6, zero-waypoint exactness, exact call counts,
     byte-identical reruns
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from maintsim.analytic import error_asymptote, error_at, error_avg
from maintsim.cli import EXIT_OK, main
from maintsim.mobility import ModelParams
from maintsim.montecarlo import run_error_vs_count, run_period_sweep, validate_conditional_moments
from maintsim.protocols import interpolate, localize
from reference_runners import generate_trajectory, run_maint_timer
from waypoint_laws import interarrival_density, waypoint_time_density
from test_mobility import manual_trajectory, point

SEED = 20240811
T_GRID = tuple(float(t) for t in range(20, 201, 20))


def _report(num: int, description: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} ({detail})")


def test_criterion_1_period_sweep_matches_theory():
    started = time.perf_counter()
    points = run_period_sweep(5.0, SEED, T_GRID, 25000, lambda_rate=0.1)
    elapsed = time.perf_counter() - started

    reference = error_avg(5.0, 0.1, 100.0)
    violations = []
    if not math.isclose(reference, 10133.26674676968, rel_tol=1e-9):
        violations.append(f"reference point drifted: {reference}")
    for p in points:
        if p.samples < 2000:
            violations.append(f"T={p.T}: only {p.samples} samples")
        rel = abs(p.mean_sq_error - p.theory) / p.theory
        if rel > 0.05:
            violations.append(f"T={p.T}: simulated {p.mean_sq_error:.1f} vs theory {p.theory:.1f} ({rel:.2%})")
    if elapsed >= 60.0:
        violations.append(f"runtime {elapsed:.1f}s >= 60s")

    worst = max(abs(p.mean_sq_error - p.theory) / p.theory for p in points)
    _report(1, "simulated error within 5% of closed form for T=20..200", not violations,
            f"worst deviation {worst:.2%}, {points[0].samples} samples/T, {elapsed:.1f}s")
    assert not violations, violations


def test_criterion_2_constant_ratio_sweep_reaches_asymptote():
    started = time.perf_counter()
    points = run_period_sweep(10.0, SEED, T_GRID, 8000, ratio_C=50.0)
    elapsed = time.perf_counter() - started

    limit = error_asymptote(10.0, 50.0)
    violations = []
    for p in points:
        z = (p.mean_sq_error - p.theory) / p.std_error
        if abs(z) > 3.0:
            violations.append(f"T={p.T}: |z|={abs(z):.2f} > 3")
        if p.T >= 200.0 and abs(p.theory - limit) / limit > 0.01:
            violations.append(f"T={p.T}: theory {p.theory:.1f} further than 1% from {limit:.1f}")
    if elapsed >= 60.0:
        violations.append(f"runtime {elapsed:.1f}s >= 60s")

    worst_z = max(abs((p.mean_sq_error - p.theory) / p.std_error) for p in points)
    tail_gap = abs(points[-1].theory - limit) / limit
    _report(2, "constant-ratio sweep tracks theory and its limit", not violations,
            f"worst |z| {worst_z:.2f}, gap at T=200 {tail_gap:.2%}, {elapsed:.1f}s")
    assert not violations, violations


def test_criterion_3_interpolation_dominates_dead_reckoning():
    started = time.perf_counter()
    model = ModelParams(lambda_rate=0.1, sigma=5.0, seed=SEED, span=100.0)
    replications = 20000
    bins = run_error_vs_count(model, replications, 1)
    elapsed = time.perf_counter() - started

    maint = {b.key: b for b in bins["MAINT"]}
    madrd = {b.key: b for b in bins["MADRD"]}
    shared = sorted(
        k for k in maint if k in madrd and maint[k].sample_count >= 30 and madrd[k].sample_count >= 30
    )
    violations = []
    if replications < 10000:
        violations.append("fewer than 10000 replications")
    if not shared:
        violations.append("no shared localization-count bin with 30 samples on both sides")
    for k in shared:
        if maint[k].mean_sq_error > madrd[k].mean_sq_error:
            violations.append(
                f"count={k}: MAINT sq {maint[k].mean_sq_error:.1f} > MADRD {madrd[k].mean_sq_error:.1f}"
            )
        if maint[k].mean_abs_error > madrd[k].mean_abs_error:
            violations.append(
                f"count={k}: MAINT abs {maint[k].mean_abs_error:.2f} > MADRD {madrd[k].mean_abs_error:.2f}"
            )
    if elapsed >= 300.0:
        violations.append(f"runtime {elapsed:.1f}s >= 300s")

    _report(3, "interpolation beats dead reckoning in every shared count bin", not violations,
            f"{len(shared)} shared bins {shared}, {replications} replications, {elapsed:.1f}s")
    assert not violations, violations


def test_criterion_4_moment_formulas_validated_by_monte_carlo():
    started = time.perf_counter()
    grid = (
        dict(tau=10.0, sigma=5.0, lambda_rate=0.1, t=5.0, T=10.0, n_max=6),
        dict(tau=4.0, sigma=2.0, lambda_rate=0.5, t=3.0, T=8.0, n_max=4),
    )
    checks = []
    for point in grid:
        report = validate_conditional_moments(samples=100_000, seed=SEED, **point)
        checks.extend(report.checks)
    violations = []
    if any(c.samples < 100_000 for c in checks):
        violations.append("check below 1e5 samples")
    for c in checks:
        if abs(c.z) >= 4.0:
            violations.append(f"{c.name}: |z|={abs(c.z):.2f} (mc {c.mc_mean:.4g} vs {c.theory:.4g})")

    worst_density_gap = 0.0
    tau = 10.0
    for n in range(1, 11):
        for k in range(1, n + 1):
            integral, _ = quad(
                lambda x: waypoint_time_density(x, tau, n, k), 0.0, tau,
                epsabs=1e-12, epsrel=1e-12, limit=200,
            )
            worst_density_gap = max(worst_density_gap, abs(integral - 1.0))
        integral, _ = quad(
            lambda y: interarrival_density(y, tau, n), 0.0, tau, epsabs=1e-12, epsrel=1e-12
        )
        worst_density_gap = max(worst_density_gap, abs(integral - 1.0))
    if worst_density_gap > 1e-8:
        violations.append(f"density normalization off by {worst_density_gap:.2e}")
    elapsed = time.perf_counter() - started

    worst_z = max(abs(c.z) for c in checks)
    _report(4, "moment formulas pass Monte Carlo z-tests and densities normalize", not violations,
            f"{len(checks)} checks, max |z| {worst_z:.2f}, "
            f"worst density gap {worst_density_gap:.1e}, {elapsed:.1f}s")
    assert not violations, violations


def test_criterion_5_structural_invariants(tmp_path):
    started = time.perf_counter()
    violations = []

    # 5a: endpoint zeros and exact reflection symmetry
    for T in (10.0, 100.0, 200.0):
        q0 = error_at(5.0, 0.1, T, 0.0)
        qT = error_at(5.0, 0.1, T, T)
        if q0 != 0.0 or qT != 0.0:
            violations.append(f"T={T}: endpoints {q0}, {qT} not exactly zero")
    for t in (10.0, 20.0, 30.0, 40.0):
        if error_at(5.0, 0.1, 100.0, t) != error_at(5.0, 0.1, 100.0, 100.0 - t):
            violations.append(f"symmetry broken at t={t}")

    # 5b: quadrature identity on the full parameter grid
    worst_quad = 0.0
    for sigma in (1.0, 5.0, 10.0):
        for lam in (0.05, 0.1, 0.5):
            for T in (10.0, 50.0, 100.0, 200.0):
                closed = error_avg(sigma, lam, T)
                integral, _ = quad(
                    lambda t: error_at(sigma, lam, T, t), 0.0, T,
                    epsabs=1e-13 * closed * T, epsrel=1e-11, limit=400,
                )
                worst_quad = max(worst_quad, abs(integral / T - closed) / closed)
    if worst_quad > 1e-6:
        violations.append(f"quadrature identity off by {worst_quad:.2e}")

    # 5c: zero-waypoint windows are answered exactly
    traj = manual_trajectory([(25.0, 3.0, -2.0), (40.0, -1.0, 4.0)], span=60.0)
    fix_a = localize(traj, 26.0)
    fix_b = localize(traj, 59.0)
    for t in np.linspace(26.0, 59.0, 31):
        est = interpolate(fix_a, fix_b, float(t))
        true = point(traj, float(t))
        gap = math.hypot(est[0] - true[0], est[1] - true[1])
        if gap > 1e-10:
            violations.append(f"zero-waypoint window off by {gap:.2e} at t={t}")
    checked_windows = 0
    model = ModelParams(lambda_rate=0.1, sigma=5.0, seed=SEED, span=100.0)
    for rep in range(200):
        gen = generate_trajectory(model, rep)
        for k in range(5):
            lo, hi = 20.0 * k, 20.0 * (k + 1)
            waypoints = gen.start_times[0, 1:]
            inside = (waypoints > lo) & (waypoints < hi)
            if inside.any():
                continue
            checked_windows += 1
            a, b = localize(gen, lo), localize(gen, hi)
            for t in np.linspace(lo, hi, 7):
                est = interpolate(a, b, float(t))
                true = point(gen, float(t))
                gap = math.hypot(est[0] - true[0], est[1] - true[1])
                if gap > 1e-9:
                    violations.append(f"rep {rep} window [{lo},{hi}] off by {gap:.2e}")
    if checked_windows < 50:
        violations.append(f"only {checked_windows} waypoint-free windows sampled")

    # 5d: timer-driven call counts are exact
    for span, period in ((100.0, 20.0), (100.0, 7.0), (100.0, 100.0), (50.0, 50.0)):
        tmodel = ModelParams(lambda_rate=0.1, sigma=5.0, seed=SEED, span=span)
        gen = generate_trajectory(tmodel, 0)
        horizon = math.floor(span / period) * period
        _, calls = run_maint_timer(gen, period, np.linspace(0.0, horizon, 3))
        if calls != math.floor(span / period) + 1:
            violations.append(f"span={span} T={period}: {calls} calls")

    # 5e: reruns are byte-identical (same target name so manifests compare too)
    args = ["simulate", "fig5", "--T", "20,60", "--replications", "80", "--seed", "7"]
    dir_a, dir_b = tmp_path / "first", tmp_path / "second"
    dir_a.mkdir()
    dir_b.mkdir()
    a, b = dir_a / "fig5.csv", dir_b / "fig5.csv"
    assert main([*args, "--out", str(a)]) == EXIT_OK
    assert main([*args, "--out", str(b)]) == EXIT_OK
    if a.read_bytes() != b.read_bytes():
        violations.append("rerun produced different bytes")
    if (dir_a / "fig5.csv.manifest.json").read_text() != (dir_b / "fig5.csv.manifest.json").read_text():
        violations.append("rerun produced a different manifest")

    elapsed = time.perf_counter() - started
    _report(5, "structural identities hold", not violations,
            f"quadrature gap {worst_quad:.1e}, {checked_windows} waypoint-free windows, {elapsed:.1f}s")
    assert not violations, violations
