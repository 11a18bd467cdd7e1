"""Laws of the waypoint process in closed form, for the tests only.

The Poisson law of the waypoint count, and the densities of a waypoint
time and of an inter-waypoint gap given the count: the tests integrate
them against the conditional moments of ``maintsim.analytic`` and compare
the simulated counts with the Poisson law.  No command of the CLI uses
them.
"""

import math

import numpy as np

from maintsim.errors import ParameterError


def waypoint_count_pmf(k, t: float, lambda_rate: float):
    """P(exactly k waypoints in (0, t)): Poisson with mean lambda_rate * t."""
    if not lambda_rate > 0:
        raise ParameterError(f"lambda_rate must be > 0, got {lambda_rate}")
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    ks = np.asarray(k)
    if np.any(ks < 0) or not np.issubdtype(ks.dtype, np.integer):
        raise ParameterError("k must be non-negative integers")
    mean = lambda_rate * t
    if mean == 0.0:
        out = np.where(ks == 0, 1.0, 0.0)
    else:
        log_factorial = np.reshape([math.lgamma(j + 1.0) for j in ks.ravel().tolist()], ks.shape)
        out = np.exp(ks * math.log(mean) - mean - log_factorial)
    return float(out) if np.ndim(k) == 0 else out


def _check_order_stat(tau: float, n: int, k: int) -> None:
    if not tau > 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    if not (1 <= k <= n):
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")


def waypoint_time_density(x, tau: float, n: int, k: int):
    """Density of the k-th waypoint time given n waypoints in (0, tau).

    Scaled k-th order statistic of n uniforms:
    f(x) = n!/((k-1)!(n-k)!) * x^(k-1)/tau^k * (1 - x/tau)^(n-k) on (0, tau).
    """
    _check_order_stat(tau, n, k)
    xs = np.asarray(x, dtype=float)
    z = np.clip(xs / tau, 0.0, 1.0)
    coeff = k * math.comb(n, k) / tau
    with np.errstate(invalid="ignore"):
        f = coeff * z ** (k - 1) * (1.0 - z) ** (n - k)
    out = np.where((xs > 0.0) & (xs < tau), f, 0.0)
    return float(out) if np.ndim(x) == 0 else out


def interarrival_density(y, tau: float, n: int):
    """Density of any single inter-waypoint gap given n waypoints in (0, tau):
    f(y) = (n/tau) (1 - y/tau)^(n-1) on [0, tau); the same for every gap index."""
    if not tau > 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    ys = np.asarray(y, dtype=float)
    z = np.clip(ys / tau, 0.0, 1.0)
    f = (n / tau) * (1.0 - z) ** (n - 1)
    out = np.where((ys >= 0.0) & (ys < tau), f, 0.0)
    return float(out) if np.ndim(y) == 0 else out


def waypoint_time_gap_joint_density(x, y, tau: float, n: int, k: int):
    """Joint density of (time of waypoint k-1, following gap) given n waypoints
    in (0, tau), for 2 <= k <= n; support 0 < x < tau, y > 0, x + y < tau."""
    if not tau > 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    if not (2 <= k <= n):
        raise ParameterError(f"need 2 <= k <= n, got k={k}, n={n}")
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    coeff = math.factorial(n) / (math.factorial(k - 2) * math.factorial(n - k)) / tau**n
    rest = np.clip(tau - xs - ys, 0.0, None)
    with np.errstate(invalid="ignore"):
        f = coeff * np.clip(xs, 0.0, None) ** (k - 2) * rest ** (n - k)
    out = np.where((xs > 0.0) & (ys > 0.0) & (xs + ys < tau), f, 0.0)
    return float(out) if np.ndim(x) == 0 and np.ndim(y) == 0 else out
