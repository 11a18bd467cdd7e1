"""Closed-form moments and expected-error curves for the mobility model.

Everything here is a pure function of its arguments.  The interpolation
error formulas are evaluated in a numerically stable form: the recurring
bracket ``exp(-x) - 1 + x`` and the averaged-error bracket both cancel
catastrophically for small ``x`` if evaluated term by term, so they switch
to series below a threshold (period sweeps reach lambda*T ~ 40 on one end
and lambda*T << 1 on the other).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnsupportedMomentError


@dataclass(frozen=True)
class ConditionalMomentQuery:
    """Moment of the k-th waypoint time, conditioned on n waypoints in (0, tau)."""

    tau: float
    n: int
    k: int
    order: int

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ParameterError(f"tau must be > 0, got {self.tau}")
        if not (1 <= self.k <= self.n):
            raise ParameterError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class ErrorQuery:
    """Parameters of an expected-error evaluation; ``t`` is present for the
    pointwise error and absent for the window-averaged error."""

    sigma: float
    lambda_rate: float
    T: float
    t: float | None = None

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")
        if not self.lambda_rate > 0:
            raise ParameterError(f"lambda_rate must be > 0, got {self.lambda_rate}")
        if not self.T > 0:
            raise ParameterError(f"T must be > 0, got {self.T}")
        if self.t is not None and not (0.0 <= self.t <= self.T):
            raise ParameterError(f"t must lie in [0, {self.T}], got {self.t}")


# ---------------------------------------------------------------------------
# stable scalar kernels


def _exp_gap(x: float) -> float:
    """exp(-x) - 1 + x for x >= 0, accurate down to x = 0."""
    if x < 1e-2:
        # Maclaurin tail; next term is x^7/5040, relatively ~4e-14 at x=0.01
        return x * x * (0.5 + x * (-1.0 / 6 + x * (1.0 / 24 + x * (-1.0 / 120 + x / 720))))
    return math.expm1(-x) + x


def _one_minus_exp(x: float) -> float:
    """1 - exp(-x)."""
    return -math.expm1(-x)


def _avg_bracket(x: float) -> float:
    """x - 5 + 12/x - 12/x^2 + (12/x^2) e^-x - e^-x, stable for small x.

    Below x = 1 the direct form loses all significance (the result scales as
    x^3/15 while individual terms scale as 1/x^2), so use the power series
    sum_{k>=3} (-1)^k x^k (12 - (k+1)(k+2)) / (k+2)!.
    """
    if x < 1.0:
        total = 0.0
        x_pow = x * x * x
        fact = 120.0  # (3+2)!
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


# ---------------------------------------------------------------------------
# waypoint-count and conditional waypoint-time distributions


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
        # imported here: scipy costs every CLI start about 0.3 s, and only
        # this function needs it
        from scipy.special import gammaln

        out = np.exp(ks * math.log(mean) - mean - gammaln(ks + 1))
    return float(out) if np.ndim(k) == 0 else out


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


def _check_order_stat(tau: float, n: int, k: int) -> None:
    if not tau > 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    if not (1 <= k <= n):
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")


# ---------------------------------------------------------------------------
# conditional moments


def cond_waypoint_time_moment(q: ConditionalMomentQuery) -> float:
    """E[T_k | n waypoints in (0, tau)] for order 1,
    E[T_k^2 | ...] for order 2: k*tau/(n+1) and k(k+1)tau^2/((n+1)(n+2))."""
    if q.order == 1:
        return q.k * q.tau / (q.n + 1)
    if q.order == 2:
        return q.k * (q.k + 1) * q.tau**2 / ((q.n + 1) * (q.n + 2))
    raise UnsupportedMomentError(f"order must be 1 or 2, got {q.order}")


def cond_interarrival_moment(tau: float, n: int, order: int) -> float:
    """Moments of a single gap given n waypoints in (0, tau): tau/(n+1) and
    2*tau^2/((n+1)(n+2)); independent of which gap is asked about."""
    if not tau > 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if order == 1:
        return tau / (n + 1)
    if order == 2:
        return 2.0 * tau**2 / ((n + 1) * (n + 2))
    raise UnsupportedMomentError(f"order must be 1 or 2, got {order}")


def cond_position_second_moment(tau: float, n: int, k: int, sigma: float) -> float:
    """E[X_k^2 | n waypoints in (0, tau)] = 2k sigma^2 tau^2 / ((n+1)(n+2));
    the first conditional moment is 0 by velocity symmetry."""
    _check_order_stat(tau, n, k)
    if not sigma > 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    return 2.0 * k * sigma**2 * tau**2 / ((n + 1) * (n + 2))


def position_second_moment_given_count(t: float, i: int, sigma: float) -> float:
    """E[X(t)^2 | exactly i waypoints in (0, t)] = 2 sigma^2 t^2 / (i+2)."""
    if not t > 0:
        raise ParameterError(f"t must be > 0, got {t}")
    if i < 0 or int(i) != i:
        raise ParameterError(f"i must be a non-negative integer, got {i}")
    if not sigma > 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    return 2.0 * sigma**2 * t**2 / (i + 2)


def position_second_moment(t: float, lambda_rate: float, sigma: float) -> float:
    """Unconditional E[X(t)^2] = (2 sigma^2 / lambda^2) (lambda t - 1 + e^-lambda t)."""
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if not lambda_rate > 0 or not sigma > 0:
        raise ParameterError("lambda_rate and sigma must be > 0")
    return 2.0 * sigma**2 / lambda_rate**2 * _exp_gap(lambda_rate * t)


def displacement_cross_moment(t: float, T: float, lambda_rate: float, sigma: float) -> float:
    """E[X(t) * (X(T) - X(t))] for a window [0, T] localized at both ends:
    (sigma^2/lambda^2) (1 - e^-lambda t)(1 - e^-lambda (T-t)).

    Non-negative, symmetric under t <-> T-t, bounded by sigma^2/lambda^2.
    """
    if not T > 0:
        raise ParameterError(f"T must be > 0, got {T}")
    if not (0.0 <= t <= T):
        raise ParameterError(f"t must lie in [0, {T}], got {t}")
    if not lambda_rate > 0 or not sigma > 0:
        raise ParameterError("lambda_rate and sigma must be > 0")
    a = lambda_rate * t
    b = lambda_rate * (T - t)
    return sigma**2 / lambda_rate**2 * _one_minus_exp(a) * _one_minus_exp(b)


# ---------------------------------------------------------------------------
# interpolation error


def error_at(q: ErrorQuery) -> float:
    """Expected squared interpolation error at time t inside a window [0, T]
    with exact fixes at both ends.

    Zero at both endpoints and symmetric about T/2; the two arguments are
    canonicalized so t and T-t produce bit-identical results.
    """
    if q.t is None:
        raise ParameterError("error_at needs an ErrorQuery with t set")
    u = min(q.t, q.T - q.t)
    w = max(q.t, q.T - q.t)
    lam = q.lambda_rate
    a = lam * u
    b = lam * w
    bracket = u * u * _exp_gap(b) + w * w * _exp_gap(a) - u * w * _one_minus_exp(a) * _one_minus_exp(b)
    return 4.0 * q.sigma**2 / (lam * lam * q.T * q.T) * bracket


def error_avg(q: ErrorQuery) -> float:
    """Window-averaged expected squared interpolation error,
    (1/T) integral of the pointwise error over [0, T], in closed form:

    (2 sigma^2 / 3 lambda^2) [lambda T - 5 + 12/(lambda T) - 12/(lambda T)^2
                              + 12 e^-lambda T/(lambda T)^2 - e^-lambda T]
    """
    if q.t is not None:
        raise ParameterError("error_avg takes an ErrorQuery without t")
    lam = q.lambda_rate
    return 2.0 * q.sigma**2 / (3.0 * lam * lam) * _avg_bracket(lam * q.T)


def error_asymptote(sigma: float, C: float) -> float:
    """Limit of the averaged error when T grows with T/lambda held at C:
    2 sigma^2 C / 3."""
    if not C > 0:
        raise ParameterError(f"C must be > 0, got {C}")
    if sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    return 2.0 * sigma**2 * C / 3.0
