"""Closed-form moments and expected-error curves for the mobility model.

Everything here is a pure function of its arguments, and every function
takes and returns Python floats, using the ``math`` module only.  The
interpolation error kernels ``error_at`` and ``error_avg`` are the bit
contract of the ``theory`` outputs: each point is evaluated by the same
operations in the same order whatever grid it belongs to, so a grid's
bytes do not depend on how it is split up.  The recurring bracket
``exp(-x) - 1 + x`` and the averaged-error bracket both cancel
catastrophically for small ``x`` if evaluated term by term, so they switch
to series below a threshold (period sweeps reach lambda*T ~ 800 on one end
and lambda*T << 1 on the other).  That makes each bracket accurate on its
own, but not the combination ``error_at`` forms from them: its three terms
cancel when lambda*T << 1.  Against a 130-digit reference over 199 points
of a window, the relative error reaches 1.1e-10 at lambda*T = 1e-5 and
1.1e-6 at lambda*T = 1e-9 (medians 3e-11 and 3e-7); ``error_avg`` stays
within 3e-15 from lambda*T = 1e-9 to 800.

Every function returns a finite float or raises ``ParameterError``: an
argument out of its domain, and a result that overflows or underflows
where it must not, are reported instead of being written out.
"""

from __future__ import annotations

import math
import sys

from .errors import ParameterError, UnsupportedMomentError


# ---------------------------------------------------------------------------
# brackets

# smallest normal float.  Where an error kernel's factor, 4 sigma^2 /
# (lambda T)^2 or 2 sigma^2 / (3 lambda^2), falls below it (lambda^2
# overflows above lambda ~ 1e154), the kernel divides its bracket, which
# grows as lambda * T, by lambda * T or by lambda twice instead: those
# quotients stay in range wherever the result does
_TINY = sys.float_info.min


def _exp_terms(x: float) -> tuple[float, float]:
    """1 - exp(-x) and exp(-x) - 1 + x for x >= 0, the second accurate
    down to x = 0."""
    rise = -math.expm1(-x)
    if x < 1e-2:
        # Maclaurin tail; next term is x^7/5040, relatively ~4e-14 at x=0.01
        return rise, x * x * (0.5 + x * (-1.0 / 6 + x * (1.0 / 24 + x * (-1.0 / 120 + x / 720))))
    return rise, x - rise


def _avg_bracket(x: float) -> float:
    """x - 5 + 12/x - 12/x^2 + (12/x^2) e^-x - e^-x, stable for small x.

    Below x = 1 the direct form loses all significance (the result scales as
    x^3/15 while individual terms scale as 1/x^2), so use the power series
    sum_{k>=3} (-1)^k x^k (12 - (k+1)(k+2)) / (k+2)!, which stops adding
    terms once the last one is below 1e-18 of the sum.
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
# conditional moments


def _check_order_stat(tau: float, n: int, k: int) -> None:
    if not tau > 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    if not (1 <= k <= n):
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")


def cond_waypoint_time_moment(tau: float, n: int, k: int, order: int) -> float:
    """E[T_k | n waypoints in (0, tau)] for order 1,
    E[T_k^2 | ...] for order 2: k*tau/(n+1) and k(k+1)tau^2/((n+1)(n+2))."""
    _check_order_stat(tau, n, k)
    if order == 1:
        return k * tau / (n + 1)
    if order == 2:
        return k * (k + 1) * tau**2 / ((n + 1) * (n + 2))
    raise UnsupportedMomentError(f"order must be 1 or 2, got {order}")


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
    return 2.0 * k * _square("sigma", sigma) * tau**2 / ((n + 1) * (n + 2))


def position_second_moment_given_count(t: float, i: int, sigma: float) -> float:
    """E[X(t)^2 | exactly i waypoints in (0, t)] = 2 sigma^2 t^2 / (i+2)."""
    if not t > 0:
        raise ParameterError(f"t must be > 0, got {t}")
    if i < 0 or int(i) != i:
        raise ParameterError(f"i must be a non-negative integer, got {i}")
    if not sigma > 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    return 2.0 * _square("sigma", sigma) * t**2 / (i + 2)


def position_second_moment(t: float, lambda_rate: float, sigma: float) -> float:
    """Unconditional E[X(t)^2] = (2 sigma^2 / lambda^2) (lambda t - 1 + e^-lambda t)."""
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        raise ParameterError(f"t must be finite and >= 0, got {t}")
    lam = _positive("lambda_rate", lambda_rate)
    s2 = _square("sigma", sigma)
    factor = 2.0 * s2 / _lambda_squared(lam)
    gap = _exp_terms(lam * t)[1]
    if factor < _TINY:  # the gap grows as lambda * t: divide it by lambda twice instead
        return _finite(2.0 * s2 * (gap / lam / lam), "position_second_moment")
    return _finite(factor * gap, "position_second_moment")


def displacement_cross_moment(t: float, T: float, lambda_rate: float, sigma: float) -> float:
    """E[X(t) * (X(T) - X(t))] for a window [0, T] localized at both ends:
    (sigma^2/lambda^2) (1 - e^-lambda t)(1 - e^-lambda (T-t)).

    Non-negative, symmetric under t <-> T-t, bounded by sigma^2/lambda^2.
    """
    T = _positive("T", T)
    t = float(t)
    if not 0.0 <= t <= T:
        raise ParameterError(f"t must lie in [0, {T}], got {t}")
    lam = _positive("lambda_rate", lambda_rate)
    s2 = _square("sigma", sigma)
    factor = s2 / _lambda_squared(lam)
    a = _exp_terms(lam * t)[0]
    b = _exp_terms(lam * (T - t))[0]
    if factor < _TINY:  # a and b are at most 1: divide sigma^2 by lambda twice instead
        return _finite(s2 / lam / lam * a * b, "displacement_cross_moment")
    return _finite(factor * a * b, "displacement_cross_moment")


# ---------------------------------------------------------------------------
# interpolation error


def _positive(name: str, value: float) -> float:
    """``value`` as a float, finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be finite and > 0, got {value}")
    return value


def _square(name: str, value: float, allow_zero: bool = False) -> float:
    """``value**2`` for a finite ``value`` > 0 (>= 0 with ``allow_zero``)."""
    value = float(value)
    if not (math.isfinite(value) and (value > 0 or allow_zero and value == 0)):
        raise ParameterError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0, got {value}")
    try:
        return value**2
    except OverflowError:
        raise ParameterError(f"{name}**2 overflows, got {name} = {value}") from None


def _lambda_squared(lambda_rate: float) -> float:
    """``lambda_rate**2`` for a ``lambda_rate`` > 0, inf where it overflows;
    a parameter error where it underflows to 0, as in the error kernels."""
    try:
        scale = lambda_rate**2
    except OverflowError:
        return math.inf
    if scale == 0.0:
        raise ParameterError("lambda_rate**2 underflows to 0")
    return scale


def _finite(value: float, what: str) -> float:
    """``value``, reported as a parameter error where it is not finite
    instead of being written out."""
    if not math.isfinite(value):
        raise ParameterError(f"{what} is not finite for these parameters")
    return value


def error_at_curve(sigma: float, lambda_rate: float, T: float):
    """The expected squared interpolation error inside a window [0, T] with
    exact fixes at both ends, as a function of the time t; ``sigma``,
    ``lambda_rate`` and ``T`` are checked once, here.

    Zero at both endpoints and symmetric about T/2; the two arguments are
    canonicalized so t and T-t produce bit-identical results.
    """
    s2 = _square("sigma", sigma)
    lam = _positive("lambda_rate", lambda_rate)
    T = _positive("T", T)
    scale = lam * lam * T * T
    if scale == 0.0:
        raise ParameterError("lambda_rate**2 * T**2 underflows to 0")
    factor = 4.0 * s2 / scale
    lam_T = lam * T

    def error_t(t: float) -> float:
        t = float(t)
        if not 0.0 <= t <= T:
            raise ParameterError(f"t must lie in [0, {T}], got {t}")
        rest = T - t
        # min() and max() would cost a quarter of the kernel
        u, w = (t, rest) if t < rest else (rest, t)
        rise_u, gap_u = _exp_terms(lam * u)
        rise_w, gap_w = _exp_terms(lam * w)
        # the bracket is non-negative, but cancels to a few ulps of its
        # terms just above t = 0, where rounding can leave it below 0; a
        # nan passes on to the finiteness check
        bracket = u * u * gap_w + w * w * gap_u - u * w * rise_u * rise_w
        if bracket <= 0.0:
            bracket = 0.0
        value = 4.0 * s2 * (bracket / lam_T / lam_T) if factor < _TINY else factor * bracket
        if not math.isfinite(value):
            raise ParameterError("error_at is not finite for these parameters")
        return value

    return error_t


def error_at(sigma: float, lambda_rate: float, T: float, t: float) -> float:
    """``error_at_curve(sigma, lambda_rate, T)`` at the time ``t``."""
    return error_at_curve(sigma, lambda_rate, T)(t)


def error_avg(sigma: float, lambda_rate: float, T: float) -> float:
    """Window-averaged expected squared interpolation error,
    (1/T) integral of the pointwise error over [0, T], in closed form:

    (2 sigma^2 / 3 lambda^2) [lambda T - 5 + 12/(lambda T) - 12/(lambda T)^2
                              + 12 e^-lambda T/(lambda T)^2 - e^-lambda T]
    """
    s2 = _square("sigma", sigma)
    lam = _positive("lambda_rate", lambda_rate)
    T = _positive("T", T)
    scale = 3.0 * lam * lam
    if scale == 0.0:
        raise ParameterError("lambda_rate**2 underflows to 0")
    bracket = _avg_bracket(lam * T)
    factor = 2.0 * s2 / scale
    if factor < _TINY:
        return _finite(2.0 * s2 / 3.0 * (bracket / lam / lam), "error_avg")
    return _finite(factor * bracket, "error_avg")


def error_asymptote(sigma: float, C: float) -> float:
    """Limit of the averaged error when T grows with T/lambda held at C:
    2 sigma^2 C / 3."""
    if not (math.isfinite(C) and C > 0):
        raise ParameterError(f"C must be finite and > 0, got {C}")
    limit = 2.0 * _square("sigma", sigma, allow_zero=True) * C / 3.0
    if not math.isfinite(limit):
        raise ParameterError("error_asymptote is not finite for these parameters")
    return limit
