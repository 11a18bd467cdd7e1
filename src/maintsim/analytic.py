"""Closed-form moments and expected-error curves for the mobility model.

Everything here is a pure function of its arguments.  The interpolation
error kernels ``error_at`` and ``error_avg`` take scalars or arrays (a
scalar call gives a float) and evaluate element by element exactly as a
scalar evaluation would, bit for bit, a fixed-size chunk of a grid at a
time, so their memory beyond the result does not grow with the grid.  The recurring bracket
``exp(-x) - 1 + x`` and the averaged-error bracket both cancel
catastrophically for small ``x`` if evaluated term by term, so they switch
to series below a threshold (period sweeps reach lambda*T ~ 800 on one end
and lambda*T << 1 on the other).  That makes each bracket accurate on its
own, but not the combination ``error_at`` forms from them: its three terms
cancel when lambda*T << 1.  Against a 130-digit reference over 199 points
of a window, the relative error reaches 1.1e-10 at lambda*T = 1e-5 and
1.1e-6 at lambda*T = 1e-9 (medians 3e-11 and 3e-7); ``error_avg`` stays
within 3e-15 from lambda*T = 1e-9 to 800.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, UnsupportedMomentError


# ---------------------------------------------------------------------------
# elementwise kernels


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) applied to every element of ``x``.

    numpy's SIMD ``expm1``/``exp`` differ from libm in the last ulp for a few
    percent of inputs, and the brackets below amplify that by their
    cancellation, so the kernels call libm element by element: the same bits
    as a scalar evaluation, at about 0.1 us per element.
    """
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


# the error kernels run over this many grid points at a time, so their
# temporaries, and the Python floats of ``_libm``, stay a fixed size
_CHUNK = 4096

# smallest normal float64.  Where an error kernel's factor, 4 sigma^2 /
# (lambda T)^2 or 2 sigma^2 / (3 lambda^2), falls below it (lambda^2
# overflows above lambda ~ 1e154), the kernel divides its bracket, which
# grows as lambda * T, by lambda * T or by lambda twice instead: those
# quotients stay in range wherever the result does
_TINY = np.finfo(float).tiny


def _by_chunks(kernel, *arrays) -> np.ndarray:
    """``kernel`` applied to the broadcast ``arrays``, ``_CHUNK`` elements at
    a time, as one array of the broadcast shape (0-d for scalars).  Only for
    elementwise kernels, whose results cannot depend on the chunking."""
    it = np.nditer(
        [*arrays, None],
        flags=["external_loop", "buffered", "zerosize_ok"],
        op_flags=[["readonly"]] * len(arrays) + [["writeonly", "allocate"]],
        buffersize=_CHUNK,
    )
    with it:
        for *chunks, out in it:
            out[...] = kernel(*chunks)
        return it.operands[-1]


def _exp_terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1 - exp(-x) and exp(-x) - 1 + x for x >= 0, the second accurate
    down to x = 0."""
    x = np.asarray(x)
    rise = -_libm(math.expm1, -x)
    gap = np.subtract(x, rise, out=np.empty_like(x))
    small = x < 1e-2
    xs = x[small]
    # Maclaurin tail; next term is x^7/5040, relatively ~4e-14 at x=0.01
    gap[small] = xs * xs * (0.5 + xs * (-1.0 / 6 + xs * (1.0 / 24 + xs * (-1.0 / 120 + xs / 720))))
    return rise, gap


def _avg_bracket(x: np.ndarray) -> np.ndarray:
    """x - 5 + 12/x - 12/x^2 + (12/x^2) e^-x - e^-x, stable for small x.

    Below x = 1 the direct form loses all significance (the result scales as
    x^3/15 while individual terms scale as 1/x^2), so use the power series
    sum_{k>=3} (-1)^k x^k (12 - (k+1)(k+2)) / (k+2)!.  Each element stops
    adding terms at its own cutoff, so it sums the same terms in the same
    order whatever the other elements are.
    """
    x = np.asarray(x)
    out = np.empty_like(x)
    small = x < 1.0
    xs = x[small]
    total = np.zeros_like(xs)
    active = np.ones(xs.shape, dtype=bool)
    x_pow = xs * xs * xs
    fact = 120.0  # (3+2)!
    sign = -1.0
    for k in range(3, 40):
        term = sign * x_pow * (12.0 - (k + 1) * (k + 2)) / fact
        np.add(total, term, out=total, where=active)
        active &= ~(np.abs(term) <= 1e-18 * np.abs(total))
        if not active.any():
            break
        x_pow *= xs
        fact *= k + 3
        sign = -sign
    out[small] = total
    xl = x[~small]
    out[~small] = xl - 5.0 + 12.0 / xl + (12.0 / (xl * xl)) * _libm(math.expm1, -xl) - _libm(math.exp, -xl)
    return out


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
        out = np.exp(ks * math.log(mean) - mean - _libm(math.lgamma, ks + 1.0))
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
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if not lambda_rate > 0 or not sigma > 0:
        raise ParameterError("lambda_rate and sigma must be > 0")
    s2 = _square("sigma", sigma)
    factor = 2.0 * s2 / _lambda_squared(lambda_rate)
    gap = float(_exp_terms(lambda_rate * t)[1])
    if factor < _TINY:  # the gap grows as lambda * t: divide it by lambda twice instead
        return 2.0 * s2 * (gap / lambda_rate / lambda_rate)
    return factor * gap


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
    s2 = _square("sigma", sigma)
    factor = s2 / _lambda_squared(lambda_rate)
    a, b = _exp_terms(np.array([lambda_rate * t, lambda_rate * (T - t)]))[0].tolist()
    if factor < _TINY:  # a and b are at most 1: divide sigma^2 by lambda twice instead
        return s2 / lambda_rate / lambda_rate * a * b
    return factor * a * b


# ---------------------------------------------------------------------------
# interpolation error


def _positive(name: str, value) -> np.ndarray:
    """``value`` as a float array, every element finite and > 0."""
    arr = np.asarray(value, dtype=float)
    bad = ~(np.isfinite(arr) & (arr > 0))
    if bad.any():
        raise ParameterError(f"{name} must be finite and > 0, got {arr[bad].flat[0]}")
    return arr


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


def _finite(value: np.ndarray, what: str):
    """A float for a 0-d result, the array otherwise; non-finite values are
    reported as a parameter error instead of being written out."""
    if not np.all(np.isfinite(value)):
        raise ParameterError(f"{what} is not finite for these parameters")
    return float(value) if value.ndim == 0 else value


def error_at(sigma: float, lambda_rate, T, t):
    """Expected squared interpolation error at time t inside a window [0, T]
    with exact fixes at both ends.

    ``lambda_rate``, ``T`` and ``t`` broadcast against each other: scalars
    give a float, arrays give an array.  Zero at both endpoints and
    symmetric about T/2; the two arguments are canonicalized so t and T-t
    produce bit-identical results.
    """
    s2 = _square("sigma", sigma)
    lam = _positive("lambda_rate", lambda_rate)
    T = _positive("T", T)
    t = np.asarray(t, dtype=float)
    outside = ~((t >= 0.0) & (t <= T))
    if outside.any():
        t_bad, T_bad = (np.broadcast_to(v, outside.shape)[outside].flat[0] for v in (t, T))
        raise ParameterError(f"t must lie in [0, {T_bad}], got {t_bad}")

    def kernel(lam, T, t):
        scale = lam * lam * T * T
        if np.any(scale == 0.0):
            raise ParameterError("lambda_rate**2 * T**2 underflows to 0")
        u = np.minimum(t, T - t)
        w = np.maximum(t, T - t)
        rise_u, gap_u = _exp_terms(lam * u)
        rise_w, gap_w = _exp_terms(lam * w)
        # the bracket is non-negative, but cancels to a few ulps of its
        # terms just above t = 0, where rounding can leave it below 0
        bracket = np.maximum(u * u * gap_w + w * w * gap_u - u * w * rise_u * rise_w, 0.0)
        factor = 4.0 * s2 / scale
        out = factor * bracket
        low = factor < _TINY
        if low.any():
            lam_T = (lam * T)[low]
            out[low] = 4.0 * s2 * (bracket[low] / lam_T / lam_T)
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_by_chunks(kernel, lam, T, t), "error_at")


def error_avg(sigma: float, lambda_rate, T):
    """Window-averaged expected squared interpolation error,
    (1/T) integral of the pointwise error over [0, T], in closed form:

    (2 sigma^2 / 3 lambda^2) [lambda T - 5 + 12/(lambda T) - 12/(lambda T)^2
                              + 12 e^-lambda T/(lambda T)^2 - e^-lambda T]

    ``lambda_rate`` and ``T`` broadcast: scalars give a float, arrays an array.
    """
    s2 = _square("sigma", sigma)
    lam = _positive("lambda_rate", lambda_rate)
    T = _positive("T", T)

    def kernel(lam, T):
        scale = 3.0 * lam * lam
        if np.any(scale == 0.0):
            raise ParameterError("lambda_rate**2 underflows to 0")
        bracket = _avg_bracket(lam * T)
        factor = 2.0 * s2 / scale
        out = factor * bracket
        low = factor < _TINY
        if low.any():
            lam_low = lam[low]
            out[low] = 2.0 * s2 / 3.0 * (bracket[low] / lam_low / lam_low)
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_by_chunks(kernel, lam, T), "error_avg")


def error_asymptote(sigma: float, C: float) -> float:
    """Limit of the averaged error when T grows with T/lambda held at C:
    2 sigma^2 C / 3."""
    if not (math.isfinite(C) and C > 0):
        raise ParameterError(f"C must be finite and > 0, got {C}")
    limit = 2.0 * _square("sigma", sigma, allow_zero=True) * C / 3.0
    if not math.isfinite(limit):
        raise ParameterError("error_asymptote is not finite for these parameters")
    return limit
