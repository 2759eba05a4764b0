"""Special functions: Euler gamma and the two-parameter Mittag-Leffler function.

E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha*k + beta) is evaluated by
direct Taylor summation.  For strongly alternating arguments the double
precision sum loses digits to cancellation (the partial sums pass through
terms much larger than the result), so the summation automatically re-runs
at elevated working precision whenever the estimated cancellation error
would exceed the accuracy target.  Arguments whose series needs more than
the term budget, or whose positive sum overflows, are rejected with a typed
error rather than silently degraded.
"""

from __future__ import annotations

import math
import threading

import mpmath

from .errors import GammaPoleError, MittagLefflerError

__all__ = ["gamma", "mittag_leffler"]

# Absolute accuracy the series targets; well inside the documented 1e-10.
_ACCURACY_GOAL = 1e-12
_EPS = 2.220446049250313e-16
# stop after two consecutive terms below _TERM_TOLERANCE; reject beyond _MAX_TERMS
_TERM_TOLERANCE = 1e-15
_MAX_TERMS = 10000


def gamma(x: float) -> float:
    """Euler gamma function on the real line.

    Delegates to the C library implementation, which is accurate to a few
    ulp across [-170, 170]; poles raise :class:`GammaPoleError` instead of
    the bare ``ValueError`` the stdlib produces.
    """
    if x <= 0 and float(x).is_integer():
        raise GammaPoleError(x)
    return math.gamma(x)


def _recip_gamma(x: float) -> float:
    """1/Gamma(x), with the poles of Gamma mapped to exact zeros."""
    if x <= 0 and float(x).is_integer():
        return 0.0
    return 1.0 / math.gamma(x)


# Gamma(alpha*k + beta) tables for the elevated-precision path, keyed by
# (alpha, beta, precision).  Rebinding a longer tuple is atomic under the
# GIL, so concurrent readers always see a consistent table.
_MP_GAMMA_TABLES: dict[tuple[float, float, int], tuple] = {}
_MP_LOCK = threading.Lock()


def _mp_gamma_table(alpha: float, beta: float, dps: int, n: int) -> tuple:
    key = (alpha, beta, dps)
    table = _MP_GAMMA_TABLES.get(key, ())
    if len(table) >= n:
        return table
    with _MP_LOCK:
        table = _MP_GAMMA_TABLES.get(key, ())
        if len(table) < n:
            with mpmath.workdps(dps):
                a = mpmath.mpf(alpha)
                b = mpmath.mpf(beta)
                new = list(table)
                for k in range(len(table), n):
                    new.append(mpmath.gamma(a * k + b))
                table = tuple(new)
            _MP_GAMMA_TABLES[key] = table
    return table


def _scan_terms(alpha: float, beta: float, z: float):
    """Locate the series' peak term and stopping index in log space.

    Works entirely with lgamma, so it never overflows.  Returns
    (n_terms, max_log_term) or raises if the term budget is hit first.
    """
    log_abs_z = math.log(abs(z))
    max_log = 0.0  # k = 0 term is 1/Gamma(beta); close enough for scaling
    log_tol = math.log(_TERM_TOLERANCE)
    small_run = 0
    for k in range(_MAX_TERMS):
        log_term = k * log_abs_z - math.lgamma(alpha * k + beta)
        if log_term > max_log:
            max_log = log_term
        if log_term < log_tol:
            small_run += 1
            if small_run >= 2:
                return k + 1, max_log
        else:
            small_run = 0
    raise MittagLefflerError(
        f"series for E_({alpha:g},{beta:g})({z:g}) needs more than "
        f"{_MAX_TERMS} terms",
        achieved_tolerance=math.exp(min(log_term, 700.0)),
    )


def _sum_float(alpha: float, beta: float, z: float, n_terms: int) -> float:
    # Kahan-compensated summation; terms built in log space to avoid
    # overflow in z**k and Gamma separately.
    log_abs_z = math.log(abs(z))
    negative = z < 0
    total = 1.0 / math.gamma(beta)
    comp = 0.0
    for k in range(1, n_terms):
        term = math.exp(k * log_abs_z - math.lgamma(alpha * k + beta))
        if negative and (k & 1):
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _sum_mpmath(alpha: float, beta: float, z: float, n_terms: int, max_log_term: float) -> float:
    # Working precision sized so the cancellation headroom plus the target
    # accuracy both fit.
    dps = max(30, int(max_log_term / math.log(10.0)) + 25)
    table = _mp_gamma_table(alpha, beta, dps, n_terms)
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        total = mpmath.mpf(0)
        zk = mpmath.mpf(1)
        for k in range(n_terms):
            total += zk / table[k]
            zk *= zz
        return float(total)


def mittag_leffler(
    alpha: float,
    beta: float,
    z: float,
) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    Raises :class:`MittagLefflerError` when the series does not reach the
    term tolerance within the term budget (large |z|, small alpha) or, for
    z > 0, when the value overflows double precision.
    """
    alpha = float(alpha)
    beta = float(beta)
    z = float(z)
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha:g}")
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta:g}")
    if z == 0.0:
        return 1.0 / math.gamma(beta)

    n_terms, max_log_term = _scan_terms(alpha, beta, z)
    if z > 0:
        # positive series never cancels, but the value itself can overflow
        if max_log_term > 700.0:
            raise MittagLefflerError(
                f"E_({alpha:g},{beta:g})({z:g}) overflows double precision",
                achieved_tolerance=math.inf,
            )
        return _sum_float(alpha, beta, z, n_terms)
    if max_log_term + math.log(max(n_terms, 2)) < math.log(_ACCURACY_GOAL / _EPS):
        # peak * eps * terms stays under the accuracy goal: plain summation
        return _sum_float(alpha, beta, z, n_terms)
    return _sum_mpmath(alpha, beta, z, n_terms, max_log_term)
