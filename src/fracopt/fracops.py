"""Fractional derivative operators of a function of the optimization variable.

Provides the Grunwald-Letnikov backward-difference sum, exact closed-form
Caputo and Riemann-Liouville derivatives for polynomials (term-wise power
rule after re-expanding about the lower limit), the Caputo derivative as a
Taylor series in the integer derivatives of f, and fixed-memory windows.
Fixed-limit, shifted-limit, and fixed-memory variants are a single
parameterization: the effective lower limit at evaluation point u is
max(a, u - L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import OperatorDomainError
from .specfun import _recip_gamma

__all__ = [
    "Polynomial",
    "MemoryWindow",
    "gl_derivative",
    "gl_weights",
    "caputo_poly_derivative",
    "rl_poly_derivative",
    "caputo_taylor_series",
]


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with coefficients ordered highest degree first."""

    coefficients: tuple[float, ...]

    def __init__(self, coefficients: Sequence[float]):
        coeffs = [float(c) for c in coefficients]
        # normalize: strip exact leading zeros, keep at least the constant
        while len(coeffs) > 1 and coeffs[0] == 0.0:
            coeffs.pop(0)
        if not coeffs:
            coeffs = [0.0]
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, u):
        return np.polyval(self.coefficients, u)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(np.polyder(np.asarray(self.coefficients)))

    def shifted(self, a: float) -> tuple[float, ...]:
        """Coefficients b_j of p(u) = sum_j b_j (u - a)^j, ascending order.

        Computed by repeated synthetic division, which is exact for the
        small degrees used here.
        """
        work = list(self.coefficients)
        out: list[float] = []
        for _ in range(len(work)):
            rem = 0.0
            for i, c in enumerate(work):
                rem = rem * a + c
                work[i] = rem
            out.append(work.pop())
        return tuple(out)


@dataclass(frozen=True)
class MemoryWindow:
    """Lower integration limit and memory length for the operators.

    ``memory_length = inf`` encodes a fixed lower limit; otherwise the
    effective limit at evaluation point u is max(lower_limit, u - L).
    """

    lower_limit: float = 0.0
    memory_length: float = math.inf

    def __post_init__(self) -> None:
        if not math.isfinite(self.lower_limit):
            raise ValueError("lower_limit must be finite")
        if not self.memory_length > 0:
            raise ValueError("memory_length must be > 0 (inf for a fixed lower limit)")

    def effective_lower_limit(self, u: float) -> float:
        return max(self.lower_limit, u - self.memory_length)


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """Grunwald-Letnikov weights w_k = (-1)^k C(alpha, k), k = 0..n.

    Multiplicative recurrence, so no gamma overflow for large k.
    """
    w = np.empty(n + 1)
    w[0] = 1.0
    if n:
        k = np.arange(1, n + 1)
        w[1:] = np.cumprod((k - 1.0 - alpha) / k)
    return w


def gl_derivative(
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    u: float,
    window: MemoryWindow,
    step: float,
) -> float:
    """Grunwald-Letnikov derivative of order alpha >= 0 at u.

    Approximates the operator by its defining sum on the mesh h = ``step``:
    h^-alpha * sum_k w_k f(u - k h) with N = ceil((u - a_eff)/h) lags.
    ``f`` must accept numpy arrays elementwise.  First order accurate in h.
    """
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if not (0 < step < math.inf and step <= window.memory_length):
        raise ValueError("step must be finite, > 0 and at most a finite memory_length")
    a_eff = window.effective_lower_limit(u)
    if u <= a_eff:
        raise OperatorDomainError(
            f"u = {u:g} must exceed the effective lower limit {a_eff:g}"
        )
    n = math.ceil((u - a_eff) / step - 1e-12)
    w = gl_weights(alpha, n)
    points = u - step * np.arange(n + 1)
    samples = np.asarray(f(points), dtype=float)
    if samples.shape != points.shape:
        raise ValueError("f must map a sample vector to a same-shape vector")
    if not np.all(np.isfinite(samples)):
        bad = points[~np.isfinite(samples)][0]
        raise OperatorDomainError(f"f evaluated nonfinite at u = {bad:g}")
    return float(np.dot(w, samples) / step**alpha)


def _validate_limits(u: float, a: float) -> None:
    if a < 0:
        raise OperatorDomainError(f"lower limit a = {a:g} must be >= 0")
    if u <= a:
        raise OperatorDomainError(f"u = {u:g} must exceed the lower limit a = {a:g}")


def _power_rule(shifted: tuple[float, ...], alpha: float, du: float, start: int) -> float:
    # sum_{j>=start} b_j * Gamma(j+1)/Gamma(j+1-alpha) * du^(j-alpha)
    total = 0.0
    for j in range(start, len(shifted)):
        b = shifted[j]
        if b == 0.0:
            continue
        total += b * math.gamma(j + 1) * _recip_gamma(j + 1 - alpha) * du ** (j - alpha)
    return total


def caputo_poly_derivative(p: Polynomial, alpha: float, u: float, a: float) -> float:
    """Exact Caputo derivative of a polynomial, lower limit a.

    Term-wise power rule on the expansion about a; monomials of degree
    below ceil(alpha) map to zero, so constants vanish and alpha = 1
    reproduces p'(u).
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    _validate_limits(u, a)
    return _power_rule(p.shifted(a), alpha, u - a, start=math.ceil(alpha))


def rl_poly_derivative(p: Polynomial, alpha: float, u: float, a: float) -> float:
    """Exact Riemann-Liouville derivative of a polynomial, lower limit a.

    Identical power rule but keeping every term, so a constant c maps to
    c (u-a)^-alpha / Gamma(1-alpha), nonzero for non-integer alpha.
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    _validate_limits(u, a)
    return _power_rule(p.shifted(a), alpha, u - a, start=0)


def caputo_taylor_series(
    f_derivatives: Sequence[Callable[[float], float]],
    alpha: float,
    u: float,
    a: float,
    truncation: int,
) -> float:
    """Caputo derivative via its expansion in the integer derivatives of f.

    f_derivatives[k-1] is the k-th derivative of f; the partial sum runs
    k = 1..truncation:

        1/Gamma(1-alpha) * sum_k f^(k)(u)/(k-1)! * (-1)^(k-1)
                                 * (u-a)^(k-alpha) / (k-alpha)

    Valid for 0 < alpha < 1.  Terminates exactly for polynomials.
    """
    alpha = float(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    _validate_limits(u, a)
    du = u - a
    total = 0.0
    for k in range(1, min(truncation, len(f_derivatives)) + 1):
        fk = float(f_derivatives[k - 1](u))
        if fk == 0.0:
            continue
        sign = -1.0 if (k - 1) & 1 else 1.0
        total += fk / math.factorial(k - 1) * sign * du ** (k - alpha) / (k - alpha)
    return total / math.gamma(1.0 - alpha)
