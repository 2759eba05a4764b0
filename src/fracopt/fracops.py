"""Fractional derivative operators of a function of the optimization variable.

Provides exact closed-form Caputo and Riemann-Liouville derivatives for
polynomials (term-wise power rule after re-expanding about the lower limit)
and fixed-memory windows.  Fixed-limit, shifted-limit, and fixed-memory
variants are a single parameterization: the effective lower limit at
evaluation point u is max(a, u - L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OperatorDomainError
from .specfun import _recip_gamma

__all__ = [
    "Polynomial",
    "MemoryWindow",
    "caputo_poly_derivative",
    "rl_poly_derivative",
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


def _power_rule(p: Polynomial, alpha: float, u: float, a: float, caputo: bool) -> float:
    """sum_j b_j Gamma(j+1)/Gamma(j+1-alpha) (u-a)^(j-alpha) over p(u) = sum_j b_j (u-a)^j,
    from j = ceil(alpha) (Caputo) or from j = 0 (Riemann-Liouville)."""
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    if a < 0:
        raise OperatorDomainError(f"lower limit a = {a:g} must be >= 0")
    if u <= a:
        raise OperatorDomainError(f"u = {u:g} must exceed the lower limit a = {a:g}")
    start = math.ceil(alpha) if caputo else 0
    total = 0.0
    for j, b in enumerate(p.shifted(a)):
        if j >= start and b != 0.0:
            total += b * math.gamma(j + 1) * _recip_gamma(j + 1 - alpha) * (u - a) ** (j - alpha)
    return total


def caputo_poly_derivative(p: Polynomial, alpha: float, u: float, a: float) -> float:
    """Exact Caputo derivative of a polynomial, lower limit a.

    Term-wise power rule on the expansion about a; monomials of degree
    below ceil(alpha) map to zero, so constants vanish and alpha = 1
    reproduces p'(u).
    """
    return _power_rule(p, alpha, u, a, caputo=True)


def rl_poly_derivative(p: Polynomial, alpha: float, u: float, a: float) -> float:
    """Exact Riemann-Liouville derivative of a polynomial, lower limit a.

    Identical power rule but keeping every term, so a constant c maps to
    c (u-a)^-alpha / Gamma(1-alpha), nonzero for non-integer alpha.
    """
    return _power_rule(p, alpha, u, a, caputo=False)
