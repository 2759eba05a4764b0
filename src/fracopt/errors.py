"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "FracoptError",
    "MittagLefflerError",
    "OperatorDomainError",
    "SolverConfigError",
    "SolverDivergenceError",
    "StiffnessError",
    "IterationDivergenceError",
    "OrderRangeError",
    "SingularPairError",
    "SampleRetryError",
    "ConfigError",
]


class FracoptError(Exception):
    """Base class for all package-specific errors."""


class MittagLefflerError(FracoptError):
    """E_{alpha,beta}(z) evaluated outside its domain, the finite z <= 0.

    An order outside 0 < alpha, beta <= 2 raises :class:`OrderRangeError`.
    """


class OperatorDomainError(FracoptError, ValueError):
    """Fractional operator evaluated at or below its effective lower limit."""


class SolverConfigError(FracoptError, ValueError):
    """Inconsistent initial-value problem setup (missing v0, bad step, ...)."""


class SolverDivergenceError(FracoptError):
    """Integration produced a nonfinite state or progress metric."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"nonfinite state or metric at t = {t:g}")


class StiffnessError(FracoptError):
    """Adaptive reference solver failed (step size underflow)."""


class IterationDivergenceError(FracoptError):
    """Discrete descent produced a nonfinite iterate, cost or progress metric."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"nonfinite iterate or cost at iteration {iteration}")


class OrderRangeError(FracoptError, ValueError):
    """Operation requested outside its supported fractional-order range."""


class SingularPairError(FracoptError):
    """Two point charges coincide; the pair energy is singular."""

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"coincident charges: pair ({i}, {j}) has zero distance")


class SampleRetryError(FracoptError):
    """Rejection sampling exhausted its retry budget."""


class ConfigError(FracoptError, ValueError):
    """Invalid experiment specification or config file."""
