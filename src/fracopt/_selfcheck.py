"""The library's numerical invariants, each written once.

One function per invariant, returning the worst error over its cases (NaN
if any case gives NaN), and one constant per bound.  ``fracopt check`` runs
small cases of every invariant; the acceptance criteria and the unit tests
run larger ones against the same bounds, so a comparison or a bound cannot
differ between the two.  The Grunwald-Letnikov sum and the Caputo Taylor
series are oracles of these checks only, so they live here.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .fdesolve import FdeProblem, linear_relaxation_solution, solve_pece, solve_reference_ode
from .fracops import MemoryWindow, Polynomial, caputo_poly_derivative, rl_poly_derivative
from .optimizers import Method, OptimizerConfig, StoppingRule, run_restarts
from .problems import Objective, make_quadratic
from .specfun import gamma, mittag_leffler

GAMMA_RECURRENCE_BOUND = 1e-12  # relative
ML_EXP_BOUND = 1e-10
ML_COS_BOUND = 1e-9
GL_POWER_RULE_BOUND = 1e-3
CAPUTO_SERIES_BOUND = 1e-10
PECE_CLOSED_FORM_BOUND = 1e-3
PECE_REFERENCE_BOUND = 1e-4
FGDM_SHIFT_BOUND = 1e-4  # measured: about 2.5e-13 at orders 0.3-0.9
GRADIENT_BOUND = 1e-6  # relative

# a polynomial case: (p, alpha, u, a), the derivative of p of order alpha
# at u with lower limit a
PolynomialCase = tuple[Polynomial, float, float, float]


def gamma_recurrence_error(xs: Iterable[float]) -> float:
    """Worst relative error of Gamma(x + 1) = x Gamma(x)."""
    return float(np.max([abs(gamma(x + 1.0) - x * gamma(x)) / gamma(x + 1.0) for x in xs]))


def ml_exp_error(ts: np.ndarray) -> float:
    """Worst error of E_{1,1}(-t) = exp(-t)."""
    return float(np.max(np.abs(mittag_leffler(1.0, 1.0, -ts) - np.exp(-ts))))


def ml_cos_error(ts: np.ndarray) -> float:
    """Worst error of E_{2,1}(-t^2) = cos(t)."""
    return float(np.max(np.abs(mittag_leffler(2.0, 1.0, -ts * ts) - np.cos(ts))))


def _gl_weights(alpha: float, n: int) -> np.ndarray:
    """Grunwald-Letnikov weights w_k = (-1)^k C(alpha, k), k = 0..n, by a
    multiplicative recurrence, so no gamma overflow for large k."""
    w = np.empty(n + 1)
    w[0] = 1.0
    if n:
        k = np.arange(1, n + 1)
        w[1:] = np.cumprod((k - 1.0 - alpha) / k)
    return w


def _gl_derivative(f: Callable[[np.ndarray], np.ndarray], alpha: float, u: float, a: float,
                   step: float) -> float:
    """Grunwald-Letnikov derivative of order alpha >= 0 at u > a, lower
    limit a: h^-alpha sum_k w_k f(u - k h) on the mesh h = ``step`` with
    N = ceil((u - a)/h) lags.  ``f`` maps arrays elementwise.  First order
    accurate in h."""
    n = math.ceil((u - a) / step - 1e-12)
    points = u - step * np.arange(n + 1)
    return float(np.dot(_gl_weights(alpha, n), f(points)) / step**alpha)


def _caputo_series(p: Polynomial, alpha: float, u: float, a: float) -> float:
    """Caputo derivative of order alpha in (0, 1) at u > a, lower limit a,
    by its expansion in the integer derivatives of p, which ends at the
    degree of p:

        1/Gamma(1-alpha) * sum_k p^(k)(u)/(k-1)! * (-1)^(k-1)
                                 * (u-a)^(k-alpha) / (k-alpha)
    """
    du = u - a
    total = 0.0
    coefficients = np.asarray(p.coefficients)
    for k in range(1, p.degree + 1):
        coefficients = np.polyder(coefficients)
        pk = float(np.polyval(coefficients, u))
        sign = -1.0 if (k - 1) & 1 else 1.0
        total += pk / math.factorial(k - 1) * sign * du ** (k - alpha) / (k - alpha)
    return total / math.gamma(1.0 - alpha)


def gl_power_rule_error(cases: Iterable[PolynomialCase]) -> float:
    """Worst error of the Grunwald-Letnikov sum (mesh 1e-5) against the
    Riemann-Liouville power rule."""
    return float(np.max([abs(_gl_derivative(p, alpha, u, a, 1e-5) - rl_poly_derivative(
        p, alpha, u, a)) for p, alpha, u, a in cases]))


def caputo_series_error(cases: Iterable[PolynomialCase]) -> float:
    """Worst error of the Caputo Taylor series against the Caputo closed
    form."""
    return float(np.max([abs(_caputo_series(p, alpha, u, a) - caputo_poly_derivative(
        p, alpha, u, a)) for p, alpha, u, a in cases]))


def _relaxation(alpha: float, t_end: float) -> FdeProblem:
    # D^alpha u = -2 (u - 3), u(0) = 1, and u'(0) = 0 above order 1
    return FdeProblem(alpha=alpha, field=lambda u: -2.0 * (u - 3.0), u0=np.array([1.0]),
                      t_end=t_end, h=1e-3, v0=0.0 if alpha > 1 else None)


def pece_closed_form_error(alpha: float, t_end: float) -> float:
    """Worst error of PECE on the linear relaxation against its
    Mittag-Leffler closed form, over every grid point up to t_end."""
    traj = solve_pece(_relaxation(alpha, t_end))
    exact = linear_relaxation_solution(alpha, 2.0, 3.0, 1.0, traj.times, v0=0.0)
    return float(np.max(np.abs(traj.states[:, 0] - exact)))


def pece_reference_error(t_end: float) -> float:
    """Worst error of order-1 PECE on the linear relaxation against the
    adaptive reference solver, over every grid point up to t_end."""
    problem = _relaxation(1.0, t_end)
    traj = solve_pece(problem)
    ref = solve_reference_ode(problem, rel_tol=1e-10, abs_tol=1e-12, t_eval=traj.times)
    return float(np.max(np.abs(traj.states - ref.states)))


def fgdm_shift_error(alpha: float, k_max: int) -> float:
    """Distance after k_max steps of Caputo FGDM with a fixed lower limit,
    on (u - 3)^2 from u = 1, to the shifted equilibrium 3 (2 - alpha)."""
    cfg = OptimizerConfig(method=Method.FGDM, alpha=alpha, omega=0.05,
                          fgdm_operator="caputo", window=MemoryWindow(lower_limit=0.0))
    res = run_restarts(make_quadratic(3.0), 1.0, cfg, StoppingRule(k_max=k_max))[0]
    return abs(float(res.converged_to[0]) - 3.0 * (2.0 - alpha))


def gradient_error(objective: Objective, points: Iterable[np.ndarray]) -> float:
    """Worst relative error of the analytic gradient against central
    differences at step 1e-6 (1 + |u|)."""
    errors = []
    for u in points:
        u = np.asarray(u, dtype=float)
        step = 1e-6 * (1.0 + np.linalg.norm(u))
        fd = np.array([objective.f(u + e) - objective.f(u - e) for e in step * np.eye(u.size)])
        fd /= 2.0 * step
        g = objective.gradient(u)
        errors.append(np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-300))
    return float(np.max(errors))
