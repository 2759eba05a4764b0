"""Fixed-step Adams-Bashforth-Moulton predictor-corrector for Caputo IVPs.

Solves D^alpha_t u = F(u) for vector u and 0 < alpha <= 2 on a uniform
grid with the classic PECE scheme: fractional Adams-Bashforth predictor
(rectangle product integration), one fractional Adams-Moulton corrector
pass (trapezoidal product integration), full memory.  Every step uses the
complete history, so the work is O(steps^2); there is deliberately no
short-memory truncation here.

An adaptive embedded Runge-Kutta reference solver is provided for the
integer-order case (alpha = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from ._csvfile import write_csv
from .errors import SolverConfigError, SolverDivergenceError, StiffnessError
from .specfun import MlSeriesConfig, mittag_leffler

__all__ = [
    "FractionalOrder",
    "FdeProblem",
    "Trajectory",
    "TrajectoryStats",
    "solve_pece",
    "solve_reference_ode",
    "linear_relaxation_solution",
]


@dataclass(frozen=True)
class FractionalOrder:
    """Order of the time derivative; the solver covers (0, 2]."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 2:
            raise SolverConfigError(f"order must lie in (0, 2], got {self.alpha:g}")

    @property
    def initial_conditions_required(self) -> int:
        return math.ceil(self.alpha)

    def __float__(self) -> float:
        return self.alpha


def _as_order(alpha) -> FractionalOrder:
    if isinstance(alpha, FractionalOrder):
        return alpha
    return FractionalOrder(float(alpha))


@dataclass(frozen=True)
class TrajectoryStats:
    steps: int
    field_evaluations: int


@dataclass(frozen=True)
class Trajectory:
    """Discretized solution path.  Arrays are frozen after construction."""

    times: np.ndarray
    states: np.ndarray
    stats: TrajectoryStats

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.ascontiguousarray(self.times, dtype=float))
        object.__setattr__(self, "states", np.ascontiguousarray(self.states, dtype=float))
        self.times.flags.writeable = False
        self.states.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    def to_csv(self, path) -> None:
        """Write `t,u_0,...,u_{d-1}` rows at full precision, LF endings."""
        write_csv(path, ["t"] + [f"u_{i}" for i in range(self.dimension)],
                  ([t, *u.tolist()] for t, u in zip(self.times.tolist(), self.states)))


def step_count(t_end: float, h: float) -> int:
    """Number of uniform steps of size ``h`` that end at ``t_end``.

    ``t_end`` must be a whole multiple of ``h`` to within 1e-9 relative, so
    a horizon is never rounded to a nearby grid point without notice.
    """
    if not (0 < h < t_end and math.isfinite(t_end / h)):
        raise SolverConfigError("h and t_end must satisfy 0 < h < t_end with t_end/h finite")
    n_steps = round(t_end / h)
    if abs(n_steps * h - t_end) > 1e-9 * t_end:
        raise SolverConfigError(f"t_end = {t_end:g} is not a whole number of steps h = {h:g}")
    return n_steps


@dataclass(frozen=True)
class FdeProblem:
    """Caputo initial-value problem D^alpha u = F(u) on [0, t_end].

    ``field`` must be time-autonomous and map a state vector to a state
    vector.  ``v0`` (the initial first derivative) is required exactly when
    alpha > 1.  Construction evaluates the field once to confirm F(u0) is
    finite.
    """

    alpha: FractionalOrder
    field: Callable[[np.ndarray], np.ndarray]
    u0: np.ndarray
    t_end: float
    h: float
    v0: np.ndarray | None = None
    dimension: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _as_order(self.alpha))
        u0 = np.atleast_1d(np.asarray(self.u0, dtype=float)).copy()
        u0.flags.writeable = False
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "dimension", u0.size)
        if self.v0 is not None:
            v0 = np.atleast_1d(np.asarray(self.v0, dtype=float)).copy()
            if v0.size == 1 and u0.size > 1:
                v0 = np.full(u0.size, float(v0[0]))
            v0.flags.writeable = False
            object.__setattr__(self, "v0", v0)
        a = self.alpha.alpha
        if a > 1 and self.v0 is None:
            raise SolverConfigError("alpha > 1 requires the initial derivative v0")
        if a <= 1 and self.v0 is not None:
            raise SolverConfigError("v0 is only meaningful for alpha > 1")
        if self.v0 is not None and self.v0.size != u0.size:
            raise SolverConfigError("v0 and u0 must have the same dimension")
        step_count(self.t_end, self.h)
        f0 = np.asarray(self.field(u0), dtype=float)
        if f0.shape != u0.shape or not np.all(np.isfinite(f0)):
            raise SolverConfigError("F(u0) must be a finite vector matching u0")

    def taylor_seed(self, t: float) -> np.ndarray:
        """Initial-condition polynomial sum_{j<ceil(alpha)} t^j u^(j)(0)/j!."""
        if self.alpha.alpha <= 1:
            return self.u0.copy()
        return self.u0 + float(t) * self.v0


def solve_pece(problem: FdeProblem) -> Trajectory:
    """Full-memory ABM predictor-corrector solution on the uniform grid.

    One corrector iteration per step (predict, evaluate, correct,
    evaluate), hence exactly 2 field evaluations per step plus the initial
    one.  Raises :class:`SolverDivergenceError` with the offending time if
    a state goes nonfinite.
    """
    a = problem.alpha.alpha
    h = problem.h
    n_steps = step_count(problem.t_end, h)
    times = h * np.arange(n_steps + 1)
    d = problem.dimension

    # Lag-indexed quadrature weights.
    # predictor: b[k] ~ (k+1)^a - k^a          (rectangle rule)
    # corrector: c[k] ~ (k+2)^(a+1) - 2(k+1)^(a+1) + k^(a+1)   (trapezoid)
    k = np.arange(n_steps + 1, dtype=float)
    ka = k**a
    ka1 = k ** (a + 1.0)
    b = ka[1:] - ka[:-1]
    c = ka1[2:] - 2.0 * ka1[1:-1] + ka1[:-2]
    b_rev = b[::-1].copy()
    c_rev = c[::-1].copy()

    pred_scale = h**a / math.gamma(a + 1.0)
    corr_scale = h**a / math.gamma(a + 2.0)

    states = np.empty((n_steps + 1, d))
    f_hist = np.empty((n_steps + 1, d))
    states[0] = problem.u0
    f_hist[0] = problem.field(problem.u0)
    nfev = 1

    n_lags = b.size  # == n_steps
    # overflow on a diverging problem is expected and detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            t_next = times[n + 1]
            seed = problem.taylor_seed(t_next)

            # predictor: seed + h^a/G(a+1) * sum_j b[n-j] F_j
            pred_sum = b_rev[n_lags - n - 1 :].dot(f_hist[: n + 1])
            u_pred = seed + pred_scale * pred_sum
            f_pred = np.asarray(problem.field(u_pred), dtype=float)
            nfev += 1

            # corrector: history term with the j = 0 weight handled separately
            a0 = k[n] ** (a + 1.0) - (n - a) * (n + 1.0) ** a
            corr_sum = a0 * f_hist[0]
            if n >= 1:
                corr_sum = corr_sum + c_rev[n_lags - 1 - n :].dot(f_hist[1 : n + 1])
            u_next = seed + corr_scale * (corr_sum + f_pred)

            if not np.all(np.isfinite(u_next)):
                raise SolverDivergenceError(t_next)
            states[n + 1] = u_next
            f_hist[n + 1] = problem.field(u_next)
            nfev += 1

    stats = TrajectoryStats(steps=n_steps, field_evaluations=nfev)
    return Trajectory(times=times, states=states, stats=stats)


def solve_reference_ode(
    problem: FdeProblem,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Adaptive embedded Runge-Kutta baseline for the alpha = 1 case."""
    if problem.alpha.alpha != 1.0:
        raise SolverConfigError("the reference solver only handles alpha = 1")
    nfev = 0

    def rhs(_t, y):
        nonlocal nfev
        nfev += 1
        return problem.field(y)

    sol = solve_ivp(
        rhs,
        (0.0, problem.t_end),
        problem.u0,
        method="RK45",
        rtol=rel_tol,
        atol=abs_tol,
        t_eval=t_eval,
    )
    if not sol.success:
        raise StiffnessError(f"adaptive step control failed: {sol.message}")
    states = sol.y.T.copy()
    if sol.t[0] == 0.0:
        states[0] = problem.u0
    stats = TrajectoryStats(steps=len(sol.t) - 1, field_evaluations=nfev)
    return Trajectory(times=sol.t, states=states, stats=stats)


def linear_relaxation_solution(
    alpha: float,
    rate: float,
    target: float,
    u0: float,
    times: np.ndarray,
    v0: float = 0.0,
    cfg: MlSeriesConfig | None = None,
) -> np.ndarray:
    """Closed-form solution of D^alpha u = -rate (u - target).

    u(t) = target + (u0-target) E_{alpha,1}(-rate t^alpha)
                  + v0 t E_{alpha,2}(-rate t^alpha)   [second term: alpha > 1]

    Serves as the analytic benchmark for the PECE solver on linear fields.
    """
    alpha = float(_as_order(alpha))
    times = np.asarray(times, dtype=float)
    if cfg is None:
        z_max = rate * float(np.max(times)) ** alpha
        cfg = MlSeriesConfig(argument_switch_radius=max(50.0, 1.1 * z_max))
    out = np.empty_like(times)
    for i, t in enumerate(times):
        z = -rate * t**alpha
        val = target + (u0 - target) * mittag_leffler(alpha, 1.0, z, cfg)
        if alpha > 1 and v0 != 0.0:
            val += v0 * t * mittag_leffler(alpha, 2.0, z, cfg)
        out[i] = val
    return out
