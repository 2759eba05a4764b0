"""Fixed-step Adams-Bashforth-Moulton predictor-corrector for Caputo IVPs.

Solves D^alpha_t u = F(u) for vector u and 0 < alpha <= 2 on a uniform
grid with the classic PECE scheme: fractional Adams-Bashforth predictor
(rectangle product integration), one fractional Adams-Moulton corrector
pass (trapezoidal product integration), full memory.  Every step uses the
complete history, so the work is O(steps^2); there is deliberately no
short-memory truncation here.

An adaptive Dormand-Prince 5(4) reference solver is provided for the
integer-order case (alpha = 1); it reproduces scipy's
``solve_ivp(method="RK45")`` bit for bit, so numpy is the one dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._csvfile import write_csv
from .errors import SolverConfigError, SolverDivergenceError, StiffnessError
from .specfun import mittag_leffler

__all__ = [
    "FdeProblem",
    "Trajectory",
    "TrajectoryStats",
    "solve_pece",
    "solve_reference_ode",
    "linear_relaxation_solution",
]


def _order(alpha) -> float:
    """The order of the time derivative as a float; the solver covers (0, 2]."""
    alpha = float(alpha)
    if not 0 < alpha <= 2:
        raise SolverConfigError(f"order must lie in (0, 2], got {alpha:g}")
    return alpha


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

    def to_csv(self, path) -> None:
        """Write `t,u_0,...,u_{d-1}` rows at full precision, LF endings."""
        write_csv(path, ["t"] + [f"u_{i}" for i in range(self.states.shape[1])],
                  ([t, *u.tolist()] for t, u in zip(self.times.tolist(), self.states)))


def step_count(t_end: float, h: float) -> int:
    """Number of uniform steps of size ``h`` that end at ``t_end``.

    ``t_end`` must be a whole multiple of ``h`` to within 1e-9 relative, so
    a horizon is never rounded to a nearby grid point without notice.
    """
    if not (0 < h < t_end and math.isfinite(t_end / h)):
        raise SolverConfigError("h and t_end must satisfy 0 < h < t_end with t_end/h finite")
    n_steps = round(t_end / h)
    if (n_steps + 1) * 8 > np.iinfo(np.intp).max:  # numpy's limit on a float64 array
        raise SolverConfigError(f"t_end / h = {t_end / h:g} steps do not fit in a numpy array")
    if abs(n_steps * h - t_end) > 1e-9 * t_end:
        raise SolverConfigError(f"t_end = {t_end:g} is not a whole number of steps h = {h:g}")
    return n_steps


def _too_many_steps(n_steps: int) -> SolverConfigError:
    return SolverConfigError(f"{n_steps} steps do not fit in memory")


def uniform_grid(t_end: float, h: float) -> np.ndarray:
    """The ``step_count(t_end, h) + 1`` points ``h * k``, the last set to
    exactly ``t_end`` (``0.1 * 7`` is ``0.7000000000000001``)."""
    n_steps = step_count(t_end, h)
    try:
        times = h * np.arange(n_steps + 1)
    except MemoryError:
        raise _too_many_steps(n_steps) from None
    times[-1] = t_end
    return times


@dataclass(frozen=True)
class FdeProblem:
    """Caputo initial-value problem D^alpha u = F(u) on [0, t_end].

    ``alpha`` is a float in (0, 2].  ``field`` must be time-autonomous and
    map a state vector to a state vector.  ``v0`` (the initial first
    derivative) is required exactly when alpha > 1.  Construction
    evaluates F(u0), checks that it is finite, and keeps it for the solvers.
    """

    alpha: float
    field: Callable[[np.ndarray], np.ndarray]
    u0: np.ndarray
    t_end: float
    h: float
    v0: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _order(self.alpha))
        u0 = np.atleast_1d(np.asarray(self.u0, dtype=float)).copy()
        u0.flags.writeable = False
        object.__setattr__(self, "u0", u0)
        if self.v0 is not None:
            v0 = np.atleast_1d(np.asarray(self.v0, dtype=float)).copy()
            if v0.size == 1 and u0.size > 1:
                v0 = np.full(u0.size, float(v0[0]))
            v0.flags.writeable = False
            object.__setattr__(self, "v0", v0)
        if self.alpha > 1 and self.v0 is None:
            raise SolverConfigError("alpha > 1 requires the initial derivative v0")
        if self.alpha <= 1 and self.v0 is not None:
            raise SolverConfigError("v0 is only meaningful for alpha > 1")
        if self.v0 is not None and self.v0.size != u0.size:
            raise SolverConfigError("v0 and u0 must have the same dimension")
        step_count(self.t_end, self.h)
        f0 = np.array(self.field(u0), dtype=float)  # a copy the field cannot reuse
        if f0.shape != u0.shape or not np.all(np.isfinite(f0)):
            raise SolverConfigError("F(u0) must be a finite vector matching u0")
        f0.flags.writeable = False
        object.__setattr__(self, "_f0", f0)


def _reversed_weights(a: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag-indexed quadrature weights, reversed for the history sums:
    predictor b[k] ~ (k+1)^a - k^a (rectangle rule), corrector
    c[k] ~ (k+2)^(a+1) - 2(k+1)^(a+1) + k^(a+1) (trapezoid), each taken
    from reversed slices, so no forward copy is made.  Their intermediates
    are freed on return, before the solve allocates its history."""
    k = np.arange(n_steps + 1, dtype=float)
    ka = k**a
    ka1 = k ** (a + 1.0)
    del k
    return ka[:0:-1] - ka[-2::-1], ka1[:1:-1] - 2.0 * ka1[-2:0:-1] + ka1[-3::-1]


def solve_pece(problem: FdeProblem) -> Trajectory:
    """Full-memory ABM predictor-corrector solution on the uniform grid.

    One corrector iteration per step (predict, evaluate, correct,
    evaluate), hence exactly 2 field evaluations per step plus F(u0), taken
    on construction.  Raises :class:`SolverDivergenceError` with the
    offending time if a state goes nonfinite.  A one-component state steps
    on Python floats, with the bytes of the array steps.
    """
    return _solve_pece(problem, scalar=problem.u0.size == 1)


def _solve_pece(problem: FdeProblem, scalar: bool) -> Trajectory:
    """The PECE steps on state arrays, or with ``scalar`` on Python floats.

    Floats do the arrays' IEEE operations in the same order, so they round
    alike and skip a numpy call per operation; four adapters, chosen here
    once, are the only difference.  The history sums are the same BLAS
    dots either way, and the field always gets a fresh float64 array.
    """
    a, field, h = problem.alpha, problem.field, problem.h
    times = uniform_grid(problem.t_end, h)
    n_steps = times.size - 1

    try:
        b_rev, c_rev = _reversed_weights(a, n_steps)
        states = np.empty((n_steps + 1, problem.u0.size))
        f_hist = np.empty_like(states)
    except MemoryError:
        raise _too_many_steps(n_steps) from None
    pred_scale = h**a / math.gamma(a + 1.0)
    corr_scale = h**a / math.gamma(a + 2.0)
    states[0] = problem.u0
    f_hist[0] = problem._f0

    if scalar:
        box, unbox, finite = (lambda u: np.array([u])), (lambda v: float(v[0])), math.isfinite
    else:
        box, unbox, finite = ((lambda u: u), (lambda v: np.asarray(v, dtype=float)),
                              (lambda u: np.isfinite(u).all()))
    u0 = seed = unbox(problem.u0)  # the Taylor seed at every t below order 1; u0 is read-only
    v0 = unbox(problem.v0) if a > 1 else None
    f0 = unbox(f_hist[0])

    # overflow on a diverging problem is expected and detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            if a > 1:  # the Taylor seed u0 + t v0
                seed = u0 + times.item(n + 1) * v0

            # predictor: seed + h^a/G(a+1) * sum_j b[n-j] F_j
            pred_sum = unbox(b_rev[n_steps - n - 1 :].dot(f_hist[: n + 1]))
            f_pred = unbox(field(box(seed + pred_scale * pred_sum)))

            # corrector: history term with the j = 0 weight handled separately
            a0 = float(n) ** (a + 1.0) - (n - a) * (n + 1.0) ** a
            corr_sum = a0 * f0
            if n >= 1:
                corr_sum = corr_sum + unbox(c_rev[n_steps - 1 - n :].dot(f_hist[1 : n + 1]))
            u_next = seed + corr_scale * (corr_sum + f_pred)

            if not finite(u_next):
                raise SolverDivergenceError(times[n + 1])
            states[n + 1] = u_next
            f_hist[n + 1] = field(box(u_next))
    stats = TrajectoryStats(steps=n_steps, field_evaluations=1 + 2 * n_steps)
    return Trajectory(times=times, states=states, stats=stats)


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6 (1980) 19-26): stage weights A,
# fifth-order weights B, error weights E (over the six stages and the next
# step's first) and Shampine's quartic dense output P (Math. Comp. 46 (1986)
# 135-150).  Fields are autonomous, so no stage times; tuples, so import builds no arrays.
_DP_A = ((1/5,), (3/40, 9/40), (44/45, -56/15, 32/9),
         (19372/6561, -25360/2187, 64448/6561, -212/729),
         (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656))
_DP_B = (35/384, 0, 500/1113, 125/192, -2187/6784, 11/84)
_DP_E = (-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
_DP_P = (
    (1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432),
    (0, 0, 0, 0),
    (0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799),
    (0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072),
    (0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632),
    (0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
    (0, 40617522/29380423, -110615467/29380423, 69997945/29380423))


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size**0.5


def solve_reference_ode(
    problem: FdeProblem,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) baseline for the alpha = 1 case, with the
    Hairer-Norsett-Wanner starting step and step control (Solving ODEs I,
    sec. II.4).  Returns every accepted step, or the dense output at the
    increasing times ``t_eval`` in [0, t_end].  Raises :class:`StiffnessError`
    once the step is under ten ulps of t."""
    if problem.alpha != 1.0:
        raise SolverConfigError("the reference solver only handles alpha = 1")
    t, t_end, y, f = 0.0, float(problem.t_end), problem.u0, problem._f0
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if not (0 <= t_eval[0] and t_eval[-1] <= t_end and np.all(np.diff(t_eval) > 0)):
            raise SolverConfigError("t_eval must increase strictly within [0, t_end]")
    scale = abs_tol + np.abs(y) * rel_tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((problem.field(y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_end)

    K, attempts, i_eval = np.empty((7, y.size)), 0, 0
    times, states = ([t], [y]) if t_eval is None else (t_eval, [])
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StiffnessError("adaptive step control failed: "
                                     "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            K[0], attempts = f, attempts + 1
            for s in range(1, 6):
                K[s] = problem.field(y + np.dot(K[:s].T, _DP_A[s - 1]) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[-1] = f_new = problem.field(y_new)
            scale = abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * rel_tol
            err = _rms(np.dot(K.T, _DP_E) * h / scale)
            if err < 1:  # a NaN error norm is rejected, so the step shrinks until it fails
                factor = 10 if err == 0 else min(10, 0.9 * err**-0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err**-0.2)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        if t_eval is None:
            times.append(t)
            states.append(y)
        elif (i_new := np.searchsorted(t_eval, t, side="right")) > i_eval:
            x = (t_eval[i_eval:i_new] - t_old) / (t - t_old)
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            states.append(((t - t_old) * np.dot(K.T.dot(_DP_P), p) + y_old[:, None]).T)
            i_eval = i_new
    states = np.vstack(states)
    if times[0] == 0.0:
        states[0] = problem.u0
    # the field ran at u0 (on construction), at the step probe and six times per attempt
    stats = TrajectoryStats(steps=len(times) - 1, field_evaluations=2 + 6 * attempts)
    return Trajectory(times=np.asarray(times), states=states, stats=stats)


def linear_relaxation_solution(
    alpha: float,
    rate: float,
    target: float,
    u0: float,
    times: np.ndarray,
    v0: float = 0.0,
) -> np.ndarray:
    """Closed-form solution of D^alpha u = -rate (u - target).

    u(t) = target + (u0-target) E_{alpha,1}(-rate t^alpha)
                  + v0 t E_{alpha,2}(-rate t^alpha)   [second term: alpha > 1]

    Serves as the analytic benchmark for the PECE solver on linear fields.
    A nonzero ``v0`` at alpha <= 1 raises :class:`SolverConfigError`, as
    :class:`FdeProblem` does: such an order takes no initial derivative.
    """
    alpha = _order(alpha)
    if alpha <= 1 and v0 != 0.0:
        raise SolverConfigError("v0 is only meaningful for alpha > 1")
    times = np.asarray(times, dtype=float)
    z = -rate * times**alpha
    out = target + (u0 - target) * mittag_leffler(alpha, 1.0, z)
    if alpha > 1 and v0 != 0.0:
        out += v0 * times * mittag_leffler(alpha, 2.0, z)
    return out
