"""Descent rules under study, their stopping logic, and stability checks.

Four update rules:

* GDM  - discrete steepest descent u_{k+1} = u_k - omega grad f(u_k).
* CGM  - the continuous flow du/dt = -gain grad f(u), integrated by the
  adaptive integer-order reference solver.
* FGDM - discrete descent with a fractional derivative of f in place of
  the gradient (Riemann-Liouville or Caputo, fixed limit or fixed
  memory window).  Its fixed points generally differ from the extrema
  of f; ``converged_to`` makes that gap observable.
* FCTM - the fractional-time flow D^alpha_t u = -gain grad f(u), whose
  equilibria coincide with the stationary points of f.

First-passage statistics (earliest time/iteration with the progress
metric below a threshold) are recorded for every run.  ``run_restarts``
runs one method from a stack of start points; GDM and FCTM advance the
whole stack at once.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._csvfile import write_csv
from .errors import (
    ConfigError,
    IterationDivergenceError,
    OperatorDomainError,
    OrderRangeError,
    SolverConfigError,
)
from .fdesolve import FdeProblem, Trajectory, solve_pece, solve_reference_ode, step_count
from .fracops import MemoryWindow, caputo_poly_derivative, gl_derivative, rl_poly_derivative
from .problems import Objective
from .specfun import mittag_leffler, gamma

__all__ = [
    "Method",
    "OptimizerConfig",
    "StoppingRule",
    "DiscreteTrace",
    "RunCost",
    "RunResult",
    "EnergyTrace",
    "run_gdm",
    "run_fgdm",
    "run_fctm",
    "run_restarts",
    "stability_envelope_check",
    "oscillation_census",
    "first_passages",
]

_DEFAULT_K_MAX = 20000
# states per stacked metric call: 256 raised the peak memory of the Thomson
# restarts by about 2 MiB, 64 costs almost nothing and keeps the gain
_METRIC_CHUNK = 64


class Method(enum.Enum):
    GDM = "gdm"
    CGM = "cgm"
    FGDM = "fgdm"
    FCTM = "fctm"

    @classmethod
    def parse(cls, name: str) -> "Method":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ConfigError(f"unknown method: {name!r}") from None


@dataclass(frozen=True)
class OptimizerConfig:
    """Method selection plus exactly the gains that method needs.

    omega is the discrete step size (GDM/FGDM); gain is the flow gain
    (CGM/FCTM).  Setting a field the chosen method does not use is a
    configuration error.
    """

    method: Method
    alpha: float = 1.0
    omega: float | None = None
    gain: float | None = None
    fgdm_operator: str | None = None
    window: MemoryWindow | None = None
    h: float | None = None
    t_end: float | None = None
    v0: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        m = self.method
        need = {
            Method.GDM: ("omega",),
            Method.CGM: ("gain", "t_end"),
            Method.FGDM: ("omega", "fgdm_operator", "window"),
            Method.FCTM: ("gain", "h", "t_end"),
        }[m]
        allowed = set(need) | {
            Method.GDM: set(),
            Method.CGM: {"h"},
            Method.FGDM: set(),
            Method.FCTM: {"v0"},
        }[m]
        for name in ("omega", "gain", "fgdm_operator", "window", "h", "t_end", "v0"):
            value = getattr(self, name)
            if name in need and value is None:
                raise ConfigError(f"{m.value} requires {name}")
            if value is not None and name not in allowed:
                raise ConfigError(f"{name} is not a {m.value} parameter")
        if self.omega is not None and not self.omega > 0:
            raise ConfigError("omega must be > 0")
        if self.gain is not None and not self.gain > 0:
            raise ConfigError("gain must be > 0")
        if m in (Method.GDM, Method.CGM) and self.alpha != 1.0:
            raise ConfigError(f"{m.value} runs at alpha = 1")
        if m is Method.FGDM and not 0 < self.alpha <= 1:
            raise ConfigError("fgdm requires alpha in (0, 1]")
        if m is Method.FCTM and not 0 < self.alpha <= 2:
            raise ConfigError("fctm requires alpha in (0, 2]")
        if m is Method.FGDM and self.fgdm_operator not in ("caputo", "rl"):
            raise ConfigError("fgdm_operator must be 'caputo' or 'rl'")
        if self.v0 is not None and self.alpha <= 1:
            raise ConfigError("v0 is only meaningful for alpha > 1")
        if self.h is not None and self.t_end is not None:
            try:
                step_count(self.t_end, self.h)
            except SolverConfigError as exc:
                raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class StoppingRule:
    """Union of stop conditions: metric < epsilon, k >= k_max.

    ``thresholds`` are the first-passage levels recorded along the way
    (strictly decreasing).  Continuous methods integrate their configured
    horizon and evaluate epsilon on the stored grid; if epsilon is never
    reached the run is reported non-converged with the best state seen.
    """

    epsilon: float | None = None
    k_max: int | None = None
    thresholds: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        thr = tuple(float(t) for t in self.thresholds)
        if any(b >= a for a, b in zip(thr, thr[1:])):
            raise ConfigError("thresholds must be strictly decreasing")
        object.__setattr__(self, "thresholds", thr)


@dataclass(frozen=True)
class DiscreteTrace:
    """Iteration list (u_k, f(u_k)) of a discrete descent run."""

    iterates: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "iterates", np.ascontiguousarray(self.iterates, dtype=float))
        object.__setattr__(self, "costs", np.ascontiguousarray(self.costs, dtype=float))
        self.iterates.flags.writeable = False
        self.costs.flags.writeable = False

    def __len__(self) -> int:
        return len(self.costs)

    def to_csv(self, path) -> None:
        header = ["k"] + [f"u_{i}" for i in range(self.iterates.shape[1])] + ["f"]
        write_csv(path, header, ([k, *u.tolist(), c] for k, (u, c)
                                 in enumerate(zip(self.iterates, self.costs.tolist()))))


@dataclass(frozen=True)
class RunCost:
    field_evaluations: int
    wall_seconds: float


@dataclass(frozen=True)
class RunResult:
    method: Method
    alpha: float
    trace: Trajectory | None
    iterations: DiscreteTrace | None
    first_passage: dict[float, float]
    final_metric: float
    converged_to: np.ndarray
    converged: bool
    cost: RunCost


def first_passages(
    times: np.ndarray, metrics: np.ndarray, thresholds: Sequence[float]
) -> dict[float, float]:
    """Earliest time (or iteration index) with metric strictly below each
    threshold; thresholds never reached are absent from the map."""
    out: dict[float, float] = {}
    for eps in thresholds:
        below = np.flatnonzero(metrics < eps)
        if below.size:
            out[float(eps)] = float(times[below[0]])
    return out


def _wrap_result(
    objective: Objective,
    cfg: OptimizerConfig,
    stop: StoppingRule,
    history: Trajectory | DiscreteTrace,
    nfev: int,
    wall: float,
) -> RunResult:
    if isinstance(history, Trajectory):
        trace, iterations, times, states = history, None, history.times, history.states
    else:
        trace, iterations = None, history
        times, states = np.arange(len(history), dtype=float), history.iterates
    metrics = np.concatenate([objective.metric(states[i:i + _METRIC_CHUNK])
                              for i in range(0, len(states), _METRIC_CHUNK)])
    passages = first_passages(times, metrics, stop.thresholds)
    # a run that never reached epsilon reports the best state it saw
    converged = stop.epsilon is None or bool(np.any(metrics < stop.epsilon))
    converged_to = states[-1] if converged else states[int(np.argmin(metrics))]
    return RunResult(
        method=cfg.method,
        alpha=cfg.alpha,
        trace=trace,
        iterations=iterations,
        first_passage=passages,
        final_metric=float(metrics[-1]),
        converged_to=np.array(converged_to),
        converged=converged,
        cost=RunCost(field_evaluations=nfev, wall_seconds=wall),
    )


def _descend(
    objective: Objective,
    starts: np.ndarray,
    cfg: OptimizerConfig,
    stop: StoppingRule,
    step: Callable[[int, np.ndarray], tuple[np.ndarray, bool]],
) -> list[RunResult]:
    """Iterate a discrete rule from each row of ``starts`` (R, d) until a
    stop condition holds for that row; one result per row.

    ``step(k, u)`` takes the running states and returns their next iterates
    (a new array) and whether the rule has settled.  One start runs as a
    (d,) state, several as a stack of the rows that still run.
    """
    t0 = time.perf_counter()
    k_max = stop.k_max if stop.k_max is not None else _DEFAULT_K_MAX
    n_rows, d = starts.shape
    # row-major per start, so each row's trace is a contiguous view; the
    # buffers double as the run goes, so an early stop never pays for k_max
    iterates = np.empty((n_rows, min(k_max, 255) + 1, d))
    costs = np.empty((n_rows, iterates.shape[1]))
    last = np.full(n_rows, k_max)  # index of each row's final iterate
    rows = np.arange(n_rows)  # the rows still running
    u = starts[0] if n_rows == 1 else starts
    iterates[:, 0] = starts
    costs[:, 0] = objective.f(u)

    def grown(buffer: np.ndarray) -> np.ndarray:
        out = np.empty((n_rows, min(2 * buffer.shape[1], k_max + 1), *buffer.shape[2:]))
        out[:, :buffer.shape[1]] = buffer
        return out

    def retire(done, at: int):
        """Drop the rows that stop at iterate ``at``; False once none runs."""
        nonlocal rows, u
        done = np.broadcast_to(done, rows.shape)
        if done.any():
            last[rows[done]] = at
            rows = rows[~done]
            if rows.size:
                u = u[~done]
        return rows.size > 0

    # overflow on a diverging run is expected and detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k_max):
            if stop.epsilon is not None and not retire(objective.metric(u) < stop.epsilon, k):
                break
            u, settled = step(k, u)
            fk = objective.f(u)
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(fk))):
                raise IterationDivergenceError(k + 1)
            if k + 1 == costs.shape[1]:
                iterates, costs = grown(iterates), grown(costs)
            iterates[rows, k + 1] = u
            costs[rows, k + 1] = fk
            if settled and not retire(settled, k + 1):
                break
    wall = (time.perf_counter() - t0) / n_rows  # an equal share per row
    # one step per iterate after the start
    return [_wrap_result(objective, cfg, stop,
                         DiscreteTrace(iterates=iterates[i, :e + 1], costs=costs[i, :e + 1]),
                         int(e), wall)
            for i, e in enumerate(last)]


def _gdm(objective: Objective, starts: np.ndarray, cfg: OptimizerConfig,
         stop: StoppingRule) -> list[RunResult]:
    return _descend(objective, starts, cfg, stop,
                    lambda k, u: (u - cfg.omega * objective.gradient(u), False))


def run_gdm(
    objective: Objective,
    u0: np.ndarray,
    cfg: OptimizerConfig,
    stop: StoppingRule = StoppingRule(),
) -> RunResult:
    """Discrete steepest descent with fixed step size."""
    if cfg.method is not Method.GDM:
        raise ConfigError("run_gdm requires a gdm configuration")
    return _gdm(objective, np.atleast_1d(np.asarray(u0, dtype=float))[None, :], cfg, stop)[0]


def _fgdm_operator(objective: Objective, cfg: OptimizerConfig) -> Callable[[float], float]:
    """Fractional derivative of the scalar objective at a point, honoring
    the configured window.  Polynomial objectives use the exact power
    rule; sampled objectives fall back to the Grunwald-Letnikov sum."""
    window = cfg.window
    alpha = cfg.alpha
    poly = objective.polynomial
    if poly is not None:
        if cfg.fgdm_operator == "caputo":
            return lambda u: caputo_poly_derivative(poly, alpha, u, window.effective_lower_limit(u))
        return lambda u: rl_poly_derivative(poly, alpha, u, window.effective_lower_limit(u))

    def f_scalar(xs: np.ndarray) -> np.ndarray:
        return np.array([objective.f(np.array([x])) for x in np.atleast_1d(xs)])

    def op(u: float) -> float:
        value = gl_derivative(f_scalar, alpha, u, window)
        if cfg.fgdm_operator == "caputo" and alpha < 1:
            # Caputo = RL minus the image of f at the lower limit
            a_eff = window.effective_lower_limit(u)
            value -= float(f_scalar(np.array([a_eff]))[0]) * (u - a_eff) ** (-alpha) / gamma(1.0 - alpha)
        return value

    return op


def run_fgdm(
    objective: Objective,
    u0: float,
    cfg: OptimizerConfig,
    stop: StoppingRule = StoppingRule(),
) -> RunResult:
    """Fractional-gradient descent on a scalar objective.

    The update direction is the configured fractional derivative of f, so
    the iteration settles on the operator's zero, which for alpha < 1 is
    not the extremum of f.
    """
    if cfg.method is not Method.FGDM:
        raise ConfigError("run_fgdm requires an fgdm configuration")
    if objective.dimension != 1:
        raise ConfigError("fgdm is restricted to scalar objectives")
    derivative = _fgdm_operator(objective, cfg)

    def step(k: int, u: np.ndarray) -> tuple[np.ndarray, bool]:
        x = float(u[0])
        try:
            d = derivative(x)
        except OperatorDomainError as exc:
            raise OperatorDomainError(
                f"iteration {k}: iterate u = {x:g} left the operator domain ({exc})"
            ) from exc
        x_next = x - cfg.omega * d
        # settled at the operator zero to machine precision
        return np.array([x_next]), abs(cfg.omega * d) < 1e-14 * max(1.0, abs(x_next))

    u = np.atleast_1d(np.asarray(u0, dtype=float))[:1]
    return _descend(objective, u[None, :], cfg, stop, step)[0]


def _fctm(objective: Objective, starts: np.ndarray, cfg: OptimizerConfig,
          stop: StoppingRule) -> list[RunResult]:
    """FCTM from each row of ``starts`` (R, d) as one PECE solve of the
    flattened R*d state; the rows share the grid and the weights and are
    otherwise independent."""
    t0 = time.perf_counter()
    n_rows, d = starts.shape
    gain = cfg.gain
    if n_rows == 1:
        def fde_field(u: np.ndarray) -> np.ndarray:
            return -gain * objective.gradient(u)
    else:
        def fde_field(u: np.ndarray) -> np.ndarray:
            return -gain * objective.gradient(u.reshape(n_rows, d)).reshape(-1)

    v0 = None
    if cfg.alpha > 1:
        v0 = 0.0 if cfg.v0 is None else cfg.v0
        if np.size(v0) > 1:
            v0 = np.tile(v0, n_rows)
    problem = FdeProblem(alpha=cfg.alpha, field=fde_field, u0=starts.reshape(-1),
                         t_end=cfg.t_end, h=cfg.h, v0=v0)
    traj = solve_pece(problem)
    wall = (time.perf_counter() - t0) / n_rows  # an equal share per row
    nfev = traj.stats.field_evaluations  # per row: each call advances every row
    if n_rows == 1:
        return [_wrap_result(objective, cfg, stop, traj, nfev, wall)]
    return [_wrap_result(objective, cfg, stop,
                         Trajectory(times=traj.times, states=traj.states[:, i * d:(i + 1) * d],
                                    stats=traj.stats), nfev, wall)
            for i in range(n_rows)]


def run_fctm(
    objective: Objective,
    u0: np.ndarray,
    cfg: OptimizerConfig,
    stop: StoppingRule = StoppingRule(),
) -> RunResult:
    """Integrate the descent flow D^alpha_t u = -gain grad f(u).

    FCTM uses the fractional predictor-corrector; a CGM configuration
    routes through the adaptive integer-order reference solver.  Any
    equilibrium of this flow is a stationary point of f.
    """
    if cfg.method not in (Method.FCTM, Method.CGM):
        raise ConfigError("run_fctm requires an fctm or cgm configuration")
    if cfg.method is Method.FCTM:
        return _fctm(objective, np.atleast_1d(np.asarray(u0, dtype=float))[None, :], cfg, stop)[0]
    t0 = time.perf_counter()
    gain = cfg.gain

    def fde_field(u: np.ndarray) -> np.ndarray:
        return -gain * objective.gradient(u)

    # without h the adaptive solver keeps its own steps and never reads h,
    # so it gets a step that divides any horizon
    problem = FdeProblem(alpha=cfg.alpha, field=fde_field, u0=u0, t_end=cfg.t_end,
                         h=cfg.h or cfg.t_end / 2)
    t_eval = problem.h * np.arange(step_count(cfg.t_end, problem.h) + 1) if cfg.h else None
    traj = solve_reference_ode(problem, t_eval=t_eval)
    wall = time.perf_counter() - t0
    return _wrap_result(objective, cfg, stop, traj, traj.stats.field_evaluations, wall)


def run_restarts(
    objective: Objective,
    starts: np.ndarray,
    cfg: OptimizerConfig,
    stop: StoppingRule = StoppingRule(),
) -> list[RunResult]:
    """Run ``cfg``'s method from each row of ``starts`` (R, d); one result
    per row, each equal to the one-start run of that row.

    GDM and FCTM advance all rows as one stack, so a failure in any row
    raises for the whole stack.  FCTM's history sum is a BLAS product over
    the R*d columns; with OpenBLAS on x86-64 it matched the one-start runs
    bit for bit for d = 8, 12 and 24, and to about 1e-15 relative for
    d = 10.  CGM
    (whose adaptive steps would couple the rows) and FGDM (scalar only)
    run the rows one at a time.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if cfg.method is Method.GDM:
        return _gdm(objective, starts, cfg, stop)
    if cfg.method is Method.FCTM:
        return _fctm(objective, starts, cfg, stop)
    if cfg.method is Method.CGM:
        return [run_fctm(objective, u0, cfg, stop) for u0 in starts]
    return [run_fgdm(objective, float(u0[0]), cfg, stop) for u0 in starts]


@dataclass(frozen=True)
class EnergyTrace:
    """Squared distance to the optimum along a trajectory."""

    times: np.ndarray
    energies: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.ascontiguousarray(self.times, dtype=float))
        object.__setattr__(self, "energies", np.ascontiguousarray(self.energies, dtype=float))
        self.times.flags.writeable = False
        self.energies.flags.writeable = False

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "V"], zip(self.times.tolist(), self.energies.tolist()))


def stability_envelope_check(
    trace: Trajectory,
    u_star: np.ndarray,
    eta: float,
    alpha: float,
    slack: float = 1e-6,
) -> tuple[EnergyTrace, bool]:
    """Check V(t) <= V(0) E_{alpha,1}(-eta t^alpha) + slack on the grid.

    V(t) = ||u(t) - u*||^2 with eta the strong-convexity constant.  The
    envelope holds for orders in (0, 1]; larger orders raise
    :class:`OrderRangeError` since the bound is not established there.
    """
    alpha = float(alpha)
    if not 0 < alpha <= 1:
        raise OrderRangeError(f"envelope check requires alpha in (0, 1], got {alpha:g}")
    if not eta > 0:
        raise ValueError("eta must be > 0")
    u_star = np.atleast_1d(np.asarray(u_star, dtype=float))
    diff = trace.states - u_star[None, :]
    energies = np.sum(diff * diff, axis=1)
    energy = EnergyTrace(times=trace.times, energies=energies)
    v0 = float(energies[0])
    if v0 == 0.0:
        return energy, bool(np.all(energies <= slack))
    envelope = mittag_leffler(alpha, 1.0, -eta * trace.times**alpha)
    ok = bool(np.all(energies <= v0 * envelope + slack))
    return energy, ok


def oscillation_census(energy: EnergyTrace) -> int:
    """Number of strict local minima of V over the grid interior."""
    v = energy.energies
    if v.size < 3:
        return 0
    interior = (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    return int(np.count_nonzero(interior))
