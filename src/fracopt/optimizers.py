"""Descent rules under study, their stopping logic, and stability checks.

Four update rules:

* GDM  - discrete steepest descent u_{k+1} = u_k - omega grad f(u_k).
* CGM  - the continuous flow du/dt = -gain grad f(u), integrated by the
  adaptive integer-order reference solver.
* FGDM - discrete descent with a fractional derivative of f in place of
  the gradient (Riemann-Liouville or Caputo, fixed limit or fixed
  memory window), on the scalar quadratic, whose derivative is exact.
  Its fixed points generally differ from the extrema of f;
  ``converged_to`` makes that gap observable.
* FCTM - the fractional-time flow D^alpha_t u = -gain grad f(u), whose
  equilibria coincide with the stationary points of f.

First-passage statistics (earliest time/iteration with the progress
metric below a threshold) are recorded for every run.  GDM and FGDM stop
after ``k_max`` iterations or once the metric is below ``epsilon``, the
discrete counterparts of the flows' horizon ``t_end``.  ``run_restarts``
runs one method's runner from a stack of start points; GDM and FCTM
advance the whole stack at once.
"""

from __future__ import annotations

import enum
import math
import operator
import time
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from ._csvfile import write_csv
from .errors import (
    ConfigError,
    FracoptError,
    IterationDivergenceError,
    OperatorDomainError,
    OrderRangeError,
    SolverConfigError,
    SolverDivergenceError,
)
from .fdesolve import FdeProblem, Trajectory, solve_pece, solve_reference_ode, step_count, uniform_grid
from .fracops import MemoryWindow, caputo_poly_derivative, rl_poly_derivative
from .problems import Objective
from .specfun import mittag_leffler

__all__ = [
    "Method",
    "OptimizerConfig",
    "DiscreteTrace",
    "RunResult",
    "run_gdm",
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


def _per_state(fn: Callable[[np.ndarray], np.ndarray], states: np.ndarray) -> np.ndarray:
    """``fn`` of each state of the stack ``states``, _METRIC_CHUNK states a call."""
    return np.concatenate([fn(states[i:i + _METRIC_CHUNK])
                           for i in range(0, len(states), _METRIC_CHUNK)])


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


# the OptimizerConfig fields each method requires, and those it also takes
_PARAMETERS = {
    Method.GDM: (("omega",), ("k_max", "epsilon")),
    Method.CGM: (("gain", "t_end"), ("h",)),
    Method.FGDM: (("omega", "fgdm_operator", "window"), ("k_max", "epsilon")),
    Method.FCTM: (("gain", "h", "t_end"), ("v0",)),
}


@dataclass(frozen=True)
class OptimizerConfig:
    """Method selection plus exactly the gains that method needs.

    omega is the discrete step size (GDM/FGDM); gain is the flow gain
    (CGM/FCTM).  GDM/FGDM stop after k_max iterations (default 20000) or
    once the progress metric is below epsilon.  Setting a field the chosen
    method does not use is a configuration error.
    """

    method: Method
    alpha: float = 1.0
    omega: float | None = None
    gain: float | None = None
    fgdm_operator: str | None = None
    window: MemoryWindow | None = None
    h: float | None = None
    t_end: float | None = None
    v0: float | None = None
    k_max: int | None = None
    epsilon: float | None = None

    def __post_init__(self) -> None:
        m = self.method
        need, optional = _PARAMETERS[m]
        for name in (f.name for f in fields(self)[2:]):  # all but method and alpha
            value = getattr(self, name)
            if name in need and value is None:
                raise ConfigError(f"{m.value} requires {name}")
            if value is not None and name not in need + optional:
                raise ConfigError(f"{name} is not a {m.value} parameter")
        for name in ("omega", "gain", "t_end"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0")
        if self.v0 is not None and np.ndim(self.v0) != 0:
            raise ConfigError("v0 must be one float, shared by every coordinate")
        if self.v0 is not None and not math.isfinite(self.v0):
            raise ConfigError("v0 must be finite")
        if self.epsilon is not None and not math.isfinite(self.epsilon):
            raise ConfigError("epsilon must be finite")
        if self.k_max is not None:
            try:
                object.__setattr__(self, "k_max", operator.index(self.k_max))
            except TypeError:
                raise ConfigError(f"k_max must be an integer, got {self.k_max!r}") from None
            if self.k_max < 0:
                raise ConfigError(f"k_max must be >= 0, got {self.k_max}")
        if m in (Method.GDM, Method.CGM) and self.alpha != 1.0:
            raise ConfigError(f"{m.value} runs at alpha = 1")
        if m is Method.FGDM and not 0 < self.alpha <= 1:
            raise ConfigError("fgdm requires alpha in (0, 1]")
        if m is Method.FCTM and not 0 < self.alpha <= 2:
            raise ConfigError("fctm requires alpha in (0, 2]")
        if m is Method.FGDM and self.fgdm_operator not in ("caputo", "rl"):
            raise ConfigError("fgdm_operator must be 'caputo' or 'rl'")
        # a finite memory's limit max(a, u - L) may stay >= 0 from an a < 0
        window = self.window
        if m is Method.FGDM and window.memory_length == math.inf and window.lower_limit < 0:
            raise ConfigError(f"a fixed fgdm lower limit must be >= 0, got {window.lower_limit:g}")
        if self.v0 is not None and self.alpha <= 1:
            raise ConfigError("v0 is only meaningful for alpha > 1")
        if self.h is not None and self.t_end is not None:
            try:
                step_count(self.t_end, self.h)
            except SolverConfigError as exc:
                raise ConfigError(str(exc)) from None


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

    def __reduce__(self):  # unpickled through __post_init__, so the arrays stay frozen
        return type(self), (self.iterates, self.costs)

    def __len__(self) -> int:
        return len(self.costs)

    def to_csv(self, path) -> None:
        header = ["k"] + [f"u_{i}" for i in range(self.iterates.shape[1])] + ["f"]
        write_csv(path, header, ([k, *u.tolist(), c] for k, (u, c)
                                 in enumerate(zip(self.iterates, self.costs.tolist()))))


@dataclass(frozen=True)
class RunResult:
    trace: Trajectory | None
    iterations: DiscreteTrace | None
    first_passage: dict[float, float]
    final_metric: float
    converged_to: np.ndarray
    field_evaluations: int
    wall_seconds: float


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
    thresholds: Sequence[float],
    history: Trajectory | DiscreteTrace,
    nfev: int,
    wall: float,
) -> RunResult:
    if isinstance(history, Trajectory):
        trace, iterations, times, states = history, None, history.times, history.states
    else:
        trace, iterations = None, history
        times, states = np.arange(len(history), dtype=float), history.iterates
    reuse = iterations is not None and objective.progress_metric is objective.f
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = iterations.costs if reuse else _per_state(objective.progress_metric, states)
    # every runner's divergence rule: the earliest metric, or cost of a
    # discrete run, that is not finite at a finite state fails the run there
    finite = np.isfinite(metrics)
    if iterations is not None:
        finite &= np.isfinite(iterations.costs)
    if not finite.all():
        j = int(np.argmin(finite))
        raise IterationDivergenceError(j) if trace is None else SolverDivergenceError(float(times[j]))
    return RunResult(
        trace=trace,
        iterations=iterations,
        first_passage=first_passages(times, metrics, thresholds),
        final_metric=float(metrics[-1]),
        converged_to=np.array(states[-1]),
        field_evaluations=nfev, wall_seconds=wall,
    )


def _descend(
    objective: Objective,
    starts: np.ndarray,
    cfg: OptimizerConfig,
    thresholds: Sequence[float],
    step: Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray | bool]],
) -> list[RunResult]:
    """Iterate a discrete rule from each row of ``starts`` (R, d) until
    ``cfg``'s stop condition holds for that row; one result per row.

    ``step(k, u)`` takes the stack of the rows that still run and returns
    their next iterates (a new array) and which rows have settled: False for
    none, or one bool per row.  The costs are taken when the run ends, from
    the stored iterates.
    """
    t0 = time.perf_counter()
    k_max = cfg.k_max if cfg.k_max is not None else _DEFAULT_K_MAX
    n_rows, d = starts.shape
    # row-major per start, so each row's trace is a contiguous view; the
    # buffer doubles as the run goes, so an early stop never pays for k_max
    iterates = np.empty((n_rows, min(k_max, 255) + 1, d))
    last = np.full(n_rows, k_max)  # index of each row's final iterate
    rows = np.arange(n_rows)  # the rows still running
    u = starts
    iterates[:, 0] = starts

    def retire(done: np.ndarray, at: int):
        """Drop the rows that stop at iterate ``at``; False once none runs."""
        nonlocal rows, u
        if done.any():
            last[rows[done]] = at
            rows, u = rows[~done], u[~done]
        return rows.size > 0

    failure = None
    # overflow on a diverging run is expected; _wrap_result detects it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(k_max):
                if cfg.epsilon is not None and not retire(
                        objective.progress_metric(u) < cfg.epsilon, k):
                    break
                u, settled = step(k, u)
                if not np.isfinite(u).all():
                    raise IterationDivergenceError(k + 1)
                if k + 1 == iterates.shape[1]:
                    extra = min(k + 1, k_max - k)
                    try:
                        iterates = np.concatenate(
                            (iterates, np.empty((n_rows, extra, d))), axis=1)
                    except MemoryError:  # the rows fail at iterate k, as on a divergence
                        raise ConfigError(f"{k + 1 + extra} iterates do not fit in memory") from None
                iterates[rows, k + 1] = u
                if settled is not False and not retire(settled, k + 1):
                    break
        except FracoptError as exc:
            last[rows], failure = k, exc
        costs = [_per_state(objective.f, iterates[i, :e + 1]) for i, e in enumerate(last)]
    wall = (time.perf_counter() - t0) / n_rows  # an equal share per row
    # one step per iterate after the start; wrapping raises a cost that
    # overflowed at a finite state before the failure that ended the loop
    results = [_wrap_result(objective, thresholds,
                            DiscreteTrace(iterates=iterates[i, :e + 1], costs=costs[i]),
                            int(e), wall)
               for i, e in enumerate(last)]
    if failure:
        raise failure
    return results


def _gdm(objective: Objective, starts: np.ndarray, cfg: OptimizerConfig,
         thresholds: Sequence[float]) -> list[RunResult]:
    return _descend(objective, starts, cfg, thresholds,
                    lambda k, u: (u - cfg.omega * objective.gradient(u), False))


def _cgm(objective: Objective, starts: np.ndarray, cfg: OptimizerConfig,
         thresholds: Sequence[float]) -> list[RunResult]:
    """CGM from each row of ``starts`` in turn, by the adaptive
    integer-order reference solver, whose steps would couple a stack."""
    results = []
    for u0 in starts:
        t0 = time.perf_counter()
        # without h the adaptive solver keeps its own steps and never reads h,
        # so it gets a step that divides any horizon
        problem = FdeProblem(alpha=cfg.alpha, field=lambda u: -cfg.gain * objective.gradient(u),
                             u0=u0, t_end=cfg.t_end, h=cfg.h or cfg.t_end / 2)
        t_eval = uniform_grid(cfg.t_end, problem.h) if cfg.h else None
        traj = solve_reference_ode(problem, t_eval=t_eval)
        results.append(_wrap_result(objective, thresholds, traj, traj.stats.field_evaluations,
                                    time.perf_counter() - t0))
    return results


def _fgdm(objective: Objective, starts: np.ndarray, cfg: OptimizerConfig,
          thresholds: Sequence[float]) -> list[RunResult]:
    """FGDM from the first coordinate of each row of ``starts`` in turn, by
    the exact power rule of the polynomial objective at the window's limit."""
    poly, alpha, omega, window = objective.polynomial, cfg.alpha, cfg.omega, cfg.window
    if poly is None:
        raise ConfigError("fgdm takes a scalar polynomial objective (the quadratic) only")
    rule = caputo_poly_derivative if cfg.fgdm_operator == "caputo" else rl_poly_derivative

    def step(k: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = float(u[0, 0])
        try:
            d = rule(poly, alpha, x, window.effective_lower_limit(x))
        except OperatorDomainError as exc:
            raise OperatorDomainError(
                f"iteration {k}: iterate u = {x:g} left the operator domain ({exc})"
            ) from exc
        x_next = x - omega * d
        # settled at the operator zero to machine precision
        return np.array([[x_next]]), np.array([abs(omega * d) < 1e-14 * max(1.0, abs(x_next))])

    return [_descend(objective, u0[None, :1], cfg, thresholds, step)[0] for u0 in starts]


def _fctm(objective: Objective, starts: np.ndarray, cfg: OptimizerConfig,
          thresholds: Sequence[float]) -> list[RunResult]:
    """FCTM from each row of ``starts`` (R, d) as one PECE solve of the
    flattened R*d state; the rows share the grid and the weights and are
    otherwise independent."""
    t0 = time.perf_counter()
    n_rows, d = starts.shape
    gain = cfg.gain
    # one start keeps its (d,) state: on a (1, d) stack the interpolation gradient runs
    # row-wise, 4.4-4.7 us a call for 2.9-3.2 at d = 11, 0.4 s of table1's 250 000 calls
    if n_rows == 1:
        def fde_field(u: np.ndarray) -> np.ndarray:
            return -gain * objective.gradient(u)
    else:
        def fde_field(u: np.ndarray) -> np.ndarray:
            return -gain * objective.gradient(u.reshape(n_rows, d)).reshape(-1)

    v0 = None
    if cfg.alpha > 1:
        v0 = 0.0 if cfg.v0 is None else cfg.v0
    problem = FdeProblem(alpha=cfg.alpha, field=fde_field, u0=starts.reshape(-1),
                         t_end=cfg.t_end, h=cfg.h, v0=v0)
    traj = solve_pece(problem)
    wall = (time.perf_counter() - t0) / n_rows  # an equal share per row
    nfev = traj.stats.field_evaluations  # per row: each call advances every row
    # a row's columns are a view; one row's are the whole contiguous array
    return [_wrap_result(objective, thresholds,
                         Trajectory(times=traj.times, states=traj.states[:, i * d:(i + 1) * d],
                                    stats=traj.stats), nfev, wall)
            for i in range(n_rows)]


_RUNNERS = {Method.GDM: _gdm, Method.CGM: _cgm, Method.FGDM: _fgdm, Method.FCTM: _fctm}


def run_restarts(
    objective: Objective,
    starts: np.ndarray,
    cfg: OptimizerConfig,
    thresholds: Sequence[float] = (),
) -> list[RunResult]:
    """Run ``cfg``'s method from each row of ``starts`` (R, d); one result
    per row, each equal to the one-start run of that row, with the first
    passages below ``thresholds`` and the final state as ``converged_to``.

    Each method has its runner; for every method, a row whose state, cost
    or metric is not finite raises a divergence error at that time or
    iteration.  GDM and FCTM advance all rows as one stack, so a failure
    in any row raises for the whole stack.  FCTM's history sum is a BLAS
    product over the R*d columns; with OpenBLAS on x86-64 it matched the
    one-start runs bit for bit for d = 8, 12 and 24, and to about 1e-15
    relative for d = 10.  CGM (adaptive steps would couple the rows) and
    FGDM (scalar only) run the rows one at a time.
    """
    return _RUNNERS[cfg.method](objective, np.atleast_2d(np.asarray(starts, dtype=float)),
                                cfg, thresholds)


def run_gdm(
    objective: Objective,
    u0: np.ndarray,
    cfg: OptimizerConfig,
    thresholds: Sequence[float] = (),
) -> RunResult:
    """Discrete steepest descent with fixed step size."""
    if cfg.method is not Method.GDM:
        raise ConfigError("run_gdm requires a gdm configuration")
    return run_restarts(objective, u0, cfg, thresholds)[0]


def run_fctm(
    objective: Objective,
    u0: np.ndarray,
    cfg: OptimizerConfig,
    thresholds: Sequence[float] = (),
) -> RunResult:
    """Integrate the descent flow D^alpha_t u = -gain grad f(u).

    FCTM uses the fractional predictor-corrector; a CGM configuration runs
    CGM's runner, the adaptive integer-order reference solver.  Any
    equilibrium of this flow is a stationary point of f.
    """
    if cfg.method not in (Method.FCTM, Method.CGM):
        raise ConfigError("run_fctm requires an fctm or cgm configuration")
    return run_restarts(objective, u0, cfg, thresholds)[0]


def stability_envelope_check(
    trace: Trajectory,
    u_star: np.ndarray,
    eta: float,
    alpha: float,
    slack: float = 1e-6,
) -> tuple[np.ndarray, bool]:
    """Check V(t) <= V(0) E_{alpha,1}(-eta t^alpha) + slack on the grid;
    returns V on the grid and whether the envelope held.

    V(t) = ||u(t) - u*||^2 with eta the strong-convexity constant.  The
    envelope holds for orders in (0, 1]; larger orders raise
    :class:`OrderRangeError` since the bound is not established there.  An
    ``eta`` that is not finite and > 0 raises :class:`ConfigError`.
    """
    alpha = float(alpha)
    if not 0 < alpha <= 1:
        raise OrderRangeError(f"envelope check requires alpha in (0, 1], got {alpha:g}")
    if not (math.isfinite(eta) and eta > 0):
        raise ConfigError(f"eta must be finite and > 0, got {eta!r}")
    u_star = np.atleast_1d(np.asarray(u_star, dtype=float))
    diff = trace.states - u_star[None, :]
    energies = np.sum(diff * diff, axis=1)
    v0 = float(energies[0])
    if v0 == 0.0:
        return energies, bool(np.all(energies <= slack))
    envelope = mittag_leffler(alpha, 1.0, -eta * trace.times**alpha)
    return energies, bool(np.all(energies <= v0 * envelope + slack))


def oscillation_census(v: np.ndarray) -> int:
    """Number of strict local minima of the energies ``v`` over the grid
    interior."""
    if v.size < 3:
        return 0
    interior = (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    return int(np.count_nonzero(interior))
