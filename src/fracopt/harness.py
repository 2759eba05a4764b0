"""Configuration-driven experiment runner and reproduction targets.

An experiment is a problem, a list of method configurations, first-passage
thresholds, and a restart count with a base seed.  Every (method, restart)
cell runs deterministically from derived seeds; each cell writes a trace
CSV and contributes one row to a summary CSV.  Wall-clock timings are
informational only and go to a separate sidecar file so the summary and
trace outputs are byte-identical across reruns.

``reproduce`` builds the canonical experiment for each supported target
(fig1..fig4, table1, table2) with documented defaults and emits plot-ready
CSV files.
"""

from __future__ import annotations

import configparser
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._csvfile import write_csv
from .errors import ConfigError, FracoptError
from .fracops import MemoryWindow
from .optimizers import (
    EnergyTrace,
    Method,
    OptimizerConfig,
    RunResult,
    StoppingRule,
    oscillation_census,
    run_restarts,
)
from .problems import (
    THOMSON_REFERENCE_ENERGIES,
    ThomsonSpec,
    make_quadratic,
    make_thomson,
    make_vandermonde,
    random_sphere_configuration,
)

__all__ = [
    "MethodSpec",
    "ProblemSpec",
    "ExperimentSpec",
    "SummaryRecord",
    "parse_spec_file",
    "run_experiment",
    "reproduce",
    "REPRODUCE_TARGETS",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_DIVERGED",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

# restart seeds are derived as base_seed + _SEED_STRIDE * restart
_SEED_STRIDE = 7919


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    c: float = 3.0
    u0: tuple[float, ...] | None = None
    degree: int = 10
    charges: int = 4
    target_rule: str = "alternating"

    def __post_init__(self) -> None:
        if self.kind not in ("quadratic", "vandermonde", "thomson"):
            raise ConfigError(f"unknown problem kind: {self.kind!r}")
        if self.target_rule not in ("alternating", "dominant-modes"):
            raise ConfigError(f"unknown target rule: {self.target_rule!r}")
        if self.charges < 2:
            raise ConfigError(f"charges must be >= 2, got {self.charges}")
        if self.degree < 1:
            raise ConfigError(f"degree must be >= 1, got {self.degree}")
        size = {"quadratic": 1, "vandermonde": self.degree + 1}.get(self.kind, 0)
        if self.u0 is not None and len(self.u0) != size:
            raise ConfigError(f"{self.kind} takes {size} u0 value(s), got {len(self.u0)}")


@dataclass(frozen=True)
class MethodSpec:
    label: str
    cfg: OptimizerConfig
    k_max: int | None = None
    epsilon: float | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    problem: ProblemSpec
    methods: tuple[MethodSpec, ...]
    thresholds: tuple[float, ...] = (0.1, 0.01, 0.001)
    restarts: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigError("an experiment needs at least one method entry")
        # output files are named <name>__<label>__r<restart>.csv
        for part in (self.name, *(m.label for m in self.methods)):
            if not part or "/" in part or "\\" in part:
                raise ConfigError(f"name or label {part!r} is empty or contains '/' or '\\'")
        # every cell's StoppingRule gets these thresholds; it owns their rule
        object.__setattr__(self, "thresholds", StoppingRule(thresholds=self.thresholds).thresholds)
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        # comparisons are only meaningful at matched horizons
        horizons = {m.cfg.t_end for m in self.methods if m.cfg.t_end is not None}
        if len(horizons) > 1:
            raise ConfigError(
                f"continuous methods must share one horizon, got {sorted(horizons)}"
            )


@dataclass(frozen=True)
class SummaryRecord:
    problem: str
    label: str
    method: str
    alpha: float
    gain: float
    restart: int
    passages: dict[float, float | None]
    final_metric: float
    ratio_vs_alpha1: float | None
    field_evaluations: int
    status: str
    wall_seconds: float
    # the cell's full result (None if it diverged), for targets that post-process it
    result: RunResult | None = field(default=None, compare=False, repr=False)


def _sign_normalized_svd(matrix: np.ndarray):
    """SVD with each right singular vector's largest-|entry| made positive,
    so the decomposition is reproducible across BLAS builds."""
    u, s, vt = np.linalg.svd(matrix)
    for i in range(vt.shape[0]):
        j = int(np.argmax(np.abs(vt[i])))
        if vt[i, j] < 0:
            vt[i] = -vt[i]
            u[:, i] = -u[:, i]
    return u, s, vt


def dominant_mode_target(degree: int) -> np.ndarray:
    """Table-1 target generator: the best-conditioned right singular
    direction of X plus a small admixture of the slow sigma~0.13 mode.

    Smooth right-hand sides concentrate on the dominant singular
    directions (discrete Picard condition); a target with order-one weight
    on the near-null modes would freeze the residual for every order and
    erase the decay contrasts the comparison is about.  The dominant-mode
    weight 0.7 is sized so the first oscillation dip of the order-1.4 flow
    crosses the 0.1 passage threshold; the slow mode enters at 0.1.
    """
    _, spec = make_vandermonde(degree)
    _, _, vt = _sign_normalized_svd(spec.matrix)
    return 0.7 * vt[0] + 0.1 * vt[3]


def _build_problem(pspec: ProblemSpec, restarts, base_seed: int):
    """Returns (objective, starts), one start row per restart in ``restarts``."""
    if pspec.kind == "quadratic":
        obj = make_quadratic(pspec.c)
        u0 = np.array(pspec.u0 if pspec.u0 is not None else [1.0])
    elif pspec.kind == "vandermonde":
        dominant = pspec.target_rule == "dominant-modes"
        obj, _ = make_vandermonde(
            pspec.degree, u_true=dominant_mode_target(pspec.degree) if dominant else None)
        u0 = np.array(pspec.u0) if pspec.u0 is not None else np.zeros(pspec.degree + 1)
    else:
        obj, _ = make_thomson(pspec.charges)
        return obj, np.array([
            random_sphere_configuration(pspec.charges, seed=base_seed + _SEED_STRIDE * r)
            for r in restarts])
    return obj, np.tile(u0, (len(restarts), 1))


def _run_method(spec: ExperimentSpec, mspec: MethodSpec) -> list[RunResult | FracoptError]:
    """All restarts of one method as one stacked run.  If the stack fails,
    its restarts rerun one by one, so each failure is recorded in its own
    cell and the other restarts still complete."""
    stop = StoppingRule(epsilon=mspec.epsilon, k_max=mspec.k_max, thresholds=spec.thresholds)

    def solve(restarts):
        objective, starts = _build_problem(spec.problem, restarts, spec.base_seed)
        return run_restarts(objective, starts, mspec.cfg, stop)

    try:
        return solve(range(spec.restarts))
    except FracoptError as exc:
        if spec.restarts == 1:
            return [exc]
    outcomes: list[RunResult | FracoptError] = []
    for restart in range(spec.restarts):
        try:
            outcomes.extend(solve([restart]))
        except FracoptError as exc:
            outcomes.append(exc)
    return outcomes


def _write_summary(path: Path, records: list[SummaryRecord],
                   thresholds: tuple[float, ...], header_note: str | None = None) -> None:
    cols = ["problem", "label", "method", "alpha", "gain", "restart"]
    cols += [f"t_below_{t:g}" for t in thresholds]
    cols += ["final_metric", "ratio_vs_alpha1", "field_evaluations", "status"]
    write_csv(path, cols, (
        [r.problem, r.label, r.method, r.alpha, r.gain, r.restart]
        + [r.passages.get(t) for t in thresholds]
        + [r.final_metric, r.ratio_vs_alpha1, r.field_evaluations, r.status]
        for r in records
    ), header_note)


def run_experiment(
    spec: ExperimentSpec, out_dir: str | Path, workers: int = 1
) -> tuple[list[SummaryRecord], int]:
    """Execute every (method, restart) cell and write summary/trace CSVs.

    Each method runs its restarts as one stacked job (see
    :func:`run_restarts`); ``workers`` > 1 runs methods on threads.  A
    diverging cell is recorded with its error and does not abort the
    batch; the returned exit code is EXIT_DIVERGED if any cell failed,
    EXIT_OK otherwise.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_method = list(pool.map(lambda m: _run_method(spec, m), spec.methods))
    else:
        per_method = [_run_method(spec, m) for m in spec.methods]

    # alpha = 1 baseline metric per restart, for the ratio column
    first_alpha1 = next((i for i, m in enumerate(spec.methods) if m.cfg.alpha == 1.0), None)
    baseline = {} if first_alpha1 is None else {
        restart: outcome.final_metric
        for restart, outcome in enumerate(per_method[first_alpha1])
        if isinstance(outcome, RunResult)}

    records: list[SummaryRecord] = []
    exit_code = EXIT_OK
    cells = [(mspec, restart, outcome) for mspec, outcomes in zip(spec.methods, per_method)
             for restart, outcome in enumerate(outcomes)]
    for mspec, restart, result in cells:
        cfg = mspec.cfg
        cell = dict(problem=spec.problem.kind, label=mspec.label, method=cfg.method.value,
                    alpha=cfg.alpha, gain=cfg.omega if cfg.omega is not None else cfg.gain,
                    restart=restart)
        if not isinstance(result, RunResult):
            exit_code = EXIT_DIVERGED
            records.append(SummaryRecord(
                **cell, passages={t: None for t in spec.thresholds},
                final_metric=math.nan, ratio_vs_alpha1=None,
                field_evaluations=0, status=f"diverged: {result}", wall_seconds=0.0,
            ))
            continue
        base = baseline.get(restart)
        ratio = (base / result.final_metric) if base is not None and result.final_metric > 0 else None
        records.append(SummaryRecord(
            **cell, passages={t: result.first_passage.get(t) for t in spec.thresholds},
            final_metric=result.final_metric, ratio_vs_alpha1=ratio,
            field_evaluations=result.cost.field_evaluations,
            status="completed", wall_seconds=result.cost.wall_seconds, result=result,
        ))
        trace_path = out / f"{spec.name}__{mspec.label}__r{restart}.csv"
        if result.trace is not None:
            result.trace.to_csv(trace_path)
        else:
            result.iterations.to_csv(trace_path)

    records.sort(key=lambda r: (r.alpha, r.label, r.restart))
    _write_summary(out / f"{spec.name}__summary.csv", records, spec.thresholds)
    write_csv(out / f"{spec.name}__timing.csv", ["label", "restart", "wall_seconds"],
              ((r.label, r.restart, f"{r.wall_seconds:.6f}") for r in records))
    return records, exit_code


# ---------------------------------------------------------------------------
# config file parsing (flat key-value sections)

_METHOD_KEYS = {
    "method", "alpha", "omega", "gain", "h", "t_end", "v0", "operator",
    "window_lower", "window_length", "window_step", "k_max", "epsilon",
}


def _parse_method_section(label: str, section) -> MethodSpec:
    unknown = set(section) - _METHOD_KEYS
    if unknown:
        raise ConfigError(f"[{label}]: unknown keys {sorted(unknown)}")
    try:
        method = Method.parse(section.get("method", ""))
        alpha = section.getfloat("alpha", 1.0)
        kwargs = dict(method=method, alpha=alpha)
        for key in ("omega", "gain", "h", "t_end", "v0"):
            if key in section:
                kwargs[key] = section.getfloat(key)
        if method is Method.FGDM:
            kwargs["fgdm_operator"] = section.get("operator", "caputo")
            kwargs["window"] = MemoryWindow(
                lower_limit=section.getfloat("window_lower", 0.0),
                memory_length=section.getfloat("window_length", math.inf),
                step=section.getfloat("window_step", 1e-5),
            )
        cfg = OptimizerConfig(**kwargs)
        k_max = section.getint("k_max") if "k_max" in section else None
        epsilon = section.getfloat("epsilon") if "epsilon" in section else None
        return MethodSpec(label=label, cfg=cfg, k_max=k_max, epsilon=epsilon)
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"[{label}]: {exc}") from exc


def parse_spec_file(path: str | Path) -> ExperimentSpec:
    """Parse the INI-style experiment description documented in the README:
    one [experiment] section plus one [method.<label>] section per entry."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed spec file: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read spec file: {path}")
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    try:
        pspec = ProblemSpec(
            kind=exp.get("problem", ""),
            c=exp.getfloat("c", 3.0),
            u0=tuple(float(x) for x in exp.get("u0", "").split(",")) if exp.get("u0") else None,
            degree=exp.getint("degree", 10),
            charges=exp.getint("charges", 4),
            target_rule=exp.get("target_rule", "alternating"),
        )
        thr_text = exp.get("thresholds", "0.1,0.01,0.001").strip()
        thresholds = tuple(float(x) for x in thr_text.split(",")) if thr_text else ()
        methods = tuple(
            _parse_method_section(name.split(".", 1)[1], parser[name])
            for name in parser.sections()
            if name.startswith("method.")
        )
        return ExperimentSpec(
            name=exp.get("name", Path(path).stem),
            problem=pspec,
            methods=methods,
            thresholds=thresholds,
            restarts=exp.getint("restarts", 1),
            base_seed=exp.getint("seed", 0),
        )
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"[experiment]: {exc}") from exc


# ---------------------------------------------------------------------------
# canonical reproduction targets

def _fctm(label, alpha, gain, h, t_end, v0=None):
    return MethodSpec(label=label, cfg=OptimizerConfig(
        method=Method.FCTM, alpha=alpha, gain=gain, h=h, t_end=t_end, v0=v0))


def _quadratic_spec(name: str, methods: tuple[MethodSpec, ...], seed: int,
                    **kwargs) -> ExperimentSpec:
    """The figures' shared problem: (u - 3)^2 started from u = 1."""
    return ExperimentSpec(name=name, problem=ProblemSpec(kind="quadratic", c=3.0, u0=(1.0,)),
                          methods=methods, base_seed=seed, **kwargs)


def _reproduce_fig1(out: Path, seed: int, workers: int):
    # one-dimensional quadratic, all rules side by side at order 0.9
    window = MemoryWindow(lower_limit=0.0)
    methods = (
        MethodSpec("gdm", OptimizerConfig(method=Method.GDM, omega=0.05), k_max=400),
        MethodSpec("fgdm-rl-a0.9", OptimizerConfig(
            method=Method.FGDM, alpha=0.9, omega=0.05, fgdm_operator="rl", window=window),
            k_max=400),
        MethodSpec("fgdm-caputo-a0.9", OptimizerConfig(
            method=Method.FGDM, alpha=0.9, omega=0.05, fgdm_operator="caputo", window=window),
            k_max=400),
        _fctm("fctm-a0.9", 0.9, gain=1.0, h=1e-3, t_end=20.0),
    )
    return run_experiment(_quadratic_spec("fig1", methods, seed), out, workers)


def _reproduce_fig2(out: Path, seed: int, workers: int):
    # order sweep on the quadratic; gain 0.1 reproduces the reported
    # passage times (t ~ 8.4 at order 1.2 vs ~ 32.5 at order 1)
    alphas = (0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 1.7)
    methods = tuple(_fctm(f"fctm-a{a:g}", a, gain=0.1, h=2e-3, t_end=50.0) for a in alphas)
    spec = _quadratic_spec("fig2", methods, seed, thresholds=(0.1, 0.01, 3e-3))
    return run_experiment(spec, out, workers)


def _reproduce_fig3(out: Path, seed: int, workers: int):
    # orders above 1 with both initial-derivative choices
    methods = tuple(
        _fctm(f"fctm-a{a:g}-v{v:g}", a, gain=1.0, h=2e-3, t_end=20.0, v0=v)
        for a in (1.2, 1.5, 1.7)
        for v in (0.0, 0.5)
    )
    return run_experiment(_quadratic_spec("fig3", methods, seed), out, workers)


def _reproduce_fig4(out: Path, seed: int, workers: int):
    # squared-error traces: monotone decay up to order 1, damped
    # oscillations beyond
    alphas = (0.9, 1.0, 1.2, 1.5, 1.7)
    methods = tuple(_fctm(f"fctm-a{a:g}", a, gain=1.0, h=2e-3, t_end=20.0) for a in alphas)
    spec = _quadratic_spec("fig4", methods, seed)
    records, code = run_experiment(spec, out, workers)
    census_rows = []
    for r in records:  # in order of alpha, as listed
        if r.result is None:
            continue  # diverged; the summary row says why
        diff = r.result.trace.states - 3.0
        energy = EnergyTrace(times=r.result.trace.times, energies=np.sum(diff * diff, axis=1))
        energy.to_csv(out / f"fig4__energy__{r.label}.csv")
        census_rows.append((r.label, r.alpha, oscillation_census(energy)))
    write_csv(out / "fig4__census.csv", ["label", "alpha", "local_minima"], census_rows)
    return records, code


# table-1 defaults: dominant-mode target, start at the origin, gain 0.001,
# horizon 50000 at step 2.0 (full-memory cost stays desk-scale); the
# fde mesh pairing reported alongside the original table (t = 1500 at
# h = 1e-5) would need 1.5e8 full-memory steps and is not feasible.
TABLE1_HORIZON = 50000.0
TABLE1_H = 2.0
TABLE1_ALPHAS = (0.8, 1.0, 1.2, 1.4, 1.6)


def _reproduce_table1(out: Path, seed: int, workers: int):
    methods = tuple(
        _fctm(f"fctm-a{a:g}", a, gain=0.001, h=TABLE1_H, t_end=TABLE1_HORIZON)
        for a in TABLE1_ALPHAS
    )
    spec = ExperimentSpec(
        name="table1",
        problem=ProblemSpec(kind="vandermonde", degree=10, target_rule="dominant-modes"),
        methods=methods, thresholds=(0.1, 0.01, 0.001), base_seed=seed,
    )
    records, code = run_experiment(spec, out, workers)
    note = (f"residual-vs-order comparison; horizon={TABLE1_HORIZON:g} h={TABLE1_H:g} "
            f"gain=0.001 target=dominant-modes u0=0; empty passage cells mean "
            f"'not reached within horizon'")
    _write_summary(out / "table1__summary.csv", records, spec.thresholds, header_note=note)
    return records, code


# table-2 defaults: documented feasible pairing of horizon and mesh
TABLE2_T_END = 30.0
TABLE2_H = 0.005
TABLE2_GDM_OMEGA = 0.005
TABLE2_GDM_KMAX = 6000
TABLE2_RESTARTS = 10


def _table2_best(n: int, methods: tuple[MethodSpec, ...], records: list[SummaryRecord],
                 out: Path) -> list[tuple]:
    """Best completed restart of each method at N charges, plus the final
    geometry of the best FCTM restart."""
    rows = []
    for mspec in methods:
        group = [r for r in records if r.label == mspec.label and r.status == "completed"]
        if not group:
            continue  # every restart diverged; the summary rows say why
        best = min(group, key=lambda r: r.final_metric)
        ref = THOMSON_REFERENCE_ENERGIES[n]
        rows.append((n, mspec.label, ref, best.final_metric,
                     (best.final_metric - ref) / ref, best.restart,
                     sum(r.field_evaluations for r in group)))
        if mspec.cfg.method is Method.FCTM:
            # final geometry of the best fractional run, for external viewing
            ThomsonSpec(n).to_csv(best.result.converged_to, out / f"table2__geometry_n{n}.csv")
    return rows


def _reproduce_table2(out: Path, seed: int, workers: int):
    all_records: list[SummaryRecord] = []
    code = EXIT_OK
    best_rows = []
    for n in (4, 5, 6, 12):
        methods = (
            MethodSpec("gdm", OptimizerConfig(method=Method.GDM, omega=TABLE2_GDM_OMEGA),
                       k_max=TABLE2_GDM_KMAX),
            _fctm("fctm-a0.7", 0.7, gain=1.0, h=TABLE2_H, t_end=TABLE2_T_END),
        )
        spec = ExperimentSpec(
            name=f"table2_n{n}", problem=ProblemSpec(kind="thomson", charges=n),
            methods=methods, thresholds=(), restarts=TABLE2_RESTARTS, base_seed=seed,
        )
        records, c = run_experiment(spec, out, workers)
        code = max(code, c)
        best_rows.extend(_table2_best(n, methods, records, out))
        # drop this N's traces before the next N runs
        records = [replace(r, result=None) for r in records]
        all_records.extend(records)
    note = (f"best of {TABLE2_RESTARTS} seeded restarts; gdm: omega={TABLE2_GDM_OMEGA:g} "
            f"k_max={TABLE2_GDM_KMAX}; fctm: alpha=0.7 gain=1 h={TABLE2_H:g} "
            f"t_end={TABLE2_T_END:g}; reference wall times are hardware-bound and not "
            f"reproduced, field-evaluation totals reported instead")
    write_csv(out / "table2__best.csv",
              ["charges", "label", "reference_energy", "best_energy", "relative_excess",
               "best_restart", "total_field_evaluations"], best_rows, note)
    return all_records, code


REPRODUCE_TARGETS = {
    "fig1": _reproduce_fig1,
    "fig2": _reproduce_fig2,
    "fig3": _reproduce_fig3,
    "fig4": _reproduce_fig4,
    "table1": _reproduce_table1,
    "table2": _reproduce_table2,
}


def reproduce(target: str, out_dir: str | Path, seed: int = 0, workers: int = 1):
    """Run the canonical experiment for a named target; see
    REPRODUCE_TARGETS for the recognized names."""
    if target not in REPRODUCE_TARGETS:
        raise ConfigError(
            f"unknown target {target!r}; expected one of {sorted(REPRODUCE_TARGETS)}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return REPRODUCE_TARGETS[target](out, seed, workers)
