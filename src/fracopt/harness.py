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
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ._csvfile import write_csv
from .errors import ConfigError, FracoptError
from .fracops import MemoryWindow
from .optimizers import (
    _PARAMETERS,
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

# the ProblemSpec fields each problem kind takes, besides its kind, with their
# defaults (an empty u0 is the default start); other kinds' fields stay None
_PROBLEM_FIELDS = {"quadratic": {"c": 3.0, "u0": None},
                   "vandermonde": {"degree": 10, "target_rule": "alternating", "u0": None},
                   "thomson": {"charges": 4}}


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    c: float | None = None
    u0: tuple[float, ...] | None = None
    degree: int | None = None
    charges: int | None = None
    target_rule: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _PROBLEM_FIELDS:
            raise ConfigError(f"unknown problem: {self.kind!r}")
        takes = _PROBLEM_FIELDS[self.kind]
        for name in sorted(f.name for f in fields(self)[1:]):  # the first foreign key by name
            if name not in takes and getattr(self, name) is not None:
                raise ConfigError(f"{name} is not a {self.kind} key")
            if getattr(self, name) in (None, ()):  # the kind's default, or None
                object.__setattr__(self, name, takes.get(name))
        if self.target_rule not in (None, "alternating", "dominant-modes"):
            raise ConfigError(f"unknown target rule: {self.target_rule!r}")
        if self.kind == "thomson" and self.charges < 2:
            raise ConfigError(f"charges must be >= 2, got {self.charges}")
        if self.kind == "vandermonde" and self.degree < 1:
            raise ConfigError(f"degree must be >= 1, got {self.degree}")
        if self.target_rule == "dominant-modes" and self.degree < 3:  # it mixes in the fourth mode
            raise ConfigError(f"the dominant-modes target needs degree >= 3, got {self.degree}")
        if self.kind == "quadratic" and not math.isfinite(self.c):
            raise ConfigError(f"c must be finite, got {self.c}")
        if self.u0 is not None:
            if not all(map(math.isfinite, self.u0)):
                raise ConfigError(f"u0 values must be finite, got {self.u0}")
            size = 1 if self.kind == "quadratic" else self.degree + 1
            if len(self.u0) != size:
                raise ConfigError(f"{self.kind} takes {size} u0 value(s), got {len(self.u0)}")


@dataclass(frozen=True)
class MethodSpec:
    label: str
    cfg: OptimizerConfig
    k_max: int | None = None
    epsilon: float | None = None

    def __post_init__(self) -> None:
        # each cell's StoppingRule gets these; it owns their rule
        StoppingRule(epsilon=self.epsilon, k_max=self.k_max)


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
        labels = [m.label for m in self.methods]
        for part in (self.name, *labels):
            if not part or "/" in part or "\\" in part:
                raise ConfigError(f"name or label {part!r} is empty or contains '/' or '\\'")
        if dups := sorted({label for label in labels if labels.count(label) > 1}):
            raise ConfigError(f"label {dups[0]!r} names more than one method")
        # every cell's StoppingRule gets these thresholds; it owns their rule
        object.__setattr__(self, "thresholds", StoppingRule(thresholds=self.thresholds).thresholds)
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.base_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.base_seed}")
        if self.problem.kind != "quadratic" and any(
                m.cfg.method is Method.FGDM for m in self.methods):
            raise ConfigError(f"fgdm takes the quadratic problem only, not {self.problem.kind}")
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
    _, _, vt = np.linalg.svd(spec.matrix)
    # largest |entry| of each right singular vector made positive, for any BLAS build
    vt *= np.sign(vt[np.arange(len(vt)), np.abs(vt).argmax(axis=1)])[:, None]
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
    cell and the other restarts still complete.  An error is kept without
    its traceback, whose frames would hold the solver's arrays."""
    stop = StoppingRule(epsilon=mspec.epsilon, k_max=mspec.k_max, thresholds=spec.thresholds)

    def solve(restarts):
        objective, starts = _build_problem(spec.problem, restarts, spec.base_seed)
        return run_restarts(objective, starts, mspec.cfg, stop)

    try:
        return solve(range(spec.restarts))
    except FracoptError as exc:
        if spec.restarts == 1:
            return [exc.with_traceback(None)]
    outcomes: list[RunResult | FracoptError] = []
    for restart in range(spec.restarts):
        try:
            outcomes.extend(solve([restart]))
        except FracoptError as exc:
            outcomes.append(exc.with_traceback(None))
    return outcomes


def _write_summary(path: Path, records: list[SummaryRecord],
                   thresholds: tuple[float, ...], header_note: str | None) -> None:
    cols = ["problem", "label", "method", "alpha", "gain", "restart"]
    cols += [f"t_below_{t:g}" for t in thresholds]
    cols += ["final_metric", "ratio_vs_alpha1", "field_evaluations", "status"]
    write_csv(path, cols, (
        [r.problem, r.label, r.method, r.alpha, r.gain, r.restart]
        + [r.passages.get(t) for t in thresholds]
        + [r.final_metric, r.ratio_vs_alpha1, r.field_evaluations, r.status]
        for r in records
    ), header_note)


def _write_method(out: Path, spec: ExperimentSpec, mspec: MethodSpec,
                  outcomes: list[RunResult | FracoptError],
                  on_result: Callable[[str, int, RunResult], None] | None,
                  ) -> list[SummaryRecord]:
    """Write one method's trace CSVs, pass each completed cell to
    ``on_result``, and return one summary record per cell, without its
    ``ratio_vs_alpha1``; no record holds a trace."""
    cfg = mspec.cfg
    records = []
    for restart, outcome in enumerate(outcomes):
        cell = dict(problem=spec.problem.kind, label=mspec.label, method=cfg.method.value,
                    alpha=cfg.alpha, gain=cfg.omega if cfg.omega is not None else cfg.gain,
                    restart=restart, ratio_vs_alpha1=None)
        if not isinstance(outcome, RunResult):
            records.append(SummaryRecord(
                **cell, passages={t: None for t in spec.thresholds}, final_metric=math.nan,
                field_evaluations=0, status=f"diverged: {outcome}", wall_seconds=0.0))
            continue
        (outcome.trace or outcome.iterations).to_csv(
            out / f"{spec.name}__{mspec.label}__r{restart}.csv")
        if on_result is not None:
            on_result(mspec.label, restart, outcome)
        records.append(SummaryRecord(
            **cell, passages={t: outcome.first_passage.get(t) for t in spec.thresholds},
            final_metric=outcome.final_metric, field_evaluations=outcome.field_evaluations,
            status="completed", wall_seconds=outcome.wall_seconds))
    return records


def run_experiment(
    spec: ExperimentSpec, out_dir: str | Path, workers: int = 1,
    on_result: Callable[[str, int, RunResult], None] | None = None,
    header_note: str | None = None,
) -> tuple[list[SummaryRecord], int]:
    """Execute every (method, restart) cell and write summary/trace CSVs.

    Each method runs its restarts as one stacked job (see
    :func:`run_restarts`); ``workers`` > 1 runs methods on threads, and
    ``workers`` < 1 is a configuration error, raised before ``out_dir`` is
    made.  A method's trace CSVs are written as soon as its job ends, in
    the order of ``spec.methods``; then ``on_result(label, restart, result)``
    sees each completed cell with its trace, and the cell becomes a
    :class:`SummaryRecord`, which holds no result.  ``ratio_vs_alpha1``
    divides the final metric of the first order-1 method by each cell's,
    per restart; ``header_note``, if given, heads the summary CSV.  A
    diverging cell is recorded with its error and does not abort the
    batch; the returned exit code is EXIT_DIVERGED if any cell failed,
    EXIT_OK otherwise.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {str(out)!r}: {exc.strerror}") from None

    def run_and_write(lazy_map) -> list[list[SummaryRecord]]:
        runs = lazy_map(lambda m: _run_method(spec, m), spec.methods)
        # next(runs) is only an argument, so no name keeps a method's
        # trajectories alive while the next method runs
        return [_write_method(out, spec, mspec, next(runs), on_result) for mspec in spec.methods]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only threaded runs load it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_method = run_and_write(pool.map)
    else:
        per_method = run_and_write(map)

    # alpha = 1 baseline metric per restart, for the ratio column
    alpha1 = next((recs for m, recs in zip(spec.methods, per_method) if m.cfg.alpha == 1.0), [])
    baseline = {r.restart: r.final_metric for r in alpha1 if r.status == "completed"}
    records = [replace(r, ratio_vs_alpha1=baseline[r.restart] / r.final_metric)
               if r.restart in baseline and r.final_metric > 0 else r
               for recs in per_method for r in recs]
    records.sort(key=lambda r: (r.alpha, r.label, r.restart))
    _write_summary(out / f"{spec.name}__summary.csv", records, spec.thresholds, header_note)
    write_csv(out / f"{spec.name}__timing.csv", ["label", "restart", "wall_seconds"],
              ((r.label, r.restart, f"{r.wall_seconds:.6f}") for r in records))
    diverged = any(r.status != "completed" for r in records)
    return records, EXIT_DIVERGED if diverged else EXIT_OK


# ---------------------------------------------------------------------------
# config file parsing (flat key-value sections)

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",")) if text else ()


# Every spec key, per section kind: key -> (the object it sets, that
# object's field, converter).  The objects own the rules on the values.
_EXPERIMENT_KEYS = {
    "name": (ExperimentSpec, "name", str),
    "problem": (ProblemSpec, "kind", str),
    "c": (ProblemSpec, "c", float),
    "u0": (ProblemSpec, "u0", _floats),  # empty: the default start
    "degree": (ProblemSpec, "degree", int),
    "target_rule": (ProblemSpec, "target_rule", str),
    "charges": (ProblemSpec, "charges", int),
    "thresholds": (ExperimentSpec, "thresholds", _floats),
    "restarts": (ExperimentSpec, "restarts", int),
    "seed": (ExperimentSpec, "base_seed", int),
}
_METHOD_KEYS = {
    "method": (OptimizerConfig, "method", str),
    "alpha": (OptimizerConfig, "alpha", float),
    "gain": (OptimizerConfig, "gain", float),
    "omega": (OptimizerConfig, "omega", float),
    "h": (OptimizerConfig, "h", float),
    "t_end": (OptimizerConfig, "t_end", float),
    "v0": (OptimizerConfig, "v0", float),
    "operator": (OptimizerConfig, "fgdm_operator", str),
    "window_lower": (MemoryWindow, "lower_limit", float),
    "window_length": (MemoryWindow, "memory_length", float),
    "k_max": (MethodSpec, "k_max", int),
    "epsilon": (MethodSpec, "epsilon", float),
}


def _read_section(parser: configparser.ConfigParser, name: str, table: dict,
                  build: Callable[[str, dict], object]):
    """Convert section ``name`` by ``table`` and return ``build(name, kwargs)``,
    where ``kwargs`` maps each object in the table to the fields the section
    sets.  A key missing from the table, and every error, names the section,
    and an error names each field by its key."""
    section = parser[name]
    try:
        unknown = sorted(set(section) - table.keys())
        if unknown:
            raise ConfigError(f"unknown keys {unknown}")
        kwargs = {target: {} for target, _, _ in table.values()}
        for key, text in section.items():
            target, field_name, convert = table[key]
            kwargs[target][field_name] = convert(text)
        return build(name, kwargs)
    except (ValueError, configparser.Error) as exc:
        # quoted text is a value as the file wrote it, left as it is
        keys = {field_name: key for key, (_, field_name, _) in table.items()}
        message = re.sub(r"'[^']*'|\w+", lambda m: keys.get(m[0], m[0]), str(exc))
        raise ConfigError(f"[{name}]: {message}") from exc


def _method_spec(name: str, kwargs: dict) -> MethodSpec:
    cfg = kwargs[OptimizerConfig]
    # a section without `method =` reads as empty text, which the parse rejects
    method = cfg["method"] = Method.parse(cfg.get("method", ""))
    # OptimizerConfig's rule, checked here to name the key rather than its field
    need, optional = _PARAMETERS[method]
    takes = {"method", "alpha", *need, *optional}
    for key, (target, field_name, _) in _METHOD_KEYS.items():
        parameter = "window" if target is MemoryWindow else field_name
        if target is not MethodSpec and field_name in kwargs[target] and parameter not in takes:
            raise ConfigError(f"{key} is not a {method.value} key")
    if method is Method.FGDM:  # FGDM's defaults
        cfg.setdefault("fgdm_operator", "caputo")
        cfg["window"] = MemoryWindow(**kwargs[MemoryWindow])
    return MethodSpec(name.removeprefix("method."), OptimizerConfig(**cfg), **kwargs[MethodSpec])


def parse_spec_file(path: str | Path) -> ExperimentSpec:
    """Parse the INI-style experiment description documented in the README:
    one [experiment] section plus one [method.<label>] section per entry.
    An unknown section or key is a configuration error."""
    # no section is configparser's default one, whose keys it would copy
    # into every other: [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(default_section="")
    try:
        read = parser.read(str(path), encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed spec file: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read spec file: {path}")
    sections = parser.sections()
    unknown = [s for s in sections if s != "experiment" and not s.startswith("method.")]
    if unknown:
        raise ConfigError(f"unknown sections {unknown}; expected [experiment] and [method.<label>]")
    if "experiment" not in sections:
        raise ConfigError("missing [experiment] section")
    methods = tuple(_read_section(parser, s, _METHOD_KEYS, _method_spec)
                    for s in sections if s != "experiment")
    return _read_section(parser, "experiment", _EXPERIMENT_KEYS, lambda _, kwargs: ExperimentSpec(
        # a missing `problem =` is an empty, unknown kind, which ProblemSpec names
        problem=ProblemSpec(**{"kind": "", **kwargs[ProblemSpec]}), methods=methods,
        **{"name": Path(path).stem, **kwargs[ExperimentSpec]}))


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
    # one-dimensional quadratic: GDM, FGDM (RL and Caputo) and FCTM at order 0.9
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
    alpha_of = {m.label: m.cfg.alpha for m in methods}
    census_rows = []

    def energy_trace(label: str, _restart: int, result: RunResult) -> None:
        # completed cells only, in order of alpha, as listed; a diverged
        # cell's summary row says why it is missing
        diff = result.trace.states - 3.0
        energies = np.sum(diff * diff, axis=1)
        write_csv(out / f"fig4__energy__{label}.csv", ["t", "V"],
                  zip(result.trace.times.tolist(), energies.tolist()))
        census_rows.append((label, alpha_of[label], oscillation_census(energies)))

    records, code = run_experiment(_quadratic_spec("fig4", methods, seed), out, workers,
                                   on_result=energy_trace)
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
    note = (f"residual-vs-order comparison; horizon={TABLE1_HORIZON:g} h={TABLE1_H:g} "
            f"gain=0.001 target=dominant-modes u0=0; empty passage cells mean "
            f"'not reached within horizon'")
    return run_experiment(spec, out, workers, header_note=note)


# table-2 defaults: documented feasible pairing of horizon and mesh
TABLE2_T_END = 30.0
TABLE2_H = 0.005
TABLE2_GDM_OMEGA = 0.005
TABLE2_GDM_KMAX = 6000
TABLE2_RESTARTS = 10


def _table2_best(n: int, methods: tuple[MethodSpec, ...], records: list[SummaryRecord],
                 geometry: dict[tuple[str, int], np.ndarray], out: Path) -> list[tuple]:
    """Best completed restart of each method at N charges, plus the final
    geometry of the best FCTM restart, from ``geometry[label, restart]``."""
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
            xyz = ThomsonSpec(n).cartesian(geometry[mspec.label, best.restart])
            write_csv(out / f"table2__geometry_n{n}.csv", ["i", "x", "y", "z"],
                      ([i, *row] for i, row in enumerate(xyz.tolist())))
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
        geometry = {}  # the final state of each completed cell

        def keep_geometry(label: str, restart: int, result: RunResult) -> None:
            geometry[label, restart] = result.converged_to

        records, c = run_experiment(spec, out, workers, on_result=keep_geometry)
        code = max(code, c)
        best_rows.extend(_table2_best(n, methods, records, geometry, out))
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
    # run_experiment makes the directory once the target's spec is valid
    return REPRODUCE_TARGETS[target](Path(out_dir), seed, workers)
