from __future__ import annotations

import configparser
import contextlib
import csv
import io
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracopt.harness as harness
from fracopt import _selfcheck
from fracopt._csvfile import _cell, write_csv
from fracopt.cli import main
from fracopt.errors import ConfigError, IterationDivergenceError, SampleRetryError, SolverDivergenceError
from fracopt.harness import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    ExperimentSpec,
    MethodSpec,
    ProblemSpec,
    dominant_mode_target,
    parse_spec_file,
    run_experiment,
)
from fracopt.optimizers import Method, OptimizerConfig
from fracopt.problems import random_sphere_configuration

SPECS = Path(__file__).resolve().parents[1] / "specs"

QUAD_SPEC_TEXT = """
[experiment]
name = demo
problem = quadratic
c = 3.0
u0 = 1.0
thresholds = 0.1, 0.01
seed = 5

[method.gdm]
method = gdm
omega = 0.1
k_max = 200

[method.fctm-a1.2]
method = fctm
alpha = 1.2
gain = 0.1
h = 0.01
t_end = 12.0
v0 = 0.0
"""


def small_spec(name="small", restarts=1):
    methods = (
        MethodSpec("gdm", OptimizerConfig(method=Method.GDM, omega=0.1), k_max=200),
        MethodSpec("fctm-a1.2", OptimizerConfig(
            method=Method.FCTM, alpha=1.2, gain=0.1, h=0.01, t_end=12.0, v0=0.0)),
    )
    return ExperimentSpec(
        name=name, problem=ProblemSpec(kind="quadratic", c=3.0, u0=(1.0,)),
        methods=methods, thresholds=(0.1, 0.01), restarts=restarts, base_seed=5,
    )


def count_fctm_stacks(monkeypatch) -> list:
    """Patch the harness's run_restarts to record the number of starts of
    each FCTM call; returns that list."""
    calls = []
    run_restarts = harness.run_restarts

    def counted(objective, starts, cfg, stop):
        if cfg.method is Method.FCTM:
            calls.append(len(starts))
        return run_restarts(objective, starts, cfg, stop)

    monkeypatch.setattr(harness, "run_restarts", counted)
    return calls


def thomson_spec(n: int, restarts: int = 3) -> ExperimentSpec:
    methods = (
        MethodSpec("gdm", OptimizerConfig(method=Method.GDM, omega=0.005), k_max=300),
        MethodSpec("fctm-a0.7", OptimizerConfig(
            method=Method.FCTM, alpha=0.7, gain=1.0, h=0.005, t_end=1.5)),
    )
    return ExperimentSpec(name=f"th{n}", problem=ProblemSpec(kind="thomson", charges=n),
                          methods=methods, thresholds=(50.0, 4.0), restarts=restarts,
                          base_seed=11)


def one_by_one(monkeypatch) -> None:
    """Patch the harness's run_restarts to solve each start on its own."""
    run_restarts = harness.run_restarts

    def single(objective, starts, cfg, stop):
        return [run_restarts(objective, u0[None, :], cfg, stop)[0] for u0 in starts]

    monkeypatch.setattr(harness, "run_restarts", single)


def output_bytes(out: Path) -> dict[str, bytes]:
    """Every output file but the timing sidecar, by name."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if not p.name.endswith("__timing.csv")}


def csv_rows(path: Path) -> list[list[str]]:
    """Every row of a CSV file, as ``csv.reader`` parses it."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def fail_when(monkeypatch, fails, error) -> None:
    """Patch the harness's run_restarts to raise ``error`` for every call
    where ``fails(starts, cfg)`` holds."""
    run_restarts = harness.run_restarts

    def patched(objective, starts, cfg, stop):
        if fails(starts, cfg):
            raise error
        return run_restarts(objective, starts, cfg, stop)

    monkeypatch.setattr(harness, "run_restarts", patched)


class TestSpecParsing:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "demo.ini"
        path.write_text(QUAD_SPEC_TEXT)
        spec = parse_spec_file(path)
        assert spec.name == "demo"
        assert spec.problem.kind == "quadratic"
        assert spec.thresholds == (0.1, 0.01)
        assert {m.label for m in spec.methods} == {"gdm", "fctm-a1.2"}
        cfgs = {m.label: m.cfg for m in spec.methods}
        assert cfgs["fctm-a1.2"].alpha == 1.2
        assert cfgs["gdm"].omega == 0.1

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_spec_file("/nonexistent/spec.ini")

    def test_missing_experiment_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[method.x]\nmethod = gdm\nomega = 0.1\n")
        with pytest.raises(ConfigError):
            parse_spec_file(path)

    def test_unknown_method_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[experiment]\nproblem = quadratic\n\n"
            "[method.x]\nmethod = gdm\nomega = 0.1\nbogus = 1\n"
        )
        with pytest.raises(ConfigError):
            parse_spec_file(path)

    def test_empty_method_list_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(name="x", problem=ProblemSpec(kind="quadratic"), methods=())

    def test_increasing_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            small = small_spec()
            ExperimentSpec(name="x", problem=small.problem, methods=small.methods,
                           thresholds=(0.01, 0.1))

    def test_mismatched_horizons_rejected(self):
        methods = (
            MethodSpec("a", OptimizerConfig(method=Method.FCTM, alpha=0.9, gain=1.0,
                                            h=0.01, t_end=5.0)),
            MethodSpec("b", OptimizerConfig(method=Method.FCTM, alpha=0.5, gain=1.0,
                                            h=0.01, t_end=7.0)),
        )
        with pytest.raises(ConfigError):
            ExperimentSpec(name="x", problem=ProblemSpec(kind="quadratic"),
                           methods=methods)

    def test_duplicate_label_rejected(self):
        # both methods would write dup__a__r0.csv, the second over the first
        methods = (
            MethodSpec("a", OptimizerConfig(method=Method.GDM, omega=0.1), k_max=5),
            MethodSpec("b", OptimizerConfig(method=Method.GDM, omega=0.3), k_max=5),
            MethodSpec("a", OptimizerConfig(method=Method.GDM, omega=0.2), k_max=7),
        )
        with pytest.raises(ConfigError, match="label 'a'"):
            ExperimentSpec(name="dup", problem=ProblemSpec(kind="quadratic"), methods=methods)

    def test_unknown_problem_kind(self):
        with pytest.raises(ConfigError):
            ProblemSpec(kind="rosenbrock")

    @pytest.mark.parametrize("kind,field", [("quadratic", dict(charges=12)),
                                            ("quadratic", dict(degree=3)),
                                            ("quadratic", dict(target_rule="alternating")),
                                            ("vandermonde", dict(c=3.0)),
                                            ("vandermonde", dict(charges=4)),
                                            ("thomson", dict(u0=(1.0,))),
                                            ("thomson", dict(degree=10))])
    def test_foreign_problem_field_rejected(self, kind, field):
        # rejected whatever its value, also when it equals another kind's default
        name = next(iter(field))
        with pytest.raises(ConfigError, match=f"^{name} is not a {kind} key$"):
            ProblemSpec(kind=kind, **field)

    def test_dominant_modes_needs_degree_three(self):
        # the target mixes in the fourth singular mode: at degree 2 `fracopt run`
        # failed with an IndexError traceback
        with pytest.raises(ConfigError, match="^the dominant-modes target needs degree >= 3, got 2$"):
            ProblemSpec(kind="vandermonde", degree=2, target_rule="dominant-modes")
        assert ProblemSpec(kind="vandermonde", degree=3, target_rule="dominant-modes").degree == 3

    def test_problem_defaults_per_kind(self):
        assert ProblemSpec(kind="quadratic") == ProblemSpec(kind="quadratic", c=3.0)
        vdm = ProblemSpec(kind="vandermonde")
        assert (vdm.degree, vdm.target_rule, vdm.c, vdm.charges) == (10, "alternating", None, None)
        assert ProblemSpec(kind="thomson").charges == 4

    @pytest.mark.parametrize("path", sorted(SPECS.glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_spec_parses(self, path):
        spec = parse_spec_file(path)
        assert spec.name == path.stem and spec.methods

    def test_readme_schema_lists_every_key(self):
        # the README's schema block names exactly the keys the parser takes
        readme = (SPECS.parent / "README.md").read_text()
        block = readme.split("### Spec file schema", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        schema = configparser.ConfigParser()
        schema.read_string(block)
        experiment, method = schema.sections()
        assert (experiment, method.split(".")[0]) == ("experiment", "method")
        assert set(schema[experiment]) == set(harness._EXPERIMENT_KEYS)
        assert set(schema[method]) == set(harness._METHOD_KEYS)


class TestRunExperiment:
    def test_outputs_and_exit_code(self, tmp_path):
        records, code = run_experiment(small_spec(), tmp_path)
        assert code == EXIT_OK
        assert len(records) == 2
        assert (tmp_path / "small__summary.csv").exists()
        assert (tmp_path / "small__timing.csv").exists()
        assert (tmp_path / "small__gdm__r0.csv").exists()
        assert (tmp_path / "small__fctm-a1.2__r0.csv").exists()
        by_label = {r.label: r for r in records}
        assert by_label["gdm"].status == "completed"
        # quadratic timing: order 1.2 at gain 0.1 passes 0.01 within t=12
        assert by_label["fctm-a1.2"].passages[0.01] is not None

    def test_summary_is_deterministic(self, tmp_path):
        spec = small_spec()
        run_experiment(spec, tmp_path / "a")
        run_experiment(spec, tmp_path / "b")
        for name in ("small__summary.csv", "small__gdm__r0.csv",
                     "small__fctm-a1.2__r0.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_thomson_restarts_deterministic(self, tmp_path):
        methods = (MethodSpec("gdm", OptimizerConfig(method=Method.GDM, omega=0.005),
                              k_max=300),)
        spec = ExperimentSpec(name="th", problem=ProblemSpec(kind="thomson", charges=4),
                              methods=methods, thresholds=(), restarts=3, base_seed=7)
        ra, _ = run_experiment(spec, tmp_path / "a")
        rb, _ = run_experiment(spec, tmp_path / "b")
        assert [r.final_metric for r in ra] == [r.final_metric for r in rb]
        assert len({r.final_metric for r in ra}) == 3  # distinct restarts
        assert (tmp_path / "a" / "th__summary.csv").read_bytes() == \
               (tmp_path / "b" / "th__summary.csv").read_bytes()

    def test_ratio_recomputable_from_summary(self, tmp_path):
        run_experiment(small_spec(name="r"), tmp_path)
        lines = (tmp_path / "r__summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = {row[header.index("label")]: row for row in (l.split(",") for l in lines[1:])}
        fm = {k: float(v[header.index("final_metric")]) for k, v in rows.items()}
        stored = float(rows["fctm-a1.2"][header.index("ratio_vs_alpha1")])
        assert stored == pytest.approx(fm["gdm"] / fm["fctm-a1.2"], rel=1e-12)

    def test_divergent_cell_recorded_not_fatal(self, tmp_path):
        methods = (
            MethodSpec("bad", OptimizerConfig(method=Method.GDM, omega=1.1), k_max=30000),
            MethodSpec("good", OptimizerConfig(method=Method.GDM, omega=0.1), k_max=100),
        )
        spec = ExperimentSpec(name="div", problem=ProblemSpec(kind="quadratic", u0=(1.0,)),
                              methods=methods, thresholds=(0.1,))
        records, code = run_experiment(spec, tmp_path)
        assert code == EXIT_DIVERGED
        by_label = {r.label: r for r in records}
        assert by_label["bad"].status.startswith("diverged")
        assert math.isnan(by_label["bad"].final_metric)
        assert by_label["good"].status == "completed"

    def test_workers_match_serial(self, tmp_path):
        spec = small_spec(name="par")
        ra, _ = run_experiment(spec, tmp_path / "a", workers=1)
        rb, _ = run_experiment(spec, tmp_path / "b", workers=2)
        assert [r.final_metric for r in ra] == [r.final_metric for r in rb]
        assert (tmp_path / "a" / "par__summary.csv").read_bytes() == \
               (tmp_path / "b" / "par__summary.csv").read_bytes()

    @pytest.mark.parametrize("n", [4, 12])
    def test_stacked_restarts_match_one_by_one(self, tmp_path, monkeypatch, n):
        spec = thomson_spec(n)
        stacked, code = run_experiment(spec, tmp_path / "stacked")
        assert code == EXIT_OK
        one_by_one(monkeypatch)
        single, _ = run_experiment(spec, tmp_path / "single")
        assert [r.field_evaluations for r in stacked] == [r.field_evaluations for r in single]
        assert output_bytes(tmp_path / "stacked") == output_bytes(tmp_path / "single")
        assert len(output_bytes(tmp_path / "stacked")) == 7  # 6 traces and the summary

    def test_coincident_start_diverges_alone(self, tmp_path, monkeypatch):
        sample = harness.random_sphere_configuration

        def second_start_coincident(n_charges, seed):
            u = sample(n_charges, seed)
            if seed == 11 + harness._SEED_STRIDE:  # restart 1
                u[[1, n_charges + 1]] = u[[0, n_charges]]
            return u

        monkeypatch.setattr(harness, "random_sphere_configuration", second_start_coincident)
        spec = thomson_spec(4)
        records, code = run_experiment(spec, tmp_path / "stacked")
        assert code == EXIT_DIVERGED
        statuses = {(r.label, r.restart): r.status for r in records}
        for label in ("gdm", "fctm-a0.7"):
            assert statuses[label, 1] == \
                "diverged: coincident charges: pair (0, 1) has zero distance"
            assert statuses[label, 0] == statuses[label, 2] == "completed"
        one_by_one(monkeypatch)
        run_experiment(spec, tmp_path / "single")
        stacked = output_bytes(tmp_path / "stacked")
        assert stacked == output_bytes(tmp_path / "single")
        assert "th4__gdm__r1.csv" not in stacked and "th4__gdm__r2.csv" in stacked
        # the status holds a comma, so the summary quotes it
        header, *rows = csv_rows(tmp_path / "stacked" / "th4__summary.csv")
        assert [len(r) for r in rows] == [len(header)] * 6
        assert {r[-1] for r in rows} == {
            "completed", "diverged: coincident charges: pair (0, 1) has zero distance"}

    def test_caught_errors_hold_no_traceback(self, monkeypatch):
        # a traceback's frames would keep the solver's arrays alive
        fail_when(monkeypatch, lambda starts, cfg: cfg.method is Method.FCTM,
                  SolverDivergenceError(0.0))
        spec = small_spec(restarts=2)
        for mspec in spec.methods:
            outcomes = harness._run_method(spec, mspec)
            assert len(outcomes) == 2
            errors = [o for o in outcomes if isinstance(o, SolverDivergenceError)]
            assert len(errors) == (2 if mspec.cfg.method is Method.FCTM else 0)
            assert all(e.__traceback__ is None for e in errors)
        single = harness._run_method(small_spec(), spec.methods[1])
        assert single[0].__traceback__ is None

    def test_text_cells_quoted(self, tmp_path):
        path = tmp_path / "comma.ini"
        path.write_text("[experiment]\nname = comma\nproblem = quadratic\n\n"
                        "[method.gd,m]\nmethod = gdm\nomega = 0.1\nk_max = 20\n")
        assert main(["--out", str(tmp_path), "run", str(path)]) == EXIT_OK
        for name, label_col in (("comma__summary.csv", 1), ("comma__timing.csv", 0)):
            header, *rows = csv_rows(tmp_path / name)
            assert [len(r) for r in rows] == [len(header)]
            assert rows[0][label_col] == "gd,m"
        assert (tmp_path / "comma__summary.csv").read_text().splitlines()[1].startswith(
            'quadratic,"gd,m",gdm,')



NUMBER_CELLS = st.one_of(
    st.floats(), st.integers(), st.booleans(),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2e-308, 1e16, 1e-300]))
TEXT_CELLS = st.one_of(st.none(), st.text(alphabet='ab ,"\r\n'))


@settings(derandomize=True, database=None, deadline=None)
@given(rows=st.lists(st.one_of(st.lists(NUMBER_CELLS, max_size=8),
                               st.lists(st.one_of(NUMBER_CELLS, TEXT_CELLS), max_size=8)),
                     max_size=6))
def test_csv_rows_written_as_their_cells(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(path, ["a", "b"], rows)
    expected = "a,b\n" + "".join(",".join(map(_cell, row)) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()


# Spec files for the grammar property: a valid base spec, kept small (at
# most 200 steps, k_max <= 50, restarts <= 2, charges <= 6, degree <= 4),
# then up to two defects.  A key listed under FOREIGN is rejected in that
# section whatever its value.
JUNK = ["", "nan", "inf", "-1", "0", "x"]
FOREIGN = {
    "quadratic": ["charges", "degree", "target_rule", "restart"],
    "vandermonde": ["c", "charges", "omega"],
    "thomson": ["c", "u0", "degree", "target_rule"],
    "gdm": ["gain", "h", "t_end", "v0", "operator", "window_lower", "window_step"],
    "cgm": ["omega", "v0", "operator", "window_length", "c"],
    "fgdm": ["gain", "h", "t_end", "v0"],
    "fctm": ["omega", "operator", "window_lower", "window_length"],
}
FOREIGN_VALUES = {"charges": "4", "degree": "2", "target_rule": "alternating", "c": "3.0",
                  "u0": "1.0", "omega": "0.1", "gain": "1.0", "h": "0.1", "t_end": "1.0",
                  "v0": "0.0", "operator": "rl", "window_lower": "0", "window_length": "1"}


@st.composite
def spec_texts(draw) -> tuple[str, bool, str | None]:
    """A spec file, whether it is the valid base, and the foreign key that
    is its one defect, if it has exactly that one."""
    pick = lambda *options: draw(st.sampled_from(options))  # noqa: E731
    kind = pick("quadratic", "vandermonde", "thomson")
    experiment = [("problem", kind), ("thresholds", pick("", "0.1", "0.1, 0.01")),
                  ("restarts", pick("1", "2")), ("seed", pick("0", "5"))]
    if kind == "quadratic":
        experiment += [("c", pick("3.0", "-2")), ("u0", pick("", "1.0"))]
    elif kind == "vandermonde":
        degree = pick(1, 2, 4)
        rule = pick("alternating", "dominant-modes") if degree >= 3 else "alternating"
        experiment += [("degree", str(degree)), ("target_rule", rule),
                       ("u0", pick("", ", ".join(["0"] * (degree + 1))))]
    else:
        experiment += [("charges", pick("2", "3", "6"))]
    sections = [("experiment", kind, experiment)]
    t_end = pick("1.0", "2.0", "10.0")
    methods = ["gdm", "cgm", "fctm"] + (["fgdm"] if kind == "quadratic" else [])
    for i, method in enumerate(draw(st.lists(st.sampled_from(methods), min_size=1, max_size=3))):
        keys = [("method", method), ("k_max", pick("0", "5", "50"))]
        if method == "gdm":
            keys += [("omega", pick("0.05", "0.1", "1.5")), ("epsilon", pick("0.01", "1e-3"))]
        elif method == "cgm":
            keys += [("gain", pick("0.1", "1.0")), ("t_end", t_end)] + pick([], [("h", "0.1")])
        elif method == "fgdm":
            keys += [("alpha", pick("0.5", "0.9", "1.0")), ("omega", "0.05"),
                     ("operator", pick("caputo", "rl"))] + pick([], [("window_length", "0.5")])
        else:
            alpha = pick("0.5", "1.0", "1.5", "2.0")
            keys += [("alpha", alpha), ("gain", pick("0.1", "1.0")),
                     ("h", pick("0.05", "0.1")), ("t_end", t_end)]
            keys += [("v0", pick("0.0", "0.5"))] if float(alpha) > 1 else []
        sections.append((f"method.m{i}", method, keys))

    foreign = None
    defects = [] if draw(st.booleans()) else draw(st.lists(st.sampled_from(
        ["value", "foreign", "duplicate key", "duplicate section", "drop", "DEFAULT"]),
        min_size=1, max_size=2))
    for defect in defects:
        header, section_kind, keys = sections[draw(st.integers(0, len(sections) - 1))]
        at = draw(st.integers(0, len(keys) - 1))
        if defect == "value":
            keys[at] = (keys[at][0], pick(*JUNK))
        elif defect == "foreign":
            key = pick(*FOREIGN.get(section_kind, ["restart"]))  # [DEFAULT] has no kind
            keys.insert(at + 1, (key, FOREIGN_VALUES.get(key, "1")))
            foreign = key
        elif defect == "duplicate key":
            keys.append(keys[at])
        elif defect == "duplicate section":
            sections.append((header, section_kind, list(keys)))
        elif defect == "drop" and keys[at][0] not in ("k_max", "degree"):  # large defaults
            del keys[at]
        elif defect == "DEFAULT":
            sections.insert(0, ("DEFAULT", None, [("omega", "0.1")]))
    text = "\n".join(f"[{header}]\n" + "".join(f"{k} = {v}".rstrip() + "\n" for k, v in keys)
                     for header, _, keys in sections)
    return text, not defects, foreign if defects == ["foreign"] else None


FGDM_SPEC = ("[experiment]\nproblem = quadratic\n\n[method.f]\nmethod = fgdm\n"
             "alpha = 0.9\nomega = 0.1\nk_max = 5\n")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(drawn=spec_texts())
# values rejected under their field names, which the file did not write
@example(drawn=(FGDM_SPEC + "operator = grunwald\n", False, None))
@example(drawn=(FGDM_SPEC + "window_lower = nan\n", False, None))
@example(drawn=(FGDM_SPEC + "window_length = 0\n", False, None))
def test_spec_grammar(tmp_path_factory, drawn):
    # every drawn spec exits 0, 2 or 3 and writes no summary on exit 2; the
    # valid base runs; a rejected key is named as the file writes it
    text, valid, foreign = drawn
    root = tmp_path_factory.mktemp("grammar")
    path, out = root / "spec.ini", root / "out"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["--out", str(out), "run", str(path)])
    allowed = (EXIT_OK, EXIT_DIVERGED) if valid else (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
    assert code in allowed, text
    assert (code == EXIT_CONFIG) == (not list(out.glob("*__summary.csv"))), text
    written = set(re.findall(r"^(\w+) =", text, re.MULTILINE))
    named = re.findall(r"(\w+) is not an? [\w-]+ key", err.getvalue())
    for listed in re.findall(r"unknown keys \[(.*?)\]", err.getvalue()):
        named += re.findall(r"'(\w+)'", listed)
    assert set(named) <= written, (named, text)
    # a field whose key differs is never named, and a rejected value is
    # named by a key the file wrote; quoted text is a value as written
    renamed = {field for table in (harness._METHOD_KEYS, harness._EXPERIMENT_KEYS)
               for key, (_, field, _) in table.items() if field != key}
    words = set(re.findall(r"\w+", re.sub(r"'[^']*'", "", err.getvalue())))
    assert not words & renamed, (err.getvalue(), text)
    assert set(re.findall(r"\]: (\w+) must be", err.getvalue())) <= written, (err.getvalue(), text)
    if foreign is not None:
        assert code == EXIT_CONFIG and named == [foreign], (err.getvalue(), text)


def vandermonde_flows(n_methods: int) -> ExperimentSpec:
    """Up to five FCTM orders on the degree-10 interpolation system
    (d = 11), 1000 steps each."""
    methods = tuple(
        MethodSpec(f"fctm-a{a:g}", OptimizerConfig(
            method=Method.FCTM, alpha=a, gain=0.001, h=2.0, t_end=2000.0))
        for a in (0.8, 1.0, 1.2, 1.4, 1.6)[:n_methods])
    return ExperimentSpec(name="flows", problem=ProblemSpec(kind="vandermonde", degree=10),
                          methods=methods)


def traced_peak(spec: ExperimentSpec, out: Path) -> int:
    """Peak bytes that ``run_experiment(spec, out)`` allocates on top of
    what was allocated before it; tracemalloc counts numpy buffers."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_experiment(spec, out)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestStreaming:
    """run_experiment writes each method's traces when its run ends and
    then releases them."""

    def test_traces_written_before_next_method_runs(self, tmp_path, monkeypatch):
        spec = small_spec(name="st", restarts=2)
        existing = []
        run_restarts = harness.run_restarts

        def recording(objective, starts, cfg, stop):
            existing.append(sorted(p.name for p in tmp_path.glob("st__*__r*.csv")))
            return run_restarts(objective, starts, cfg, stop)

        monkeypatch.setattr(harness, "run_restarts", recording)
        records, code = run_experiment(spec, tmp_path)
        assert code == EXIT_OK
        assert existing == [[], ["st__gdm__r0.csv", "st__gdm__r1.csv"]]
        assert len(records) == 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_result_sees_full_results_in_method_order(self, tmp_path, workers):
        seen = []

        def hook(label, restart, result):
            history = result.iterations if label == "gdm" else result.trace.times
            seen.append((label, restart, len(history)))

        run_experiment(small_spec(name="hook", restarts=2), tmp_path, workers, on_result=hook)
        assert seen == [("gdm", 0, 201), ("gdm", 1, 201),
                        ("fctm-a1.2", 0, 1201), ("fctm-a1.2", 1, 1201)]

    def test_peak_memory_is_one_method(self, tmp_path):
        one = traced_peak(vandermonde_flows(1), tmp_path / "one")
        five = traced_peak(vandermonde_flows(5), tmp_path / "five")
        # kept alive to the end, the five trajectories made the peak about
        # 2.6x one method's; streamed, it is within 4 %
        assert five <= 1.5 * one, (one, five)


class TestReproduceTargets:
    def test_fig4_energy_traces(self, tmp_path):
        from fracopt.harness import reproduce

        _, code = reproduce("fig4", tmp_path)
        assert code == EXIT_OK
        census = {}
        for line in (tmp_path / "fig4__census.csv").read_text().splitlines()[1:]:
            label, alpha, count = line.split(",")
            census[float(alpha)] = int(count)
        assert census[1.5] >= 1
        assert census[0.9] == 0
        rows = (tmp_path / "fig4__energy__fctm-a0.9.csv").read_text().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(np.diff(values) <= 0.0)  # monotone nonincreasing

    def test_fig4_solves_each_cell_once(self, tmp_path, monkeypatch):
        calls = count_fctm_stacks(monkeypatch)
        assert main(["--out", str(tmp_path), "reproduce", "fig4"]) == EXIT_OK
        assert calls == [1] * 5

    def test_table1_summary_written_once_with_its_note(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "TABLE1_HORIZON", 20.0)
        written = []
        write_summary = harness._write_summary

        def counted(path, *args):
            written.append(path.name)
            write_summary(path, *args)

        monkeypatch.setattr(harness, "_write_summary", counted)
        assert main(["--out", str(tmp_path), "reproduce", "table1"]) == EXIT_OK
        assert written == ["table1__summary.csv"]
        note = (tmp_path / "table1__summary.csv").read_text().splitlines()[0]
        assert note.startswith("# residual-vs-order comparison; horizon=20 h=2 ")

    def test_unknown_target(self, tmp_path):
        from fracopt.harness import reproduce

        with pytest.raises(ConfigError):
            reproduce("table9", tmp_path)


class TestDominantModeTarget:
    def test_deterministic_and_normalized(self):
        a = dominant_mode_target(10)
        b = dominant_mode_target(10)
        assert np.array_equal(a, b)
        # orthonormal mode mix 0.7 v1 + 0.1 v4
        assert np.linalg.norm(a) == pytest.approx(math.sqrt(0.7**2 + 0.1**2), rel=1e-10)


THREAD_POOL_PROBE = """
import sys
from fracopt import cli
out, spec = sys.argv[1:]
assert 'concurrent.futures' not in sys.modules, 'import fracopt.cli loaded concurrent.futures'
assert cli.main(['--out', out, 'run', spec]) == 0
assert 'concurrent.futures' not in sys.modules, 'a one-worker run loaded concurrent.futures'
assert cli.main(['--out', out, '--workers', '2', 'run', spec]) == 0
assert 'concurrent.futures' in sys.modules
"""


NUMPY_RANDOM_PROBE = """
import sys
from fracopt import cli
out, spec = sys.argv[1:]
assert cli.main(['--out', out, 'run', spec]) == 0
loaded = {'numpy.random', '_hashlib'} & set(sys.modules)
assert not loaded, f'a seeded Thomson run loaded {sorted(loaded)}'
assert cli.main(['check']) == 0
loaded = {'numpy.random', '_hashlib'} & set(sys.modules)
assert not loaded, f'fracopt check loaded {sorted(loaded)}'
"""


# the benchmark's tracer rebinds fracopt's functions by name before a run
TRACED_RUN_PROBE = """
import sys
perfbench, out, spec = sys.argv[1:]
sys.path.insert(0, perfbench)
import tracing
from fracopt import cli
tracer = tracing.Tracer()
tracing.install(tracer)
assert cli.main(['--out', out, 'run', spec]) == 0
assert 'harness.run_experiment' in tracer.names
"""


class TestCli:
    def test_run_spec_file(self, tmp_path, capsys):
        path = tmp_path / "demo.ini"
        path.write_text(QUAD_SPEC_TEXT)
        code = main(["--out", str(tmp_path / "out"), "run", str(path)])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "demo__summary.csv").exists()
        assert "final_metric" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        gdm = "[method.gdm]\nmethod = gdm\nomega = 0.1\nk_max = 5\n"
        quadratic = "[experiment]\nproblem = quadratic\n"
        bad_specs = [
            quadratic,  # no methods
            quadratic + gdm + gdm,  # duplicate section
            quadratic + gdm + "omega = 0.2\n",  # duplicate key
            "problem = quadratic\n" + gdm,  # no section header
            "[experiment]\nproblem = thomson\ncharges = 1\n" + gdm,
            "[experiment]\nproblem = vandermonde\ndegree = 0\n" + gdm,
            "[experiment]\nproblem = vandermonde\ndegree = 3\nu0 = 0, 0\n" + gdm,
            "[experiment]\nproblem = thomson\nu0 = 0, 0\n" + gdm,
            quadratic + "u0 = 1.0, 5.0\n" + gdm,
            quadratic + "u0 = 1%\n" + gdm,  # broken interpolation
            quadratic + gdm.replace("gdm]", "a/b]"),
            quadratic + gdm.replace("gdm]", "a\\b]"),
            quadratic + gdm.replace("gdm]", "]"),
            quadratic + "name = a/b\n" + gdm,
            "[experiment]\nproblem = thomson\nseed = -1\n" + gdm,
            quadratic + gdm.replace("k_max = 5", "k_max = -1"),
            quadratic + "c = nan\n" + gdm,
            quadratic + "u0 = inf\n" + gdm,
            quadratic + "thresholds = 0.1, nan\n" + gdm,
            quadratic + gdm.replace("omega = 0.1", "omega = inf"),
            quadratic + gdm + "epsilon = nan\n",
            quadratic + "[method.f]\nmethod = fctm\nalpha = 1.5\ngain = 1.0\nh = 0.1\n"
                        "t_end = 1.0\nv0 = nan\n",
            quadratic + "[method.c]\nmethod = cgm\ngain = 1.0\nt_end = inf\n",
            quadratic + "[method.f]\nmethod = fgdm\nalpha = 0.9\nomega = 0.1\nk_max = 5\n"
                        "window_lower = nan\n",
            quadratic + "restart = 3\n" + gdm,  # unknown [experiment] key
            quadratic + gdm + gdm.replace("[method.", "[mehtod."),  # unknown section
            "[DEFAULT]\nomega = 0.1\n" + quadratic + gdm,
            quadratic + "[method.f]\nmethod = fctm\nalpha = 0.9\ngain = 1.0\nh = 0.1\nt_end = 1.0\noperator = rl\n",  # an fgdm key on fctm
            quadratic + "[method.f]\nmethod = fctm\nalpha = 0.9\ngain = 1.0\nh = 0.1\nt_end = 1.0\nwindow_length = 5\n",
            "[experiment]\nproblem = vandermonde\ndegree = 3\n"  # fgdm off the quadratic
            "[method.f]\nmethod = fgdm\nalpha = 0.9\nomega = 0.1\nk_max = 5\n",
            quadratic + "[method.f]\nmethod = fgdm\nalpha = 0.9\nomega = 0.1\nk_max = 5\n"
                        "window_step = 0.001\n",  # no longer a spec key
            quadratic + "charges = 12\n" + gdm,  # keys of another problem kind
            quadratic + "degree = 3\n" + gdm,
            quadratic + "target_rule = dominant-modes\n" + gdm,
            quadratic + "charges = 4\n" + gdm,  # even at the default value
            "[experiment]\nproblem = vandermonde\ncharges = 4\n" + gdm,
            "[experiment]\nproblem = thomson\nc = 3.0\n" + gdm,
            "[experiment]\nproblem = thomson\ndegree = 3\n" + gdm,
            quadratic + "[method.f]\nmethod = fgdm\nalpha = 0.9\nomega = 0.1\nk_max = 5\n"
                        "window_lower = -1\n",  # a fixed lower limit below 0
            quadratic + "[method.f]\nmethod = fgdm\nalpha = 0.9\nomega = 0.1\nk_max = 5\n"
                        "window_length = 0\n",  # a memory that holds no point
        ]
        path = tmp_path / "bad.ini"
        for text in bad_specs:
            path.write_text(text)
            assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == EXIT_CONFIG, text
        path.write_bytes((quadratic + "; caf\xe9\n" + gdm).encode("latin-1"))  # not UTF-8
        assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        path.write_text(quadratic + gdm)
        assert main(["--out", str(tmp_path / "out"), "--workers", "0", "run", str(path)]) == EXIT_CONFIG
        assert main(["--out", str(tmp_path / "out"), "--workers", "0", "reproduce", "fig1"]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        # rejected before any cell runs
        assert main(["--out", str(tmp_path / "rep"), "--seed", "-1", "reproduce", "table2"]) == EXIT_CONFIG
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("key", ["operator = rl", "window_length = 5", "window_lower = 0.0"])
    def test_rejected_key_named_as_written(self, tmp_path, capsys, key):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nproblem = quadratic\n\n[method.f]\nmethod = fctm\n"
                        f"alpha = 0.9\ngain = 1.0\nh = 0.1\nt_end = 1.0\n{key}\n")
        assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == EXIT_CONFIG
        name = key.split(" =")[0]
        assert f"[method.f]: {name} is not a fctm key" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,key", [("quadratic", "charges = 12"),
                                          ("quadratic", "target_rule = alternating"),
                                          ("thomson", "u0 = 1.0")])
    def test_foreign_problem_key_named_as_written(self, tmp_path, capsys, kind, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[experiment]\nproblem = {kind}\n{key}\n\n"
                        "[method.gdm]\nmethod = gdm\nomega = 0.1\nk_max = 5\n")
        assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == EXIT_CONFIG
        name = key.split(" =")[0]
        assert f"[experiment]: {name} is not a {kind} key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("window", ["window_length = 0.000001",
                                        "window_lower = -1\nwindow_length = 0.5"],
                             ids=["short-memory", "negative-limit-finite-memory"])
    def test_fgdm_window_without_mesh_runs(self, tmp_path, window):
        # a window holds a limit and a memory length, no mesh: a memory of 1e-6
        # runs, and so does a limit a < 0 that max(a, u - L) never takes while u > L
        path = tmp_path / "w.ini"
        path.write_text("[experiment]\nname = w\nproblem = quadratic\n\n[method.f]\n"
                        f"method = fgdm\nalpha = 0.9\nomega = 0.05\nk_max = 50\n{window}\n")
        assert main(["--out", str(tmp_path), "run", str(path)]) == EXIT_OK

    def test_shipped_fgdm_comparison_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "run", str(SPECS / "fgdm_comparison.ini")]) == EXIT_OK
        with open(out / "fgdm_comparison__summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["completed"] * 4

    def test_unknown_reproduce_target_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "table9"])

    @pytest.mark.parametrize("h,t_end", [(0.4, 1.0), (5.0, 1.0)])
    def test_horizon_not_whole_steps_is_config_error(self, tmp_path, h, t_end):
        path = tmp_path / "bad.ini"
        path.write_text(f"[experiment]\nproblem = quadratic\n\n[method.f]\nmethod = fctm\n"
                        f"alpha = 0.9\ngain = 1.0\nh = {h}\nt_end = {t_end}\n")
        assert main(["--out", str(tmp_path), "run", str(path)]) == EXIT_CONFIG

    def test_horizon_beyond_numpy_arrays_is_config_error(self, tmp_path, capsys):
        # 1e301 steps passed the whole-steps check, then numpy refused the grid
        path = tmp_path / "big.ini"
        path.write_text("[experiment]\nproblem = quadratic\n\n[method.f]\nmethod = fctm\n"
                        "alpha = 0.9\ngain = 1.0\nh = 0.1\nt_end = 1e300\n")
        assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == EXIT_CONFIG
        assert "steps do not fit in a numpy array" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["fctm\nalpha = 0.9", "cgm"])
    def test_grid_beyond_memory_is_a_failed_cell(self, tmp_path, method):
        # 1e15 steps fit in a numpy array's index but not in the 128 TiB x86-64
        # address space, so the grid's allocation fails at once
        path = tmp_path / "big.ini"
        path.write_text(f"[experiment]\nname = big\nproblem = quadratic\n\n[method.f]\n"
                        f"method = {method}\ngain = 1.0\nh = 0.000000001\nt_end = 1000000.0\n")
        assert main(["--out", str(tmp_path), "run", str(path)]) == EXIT_DIVERGED
        with open(tmp_path / "big__summary.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] == "diverged: 1000000000000000 steps do not fit in memory"

    def test_overflowed_metric_at_finite_states_is_a_failed_cell(self, tmp_path, capsys):
        # the PECE states stay finite to t = 10 (near -3e173 at the end), but the
        # residual overflows from t = 8.9: the cell diverges there, with no warning
        path = tmp_path / "vand.ini"
        path.write_text("[experiment]\nname = vand\nproblem = vandermonde\ndegree = 4\n\n"
                        "[method.f]\nmethod = fctm\nalpha = 0.5\ngain = 1.0\nh = 0.05\n"
                        "t_end = 10.0\n")
        assert main(["--out", str(tmp_path), "run", str(path)]) == EXIT_DIVERGED
        assert capsys.readouterr().err == ""
        with open(tmp_path / "vand__summary.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] == "diverged: nonfinite state or metric at t = 8.9"

    def test_unusable_out_is_config_error(self, tmp_path, capsys, monkeypatch):
        # an --out that is a file, or lies under one, is named before any cell runs
        def no_cell(*args):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(harness, "_run_method", no_cell)
        taken = tmp_path / "taken"
        taken.write_text("")
        path = tmp_path / "demo.ini"
        path.write_text(QUAD_SPEC_TEXT)
        for out, command in ((taken, ["reproduce", "fig1"]), (taken / "sub", ["run", str(path)])):
            assert main(["--out", str(out), *command]) == EXIT_CONFIG
            assert (f"configuration error: cannot make output directory {str(out)!r}"
                    in capsys.readouterr().err)

    def test_output_path_taken_by_directory_is_config_error(self, tmp_path, capsys):
        # the summary's path was a directory: IsADirectoryError after the cells ran
        path = tmp_path / "tiny.ini"
        path.write_text("[experiment]\nname = tiny\nproblem = quadratic\n\n"
                        "[method.gdm]\nmethod = gdm\nomega = 0.1\nk_max = 5\n")
        summary = tmp_path / "o" / "tiny__summary.csv"
        summary.mkdir(parents=True)
        assert main(["--out", str(tmp_path / "o"), "run", str(path)]) == EXIT_CONFIG
        assert (f"configuration error: cannot write {str(summary)!r}: Is a directory"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("method", ["cgm", "fctm"])
    def test_trace_ends_exactly_at_horizon(self, tmp_path, method):
        # 0.1 * 7 rounds to 0.7000000000000001, which the adaptive solver rejected
        path = tmp_path / "h.ini"
        order = "alpha = 0.9\n" if method == "fctm" else ""
        path.write_text(f"[experiment]\nname = h\nproblem = quadratic\n\n[method.m]\n"
                        f"method = {method}\n{order}gain = 1.0\nh = 0.1\nt_end = 0.7\n")
        assert main(["--out", str(tmp_path), "run", str(path)]) == EXIT_OK
        rows = (tmp_path / "h__m__r0.csv").read_text().splitlines()
        assert len(rows) == 1 + 8 and rows[-1].startswith("0.7,")

    def test_seed_zero_overrides_spec_seed(self, tmp_path):
        path = tmp_path / "th.ini"
        path.write_text("[experiment]\nname = th\nproblem = thomson\ncharges = 4\n"
                        "thresholds =\nseed = 5\n\n[method.gdm]\nmethod = gdm\n"
                        "omega = 0.005\nk_max = 20\n")

        def summary(*seed):
            out = tmp_path / ("out" + "".join(seed))
            assert main(["--out", str(out), *seed, "run", str(path)]) == EXIT_OK
            return (out / "th__summary.csv").read_bytes()

        assert summary("--seed", "0") != summary()
        assert summary("--seed", "5") == summary()

    def test_default_run_leaves_out_thread_pool(self, tmp_path, fresh_python):
        # only --workers > 1 loads concurrent.futures
        path = tmp_path / "demo.ini"
        path.write_text(QUAD_SPEC_TEXT)
        assert fresh_python(THREAD_POOL_PROBE, str(tmp_path / "out"), str(path)) == 0

    def test_thomson_run_leaves_out_numpy_random(self, tmp_path, fresh_python):
        # the seeded starts come from the standard library's generator
        path = tmp_path / "th.ini"
        path.write_text("[experiment]\nname = th\nproblem = thomson\ncharges = 4\n"
                        "thresholds =\nrestarts = 2\n\n"
                        "[method.gdm]\nmethod = gdm\nomega = 0.005\nk_max = 50\n\n"
                        "[method.fctm]\nmethod = fctm\nalpha = 0.7\ngain = 1.0\n"
                        "h = 0.005\nt_end = 0.5\n")
        assert fresh_python(NUMPY_RANDOM_PROBE, str(tmp_path / "out"), str(path)) == 0

    def test_run_under_benchmark_tracer(self, tmp_path, fresh_python):
        # install() finds every function it wraps by name, and a GDM and an
        # FCTM cell still run under the wrappers
        path = tmp_path / "demo.ini"
        path.write_text(QUAD_SPEC_TEXT)
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        assert fresh_python(TRACED_RUN_PROBE, str(perfbench), str(tmp_path / "out"),
                            str(path)) == 0

    def test_check_passes(self, capsys):
        assert main(["check"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines and not [l for l in lines if l.startswith("FAIL")]

    def test_check_failure_exits_diverged(self, capsys, monkeypatch):
        monkeypatch.setattr(_selfcheck, "fgdm_shift_error", lambda alpha, k_max: math.inf)
        assert main(["check"]) == EXIT_DIVERGED
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if l.startswith("FAIL")] == [
            "FAIL fgdm equilibrium shift worst inf > bound 0.0001"]
        assert lines[-1] == "1 check(s) failed"


class TestTypedFailures:
    """A failing cell is recorded and the run exits 3, with no traceback."""

    @pytest.fixture
    def small_table2(self, monkeypatch):
        monkeypatch.setattr(harness, "TABLE2_RESTARTS", 2)
        monkeypatch.setattr(harness, "TABLE2_GDM_KMAX", 20)
        monkeypatch.setattr(harness, "TABLE2_T_END", 0.1)

    def test_start_point_sampling_failure(self, tmp_path, monkeypatch):
        def exhausted(n_charges, seed):
            raise SampleRetryError("no separated charges")

        monkeypatch.setattr(harness, "random_sphere_configuration", exhausted)
        code = main(["--out", str(tmp_path), "run", str(SPECS / "thomson_n4.ini")])
        assert code == EXIT_DIVERGED
        rows = (tmp_path / "thomson_n4__summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 10 and all(",diverged: " in r for r in rows)

    def test_table2_method_with_every_restart_diverged(self, tmp_path, monkeypatch, small_table2):
        fail_when(monkeypatch, lambda starts, cfg: cfg.method is Method.GDM,
                  IterationDivergenceError(1))
        assert main(["--out", str(tmp_path), "reproduce", "table2"]) == EXIT_DIVERGED
        labels = [r.split(",")[1] for r in
                  (tmp_path / "table2__best.csv").read_text().splitlines()[2:]]
        assert labels == ["fctm-a0.7"] * 4

    def test_table2_solves_each_cell_once(self, tmp_path, monkeypatch, small_table2):
        calls = count_fctm_stacks(monkeypatch)
        assert main(["--out", str(tmp_path), "reproduce", "table2"]) == EXIT_OK
        assert calls == [2] * 4  # four N, both FCTM restarts in one call each
        assert all((tmp_path / f"table2__geometry_n{n}.csv").exists() for n in (4, 5, 6, 12))

    def test_fig4_diverged_cell_skipped(self, tmp_path, monkeypatch):
        fail_when(monkeypatch, lambda starts, cfg: cfg.alpha == 1.5, SolverDivergenceError(0.0))
        assert main(["--out", str(tmp_path), "reproduce", "fig4"]) == EXIT_DIVERGED
        census = (tmp_path / "fig4__census.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in census] == \
               ["fctm-a0.9", "fctm-a1", "fctm-a1.2", "fctm-a1.7"]
        assert not (tmp_path / "fig4__energy__fctm-a1.5.csv").exists()

    def test_table2_geometry_from_completed_restart(self, tmp_path, monkeypatch, small_table2):
        def first_restart(starts, cfg):
            first = random_sphere_configuration(starts.shape[1] // 2, seed=0)
            return cfg.method is Method.FCTM and any(np.array_equal(u0, first) for u0 in starts)

        # the stack of both restarts fails, then restart 0 alone
        fail_when(monkeypatch, first_restart, SolverDivergenceError(0.0))
        assert main(["--out", str(tmp_path), "reproduce", "table2"]) == EXIT_DIVERGED
        rows = [r.split(",") for r in
                (tmp_path / "table2__best.csv").read_text().splitlines()[2:]]
        assert [r[5] for r in rows if r[1] == "fctm-a0.7"] == ["1"] * 4
        assert all((tmp_path / f"table2__geometry_n{n}.csv").exists() for n in (4, 5, 6, 12))
        lines = (tmp_path / "table2__geometry_n4.csv").read_text().splitlines()
        assert lines[0] == "i,x,y,z"
        assert len(lines) == 5
