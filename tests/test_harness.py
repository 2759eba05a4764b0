from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

import fracopt.harness as harness
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

    def test_unknown_problem_kind(self):
        with pytest.raises(ConfigError):
            ProblemSpec(kind="rosenbrock")

    @pytest.mark.parametrize("path", sorted(SPECS.glob("*.ini")), ids=lambda p: p.name)
    def test_shipped_spec_parses(self, path):
        spec = parse_spec_file(path)
        assert spec.name == path.stem and spec.methods


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
        ]
        path = tmp_path / "bad.ini"
        for text in bad_specs:
            path.write_text(text)
            assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == EXIT_CONFIG, text
        assert not (tmp_path / "out").exists()

    def test_unknown_reproduce_target_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "table9"])

    @pytest.mark.parametrize("h,t_end", [(0.4, 1.0), (5.0, 1.0)])
    def test_horizon_not_whole_steps_is_config_error(self, tmp_path, h, t_end):
        path = tmp_path / "bad.ini"
        path.write_text(f"[experiment]\nproblem = quadratic\n\n[method.f]\nmethod = fctm\n"
                        f"alpha = 0.9\ngain = 1.0\nh = {h}\nt_end = {t_end}\n")
        assert main(["--out", str(tmp_path), "run", str(path)]) == EXIT_CONFIG

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

    def test_check_passes(self, capsys):
        assert main(["check"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines and not [l for l in lines if l.startswith("FAIL")]


class TestTypedFailures:
    """A failing cell is recorded and the run exits 3, with no traceback."""

    @pytest.fixture
    def small_table2(self, monkeypatch):
        monkeypatch.setattr(harness, "TABLE2_RESTARTS", 2)
        monkeypatch.setattr(harness, "TABLE2_GDM_KMAX", 20)
        monkeypatch.setattr(harness, "TABLE2_T_END", 0.1)

    def test_start_point_sampling_failure(self, tmp_path, monkeypatch):
        def exhausted(n_charges, seed, max_retries=100):
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
