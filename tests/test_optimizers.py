from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from fracopt import _selfcheck as sc
from fracopt.errors import (
    ConfigError,
    IterationDivergenceError,
    OperatorDomainError,
    OrderRangeError,
    SingularPairError,
    SolverDivergenceError,
)
from fracopt.fdesolve import Trajectory, TrajectoryStats, linear_relaxation_solution
from fracopt import optimizers
from fracopt.fracops import MemoryWindow
from fracopt.optimizers import (
    Method,
    OptimizerConfig,
    StoppingRule,
    first_passages,
    oscillation_census,
    run_fctm,
    run_gdm,
    run_restarts,
    stability_envelope_check,
)
from fracopt.problems import (
    Objective,
    make_quadratic,
    make_thomson,
    make_vandermonde,
    random_sphere_configuration,
)

QUAD = make_quadratic(3.0)
FIXED_WINDOW = MemoryWindow(lower_limit=0.0)


def fctm_cfg(alpha, gain=1.0, h=1e-3, t_end=10.0, v0=None):
    kwargs = dict(method=Method.FCTM, alpha=alpha, gain=gain, h=h, t_end=t_end)
    if alpha > 1:
        kwargs["v0"] = 0.0 if v0 is None else v0
    return OptimizerConfig(**kwargs)


class TestConfigValidation:
    def test_required_fields(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.GDM)
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.FCTM, gain=1.0, h=1e-3)
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.FGDM, omega=0.1, fgdm_operator="caputo")

    def test_irrelevant_fields_rejected(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.GDM, omega=0.1, gain=1.0)
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.FCTM, gain=1.0, h=1e-3, t_end=1.0, omega=0.1)
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.GDM, omega=0.1, window=FIXED_WINDOW)

    def test_alpha_rules(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.GDM, omega=0.1, alpha=0.9)
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.FGDM, omega=0.1, alpha=1.2,
                            fgdm_operator="caputo", window=FIXED_WINDOW)
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.FCTM, gain=1.0, h=1e-3, t_end=1.0, alpha=2.3)

    def test_v0_only_above_one(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.FCTM, gain=1.0, h=1e-3, t_end=1.0,
                            alpha=0.9, v0=0.5)

    def test_v0_is_one_float(self):
        # the v0 spec key is one float, shared by every coordinate of every restart
        with pytest.raises(ConfigError, match="one float"):
            OptimizerConfig(method=Method.FCTM, gain=1.0, h=1e-3, t_end=1.0,
                            alpha=1.5, v0=np.array([0.1, 0.2]))

    def test_positivity(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.GDM, omega=-0.1)
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.FCTM, gain=0.0, h=1e-3, t_end=1.0)
        with pytest.raises(ConfigError):
            StoppingRule(k_max=-1)
        assert StoppingRule(k_max=0).k_max == 0

    def test_operator_name(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(method=Method.FGDM, omega=0.1, fgdm_operator="weyl",
                            window=FIXED_WINDOW)

    def test_method_parse(self):
        assert Method.parse(" FCTM ") is Method.FCTM
        with pytest.raises(ConfigError):
            Method.parse("sgd")

    def test_thresholds_must_decrease(self):
        with pytest.raises(ConfigError):
            StoppingRule(thresholds=(0.01, 0.1))


class TestFirstPassages:
    def test_basic(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        metrics = np.array([1.0, 0.05, 0.5, 0.005])
        out = first_passages(times, metrics, (0.1, 0.01, 0.001))
        assert out == {0.1: 1.0, 0.01: 3.0}

    def test_nondecreasing_as_threshold_shrinks(self, rng):
        times = np.arange(200.0)
        metrics = np.abs(rng.normal(scale=np.geomspace(1, 1e-4, 200)))
        thresholds = (0.5, 0.1, 0.02, 0.004)
        out = first_passages(times, metrics, thresholds)
        seen = [out[t] for t in thresholds if t in out]
        assert seen == sorted(seen)


class TestGdm:
    def test_converges_at_geometric_rate(self):
        cfg = OptimizerConfig(method=Method.GDM, omega=0.1)
        res = run_gdm(QUAD, np.array([1.0]), cfg, StoppingRule(k_max=300))
        assert res.converged_to[0] == pytest.approx(3.0, abs=1e-8)
        gaps = np.abs(res.iterations.iterates[:10, 0] - 3.0)
        assert np.allclose(gaps[1:] / gaps[:-1], 0.8, atol=1e-12)

    def test_divergence_for_large_step(self):
        cfg = OptimizerConfig(method=Method.GDM, omega=1.1)
        with pytest.raises(IterationDivergenceError) as err:
            run_gdm(QUAD, np.array([1.0]), cfg, StoppingRule(k_max=30000))
        assert err.value.iteration > 0

    @pytest.mark.parametrize("starts", [[[1.0]], [[1.0], [2.0]]])
    @pytest.mark.parametrize("omega, iteration", [(1.1, 1943), (1.5, 511)])
    def test_divergence_reported_where_the_cost_overflows(self, starts, omega, iteration):
        # (u - 3)^2 overflows at this iterate while u itself is still finite
        u = np.array([1.0])
        with np.errstate(over="ignore"):
            for _ in range(iteration):
                u = u - omega * QUAD.gradient(u)
            assert np.isfinite(u).all() and QUAD.f(u) == math.inf
        cfg = OptimizerConfig(method=Method.GDM, omega=omega)
        with pytest.raises(IterationDivergenceError) as err:
            run_restarts(QUAD, np.array(starts), cfg, StoppingRule(k_max=30000))
        assert err.value.iteration == iteration

    def test_overflowed_cost_reported_before_a_later_step_failure(self):
        def step(k, u):
            if k:
                raise OperatorDomainError("the second step fails")
            return u * 1e200, False  # (u - 3)^2 overflows, u does not

        with pytest.raises(IterationDivergenceError) as err:
            optimizers._descend(QUAD, np.array([[1.0]]), StoppingRule(k_max=10), step)
        assert err.value.iteration == 1

    def test_overflowed_start_cost_fails_at_iteration_zero(self):
        # (1e200 - 3)^2 overflows while the descent itself converges
        cfg = OptimizerConfig(method=Method.GDM, omega=0.1)
        with pytest.raises(IterationDivergenceError) as err:
            run_gdm(QUAD, np.array([1e200]), cfg, StoppingRule(k_max=50))
        assert err.value.iteration == 0

    def test_fixed_point_stays(self):
        cfg = OptimizerConfig(method=Method.GDM, omega=0.1)
        res = run_gdm(QUAD, np.array([3.0]), cfg, StoppingRule(k_max=50))
        assert np.all(res.iterations.iterates == 3.0)

    def test_monotone_cost_with_safe_step(self, rng):
        obj, spec = make_vandermonde(10)
        curvature = 2.0 * np.linalg.norm(spec.matrix, 2) ** 2
        cfg = OptimizerConfig(method=Method.GDM, omega=1.0 / (2.0 * curvature))
        res = run_gdm(obj, rng.uniform(-1, 1, 11), cfg, StoppingRule(k_max=500))
        assert np.all(np.diff(res.iterations.costs) <= 0.0)
        cfg = OptimizerConfig(method=Method.GDM, omega=0.25)  # 1/(2 max curvature)
        res = run_gdm(QUAD, np.array([1.0]), cfg, StoppingRule(k_max=100))
        assert np.all(np.diff(res.iterations.costs) <= 0.0)

    def test_early_stop_on_metric(self):
        cfg = OptimizerConfig(method=Method.GDM, omega=0.1)
        res = run_gdm(QUAD, np.array([1.0]), cfg,
                      StoppingRule(epsilon=0.01, k_max=10000))
        assert res.converged
        assert len(res.iterations) < 100


class TestFgdm:
    def test_fixed_limit_caputo_misconverges(self):
        # settles at 3 (2 - 0.9) = 3.3, not at the extremum 3
        assert sc.fgdm_shift_error(0.9, 5000) <= sc.FGDM_SHIFT_BOUND

    def test_order_one_reduces_to_gdm(self):
        cfg = OptimizerConfig(method=Method.FGDM, alpha=1.0, omega=0.05,
                              fgdm_operator="caputo", window=FIXED_WINDOW)
        res = run_restarts(QUAD, 1.0, cfg, StoppingRule(k_max=5000))[0]
        assert res.converged_to[0] == pytest.approx(3.0, abs=1e-8)

    def test_windowed_caputo_lands_near_extremum(self):
        h = 1e-3
        window = MemoryWindow(lower_limit=0.0, memory_length=h)
        cfg = OptimizerConfig(method=Method.FGDM, alpha=0.9, omega=0.05,
                              fgdm_operator="caputo", window=window)
        res = run_restarts(QUAD, 1.0, cfg, StoppingRule(k_max=20000))[0]
        expected = 3.0 + h * (1.0 - 0.9) / (2.0 - 0.9)
        assert res.converged_to[0] == pytest.approx(expected, abs=5e-4)

    @pytest.mark.parametrize("alpha", [0.7, 0.8, 0.9])
    def test_equilibrium_is_not_extremum(self, alpha):
        # |u - 3| >= 3 (1 - alpha) - |u - 3 (2 - alpha)|: within the shift
        # bound of 3 (2 - alpha), u stays away from the extremum 3
        assert sc.fgdm_shift_error(alpha, 5000) <= sc.FGDM_SHIFT_BOUND

    def test_domain_exit_aborts_with_diagnostic(self):
        cfg = OptimizerConfig(method=Method.FGDM, alpha=0.9, omega=0.5,
                              fgdm_operator="rl", window=FIXED_WINDOW)
        with pytest.raises(OperatorDomainError) as err:
            run_restarts(QUAD, 0.1, cfg, StoppingRule(k_max=100))
        assert "iteration" in str(err.value)

    def test_objective_without_polynomial_rejected(self):
        # the same quadratic without its polynomial
        sampled = Objective(
            dimension=1,
            f=lambda u: np.sum((u - 3.0) ** 2, axis=-1),
            gradient=lambda u: 2.0 * (u - 3.0),
            progress_metric=lambda u: np.abs(u[..., 0] - 3.0),
        )
        cfg = OptimizerConfig(method=Method.FGDM, alpha=0.9, omega=0.05,
                              fgdm_operator="caputo", window=FIXED_WINDOW)
        with pytest.raises(ConfigError, match="polynomial"):
            run_restarts(sampled, 1.0, cfg)

    def test_scalar_only(self):
        obj, _ = make_vandermonde(3)
        cfg = OptimizerConfig(method=Method.FGDM, alpha=0.9, omega=0.05,
                              fgdm_operator="caputo", window=FIXED_WINDOW)
        with pytest.raises(ConfigError, match="polynomial"):
            run_restarts(obj, 1.0, cfg)


class TestFctm:
    def test_trace_matches_analytic_solution(self):
        res = run_fctm(QUAD, np.array([1.0]), fctm_cfg(1.2, h=1e-3, t_end=10.0))
        idx = np.arange(0, len(res.trace.times), 50)
        ref = linear_relaxation_solution(1.2, 2.0, 3.0, 1.0, res.trace.times[idx], v0=0.0)
        assert np.max(np.abs(res.trace.states[idx, 0] - ref)) <= 1e-3

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.2, 1.7])
    def test_ml_agreement_across_orders(self, alpha):
        res = run_fctm(QUAD, np.array([1.0]), fctm_cfg(alpha, h=2e-3, t_end=10.0))
        idx = np.arange(0, len(res.trace.times), 25)
        ref = linear_relaxation_solution(alpha, 2.0, 3.0, 1.0, res.trace.times[idx], v0=0.0)
        assert np.max(np.abs(res.trace.states[idx, 0] - ref)) <= 1e-3

    def test_slower_monotone_approach_below_one(self):
        res_half = run_fctm(QUAD, np.array([1.0]), fctm_cfg(0.5, h=2e-3, t_end=10.0))
        res_one = run_fctm(QUAD, np.array([1.0]), fctm_cfg(1.0, h=2e-3, t_end=10.0))
        gap_half = 3.0 - res_half.trace.states[:, 0]
        assert np.all(np.diff(gap_half) <= 1e-12)  # monotone approach
        assert gap_half[-1] > 3.0 - res_one.trace.states[-1, 0]  # slower than order 1

    def test_equilibrium_is_extremum(self):
        stop = StoppingRule(thresholds=(0.1, 0.01, 0.001))
        res = run_fctm(QUAD, np.array([1.0]), fctm_cfg(1.0, h=1e-3, t_end=10.0), stop)
        assert 0.001 in res.first_passage
        grad_norm = float(np.linalg.norm(QUAD.gradient(res.converged_to)))
        assert grad_norm <= 1e-3

    def test_cgm_routes_through_reference_solver(self):
        cfg = OptimizerConfig(method=Method.CGM, gain=1.0, t_end=5.0, h=1e-2)
        res = run_fctm(QUAD, np.array([1.0]), cfg)
        assert res.converged_to[0] == pytest.approx(3.0 - 2.0 * math.exp(-10.0), abs=1e-6)

    @pytest.mark.parametrize("j", [0, 3])
    def test_overflowed_metric_at_finite_states_fails_there(self, j):
        times = np.linspace(0.0, 0.5, 6)
        states = np.full((6, 1), 3.0)
        states[j:, 0] = 1e200  # finite, but the metric (u - 3)^2 overflows
        traj = Trajectory(times=times, states=states,
                          stats=TrajectoryStats(steps=5, field_evaluations=0))
        squared = dataclasses.replace(QUAD, progress_metric=QUAD.f)
        with pytest.raises(SolverDivergenceError) as err:
            optimizers._wrap_result(squared, StoppingRule(), traj, 0, 0.0)
        assert err.value.t == times[j]

    def test_cost_counts_field_evaluations(self):
        # PECE calls the field once at the start and twice per step
        res = run_fctm(QUAD, np.array([1.0]), fctm_cfg(0.9, h=0.1, t_end=0.7))
        assert res.field_evaluations == 2 * 7 + 1
        assert res.wall_seconds > 0

    def test_order_reduction_to_gdm(self):
        # explicit-Euler correspondence: omega = gain * h
        h = 1e-3
        res_fctm = run_fctm(QUAD, np.array([1.0]), fctm_cfg(1.0, h=h, t_end=5.0))
        cfg = OptimizerConfig(method=Method.GDM, omega=1.0 * h)
        res_gdm = run_gdm(QUAD, np.array([1.0]), cfg, StoppingRule(k_max=5000))
        diff = np.abs(res_fctm.trace.states[:, 0] - res_gdm.iterations.iterates[:, 0])
        assert np.max(diff) <= 10.0 * h

    def test_timeout_reports_best_so_far(self):
        stop = StoppingRule(epsilon=1e-9, thresholds=(0.1,))
        res = run_fctm(QUAD, np.array([1.0]), fctm_cfg(0.5, h=1e-2, t_end=2.0), stop)
        assert not res.converged
        metrics = np.abs(res.trace.states[:, 0] - 3.0)
        assert abs(res.converged_to[0] - res.trace.states[np.argmin(metrics), 0]) == 0.0

    def test_passage_times_nondecreasing(self):
        stop = StoppingRule(thresholds=(0.5, 0.1, 0.01, 0.001))
        res = run_fctm(QUAD, np.array([1.0]), fctm_cfg(1.0, h=1e-3, t_end=10.0), stop)
        times = [res.first_passage[t] for t in (0.5, 0.1, 0.01, 0.001)]
        assert times == sorted(times)


def assert_same_run(stacked, single):
    """Two RunResults with the same bits in every recorded number."""
    assert stacked.first_passage == single.first_passage
    assert np.float64(stacked.final_metric).tobytes() == np.float64(single.final_metric).tobytes()
    assert stacked.converged_to.tobytes() == single.converged_to.tobytes()
    assert stacked.converged == single.converged
    assert stacked.field_evaluations == single.field_evaluations
    if single.trace is not None:
        assert stacked.trace.times.tobytes() == single.trace.times.tobytes()
        assert stacked.trace.states.tobytes() == single.trace.states.tobytes()
    else:
        assert stacked.iterations.iterates.tobytes() == single.iterations.iterates.tobytes()
        assert stacked.iterations.costs.tobytes() == single.iterations.costs.tobytes()


class TestRestarts:
    """run_restarts: each row of a stack equals its one-start run."""

    THOMSON, _ = make_thomson(4)
    STARTS = np.array([random_sphere_configuration(4, seed=s) for s in (1, 2, 3)])

    @pytest.mark.parametrize("alpha", [0.7, 1.3])
    def test_fctm_stack_equals_one_start_runs(self, alpha):
        cfg = fctm_cfg(alpha, h=0.005, t_end=1.5, v0=0.05 if alpha > 1 else None)
        stop = StoppingRule(thresholds=(5.0, 4.0))
        results = run_restarts(self.THOMSON, self.STARTS, cfg, stop)
        assert len(results) == 3
        for u0, res in zip(self.STARTS, results):
            assert_same_run(res, run_fctm(self.THOMSON, u0, cfg, stop))

    def test_gdm_rows_stop_at_different_k(self):
        cfg = OptimizerConfig(method=Method.GDM, omega=0.1)
        stop = StoppingRule(epsilon=1e-3, k_max=500, thresholds=(0.1, 0.01))
        starts = np.array([[1.0], [2.9], [-4.0], [3.0]])
        results = run_restarts(QUAD, starts, cfg, stop)
        assert len({len(r.iterations) for r in results}) == 4
        assert results[3].field_evaluations == 0  # at the optimum from the start
        for u0, res in zip(starts, results):
            assert res.field_evaluations == len(res.iterations) - 1
            assert_same_run(res, run_gdm(QUAD, u0, cfg, stop))

    def test_thomson_gdm_rows_stop_under_epsilon(self):
        cfg = OptimizerConfig(method=Method.GDM, omega=0.005)
        # a cap far beyond memory: the traces grow only as far as each row runs
        stop = StoppingRule(epsilon=3.70, k_max=10**9)
        results = run_restarts(self.THOMSON, self.STARTS, cfg, stop)
        assert len({len(r.iterations) for r in results}) == 3
        assert all(r.converged and r.final_metric < 3.70 for r in results)
        for u0, res in zip(self.STARTS, results):
            assert_same_run(res, run_gdm(self.THOMSON, u0, cfg, stop))

    def test_diverging_row_fails_the_stack(self):
        cfg = OptimizerConfig(method=Method.GDM, omega=1.1)
        with pytest.raises(IterationDivergenceError):
            run_restarts(QUAD, np.array([[3.0], [1.0]]), cfg, StoppingRule(k_max=30000))

    @pytest.mark.parametrize("k_max", [0, 10])
    def test_thomson_coincident_start_raises_its_pair(self, k_max):
        bad = self.STARTS[0].copy()
        bad[[1, 5]] = bad[[0, 4]]  # charge 1 on charge 0
        cfg = OptimizerConfig(method=Method.GDM, omega=0.005)
        for starts in (bad, np.stack((self.STARTS[1], bad))):
            with pytest.raises(SingularPairError) as err:
                run_restarts(self.THOMSON, starts, cfg, StoppingRule(k_max=k_max))
            assert str(err.value) == "coincident charges: pair (0, 1) has zero distance"

    def test_cgm_and_fgdm_run_rows_one_at_a_time(self):
        starts = np.array([[1.0], [2.0]])
        cgm = OptimizerConfig(method=Method.CGM, gain=1.0, h=0.01, t_end=2.0)
        fgdm = OptimizerConfig(method=Method.FGDM, alpha=0.9, omega=0.05,
                               fgdm_operator="caputo", window=FIXED_WINDOW)
        stop = StoppingRule(k_max=200)
        for u0, res in zip(starts, run_restarts(QUAD, starts, cgm, stop)):
            assert_same_run(res, run_fctm(QUAD, u0, cgm, stop))
        for u0, res in zip(starts, run_restarts(QUAD, starts, fgdm, stop)):
            assert_same_run(res, run_restarts(QUAD, float(u0[0]), fgdm, stop)[0])


class TestStabilityEnvelope:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_quadratic_flow_within_envelope(self, alpha):
        res = run_fctm(QUAD, np.array([1.0]), fctm_cfg(alpha, h=1e-2, t_end=10.0))
        energies, ok = stability_envelope_check(res.trace, np.array([3.0]), eta=2.0, alpha=alpha)
        assert ok
        assert np.all(energies >= 0.0)
        assert energies[0] == 4.0

    def test_start_at_optimum(self):
        res = run_fctm(QUAD, np.array([3.0]), fctm_cfg(0.7, h=1e-2, t_end=1.0))
        _, ok = stability_envelope_check(res.trace, np.array([3.0]), eta=2.0, alpha=0.7)
        assert ok

    def test_order_above_one_rejected(self):
        res = run_fctm(QUAD, np.array([1.0]), fctm_cfg(0.7, h=1e-2, t_end=1.0))
        with pytest.raises(OrderRangeError):
            stability_envelope_check(res.trace, np.array([3.0]), eta=2.0, alpha=1.5)

    @pytest.mark.parametrize("eta", [math.inf, 0.0, -2.0, math.nan])
    def test_eta_must_be_finite_and_positive(self, eta):
        # eta = inf once made E_alpha(nan) at t = 0 and leaked a RuntimeWarning
        res = run_fctm(QUAD, np.array([1.0]), fctm_cfg(0.7, h=1e-2, t_end=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="eta"):
                stability_envelope_check(res.trace, np.array([3.0]), eta=eta, alpha=0.7)
        assert issubclass(ConfigError, ValueError)


class TestOscillationCensus:
    def test_monotone_regime_has_none(self):
        res = run_fctm(QUAD, np.array([1.0]), fctm_cfg(0.7, h=1e-2, t_end=20.0))
        energies, _ = stability_envelope_check(res.trace, np.array([3.0]), eta=2.0, alpha=0.7)
        assert oscillation_census(energies) == 0

    def test_oscillatory_regime_has_some(self):
        res = run_fctm(QUAD, np.array([1.0]), fctm_cfg(1.5, h=1e-2, t_end=20.0))
        diff = res.trace.states - 3.0
        assert oscillation_census(np.sum(diff * diff, axis=1)) >= 1

    def test_constant_trace(self):
        assert oscillation_census(np.ones(5)) == 0


class TestDescentCosts:
    """GDM takes each iterate's cost after the run, from the stored iterates."""

    THOMSON, _ = make_thomson(4)
    THOMSON_STARTS = np.array([random_sphere_configuration(4, seed=s) for s in (1, 2)])
    VANDERMONDE, _ = make_vandermonde(4)
    CASES = {
        "quadratic": (QUAD, np.array([[1.0], [2.5]]), 0.1),
        "vandermonde": (VANDERMONDE, np.array([[0.5] * 5, [-0.5] * 5]), 0.01),
        "thomson": (THOMSON, THOMSON_STARTS, 0.005),
    }

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("problem", sorted(CASES))
    def test_costs_equal_single_state_f(self, problem, rows):
        obj, starts, omega = self.CASES[problem]
        cfg = OptimizerConfig(method=Method.GDM, omega=omega)
        # past two metric chunks, so a cost comes from each position in a chunk
        for res in run_restarts(obj, starts[:rows], cfg, StoppingRule(k_max=150)):
            trace = res.iterations
            assert len(trace) == 151
            for u, cost in zip(trace.iterates, trace.costs):
                assert np.float64(obj.f(u)).tobytes() == cost.tobytes()
            assert np.float64(obj.progress_metric(trace.iterates[-1])).tobytes() == \
                np.float64(res.final_metric).tobytes()

    def test_thomson_gdm_calls_f_once_per_chunk(self):
        calls = {"f": 0, "gradient": 0}

        def spy(name, fn):
            def counted(u):
                calls[name] += 1
                return fn(u)
            return counted

        f = spy("f", self.THOMSON.f)
        obj = dataclasses.replace(self.THOMSON, f=f, progress_metric=f,
                                  gradient=spy("gradient", self.THOMSON.gradient))
        cfg = OptimizerConfig(method=Method.GDM, omega=0.005)
        k = 200
        results = run_restarts(obj, self.THOMSON_STARTS, cfg, StoppingRule(k_max=k))
        assert calls["gradient"] == k  # one stacked call per iteration
        # the costs, and the metrics with them, by one call per chunk of a row
        assert calls["f"] == 2 * math.ceil((k + 1) / optimizers._METRIC_CHUNK)
        for u0, res in zip(self.THOMSON_STARTS, results):
            assert_same_run(res, run_gdm(self.THOMSON, u0, cfg, StoppingRule(k_max=k)))
