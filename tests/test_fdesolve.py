from __future__ import annotations

import math

import numpy as np
import pytest

from fracopt.errors import SolverConfigError, SolverDivergenceError
from fracopt.fdesolve import (
    FdeProblem,
    FractionalOrder,
    linear_relaxation_solution,
    solve_pece,
    solve_reference_ode,
)
from fracopt.problems import make_vandermonde


def linear_field(u):
    return -2.0 * (u - 3.0)


def make_linear(alpha, t_end=5.0, h=2e-3, u0=1.0, v0=None):
    if alpha > 1 and v0 is None:
        v0 = 0.0
    return FdeProblem(alpha=alpha, field=linear_field, u0=np.array([u0]),
                      t_end=t_end, h=h, v0=v0)


class TestTypes:
    def test_order_bounds(self):
        with pytest.raises(SolverConfigError):
            FractionalOrder(0.0)
        with pytest.raises(SolverConfigError):
            FractionalOrder(2.5)
        assert FractionalOrder(0.4).initial_conditions_required == 1
        assert FractionalOrder(1.5).initial_conditions_required == 2
        assert FractionalOrder(2.0).initial_conditions_required == 2

    def test_v0_required_iff_order_above_one(self):
        with pytest.raises(SolverConfigError):
            FdeProblem(alpha=1.5, field=linear_field, u0=np.array([1.0]),
                       t_end=1.0, h=1e-2)
        with pytest.raises(SolverConfigError):
            FdeProblem(alpha=0.9, field=linear_field, u0=np.array([1.0]),
                       t_end=1.0, h=1e-2, v0=np.array([0.0]))

    def test_step_and_horizon_validation(self):
        with pytest.raises(SolverConfigError):
            FdeProblem(alpha=0.9, field=linear_field, u0=np.array([1.0]),
                       t_end=1.0, h=2.0)
        with pytest.raises(SolverConfigError):
            FdeProblem(alpha=0.9, field=linear_field, u0=np.array([1.0]),
                       t_end=-1.0, h=0.1)
        # the horizon must be a whole number of steps, up to rounding
        with pytest.raises(SolverConfigError):
            FdeProblem(alpha=0.9, field=linear_field, u0=np.array([1.0]),
                       t_end=1.0, h=0.4)
        FdeProblem(alpha=0.9, field=linear_field, u0=np.array([1.0]), t_end=12.0, h=0.01)

    def test_nonfinite_initial_field_rejected(self):
        with pytest.raises(SolverConfigError):
            FdeProblem(alpha=0.9, field=lambda u: np.full_like(u, np.inf),
                       u0=np.array([1.0]), t_end=1.0, h=0.1)


class TestPece:
    def test_matches_analytic_solution_below_one(self):
        traj = solve_pece(make_linear(0.9, t_end=5.0, h=1e-3))
        idx = np.arange(0, len(traj.times), 25)
        ref = linear_relaxation_solution(0.9, 2.0, 3.0, 1.0, traj.times[idx])
        assert np.max(np.abs(traj.states[idx, 0] - ref)) <= 1e-3

    def test_integer_order_point_value(self):
        traj = solve_pece(make_linear(1.0, t_end=1.0, h=1e-3))
        assert traj.states[-1, 0] == pytest.approx(3.0 - 2.0 * math.exp(-2.0), abs=1e-5)

    def test_matches_analytic_solution_above_one(self):
        traj = solve_pece(make_linear(1.5, t_end=5.0, h=1e-3, v0=0.0))
        idx = np.arange(0, len(traj.times), 25)
        ref = linear_relaxation_solution(1.5, 2.0, 3.0, 1.0, traj.times[idx], v0=0.0)
        assert np.max(np.abs(traj.states[idx, 0] - ref)) <= 1e-3

    def test_nonzero_initial_derivative_term(self):
        traj = solve_pece(make_linear(1.5, t_end=5.0, h=1e-3, v0=0.5))
        idx = np.arange(0, len(traj.times), 25)
        ref = linear_relaxation_solution(1.5, 2.0, 3.0, 1.0, traj.times[idx], v0=0.5)
        assert np.max(np.abs(traj.states[idx, 0] - ref)) <= 1e-3

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.2, 1.7])
    def test_convergence_order(self, alpha):
        errs = []
        for h in (4e-3, 2e-3):
            traj = solve_pece(make_linear(alpha, t_end=5.0, h=h))
            step = max(1, len(traj.times) // 100)
            idx = np.arange(0, len(traj.times), step)
            ref = linear_relaxation_solution(alpha, 2.0, 3.0, 1.0, traj.times[idx], v0=0.0)
            errs.append(np.max(np.abs(traj.states[idx, 0] - ref)))
        assert errs[0] / errs[1] >= 2.0 ** min(2.0, 1.0 + alpha) * 0.7

    def test_equilibrium_preserved_exactly(self):
        traj = solve_pece(FdeProblem(alpha=0.7, field=linear_field,
                                     u0=np.array([3.0]), t_end=2.0, h=1e-2))
        assert np.all(traj.states == 3.0)

    def test_field_evaluation_count_formula(self):
        traj = solve_pece(make_linear(0.8, t_end=1.0, h=1e-2))
        assert traj.stats.steps == 100
        assert traj.stats.field_evaluations == 2 * traj.stats.steps + 1

    def test_determinism(self):
        a = solve_pece(make_linear(0.9, t_end=1.0, h=1e-3))
        b = solve_pece(make_linear(0.9, t_end=1.0, h=1e-3))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_uniform_grid(self):
        traj = solve_pece(make_linear(0.9, t_end=1.0, h=1e-2))
        assert np.allclose(np.diff(traj.times), 1e-2, rtol=0, atol=1e-15)
        assert traj.states[0, 0] == 1.0

    def test_divergence_reports_time(self):
        prob = FdeProblem(alpha=0.9, field=lambda u: u * u, u0=np.array([4.0]),
                          t_end=50.0, h=0.5)
        with pytest.raises(SolverDivergenceError) as err:
            solve_pece(prob)
        assert err.value.t > 0


class TestReferenceSolver:
    def test_point_value(self):
        traj = solve_reference_ode(make_linear(1.0, t_end=1.0, h=1e-2),
                                   rel_tol=1e-10, abs_tol=1e-12)
        assert traj.states[-1, 0] == pytest.approx(2.7293294335267746, abs=1e-7)

    def test_constant_field(self):
        prob = FdeProblem(alpha=1.0, field=lambda u: np.zeros_like(u),
                          u0=np.array([5.0]), t_end=3.0, h=1e-2)
        traj = solve_reference_ode(prob)
        assert np.allclose(traj.states, 5.0, atol=1e-12)

    def test_wrong_order_rejected(self):
        with pytest.raises(SolverConfigError):
            solve_reference_ode(make_linear(0.9))

    def test_gradient_flow_residual_monotone(self):
        objective, spec = make_vandermonde(10)
        lam = 0.001
        field = lambda u: -lam * objective.gradient(u)
        prob = FdeProblem(alpha=1.0, field=field, u0=np.zeros(11), t_end=500.0, h=1.0)
        traj = solve_reference_ode(prob, rel_tol=1e-8, abs_tol=1e-10)
        res = np.array([spec.residual_norm(u) for u in traj.states])
        assert np.all(np.diff(res) <= 1e-10 * res[0])

    def test_pece_agrees_with_reference_at_order_one(self):
        prob = make_linear(1.0, t_end=5.0, h=1e-3)
        pece = solve_pece(prob)
        ref = solve_reference_ode(prob, rel_tol=1e-10, abs_tol=1e-12, t_eval=pece.times)
        assert np.max(np.abs(pece.states - ref.states)) <= 1e-4


class TestTrajectoryExport:
    def test_csv_roundtrip(self, tmp_path):
        traj = solve_pece(make_linear(0.9, t_end=0.01, h=1e-3))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,u_0"
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1], traj.states[:, 0])

    def test_states_frozen(self):
        traj = solve_pece(make_linear(0.9, t_end=0.01, h=1e-3))
        with pytest.raises(ValueError):
            traj.states[0, 0] = 7.0
