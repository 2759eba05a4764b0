from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fracopt import _selfcheck as sc
from fracopt import fdesolve
from fracopt.errors import SolverConfigError, SolverDivergenceError, StiffnessError
from fracopt.fdesolve import (
    FdeProblem,
    linear_relaxation_solution,
    solve_pece,
    solve_reference_ode,
    uniform_grid,
)
from fracopt.problems import make_quadratic, make_thomson, make_vandermonde, random_sphere_configuration


def linear_field(u):
    return -2.0 * (u - 3.0)


def make_linear(alpha, t_end=5.0, h=2e-3, u0=1.0, v0=None):
    if alpha > 1 and v0 is None:
        v0 = 0.0
    return FdeProblem(alpha=alpha, field=linear_field, u0=np.array([u0]),
                      t_end=t_end, h=h, v0=v0)


class TestTypes:
    def test_order_bounds(self):
        for alpha in (0.0, 2.5):
            with pytest.raises(SolverConfigError, match="order"):
                make_linear(alpha)
        assert make_linear(2.0).alpha == 2.0
        with pytest.raises(SolverConfigError, match="order"):
            linear_relaxation_solution(2.5, 2.0, 3.0, 1.0, np.array([0.0, 1.0]))

    def test_v0_required_iff_order_above_one(self):
        with pytest.raises(SolverConfigError):
            FdeProblem(alpha=1.5, field=linear_field, u0=np.array([1.0]),
                       t_end=1.0, h=1e-2)
        with pytest.raises(SolverConfigError):
            FdeProblem(alpha=0.9, field=linear_field, u0=np.array([1.0]),
                       t_end=1.0, h=1e-2, v0=np.array([0.0]))

    def test_closed_form_rejects_v0_at_order_one_or_below(self):
        # the v0 term exists for alpha > 1 only; it was dropped without a word
        times = np.linspace(0.0, 2.0, 21)
        for alpha in (0.5, 1.0):
            with pytest.raises(SolverConfigError, match="v0"):
                linear_relaxation_solution(alpha, 2.0, 3.0, 1.0, times, v0=5.0)
            # v0 = 0 stays accepted at every order
            assert np.array_equal(linear_relaxation_solution(alpha, 2.0, 3.0, 1.0, times, v0=0.0),
                                  linear_relaxation_solution(alpha, 2.0, 3.0, 1.0, times))

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
        assert sc.pece_closed_form_error(0.9, 5.0) <= sc.PECE_CLOSED_FORM_BOUND

    def test_integer_order_point_value(self):
        traj = solve_pece(make_linear(1.0, t_end=1.0, h=1e-3))
        assert traj.states[-1, 0] == pytest.approx(3.0 - 2.0 * math.exp(-2.0), abs=1e-5)

    def test_matches_analytic_solution_above_one(self):
        assert sc.pece_closed_form_error(1.5, 5.0) <= sc.PECE_CLOSED_FORM_BOUND

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

    def test_history_beyond_memory_is_config_error(self, monkeypatch):
        # the weights and the history are sized by the step count, as the grid is
        def no_memory(*_args):
            raise MemoryError
        monkeypatch.setattr(fdesolve, "_reversed_weights", no_memory)
        with pytest.raises(SolverConfigError, match="^500 steps do not fit in memory$"):
            solve_pece(make_linear(0.9, t_end=1.0, h=2e-3))

    def test_determinism(self):
        a = solve_pece(make_linear(0.9, t_end=1.0, h=1e-3))
        b = solve_pece(make_linear(0.9, t_end=1.0, h=1e-3))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_uniform_grid(self):
        traj = solve_pece(make_linear(0.9, t_end=1.0, h=1e-2))
        assert np.allclose(np.diff(traj.times), 1e-2, rtol=0, atol=1e-15)
        assert traj.states[0, 0] == 1.0

    @pytest.mark.parametrize("t_end", [0.3, 0.7])
    def test_grid_ends_exactly_at_horizon(self, t_end):
        # 0.1 * 7 rounds to 0.7000000000000001; the last grid point must not
        traj = solve_pece(make_linear(0.9, t_end=t_end, h=0.1))
        assert traj.times[-1] == t_end
        assert traj.times[:-1].tobytes() == (0.1 * np.arange(traj.stats.steps)).tobytes()
        assert uniform_grid(t_end, 0.1).tobytes() == traj.times.tobytes()

    def test_divergence_reports_time(self):
        prob = FdeProblem(alpha=0.9, field=lambda u: u * u, u0=np.array([4.0]),
                          t_end=50.0, h=0.5)
        with pytest.raises(SolverDivergenceError) as err:
            solve_pece(prob)
        assert err.value.t > 0


def _both_loops(problem):
    """The solve on Python floats and on state arrays."""
    return (fdesolve._solve_pece(problem, scalar=True),
            fdesolve._solve_pece(problem, scalar=False))


def _assert_same_bytes(floats, arrays):
    assert floats.times.tobytes() == arrays.times.tobytes()
    assert floats.states.tobytes() == arrays.states.tobytes()
    assert floats.stats == arrays.stats


_QUADRATIC_GRADIENT = make_quadratic(3.0).gradient


class TestFloatLoop:
    """At d = 1 the float loop must give the array loop's bytes."""

    @pytest.mark.parametrize("alpha,v0", [(0.3, None), (0.9, None), (1.0, None),
                                          (1.5, 0.5), (2.0, 0.0)])
    @pytest.mark.parametrize("field,u0", [
        (linear_field, 1.0),
        (lambda u: -1.0 * _QUADRATIC_GRADIENT(u), 1.0),  # FCTM on (u - 3)^2, gain 1
        (lambda u: -np.sin(u), 2.5),
        (linear_field, 3.0),  # at the equilibrium
    ], ids=["linear", "fctm-quadratic", "sine", "equilibrium"])
    def test_same_bytes_as_array_loop(self, alpha, v0, field, u0):
        floats, arrays = _both_loops(FdeProblem(alpha=alpha, field=field, u0=np.array([u0]),
                                                t_end=5.0, h=1e-2, v0=v0))
        _assert_same_bytes(floats, arrays)
        if u0 == 3.0 and not v0:
            assert np.all(floats.states == 3.0)

    def test_same_divergence_time(self):
        prob = FdeProblem(alpha=0.9, field=lambda u: u * u, u0=np.array([4.0]),
                          t_end=50.0, h=0.5)
        times = []
        for scalar in (True, False):
            with pytest.raises(SolverDivergenceError) as err:
                fdesolve._solve_pece(prob, scalar=scalar)
            times.append((err.value.t, str(err.value)))
        assert times[0] == times[1]

    @pytest.mark.parametrize("field", [
        lambda u: [float(-2.0 * (u[0] - 3.0))],
        lambda u: (-2.0 * (u - 3.0)).astype(np.float32),
        lambda u: np.rint(-2.0 * (u - 3.0)).astype(np.int64),
    ], ids=["list", "float32", "int64"])
    def test_field_result_types(self, field):
        _assert_same_bytes(*_both_loops(FdeProblem(alpha=0.8, field=field, u0=np.array([1.0]),
                                                   t_end=2.0, h=1e-2)))

    def test_loop_chosen_by_state_size(self, monkeypatch):
        ran = []

        def spy(problem, scalar, _solve=fdesolve._solve_pece):
            ran.append(scalar)
            return _solve(problem, scalar)
        monkeypatch.setattr(fdesolve, "_solve_pece", spy)
        solve_pece(make_linear(0.9, t_end=1.0, h=0.1))
        solve_pece(FdeProblem(alpha=0.9, field=linear_field, u0=np.array([1.0, 2.0]),
                              t_end=1.0, h=0.1))
        assert ran == [True, False]

    @settings(derandomize=True, database=None, deadline=None)
    @given(alpha=st.floats(0.0, 2.0, exclude_min=True), steps=st.integers(2, 400),
           h=st.floats(1e-3, 0.1), u0=st.floats(-5.0, 5.0), v0=st.floats(-2.0, 2.0),
           field=st.sampled_from([linear_field, lambda u: -np.sin(u)]))
    def test_same_bytes_property(self, alpha, steps, h, u0, v0, field):
        prob = FdeProblem(alpha=alpha, field=field, u0=np.array([u0]), t_end=steps * h, h=h,
                          v0=v0 if alpha > 1 else None)
        outcomes = []
        for scalar in (True, False):
            try:
                outcomes.append(fdesolve._solve_pece(prob, scalar=scalar))
            except SolverDivergenceError as err:
                outcomes.append(str(err))
        if isinstance(outcomes[0], str):
            assert outcomes[0] == outcomes[1]
        else:
            _assert_same_bytes(*outcomes)


# Linear stability bound z*(alpha) of the scheme on D^a u = -lam u, found by
# geometric bisection: after 4 000 steps the state decays iff lam h^a < z*.
# z*(1) = 2 is the stability interval of Heun's method, which the scheme is at
# order 1.
STABILITY_BOUND = {0.5: 1.33, 0.9: 1.83, 1.0: 2.0, 1.5: 3.32, 2.0: 4.00}


def _decay(alpha, lam, u0=(1.0,)):
    """D^a u = -lam u on 4 000 steps of h = 1, so that lam h^a = lam."""
    return FdeProblem(alpha=alpha, field=lambda u: -lam * u, u0=np.array(u0), t_end=4000.0,
                      h=1.0, v0=0.0 if alpha > 1 else None)


class TestSchemeContract:
    """Where the discrete scheme is stable, and how fast it converges."""

    @pytest.mark.parametrize("alpha", sorted(STABILITY_BOUND))
    def test_linear_stability_bound(self, alpha):
        z = STABILITY_BOUND[alpha]
        assert abs(solve_pece(_decay(alpha, 0.95 * z)).states[-1, 0]) < 1.0
        assert abs(solve_pece(_decay(alpha, 1.05 * z)).states[-1, 0]) > 1.0

    def test_heun_bound_is_exact(self):
        # at lam h = 2 Heun's amplification 1 - z + z^2/2 is exactly 1, and
        # every weight, sum and state of the scheme is an exact integer
        assert np.all(solve_pece(_decay(1.0, 2.0)).states == 1.0)

    def test_linear_stability_bound_on_state_arrays(self):
        lam = np.array([0.95, 1.05]) * STABILITY_BOUND[0.9]
        last = solve_pece(_decay(0.9, lam, u0=(1.0, 1.0))).states[-1]
        assert abs(last[0]) < 1.0 < abs(last[1])

    @pytest.mark.parametrize("alpha", [0.6, 0.9, 1.2, 1.5, 1.8])
    def test_observed_order_at_fixed_time(self, alpha):
        # the figures' flow D^a u = -2(u - 3) from u = 1, against its closed form
        # at t = 1.  Below order 1 the order 1 + a is sharp; above it, the error
        # is O(h^2), and at t = 1 its h^(1 + a) term still shows (2.27 at a = 1.2)
        exact = linear_relaxation_solution(alpha, 2.0, 3.0, 1.0, np.array([1.0]), v0=0.0)[0]
        e1, e2 = (abs(solve_pece(make_linear(alpha, t_end=1.0, h=h)).states[-1, 0] - exact)
                  for h in (0.01, 0.005))
        assert min(2.0, 1.0 + alpha) - 0.1 <= math.log2(e1 / e2) <= 1.0 + alpha + 0.1

    # Pinned as measured, to 1e-3 relative, so that a change of the scheme
    # shows.  Protocol: D^0.3 u = -2(u - 3) from u = 0 on [0, 2] at
    # h = 0.02, 0.01 and 0.005, against the closed form on every grid point.
    @staticmethod
    def _low_order_errors(h):
        traj = solve_pece(make_linear(0.3, t_end=2.0, h=h, u0=0.0))
        exact = linear_relaxation_solution(0.3, 2.0, 3.0, 0.0, traj.times)
        return np.abs(traj.states[:, 0] - exact)

    def test_first_step_error_at_low_order(self):
        # the start singularity t^0.3 puts the largest error at t = h, and
        # that error is only first order in h
        errors = [self._low_order_errors(h) for h in (0.02, 0.01, 0.005)]
        assert [int(np.argmax(e)) for e in errors] == [1, 1, 1]
        assert [e[1] for e in errors] == pytest.approx([0.28764, 0.14925, 0.073697], rel=1e-3)

    def test_pre_asymptotic_order_at_low_order(self):
        # at t = 2 the observed orders read 1.64 and 1.54, above the
        # asymptotic 1 + a = 1.3 (Diethelm, Ford and Freed, Numer. Algorithms
        # 36 (2004) 31-52)
        errors = [self._low_order_errors(h)[-1] for h in (0.02, 0.01, 0.005)]
        assert errors == pytest.approx([9.4498e-4, 3.0354e-4, 1.0445e-4], rel=1e-3)
        orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        assert orders == pytest.approx([1.64, 1.54], abs=0.01)

    def test_order_two_is_second_order_without_damping(self):
        # D^2 u = -0.2 u, u(0) = 1, u'(0) = 0 on [0, 40] (2.8 periods), against
        # cos(sqrt(0.2) t) on every grid point: a tenth of the step gives a
        # hundredth of the largest error, and at h = 0.01 the amplitude is
        # kept to 1.5e-5, so the decay at order 2 in fig3/fig4 is the flow's
        errors = []
        for h in (0.1, 0.01):
            traj = solve_pece(FdeProblem(alpha=2.0, field=lambda u: -0.2 * u, u0=np.array([1.0]),
                                         t_end=40.0, h=h, v0=0.0))
            errors.append(np.max(np.abs(traj.states[:, 0] - np.cos(math.sqrt(0.2) * traj.times))))
        assert errors == pytest.approx([1.4502e-3, 1.4430e-5], rel=1e-3)
        assert math.log10(errors[0] / errors[1]) == pytest.approx(2.0, abs=0.01)


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

    def test_blow_up_raises_stiffness_error(self):
        # u' = u^2 from u(0) = 1 is 1/(1 - t): the step size collapses at t = 1
        prob = FdeProblem(alpha=1.0, field=lambda u: u * u, u0=[1.0], t_end=2.0, h=0.5)
        with pytest.raises(StiffnessError, match="adaptive step control failed: Required step size"):
            solve_reference_ode(prob)

    def test_wrong_order_rejected(self):
        with pytest.raises(SolverConfigError):
            solve_reference_ode(make_linear(0.9))

    def test_nan_field_raises_stiffness_error(self):
        # NaN error norms are rejections: the step shrinks until it fails, as
        # solve_ivp does after 440 field calls (the first is FdeProblem's check
        # of F(u0), which the solver reuses); the call budget turns a hang into
        # a failure
        calls = 0

        def field(u):
            nonlocal calls
            calls += 1
            if calls > 10_000:
                raise RuntimeError("field call budget exhausted")
            return np.where(u > 1.5, np.nan, u)

        prob = FdeProblem(alpha=1.0, field=field, u0=[1.0], t_end=2.0, h=0.5)
        with pytest.raises(StiffnessError, match="adaptive step control failed: Required step size"):
            solve_reference_ode(prob)
        assert calls == 440

    def test_t_eval_outside_horizon_rejected(self):
        for t_eval in ([0.0, 2.0], [0.5, 0.5], [-0.1, 0.5]):
            with pytest.raises(SolverConfigError, match="t_eval"):
                solve_reference_ode(make_linear(1.0, t_end=1.0, h=0.5), t_eval=t_eval)

    def test_gradient_flow_residual_monotone(self):
        objective, spec = make_vandermonde(10)
        lam = 0.001
        field = lambda u: -lam * objective.gradient(u)
        prob = FdeProblem(alpha=1.0, field=field, u0=np.zeros(11), t_end=500.0, h=1.0)
        traj = solve_reference_ode(prob, rel_tol=1e-8, abs_tol=1e-10)
        res = np.array([spec.residual_norm(u) for u in traj.states])
        assert np.all(np.diff(res) <= 1e-10 * res[0])

    def test_pece_agrees_with_reference_at_order_one(self):
        assert sc.pece_reference_error(5.0) <= sc.PECE_REFERENCE_BOUND


def _gradient_flow(objective, u0, t_end, h, gain=1.0):
    return FdeProblem(alpha=1.0, field=lambda u: -gain * objective.gradient(u),
                      u0=u0, t_end=t_end, h=h)


REFERENCE_CASES = {
    "quadratic": lambda: (_gradient_flow(make_quadratic(3.0), [1.0], 5.0, 0.01), 1e-8, 1e-10),
    "relaxation": lambda: (make_linear(1.0), 1e-10, 1e-12),
    "vandermonde-d11": lambda: (_gradient_flow(make_vandermonde(10)[0], np.zeros(11), 500.0, 1.0,
                                               gain=0.001), 1e-8, 1e-10),
    "thomson-n4": lambda: (_gradient_flow(make_thomson(4)[0], random_sphere_configuration(4, 1),
                                          5.0, 0.05), 1e-8, 1e-10),
    "thomson-n12": lambda: (_gradient_flow(make_thomson(12)[0], random_sphere_configuration(12, 2),
                                           2.0, 0.05), 1e-8, 1e-10),
    "zero-field": lambda: (FdeProblem(alpha=1.0, field=lambda u: np.zeros_like(u),
                                      u0=[5.0], t_end=3.0, h=1e-2), 1e-8, 1e-10),
}


@pytest.mark.parametrize("on_grid", [False, True], ids=["steps", "t_eval"])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_reference_solver_matches_solve_ivp_bit_for_bit(case, on_grid):
    problem, rel_tol, abs_tol = REFERENCE_CASES[case]()
    t_eval = uniform_grid(problem.t_end, problem.h) if on_grid else None
    calls = 0

    def rhs(_t, y):
        nonlocal calls
        calls += 1
        return problem.field(y)

    sol = solve_ivp(rhs, (0.0, problem.t_end), problem.u0, method="RK45",
                    rtol=rel_tol, atol=abs_tol, t_eval=t_eval)
    assert sol.success
    expected = sol.y.T.copy()
    expected[0] = problem.u0
    traj = solve_reference_ode(problem, rel_tol=rel_tol, abs_tol=abs_tol, t_eval=t_eval)
    assert traj.times.tobytes() == np.asarray(sol.t, dtype=float).tobytes()
    assert traj.states.tobytes() == expected.tobytes()
    assert traj.stats.field_evaluations == calls
    assert traj.stats.steps == sol.t.size - 1


COUNTED_SOLVES = {
    "pece-d1": (solve_pece, dict(alpha=0.9, u0=[1.0])),
    "pece-d2": (solve_pece, dict(alpha=0.9, u0=[1.0, 2.0])),
    "pece-a1.5": (solve_pece, dict(alpha=1.5, u0=[1.0], v0=0.5)),
    "reference": (solve_reference_ode, dict(alpha=1.0, u0=[1.0, 2.0])),
    "reference-t_eval": (lambda p: solve_reference_ode(p, t_eval=uniform_grid(p.t_end, p.h)),
                         dict(alpha=1.0, u0=[1.0])),
}


@pytest.mark.parametrize("case", sorted(COUNTED_SOLVES))
def test_field_called_exactly_field_evaluations_times(case):
    # FdeProblem's check of F(u0) is the solve's first evaluation, so the
    # count covers every call from construction on
    solve, kwargs = COUNTED_SOLVES[case]
    calls = 0

    def field(u):
        nonlocal calls
        calls += 1
        return -2.0 * (u - 3.0)

    traj = solve(FdeProblem(field=field, t_end=0.7, h=0.1, **kwargs))
    assert calls == traj.stats.field_evaluations


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
