"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The full suite takes a few minutes; the largest
items are the shared-horizon residual comparison (criterion 5) and the
seeded point-charge restarts (criterion 6).
"""

from __future__ import annotations

import math

import numpy as np

from conftest import gradient_relative_error
from fracopt.fdesolve import (
    FdeProblem,
    linear_relaxation_solution,
    solve_pece,
    solve_reference_ode,
)
from fracopt.fracops import (
    MemoryWindow,
    Polynomial,
    caputo_poly_derivative,
    caputo_taylor_series,
    gl_derivative,
    rl_poly_derivative,
)
from fracopt.harness import (
    TABLE1_H,
    TABLE1_HORIZON,
    dominant_mode_target,
    reproduce,
)
from fracopt.optimizers import (
    EnergyTrace,
    Method,
    OptimizerConfig,
    StoppingRule,
    oscillation_census,
    run_fctm,
    run_fgdm,
    stability_envelope_check,
)
from fracopt.problems import (
    THOMSON_REFERENCE_ENERGIES,
    make_quadratic,
    make_thomson,
    make_vandermonde,
)

QUAD = make_quadratic(3.0)

# The reported passage times (t = 8.4 at order 1.2, value 2.997 at t = 32.3
# for order 1) pin the effective flow gain at 0.1: with gain 1 the order-1
# trajectory sits at 3.0 - 2e-64.6 by t = 32.3, which cannot round to 2.997.
TIMING_GAIN = 0.1


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def fctm(alpha, gain, h, t_end, v0=None):
    kwargs = dict(method=Method.FCTM, alpha=alpha, gain=gain, h=h, t_end=t_end)
    if alpha > 1:
        kwargs["v0"] = 0.0 if v0 is None else v0
    return OptimizerConfig(**kwargs)


def test_criterion_1_quadratic_timing():
    stop = StoppingRule(thresholds=(3e-3,))
    res = run_fctm(QUAD, np.array([1.0]), fctm(1.2, TIMING_GAIN, 1e-3, 12.0), stop)
    passage = res.first_passage.get(3e-3)
    ok_12 = passage is not None and abs(passage - 8.4) <= 0.15 * 8.4

    res1 = run_fctm(QUAD, np.array([1.0]), fctm(1.0, TIMING_GAIN, 1e-3, 33.0))
    i = int(round(32.3 / 1e-3))
    value = float(res1.trace.states[i, 0])
    ok_1 = abs(value - 2.997) <= 2e-3

    report(
        "1 quadratic timing",
        ok_12 and ok_1,
        f"order 1.2 passage t={passage}, order 1 value u(32.3)={value:.5f}",
    )


def test_criterion_2_fgdm_misconvergence():
    details = []
    ok = True
    for alpha in (0.7, 0.8, 0.9):
        cfg = OptimizerConfig(method=Method.FGDM, alpha=alpha, omega=0.05,
                              fgdm_operator="caputo",
                              window=MemoryWindow(lower_limit=0.0))
        res = run_fgdm(QUAD, 1.0, cfg, StoppingRule(k_max=5000))
        gap = abs(float(res.converged_to[0]) - 3.0 * (2.0 - alpha))
        ok &= gap <= 1e-3
        details.append(f"a={alpha}: fixed-limit gap {gap:.2e}")

        h = 1e-3
        window = MemoryWindow(lower_limit=0.0, memory_length=h, step=h)
        cfg = OptimizerConfig(method=Method.FGDM, alpha=alpha, omega=0.05,
                              fgdm_operator="caputo", window=window)
        res = run_fgdm(QUAD, 1.0, cfg, StoppingRule(k_max=20000))
        wgap = abs(float(res.converged_to[0]) - (3.0 + h * (1 - alpha) / (2 - alpha)))
        ok &= wgap <= 5e-4
        details.append(f"windowed gap {wgap:.2e}")
    report("2 fgdm misconvergence", ok, "; ".join(details))


def test_criterion_3_solver_oracle_equivalence():
    details = []
    ok = True
    for alpha in (0.5, 0.9, 1.0, 1.2, 1.7):
        v0 = 0.0 if alpha > 1 else None
        prob = FdeProblem(alpha=alpha, field=lambda u: -2.0 * (u - 3.0),
                          u0=np.array([1.0]), t_end=10.0, h=1e-3, v0=v0)
        traj = solve_pece(prob)
        ref = linear_relaxation_solution(alpha, 2.0, 3.0, 1.0, traj.times, v0=0.0)
        err = float(np.max(np.abs(traj.states[:, 0] - ref)))
        ok &= err <= 1e-3
        details.append(f"a={alpha}: {err:.2e}")
        if alpha == 1.0:
            ref_traj = solve_reference_ode(prob, rel_tol=1e-10, abs_tol=1e-12,
                                           t_eval=traj.times)
            err1 = float(np.max(np.abs(traj.states - ref_traj.states)))
            ok &= err1 <= 1e-4
            details.append(f"vs adaptive ref: {err1:.2e}")
    report("3 solver oracle equivalence", ok, "; ".join(details))


def test_criterion_4_stability_envelope_and_oscillations():
    details = []
    ok = True
    for alpha in (0.3, 0.5, 0.7, 0.9, 1.0):
        res = run_fctm(QUAD, np.array([1.0]), fctm(alpha, 1.0, 1e-2, 20.0))
        _, inside = stability_envelope_check(res.trace, np.array([3.0]),
                                             eta=2.0, alpha=alpha, slack=1e-6)
        ok &= inside
        details.append(f"a={alpha}: envelope {'ok' if inside else 'violated'}")
    for alpha in (1.2, 1.5, 1.7):
        res = run_fctm(QUAD, np.array([1.0]), fctm(alpha, 1.0, 1e-2, 20.0))
        diff = res.trace.states - 3.0
        energy = EnergyTrace(times=res.trace.times,
                             energies=np.sum(diff * diff, axis=1))
        census = oscillation_census(energy)
        ok &= census >= 1
        details.append(f"a={alpha}: census {census}")
    report("4 stability envelope + oscillations", ok, "; ".join(details))


def test_criterion_5_shared_horizon_residual_comparison():
    target = dominant_mode_target(10)
    obj, _spec = make_vandermonde(10, u_true=target)
    finals = {}
    passages = {}
    for alpha in (0.8, 1.0, 1.2, 1.4):
        cfg = fctm(alpha, gain=0.001, h=TABLE1_H, t_end=TABLE1_HORIZON)
        res = run_fctm(obj, np.zeros(11), cfg, StoppingRule(thresholds=(0.1, 0.01)))
        finals[alpha] = res.final_metric
        passages[alpha] = res.first_passage

    def series(threshold):
        # a threshold never reached within the shared horizon orders as
        # "beyond horizon" (the original comparison prints these as >horizon)
        return [passages[a].get(threshold, math.inf) for a in (0.8, 1.0, 1.2, 1.4)]

    t01 = series(0.1)
    t001 = series(0.01)
    ok_a = all(x > y for x, y in zip(t01, t01[1:])) and all(
        x > y for x, y in zip(t001, t001[1:])
    )
    ok_a &= all(math.isfinite(t) for t in t01)
    ok_a &= all(math.isfinite(t) for t in t001[1:])  # orders >= 1 must pass
    ratio = finals[1.0] / finals[1.2]
    ok_b = ratio >= 10.0
    ok_c = finals[0.8] > finals[1.0]
    report(
        "5 shared-horizon residual comparison",
        ok_a and ok_b and ok_c,
        f"t<0.1={t01}, t<0.01={t001}, ratio={ratio:.1f}, "
        f"r(0.8)={finals[0.8]:.2e} vs r(1.0)={finals[1.0]:.2e}",
    )


def test_criterion_6_point_charge_energies(tmp_path):
    _, code = reproduce("table2", tmp_path, seed=0)
    assert code == 0
    lines = (tmp_path / "table2__best.csv").read_text().splitlines()
    header = lines[1].split(",")
    ok = True
    details = []
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 8  # 4 charge counts x 2 methods
    for row in rows:
        n = int(row[header.index("charges")])
        label = row[header.index("label")]
        best = float(row[header.index("best_energy")])
        ref = THOMSON_REFERENCE_ENERGIES[n]
        rel = (best - ref) / ref
        ok &= rel <= 0.01
        ok &= best >= ref - 1e-6
        details.append(f"N={n} {label}: {rel * 100:.3f}%")
    report("6 point-charge energies", ok, "; ".join(details))


def test_criterion_7_gradient_checks(rng):
    ok = True
    details = []
    cases = [("quadratic", QUAD, None)]
    obj_v, _ = make_vandermonde(10)
    cases.append(("vandermonde m=10", obj_v, None))
    for n in (4, 12):
        obj_t, _ = make_thomson(n)
        cases.append((f"thomson N={n}", obj_t, n))
    for name, obj, n in cases:
        worst = 0.0
        for _ in range(20):
            if n is None:
                u = rng.uniform(-2.0, 2.0, obj.dimension)
            else:
                theta = rng.uniform(-math.pi, math.pi, n)
                phi = rng.uniform(0.1, math.pi - 0.1, n)
                u = np.concatenate((theta, phi))
            worst = max(worst, gradient_relative_error(obj, u))
        ok &= worst <= 1e-6
        details.append(f"{name}: {worst:.2e}")
    report("7 gradient checks", ok, "; ".join(details))


def test_criterion_8_operator_cross_validation(rng):
    worst_gl = 0.0
    for _ in range(50):
        degree = int(rng.integers(0, 5))
        p = Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
        alpha = rng.uniform(0.05, 0.95)
        a = rng.uniform(0.0, 2.0)
        u = a + rng.uniform(0.5, 3.0)
        gl = gl_derivative(p, alpha, u, MemoryWindow(lower_limit=a, step=1e-5))
        worst_gl = max(worst_gl, abs(gl - rl_poly_derivative(p, alpha, u, a)))
    ok_gl = worst_gl <= 1e-3

    worst_ts = 0.0
    for _ in range(20):
        degree = int(rng.integers(1, 5))
        p = Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
        derivs = []
        q = p
        for _k in range(degree):
            q = q.derivative()
            derivs.append(q)
        alpha = rng.uniform(0.05, 0.95)
        a = rng.uniform(0.0, 2.0)
        u = a + rng.uniform(0.2, 3.0)
        ts = caputo_taylor_series(derivs, alpha, u, a, truncation=degree)
        worst_ts = max(worst_ts, abs(ts - caputo_poly_derivative(p, alpha, u, a)))
    ok_ts = worst_ts <= 1e-10

    report(
        "8 operator cross-validation",
        ok_gl and ok_ts,
        f"gl vs power rule {worst_gl:.2e}; series vs closed form {worst_ts:.2e}",
    )
