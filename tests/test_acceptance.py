"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The module takes about 35 s on a shared 2-vCPU
Xeon machine, most of it in the seeded point-charge restarts (criterion
6, 14-18 s) and the shared-horizon residual comparison (criterion 5,
12-15 s).  Criteria 2, 3, 7 and 8 call the invariant checks of
fracopt._selfcheck, which `fracopt check` runs on smaller cases against
the same bounds.
"""

from __future__ import annotations

import math

import numpy as np

from fracopt import _selfcheck as sc
from fracopt.fracops import MemoryWindow, Polynomial
from fracopt.harness import (
    TABLE1_H,
    TABLE1_HORIZON,
    dominant_mode_target,
    reproduce,
)
from fracopt.optimizers import (
    Method,
    OptimizerConfig,
    StoppingRule,
    oscillation_census,
    run_fctm,
    run_restarts,
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
        gap = sc.fgdm_shift_error(alpha, 5000)
        ok &= gap <= sc.FGDM_SHIFT_BOUND
        details.append(f"a={alpha}: fixed-limit gap {gap:.2e}")

        h = 1e-3
        window = MemoryWindow(lower_limit=0.0, memory_length=h)
        cfg = OptimizerConfig(method=Method.FGDM, alpha=alpha, omega=0.05,
                              fgdm_operator="caputo", window=window)
        res = run_restarts(QUAD, 1.0, cfg, StoppingRule(k_max=20000))[0]
        wgap = abs(float(res.converged_to[0]) - (3.0 + h * (1 - alpha) / (2 - alpha)))
        ok &= wgap <= 5e-4
        details.append(f"windowed gap {wgap:.2e}")
    report("2 fgdm misconvergence", ok, "; ".join(details))


def test_criterion_3_solver_oracle_equivalence():
    details = []
    ok = True
    for alpha in (0.5, 0.9, 1.0, 1.2, 1.7):
        err = sc.pece_closed_form_error(alpha, 10.0)
        ok &= err <= sc.PECE_CLOSED_FORM_BOUND
        details.append(f"a={alpha}: {err:.2e}")
        if alpha == 1.0:
            err1 = sc.pece_reference_error(10.0)
            ok &= err1 <= sc.PECE_REFERENCE_BOUND
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
        census = oscillation_census(np.sum(diff * diff, axis=1))
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
        if n is None:
            points = [rng.uniform(-2.0, 2.0, obj.dimension) for _ in range(20)]
        else:
            points = [np.concatenate((rng.uniform(-math.pi, math.pi, n),
                                      rng.uniform(0.1, math.pi - 0.1, n))) for _ in range(20)]
        worst = sc.gradient_error(obj, points)
        ok &= worst <= sc.GRADIENT_BOUND
        details.append(f"{name}: {worst:.2e}")
    report("7 gradient checks", ok, "; ".join(details))


def test_criterion_8_operator_cross_validation(rng):
    def case(min_degree, min_span):
        # (p, alpha, u, a) with u at least min_span above the lower limit a
        p = Polynomial(rng.uniform(-1.0, 1.0, int(rng.integers(min_degree, 5)) + 1))
        alpha = rng.uniform(0.05, 0.95)
        a = rng.uniform(0.0, 2.0)
        return p, alpha, a + rng.uniform(min_span, 3.0), a

    worst_gl = sc.gl_power_rule_error([case(0, 0.5) for _ in range(50)])
    ok_gl = worst_gl <= sc.GL_POWER_RULE_BOUND
    worst_ts = sc.caputo_series_error([case(1, 0.2) for _ in range(20)])
    ok_ts = worst_ts <= sc.CAPUTO_SERIES_BOUND

    report(
        "8 operator cross-validation",
        ok_gl and ok_ts,
        f"gl vs power rule {worst_gl:.2e}; series vs closed form {worst_ts:.2e}",
    )
