"""Command-line interface: run spec files, reproduce canonical targets,
and self-check the library invariants.

Exit codes: 0 all runs completed, 2 configuration error, 3 at least one
run diverged (or a self-check failed).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ConfigError
from .harness import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, REPRODUCE_TARGETS, parse_spec_file, reproduce, run_experiment


def _check() -> int:
    """Fast invariant suite over the core numerics."""
    from . import (
        FdeProblem,
        MemoryWindow,
        Method,
        OptimizerConfig,
        Polynomial,
        StoppingRule,
        caputo_poly_derivative,
        caputo_taylor_series,
        gamma,
        gl_derivative,
        linear_relaxation_solution,
        make_quadratic,
        make_thomson,
        make_vandermonde,
        mittag_leffler,
        rl_poly_derivative,
        run_fgdm,
        solve_pece,
        solve_reference_ode,
    )

    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name} {detail}")

    rng = np.random.default_rng(20240615)

    xs = rng.uniform(0.1, 20.0, 50)
    rec = max(abs(gamma(x + 1) - x * gamma(x)) / gamma(x + 1) for x in xs)
    check("gamma recurrence", rec <= 1e-12, f"worst {rec:.2e}")

    ts = np.arange(0, 5.1, 0.5)
    ml_exp = float(np.max(np.abs(mittag_leffler(1.0, 1.0, -ts) - np.exp(-ts))))
    check("mittag-leffler exp identity", ml_exp <= 1e-10, f"worst {ml_exp:.2e}")
    ml_cos = float(np.max(np.abs(mittag_leffler(2.0, 1.0, -ts * ts) - np.cos(ts))))
    check("mittag-leffler cos identity", ml_cos <= 1e-9, f"worst {ml_cos:.2e}")

    window = MemoryWindow(step=1e-5)
    worst = 0.0
    for _ in range(5):
        coeffs = rng.uniform(-1, 1, rng.integers(2, 6))
        alpha = rng.uniform(0.1, 0.9)
        a = rng.uniform(0.0, 2.0)
        u = a + rng.uniform(0.5, 3.0)
        p = Polynomial(coeffs)
        win = MemoryWindow(lower_limit=a, step=1e-5)
        worst = max(worst, abs(gl_derivative(p, alpha, u, win) - rl_poly_derivative(p, alpha, u, a)))
    check("gl vs rl power rule", worst <= 1e-3, f"worst {worst:.2e}")

    p = Polynomial((1.0, -6.0, 9.0))
    ts = caputo_taylor_series([lambda u: 2 * (u - 3.0), lambda u: 2.0], 0.9, 3.3, 0.0, truncation=2)
    check("caputo series vs closed form", abs(ts - caputo_poly_derivative(p, 0.9, 3.3, 0.0)) <= 1e-10)

    prob = FdeProblem(alpha=0.9, field=lambda u: -2.0 * (u - 3.0), u0=np.array([1.0]), t_end=2.0, h=2e-3)
    traj = solve_pece(prob)
    ref = linear_relaxation_solution(0.9, 2.0, 3.0, 1.0, traj.times[::10])
    check("pece vs analytic solution", float(np.max(np.abs(traj.states[::10, 0] - ref))) <= 1e-3)

    prob1 = FdeProblem(alpha=1.0, field=lambda u: -2.0 * (u - 3.0), u0=np.array([1.0]), t_end=2.0, h=2e-3)
    pece1 = solve_pece(prob1)
    diff = np.max(np.abs(pece1.states - solve_reference_ode(prob1, t_eval=pece1.times).states))
    check("pece vs adaptive reference", float(diff) <= 1e-4)

    quad = make_quadratic(3.0)
    cfg = OptimizerConfig(method=Method.FGDM, alpha=0.9, omega=0.05,
                          fgdm_operator="caputo", window=MemoryWindow(lower_limit=0.0))
    res = run_fgdm(quad, 1.0, cfg, StoppingRule(k_max=3000))
    check("fgdm equilibrium shift", abs(float(res.converged_to[0]) - 3.3) <= 1e-3)

    for obj, label in ((make_vandermonde(4)[0], "vandermonde"), (make_thomson(4)[0], "thomson")):
        u = rng.uniform(0.3, 1.2, obj.dimension)
        g = obj.gradient(u)
        step = 1e-6 * (1 + np.linalg.norm(u))
        fd = np.empty_like(u)
        for i in range(len(u)):
            e = np.zeros_like(u)
            e[i] = step
            fd[i] = (obj.f(u + e) - obj.f(u - e)) / (2 * step)
        rel = np.linalg.norm(g - fd) / np.linalg.norm(g)
        check(f"{label} gradient vs finite differences", rel <= 1e-6, f"{rel:.2e}")

    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return EXIT_OK if failures == 0 else EXIT_DIVERGED


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracopt",
        description="Fractional-order gradient descent laboratory",
    )
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--workers", type=int, default=1, help="parallel cells (default: 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed, overriding a spec's seed (default: the spec's, or 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("spec_file")

    p_rep = sub.add_parser("reproduce", help="run a canonical reproduction target")
    p_rep.add_argument("target", choices=sorted(REPRODUCE_TARGETS))

    sub.add_parser("check", help="run the library invariant suite")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            spec = parse_spec_file(args.spec_file)
            if args.seed is not None:
                from dataclasses import replace
                spec = replace(spec, base_seed=args.seed)
            records, code = run_experiment(spec, args.out, workers=args.workers)
            for r in records:
                print(f"{r.label} r{r.restart}: final_metric={r.final_metric:.6e} [{r.status}]")
            return code
        if args.command == "reproduce":
            _, code = reproduce(args.target, args.out, seed=args.seed or 0, workers=args.workers)
            print(f"{args.target}: outputs written to {args.out}/")
            return code
        return _check()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
