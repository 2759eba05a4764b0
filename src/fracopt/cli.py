"""Command-line interface: run spec files, reproduce canonical targets,
and self-check the library invariants.

Exit codes: 0 all runs completed, 2 configuration error, 3 at least one
run diverged (or a self-check failed).
"""

from __future__ import annotations

import argparse
import os
import random
import sys

import numpy as np

from .errors import ConfigError
from .harness import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, REPRODUCE_TARGETS, parse_spec_file, reproduce, run_experiment


def _check() -> int:
    """Fast invariant suite: small cases of the checks that the acceptance
    criteria and the unit tests run, against the same bounds."""
    from . import _selfcheck as sc
    from .fracops import Polynomial
    from .problems import make_thomson, make_vandermonde

    rng = random.Random(20240615)
    ts = np.arange(0, 5.1, 0.5)

    def power_rule_case():
        p = Polynomial([rng.uniform(-1, 1) for _ in range(rng.randint(2, 5))])
        alpha = rng.uniform(0.1, 0.9)
        a = rng.uniform(0.0, 2.0)
        return p, alpha, a + rng.uniform(0.5, 3.0), a

    # evaluated in order: the random cases draw from one generator
    checks = [
        ("gamma recurrence", sc.gamma_recurrence_error([rng.uniform(0.1, 20.0) for _ in range(50)]),
         sc.GAMMA_RECURRENCE_BOUND),
        ("mittag-leffler exp identity", sc.ml_exp_error(ts), sc.ML_EXP_BOUND),
        ("mittag-leffler cos identity", sc.ml_cos_error(ts), sc.ML_COS_BOUND),
        ("gl vs rl power rule", sc.gl_power_rule_error([power_rule_case() for _ in range(5)]),
         sc.GL_POWER_RULE_BOUND),
        ("caputo series vs closed form",
         sc.caputo_series_error([(Polynomial((1.0, -6.0, 9.0)), 0.9, 3.3, 0.0)]),
         sc.CAPUTO_SERIES_BOUND),
        ("pece vs analytic solution", sc.pece_closed_form_error(0.9, 2.0),
         sc.PECE_CLOSED_FORM_BOUND),
        ("pece vs adaptive reference", sc.pece_reference_error(2.0), sc.PECE_REFERENCE_BOUND),
        ("fgdm equilibrium shift", sc.fgdm_shift_error(0.9, 3000), sc.FGDM_SHIFT_BOUND),
    ]
    for obj, label in ((make_vandermonde(4)[0], "vandermonde"), (make_thomson(4)[0], "thomson")):
        u = [rng.uniform(0.3, 1.2) for _ in range(obj.dimension)]
        checks.append((f"{label} gradient vs finite differences", sc.gradient_error(obj, [u]),
                       sc.GRADIENT_BOUND))

    failed = 0
    for name, worst, bound in checks:
        ok = worst <= bound
        failed += not ok
        print(f"PASS {name}" if ok else f"FAIL {name} worst {worst:.2e} > bound {bound:g}")
    print(f"{failed} check(s) failed" if failed else "all checks passed")
    return EXIT_DIVERGED if failed else EXIT_OK


# OpenBLAS's thread-count getter, as plain, 64-bit-integer and numpy-wheel builds name it
_OPENBLAS_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_")


def _default_workers() -> int:
    """The CPUs this process may use over the threads that numpy's OpenBLAS
    runs a product on, at least 1.  A forked worker keeps its BLAS threads,
    so its bits match one process's: a d = 1 history sum of more than about
    9 200 steps rounds differently on one BLAS thread than on two.  More
    workers than this make the threads spin against each other: on two
    CPUs, with two BLAS threads each, fig2 took 23 s on two workers and
    3 s on one.  Where the affinity mask or ``/proc/self/maps`` is missing
    (macOS), or a mapped OpenBLAS does not load, it is ``os.cpu_count()``
    over one BLAS thread."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libraries = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
        blas = 1
        for path in libraries:
            library = ctypes.CDLL(path)
            blas = max([blas] + [getattr(library, name)() for name in _OPENBLAS_THREADS
                                 if hasattr(library, name)])
        return max(1, len(os.sched_getaffinity(0)) // blas)
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracopt",
        description="Fractional-order gradient descent laboratory",
    )
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--workers", type=int, default=None,
                        help="methods run at once, each in a worker process (default: the "
                             "usable CPUs over numpy's BLAS threads, at least 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed, overriding a spec's seed (default: the spec's, or 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("spec_file")

    p_rep = sub.add_parser("reproduce", help="run a canonical reproduction target")
    p_rep.add_argument("target", choices=sorted(REPRODUCE_TARGETS))

    sub.add_parser("check", help="run the library invariant suite")

    args = parser.parse_args(argv)
    workers = args.workers if args.workers is not None else _default_workers()
    try:
        if args.command == "run":
            spec = parse_spec_file(args.spec_file)
            if args.seed is not None:
                from dataclasses import replace
                spec = replace(spec, base_seed=args.seed)
            records, code = run_experiment(spec, args.out, workers=workers)
            for r in records:
                print(f"{r.label} r{r.restart}: final_metric={r.final_metric:.6e} [{r.status}]")
            return code
        if args.command == "reproduce":
            _, code = reproduce(args.target, args.out, seed=args.seed or 0, workers=workers)
            print(f"{args.target}: outputs written to {args.out}/")
            return code
        return _check()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
