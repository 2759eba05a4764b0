"""The three workloads, as one pass each writes them into its output directory.

Each ``prepare_*`` function makes the pass's inputs from the seed and returns
``(run, finish)``.  ``run`` runs the workload through fracopt's public entry
points (``fracopt.cli.main`` and the library functions) and is the only part
timed; ``finish``, if not None, writes what the benchmark itself computed.
Every workload leaves summary CSVs whose bytes must repeat across passes
that share a seed.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

import fracopt.cli as cli
import fracopt.fdesolve as fdesolve
import fracopt.harness as harness
import fracopt.optimizers as optimizers
import fracopt.problems as problems

THOMSON_CHARGES = (4, 12)
THOMSON_RESTARTS = 2

# The closed-form side of the oracle is evaluated on every ORACLE_STRIDE-th
# grid point.  Each grid keeps its endpoint, so every order still reaches the
# largest |z|, where the elevated-precision series runs.
ORACLE_STRIDE = 20
ORACLE_RELAXATION_ALPHAS = (0.5, 0.9, 1.2, 1.7)
ORACLE_ENVELOPE_ALPHAS = (0.3, 0.5, 0.7, 0.9, 1.0)
ORACLE_RATE = 2.0

# tiny sizes only exercise the code path; the self-test uses them
TINY_TABLE1_HORIZON = 40.0
TINY_THOMSON = dict(restarts=1, k_max=200, t_end=1.0)
TINY_ORACLE_STRIDE = 1000


def _run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fracopt {' '.join(argv)} exited with {code}")


def prepare_table1(out: Path, seed: int, tiny: bool):
    # table1 has no random input; the seed is only recorded
    def run():
        if tiny:
            harness.TABLE1_HORIZON = TINY_TABLE1_HORIZON
        _run_cli(["--out", str(out), "reproduce", "table1"])
    return run, None


def thomson_spec(n: int, seed: int, restarts: int, k_max: int = 6000, t_end: float = 30.0) -> str:
    """Table-2 settings for N charges.  The seed goes into the spec's own
    `seed =` key: `fracopt --seed 0 run` cannot override a spec seed."""
    return (
        f"[experiment]\nname = thomson_n{n}\nproblem = thomson\ncharges = {n}\n"
        f"thresholds =\nrestarts = {restarts}\nseed = {seed}\n\n"
        f"[method.gdm]\nmethod = gdm\nomega = 0.005\nk_max = {k_max}\n\n"
        f"[method.fctm-a0.7]\nmethod = fctm\nalpha = 0.7\ngain = 1.0\nh = 0.005\n"
        f"t_end = {t_end!r}\n"
    )


def prepare_thomson(out: Path, seed: int, tiny: bool):
    size = TINY_THOMSON if tiny else dict(restarts=THOMSON_RESTARTS)
    specs = []
    for n in THOMSON_CHARGES:
        path = out / f"thomson_n{n}.ini"
        path.write_text(thomson_spec(n, seed, **size))
        specs.append(path)

    def run():
        for path in specs:
            _run_cli(["--out", str(out), "run", str(path)])
    return run, None


def oracle_inputs(seed: int) -> tuple[float, float]:
    """Extremum c and start u0 drawn from the seed, 1 <= |u0 - c| <= 3.
    The Mittag-Leffler arguments depend only on the order, rate and grid,
    so the seed leaves the cost unchanged."""
    rng = random.Random(seed)
    c = rng.uniform(-5.0, 5.0)
    return c, c + rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0)


def relaxation_error(pece: np.ndarray, analytic: np.ndarray, scale: float) -> float:
    return float(np.max(np.abs(pece - analytic))) / scale


def _subsample(values: np.ndarray, stride: int) -> np.ndarray:
    idx = np.arange(0, len(values), stride)
    if idx[-1] != len(values) - 1:
        idx = np.append(idx, len(values) - 1)
    return values[idx]


def prepare_oracle(out: Path, seed: int, tiny: bool):
    c, u0 = oracle_inputs(seed)
    stride = TINY_ORACLE_STRIDE if tiny else ORACLE_STRIDE
    rows: list[tuple[str, float, int, float]] = []

    def run():
        for alpha in ORACLE_RELAXATION_ALPHAS:
            prob = fdesolve.FdeProblem(
                alpha=alpha, field=lambda u: -ORACLE_RATE * (u - c), u0=np.array([u0]),
                t_end=10.0, h=1e-3, v0=0.0 if alpha > 1 else None)
            traj = fdesolve.solve_pece(prob)
            times = _subsample(traj.times, stride)
            exact = fdesolve.linear_relaxation_solution(alpha, ORACLE_RATE, c, u0, times, v0=0.0)
            err = relaxation_error(_subsample(traj.states[:, 0], stride), exact, abs(u0 - c))
            rows.append(("relaxation", alpha, len(times), err))
        quad = problems.make_quadratic(c)
        for alpha in ORACLE_ENVELOPE_ALPHAS:
            cfg = optimizers.OptimizerConfig(method=optimizers.Method.FCTM, alpha=alpha,
                                             gain=1.0, h=1e-2, t_end=20.0)
            trace = optimizers.run_fctm(quad, np.array([u0]), cfg).trace
            grid = fdesolve.Trajectory(times=_subsample(trace.times, stride),
                                       states=_subsample(trace.states, stride), stats=trace.stats)
            _, held = optimizers.stability_envelope_check(grid, np.array([c]), eta=ORACLE_RATE,
                                                         alpha=alpha, slack=1e-6)
            rows.append(("envelope", alpha, len(grid.times), 1.0 if held else 0.0))

    def finish():
        with open(out / "ml_oracle__summary.csv", "w", newline="\n") as fh:
            fh.write(f"# c={c!r} u0={u0!r} stride={stride}\npart,alpha,points,value\n")
            for part, alpha, points, value in rows:
                fh.write(f"{part},{alpha!r},{points},{value!r}\n")

    return run, finish


PREPARE = {
    "table1-long": prepare_table1,
    "thomson-restarts": prepare_thomson,
    "ml-oracle": prepare_oracle,
}
