"""Correctness checks on the outputs of one workload pass.

Every function returns a list of ``(name, ok, detail)`` triples; the
benchmark counts each triple as one attempted check.  Only the standard
library is used here, so the driver process never imports fracopt.
"""

from __future__ import annotations

import csv
import io
import math

# Final residual norms of `fracopt reproduce table1`, recorded when this
# benchmark was defined.  A faster history sum may change the arithmetic
# order, so agreement is required to 1e-9 relative, not bit for bit.
TABLE1_FINAL_RESIDUALS = {
    0.8: 0.011089766485795191,
    1.0: 0.0023767924194294794,
    1.2: 0.00018125090354579102,
    1.4: 2.8003855044855624e-05,
    1.6: 3.184246057302617e-06,
}
TABLE1_RESIDUAL_RTOL = 1e-9
# the orders of acceptance criterion 5, whose passage times must fall with alpha
TABLE1_ORDERED_ALPHAS = (0.8, 1.0, 1.2, 1.4)

# Best known Thomson energies; fracopt.problems.THOMSON_REFERENCE_ENERGIES
# holds the same values, repeated so the check does not trust the program.
THOMSON_REFERENCE = {4: 3.674234614, 12: 49.165253058}
THOMSON_MAX_EXCESS = 0.01
THOMSON_FLOOR_SLACK = 1e-6

# criterion 3 allows 1e-3 absolute at |u0 - c| = 2
ORACLE_MAX_ERROR = 5e-4


def read_summary(text: str) -> list[dict[str, str]]:
    """Rows of a summary CSV, skipping `#` note lines."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _passage(row: dict[str, str], threshold: str) -> float:
    value = row.get(f"t_below_{threshold}", "")
    return float(value) if value else math.inf


def _completed(rows, what: str):
    bad = [f"{r['label']} r{r['restart']}: {r['status']}" for r in rows if r["status"] != "completed"]
    return (f"{what}: every cell completed", not bad and bool(rows), "; ".join(bad) or f"{len(rows)} cells")


def check_table1(text: str, full: bool = True):
    rows = read_summary(text)
    checks = [_completed(rows, "table1")]
    if not full:
        return checks
    by_alpha = {float(r["alpha"]): r for r in rows}
    if set(by_alpha) != set(TABLE1_FINAL_RESIDUALS):
        return checks + [("table1: orders present", False, f"got {sorted(by_alpha)}")]
    finals = {a: float(r["final_metric"]) for a, r in by_alpha.items()}
    for alpha, recorded in TABLE1_FINAL_RESIDUALS.items():
        rel = abs(finals[alpha] - recorded) / recorded
        checks.append((f"table1: residual at order {alpha:g} as recorded",
                       rel <= TABLE1_RESIDUAL_RTOL, f"relative deviation {rel:.2e}"))
    t01 = [_passage(by_alpha[a], "0.1") for a in TABLE1_ORDERED_ALPHAS]
    t001 = [_passage(by_alpha[a], "0.01") for a in TABLE1_ORDERED_ALPHAS]
    falling = all(x > y for x, y in zip(t01, t01[1:])) and all(x > y for x, y in zip(t001, t001[1:]))
    reached = all(math.isfinite(t) for t in t01) and all(math.isfinite(t) for t in t001[1:])
    checks.append(("table1: passage times fall with the order", falling and reached,
                   f"t<0.1={t01} t<0.01={t001}"))
    ratio = finals[1.0] / finals[1.2]
    checks.append(("table1: r(1.0)/r(1.2) >= 10", ratio >= 10.0, f"ratio {ratio:.3g}"))
    checks.append(("table1: r(0.8) > r(1.0)", finals[0.8] > finals[1.0],
                   f"{finals[0.8]:.3e} vs {finals[1.0]:.3e}"))
    return checks


def check_thomson(texts: dict[int, str], full: bool = True):
    """Criterion 6 on the best energy of each N, over methods and restarts:
    within 1 % of the reference and not below it.  Returns (checks,
    ref_error), ref_error being the largest relative excess over N."""
    checks = []
    excesses = []
    for n, text in sorted(texts.items()):
        rows = read_summary(text)
        checks.append(_completed(rows, f"thomson N={n}"))
        if not full:
            continue
        ref = THOMSON_REFERENCE[n]
        best = min((float(r["final_metric"]) for r in rows), default=math.nan)
        excess = (best - ref) / ref
        excesses.append(excess)
        checks.append((f"thomson N={n}: best energy within 1% of reference",
                       excess <= THOMSON_MAX_EXCESS and best >= ref - THOMSON_FLOOR_SLACK,
                       f"best {best!r}, excess {excess:.3e}"))
    return checks, (max(excesses) if excesses else None)


def check_oracle(text: str):
    """Rows `part,alpha,points,value`: `relaxation` rows carry
    max|PECE - analytic| / |u0 - c|, `envelope` rows 1 if the envelope held."""
    rows = read_summary(text)
    relax = {float(r["alpha"]): float(r["value"]) for r in rows if r["part"] == "relaxation"}
    env = {float(r["alpha"]): float(r["value"]) for r in rows if r["part"] == "envelope"}
    checks = [
        ("oracle: every order present",
         sorted(relax) == [0.5, 0.9, 1.2, 1.7] and sorted(env) == [0.3, 0.5, 0.7, 0.9, 1.0],
         f"relaxation {sorted(relax)}, envelope {sorted(env)}"),
    ]
    for alpha, err in sorted(relax.items()):
        checks.append((f"oracle: PECE vs Mittag-Leffler solution at order {alpha:g}",
                       err <= ORACLE_MAX_ERROR, f"normalised error {err:.3e}"))
    for alpha, held in sorted(env.items()):
        checks.append((f"oracle: stability envelope at order {alpha:g}", held == 1.0, ""))
    return checks, (max(relax.values()) if relax else None)


def check_identical(name: str, first: bytes, again: bytes):
    return (f"{name}: byte-identical across passes", first == again,
            "" if first == again else f"{len(first)} vs {len(again)} bytes")
