"""Self-test of the benchmark's own code.

    python3 perfbench/selftest.py

Checks, in about a minute:

* a tiny-size run of each workload, in both modes, prints exactly the
  metrics that BENCHMARK.json names, with their units, and passes its checks;
* span arithmetic: child time never exceeds its parent's, a child outside its
  parent is rejected, and the self times plus ``unattributed_s`` add up to
  ``run_s``, both on a synthetic trace and on the spans a traced pass wrote;
* perturbed outputs count as failed: a table-1 residual off by 1e-8
  relative, a Thomson energy raised by 2 %, an oracle value shifted by 1e-2
  and a summary that differs between passes;
* in a directory holding only BENCHMARK.json and the benchmark, the driver
  exits non-zero without printing a result.

Exits 0 if everything holds and prints one line per check.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run as driver  # noqa: E402
import tracing  # noqa: E402

failures = 0


def report(name: str, ok: bool, detail: str = "") -> None:
    global failures
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} {name}{' ' + detail if detail else ''}", flush=True)


def tiny_runs() -> None:
    for workload in driver.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "11",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                report(f"tiny {workload} trace={trace} prints a result", False, proc.stderr[-500:])
                continue
            declared = driver.declared_metrics(bool(trace))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            report(f"tiny {workload} trace={trace} prints exactly the named metrics",
                   proc.returncode == 0 and got == declared and set(result) ==
                   {"correct", "attempted", "failed", "metrics"},
                   f"extra {sorted(set(got) - set(declared))} missing {sorted(set(declared) - set(got))}")
            report(f"tiny {workload} trace={trace} passes its checks",
                   result["correct"] and result["failed"] == 0 and result["attempted"] >= 1)
            if trace:
                recorded_spans(workload)


def recorded_spans(workload: str) -> None:
    """Recompute the traced pass's layers from the spans it wrote."""
    work = ROOT / ".perfbench_work" / workload
    run_json = json.loads((work / "run.json").read_text())
    traced = run_json["passes"][0]
    names, name_id, parent, start, end = [], [], [], [], []
    with open(work / "pass0" / "spans.csv") as fh:
        for row in csv.DictReader(fh):
            if row["name"] not in names:
                names.append(row["name"])
            name_id.append(names.index(row["name"]))
            parent.append(int(row["parent"]))
            start.append(int(row["start_ns"]))
            end.append(int(row["end_ns"]))
    stats = tracing.self_times(names, name_id, parent, start, end)
    total = sum(s for _calls, s in stats.values()) + traced["layers"]["unattributed_s"]
    report(f"{workload}: self times + unattributed_s == run_s",
           math.isclose(total, traced["run_s"], rel_tol=0, abs_tol=1e-9),
           f"{total!r} vs {traced['run_s']!r}")


def synthetic_spans() -> None:
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    inner = tracer.wrap("inner", lambda: [leaf(), tracer_leaf()])
    tracer_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: [inner(), inner(), time.sleep(0.003)])
    t0 = time.perf_counter_ns()
    outer()
    run_s = (time.perf_counter_ns() - t0) / 1e9
    stats = tracing.self_times(tracer.names, tracer.name_id, tracer.parent, tracer.start, tracer.end)
    report("synthetic: call counts", {n: c for n, (c, _s) in stats.items()} ==
           {"outer": 1, "inner": 2, "leaf": 2})
    ok = True
    for sid, p in enumerate(tracer.parent):
        if p >= 0:
            ok &= tracer.end[sid] - tracer.start[sid] <= tracer.end[p] - tracer.start[p]
    report("synthetic: child time <= parent time", ok)
    report("synthetic: self times are non-negative", all(s >= 0 for _c, s in stats.values()))
    layers = tracing.layer_metrics(stats, tracer.counts, run_s)
    total = sum(s for _c, s in stats.values()) + layers["unattributed_s"]
    report("synthetic: self times + unattributed_s == run_s", math.isclose(total, run_s, abs_tol=1e-12))
    try:
        tracing.self_times(["a", "b"], [0, 1], [-1, 0], [10, 5], [20, 15])
        report("synthetic: child outside its parent is rejected", False)
    except ValueError:
        report("synthetic: child outside its parent is rejected", True)


TABLE1_PASSAGES = {0.8: ("836.0", ""), 1.0: ("96.0", "7816.0"), 1.2: ("34.0", "1938.0"),
                   1.4: ("18.0", "726.0"), 1.6: ("42.0", "340.0")}


def _table1_text(finals) -> str:
    lines = ["# note", "problem,label,method,alpha,gain,restart,t_below_0.1,t_below_0.01,"
             "t_below_0.001,final_metric,ratio_vs_alpha1,field_evaluations,status"]
    for alpha, final in finals.items():
        t01, t001 = TABLE1_PASSAGES[alpha]
        lines.append(f"vandermonde,fctm-a{alpha:g},fctm,{alpha!r},0.001,0,{t01},{t001},,"
                     f"{final!r},,50001,completed")
    return "\n".join(lines) + "\n"


def _thomson_text(energies: dict[str, list[float]]) -> str:
    lines = ["problem,label,method,alpha,gain,restart,final_metric,ratio_vs_alpha1,"
             "field_evaluations,status"]
    for label, values in energies.items():
        for r, e in enumerate(values):
            lines.append(f"thomson,{label},x,1.0,0.005,{r},{e!r},,6000,completed")
    return "\n".join(lines) + "\n"


def _all_pass(results) -> bool:
    return all(ok for _name, ok, _detail in results)


def perturbations() -> None:
    finals = dict(checks.TABLE1_FINAL_RESIDUALS)
    report("table1: recorded outputs pass", _all_pass(checks.check_table1(_table1_text(finals))))
    finals[1.2] *= 1 + 1e-8
    report("table1: residual off by 1e-8 relative fails",
           not _all_pass(checks.check_table1(_table1_text(finals))))

    def thomson(scale):
        texts = {n: _thomson_text({"gdm": [ref * scale, ref * scale * 1.003],
                                   "fctm-a0.7": [ref * scale * 1.0004, ref * scale * 1.04]})
                 for n, ref in checks.THOMSON_REFERENCE.items()}
        return checks.check_thomson(texts)

    good, ref_error = thomson(1.0000001)
    report("thomson: energies near the reference pass", _all_pass(good), f"ref_error {ref_error:.2e}")
    bad, _ = thomson(1.0000001 * 1.02)
    report("thomson: energy raised by 2% fails", not _all_pass(bad))

    import fracopt.fdesolve as fdesolve
    import workloads

    def oracle_pass(out: Path):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        run, finish = workloads.prepare_oracle(out, 5, tiny=True)
        run()
        finish()
        return checks.check_oracle((out / "ml_oracle__summary.csv").read_text())

    work = ROOT / ".perfbench_work" / "selftest"
    results, _ = oracle_pass(work / "oracle")
    report("oracle: tiny pass passes", _all_pass(results))
    exact = fdesolve.linear_relaxation_solution
    fdesolve.linear_relaxation_solution = lambda *a, **k: exact(*a, **k) + 1e-2
    try:
        results, _ = oracle_pass(work / "oracle-shifted")
    finally:
        fdesolve.linear_relaxation_solution = exact
    report("oracle: value shifted by 1e-2 fails", not _all_pass(results))
    report("determinism: differing summaries fail",
           not checks.check_identical("x", b"a,b\n1,2\n", b"a,b\n1,3\n")[1])


def bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "ml-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    report("without the program the driver exits non-zero and prints no result",
           proc.returncode != 0 and not last.startswith("{"), f"exit {proc.returncode}")
    shutil.rmtree(bare)


def main() -> int:
    synthetic_spans()
    perturbations()
    bare_directory()
    tiny_runs()
    print("all self-tests passed" if failures == 0 else f"{failures} self-test(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
