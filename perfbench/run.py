"""Benchmark driver: one workload, several passes, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; fracopt is loaded from the
checkout's ``src``.  Each pass runs in a fresh single Python process (see
``worker.py``), one after the other, with BLAS and OpenMP pinned to one
thread.  Passes repeat until at least two have run and ``S`` seconds have
passed; the summary CSVs of every pass must equal those of the first byte
for byte.  ``setup_s`` is the median over several import-only processes and
the passes; ``run_s`` and ``peak_rss_mib`` are medians over the untraced
passes.  With ``--trace 1`` the first pass is traced and the result carries
the per-layer metrics instead.  The metric names and units come from
``BENCHMARK.json``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("table1-long", "thomson-restarts", "ml-oracle")
SUMMARIES = {
    "table1-long": ("table1__summary.csv",),
    "thomson-restarts": ("thomson_n4__summary.csv", "thomson_n12__summary.csv"),
    "ml-oracle": ("ml_oracle__summary.csv",),
}
SETUP_PROBES = 2
# every process started by one run must have ended this long after its start
RUN_DEADLINE_S = 170.0
MACHINE_NOTE = "shared machine; file cache and CPU frequency left as found"


class Timeout(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(args: list[str], log: Path, deadline: float):
    """Run the worker to completion; returns (exit code, peak RSS MiB, result)."""
    result_path = log.with_suffix(".json")
    result_path.unlink(missing_ok=True)
    with open(log, "wb") as fh:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--spawn-ns", str(spawn_ns),
             "--result", str(result_path), *args],
            cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=fh,
            stderr=subprocess.STDOUT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise Timeout(f"worker {' '.join(args)} passed the run deadline")
            time.sleep(0.02)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    return proc.returncode, usage.ru_maxrss / 1024.0, result


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"l{level}"] = size
    return sizes


def machine_record(versions: dict[str, str]) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, **_cache_sizes(), **versions, "note": MACHINE_NOTE}


def _pass_checks(workload: str, out: Path, tiny: bool):
    """Workload checks on one pass's summary CSVs; returns (checks, ref_error)."""
    texts = {}
    for name in SUMMARIES[workload]:
        path = out / name
        if not path.exists():
            return [(f"{name} written", False, "missing")], None
        texts[name] = path.read_text()
    if workload == "table1-long":
        return checks.check_table1(texts["table1__summary.csv"], full=not tiny), None
    if workload == "thomson-restarts":
        return checks.check_thomson(
            {4: texts["thomson_n4__summary.csv"], 12: texts["thomson_n12__summary.csv"]},
            full=not tiny)
    return checks.check_oracle(texts["ml_oracle__summary.csv"])


def declared_metrics(trace: bool) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fracopt benchmark driver")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to exercise the code path only (self-test)")
    args = parser.parse_args(argv)
    # a terminated driver still stops and reaps its worker (see _spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S

    declared = declared_metrics(bool(args.trace))
    if not (ROOT / "src" / "fracopt" / "__init__.py").is_file():
        print(f"no fracopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # the first import compiles bytecode, which a user pays once; not timed
    setups = []
    for i in range(SETUP_PROBES + 1):
        code, _rss, probe = _spawn(["probe"], work / f"probe{i}.log", deadline)
        if code != 0 or probe is None or not Path(probe["fracopt_file"]).is_relative_to(ROOT / "src"):
            print(f"cannot import fracopt from {ROOT / 'src'}; see {work / f'probe{i}.log'}",
                  file=sys.stderr)
            return 2
        if i:
            setups.append(probe["setup_s"])
    machine = machine_record(probe["versions"])
    print("machine: " + json.dumps(machine))

    passes = []
    results: list[tuple[str, bool, str]] = []
    ref_error = None
    first_outputs = {}
    passes_started = time.monotonic()
    while True:
        i = len(passes)
        traced = bool(args.trace) and i == 0
        out = work / f"pass{i}"
        worker_args = ["pass", args.workload, str(args.seed), str(out)]
        worker_args += ["--trace"] * traced + ["--tiny"] * args.tiny
        t = time.monotonic()
        code, rss, res = _spawn(worker_args, work / f"pass{i}.log", deadline)
        wall = time.monotonic() - t
        ok = code == 0 and res is not None and "error" not in res
        detail = "" if ok else (res or {}).get("error", f"exit {code}, see {work / f'pass{i}.log'}")
        results.append((f"pass {i} completed", ok, detail.strip().splitlines()[-1] if detail else ""))
        if res is not None:
            setups.append(res["setup_s"])
        if ok:
            pass_checks, ref_error = _pass_checks(args.workload, out, args.tiny)
            results += [(f"pass {i}: {name}", good, det) for name, good, det in pass_checks]
            for name in SUMMARIES[args.workload]:
                path = out / name
                data = path.read_bytes() if path.exists() else b""
                if i == 0:
                    first_outputs[name] = data
                else:
                    results.append(checks.check_identical(f"pass {i}: {name}",
                                                          first_outputs.get(name, b""), data))
            if traced:
                results.append(("trace: root spans fit inside run_s",
                                res["root_span_s"] <= res["run_s"],
                                f"{res['root_span_s']:.6f} s in spans, run_s {res['run_s']:.6f} s"))
        passes.append({"traced": traced, "ok": ok, "wall_s": wall, "peak_rss_mib": rss, **(res or {})})
        print(f"pass {i}{' (traced)' if traced else ''}: "
              f"{'ok' if ok else 'FAILED'} run_s={(res or {}).get('run_s', float('nan')):.4f} "
              f"peak_rss_mib={rss:.1f} wall={wall:.2f}s")
        elapsed = time.monotonic() - passes_started
        longest = max(p["wall_s"] for p in passes)
        if len(passes) >= 2 and (elapsed >= args.seconds
                                 or time.monotonic() - started + longest > RUN_DEADLINE_S * 0.8):
            break

    plain = [p for p in passes if p["ok"] and not p["traced"]]
    if not plain:
        print("no untraced pass completed; no result", file=sys.stderr)
        for name, good, det in results:
            if not good:
                print(f"FAIL {name}: {det}", file=sys.stderr)
        return 1
    run_s = statistics.median(p["run_s"] for p in plain)
    if args.trace:
        traced_pass = passes[0]
        metrics = dict(traced_pass.get("layers", {}))
        if traced_pass["ok"]:
            metrics["trace_overhead"] = traced_pass["run_s"] / run_s - 1.0
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        }

    failed = sum(1 for _name, good, _det in results if not good)
    for name, good, det in results:
        if not good:
            print(f"FAIL {name}: {det}")
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, "
          f"failed_ratio={failed / len(results):.4g} 1 ({failed}/{len(results)} checks), "
          f"ref_error={'n/a' if ref_error is None else repr(ref_error)} 1")
    if set(metrics) != set(declared):
        print(f"metric set differs from BENCHMARK.json: extra {sorted(set(metrics) - set(declared))}, "
              f"missing {sorted(set(declared) - set(metrics))}", file=sys.stderr)
        return 1
    for name, unit in declared.items():
        print(f"  {name} = {metrics[name]!r} {unit}")
    (work / "run.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "machine": machine, "passes": passes,
         "setup_samples": setups, "checks": results, "ref_error": ref_error}, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Timeout as exc:
        print(exc, file=sys.stderr)
        sys.exit(1)
