"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --spawn-ns NS --result FILE probe
    python3 perfbench/worker.py --spawn-ns NS --result FILE \\
        pass WORKLOAD SEED OUT_DIR [--trace] [--tiny]

``NS`` is the parent's ``time.monotonic_ns()`` just before it started this
process; the clock is shared by all processes, so ``setup_s`` runs from the
spawn to the return of the fracopt imports.  ``run_s`` runs from the first
call into fracopt to the end of the workload, output writing included.  The
result (timings, versions, per-layer metrics of a traced pass, or the
traceback of a failure) goes to ``FILE`` as JSON.
"""

import time

import fracopt
import fracopt.cli  # noqa: F401  (the CLI entry point is part of what a user loads)

READY_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _versions() -> dict[str, str]:
    import mpmath
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "fracopt": fracopt.__version__}


def _run_pass(args, result: dict) -> None:
    import tracing
    import workloads

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run, finish = workloads.PREPARE[args.workload](out, args.seed, args.tiny)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t0 = time.perf_counter_ns()
    run()
    run_s = (time.perf_counter_ns() - t0) / 1e9
    result["run_s"] = run_s
    if finish is not None:
        finish()
    if tracer is not None:
        stats = tracing.self_times(tracer.names, tracer.name_id, tracer.parent,
                                   tracer.start, tracer.end)
        result["layers"] = tracing.layer_metrics(stats, tracer.counts, run_s)
        result["root_span_s"] = tracing.root_span_seconds(tracer.parent, tracer.start, tracer.end)
        tracer.write(out / "spans.csv")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--result", required=True)
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("probe")
    p_pass = sub.add_parser("pass")
    p_pass.add_argument("workload")
    p_pass.add_argument("seed", type=int)
    p_pass.add_argument("out")
    p_pass.add_argument("--trace", action="store_true")
    p_pass.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    result = {"setup_s": (READY_NS - args.spawn_ns) / 1e9,
              "fracopt_file": str(Path(fracopt.__file__).resolve()),
              "versions": _versions()}
    code = 0
    if args.mode == "pass":
        try:
            _run_pass(args, result)
        except Exception:
            result["error"] = traceback.format_exc()
            code = 1
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
