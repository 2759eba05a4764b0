"""Span tracer that wraps fracopt's public functions from outside the package.

Each wrapped call records one span: a name, a start, an end and the span
that was open when it began (its parent).  Spans are kept in memory in flat
integer arrays and written out once, when the traced pass ends.  A layer's
self time is its span's duration minus the time covered by its child spans.

The modules import names directly (``from .specfun import mittag_leffler``),
so a function is replaced in every fracopt module namespace that holds it,
not only in its home module.  Objectives are wrapped through
``dataclasses.replace`` on ``f``, ``gradient`` and ``progress_metric``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
from array import array


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        # work counts taken at the same boundaries as the spans
        self.counts: dict[str, float] = {}

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(tracer, arguments, result)``, with the call's arguments bound
        by name, runs after the span closes, so its cost lands in the
        parent's self time, not in ``name``'s.
        """
        code = self._intern(name)
        signature = inspect.signature(fn) if count is not None else None
        name_id, parent, start, end, open_ = self.name_id, self.parent, self.start, self.end, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(code)
            parent.append(open_[-1] if open_ else -1)
            end.append(0)
            open_.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as a ``id,parent,name,start_ns,end_ns`` row."""
        with open(path, "w", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            names = self.names
            for sid, (code, par, s, e) in enumerate(zip(self.name_id, self.parent, self.start, self.end)):
                fh.write(f"{sid},{par},{names[code]},{s},{e}\n")


def self_times(names, name_id, parent, start, end):
    """Per-name (calls, self seconds), checking the span arithmetic.

    Raises ``ValueError`` if a child span is not inside its parent's
    interval or if the children of a span cover more time than it lasts.
    """
    n = len(start)
    child_ns = [0] * n
    for sid in range(n):
        p = parent[sid]
        if p >= 0:
            if start[sid] < start[p] or end[sid] > end[p]:
                raise ValueError(f"span {sid} ({names[name_id[sid]]}) leaves its parent {p}")
            child_ns[p] += end[sid] - start[sid]
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for sid in range(n):
        dur = end[sid] - start[sid]
        if dur < 0 or child_ns[sid] > dur:
            raise ValueError(f"span {sid} ({names[name_id[sid]]}): children cover more than the span")
        name = names[name_id[sid]]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[sid]
    return {name: (calls[name], self_ns[name] / 1e9) for name in calls}


def root_span_seconds(parent, start, end) -> float:
    """Total duration of the spans that have no parent."""
    return sum(e - s for p, s, e in zip(parent, start, end) if p < 0) / 1e9


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded fracopt module."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "fracopt" or modname.startswith("fracopt.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _count_solve(tracer, _args, traj):
    tracer.add_count("fdesolve.solve_pece.steps", traj.stats.steps)
    tracer.add_count("fdesolve.solve_pece.field_evals", traj.stats.field_evaluations)


def _count_points(key, arg, attr=None):
    def count(tracer, args, _result):
        value = args[arg] if attr is None else getattr(args[arg], attr)
        tracer.add_count(key, len(value))
    return count


def _count_gdm(tracer, _args, result):
    tracer.add_count("optimizers.run_gdm.iterations", len(result.iterations) - 1)


def _count_cells(tracer, _args, result):
    records, _code = result
    tracer.add_count("harness.run_experiment.cells", len(records))


def _count_bytes(tracer, args, _result):
    tracer.add_count("harness.write.bytes", os.path.getsize(args["path"]))


def _wrap_objective(tracer, obj):
    metric = obj.progress_metric if obj.progress_metric is not None else obj.f
    return dataclasses.replace(
        obj,
        f=tracer.wrap("problems.f", obj.f),
        gradient=tracer.wrap("problems.gradient", obj.gradient),
        progress_metric=tracer.wrap("problems.metric", metric),
    )


def _objective_factory(tracer, make):
    @functools.wraps(make)
    def wrapped(*args, **kwargs):
        made = make(*args, **kwargs)
        if isinstance(made, tuple):
            return (_wrap_objective(tracer, made[0]),) + made[1:]
        return _wrap_objective(tracer, made)
    return tracer.wrap("problems.make", wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of specfun, fdesolve, problems, optimizers
    and harness wherever fracopt looks them up."""
    import fracopt.fdesolve as fdesolve
    import fracopt.harness as harness
    import fracopt.optimizers as optimizers
    import fracopt.problems as problems
    import fracopt.specfun as specfun

    targets = [
        ("specfun.mittag_leffler", specfun.mittag_leffler, None),
        ("fdesolve.solve_pece", fdesolve.solve_pece, _count_solve),
        ("fdesolve.linear_relaxation_solution", fdesolve.linear_relaxation_solution,
         _count_points("fdesolve.linear_relaxation_solution.points", "times")),
        ("optimizers.run_gdm", optimizers.run_gdm, _count_gdm),
        ("optimizers.run_fctm", optimizers.run_fctm, None),
        ("optimizers.stability_envelope_check", optimizers.stability_envelope_check,
         _count_points("optimizers.stability_envelope_check.points", "trace", "times")),
        ("harness.run_experiment", harness.run_experiment, _count_cells),
    ]
    for name, fn, count in targets:
        _replace_everywhere(fn, tracer.wrap(name, fn, count))
    for make in (problems.make_quadratic, problems.make_vandermonde, problems.make_thomson):
        _replace_everywhere(make, _objective_factory(tracer, make))
    for cls in (fdesolve.Trajectory, optimizers.DiscreteTrace):
        cls.to_csv = tracer.wrap("harness.write", cls.to_csv, _count_bytes)


_PER_CALL = ("specfun.mittag_leffler", "problems.f", "problems.gradient", "problems.metric")


def layer_metrics(stats: dict[str, tuple[int, float]], counts: dict[str, float], run_s: float):
    """Per-layer metrics from ``self_times`` output and the boundary counts.

    ``unattributed_s`` is ``run_s`` minus the self time of every span, so the
    self times plus ``unattributed_s`` add up to ``run_s``.
    """
    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0))[1]

    def micro(name, per):
        return 1e6 * self_s(name) / per if per else 0.0

    m: dict[str, float] = {}
    for name in _PER_CALL:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.us_per_call"] = micro(name, calls(name))
    pece = "fdesolve.solve_pece"
    steps = counts.get(f"{pece}.steps", 0)
    m.update({
        f"{pece}.calls": calls(pece),
        f"{pece}.steps": steps,
        f"{pece}.field_evals": counts.get(f"{pece}.field_evals", 0),
        f"{pece}.self_s": self_s(pece),
        f"{pece}.us_per_step": micro(pece, steps),
    })
    for name, work in (("fdesolve.linear_relaxation_solution", "points"),
                       ("optimizers.stability_envelope_check", "points"),
                       ("harness.run_experiment", "cells")):
        m[f"{name}.{work}"] = counts.get(f"{name}.{work}", 0)
        m[f"{name}.self_s"] = self_s(name)
    iterations = counts.get("optimizers.run_gdm.iterations", 0)
    m["optimizers.run_gdm.iterations"] = iterations
    m["optimizers.run_gdm.self_s"] = self_s("optimizers.run_gdm")
    m["optimizers.run_gdm.us_per_iter"] = micro("optimizers.run_gdm", iterations)
    m["optimizers.run_fctm.calls"] = calls("optimizers.run_fctm")
    m["optimizers.run_fctm.self_s"] = self_s("optimizers.run_fctm")
    m["problems.make.self_s"] = self_s("problems.make")
    write_s = self_s("harness.write")
    written = counts.get("harness.write.bytes", 0)
    m["harness.write.s"] = write_s
    m["harness.write.bytes"] = written
    m["harness.write.mib_per_s"] = written / 2**20 / write_s if write_s else 0.0
    m["unattributed_s"] = run_s - sum(s for _calls, s in stats.values())
    return m
