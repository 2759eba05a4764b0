"""The benchmark in ``perfbench/`` runs against the current sources.

The benchmark reaches into fracopt by name: ``perfbench/workloads.py``
calls library functions and overrides module constants, and
``perfbench/tracing.py`` wraps functions and methods.  Each workload runs
here shrunk (``--tiny``) and traced, from a copy of ``src/``,
``perfbench/`` and ``BENCHMARK.json``, so a change to ``src/`` that breaks
one of those names fails this test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    dest = tmp_path_factory.mktemp("checkout")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest)
    return dest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_workload_is_correct(checkout, workload):
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=checkout, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True, proc.stdout
