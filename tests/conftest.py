from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracopt


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)


@pytest.fixture
def fresh_python():
    """Run ``python -c code *args`` in a new interpreter that imports the
    fracopt under test; returns the exit status.  For checks on what a
    process loads, which the already-populated test process cannot show."""
    env = dict(os.environ, PYTHONPATH=str(Path(fracopt.__file__).resolve().parents[1]))

    def run(code: str, *args: str) -> int:
        return subprocess.run([sys.executable, "-c", code, *args], env=env, timeout=120).returncode

    return run


def central_diff_gradient(objective, u: np.ndarray) -> np.ndarray:
    """Independent finite-difference gradient at step 1e-6 * (1 + |u|)."""
    u = np.asarray(u, dtype=float)
    step = 1e-6 * (1.0 + np.linalg.norm(u))
    out = np.empty_like(u)
    for i in range(u.size):
        e = np.zeros_like(u)
        e[i] = step
        out[i] = (objective.f(u + e) - objective.f(u - e)) / (2.0 * step)
    return out


def gradient_relative_error(objective, u: np.ndarray) -> float:
    g = objective.gradient(np.asarray(u, dtype=float))
    fd = central_diff_gradient(objective, u)
    return float(np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-300))
