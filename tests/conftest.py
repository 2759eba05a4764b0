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
