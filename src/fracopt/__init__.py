"""Fractional-order optimization laboratory.

Classical and fractional gradient-descent variants on top of a Caputo
fractional-ODE solver and closed-form fractional-derivative operators,
with a benchmark harness for quadratic, interpolation, and point-charge
experiments.
"""

from . import errors, fdesolve, fracops, optimizers, problems, specfun
from .errors import *
from .fdesolve import *
from .fracops import *
from .optimizers import *
from .problems import *
from .specfun import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (errors, fdesolve, fracops, optimizers, problems, specfun)
                 for name in module.__all__)
