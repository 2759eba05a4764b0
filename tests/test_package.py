from __future__ import annotations

import inspect

import fracopt
from fracopt import errors, fdesolve, fracops, optimizers, problems, specfun

MODULES = (errors, fdesolve, fracops, optimizers, problems, specfun)


def test_package_exports_the_modules_public_names():
    assert fracopt.__all__ == sorted(name for module in MODULES for name in module.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fracopt, name) is getattr(module, name)


def test_errors_exports_every_error_type():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.FracoptError)
               and obj.__module__ == errors.__name__}
    assert set(errors.__all__) == defined
