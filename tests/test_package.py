from __future__ import annotations

import ast
import inspect
from pathlib import Path

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


def _module_trees() -> dict[str, ast.Module]:
    src = Path(fracopt.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}


def test_no_module_imports_a_name_it_never_uses():
    for module, tree in _module_trees().items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        # a name listed in __all__ is re-exported, which is a use
        read |= {node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
                 for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)}
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names if alias.name != "*"}
        assert imported <= read, f"{module} imports {sorted(imported - read)} and never uses them"


def test_every_private_module_level_name_is_referenced():
    trees = _module_trees()
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    for module, tree in trees.items():
        defined = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined.update(node.id for target in targets for node in ast.walk(target)
                               if isinstance(node, ast.Name))
        private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
        assert private <= referenced, f"{module} defines {sorted(private - referenced)}, which nothing uses"
