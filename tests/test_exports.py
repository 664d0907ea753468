"""The export surface: every ``__all__`` entry exists and every name the
package imports from a submodule is one that submodule exports."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import mildns

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(mildns.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_resolves_and_star_imports(name):
    mod = importlib.import_module(f"mildns.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from mildns.{name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_package_imports_only_exported_names():
    tree = ast.parse(inspect.getsource(mildns))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names]
    assert {module for module, _ in imported} == set(SUBMODULES)
    stale = [f"{module}.{name}" for module, name in imported
             if name not in importlib.import_module(f"mildns.{module}").__all__]
    assert stale == []


@pytest.mark.parametrize("name", [m for m in SUBMODULES if m != "spectral_field"])
def test_solvers_read_norms_through_the_stacked_form(name):
    # the half-spectrum weighting rule lives in spectral_field alone: every
    # other module reads norms and inner products through its functions and
    # never imports the weights
    tree = ast.parse(inspect.getsource(importlib.import_module(f"mildns.{name}")))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_norm_weights" not in imported
