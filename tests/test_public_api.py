"""The package namespace and the modules' ``__all__`` lists name the same API."""

import ast
import importlib

import rabi_spectra


def _package_imports():
    """(module, name) for every ``from .module import name`` in the package's __init__."""
    with open(rabi_spectra.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def _listed(module_name):
    """A module's ``__all__``, or, as for ``import *``, its names without a leading underscore."""
    module = importlib.import_module(f"rabi_spectra.{module_name}")
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")
                 and getattr(vars(module)[name], "__module__", None) == module.__name__]
    return module, names


def test_package_exports_every_listed_name():
    missing = []
    for module_name in sorted({module for module, _ in _package_imports()}):
        module, names = _listed(module_name)
        missing += [f"{module_name}.{name}" for name in names
                    if getattr(rabi_spectra, name, None) is not getattr(module, name)]
    assert missing == []


def test_package_imports_only_listed_names():
    unlisted = [f"{module}.{name}" for module, name in _package_imports()
                if name not in _listed(module)[1]]
    assert unlisted == []
