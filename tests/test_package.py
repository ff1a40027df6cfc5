"""The package's export surface: what each module lists, and what ``tomoments`` re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import tomoments


def test_every_export_resolves_and_every_package_import_is_exported():
    for info in pkgutil.iter_modules(tomoments.__path__):
        module = importlib.import_module(f"tomoments.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
    imports = [node for node in ast.parse(Path(tomoments.__file__).read_text()).body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"tomoments.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
