"""Every module's ``__all__`` names what it defines, and the package
re-exports only names its modules declare public."""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "graftcert"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _package_imports():
    """(module, name) of every name ``graftcert/__init__.py`` imports."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"graftcert.{module}")
    assert mod.__all__, module
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_public_names():
    imports = _package_imports()
    assert {module for module, _ in imports} >= {"bounds", "errors", "verifier"}
    hidden = [
        f"{module}.{name}"
        for module, name in imports
        if name not in importlib.import_module(f"graftcert.{module}").__all__
    ]
    assert hidden == []
