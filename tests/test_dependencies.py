"""The runtime is pure numpy plus the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "graftcert"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "graftcert"}


def _imported_packages(tree: ast.AST):
    """(line, top-level package) of every absolute import in the tree;
    relative imports stay inside graftcert."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_numpy_and_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    bad = [
        f"{path.name}:{line}: {name}"
        for path in files
        for line, name in _imported_packages(ast.parse(path.read_text(encoding="utf-8")))
        if name not in ALLOWED
    ]
    assert not bad, bad


def test_the_check_catches_a_third_party_import():
    tree = ast.parse("import os\nfrom numpy import linalg\nfrom . import bounds\n"
                     "def f():\n    import scipy.sparse\n    from torch import nn\n")
    found = [name for _, name in _imported_packages(tree) if name not in ALLOWED]
    assert found == ["scipy", "torch"]
