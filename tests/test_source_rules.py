"""Source rules of the package, read off the syntax trees of `src/orthdet`.

Every result is exact and the package has no dependencies (`dependencies =
[]`), so its code holds no float arithmetic, imports only the standard
library and itself, and touches `Fraction` only where `linalg` clears
denominators in `rational_determinant`.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "orthdet").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_are_found():
    assert {"linalg.py", "oracle.py", "cli.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_float_arithmetic(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float constant"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float() call"))
    assert not found, f"{path.name}: {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_stay_in_the_standard_library(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue  # a relative import stays in the package
        for module in modules:
            top = module.split(".")[0]
            if top != "orthdet" and top not in sys.stdlib_module_names:
                found.append((node.lineno, module))
    assert not found, f"{path.name}: {found}"


def _names_fraction(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "Fraction"
    if isinstance(node, ast.Attribute):
        return node.attr == "Fraction"
    if isinstance(node, ast.alias):
        return "Fraction" in (node.name, node.asname)
    return False


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_fraction_only_in_rational_determinant(path):
    tree = _tree(path)
    allowed = set()
    if path.name == "linalg.py":
        for node in tree.body:
            if (isinstance(node, ast.ImportFrom) and node.module == "fractions") or (
                isinstance(node, ast.FunctionDef) and node.name == "rational_determinant"
            ):
                allowed.update(id(inner) for inner in ast.walk(node))
    found = [
        getattr(node, "lineno", None)
        for node in ast.walk(tree)
        if _names_fraction(node) and id(node) not in allowed
    ]
    assert not found, f"{path.name}: Fraction at lines {found}"
