"""Every module-level import of the package is used in its module.

An import left behind when code moves between modules is dead weight that
no other test notices; this scans each module's syntax tree (stdlib `ast`
only).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cechmf"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """{bound name: line} for the imports at the top level of a module."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    """Every annotation node: of arguments, of returns and of assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set:
    """Names read anywhere in the module, quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list:
    """[(line, name)] of the module-level imports the module never reads."""
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = (
        "import itertools\n"
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "from .rings import Ring\n"
        "\n"
        "def half(r: 'Ring') -> F:\n"
        "    '''itertools'''\n"
        "    return F(1, 2)\n"
    )
    assert unused_imports(source) == [(1, "itertools"), (2, "os")]
