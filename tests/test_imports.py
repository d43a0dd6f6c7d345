"""Every top-level import in the package is used or re-exported.

No linter ships with the package's toolchain, so this is the check that
catches imports left behind when code moves between modules: a name that
a module imports at top level must be read somewhere in that module or be
listed in its ``__all__``.
"""
import ast
from pathlib import Path

import pytest

import zoneldp

PACKAGE = Path(zoneldp.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Name bound -> line, for every import statement in the module body."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set:
    """Names the module reads, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= read_names(ast.parse(part.value, mode="eval"))
    return names


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES]
)
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = read_names(tree) | exported_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "import os\nimport math as m\nfrom typing import List, Optional\n"
        "def f(x: 'Optional[int]') -> int:\n    return m.floor(x)\n"
    )
    used = read_names(tree) | exported_names(tree)
    assert sorted(n for n in imported_names(tree) if n not in used) == ["List", "os"]
