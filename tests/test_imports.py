"""Every top-level import in the package is used or re-exported, every
import names a declared dependency, and only the block scheduler starts
threads.

No linter ships with the package's toolchain, so this is the check that
catches imports left behind when code moves between modules: a name that
a module imports at top level must be read somewhere in that module or be
listed in its ``__all__``. Threads belong to ``oracles/base.py`` alone,
whose ``run_blocks`` keeps results independent of the core count, so no
other module may import ``threading`` or a thread pool. The sweep's
process pool (``ProcessPoolExecutor`` in ``simulator.py``) starts no
thread in the calling code and stays allowed. The package declares numpy
as its one dependency, so an import of anything else outside the standard
library would fail where only that is installed.
"""
import ast
import os
import subprocess
import sys
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


ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "zoneldp"}


def undeclared_imports(tree: ast.Module) -> list:
    """(line, top-level module) of every import, at any depth, that is
    neither the standard library, numpy nor the package itself (relative
    imports are the package)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        found += [(node.lineno, root) for root in roots if root not in ALLOWED_ROOTS]
    return found


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES]
)
def test_imports_only_declared_dependencies(path):
    found = undeclared_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} imports undeclared modules: {found}"


def test_the_check_sees_an_undeclared_import():
    tree = ast.parse(
        "import json, numpy.linalg\nimport scipy.sparse as sp\n"
        "from . import domain\nfrom zoneldp.errors import DataError\n"
        "def f():\n    from scipy.optimize import nnls\n    import pandas\n"
    )
    assert undeclared_imports(tree) == [(2, "scipy"), (6, "scipy"), (7, "pandas")]


SCHEDULER = PACKAGE / "oracles" / "base.py"
# the concurrent.futures package itself holds ThreadPoolExecutor
THREAD_NAMES = {
    "concurrent",
    "concurrent.futures",
    "concurrent.futures.*",
    "concurrent.futures.ThreadPoolExecutor",
}


def gives_threads(name: str) -> bool:
    """Whether importing the dotted ``name`` gives a module threads."""
    return (
        name in THREAD_NAMES
        or name.split(".")[0] in ("threading", "_thread")
        or name.startswith("concurrent.futures.thread")
    )


def thread_imports(tree: ast.Module) -> list:
    """(line, dotted name) of every import, at any depth, that gives the
    module threads."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if gives_threads(name)]
    return found


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES]
)
def test_only_the_block_scheduler_imports_threads(path):
    found = thread_imports(ast.parse(path.read_text(encoding="utf-8")))
    if path == SCHEDULER:
        assert found, "the scheduler no longer imports threading"
    else:
        assert not found, f"{path.name} imports threads: {found}"


def test_the_check_sees_a_thread_import():
    tree = ast.parse(
        "import threading\nimport concurrent.futures as cf\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor\n"
        "def f():\n    from _thread import start_new_thread\n"
    )
    assert [line for line, _ in thread_imports(tree)] == [1, 2, 3, 4, 6]


def loaded_by_import(module: str) -> bool:
    """Whether ``import zoneldp`` in a fresh interpreter loads ``module``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = f"import sys, zoneldp; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return {"True": True, "False": False}[out.stdout.strip()]


def test_importing_the_package_loads_no_multiprocessing():
    # only a sweep with workers > 1 needs a process pool, and importing
    # multiprocessing costs every other run its start-up time
    assert not loaded_by_import("multiprocessing")


def test_importing_the_package_loads_no_thread_pool():
    # only a job of more than one block needs run_blocks' pool, and
    # concurrent.futures brings logging, queue and traceback with it
    assert not loaded_by_import("concurrent.futures")
