"""Every name that a module of the package lists in ``__all__`` exists.

``test_imports.py`` lets an import stand when its name is exported; this
is the other half: a name deleted from a module cannot stay behind in its
``__all__``, where ``from module import *`` would fail on it.
"""
import importlib
import types
from pathlib import Path

import pytest

import zoneldp

PACKAGE = Path(zoneldp.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def stale_exports(module: types.ModuleType) -> list:
    """The names in the module's ``__all__`` that it does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES]
)
def test_every_exported_name_resolves(path):
    module = importlib.import_module(module_name(path))
    assert not stale_exports(module), f"{path.name} exports names it lacks"


def test_the_check_sees_a_stale_export():
    module = types.ModuleType("mutant")
    exec("__all__ = ['kept', 'deleted']\ndef kept():\n    pass\n", vars(module))
    assert stale_exports(module) == ["deleted"]
