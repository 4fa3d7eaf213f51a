"""The public surface: every listed name exists, and every re-export is listed at home."""

import ast
import importlib
import pkgutil
from pathlib import Path

import isokit

MODULES = {m.name: importlib.import_module(f"isokit.{m.name}") for m in pkgutil.iter_modules(isokit.__path__)}


def _reexports():
    """(module name, name) for each name ``isokit/__init__.py`` imports from a submodule."""
    tree = ast.parse(Path(isokit.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_every_name_in_an_all_exists():
    missing = [(name, n) for name, mod in MODULES.items() for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_every_reexport_is_in_its_home_all():
    unlisted = []
    for module, name in _reexports():
        homes = {module}
        home = getattr(getattr(isokit, name), "__module__", None)  # where a function or class is defined
        if home and home.startswith("isokit."):
            homes.add(home.removeprefix("isokit."))
        unlisted += [(m, name) for m in sorted(homes) if name not in getattr(MODULES[m], "__all__", ())]
    assert unlisted == []

