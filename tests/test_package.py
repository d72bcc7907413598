"""The package's public surface: `adafamily.__all__`, star-imports and the
names one module takes from another."""

import ast
from pathlib import Path

import adafamily

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_binds_every_public_name():
    # a name in __all__ that the package does not define breaks only this
    namespace = {}
    exec("from adafamily import *", namespace)
    public = adafamily.__all__
    assert len(set(public)) == len(public)
    unbound = [name for name in public if namespace.get(name) is not getattr(adafamily, name)]
    assert unbound == []


def test_no_module_imports_a_private_name_of_another():
    # a `_` name belongs to its module; a caller elsewhere needs a public one
    paths = sorted([*(ROOT / "src" / "adafamily").glob("*.py"), *(ROOT / "tools").glob("*.py")])
    private = [
        f"{path.relative_to(ROOT)}: {alias.name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
