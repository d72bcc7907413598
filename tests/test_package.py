"""The package's public surface: `adafamily.__all__`, star-imports and the
names one module takes from another, which it must read."""

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
    # a `_` name belongs to its module; a caller elsewhere, a demo among them, needs a public one
    folders = (ROOT / "src" / "adafamily", ROOT / "tools", ROOT / "demos")
    paths = sorted(path for folder in folders for path in folder.glob("*.py"))
    private = [
        f"{path.relative_to(ROOT)}: {alias.name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _unused_imports(path):
    # imported names the module never loads; `__all__` re-exports count as read
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # the project has no linter: this walk is its unused-import rule
    folders = ("src", "tools", "demos", "tests")
    paths = sorted(path for folder in folders for path in (ROOT / folder).rglob("*.py"))
    unused = {
        str(path.relative_to(ROOT)): names for path in paths if (names := _unused_imports(path))
    }
    assert unused == {}


def _private_definitions(tree):
    # the module's `_` names and its classes' `_` methods, dunders aside
    names = list(_module_level_names(tree))
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names += [node.name, *(f.name for f in node.body if isinstance(f, ast.FunctionDef))]
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def test_every_private_name_in_src_is_referenced():
    # the dead-name rule: a `_` name or method that nothing in src/ loads is dead code
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "adafamily").glob("*.py"))
    }
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }
    dead = [
        f"{name}: {private}"
        for name, tree in trees.items()
        for private in _private_definitions(tree)
        if private not in referenced
    ]
    assert dead == []


def _module_level_names(tree):
    # name -> the def or assignment that binds it at module level
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            bound[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node
    return bound


def test_the_scalar_oracles_name_nothing_from_optim():
    # the oracles are the independent side of every dual-route test: no
    # ref_*_run, nor any module-level name it reaches (lambdas included),
    # may use what checks takes from optim
    tree = ast.parse((ROOT / "src" / "adafamily" / "checks.py").read_text(encoding="utf-8"))
    from_optim = {"optim"} | {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "optim"
        for alias in node.names
    }
    bound = _module_level_names(tree)
    oracles = [name for name in bound if name.startswith("ref_") and name.endswith("_run")]
    assert len(oracles) == 7
    reached, todo = set(), list(oracles)
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in ast.walk(bound[name]):
            if isinstance(node, ast.Name) and node.id in bound and node.id not in reached:
                todo.append(node.id)
    used = {
        f"{name}: {node.id}"
        for name in reached
        for node in ast.walk(bound[name])
        if isinstance(node, ast.Name) and node.id in from_optim
    }
    assert "_scalar_run" in reached
    assert sorted(used) == []
