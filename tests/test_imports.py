"""Every name a library module imports is used in that module, every
private module-level function, class or assigned name is read somewhere in
the library, and only ``groebner.py`` names the cache of reduced bases.

No linter runs on the package, so an import, a private helper or a private
constant left behind when the code that used it is deleted would stay
unnoticed; ``__init__.py`` re-exports, so it is exempt from the import
check.
"""

import ast

import pytest

from conftest import REPO

SOURCES = sorted((REPO / "src" / "frobsplit").glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported(tree)) - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _referenced(tree):
    """The names the module reads: a name or attribute loaded, or imported from elsewhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _defined(tree):
    """The names a module's top level defines: functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_private_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    referenced = {name for tree in trees.values() for name in _referenced(tree)}
    unused = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _defined(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    )
    assert not unused, f"private definitions that nothing in the library reads: {unused}"


def test_only_groebner_names_the_basis_cache():
    # other modules reach IdealPresentation's cache through its _cached_gb,
    # _store_gb and _cached_gbs methods, so its layout has one owner
    naming = [path.name for path in SOURCES if "_gb_cache" in path.read_text(encoding="utf-8")]
    assert naming == ["groebner.py"]
