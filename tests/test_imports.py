"""Every name a library module imports is used in that module.

No linter runs on the package, so an import left behind when the code that
used it is deleted would stay unnoticed; ``__init__.py`` re-exports, so it
is exempt.
"""

import ast

import pytest

from conftest import REPO

MODULES = sorted(p for p in (REPO / "src" / "frobsplit").glob("*.py") if p.name != "__init__.py")


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
