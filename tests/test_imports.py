"""Static checks: every name a module imports is used in that module, and
every private function, class and method of the package is read in it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vdarg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in source reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nb(os)\n"
    assert unused_imports(source) == ["d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree: ast.Module) -> list[str]:
    """The private module-level functions and classes and the private methods
    of module-level classes; dunder methods are not private."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                item.name for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name.startswith("_") and not item.name.endswith("__")
            ]
    return names


def unread_private_names(sources: list[str]) -> list[str]:
    """Private names defined in the sources that no name or attribute load in them reads."""
    trees = [ast.parse(source) for source in sources]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return sorted({name for tree in trees for name in private_definitions(tree)} - read)


def test_the_check_finds_an_unread_private_name():
    first = "def _left():\n    pass\n\ndef _called():\n    pass\n\nclass _K:\n    def _m(self):\n        pass\n"
    second = "from first import _called, _K\n_called()\n_K()._m\n_left = 1\n"
    assert unread_private_names([first, second]) == ["_left"]


def test_every_private_name_is_read():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert len({name for source in sources for name in private_definitions(ast.parse(source))}) > 40
    assert unread_private_names(sources) == []
