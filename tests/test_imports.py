"""Every name a package module imports is used in that module, so a function
that moves to another module takes its imports with it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "asc"


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that nothing in it reads; a name
    listed in `__all__` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\nos.getpid()\n", []),
    ("import os\nimport threading\nos.getpid()\n", [(2, "threading")]),
    ("from a import b as c\nb()\n", [(1, "c")]),
    ("import os.path\nos.sep\n", []),
    ("from .x import y\n__all__ = ['y']\n", []),
])
def test_unused_imports_found(source, unused):
    assert unused_imports(source) == unused
