"""Every name a package module imports is used in that module, so a function
that moves to another module takes its imports with it; every function the
package exports has a caller outside it; and every public function of a
package module is named by the package, a script or the benchmark."""

import ast
import inspect
from pathlib import Path

import pytest

import asc

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "asc"
# the pipeline's own users of the public functions: the CLI, the scripts, the benchmark
CALLERS = [PACKAGE / "cli.py", *sorted((REPO / "scripts").glob("*.py")),
           *sorted((REPO / "perfbench").glob("*.py"))]
# every module that may name a package function: the package itself and the callers above
USERS = sorted({*PACKAGE.glob("*.py"), *CALLERS})


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


def names_read(paths) -> set:
    """Every `Name` and `Attribute` the modules at `paths` mention."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller():
    """The package holds only what the pipeline uses: each function in
    `asc.__all__` (classes and errors aside) is named by the CLI, a script
    or the benchmark."""
    functions = [name for name in asc.__all__ if inspect.isfunction(getattr(asc, name))]
    assert functions
    assert [name for name in functions if name not in names_read(CALLERS)] == []


# what the package, the scripts and the benchmark name, read once for every function below
NAMED = names_read(USERS)


def module_functions() -> list:
    """`module.function` for each public function defined at the top level of
    a package module."""
    return [f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


@pytest.mark.parametrize("function", module_functions())
def test_every_module_function_is_named(function):
    """Below the export list too, the package holds only what the pipeline
    uses: a public function that nothing in the package, the scripts or the
    benchmark names is dead code (a `def` is not a mention)."""
    assert function.split(".")[1] in NAMED
