"""Every name a package module imports is used in that module.

A pure-stdlib lint: each ``src/toricdeform/*.py`` except ``__init__.py``
(which re-exports on purpose) is parsed with ``ast``, and a name bound by
an ``import`` or ``from ... import`` that no expression of the module
loads is an error.  It catches the leftovers of a refactor, such as a
helper import kept after its last call was deleted.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "toricdeform"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_module_list_is_nonempty():
    assert any(p.name == "datum.py" for p in MODULES)


def test_lint_flags_an_unused_import():
    source = "from .lattice import dot, vadd\nimport sys\n\nx = dot\n"
    assert unused_imports(source) == [(1, "vadd"), (2, "sys")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
