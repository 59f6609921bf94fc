"""Every name a package module imports is used in that module, every
module-level private name is used somewhere in the package, every
module-level public function is used by the package, the tests or the
demos, and also by the package, the demos or the benchmark harness
alone, and so is every public member of a package class.

A pure-stdlib lint: each ``src/toricdeform/*.py`` except ``__init__.py``
(which re-exports on purpose) is parsed with ``ast``, and a name bound by
an ``import`` or ``from ... import`` that no expression of the module
loads is an error.  So is a module-level ``_func``, ``_Class`` or
``_CONST`` that no package module loads or imports, other than from
inside its own definition, and so is a module-level public function that
no package module other than ``__init__.py``, no test and no demo loads
or imports.  A stricter fourth check drops the tests from the callers
and adds the benchmark harness (``perfbench/*.py``): a public function
that only tests call is test code kept in the package.  A fifth check
applies the same callers to the members of each module-level class: a
public method, property or annotated (record) field that no package
module, demo or harness file reads as an attribute is test code too.
All five catch the leftovers of a refactor, such as a helper import kept
after its last call was deleted, or a helper or field whose last reader
was deleted.  A sixth check finds no ``dataclasses`` in the package:
records are ``typing.NamedTuple``s and caches are ``__slots__``, so the
import pulls in neither ``dataclasses`` nor the ``inspect`` it imports.
Importing the package also builds no command-line parser, and README's
Layers table gives each package module one row of at most 400
characters: what the module is for and its entry points, the docstrings
keeping the mechanism.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toricdeform"
SOURCES = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# __init__.py re-exports every public name, which is no use of it
CALLERS = {str(p.relative_to(ROOT)): p.read_text()
           for p in MODULES + sorted(ROOT.glob("tests/*.py"))
           + sorted(ROOT.glob("demos/*.py"))}
PACKAGE_CALLERS = {str(p.relative_to(ROOT)): p.read_text()
                   for p in MODULES + sorted(ROOT.glob("demos/*.py"))
                   + sorted(ROOT.glob("perfbench/*.py"))}
# public functions that only tests call, kept in the package on purpose
TEST_ONLY = {
    # the Fischer-Shapiro regular-sequence criterion, a lemma of the paper
    # that the acceptance tests check on the emitted equations
    "fischer_shapiro_check",
    # the floor-of-minima identity of a Minkowski decomposition, a lemma
    # of the paper that the datum tests check on valid data
    "floor_min_identity",
}
# public class members that only tests read, kept in the package on purpose
TEST_ONLY_MEMBERS = {
    # the Cox grading group Cl; the tests check it against the invariant
    # factors of invariant_factors_oracle
    "CoxSystem.group",
}


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


def loaded_names(sources: dict) -> set:
    """Names the sources load, read as an attribute or import, counting a
    load inside the name's own top-level definition (recursion) as no
    use."""
    used = set()
    for tree in map(ast.parse, sources.values()):
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found = {node.id}
                elif isinstance(node, ast.Attribute):
                    found = {node.attr}
                elif isinstance(node, ast.ImportFrom):
                    found = {alias.name for alias in node.names}
                else:
                    continue
                used |= found - {owner}
    return used


def orphaned_private_names(sources: dict) -> list:
    """(module, line, name) of each module-level private name in the
    sources that no module loads."""
    used = loaded_names(sources)
    out = []
    for module, src in sources.items():
        for top in ast.parse(src).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                names = [node.id for node in ast.walk(top)
                         if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Store)]
            else:
                continue
            out += [(module, top.lineno, name) for name in names
                    if name.startswith("_") and not name.startswith("__")
                    and name not in used]
    return sorted(out)


def orphaned_public_functions(sources: dict, callers: dict) -> list:
    """(module, line, name) of each module-level public function in the
    sources that no caller loads."""
    used = loaded_names(callers)
    return sorted((module, top.lineno, top.name)
                  for module, src in sources.items()
                  for top in ast.parse(src).body
                  if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not top.name.startswith("_") and top.name not in used)


def read_attributes(sources: dict) -> set:
    """Names the sources read as an attribute, counting a read inside a
    class member of the same name (recursion) as no use."""
    used = set()
    for tree in map(ast.parse, sources.values()):
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                parts = top.body + top.bases + top.decorator_list
            else:
                parts = [top]
            for part in parts:
                owner = getattr(part, "name", None) if part is not top else None
                used |= {node.attr for node in ast.walk(part)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Load)} - {owner}
    return used


def orphaned_public_members(sources: dict, callers: dict) -> list:
    """(module, line, "Class.member") of each public method, property or
    annotated field of a module-level class in the sources that no caller
    reads as an attribute."""
    used = read_attributes(callers)
    out = []
    for module, src in sources.items():
        for top in ast.parse(src).body:
            if not isinstance(top, ast.ClassDef):
                continue
            for item in top.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                elif (isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_") and name not in used:
                    out.append((module, item.lineno, "%s.%s" % (top.name, name)))
    return sorted(out)


def test_module_list_is_nonempty():
    assert any(p.name == "datum.py" for p in MODULES)


def test_lint_flags_an_unused_import():
    source = "from .lattice import dot, vadd\nimport sys\n\nx = dot\n"
    assert unused_imports(source) == [(1, "vadd"), (2, "sys")]


def test_lint_flags_an_orphaned_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                "class _Orphan:\n    pass\n",
        "b.py": "from .a import _used\n\nx = _used()\n",
    }
    assert orphaned_private_names(sources) == [
        ("a.py", 6, "_recursive"), ("a.py", 9, "_Orphan")]


def test_no_orphaned_private_names():
    assert orphaned_private_names(SOURCES) == []


def test_lint_flags_an_orphaned_public_function():
    source = ("def used():\n    pass\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n"
              "def orphan():\n    pass\n\nclass Public:\n    pass\n")
    callers = {"a.py": source, "test_a.py": "from a import used\n\nused()\n"}
    assert orphaned_public_functions({"a.py": source}, callers) == [
        ("a.py", 4, "recursive"), ("a.py", 7, "orphan")]


def test_no_orphaned_public_functions():
    assert orphaned_public_functions(SOURCES, CALLERS) == []


def test_package_callers_leave_out_the_tests():
    assert "perfbench/workloads.py" in PACKAGE_CALLERS
    assert "demos/markov_tree.py" in PACKAGE_CALLERS
    assert not any(name.startswith("tests/") for name in PACKAGE_CALLERS)


def test_no_test_only_public_functions():
    found = orphaned_public_functions(SOURCES, PACKAGE_CALLERS)
    assert [entry for entry in found if entry[2] not in TEST_ONLY] == []
    assert sorted(name for _, _, name in found) == sorted(TEST_ONLY)


def test_lint_flags_an_orphaned_public_member():
    source = ("@dataclass(frozen=True)\nclass Point:\n    x: int\n"
              "    y: int\n    _cache: int = 0\n\n"
              "    @property\n    def norm(self):\n"
              "        return self.x + self.tail()\n\n"
              "    def tail(self):\n        return self.y\n\n"
              "    def walk(self, n):\n        return self.walk(n - 1)\n\n"
              "    def orphan(self):\n        pass\n")
    callers = {"a.py": source, "b.py": "def size(p):\n    return p.norm\n",
               "test_a.py": "def test(p):\n    p.orphan()\n"}
    package = {k: v for k, v in callers.items() if not k.startswith("test_")}
    assert orphaned_public_members({"a.py": source}, callers) == [
        ("a.py", 14, "Point.walk")]
    assert orphaned_public_members({"a.py": source}, package) == [
        ("a.py", 14, "Point.walk"), ("a.py", 17, "Point.orphan")]


def test_no_test_only_public_members():
    found = orphaned_public_members(SOURCES, PACKAGE_CALLERS)
    assert [entry for entry in found if entry[2] not in TEST_ONLY_MEMBERS] == []
    assert sorted(name for _, _, name in found) == sorted(TEST_ONLY_MEMBERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def assert_statements(source: str) -> list:
    """Lines of the assert statements in the source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_lint_flags_an_assert_statement():
    source = "def f(x):\n    assert x > 0, x\n    return x\n\nassert f(1)\n"
    assert assert_statements(source) == [2, 5]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_assert_statements(name):
    assert assert_statements(SOURCES[name]) == []


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def dataclass_uses(sources: dict) -> list:
    """(module, line, name) of each import of dataclasses, or of a name
    from it, and of each class decorated with dataclass, in the sources."""
    out = []
    for module, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Import):
                out += [(module, node.lineno, alias.name) for alias in node.names
                        if alias.name == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                out.append((module, node.lineno, "dataclasses"))
            elif (isinstance(node, ast.ClassDef)
                  and "dataclass" in map(_decorator_name, node.decorator_list)):
                out.append((module, node.lineno, node.name))
    return sorted(out)


def test_lint_flags_a_dataclass():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n\n"
              "@dataclass(frozen=True)\nclass Table:\n    rays: tuple\n\n"
              "@dataclasses.dataclass\nclass Checked:\n    x: int\n\n"
              "class Record(NamedTuple):\n    x: int\n")
    assert dataclass_uses({"a.py": source}) == [
        ("a.py", 1, "dataclasses"), ("a.py", 2, "dataclasses"),
        ("a.py", 5, "Table"), ("a.py", 9, "Checked")]


def test_no_dataclasses():
    assert dataclass_uses(SOURCES) == []


# every argparse.ArgumentParser built while the named modules import
_COUNT_PARSERS = """
import argparse, importlib, sys
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
for name in sys.argv[1:]:
    importlib.import_module(name)
print(len(built))
"""


def test_import_builds_no_parser():
    # __main__ is the entry point: importing it runs the command line
    names = ["toricdeform"] + ["toricdeform." + p.stem for p in MODULES
                               if p.stem != "__main__"]
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _COUNT_PARSERS, *names],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def test_readme_layers_rows_are_short():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("## Layers\n\n", 1)[1].split("\n\n", 1)[0]
    rows = {line.split("`")[1]: line for line in table.splitlines()[2:]}
    packaged = {"toricdeform." + p.stem for p in MODULES if p.stem != "__main__"}
    assert set(rows) == packaged
    assert {name: len(row) for name, row in rows.items() if len(row) > 400} == {}
