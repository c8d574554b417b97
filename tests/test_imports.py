"""Every module of the library and of the tests reads each name it
imports, and every private module-level function and class of the
library is read by the library.  The package's ``__init__.py`` is exempt
from the first check: its imports are its re-exports."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted(ROOT.glob("src/holonomy2/*.py"))
MODULES = sorted(p for p in [*LIBRARY, *ROOT.glob("tests/*.py")] if p.name != "__init__.py")


def unused_imports(source):
    """The names a module imports and never reads, in import order.
    ``import a.b`` binds ``a``; ``from __future__`` imports bind
    nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line) for name, line in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from x import (a, b as c)\nprint(a, os)\n")
    assert unused_imports(source) == ["j (line 3)", "c (line 4)"]


def unread_privates(sources):
    """The private (``_``-prefixed, not dunder) module-level functions
    and classes of the modules ``sources`` maps names to, that no module
    there reads, as ``module.name`` in definition order.  A name is read
    where it is loaded, imported, or taken as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return ["%s.%s" % (name, node.name) for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in read]


def test_library_reads_every_private_definition():
    assert unread_privates({p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}) == []


def test_unread_privates_are_found():
    sources = {"a": ("def _used(): pass\ndef _imported(): pass\ndef _attr(): pass\n"
                     "def _unread(): pass\nclass _Lone: pass\ndef _stored(): pass\n"
                     "def __dunder__(): pass\ndef public(): return _used()\n"),
               "b": "from a import _imported\nimport a\na._attr()\n_stored = 1\n"}
    assert unread_privates(sources) == ["a._unread", "a._Lone", "a._stored"]
