"""Every module of the library and of the tests reads each name it
imports.  The package's ``__init__.py`` is exempt: its imports are its
re-exports."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*ROOT.glob("src/holonomy2/*.py"), *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")


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
