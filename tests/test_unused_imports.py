"""Each `cganlab` module reads every name it imports.

A stdlib stand-in for a linter's unused-import rule: each module except
the package `__init__` (which imports to re-export) is parsed with `ast`,
and a name bound by an import that no expression of the module reads
fails the test.
"""

import ast
import pathlib

import pytest

import cganlab

MODULES = sorted(p for p in pathlib.Path(cganlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from json import dumps as d, loads\nd(sys.argv)\n")
    assert unused_imports(source) == ["loads", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []
