"""Each `cganlab` module reads every name it imports, the package reads
every private name it defines, and only `nets` runs a network.

A stdlib stand-in for a linter's unused-import rule: each module except
the package `__init__` (which imports to re-export) is parsed with `ast`,
and a name bound by an import that no expression of the module reads
fails the test. Likewise a module-level private name (a function, class
or constant whose name starts with one underscore) that no module of the
package reads fails: a helper that only tests call is dead code. And a
module other than `nets` that reads `mlp_forward`, or draws generator
noise (a `standard_normal` call whose arguments name `noise_dim`), fails:
`nets.gen_forward` and `nets.disc_forward` are the one forward path.
"""

import ast
import pathlib

import pytest

import cganlab

PACKAGE_FILES = sorted(pathlib.Path(cganlab.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE_FILES if p.name != "__init__.py"]


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` for each module-level private name of `sources` that none reads.

    `sources` maps module names to their source. A private name starts with
    one underscore and is bound at module level by a def, a class or an
    assignment. A read is a loaded name or attribute of that spelling in
    any of the modules, or a `from ... import` of it.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_private_name_checker_finds_unread_names():
    sources = {
        "a": "_K = 1\n_T: int = 2\n_U = 3\ndef _f():\n    return _K\nclass _C:\n    pass\n"
             "__all__ = []\n",
        "b": "import a\nfrom a import _f\n_f()\na._T\na._U = 4\ndef _g():\n    pass\n",
    }
    assert unread_private_names(sources) == ["a._C", "a._U", "b._g"]


def test_package_reads_every_private_name():
    sources = {p.stem: p.read_text() for p in PACKAGE_FILES}
    assert unread_private_names(sources) == []


def forward_path_bypasses(source: str) -> list[str]:
    """Each read of `mlp_forward` and each noise draw of `source`, as `line N: what`.

    A noise draw is a call of `standard_normal` (a name or an attribute)
    with `noise_dim`, as a name or an attribute, anywhere in its arguments.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name == "mlp_forward" and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, "reads mlp_forward"))
        elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", getattr(node.func, "id", None)) == "standard_normal":
            names = {getattr(n, "id", getattr(n, "attr", None))
                     for arg in [*node.args, *(k.value for k in node.keywords)]
                     for n in ast.walk(arg)}
            if "noise_dim" in names:
                found.append((node.lineno, "draws noise"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_forward_path_checker_finds_bypasses():
    source = ("from .nets import mlp_forward\nimport numpy as np\n"
              "y = mlp_forward(spec, params, h)\nf = nets.mlp_forward\n"
              "z = rng.standard_normal((n, gen.noise_dim))\n"
              "w = standard_normal(size=(n, noise_dim))\nv = rng.standard_normal((n, 2))\n")
    assert forward_path_bypasses(source) == [
        "line 3: reads mlp_forward", "line 4: reads mlp_forward",
        "line 5: draws noise", "line 6: draws noise"]


@pytest.mark.parametrize("path", [p for p in PACKAGE_FILES if p.name != "nets.py"],
                         ids=lambda p: p.name)
def test_only_nets_runs_a_network(path):
    assert forward_path_bypasses(path.read_text()) == []
