"""Each `cganlab` module reads every name it imports, the package reads
every private name it defines, only `nets` runs a network, only
`pairing` draws a pair batch, and each random stream has its own key.

A stdlib stand-in for a linter's unused-import rule: each module except
the package `__init__` (which imports to re-export) is parsed with `ast`,
and a name bound by an import that no expression of the module reads
fails the test. Likewise a module-level private name (a function, class
or constant whose name starts with one underscore) that no module of the
package reads fails: a helper that only tests call is dead code. And a
module other than `nets` that reads `mlp_forward`, or draws generator
noise (a `standard_normal` call whose arguments name `noise_dim`), fails:
`nets.gen_forward` and `nets.disc_forward` are the one forward path.
A module other than `pairing` that reads `sample_pair_batch` fails too:
`pairing.draw_pairings` is the one pair-batch path. The evaluation
modules, `evalcond` and `tasks`, call `gen_forward`, `disc_forward` and
`draw_pairings` only with ``cache=False``: they never backpropagate, and
the cached pass holds every hidden activation (training, in `trainer`,
needs the cache). Last, a stream seeded
``default_rng([seed, KEY])`` must name `KEY` by a module-level constant,
and no two such constants may hold one value, nor any the value 0: the
stream ``[seed, 0]`` is the stream ``seed`` itself.
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


def _name(node):
    """The name a Name or Attribute node spells, else None."""
    return node.id if isinstance(node, ast.Name) \
        else node.attr if isinstance(node, ast.Attribute) else None


def forward_path_bypasses(source: str) -> list[str]:
    """Each read of `mlp_forward` and each noise draw of `source`, as `line N: what`.

    A noise draw is a call of `standard_normal` (a name or an attribute)
    with `noise_dim`, as a name or an attribute, anywhere in its arguments.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if _name(node) == "mlp_forward" and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, "reads mlp_forward"))
        elif isinstance(node, ast.Call) and _name(node.func) == "standard_normal":
            names = {_name(n) for arg in [*node.args, *(k.value for k in node.keywords)]
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


def pair_path_bypasses(source: str) -> list[str]:
    """Each read of `sample_pair_batch` in `source`, as `line N`."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if _name(node) == "sample_pair_batch" and isinstance(node.ctx, ast.Load))]


def test_pair_path_checker_finds_bypasses():
    source = ("from .pairing import sample_pair_batch\n"
              "batch = sample_pair_batch(ds, 8, rng, mode)\ndraw = pairing.sample_pair_batch\n"
              "pairs = draw_pairings(ds, gen, 8, rng, mode)\n")
    assert pair_path_bypasses(source) == ["line 2", "line 3"]


@pytest.mark.parametrize("path", [p for p in PACKAGE_FILES if p.name != "pairing.py"],
                         ids=lambda p: p.name)
def test_only_pairing_draws_a_pair_batch(path):
    assert pair_path_bypasses(path.read_text()) == []


def cached_forwards(source: str) -> list[str]:
    """Each `gen_forward`, `disc_forward` or `draw_pairings` call of `source` that
    does not pass ``cache=False``, as `line N`."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and _name(node.func) in ("gen_forward", "disc_forward", "draw_pairings")
        and not any(k.arg == "cache" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in node.keywords))]


def test_cached_forward_checker_finds_cached_calls():
    source = ("y = gen_forward(gen, x, rng)[0]\ny = nets.gen_forward(gen, x, cache=True)\n"
              "f = disc_forward(disc, x, y, cache=False)[0]\nf = disc_forward(disc, x, y, cache=0)\n"
              "y = gen_forward(gen, x, rng, cache=False)[0]\nf = disc_forward(disc, x, y)\n"
              "p = draw_pairings(ds, gen, 8, rng, mode)[0]\n"
              "p = pairing.draw_pairings(ds, gen, 8, rng, mode, cache=False)[0]\n")
    assert cached_forwards(source) == ["line 1", "line 2", "line 4", "line 6", "line 7"]


@pytest.mark.parametrize("name", ["evalcond.py", "tasks.py"])
def test_evaluation_runs_networks_without_a_cache(name):
    assert cached_forwards((PACKAGE_FILES[0].parent / name).read_text()) == []


def stream_key_problems(sources: dict[str, str]) -> list[str]:
    """What breaks the stream-key rule in `sources`, which maps module names to source.

    A keyed stream is a `default_rng` call seeded by a list or tuple
    display; every element after the first is a key. A key must be a name
    bound at the module level of its own module to a literal, the values of
    the named constants must differ across `sources`, and none may be 0.
    """
    problems, values = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        constants = {t.id: node.value.value for node in tree.body
                     if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                     for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _name(node.func) == "default_rng"):
                continue
            seed = [*node.args, *(k.value for k in node.keywords if k.arg == "seed"), None][0]
            for key in seed.elts[1:] if isinstance(seed, (ast.List, ast.Tuple)) else []:
                if isinstance(key, ast.Name) and key.id in constants:
                    values[f"{module}.{key.id}"] = constants[key.id]
                else:
                    problems.append(f"{module} line {key.lineno}: key {ast.unparse(key)} "
                                    f"is not a module-level constant")
    names_of = {}
    for name, value in sorted(values.items()):
        names_of.setdefault(value, []).append(name)
        if value == 0:
            problems.append(f"{name} is 0: the stream [seed, 0] is the stream seed")
    return problems + [f"{' and '.join(names)} share the value {value!r}"
                       for value, names in names_of.items() if len(names) > 1]


def test_stream_key_checker_finds_unnamed_and_shared_keys():
    sources = {
        "a": "_A = 1\n_B = 2\n_Z = 0\nr = np.random.default_rng([s, _A])\n"
             "r = default_rng(seed=(s, _Z))\nr = default_rng([s, 3])\nr = default_rng(s)\n",
        "b": "from a import _B\n_C = 1\nr = default_rng([s, _C])\nr = default_rng([s, _B])\n"
             "r = default_rng([s, _C, k])\nr = default_rng([s, _A])\n",
    }
    assert stream_key_problems(sources) == [
        "a line 6: key 3 is not a module-level constant",
        "b line 4: key _B is not a module-level constant",
        "b line 5: key k is not a module-level constant",
        "b line 6: key _A is not a module-level constant",
        "a._Z is 0: the stream [seed, 0] is the stream seed",
        "a._A and b._C share the value 1",
    ]


def test_package_streams_have_distinct_named_keys():
    assert stream_key_problems({p.stem: p.read_text() for p in PACKAGE_FILES}) == []
