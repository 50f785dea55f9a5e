"""No icflab module imports another module's private helpers: neither
`from .mod import _name` nor `mod._name` on an imported icflab module.
No module imports a name it neither uses nor exports.  And every public
module-level function and class, and every public method of a public
class, is read somewhere in icflab or exported from the package, so none
is left that only tests reach.  Only `radial_graph.geometry` and the
surface generators call make_grid.  The command line imports no scipy,
and no module imports warnings."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import icflab

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "icflab"
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def private_uses(source: str) -> list[str]:
    """Private names of other icflab modules that `source` reaches."""
    tree = ast.parse(source)
    modules = {f"icflab.{m}" for m in MODULES}   # names bound to modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = ((node.level > 0 and node.module is None)
                       or node.module == "icflab")
            internal = node.level > 0 or (node.module or "").startswith("icflab")
            for alias in node.names:
                if package and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif internal and _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("icflab."):
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and _dotted(node.value) in modules):
            found.append(f"line {node.lineno}: uses "
                         f"{_dotted(node.value)}.{node.attr}")
    return found


def unused_imports(source: str) -> list[str]:
    """Names that `source` imports but neither reads nor lists in its
    `__all__`."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = set()

    def visit(node, local):
        # a name a function binds (a parameter or an assignment) is local
        # in all of it, so reading it there does not use an import
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            local = local | {p.arg for p in params if p} | {
                n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id not in local):
            read.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, expected", [
    ("from .serialize import ckf_to_dict", ["line 1: ckf_to_dict"]),
    ("import numpy as np\nimport os.path", ["line 1: np", "line 2: os"]),
    ("from .flow import run\nrun = 1", ["line 1: run"]),
    ("from dataclasses import field\ndef f(field):\n    return field",
     ["line 1: field"]),
    ("import numpy as np\ndef f():\n    np = 1\n    return np", ["line 1: np"]),
    ("import numpy as np\ndef f(x):\n    return np.abs(x)", []),
    ("from __future__ import annotations", []),
    ("import numpy as np\nnp.zeros(1)", []),
    ("import os.path\nos.path.join('a')", []),
    ("from .sphere_grid import make_grid\n__all__ = ['make_grid']", []),
])
def test_unused_import_checker(source, expected):
    assert unused_imports(source) == expected


def unreached_definitions(sources: dict[str, str], exported) -> list[str]:
    """Public module-level functions and classes, as `module.name`, and
    public methods of public classes, as `module.Class.name`, that no
    module in `sources` reads (as a bare name or as an attribute) and that
    `exported` does not list.  Importing a name is not reading it."""
    read, defined = set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or _private(node.name)):
                continue
            defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [qualified for qualified, name in defined
            if name not in read and name not in exported]


# methods that no module reads but that bench/spans.py looks up by name:
# its SYNTH_METHODS list and its TARGETS entry for `project` (ROADMAP
# item 1)
BENCH_LOOKUPS = ["synth_dtheta", "synth_dphi", "synth_d2theta",
                 "synth_dtheta_dphi", "synth_d2phi", "synth_laplacian",
                 "project"]


def test_every_public_definition_is_read_or_exported():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    unreached = unreached_definitions(sources, set(icflab.__all__))
    assert unreached == [f"sphere_grid.Grid.{name}" for name in BENCH_LOOKUPS]


@pytest.mark.parametrize("sources, exported, expected", [
    ({"a": "def f():\n    pass"}, set(), ["a.f"]),
    ({"a": "class C:\n    pass"}, set(), ["a.C"]),
    ({"a": "def f():\n    pass"}, {"f"}, []),
    ({"a": "def f():\n    pass", "b": "from .a import f\nf()"}, set(), []),
    ({"a": "def f():\n    pass", "b": "from . import a\na.f"}, set(), []),
    ({"a": "def f():\n    pass", "b": "from .a import f"}, set(), ["a.f"]),
    ({"a": "def f():\n    pass\n__all__ = ['f']"}, set(), ["a.f"]),
    ({"a": "def f():\n    pass\ndef g():\n    return f()"}, set(), ["a.g"]),
    ({"a": "def _f():\n    pass"}, set(), []),
    ({"a": "def f():\n    def g():\n        pass"}, {"f"}, []),
    ({"a": "class C:\n    def m(self):\n        pass\n"
           "    def _p(self):\n        pass\n"
           "    def __init__(self):\n        pass",
      "b": "from .a import C\nC()"}, set(), ["a.C.m"]),
    ({"a": "class C:\n    def m(self):\n        pass",
      "b": "from .a import C\nC().m()"}, set(), []),
])
def test_unreached_definition_checker(sources, exported, expected):
    assert unreached_definitions(sources, exported) == expected


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_access(path):
    assert private_uses(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "from .flow import _check_cone",
    "from icflab.soliton import basis_fields, _design_matrix",
    "from . import invariants as inv\ninv._geom(1, 2)",
    "from icflab import flow\nflow._graph_rhs",
    "import icflab.radial_graph as rg\nrg._COND_LIMIT",
    "import icflab.radial_graph\nicflab.radial_graph._COND_LIMIT",
])
def test_checker_flags_private_access(source):
    assert len(private_uses(source)) == 1


@pytest.mark.parametrize("source", [
    "from . import __version__",
    "from .flow import normal_speed",
    "from . import invariants as inv\ninv.willmore",
    "def f(surface):\n    return surface._geometry",
    "import numpy as np\nnp._NoValue",
])
def test_checker_allows_public_and_own_access(source):
    assert private_uses(source) == []


def grid_lookups(sources: dict[str, str]) -> set[str]:
    """Where `sources` call make_grid, each as the dotted path of the
    function or class around the call, `module.outer.inner`, or as
    `module` for a call at module level."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        elif (isinstance(node, ast.Call)
              and (_dotted(node.func) or "").split(".")[-1] == "make_grid"):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def test_only_geometry_and_the_generators_look_a_grid_up_by_spec():
    # a surface's grid is its geometry bundle's: `geometry` looks it up
    # once per surface, and the generators build the surfaces
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    lookups = grid_lookups(sources)
    assert {where for where in lookups if not where.startswith("surfaces.")} == {
        "radial_graph.geometry"}


@pytest.mark.parametrize("sources, expected", [
    ({"a": "def f(spec):\n    return make_grid(spec)"}, {"a.f"}),
    ({"a": "class C:\n    def m(self):\n        return sg.make_grid(self.spec)"},
     {"a.C.m"}),
    ({"a": "def f():\n    def g():\n        make_grid(s)\n    return g"}, {"a.f.g"}),
    ({"a": "grid = make_grid(SPEC)"}, {"a"}),
    ({"a": "def make_grid(spec):\n    return Grid(spec)"}, set()),
    ({"a": "from .sphere_grid import make_grid\n__all__ = ['make_grid']"}, set()),
])
def test_grid_lookup_checker(sources, expected):
    assert grid_lookups(sources) == expected


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle only; pytest has imported it already through
    # the oracles, so the check runs in a fresh interpreter
    code = ("import sys, icflab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that `source` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_warnings():
    # each result is said once, by a return value or a typed error: a
    # warning would repeat a reported number on stderr, where a run that
    # exits 0 prints nothing
    assert [path.name for path in SRC.glob("*.py")
            if "warnings" in imported_modules(path.read_text())] == []


@pytest.mark.parametrize("source, expected", [
    ("import warnings", {"warnings"}),
    ("import os.path as p\nfrom warnings import warn", {"os", "warnings"}),
    ("def f():\n    import warnings", {"warnings"}),
    ("from . import warnings\nfrom .flow import run", set()),
])
def test_import_checker(source, expected):
    assert imported_modules(source) == expected
