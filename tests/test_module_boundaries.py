"""No icflab module imports another module's private helpers: neither
`from .mod import _name` nor `mod._name` on an imported icflab module."""

import ast
import pathlib

import pytest

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
