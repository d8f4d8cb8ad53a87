"""The package's modules form layers: each imports only the layers below it."""

import ast
from pathlib import Path

import pytest

import kummercodes

LAYERS = ("gf", "poly", "curve", "rr", "onepoint", "twopoint", "code", "cli")
PACKAGE = Path(kummercodes.__file__).parent


def _module_level(nodes):
    """Statements that run at import: no function or class bodies, and no
    ``if TYPE_CHECKING:`` branch."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _module_level(node.orelse)
            continue
        yield node
        yield from _module_level(
            child for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.stmt, ast.excepthandler))
        )


def _package_imports(name):
    """The package modules that ``name`` imports at module level."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in _module_level(tree.body):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:        # from . import rr
                found.update(alias.name for alias in node.names)
            elif node.level == 1:                               # from .rr import dim
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("kummercodes."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("kummercodes."))
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == {*LAYERS, "__init__"}


@pytest.mark.parametrize("name", LAYERS)
def test_imports_point_down_the_layers(name):
    assert _package_imports(name) <= set(LAYERS[:LAYERS.index(name)])


def test_only_cli_imports_code():
    # the theory path (semigroups, pure gaps, Riemann-Roch) runs without numpy
    importers = {name for name in ("__init__", *LAYERS) if "code" in _package_imports(name)}
    assert importers == {"cli"}


@pytest.mark.parametrize("name", ("rr", "onepoint", "twopoint"))
def test_theory_imports_no_field_code(name):
    # the theory is written as functions of the integers it depends on
    assert not _package_imports(name) & {"gf", "poly", "curve"}
