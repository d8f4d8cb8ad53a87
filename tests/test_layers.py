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


def test_no_module_imports_code_at_module_level():
    # cli imports the code layer inside the subcommands that build codes, so
    # the theory path (semigroups, pure gaps, Riemann-Roch) runs without numpy
    assert not {name for name in ("__init__", *LAYERS) if "code" in _package_imports(name)}


# the public names by the submodule that defines them
EXPORTS = {
    "gf": "Field make_field",
    "poly": "Polynomial gcd is_separable roots_in_field",
    "curve": "ConfigError KummerCurve Place load_curve make_curve parse_curve_config",
    "rr": "rr Divisor RRBasis",
    "onepoint": "onepoint NumericalSemigroup check_consecutive_form consecutive_genus "
                "is_gap is_symmetric semigroup_at",
    "twopoint": "twopoint GapGraph PureGapBox best_pure_gap_box box_for_divisor "
                "enumerate_pure_gaps floor_pure_gap gap_graph is_member is_pure_gap "
                "known_pure_gap verified_box",
    "code": "LinearCode evaluation_code exact_min_distance residue_code shorten",
}


def test_import_loads_no_submodule_and_names_resolve(run_fresh):
    report = run_fresh(
        "import sys, types\n"
        "import kummercodes\n"
        "loaded = [name for name in sys.modules if name.startswith('kummercodes.')]\n"
        "owners = {}\n"
        "for name in kummercodes.__all__:\n"
        "    obj = getattr(kummercodes, name)\n"
        "    if isinstance(obj, types.ModuleType):\n"
        "        owners[name] = obj.__name__\n"
        "    elif getattr(sys.modules[obj.__module__], name) is obj:\n"
        "        owners[name] = obj.__module__\n"
        "print(json.dumps({'loaded': loaded, 'all': kummercodes.__all__, 'owners': owners}))\n"
    )
    assert report["loaded"] == []
    want = {name: f"kummercodes.{module}"
            for module, names in EXPORTS.items() for name in names.split()}
    assert len(want) == 39 and sorted(report["all"]) == sorted(want)
    assert report["owners"] == want


@pytest.mark.parametrize("argv, builds_codes", [
    ("semigroup --curve CFG", False),
    ("twopoint --curve CFG --gamma", False),
    ("twopoint --curve CFG --pure-gaps 10", False),
    ("twopoint --curve CFG --member 3 4", False),
    ("verify-paper --list", False),
    ("code --curve CFG --G 5P_inf", True),
    ("verify-paper", True),
])
def test_only_code_subcommands_load_numpy(run_fresh, argv, builds_codes):
    report = run_fresh(
        "import contextlib, io, sys, tempfile\n"
        "from kummercodes import cli\n"
        "with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):\n"
        "    cfg = str(cli.write_reference_configs(tmp)[0])\n"
        f"    rc = cli.main([cfg if arg == 'CFG' else arg for arg in {argv.split()!r}])\n"
        "print(json.dumps({'rc': rc, 'numpy': 'numpy' in sys.modules,\n"
        "                  'code': 'kummercodes.code' in sys.modules}))\n"
    )
    assert report == {"rc": 0, "numpy": builds_codes, "code": builds_codes}


@pytest.mark.parametrize("name", ("rr", "onepoint", "twopoint"))
def test_theory_imports_no_field_code(name):
    # the theory is written as functions of the integers it depends on
    assert not _package_imports(name) & {"gf", "poly", "curve"}


@pytest.mark.parametrize("name", [name for name in LAYERS if name != "gf"])
def test_points_are_encodings(name):
    # f, its roots and the curve's points are the field's encodings: poly,
    # the curve and rr's reference evaluator compute on them with the
    # field's scalar ops, and the code layer gathers on them; no module but
    # gf names FieldElement, which is only the benchmark tracer's hook
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "FieldElement" not in names
