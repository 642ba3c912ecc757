"""Every public name in src/excepta is used by the program, not only by unit tests.

A name counts as used when code in src/, scripts/, bench/ or the acceptance
suite refers to it: as a name, an attribute, or a string that looks it up
(bench/ wraps its traced entry points by name).  Docstrings do not count.
"""

import ast
import importlib
from pathlib import Path

from excepta import cli

REPO = Path(__file__).resolve().parent.parent
LIBRARY = sorted((REPO / "src" / "excepta").glob("*.py"))
USERS = [
    *LIBRARY,
    *sorted((REPO / "scripts").glob("*.py")),
    *sorted((REPO / "bench").glob("*.py")),
    REPO / "tests" / "test_acceptance.py",
]

# Names kept without a user outside the unit tests, each with its reason.
KEPT = {
    "symmetry.velocity_reduction_closed_form": "the reference test_symmetry checks isospectral_reduction against",
    "lattice.crossing_slopes": "the only check of the linear crossings the lattice module docstring states",
    "topology.SurfaceMesh.euler_characteristic": "kept for the surface audit from its own mesh (ROADMAP item 8)",
}


def _docstrings(tree) -> set[int]:
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def references() -> tuple[set[str], set[str]]:
    """(names or strings, attributes) that the code of USERS refers to."""
    names, attrs = set(), set()
    for path in USERS:
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                names.add(node.value)
    return names, attrs


def public_definitions() -> dict[str, tuple[str, bool]]:
    """'module.name' or 'module.Class.method' -> (name, is_method) for public definitions."""
    found = {}
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = (node.name, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{item.name}"] = (item.name, True)
    return found


def test_every_public_name_has_a_user():
    names, attrs = references()
    handlers = {f"cli.{handler.__name__}" for handler in cli.HANDLERS.values()}
    unused = [
        qualified
        for qualified, (name, is_method) in public_definitions().items()
        if qualified not in KEPT and qualified not in handlers
        and name not in attrs and (is_method or name not in names)
    ]
    assert unused == [], f"public names only unit tests use (delete them or add them to KEPT): {unused}"


def test_kept_names_exist():
    assert sorted(set(KEPT) - set(public_definitions())) == []


def test_traced_targets_name_callables():
    # bench/layers.py wraps each Target(name, module, attr) by name; a rename in src/ must fail here.
    tree = ast.parse((REPO / "bench" / "layers.py").read_text())
    targets = [
        [arg.value for arg in node.args[1:3]]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Target"
    ]
    assert len(targets) > 10
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == [], f"bench/layers.py traces names the library lacks: {missing}"
