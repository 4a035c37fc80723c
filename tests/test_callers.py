"""``src/`` keeps no function that only tests call.

Every top-level function and class of ``src/fxtsmc/*.py``, and every method
other than a dunder, must be named somewhere in ``src/fxtsmc``: by a name, an
attribute or an import alias. A definition does not name itself.
"""

import ast
from pathlib import Path

import fxtsmc

PACKAGE = Path(fxtsmc.__file__).resolve().parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module):
    """The names of the module's top-level definitions and of its classes'
    methods other than dunders, each with a label saying where it is."""
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for name in (item.name for item in node.body if isinstance(item, DEFS)):
                if not (name.startswith("__") and name.endswith("__")):
                    yield name, f"{node.name}.{name}"


def names(tree: ast.Module) -> set:
    """Every name, attribute and imported name used in the module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_src_definition_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(names(tree) for tree in trees.values()))
    uncalled = [
        f"{module}: {label}"
        for module, tree in trees.items()
        for name, label in definitions(tree)
        if name not in used
    ]
    assert uncalled == []
