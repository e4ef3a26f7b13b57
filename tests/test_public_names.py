"""Every name the package exports is used by the library itself, or is a
layer that the traced bench run wraps: no public name exists only for tests.

The modules are read with ast.  A name counts as used when some module
refers to it, as a name or an attribute, outside the def or class that
defines it; a mention in a docstring or a comment does not count.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spinoracle"
TRACING = ROOT / "bench" / "tracing.py"

TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def layer_functions():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_FUNCTIONS


def exports():
    """(module, name) for each name __init__ imports from a package module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [(node.module, alias.asname or alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def used_outside_its_definition(module, name):
    for stem, tree in TREES.items():
        own = set()
        if stem == module:
            own = {id(node) for top in tree.body
                   if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == name
                   for node in ast.walk(top)}
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name):
                return True
    return False


LAYERS = set(layer_functions())


@pytest.mark.parametrize("module, name", exports())
def test_every_export_is_used_by_the_library_or_traced_by_the_bench(module, name):
    assert (module, name) in LAYERS or used_outside_its_definition(module, name), (
        f"spinoracle.{module}.{name} is reached only from tests")
