"""Exact rational arithmetic stays where exactness is observable: of the
package's modules only the CLI, whose --s-range reads spins such as 511/2,
imports the fractions module.

The modules are read with ast, so a mention in a docstring or a comment
does not count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinoracle"
MODULES = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "cli"]


def imported_modules(tree):
    """The top-level names of every module that an import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_only_the_cli_imports_fractions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "fractions" not in set(imported_modules(tree)), (
        f"spinoracle.{path.stem} imports fractions")
