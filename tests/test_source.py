"""Source checks on the package itself."""

from __future__ import annotations

import ast
import pathlib
import sys

import fiberplan

PACKAGE = pathlib.Path(fiberplan.__file__).resolve().parent


def test_package_has_no_assert_statements():
    """`python -O` strips asserts, so package control flow must raise instead."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in the package: " + ", ".join(found)


def test_package_imports_only_the_standard_library_and_numpy():
    """numpy is the only runtime dependency, even where scipy or networkx
    happen to be installed."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "fiberplan"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert not found, "imports outside the standard library and numpy: " + ", ".join(found)
