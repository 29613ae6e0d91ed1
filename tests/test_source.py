"""Source checks on the package itself."""

from __future__ import annotations

import ast
import pathlib

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
