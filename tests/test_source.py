"""Checks on the package source itself."""

import ast
from pathlib import Path

import satmargin

SOURCES = sorted(Path(satmargin.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 9


def test_no_assert_statements():
    # python -O strips assert statements, so invariant checks must raise
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
