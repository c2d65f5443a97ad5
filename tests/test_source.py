"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
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


def test_imports_at_module_top():
    # an import inside a function hides a dependency from the module's
    # header and from anything that rebinds the module's names
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for func in ast.walk(tree)
                  if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(func)
                  if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside functions: {found}"


def test_no_numpy():
    # the package runs on the standard library alone, which keeps
    # ``import satmargin`` cheap
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"numpy imports in the package: {found}"


def test_import_leaves_numpy_unloaded():
    src = str(Path(satmargin.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, satmargin; print(satmargin.__file__); "
         "print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert done.stdout.splitlines() == [satmargin.__file__, "False"]


def test_box_read_only_on_construction():
    # every system lies in the 0/1 box; InequalitySystem.__post_init__
    # rejects box=False, so no other code has a flag to check
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node)
                   for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "InequalitySystem"
                   for func in cls.body
                   if isinstance(func, ast.FunctionDef) and func.name == "__post_init__"
                   for node in ast.walk(func)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "box"
                  and id(node) not in allowed]
    assert not found, f"reads of .box outside InequalitySystem: {found}"
