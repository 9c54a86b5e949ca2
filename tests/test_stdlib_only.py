"""The runtime is pure standard library: every import in ``src/provpoint``
is relative or names a standard-library module."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "provpoint")
                 .glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {module}" for module in modules
                        if module.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_costfn_is_a_leaf_module():
    # the cost function is the one type scenario files parse into, so
    # model imports costfn and costfn imports nothing of the package
    path = next(path for path in SOURCES if path.name == "costfn.py")
    relative = [node.module for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == []
