"""The test tree defines each reference and helper once: no two modules
under ``tests/`` define the same top-level function or class name, so a
test imports a reference from its layer's module instead of keeping a
copy."""

import ast
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_no_top_level_name_is_defined_twice():
    modules = defaultdict(list)
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                modules[node.name].append(path.name)
    assert {name: files for name, files in modules.items()
            if len(files) > 1} == {}
