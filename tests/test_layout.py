"""The test tree defines each reference and helper once: no two modules
under ``tests/`` define the same top-level function or class name, so a
test imports a reference from its layer's module instead of keeping a
copy.  The library keeps no dead helper: each module-level private
function of the package is read somewhere in it."""

import ast
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "dirackernel"


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


def test_every_private_function_is_read_in_the_library():
    # a fold that inlines or merges a helper must not leave the old one
    # behind: each module-level _function of src/dirackernel is read by
    # name (a name or an attribute) in a top-level statement of the
    # package other than its own definition, so recursion does not count
    statements = [node for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [{n.id if isinstance(n, ast.Name) else n.attr
              for n in ast.walk(node)
              if isinstance(n, (ast.Name, ast.Attribute))}
             for node in statements]
    private = [(k, node.name) for k, node in enumerate(statements)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")]
    assert len(private) > 10
    assert [name for k, name in private
            if not any(name in read for j, read in enumerate(reads)
                       if j != k)] == []
