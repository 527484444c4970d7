"""The names the benchmark harness in ``perfbench/`` reads from the package.

``perfbench/worker.py`` calls ``dk.<name>`` on ``import dirackernel as dk``
and ``perfbench/test_perfbench.py`` imports names ``from dirackernel``.  Two
of them (``weyl_group``, ``w1_enumerate``) have no caller left in the
library, and ``validate_pair`` is called only inside ``SymmetricPair``, so
this pins them as exports: deleting one would break every benchmark set-up.
The files are only read.
"""

import ast
from pathlib import Path

import pytest

import dirackernel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def worker_names() -> set:
    """Every ``dk.<name>`` in the worker."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "dk"}


def imported_names() -> set:
    """Every name of a ``from dirackernel import ...`` in perfbench's tests."""
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text(
        encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "dirackernel" for alias in node.names}


def test_the_worker_reads_its_set_up_names():
    assert {"builtin_pair", "validate_pair", "weyl_group", "w1_enumerate",
            "spinor_weights"} <= worker_names()


@pytest.mark.parametrize("name", sorted(worker_names() | imported_names()))
def test_perfbench_name_is_exported(name):
    assert hasattr(dirackernel, name)
