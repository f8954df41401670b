"""The package stands alone: nothing under ``src/repro`` reaches into the
test tree, where the paper's reference stack (``tests/support/reference``)
and the old relational layer (``tests/support/relstore``) live."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
OUTSIDE = ("tests", "benchmarks")


def _imported_roots(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def test_no_module_under_src_imports_the_test_tree():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 50
    offenders = [
        f"{path.relative_to(PACKAGE.parent)}:{lineno} imports {root}"
        for path in modules
        for lineno, root in _imported_roots(path)
        if root in OUTSIDE
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "moved",
    [
        "relstore",
        "baselines",
        "core/tables.py",
        "core/delta.py",
        "core/update.py",
        "core/maintain.py",
        "core/setops.py",
        "core/stability.py",
        "core/gram.py",
    ],
)
def test_the_reference_stack_is_not_in_the_package(moved):
    assert not (PACKAGE / moved).exists()
