"""Run the doctests embedded in public docstrings."""

import doctest

import pytest

import repro
import tests.support.relstore.table
import repro.tree.builder


@pytest.mark.parametrize(
    "module",
    [repro, repro.tree.builder, tests.support.relstore.table],
    ids=lambda module: module.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s)"
    assert results.attempted > 0, "expected at least one doctest"
