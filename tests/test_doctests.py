"""Run the docstring examples embedded in the library modules."""

import doctest
import importlib
import pkgutil

import pytest

import yokohecke

MODULES = [
    importlib.import_module(f"yokohecke.{name}")
    for name in sorted(m.name for m in pkgutil.iter_modules(yokohecke.__path__))
    if name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0
