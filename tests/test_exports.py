"""Every exported or re-exported name resolves, so a deleted function left
in an export list fails the suite."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import yokohecke

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(yokohecke.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"yokohecke.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(yokohecke.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module_name, attr in imported:
        module = importlib.import_module(f"yokohecke.{module_name}")
        assert hasattr(module, attr), f"yokohecke.{module_name}.{attr}"
        assert getattr(yokohecke, attr) is getattr(module, attr)
