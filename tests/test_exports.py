"""Every exported or re-exported name resolves, so a deleted function left
in an export list fails the suite; and no module imports a name it never
uses."""

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
    table = yokohecke._EXPORTS
    assert table and set(table) <= set(MODULES)
    exported = [name for names in table.values() for name in names]
    assert len(exported) == len(set(exported))
    for module_name, names in table.items():
        module = importlib.import_module(f"yokohecke.{module_name}")
        for attr in names:
            assert hasattr(module, attr), f"yokohecke.{module_name}.{attr}"
            assert getattr(yokohecke, attr) is getattr(module, attr)
    assert sorted(yokohecke.__all__) == sorted(exported)
    assert set(exported) <= set(dir(yokohecke))
    with pytest.raises(AttributeError):
        yokohecke.no_such_name


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        alias.asname or alias.name.split(".")[0]
        for alias in node.names
        if alias.name != "*"
    ]


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        bound
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for bound in _bound_names(node)
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    # MODULES holds no __init__: the package's own imports are re-exports
    assert _unused_imports(pathlib.Path(yokohecke.__path__[0]) / f"{name}.py") == []


ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS_AND_TESTS = sorted(
    str(p.relative_to(ROOT)) for d in ("scripts", "tests") for p in (ROOT / d).glob("*.py")
)


@pytest.mark.parametrize("path", SCRIPTS_AND_TESTS)
def test_script_or_test_uses_every_import(path):
    assert _unused_imports(ROOT / path) == []
