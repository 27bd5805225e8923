"""Every module's ``__all__`` names what it defines, and the package re-exports only those."""

import ast
import importlib
from pathlib import Path

import pytest

import hostcap

MODULES = ("netmodel", "powerflow", "hccore", "oracle", "partition", "sequence")
PACKAGE_IMPORTS = {
    node.module: [alias.name for alias in node.names]
    for node in ast.parse(Path(hostcap.__file__).read_text()).body
    if isinstance(node, ast.ImportFrom) and node.level == 1
}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"hostcap.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_only_public_names(name):
    module = importlib.import_module(f"hostcap.{name}")
    assert [n for n in PACKAGE_IMPORTS.get(name, []) if n not in module.__all__] == []


def test_only_netmodel_binds_the_dense_ybus():
    # the dense matrix is a test reference: no other module can reach build_ybus, and Network caches none
    names = ["hostcap"] + [f"hostcap.{name}" for name in (*MODULES, "cli")]
    assert [name for name in names if "build_ybus" in vars(importlib.import_module(name))] == ["hostcap.netmodel"]
    assert not hasattr(importlib.import_module("hostcap.netmodel").Network, "ybus")


SOURCES = sorted(p for p in Path(hostcap.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    # __init__.py only re-exports; a `# noqa: F401` line names an import kept on purpose
    source = path.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    imported = {
        (alias.asname or alias.name).split(".")[0]: alias.lineno
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name, line in imported.items() if name not in used and "# noqa: F401" not in lines[line - 1]] == []
