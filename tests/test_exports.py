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
