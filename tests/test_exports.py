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
