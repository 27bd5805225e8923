"""Every module's ``__all__`` names what it defines and what ``src/hostcap`` reads, and the package re-exports only those."""

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


def assigned_literal(path, target):
    """The literal value of the module-level ``target = ...`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [target]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {target}")


# public names kept without a caller in src/hostcap, and why
REASONS = {
    "solve_voltage_only": "the paper's stage 1, by name",
    "solve_with_angle": "the paper's stage 2, by name",
    "serialize_case": "the case writer, parse_case's inverse",
}


def test_every_public_name_has_a_caller():
    # a read is a loaded Name or Attribute; __all__ strings and imports do not count
    package = Path(hostcap.__file__).parent
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    shimmed = {attr for _, attr, _ in assigned_literal(package.parents[1] / "bench" / "tracer.py", "SHIMS")}
    public = {name: assigned_literal(package / f"{name}.py", "__all__") for name in MODULES}
    unread = [f"{m}.{n}" for m, names in public.items() for n in names if n not in read | shimmed | REASONS.keys()]
    assert unread == []
    assert [n for n in REASONS if not any(n in names for names in public.values())] == []
