"""Modules of the package meet only through each other's public names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "mlab").glob("*.py"))


def _private_imports(path: Path) -> set[str]:
    """Every underscore name a module imports from another ``mlab`` module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "mlab":
            continue
        names |= {f"{module}.{a.name}" for a in node.names if a.name.startswith("_")}
    return names


def test_modules_exist():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    assert _private_imports(path) == set()


def test_checker_sees_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .grid import Field, _band_block\nfrom mlab.spaces import _x\n")
    assert _private_imports(bad) == {"grid._band_block", "mlab.spaces._x"}
