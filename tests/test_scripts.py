"""Scripts are thin wrappers around the CLI entry point."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _mlab_imports(path: Path) -> set[str]:
    """Every name a module imports from the ``mlab`` package, dotted."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "mlab"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mlab":
            names |= {f"{node.module}.{a.name}" for a in node.names}
    return names


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_only_run_cli(path):
    assert _mlab_imports(path) == {"mlab.cli.run_cli"}


def test_decompose_symbol_script_prints_the_expansion():
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "decompose_symbol.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["symbol"] == "norm[det,1.0]"
    assert payload["rank"] == 2
