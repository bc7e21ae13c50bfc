"""Scripts are thin wrappers around the CLI entry point."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mlab.cli import run_cli

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


def test_boundedness_script_writes_the_cli_record(tmp_path):
    # The script once put --symbol det_norm:1 before the arguments, and a
    # flag beats the config file, so a config's own symbol was dropped.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "boundedness", "d": 2, "n": 8, "symbol": "riesz_product:1,2",
        "p": [2.0, 2.0], "r": 1.0, "family": 1, "t_max": 1,
    }))
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    records = []
    for name, argv in [
        ("script", [str(ROOT / "scripts" / "run_boundedness.py")]),
        ("cli", ["-m", "mlab.cli", "boundedness-scan"]),
    ]:
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, *argv, "--config", str(config), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads((out / "boundedness" / "records.jsonl").read_text())
        record.pop("runtime_seconds")
        records.append(record)
    assert records[0] == records[1]


def test_estimates_script_writes_the_cli_records(tmp_path):
    # The script runs both estimate commands over t = 0..5 and forwards
    # its arguments to each.
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_estimates.py"),
         "--out", str(tmp_path / "script")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for command, experiment in [("jacobian-estimate", "jacobian"),
                                ("hessian-estimate", "hessian")]:
        assert run_cli([command, "--t-min", "0", "--t-max", "5",
                        "--out", str(tmp_path / "cli")]) == 0
        records = []
        for name in ("script", "cli"):
            record = json.loads((tmp_path / name / experiment / "records.jsonl").read_text())
            record.pop("runtime_seconds")
            records.append(record)
        assert records[0] == records[1]
