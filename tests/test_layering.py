"""Modules of the package meet only through each other's public names,
only ``grid`` multiplies a spectrum's coefficients, ``symbols`` depends on
no ``mlab`` module but ``polyfield`` and expands ``det`` by its
``poly_det``, the harness sweeps the dilation range in one place, and no
CLI command catches the bad input that ``run_cli`` turns into exit 1."""

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


def _mlab_imports(path: Path) -> set[str]:
    """The ``mlab`` modules a module imports, by their names in the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("mlab.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "mlab":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                names.add(parts[0])
            else:
                names |= {a.name for a in node.names}
    return names


def _names_from(path: Path, module: str) -> set[str]:
    """The names a module takes from ``module`` (matched on its last dotted
    part), and ``module`` itself where the module is imported whole."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            names |= {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {module for a in node.names if a.name.split(".")[-1] == module}
    return names


def _is_coeffs(node: ast.expr) -> bool:
    """``x.coeffs`` or an index into it, ``x.coeffs[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "coeffs"


def _multiplier_spectra(path: Path) -> list[int]:
    """Lines that multiply a ``.coeffs`` operand, by ``*``, ``*=`` or
    ``multiply``: a Fourier multiplier applied by hand rather than by
    ``grid.apply_multiplier`` or ``grid.multiplier_l2_norm``."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = [node.left, node.right]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
            operands = [node.target, node.value]
        elif isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "multiply":
            operands = node.args
        else:
            continue
        if any(_is_coeffs(x) for x in operands):
            lines.add(node.lineno)
    return sorted(lines)


def test_modules_exist():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    assert _private_imports(path) == set()


def test_checker_sees_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .grid import Field, _band_block\nfrom mlab.spaces import _x\n")
    assert _private_imports(bad) == {"grid._band_block", "mlab.spaces._x"}


def test_symbols_imports_only_polyfield():
    assert _mlab_imports(ROOT / "src" / "mlab" / "symbols.py") <= {"polyfield"}


def test_checker_sees_an_mlab_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "import mlab.errors\n"
        "from .spaces import multi_indices\n"
        "from . import grid\n"
        "from mlab.polyfield import perm_sign\n"
        "from mlab import decomp\n"
    )
    assert _mlab_imports(bad) == {"errors", "spaces", "grid", "polyfield", "decomp"}


def test_symbols_expands_det_by_poly_det_only():
    # One determinant expansion serves the det symbol, the pointwise
    # determinants and the exact identities.
    symbols = ROOT / "src" / "mlab" / "symbols.py"
    assert _names_from(symbols, "polyfield") == {"poly_det"}
    assert _names_from(symbols, "itertools") == set()


def test_checker_sees_names_taken_from_a_module(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import itertools\n"
        "from itertools import permutations\n"
        "from .polyfield import perm_sign, poly_det\n"
        "from . import polyfield\n"
        "import mlab.polyfield as pf\n"
        "from .grid import itertools_like\n"
    )
    assert _names_from(bad, "itertools") == {"itertools", "permutations"}
    assert _names_from(bad, "polyfield") == {"perm_sign", "poly_det", "polyfield"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_only_grid_applies_a_multiplier(path):
    assert _multiplier_spectra(path) == []


def test_checker_sees_a_multiplier_product(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "a = Spectrum(g, s.coeffs * m)\n"
        "b = grid.Spectrum(g, coeffs=w * s.coeffs * m)\n"
        "c = Spectrum(g, s.coeffs - t.coeffs)\n"
        "d = Spectrum(g, coeffs * m)\n"
        "e = np.sum(abs(spec.coeffs * w) ** 2)\n"
        "f = np.vdot(w * s.coeffs[idx], x)\n"
        "s.coeffs[:] *= m\n"
        "g = np.multiply(m, s.coeffs)\n"
        "h = exp.coeffs[0] + 2 * len(s.coeffs)\n"
    )
    assert _multiplier_spectra(bad) == [1, 2, 5, 6, 7, 8]


_SWEEP_RANGE = "range(cfg.t_min, cfg.t_max + 1)"


def _sweep_loops(path: Path) -> list[int]:
    """Lines of the ``for`` loops and comprehensions over the dilation
    range ``range(cfg.t_min, cfg.t_max + 1)``."""
    return sorted(
        node.iter.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.For, ast.comprehension))
        and ast.unparse(node.iter) == _SWEEP_RANGE
    )


def test_harness_sweeps_the_dilation_range_once():
    # One driver runs every scan's sweep; a scan contributes its step only.
    assert len(_sweep_loops(ROOT / "src" / "mlab" / "harness.py")) == 1


def test_checker_sees_a_sweep_loop(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "for t in range(cfg.t_min, cfg.t_max + 1):\n"
        "    pass\n"
        "rows = [step(t) for t in range(cfg.t_min, cfg.t_max + 1)]\n"
        "top = max(x for t in range(cfg.t_min, cfg.t_max + 1) for x in f(t))\n"
        "for t in range(cfg.t_max + 1):\n"
        "    pass\n"
        "steps = list(range(cfg.t_min, cfg.t_max + 1))\n"
    )
    assert _sweep_loops(bad) == [1, 3, 4]


_EXIT_ONE = {"ValueError", "NotImplementedError", "OSError"}


def _cmd_handlers(path: Path) -> list[str]:
    """The ``_cmd_*`` functions with an ``except`` clause that names
    ``ValueError``, ``NotImplementedError`` or ``OSError``: bad input that
    ``run_cli`` already turns into exit code 1."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")):
            continue
        for handler in ast.walk(node):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None and any(
                    getattr(x, "id", getattr(x, "attr", None)) in _EXIT_ONE
                    for x in ast.walk(handler.type)):
                found.append(node.name)
                break
    return sorted(found)


def test_commands_leave_bad_input_to_run_cli():
    # One exit path: run_cli maps ValueError, NotImplementedError, OSError
    # and MlabError to exit code 1 and prints the message.
    assert _cmd_handlers(ROOT / "src" / "mlab" / "cli.py") == []


def test_checker_sees_a_command_handler(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def _cmd_a(args):\n"
        "    try:\n"
        "        run(args)\n"
        "    except ValueError as exc:\n"
        "        raise UsageError(str(exc)) from exc\n"
        "def _cmd_b(args):\n"
        "    try:\n"
        "        run(args)\n"
        "    except (KeyError, builtins.NotImplementedError):\n"
        "        pass\n"
        "def _cmd_c(args):\n"
        "    try:\n"
        "        run(args)\n"
        "    except json.JSONDecodeError:\n"
        "        pass\n"
        "def _load(args):\n"
        "    try:\n"
        "        run(args)\n"
        "    except ValueError:\n"
        "        pass\n"
    )
    assert _cmd_handlers(bad) == ["_cmd_a", "_cmd_b"]
