"""Workload definitions and the oracle checks that judge each operation.

An operation is one ``mlab`` CLI command, driven through
``mlab.cli.run_cli`` with a fresh output directory.  Scan commands read an
``ExperimentConfig`` JSON file written into that directory, so every
operation loads and schema-validates its config the way a user's would.
After the command returns, and outside its timed window, the operation is
checked against a route that does not share its fast path: the record's own
verdict, plus an independent recomputation where the scan has one.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mlab import harness
from mlab.grid import pair, regrid_field
from mlab.operators import OperatorSpec, Separable, apply_direct
from mlab.schemas import validate_record
from mlab.symbols import power_symbol

# Acceptance-suite tolerances (tests/test_acceptance.py, criteria 2 and 9).
SEPARABLE_REL_TOL = 1e-5
TRANSFER_REL_TOL = 1e-8


@dataclass
class Outcome:
    """What one operation left behind, for its checks."""

    exit_code: int
    out_dir: Path
    captured: dict
    failures: list[str] = field(default_factory=list)
    rel_errors: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload.

    ``config`` is the ``ExperimentConfig`` payload of a scan (the seed is
    added per operation); ``flags`` are the arguments of a command that
    takes no config file.
    """

    metric: str
    command: str
    check: Callable[[Outcome], None]
    config: dict | None = None
    flags: tuple[str, ...] = ()

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        """Write the operation's inputs into ``out_dir``; return its CLI argv."""
        if self.config is None:
            return [self.command, *self.flags, "--seed", str(seed),
                    "--out", str(out_dir / "identities.json")]
        cfg = out_dir / "config.json"
        cfg.write_text(json.dumps({**self.config, "seed": seed}))
        return [self.command, "--config", str(cfg), "--out", str(out_dir)]


class Capture:
    """Keeps the first call of selected ``mlab.harness`` functions per operation.

    The scans reach their operator through these bindings, so the first call
    is family member 0 at ``t = t_min``: the oracle recomputes exactly that
    value by an independent route instead of trusting the scan.
    """

    NAMES = ("apply_operator", "pair_with_transfer")

    def __init__(self) -> None:
        self.calls: dict = {}
        self._saved: dict = {}

    def install(self) -> "Capture":
        for name in self.NAMES:
            original = getattr(harness, name)
            self._saved[name] = original
            setattr(harness, name, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        for name, original in self._saved.items():
            setattr(harness, name, original)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if name not in self.calls:
                self.calls[name] = (args, result)
            return result

        return wrapper


def rel_l2(got: np.ndarray, want: np.ndarray) -> float:
    got, want = np.ravel(got), np.ravel(want)
    scale = float(np.linalg.norm(want))
    diff = float(np.linalg.norm(got - want))
    return diff / scale if scale else diff


def _record(outcome: Outcome, experiment: str) -> dict | None:
    path = outcome.out_dir / experiment / "records.jsonl"
    if not path.is_file():
        outcome.failures.append(f"no record written at {path.name}")
        return None
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if len(lines) != 1:
        outcome.failures.append(f"expected one record, found {len(lines)}")
        return None
    record = json.loads(lines[0])
    validate_record(record)
    if not record["passed"]:
        outcome.failures.append(f"{experiment} record verdict failed")
    return record


def check_exit(outcome: Outcome) -> bool:
    if outcome.exit_code != 0:
        outcome.failures.append(f"exit code {outcome.exit_code}")
        return False
    return True


def check_boundedness(outcome: Outcome) -> None:
    """Exit code 0 and the scan's per-member invariance verdict."""
    if check_exit(outcome):
        _record(outcome, "boundedness")


def check_separable(outcome: Outcome) -> None:
    """Invariance verdict, and ``apply_separable`` against ``apply_direct``."""
    check_boundedness(outcome)
    if "apply_operator" not in outcome.captured:
        outcome.failures.append("separable scan made no operator call")
        return
    (op, fields), got = outcome.captured["apply_operator"]
    if not isinstance(op.strategy, Separable):
        outcome.failures.append("separable scan did not use the separable route")
        return
    want = apply_direct(OperatorSpec(op.symbol, op.m, pad_factor=op.pad_factor), fields)
    err = rel_l2(got.samples, want.samples)
    outcome.rel_errors["separable"] = err
    if not err <= SEPARABLE_REL_TOL:
        outcome.failures.append(
            f"apply_separable vs apply_direct rel L2 {err:.3e} > {SEPARABLE_REL_TOL:g}"
        )


def check_transfer(outcome: Outcome) -> None:
    """Scan verdict, and the transferred pairing against the direct pairing."""
    if not check_exit(outcome):
        return
    _record(outcome, "thm3")
    if "pair_with_transfer" not in outcome.captured:
        outcome.failures.append("thm3 scan made no transferred pairing")
        return
    (sym, k, fields, phi), got = outcome.captured["pair_with_transfer"]
    out = apply_direct(OperatorSpec(power_symbol(sym, k), sym.m), list(fields))
    want = pair(out, regrid_field(phi, out.grid.n))
    err = abs(got - want) / abs(want) if want else abs(got)
    outcome.rel_errors["transfer"] = err
    if not err <= TRANSFER_REL_TOL:
        outcome.failures.append(
            f"pair_with_transfer vs direct pairing rel err {err:.3e} > {TRANSFER_REL_TOL:g}"
        )


def check_estimate(outcome: Outcome, experiment: str) -> None:
    """Scan verdict, and an exactly zero numerator for ``u = v``."""
    if not check_exit(outcome):
        return
    record = _record(outcome, experiment)
    if record is not None and record["extra"].get("u_equals_v_numerator") != 0.0:
        outcome.failures.append("u = v difference numerator is not exactly 0")


def check_identities(outcome: Outcome) -> None:
    """Every exact polynomial identity report passes."""
    if not check_exit(outcome):
        return
    reports = json.loads((outcome.out_dir / "identities.json").read_text())
    if not reports:
        outcome.failures.append("identity suite returned no reports")
    bad = [r["identity"] for r in reports if not r["passed"]]
    if bad:
        outcome.failures.append(f"identities failed: {', '.join(bad)}")


def _scan_config(experiment: str, d: int, n: int, symbol: str, **extra) -> dict:
    """Config with the CLI's default exponents ``p_j = d`` (``m = d``), ``r = 1``."""
    return {"experiment": experiment, "d": d, "n": n, "symbol": symbol,
            "p": [float(d)] * d, "r": 1.0, **extra}


WORKLOADS: dict[str, list[Op]] = {
    "separable": [
        Op("boundedness_s", "boundedness-scan", check_separable,
           _scan_config("boundedness", 2, 32, "det_norm:1",
                        strategy="separable", family=1, t_max=3)),
    ],
    "direct": [
        Op("boundedness_s", "boundedness-scan", check_boundedness,
           _scan_config("boundedness", 2, 32, "det_norm:1", family=4, t_max=3)),
    ],
    "estimates": [
        Op("jacobian_s", "jacobian-estimate",
           functools.partial(check_estimate, experiment="jacobian"),
           _scan_config("jacobian", 2, 128, "det", t_max=5)),
        Op("hessian_s", "hessian-estimate",
           functools.partial(check_estimate, experiment="hessian"),
           # no cutoff: with the CLI's default cutoff 2 the scan's own sweep
           # verdict fails on some seeds (README.md, "Hessian cutoff")
           _scan_config("hessian", 3, 16, "det", cutoff=None, t_max=5)),
        Op("identities_s", "verify-identities", check_identities,
           flags=("--instances", "20")),
    ],
}

# Held out of the workloads because it fails its oracle on every seed: the
# scan's test function is full band, and ``spectral_derivative`` zeroes its
# Nyquist row while the direct pairing keeps it (see README.md).  The
# self-test runs it at a tiny size and expects that failure, so it shows
# when ``mlab`` is fixed and the command can join the ``direct`` workload.
THM3 = Op("thm3_s", "thm3-scan", check_transfer,
          _scan_config("thm3", 2, 32, "det", k=2, family=2, t_max=3))
