"""Self-test of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare()

import mlab.cli  # noqa: E402
import mlab.harness  # noqa: E402
import mlab.operators  # noqa: E402
import pytest  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import THM3, WORKLOADS, Capture  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str, **changes):
    """The workload's operations with smaller grids, families and sweeps."""
    ops = []
    for op in WORKLOADS[name]:
        if op.config is None:
            ops.append(replace(op, flags=("--instances", "1")))
        else:
            ops.append(replace(op, config={**op.config, **changes.get(op.metric, {})}))
    return ops


SEPARABLE = _tiny("separable", boundedness_s=dict(
    d=1, n=16, symbol="riesz_product:1,1", p=[2.0, 2.0], t_max=1))
ESTIMATES = _tiny("estimates", jacobian_s=dict(n=16, t_max=1),
                  hessian_s=dict(n=8, t_max=1))


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_reported_with_its_unit(trace, section):
    out = run.run_workload("estimates", 1, 0.0, trace, ops=ESTIMATES)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in out["result"]["metrics"].items()}
    assert got == want
    assert out["result"]["correct"] and out["result"]["failed"] == 0
    report = "\n".join(out["lines"])
    for name in (op.metric for op in ESTIMATES) if not trace else want:
        assert name in report


def test_command_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "estimates",
         "--seconds", "0", "--seed", "5"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_sources_the_command_fails_without_a_result():
    bare = Path(run.ROOT / ".perfbench-selftest")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "separable"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_spans_cover_calls_made_inside_mlab():
    capture = Capture().install()
    tracer = Tracer()
    work = Path(run.ROOT / ".perfbench-selftest")
    work.mkdir(exist_ok=True)
    try:
        wall, outcome = run.run_op(SEPARABLE[0], 3, work, capture, tracer)
    finally:
        capture.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    assert outcome.failures == []
    # operators.dft_inverse is grid.dft_inverse imported by name
    assert tracer.edges[("operators.apply_separable", "grid.dft_inverse")] > 0
    # the scan is reached through the cli._SCANS table
    assert tracer.edges[("cli.run_cli", "harness.boundedness_scan")] == 1
    assert sum(tracer.self_time.values()) == pytest.approx(wall, rel=0.05)
    # every binding is restored
    assert mlab.cli._SCANS["boundedness-scan"] is mlab.harness.boundedness_scan
    assert not hasattr(mlab.operators.dft_inverse, "__wrapped__")


def test_planted_oracle_mismatch_is_counted(monkeypatch):
    exact = mlab.operators.apply_separable

    def off_by_a_little(op, fields):
        out = exact(op, fields)
        return type(out)(out.grid, out.samples * (1.0 + 1e-3))

    monkeypatch.setattr(mlab.operators, "apply_separable", off_by_a_little)
    out = run.run_workload("separable", 2, 0.0, False, ops=SEPARABLE)
    assert out["result"]["attempted"] == 1
    assert out["result"]["failed"] == 1
    assert not out["result"]["correct"]
    assert "failed_frac 1 (1 failed / 1 attempted)" in out["lines"][0]


def _failures(op, seed: int) -> list[str]:
    capture = Capture().install()
    work = Path(run.ROOT / ".perfbench-selftest")
    work.mkdir(exist_ok=True)
    try:
        _, outcome = run.run_op(op, seed, work, capture)
    finally:
        capture.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return outcome.failures


# The two strict expected failures below are why the workloads leave out
# thm3-scan and the hessian cutoff; each starts to fail once mlab is fixed.


@pytest.mark.xfail(strict=True, reason="thm3-scan's test function has Nyquist modes "
                   "that spectral_derivative zeroes and the direct pairing keeps")
def test_thm3_scan_passes_its_transfer_oracle():
    op = replace(THM3, config={**THM3.config, "n": 8, "family": 1, "t_max": 0})
    assert _failures(op, 4) == []


@pytest.mark.xfail(strict=True, reason="with cutoff 2 the hessian sweep verdict fails "
                   "on some seeds: rise 5.2 over the factor 4 on seed 4")
def test_hessian_default_cutoff_passes_its_verdict():
    hessian = next(op for op in WORKLOADS["estimates"] if op.metric == "hessian_s")
    op = replace(hessian, config={**hessian.config, "n": 8, "cutoff": 2.0})
    assert _failures(op, 4) == []
