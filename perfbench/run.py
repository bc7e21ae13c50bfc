"""Benchmark of the ``mlab`` CLI scans: closed-loop workloads, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload separable|direct|estimates|all \\
        [--seed N] [--seconds S] [--trace 0|1]

One client runs the workload's CLI commands in order, one at a time, in this
process, round after round, while another whole round still fits in
``--seconds``.  Each command gets a fresh output directory inside the
checkout and is checked by its oracle after it returns, outside its timed
window.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.  Exit code 0 when every check passed, 1 when any failed, 2 when
the benchmark could not run.

``mlab`` is imported from ``src/`` of the checkout this file sits in, never
from an installed copy.  Before ``numpy`` is imported, ``MLAB_BUDGET`` is
removed and BLAS is pinned to ``BLAS_THREADS`` threads (at most the CPUs
this process may use).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

# numpy, mlab and the modules beside this file are imported inside the
# functions below, after prepare() has pinned the environment.
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("separable", "direct", "estimates")
# One BLAS thread: on a 2-vCPU host shared with other tenants, separable rounds
# spread 14 % across five seeds on two threads and 1.5 % on one.
BLAS_THREADS = 1
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> int:
    """Isolate the environment and put the checkout's ``src`` first on the path.

    Returns the BLAS thread count.  Must run before ``numpy`` is imported.
    """
    if not (ROOT / "src" / "mlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mlab sources under {ROOT / 'src'}")
    os.environ.pop("MLAB_BUDGET", None)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import mlab

    if ROOT / "src" not in Path(mlab.__file__).resolve().parents:
        raise ImportError(f"mlab imported from {mlab.__file__}, not from {ROOT / 'src'}")
    return threads


def run_op(op, seed: int, work: Path, capture, tracer=None):
    """One CLI command: fresh output directory, timed call, untimed checks."""
    import mlab.cli  # looked up per call, so a traced run_cli is the root span
    from workloads import Outcome

    out_dir = Path(tempfile.mkdtemp(dir=work))
    argv = op.argv(seed, out_dir)
    capture.calls.clear()
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            code = mlab.cli.run_cli(argv)
    except Exception:  # the loop must go on; the operation counts as failed
        traceback.print_exc()
        code = -1
    finally:
        wall = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    outcome = Outcome(code, out_dir, dict(capture.calls))
    capture.calls.clear()
    try:
        op.check(outcome)
    except Exception as exc:  # a check that cannot run is a failed check
        traceback.print_exc()
        outcome.failures.append(f"check raised {exc!r}")
    shutil.rmtree(out_dir)
    return wall, outcome


def measure(ops, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Closed loop over rounds of ``ops``; traced rounds alternate with untraced."""
    from layertrace import Tracer
    from workloads import Capture

    capture = Capture().install()
    tracer = Tracer() if trace else None
    samples: dict[str, list[float]] = {op.metric: [] for op in ops}
    rounds: dict[bool, list[float]] = {False: [], True: []}
    failures: list[str] = []
    rel_errors: dict[str, float] = {}
    attempted = failed = 0
    started = perf_counter()
    try:
        while True:
            traced = trace and len(rounds[False]) > len(rounds[True])
            round_start = perf_counter()
            round_wall = 0.0
            for op in ops:
                wall, outcome = run_op(op, seed, work, capture,
                                       tracer if traced else None)
                attempted += 1
                failed += bool(outcome.failures)
                round_wall += wall
                if not traced:
                    samples[op.metric].append(wall)
                failures += [f"{op.command}: {msg}" for msg in outcome.failures]
                for key, err in outcome.rel_errors.items():
                    rel_errors[key] = max(rel_errors.get(key, 0.0), err)
            rounds[traced].append(round_wall)
            cost = perf_counter() - round_start
            enough = len(rounds[False]) >= 1 and (not trace or len(rounds[True]) >= 1)
            if enough and perf_counter() - started + cost > seconds:
                break
    finally:
        capture.uninstall()
    return {"samples": samples, "rounds": rounds, "failures": failures,
            "rel_errors": rel_errors, "attempted": attempted, "failed": failed,
            "tracer": tracer}


def measure_setup(ops, seed: int, work: Path) -> list[float]:
    """Wall seconds of fresh interpreters that import mlab and load the configs."""
    configs = []
    for i, op in enumerate(ops):
        if op.config is not None:
            path = work / f"setup-{i}.json"
            path.write_text(json.dumps({**op.config, "seed": seed}))
            configs.append(str(path))
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), *configs]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run fills the bytecode cache
        start = perf_counter()
        subprocess.run(argv, check=True, timeout=120)
        if i:
            times.append(perf_counter() - start)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, ops=None) -> dict:
    """Run one workload; return the contract's result object plus report lines."""
    from layertrace import PER_LAYER, layer_metrics
    from workloads import WORKLOADS

    ops = WORKLOADS[name] if ops is None else ops
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup = [] if trace else measure_setup(ops, seed, work)
        res = measure(ops, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = res["failed"]
    lines = [f"workload {name}: seed {seed}, {res['attempted']} operations, "
             f"failed_frac {failed / res['attempted']:.4g} "
             f"({failed} failed / {res['attempted']} attempted)"]
    lines += [f"  FAIL {msg}" for msg in res["failures"]]
    if trace:
        plain, traced = res["rounds"][False], res["rounds"][True]
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        values = layer_metrics(res["tracer"], len(traced), sum(traced), overhead,
                               res["rel_errors"])
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
        lines += [f"  {k:<34} {v:>14.6g} {PER_LAYER[k]}" for k, v in values.items()]
    else:
        rounds = res["rounds"][False]
        metrics = {
            "round_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        for metric, walls in res["samples"].items():
            lines.append(f"  {metric:<14} median {statistics.median(walls):.4f} s"
                         f"  (n={len(walls)}: {' '.join(f'{w:.3f}' for w in walls)})")
        lines.append(f"  {'round_s':<14} median {metrics['round_s']['value']:.4f} s"
                     f"  (n={len(rounds)}: {' '.join(f'{w:.3f}' for w in rounds)})")
        lines.append(f"  {'setup_s':<14} median {metrics['setup_s']['value']:.4f} s"
                     f"  (n={len(setup)})")
        lines.append(f"  {'peak_rss_mb':<14} {metrics['peak_rss_mb']['value']:.1f} MB")
    result = {"correct": failed == 0, "attempted": res["attempted"],
              "failed": failed, "metrics": metrics}
    return {"result": result, "lines": lines}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        if not out or not out[-1].startswith("{"):
            combined["correct"] = False
            continue
        res = json.loads(out[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        threads = prepare()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"machine: nproc {os.cpu_count()}, BLAS {blas['name']} {blas['version']} "
          f"on {threads} threads, numpy {numpy.__version__}, "
          f"python {sys.version.split()[0]}")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
