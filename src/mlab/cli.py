"""Command line entry points.

Exit codes: 0 pass, 1 usage or input error, 2 threshold failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .decomp import separable_expand
from .determinants import run_identity_suite
from .errors import MlabError, SchemaValidationError
from .harness import (
    ExperimentConfig,
    boundedness_scan,
    hessian_estimate,
    jacobian_estimate,
    thm3_estimate_ratio,
    write_records,
)
from .operators import enumeration_budget
from .schemas import validate_config, validate_record
from .symbols import resolve_symbol

__all__ = ["run_cli", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage problems instead of exiting with code 2."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The CLI's parser, built on first use and shared by every later
    ``run_cli`` call in the process; parsing does not change it."""
    parser = _Parser(prog="mlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ident = sub.add_parser("verify-identities", help="run the symbolic identity suite")
    ident.add_argument("--instances", type=int, default=20)
    ident.add_argument("--seed", type=int, default=0)
    ident.add_argument("--out", default=None, help="also write the JSON array here")

    def scan_flags(p: _Parser) -> None:
        p.add_argument("--config", default=None, help="ExperimentConfig JSON file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--grid", default=None, help="DxN, e.g. 2x16")
        p.add_argument("--symbol", default=None)
        p.add_argument("--family", type=int, default=None)
        p.add_argument("--t-min", dest="t_min", type=int, default=None)
        p.add_argument("--t-max", dest="t_max", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--strategy", choices=("direct", "separable"), default=None)
        p.add_argument("--out", default=None, help="output directory")

    for name in ("boundedness-scan", "thm3-scan", "jacobian-estimate", "hessian-estimate"):
        scan_flags(sub.add_parser(name, help=f"run {name.replace('-', ' ')}"))

    dec = sub.add_parser("decompose-symbol", help="build a separable expansion and print it")
    dec.add_argument("--symbol", required=True)
    dec.add_argument("--d", type=int, default=2)

    rep = sub.add_parser("report", help="summarize a records.jsonl file")
    rep.add_argument("--records", required=True)

    return parser


_DEFAULTS = {
    "boundedness-scan": dict(experiment="boundedness", d=2, n=16, symbol="det_norm:1"),
    "thm3-scan": dict(experiment="thm3", d=2, n=16, symbol="det", k=1),
    "jacobian-estimate": dict(experiment="jacobian", d=2, n=16, symbol="det"),
    "hessian-estimate": dict(
        experiment="hessian", d=3, n=8, symbol="det", cutoff=2.0
    ),
}


def _load_config(args: argparse.Namespace, command: str) -> ExperimentConfig:
    try:
        return ExperimentConfig(**_config_payload(args, command))
    except SchemaValidationError as exc:
        raise _UsageError(
            f"config does not match schema at {exc.json_path}: {exc.message}"
        ) from exc


def _config_payload(args: argparse.Namespace, command: str) -> dict:
    """The command's defaults, then the config file, which must match the
    schema and the command's experiment, then the flags."""
    payload = dict(_DEFAULTS[command])
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise _UsageError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise _UsageError(f"malformed config JSON: {exc}") from exc
        validate_config(loaded)
        if loaded["experiment"] != payload["experiment"]:
            raise _UsageError(
                f"config experiment {loaded['experiment']!r} does not match "
                f"{command}, which runs {payload['experiment']!r}"
            )
        payload.update(loaded)

    if args.grid is not None:
        try:
            d_str, n_str = args.grid.lower().split("x")
            payload["d"], payload["n"] = int(d_str), int(n_str)
        except ValueError as exc:
            raise _UsageError(f"bad --grid {args.grid!r}, expected DxN") from exc
    for flag in ("symbol", "seed", "family", "t_min", "t_max", "k", "strategy", "out"):
        if getattr(args, flag) is not None:
            payload["out_dir" if flag == "out" else flag] = getattr(args, flag)

    if "p" not in payload:
        # m = d slots at p_j = d, so 1/r = 1; for d = 1, p_1 = r = 2 (p_1 > 1).
        # A d < 1 gets p = (2.0,) too, so the schema names $.d, not an empty p.
        d = payload["d"]
        payload["p"], payload["r"] = ((float(d),) * d, 1.0) if d >= 2 else ((2.0,), 2.0)
    return payload


def _refuse_unwritable(path: Path) -> None:
    """Raise the ``OSError`` that writing the file ``path`` would raise after
    the work, if its nearest existing component has the wrong kind: ``path``
    itself a directory, or an ancestor a file.  Creates nothing."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing == path and path.is_dir():
        raise IsADirectoryError(f"Is a directory: '{path}'")
    if existing != path and not existing.is_dir():
        raise NotADirectoryError(f"Not a directory: '{existing}'")


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    if args.out:
        _refuse_unwritable(Path(args.out))
    reports = run_identity_suite(instances=args.instances, seed=args.seed)
    payload = [r.to_dict() for r in reports]
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if all(r.passed for r in reports) else 2


_SCANS = {
    "boundedness-scan": boundedness_scan,
    "thm3-scan": thm3_estimate_ratio,
    "jacobian-estimate": jacobian_estimate,
    "hessian-estimate": hessian_estimate,
}


def _cmd_scan(args: argparse.Namespace, command: str) -> int:
    cfg = _load_config(args, command)
    path = (Path(cfg.out_dir) if cfg.out_dir else Path("out")) / cfg.experiment / "records.jsonl"
    _refuse_unwritable(path)
    enumeration_budget()
    record = _SCANS[command](cfg)
    write_records(path, [record])
    print(
        f"{record.experiment} kind={record.kind} "
        f"max={record.max_ratio:.6g} min={record.min_ratio:.6g} "
        f"passed={record.passed} -> {path.parent}"
    )
    return 0 if record.passed else 2


def _cmd_decompose(args: argparse.Namespace) -> int:
    sym = resolve_symbol(args.symbol, args.d)
    exp = separable_expand(sym)
    payload = {
        "symbol": sym.name,
        "m": exp.m,
        "d": exp.d,
        "rank": exp.rank,
        "n_angular": exp.grid.n_points,
        "residual": exp.residual,
        "coefficient_moduli": [abs(c) for c in exp.coeffs],
        "spectrum": list(exp.spectrum),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.records)
    if not path.exists():
        raise _UsageError(f"records file not found: {path}")
    lines = [(number, line) for number, line in
             enumerate(path.read_text().splitlines(), start=1) if line.strip()]
    if not lines:
        raise _UsageError(f"no records in {path}")
    all_pass = True
    for number, line in lines:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"malformed record JSON on line {number}: {exc}") from exc
        try:
            validate_record(payload)
        except SchemaValidationError as exc:
            raise _UsageError(
                f"record does not match schema at {exc.json_path}: {exc.message}"
            ) from exc
        all_pass = all_pass and payload["passed"]
        print(
            f"{payload['experiment']:<20} {payload['kind']:<12} "
            f"max={payload['max_ratio']:.6g} min={payload['min_ratio']:.6g} "
            f"passed={payload['passed']}{_step_notes(payload)}"
        )
    return 0 if all_pass else 2


def _step_notes(payload: dict) -> str:
    """Report suffix naming the sweep steps at which no determinant mode
    met the test function's band, so the ratio there checks nothing, and
    the steps whose row the degree-zero dilation identity repeated from
    ``t_min`` instead of running the operator (those not in ``applied_t``)."""
    out = ""
    extra = payload.get("extra", {})
    sweeps = {
        "vacuous_t": payload["sweep"],
        "vacuous_difference_t": extra.get("difference_sweep", []),
    }
    for label, rows in sweeps.items():
        steps = [
            str(row["t"]) for row in rows
            if "active_modes" in row and not any(row["active_modes"])
        ]
        if steps:
            out += f" {label}={','.join(steps)}"
    if "applied_t" in extra:
        steps = [str(row["t"]) for row in payload["sweep"]
                 if row["t"] not in extra["applied_t"]]
        if steps:
            out += f" identity_t={','.join(steps)}"
    return out


def run_cli(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  Bad input is the one path
    to code 1: a usage error here, a ``ValueError``, ``NotImplementedError``
    or ``MlabError`` from the library, or an ``OSError`` from a path that
    cannot be read or written, prints ``error: <message>``; the commands
    catch none of these."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify-identities":
            return _cmd_verify_identities(args)
        if args.command in _SCANS:
            return _cmd_scan(args, args.command)
        if args.command == "decompose-symbol":
            return _cmd_decompose(args)
        if args.command == "report":
            return _cmd_report(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except (_UsageError, MlabError, ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
