"""Command line entry points.

Exit codes: 0 pass, 1 usage or input error, 2 threshold failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import jsonschema

from .decomp import save_expansion, separable_expand
from .determinants import run_identity_suite
from .errors import MlabError
from .harness import (
    ExperimentConfig,
    ReportRecord,
    boundedness_scan,
    hessian_estimate,
    jacobian_estimate,
    thm3_estimate_ratio,
    write_records,
    write_summary_csv,
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ident = sub.add_parser("verify-identities", help="run the symbolic identity suite")
    ident.add_argument("--dims", default=None, help="comma list, e.g. 2,3")
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

    dec = sub.add_parser("decompose-symbol", help="build and save a separable expansion")
    dec.add_argument("--symbol", required=True)
    dec.add_argument("--d", type=int, default=2)
    dec.add_argument("--rank", type=int, default=32)
    dec.add_argument("--angular", type=int, default=64)
    dec.add_argument("--out", default=None, help="file prefix for the saved expansion")

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
    payload = dict(_DEFAULTS[command])
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise _UsageError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise _UsageError(f"malformed config JSON: {exc}") from exc
        try:
            validate_config(loaded)
        except jsonschema.ValidationError as exc:
            raise _UsageError(f"config does not match schema: {exc.message}") from exc
        payload.update(loaded)

    if args.grid is not None:
        try:
            d_str, n_str = args.grid.lower().split("x")
            payload["d"], payload["n"] = int(d_str), int(n_str)
        except ValueError as exc:
            raise _UsageError(f"bad --grid {args.grid!r}, expected DxN") from exc
    if args.symbol is not None:
        payload["symbol"] = args.symbol
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.family is not None:
        payload["family"] = args.family
    if args.t_min is not None:
        payload["t_min"] = args.t_min
    if args.t_max is not None:
        payload["t_max"] = args.t_max
    if args.k is not None:
        payload["k"] = args.k
    if args.strategy is not None:
        payload["strategy"] = args.strategy
    if args.out is not None:
        payload["out_dir"] = args.out

    if "p" not in payload:
        # m = d slots at p_j = d, so 1/r = 1.
        payload["p"], payload["r"] = (float(payload["d"]),) * payload["d"], 1.0
    if isinstance(payload.get("p"), list):
        payload["p"] = tuple(payload["p"])
    try:
        return ExperimentConfig(**payload)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"invalid config: {exc}") from exc


def _emit_record(cfg: ExperimentConfig, record: ReportRecord) -> None:
    root = Path(cfg.out_dir) if cfg.out_dir else Path("out")
    out_dir = root / cfg.experiment
    write_records(out_dir / "records.jsonl", [record])
    write_summary_csv(out_dir / "summary.csv", record)
    print(
        f"{record.experiment} kind={record.kind} "
        f"max={record.max_ratio:.6g} min={record.min_ratio:.6g} "
        f"passed={record.passed} -> {out_dir}"
    )


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    reports = run_identity_suite(instances=args.instances, seed=args.seed)
    if args.dims is not None:
        try:
            dims = {int(x) for x in args.dims.split(",") if x.strip()}
        except ValueError as exc:
            raise _UsageError(f"bad --dims {args.dims!r}") from exc
        reports = [r for r in reports if r.d in dims]
    payload = [r.to_dict() for r in reports]
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    return 0 if all(r.passed for r in reports) else 2


_SCANS = {
    "boundedness-scan": boundedness_scan,
    "thm3-scan": thm3_estimate_ratio,
    "jacobian-estimate": jacobian_estimate,
    "hessian-estimate": hessian_estimate,
}


def _cmd_scan(args: argparse.Namespace, command: str) -> int:
    cfg = _load_config(args, command)
    try:
        enumeration_budget()
        record = _SCANS[command](cfg)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _emit_record(cfg, record)
    return 0 if record.passed else 2


def _cmd_decompose(args: argparse.Namespace) -> int:
    try:
        sym = resolve_symbol(args.symbol, args.d)
        exp = separable_expand(sym, rank=args.rank, n_angular=args.angular)
    except (ValueError, NotImplementedError) as exc:
        raise _UsageError(str(exc)) from exc
    payload = {
        "symbol": exp.symbol_name,
        "m": exp.m,
        "d": exp.d,
        "rank": exp.rank,
        "residual": exp.residual,
        "coefficient_moduli": [abs(c) for c in exp.coeffs],
        "spectrum": list(exp.spectrum),
    }
    print(json.dumps(payload, indent=2))
    if args.out:
        save_expansion(exp, args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.records)
    if not path.exists():
        raise _UsageError(f"records file not found: {path}")
    all_pass = True
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        payload = json.loads(line)
        try:
            validate_record(payload)
        except jsonschema.ValidationError as exc:
            raise _UsageError(f"record does not match schema: {exc.message}") from exc
        all_pass = all_pass and payload["passed"]
        print(
            f"{payload['experiment']:<20} {payload['kind']:<12} "
            f"max={payload['max_ratio']:.6g} min={payload['min_ratio']:.6g} "
            f"passed={payload['passed']}"
        )
    return 0 if all_pass else 2


def run_cli(argv: list[str] | None = None) -> int:
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
