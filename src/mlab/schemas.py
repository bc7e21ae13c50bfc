"""JSON schemas for experiment configs and report records.

The schema files shipped under ``schema/`` are generated from these dicts;
a test pins file and dict together so they cannot drift.
"""

from __future__ import annotations

import json
from pathlib import Path

from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

__all__ = [
    "CONFIG_SCHEMA",
    "RECORD_SCHEMA",
    "validate_config",
    "validate_record",
    "write_schema_files",
]

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "mlab/experiment.schema.json",
    "title": "ExperimentConfig",
    "type": "object",
    "properties": {
        "experiment": {"type": "string", "minLength": 1},
        "d": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 4},
        "symbol": {"type": "string", "minLength": 1},
        "p": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 1},
            "minItems": 1,
        },
        "r": {"type": "number", "exclusiveMinimum": 0},
        "k": {"type": ["integer", "null"], "minimum": 0},
        "cutoff": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "family": {"type": "integer", "minimum": 1},
        "t_min": {"type": "integer", "minimum": 0},
        "t_max": {"type": "integer", "minimum": 0},
        "strategy": {"enum": ["direct", "separable"]},
        "out_dir": {"type": ["string", "null"]},
    },
    "required": ["experiment", "d", "n", "symbol", "p", "r"],
    "additionalProperties": False,
}

_SWEEP_ROW = {
    "type": "object",
    "properties": {
        "t": {"type": "integer", "minimum": 0},
        "ratios": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "active_modes": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
    },
    "required": ["t", "ratios"],
    "additionalProperties": False,
}

RECORD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "mlab/record.schema.json",
    "title": "ReportRecord",
    "type": "object",
    "properties": {
        "config_hash": {"type": "string", "pattern": "^[0-9a-f]{16}$"},
        "experiment": {"type": "string"},
        "kind": {"enum": ["boundedness", "transfer", "jacobian", "hessian"]},
        "ratios": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "max_ratio": {"type": "number", "minimum": 0},
        "median_ratio": {"type": "number", "minimum": 0},
        "min_ratio": {"type": "number", "minimum": 0},
        "sweep": {"type": "array", "items": _SWEEP_ROW, "minItems": 1},
        "thresholds": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "passed": {"type": "boolean"},
        "runtime_seconds": {"type": "number", "minimum": 0},
        "extra": {
            "type": "object",
            "properties": {
                "det_n": {"type": "integer", "minimum": 1},
                "applied_t": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                },
            },
        },
    },
    "required": [
        "config_hash",
        "experiment",
        "kind",
        "ratios",
        "max_ratio",
        "median_ratio",
        "min_ratio",
        "sweep",
        "thresholds",
        "passed",
        "runtime_seconds",
    ],
    "additionalProperties": False,
}


def _validator(schema: dict):
    """``jsonschema.validate`` against ``schema``, raising the same error, with
    the validator built once and the constant schema not re-checked against
    its metaschema on every call (a test checks it once)."""
    validator = Draft202012Validator(schema)

    def validate(payload: dict) -> None:
        error = best_match(validator.iter_errors(payload))
        if error is not None:
            raise error

    return validate


validate_config = _validator(CONFIG_SCHEMA)
validate_record = _validator(RECORD_SCHEMA)


def write_schema_files(root: str | Path) -> list[Path]:
    """Write both schema files under ``root`` and return their paths."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    out = []
    for name, schema in (
        ("experiment.schema.json", CONFIG_SCHEMA),
        ("record.schema.json", RECORD_SCHEMA),
    ):
        path = root / name
        path.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")
        out.append(path)
    return out
