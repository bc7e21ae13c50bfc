"""JSON schemas for experiment configs and report records, and their validator.

The schema files shipped under ``schema/`` are generated from these dicts;
a test pins file and dict together so they cannot drift.

The validator applies Draft 2020-12 semantics to the keyword subset the two
schemas use: ``type``, ``enum`` (of strings), ``minimum``,
``exclusiveMinimum``, ``items``, ``minItems``, ``minLength``, ``pattern``,
``properties``, ``required`` and ``additionalProperties`` (``false`` or a
schema); ``$schema``, ``$id`` and ``title`` are annotations.  Building it
over a schema with any other keyword, or a boolean subschema, raises, so no
keyword is ignored.  A ``bool`` is neither an integer nor a number, and an
integral float such as ``2.0`` is an integer.  Of several errors it reports
the one ``jsonschema.best_match`` picks, with the same message and JSON
path.  ``tests/test_schemas.py`` checks verdict, message and path against
``jsonschema.Draft202012Validator``, which is a test dependency only.
"""

from __future__ import annotations

import json
import re
from numbers import Number
from operator import le, lt
from pathlib import Path

from .errors import SchemaValidationError

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


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, Number) and not isinstance(x, bool),
    "integer": lambda x: not isinstance(x, bool) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer()),
}
_ANNOTATIONS = frozenset({"$schema", "$id", "title"})
_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _type(value, schema):
    names = [value] if isinstance(value, str) else value
    unknown = [name for name in names if name not in _TYPES]
    if unknown:
        raise ValueError(f"unknown schema type {unknown[0]!r}")
    tests = [_TYPES[name] for name in names]
    wanted = ", ".join(repr(name) for name in names)

    def check(instance, path, errors):
        if not any(test(instance) for test in tests):
            errors.append((path, f"{instance!r} is not of type {wanted}"))

    return check


def _enum(value, schema):
    if not all(isinstance(member, str) for member in value):
        raise ValueError(f"enum members must be strings, got {value!r}")

    def check(instance, path, errors):
        if not (isinstance(instance, str) and instance in value):
            errors.append((path, f"{instance!r} is not one of {value!r}"))

    return check


def _bound(strict):
    def build(value, schema):
        relation = "less than or equal to" if strict else "less than"
        below = le if strict else lt
        is_number = _TYPES["number"]

        def check(instance, path, errors):
            if is_number(instance) and below(instance, value):
                errors.append(
                    (path, f"{instance!r} is {relation} the minimum of {value!r}"))

        return check

    return build


def _min_size(kind):
    def build(value, schema):
        is_kind = _TYPES[kind]
        short = "should be non-empty" if value == 1 else "is too short"

        def check(instance, path, errors):
            if is_kind(instance) and len(instance) < value:
                errors.append((path, f"{instance!r} {short}"))

        return check

    return build


def _pattern(value, schema):
    search = re.compile(value).search

    def check(instance, path, errors):
        if isinstance(instance, str) and not search(instance):
            errors.append((path, f"{instance!r} does not match {value!r}"))

    return check


def _items(value, schema):
    item = _compile(value)

    def check(instance, path, errors):
        if isinstance(instance, list):
            for index, element in enumerate(instance):
                item(element, (*path, index), errors)

    return check


def _properties(value, schema):
    children = [(name, _compile(sub)) for name, sub in value.items()]

    def check(instance, path, errors):
        if isinstance(instance, dict):
            for name, child in children:
                if name in instance:
                    child(instance[name], (*path, name), errors)

    return check


def _required(value, schema):
    def check(instance, path, errors):
        if isinstance(instance, dict):
            for name in value:
                if name not in instance:
                    errors.append((path, f"{name!r} is a required property"))

    return check


def _additional_properties(value, schema):
    known = schema.get("properties", {})
    if value is False:
        def check(instance, path, errors):
            if isinstance(instance, dict):
                extras = sorted((key for key in instance if key not in known), key=str)
                if extras:
                    listed = ", ".join(repr(key) for key in extras)
                    verb = "was" if len(extras) == 1 else "were"
                    errors.append((path, "Additional properties are not allowed "
                                         f"({listed} {verb} unexpected)"))

        return check
    extra = _compile(value)

    def check(instance, path, errors):
        if isinstance(instance, dict):
            for key in instance:
                if key not in known:
                    extra(instance[key], (*path, key), errors)

    return check


_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "minimum": _bound(strict=False),
    "exclusiveMinimum": _bound(strict=True),
    "items": _items,
    "minItems": _min_size("array"),
    "minLength": _min_size("string"),
    "pattern": _pattern,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
}


def _compile(schema: dict):
    """``check(instance, path, errors)`` for one schema node: it appends
    ``(path, message)`` per failed keyword, in schema order."""
    if not isinstance(schema, dict):
        raise ValueError(f"a schema must be an object, got {schema!r}")
    unsupported = sorted(set(schema) - _KEYWORDS.keys() - _ANNOTATIONS)
    if unsupported:
        raise ValueError(f"unsupported schema keyword {unsupported[0]!r}")
    keywords = [_KEYWORDS[key](value, schema)
                for key, value in schema.items() if key in _KEYWORDS]

    def check(instance, path, errors):
        for keyword in keywords:
            keyword(instance, path, errors)

    return check


def _json_path(path: tuple) -> str:
    out = "$"
    for key in path:
        if isinstance(key, int):
            out += f"[{key}]"
        elif _PLAIN_KEY.match(key):
            out += "." + key
        else:
            out += "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return out


def _relevance(error: tuple) -> tuple:
    # jsonschema's ``relevance``: the shallowest path, then the greatest path.
    # Its last key, whether the instance matches the failing node's ``type``,
    # never splits two errors here: without ``allOf``, ``anyOf`` or ``$ref``
    # one node checks each path.  ``max`` keeps the first of equals (schema
    # order), as ``best_match`` does.
    path, _ = error
    return -len(path), path


def _validator(schema: dict):
    """A validator of ``schema``, compiled once: it raises
    ``SchemaValidationError`` with the most relevant error, if any."""
    check = _compile(schema)

    def validate(payload) -> None:
        errors = []
        check(payload, (), errors)
        if errors:
            path, message = max(errors, key=_relevance)
            raise SchemaValidationError(message, _json_path(path))

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
