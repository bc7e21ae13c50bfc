"""Config and record schemas, the pinned files generated from them, and the
validator, checked against ``jsonschema`` (a test dependency) as its oracle."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

from mlab import (
    CONFIG_SCHEMA,
    RECORD_SCHEMA,
    ExperimentConfig,
    SchemaValidationError,
    boundedness_scan,
    validate_config,
    validate_record,
    write_schema_files,
)
from mlab.schemas import _validator

_ROOT = Path(__file__).resolve().parent.parent
_REPO_SCHEMA_DIR = _ROOT / "schema"
_ORACLES = {
    validate_config: jsonschema.Draft202012Validator(CONFIG_SCHEMA),
    validate_record: jsonschema.Draft202012Validator(RECORD_SCHEMA),
}


def _agrees(validate, payload):
    """Run ``validate`` on ``payload``: it must accept exactly when
    ``Draft202012Validator`` does, and refuse with the message and JSON path
    of the error ``best_match`` picks.  Returns that error, or ``None``."""
    want = best_match(_ORACLES[validate].iter_errors(payload))
    if want is None:
        validate(payload)
        return None
    with pytest.raises(SchemaValidationError) as got:
        validate(payload)
    assert (got.value.message, got.value.json_path) == (want.message, want.json_path)
    return got.value


def _refuses(validate, payload):
    assert _agrees(validate, payload) is not None


def _accepts(validate, payload):
    assert _agrees(validate, payload) is None


_FULL_CONFIG = {
    "experiment": "scan", "d": 2, "n": 16, "symbol": "det_norm:1", "p": [2.0, 2.0],
    "r": 1.0, "k": 1, "cutoff": 2.0, "seed": 3, "family": 4, "t_min": 0, "t_max": 3,
    "strategy": "separable", "out_dir": "out",
}
_FULL_RECORD = {
    "config_hash": "eaf0ef10721b6fd5", "experiment": "scan", "kind": "boundedness",
    "ratios": [0.51, 0.55], "max_ratio": 0.55, "median_ratio": 0.53, "min_ratio": 0.51,
    "sweep": [{"t": 0, "ratios": [0.51, 0.55], "active_modes": [12, 12]},
              {"t": 1, "ratios": [0.51, 0.55]}],
    "thresholds": {"per_member_max_over_min": 1.0000000001},
    "passed": True, "runtime_seconds": 0.017, "extra": {"applied_t": [0], "det_n": 16},
}


class TestShippedFiles:
    def test_files_match_source_dicts(self, tmp_path):
        write_schema_files(tmp_path)
        for name, schema in (
            ("experiment.schema.json", CONFIG_SCHEMA),
            ("record.schema.json", RECORD_SCHEMA),
        ):
            shipped = json.loads((_REPO_SCHEMA_DIR / name).read_text())
            generated = json.loads((tmp_path / name).read_text())
            assert shipped == schema
            assert generated == schema

    def test_write_returns_paths(self, tmp_path):
        paths = write_schema_files(tmp_path)
        assert [p.name for p in paths] == [
            "experiment.schema.json",
            "record.schema.json",
        ]
        assert all(p.exists() for p in paths)


class TestValidateConfig:
    def _payload(self, **kw) -> dict:
        base = {
            "experiment": "scan",
            "d": 2,
            "n": 16,
            "symbol": "det_norm:1",
            "p": [2.0, 2.0],
            "r": 1.0,
        }
        base.update(kw)
        return base

    def test_accepts_minimal(self):
        _accepts(validate_config, self._payload())

    def test_accepts_full(self):
        _accepts(validate_config, _FULL_CONFIG)

    def test_rejects_missing_required(self):
        bad = self._payload()
        del bad["symbol"]
        _refuses(validate_config, bad)

    @pytest.mark.parametrize(
        "extra",
        [dict(tolerance=1.0), dict(rank=16), dict(sweep_tolerance=4.0),
         dict(period=6.28), dict(gamma=2.0)],
        ids=["tolerance", "rank", "sweep_tolerance", "period", "gamma"],
    )
    def test_rejects_unknown_key(self, extra):
        # One torus [0, 2 pi)^d and one coefficient decay (harness.DECAY):
        # neither is a config value.
        payload = self._payload(**extra)
        _refuses(validate_config, payload)
        with pytest.raises(TypeError):
            ExperimentConfig(**payload)

    @pytest.mark.parametrize("experiment, s", [("boundedness", 0.5), ("hessian", 0.25)])
    def test_rejects_smoothness(self, experiment, s):
        # Each scan derives s itself and records it as extra.s.
        payload = self._payload(experiment=experiment, s=s)
        _refuses(validate_config, payload)
        with pytest.raises(TypeError):
            ExperimentConfig(**payload)

    def test_properties_match_config_fields(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(CONFIG_SCHEMA["properties"]) == fields

    def test_rejects_exponent_at_one(self):
        _refuses(validate_config, self._payload(p=[1.0, 2.0]))

    def test_rejects_bad_strategy(self):
        _refuses(validate_config, self._payload(strategy="fast"))

    @pytest.mark.parametrize("name", ["d", "n", "seed", "family", "t_min", "t_max", "k"])
    def test_integer_fields_follow_draft_2020_12(self, name):
        # 4.0 is an integer and True is not: the schema follows the draft,
        # and ExperimentConfig refuses the float (tests/test_harness.py).
        _accepts(validate_config, self._payload(**{name: 4.0}))
        _refuses(validate_config, self._payload(**{name: True}))
        _refuses(validate_config, self._payload(**{name: 4.5}))


class TestValidateRecord:
    def test_fresh_record_validates(self):
        cfg = ExperimentConfig(
            experiment="scan", d=2, n=8, symbol="det_norm:1", p=(2.0, 2.0),
            r=1.0, family=1, t_min=0, t_max=1, cutoff=2.0,
        )
        rec = boundedness_scan(cfg)
        _accepts(validate_record, rec.to_dict())

    def test_rejects_bad_hash(self):
        cfg = ExperimentConfig(
            experiment="scan", d=2, n=8, symbol="det_norm:1", p=(2.0, 2.0),
            r=1.0, family=1, t_min=0, t_max=1, cutoff=2.0,
        )
        payload = boundedness_scan(cfg).to_dict()
        payload["config_hash"] = "xyz"
        _refuses(validate_record, payload)

    def test_rejects_unknown_kind(self):
        cfg = ExperimentConfig(
            experiment="scan", d=2, n=8, symbol="det_norm:1", p=(2.0, 2.0),
            r=1.0, family=1, t_min=0, t_max=1, cutoff=2.0,
        )
        payload = boundedness_scan(cfg).to_dict()
        payload["kind"] = "mystery"
        _refuses(validate_record, payload)

    @pytest.mark.parametrize("det_n", [0, 16.5, "32"])
    def test_rejects_bad_determinant_grid(self, det_n):
        cfg = ExperimentConfig(
            experiment="scan", d=2, n=8, symbol="det_norm:1", p=(2.0, 2.0),
            r=1.0, family=1, t_min=0, t_max=1, cutoff=2.0,
        )
        payload = boundedness_scan(cfg).to_dict()
        payload["extra"]["det_n"] = det_n
        _refuses(validate_record, payload)

    @pytest.mark.parametrize("applied_t", [0, [-1], [1.5], ["2"]])
    def test_rejects_bad_applied_steps(self, applied_t):
        cfg = ExperimentConfig(
            experiment="scan", d=2, n=8, symbol="det_norm:1", p=(2.0, 2.0),
            r=1.0, family=1, t_min=0, t_max=1, cutoff=2.0,
        )
        payload = boundedness_scan(cfg).to_dict()
        assert payload["extra"]["applied_t"] == [0]
        payload["extra"]["applied_t"] = applied_t
        _refuses(validate_record, payload)


class TestValidators:
    """The validators are built once, from the schema subset they support,
    and refuse with jsonschema's message and path."""

    @pytest.mark.parametrize("schema", [CONFIG_SCHEMA, RECORD_SCHEMA])
    def test_schemas_pass_the_metaschema(self, schema):
        jsonschema.Draft202012Validator.check_schema(schema)
        assert jsonschema.validators.validator_for(schema) is jsonschema.Draft202012Validator

    @pytest.mark.parametrize(
        "change",
        [
            {"d": 0},
            {"p": [1.0, "x"]},
            {"strategy": "magic", "n": 2},
            {"bogus": 1},
            {"gamma": 2.0, "bogus": 1, "a b": 0},
            {"experiment": None},
        ],
    )
    def test_config_messages_match_jsonschema_validate(self, change):
        payload = {"experiment": "scan", "d": 2, "n": 16, "symbol": "det",
                   "p": [2.0, 2.0], "r": 1.0, **change}
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(payload, CONFIG_SCHEMA)
        error = _agrees(validate_config, payload)
        assert (error.message, error.json_path) == (want.value.message, want.value.json_path)

    def test_record_messages_match_jsonschema_validate(self):
        cfg = ExperimentConfig(
            experiment="scan", d=2, n=8, symbol="det_norm:1", p=(2.0, 2.0),
            r=1.0, family=1, t_min=0, t_max=0, cutoff=2.0,
        )
        record = boundedness_scan(cfg).to_dict()
        for key, value in [("kind", "mystery"), ("ratios", [-1.0]), ("passed", 1)]:
            payload = {**record, key: value}
            with pytest.raises(jsonschema.ValidationError) as want:
                jsonschema.validate(payload, RECORD_SCHEMA)
            error = _agrees(validate_record, payload)
            assert (error.message, error.json_path) == (want.value.message,
                                                        want.value.json_path)

    def test_error_is_a_value_error_that_names_its_path(self):
        with pytest.raises(ValueError, match=r"^\$\.d: 0 is less than the minimum of 1$"):
            validate_config({**_FULL_CONFIG, "d": 0})

    @pytest.mark.parametrize(
        "schema, keyword",
        [({"type": "array", "maxItems": 2}, "maxItems"),
         ({"properties": {"x": {"type": "string", "format": "date"}}}, "format"),
         ({"items": {"anyOf": [{"type": "string"}]}}, "anyOf"),
         ({"additionalProperties": {"$ref": "#"}}, "$ref")],
    )
    def test_unsupported_keyword_raises_at_build(self, schema, keyword):
        with pytest.raises(ValueError, match=re.escape(f"unsupported schema keyword {keyword!r}")):
            _validator(schema)

    @pytest.mark.parametrize(
        "schema",
        [{"type": "float"}, {"enum": ["a", 1]}, {"items": True},
         {"additionalProperties": True}],
        ids=["unknown-type", "enum-non-string", "boolean-subschema", "additional-true"],
    )
    def test_schema_outside_the_subset_raises_at_build(self, schema):
        with pytest.raises(ValueError):
            _validator(schema)

    def test_annotations_are_accepted(self):
        validate = _validator({"$schema": "x", "$id": "y", "title": "z", "type": "object"})
        validate({})
        with pytest.raises(SchemaValidationError):
            validate([])


def test_cli_import_leaves_jsonschema_out():
    # Importing jsonschema cost each command 50-80 ms of start-up, against
    # well under 1 ms of validation: the CLI must not load it.  Nor may it
    # load numpy.polynomial (about 3 ms), which the Laurent factors of a
    # separable expansion do without.
    code = ("import sys, mlab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in {'jsonschema', 'referencing'} "
            "or m.startswith('numpy.polynomial')))")
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# Keys the mutations write: the schemas' own, unknown ones, and ones that
# need a quoted JSON path.
_KEYS = sorted({*CONFIG_SCHEMA["properties"], *RECORD_SCHEMA["properties"],
                *RECORD_SCHEMA["properties"]["sweep"]["items"]["properties"],
                "det_n", "applied_t", "gamma", "bogus", "x y", "a'b", "_", "9"})
# Each bound's edges (0, 1, 4), integral floats, bools, non-finite floats,
# enum members and near-misses of the config_hash pattern.
_EDGES = [None, True, False, -1, -0.5, 0, 0.0, 0.5, 1, 1.0, 1.5, 2, 2.0, 4, 4.0, 16.0,
          float("nan"), float("inf"), float("-inf"), "", "direct", "separable",
          "hessian", "0123456789abcdef", "0123456789ABCDEF", "0123456789abcde",
          "0123456789abcdef0", "0123456789abcdef\n", "xyz", [], [2.0], [-1], [0.5, "x"],
          {}, {"t": 0}]
_SCALARS = st.one_of(
    st.sampled_from([e for e in _EDGES if not isinstance(e, (list, dict))]),
    st.integers(-3, 40),
    st.floats(),
    st.text(alphabet="0123456789abcdefg\n", max_size=17),
)
_VALUES = _SCALARS | st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _places(node, path=()):
    """The path of every value below ``node``, and of one unknown key, which
    a JSON path must quote and escape, in each of its dicts."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield (*path, key)
            yield from _places(child, (*path, key))
        if isinstance(node, dict):
            yield (*path, "it's a\\b")


def _containers(node, path=()):
    """The path of every dict and list in ``node``, ``node`` itself first."""
    if isinstance(node, (dict, list)):
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _containers(child, (*path, key))


@st.composite
def _mutated(draw, valid):
    """``valid`` after 1-3 edits: a key or index set to a drawn value, or
    removed, at any container in the payload."""
    payload = json.loads(json.dumps(valid))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_containers(payload))))
        node = payload
        for key in path:
            node = node[key]
        if isinstance(node, dict):
            own = node and draw(st.integers(0, 3))
            key = draw(st.sampled_from(sorted(node) if own else _KEYS))
            if key in node and not draw(st.integers(0, 3)):
                del node[key]
            else:
                node[key] = draw(_VALUES)
        else:
            index = draw(st.integers(0, len(node)))
            if index == len(node):
                node.append(draw(_VALUES))
            elif draw(st.booleans()):
                del node[index]
            else:
                node[index] = draw(_VALUES)
    return payload


class TestOracle:
    """Payloads mutated from valid ones (every place set to every edge value,
    and hypothesis edits), checked against ``Draft202012Validator`` and
    ``best_match``."""

    @pytest.mark.parametrize(
        "validate, valid",
        [(validate_config, _FULL_CONFIG), (validate_record, _FULL_RECORD)],
        ids=["config", "record"],
    )
    def test_every_place_against_every_edge(self, validate, valid):
        _accepts(validate, valid)
        for path in _places(valid):
            for edge in _EDGES:
                payload = json.loads(json.dumps(valid))
                node = payload
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = edge
                _agrees(validate, payload)

    @settings(max_examples=100)
    @given(_mutated(_FULL_CONFIG))
    def test_config(self, payload):
        _agrees(validate_config, payload)

    @settings(max_examples=100)
    @given(_mutated(_FULL_RECORD))
    def test_record(self, payload):
        _agrees(validate_record, payload)

    @settings(max_examples=50)
    @given(_VALUES)
    def test_any_value(self, payload):
        _agrees(validate_config, payload)
        _agrees(validate_record, payload)


_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _constructible(payload: dict) -> dict:
    """``payload`` cut to ``ExperimentConfig``'s fields, each removed
    required field restored: what the constructor takes as keywords."""
    kept = {key: value for key, value in payload.items() if key in _FIELDS}
    return {key: _FULL_CONFIG[key] for key in CONFIG_SCHEMA["required"]} | kept


def _constructor_agrees(payload: dict) -> None:
    """``ExperimentConfig(**payload)`` refuses with the schema's message and
    path whenever ``validate_config`` does, and otherwise with no schema
    error: the rules it adds (integral floats, ``1/r = sum 1/p_j``,
    ``t_min <= t_max``) are plain ``ValueError``s."""
    try:
        validate_config(payload)
    except SchemaValidationError as want:
        with pytest.raises(SchemaValidationError) as got:
            ExperimentConfig(**payload)
        assert (got.value.message, got.value.json_path) == (want.message, want.json_path)
        return
    try:
        ExperimentConfig(**payload)
    except SchemaValidationError:
        pytest.fail("the constructor refused a payload the schema accepts")
    except ValueError:
        pass


class TestConstructorAgreesWithSchema:
    """``ExperimentConfig`` checks itself against ``CONFIG_SCHEMA``: a library
    caller, a flag and a config file meet one rule set."""

    def test_every_place_against_every_edge(self):
        for path in _places(_FULL_CONFIG):
            for edge in _EDGES:
                payload = json.loads(json.dumps(_FULL_CONFIG))
                node = payload
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = edge
                _constructor_agrees(_constructible(payload))

    @settings(max_examples=200)
    @given(_mutated(_FULL_CONFIG).map(_constructible))
    def test_mutated(self, payload):
        _constructor_agrees(payload)

    @pytest.mark.parametrize(
        "change, path, message",
        [({"cutoff": "2"}, "$.cutoff", "'2' is not of type 'number', 'null'"),
         ({"p": ("2", "2")}, "$.p[1]", "'2' is not of type 'number'"),
         ({"r": "1.0"}, "$.r", "'1.0' is not of type 'number'"),
         ({"cutoff": -1.0}, "$.cutoff", "-1.0 is less than or equal to the minimum of 0"),
         ({"symbol": ""}, "$.symbol", "'' should be non-empty")],
        ids=["cutoff-string", "p-strings", "r-string", "cutoff-negative", "symbol-empty"],
    )
    def test_library_caller_meets_the_schema(self, change, path, message):
        # Each was once stored as given, converted, or refused with a bare
        # TypeError, since only config files met the schema.
        payload = dict(experiment="x", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0)
        with pytest.raises(SchemaValidationError) as got:
            ExperimentConfig(**{**payload, **change})
        assert (got.value.json_path, got.value.message) == (path, message)
