"""Config and record schemas, and the pinned files generated from them."""

import dataclasses
import json
from pathlib import Path

import jsonschema
import pytest

from mlab import (
    CONFIG_SCHEMA,
    RECORD_SCHEMA,
    ExperimentConfig,
    boundedness_scan,
    validate_config,
    validate_record,
    write_schema_files,
)

_REPO_SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schema"


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
        validate_config(self._payload())

    def test_accepts_full(self):
        validate_config(
            self._payload(
                k=1, cutoff=2.0, seed=3,
                family=4, t_min=0, t_max=3, strategy="separable", out_dir="out",
            )
        )

    def test_rejects_missing_required(self):
        bad = self._payload()
        del bad["symbol"]
        with pytest.raises(jsonschema.ValidationError):
            validate_config(bad)

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
        with pytest.raises(jsonschema.ValidationError):
            validate_config(payload)
        with pytest.raises(TypeError):
            ExperimentConfig(**payload)

    @pytest.mark.parametrize("experiment, s", [("boundedness", 0.5), ("hessian", 0.25)])
    def test_rejects_smoothness(self, experiment, s):
        # Each scan derives s itself and records it as extra.s.
        payload = self._payload(experiment=experiment, s=s)
        with pytest.raises(jsonschema.ValidationError):
            validate_config(payload)
        with pytest.raises(TypeError):
            ExperimentConfig(**payload)

    def test_properties_match_config_fields(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(CONFIG_SCHEMA["properties"]) == fields

    def test_rejects_exponent_at_one(self):
        with pytest.raises(jsonschema.ValidationError):
            validate_config(self._payload(p=[1.0, 2.0]))

    def test_rejects_bad_strategy(self):
        with pytest.raises(jsonschema.ValidationError):
            validate_config(self._payload(strategy="fast"))


class TestValidateRecord:
    def test_fresh_record_validates(self):
        cfg = ExperimentConfig(
            experiment="scan", d=2, n=8, symbol="det_norm:1", p=(2.0, 2.0),
            r=1.0, family=1, t_min=0, t_max=1, cutoff=2.0,
        )
        rec = boundedness_scan(cfg)
        validate_record(rec.to_dict())

    def test_rejects_bad_hash(self):
        cfg = ExperimentConfig(
            experiment="scan", d=2, n=8, symbol="det_norm:1", p=(2.0, 2.0),
            r=1.0, family=1, t_min=0, t_max=1, cutoff=2.0,
        )
        payload = boundedness_scan(cfg).to_dict()
        payload["config_hash"] = "xyz"
        with pytest.raises(jsonschema.ValidationError):
            validate_record(payload)

    def test_rejects_unknown_kind(self):
        cfg = ExperimentConfig(
            experiment="scan", d=2, n=8, symbol="det_norm:1", p=(2.0, 2.0),
            r=1.0, family=1, t_min=0, t_max=1, cutoff=2.0,
        )
        payload = boundedness_scan(cfg).to_dict()
        payload["kind"] = "mystery"
        with pytest.raises(jsonschema.ValidationError):
            validate_record(payload)

    @pytest.mark.parametrize("det_n", [0, 16.5, "32"])
    def test_rejects_bad_determinant_grid(self, det_n):
        cfg = ExperimentConfig(
            experiment="scan", d=2, n=8, symbol="det_norm:1", p=(2.0, 2.0),
            r=1.0, family=1, t_min=0, t_max=1, cutoff=2.0,
        )
        payload = boundedness_scan(cfg).to_dict()
        payload["extra"]["det_n"] = det_n
        with pytest.raises(jsonschema.ValidationError):
            validate_record(payload)

    @pytest.mark.parametrize("applied_t", [0, [-1], [1.5], ["2"]])
    def test_rejects_bad_applied_steps(self, applied_t):
        cfg = ExperimentConfig(
            experiment="scan", d=2, n=8, symbol="det_norm:1", p=(2.0, 2.0),
            r=1.0, family=1, t_min=0, t_max=1, cutoff=2.0,
        )
        payload = boundedness_scan(cfg).to_dict()
        assert payload["extra"]["applied_t"] == [0]
        payload["extra"]["applied_t"] = applied_t
        with pytest.raises(jsonschema.ValidationError):
            validate_record(payload)


class TestValidators:
    """The validators are built once, without a schema check per call."""

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
            {"experiment": None},
        ],
    )
    def test_config_messages_match_jsonschema_validate(self, change):
        payload = {"experiment": "scan", "d": 2, "n": 16, "symbol": "det",
                   "p": [2.0, 2.0], "r": 1.0, **change}
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(payload, CONFIG_SCHEMA)
        with pytest.raises(jsonschema.ValidationError) as got:
            validate_config(payload)
        assert str(got.value) == str(want.value)
        assert got.value.message == want.value.message

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
            with pytest.raises(jsonschema.ValidationError) as got:
                validate_record(payload)
            assert str(got.value) == str(want.value)
