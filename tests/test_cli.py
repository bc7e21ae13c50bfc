"""Command line behavior: exit codes, output layout, config loading."""

import csv
import json

import pytest

from mlab import validate_record
from mlab.cli import run_cli


class TestVerifyIdentities:
    def test_filtered_dims_pass(self, capsys, tmp_path):
        out = tmp_path / "suite.json"
        code = run_cli([
            "verify-identities", "--dims", "2", "--instances", "2",
            "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload and all(r["passed"] for r in payload)
        assert {r["d"] for r in payload} == {2}
        assert json.loads(out.read_text()) == payload

    def test_bad_dims_flag(self, capsys):
        code = run_cli(["verify-identities", "--dims", "two"])
        assert code == 1
        assert "bad --dims" in capsys.readouterr().err


class TestScanCommands:
    def test_boundedness_writes_layout(self, capsys, tmp_path):
        code = run_cli([
            "boundedness-scan", "--symbol", "det_norm:1", "--grid", "2x16",
            "--family", "2", "--t-max", "1", "--seed", "2",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out_dir = tmp_path / "boundedness"
        records = (out_dir / "records.jsonl").read_text().strip().splitlines()
        assert len(records) == 1
        validate_record(json.loads(records[0]))
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2
        assert "passed=True" in capsys.readouterr().out

    def test_oscillating_symbol_fails_threshold(self, tmp_path):
        # det^2 grows like 2^(2 d t) along the sweep, far beyond the
        # allowed factor, so the scan must report a threshold failure.
        code = run_cli([
            "boundedness-scan", "--symbol", "det_pow:2", "--grid", "2x8",
            "--family", "1", "--t-max", "1", "--out", str(tmp_path),
        ])
        assert code == 2
        line = (tmp_path / "boundedness" / "records.jsonl").read_text()
        assert json.loads(line)["passed"] is False

    def test_thm3_scan_quick(self, tmp_path):
        code = run_cli([
            "thm3-scan", "--k", "1", "--grid", "2x8", "--family", "2",
            "--t-max", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "thm3" / "records.jsonl").exists()

    def test_jacobian_estimate_quick(self, tmp_path):
        code = run_cli([
            "jacobian-estimate", "--grid", "2x8", "--family", "1",
            "--t-max", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        rec = json.loads(
            (tmp_path / "jacobian" / "records.jsonl").read_text()
        )
        assert rec["kind"] == "jacobian"
        assert rec["extra"]["u_equals_v_numerator"] == 0.0

    def test_unknown_symbol(self, capsys, tmp_path):
        code = run_cli([
            "boundedness-scan", "--symbol", "mystery:3", "--grid", "2x8",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_grid_flag(self, capsys):
        code = run_cli(["boundedness-scan", "--grid", "16"])
        assert code == 1
        assert "expected DxN" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        code = run_cli(["boundedness-scan", "--config", "missing.json"])
        assert code == 1
        assert "config file not found" in capsys.readouterr().err

    def test_malformed_config_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(["boundedness-scan", "--config", str(bad)])
        assert code == 1
        assert "malformed config JSON" in capsys.readouterr().err

    def test_config_schema_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "x", "bogus": 1}))
        code = run_cli(["boundedness-scan", "--config", str(bad)])
        assert code == 1
        assert "does not match schema" in capsys.readouterr().err

    def test_config_file_drives_scan(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": "custom-scan",
            "d": 2, "n": 8,
            "symbol": "det_norm:1",
            "p": [2.0, 2.0], "r": 1.0,
            "family": 1, "t_min": 0, "t_max": 1,
            "cutoff": 2.0,
        }))
        code = run_cli([
            "boundedness-scan", "--config", str(cfgfile), "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "custom-scan" / "records.jsonl").exists()

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_malformed_budget_exits_one(self, capsys, monkeypatch, tmp_path, raw):
        monkeypatch.setenv("MLAB_BUDGET", raw)
        code = run_cli([
            "boundedness-scan", "--grid", "2x8", "--strategy", "separable",
            "--t-max", "0", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "MLAB_BUDGET" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        code = run_cli(["frobnicate"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["jacobian-estimate", "--strategy", "separable"], "direct strategy"),
            (["jacobian-estimate", "--symbol", "riesz_product:1,2"], "symbol 'det'"),
            (["hessian-estimate", "--strategy", "separable"], "direct strategy"),
            (["hessian-estimate", "--symbol", "det_norm:1"], "symbol 'det'"),
            (["thm3-scan", "--strategy", "separable"], "direct strategy"),
        ],
        ids=["jacobian-strategy", "jacobian-symbol", "hessian-strategy",
             "hessian-symbol", "thm3-strategy"],
    )
    def test_ignored_field_exits_one(self, capsys, tmp_path, argv, message):
        code = run_cli([*argv, "--family", "1", "--t-max", "0", "--out", str(tmp_path)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_thm3_smoothness_mismatch_exits_one(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": "thm3", "d": 2, "n": 8, "symbol": "det",
            "p": [2.0, 2.0], "r": 1.0, "k": 1, "s": 0.25, "family": 1,
        }))
        code = run_cli(["thm3-scan", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 1
        assert "k(m-1)/m = 0.5" in capsys.readouterr().err

    def _quasi_banach_config(self, tmp_path, experiment: str):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": experiment, "d": 2, "n": 8, "symbol": "det_norm:1",
            "p": [1.5, 1.5], "r": 0.75, "family": 1, "t_max": 1,
        }))
        return str(cfgfile)

    def test_quasi_banach_output_exponent_runs(self, tmp_path):
        cfg = self._quasi_banach_config(tmp_path, "boundedness")
        code = run_cli(["boundedness-scan", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rec = json.loads((tmp_path / "boundedness" / "records.jsonl").read_text())
        assert rec["passed"] and rec["max_ratio"] > 0.0

    def test_thm3_scan_needs_banach_output_exponent(self, capsys, tmp_path):
        cfg = self._quasi_banach_config(tmp_path, "thm3")
        code = run_cli([
            "thm3-scan", "--config", cfg, "--symbol", "det", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "r >= 1" in capsys.readouterr().err


class TestDecompose:
    def test_json_and_files(self, capsys, tmp_path):
        prefix = tmp_path / "expansion"
        code = run_cli([
            "decompose-symbol", "--symbol", "det_norm:1", "--d", "2",
            "--rank", "8", "--out", str(prefix),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symbol"] == "norm[det,1.0]"
        assert payload["rank"] == 8
        assert len(payload["coefficient_moduli"]) == 8
        assert prefix.with_suffix(".json").exists()
        assert prefix.with_suffix(".bin").exists()

    def test_unknown_symbol(self, capsys):
        code = run_cli(["decompose-symbol", "--symbol", "nope"])
        assert code == 1

    def test_radial_flag_removed(self, capsys):
        code = run_cli(["decompose-symbol", "--symbol", "det_norm:1", "--radial", "16"])
        assert code == 1
        assert "--radial" in capsys.readouterr().err


class TestReport:
    def _records(self, tmp_path):
        run_cli([
            "boundedness-scan", "--symbol", "det_norm:1", "--grid", "2x8",
            "--family", "1", "--t-max", "1", "--seed", "9",
            "--out", str(tmp_path),
        ])
        return tmp_path / "boundedness" / "records.jsonl"

    def test_all_passing(self, capsys, tmp_path):
        path = self._records(tmp_path)
        capsys.readouterr()
        assert run_cli(["report", "--records", str(path)]) == 0
        assert "passed=True" in capsys.readouterr().out

    def test_failing_record_gives_two(self, tmp_path):
        path = self._records(tmp_path)
        payload = json.loads(path.read_text().strip())
        payload["passed"] = False
        path.write_text(json.dumps(payload) + "\n")
        assert run_cli(["report", "--records", str(path)]) == 2

    def test_schema_violation_gives_one(self, capsys, tmp_path):
        path = self._records(tmp_path)
        payload = json.loads(path.read_text().strip())
        payload.pop("kind")
        path.write_text(json.dumps(payload) + "\n")
        assert run_cli(["report", "--records", str(path)]) == 1
        assert "does not match schema" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_cli(["report", "--records", "absent.jsonl"]) == 1
