"""Command line behavior: exit codes, output layout, config loading."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mlab import cli, harness, validate_record
from mlab.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]


# Integral floats pass the schema, which counts 2.0 as an integer.
_INTEGRAL_FLOATS = {"family": 2.0, "n": 16.0, "seed": 1.0, "t_min": 0.0,
                    "t_max": 1.0, "d": 2.0, "k": 1.0}


# Config fields set to NaN, which the schema accepts; keyed by file name.
_NAN_FIELDS = {"r_nan": ("r", math.nan), "p_nan": ("p", [2.0, math.nan]),
               "cutoff_nan": ("cutoff", math.nan)}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["report", "--records", "{garbage}"], "malformed record JSON on line 2"),
        (["report", "--records", "{empty}"], "no records in"),
        (["verify-identities", "--instances", "0"], "at least one instance"),
        (["verify-identities", "--instances", "-2"], "at least one instance"),
        (["boundedness-scan", "--config", "{jacobian}", "--out", "{out}"],
         "config experiment 'jacobian' does not match boundedness-scan"),
        (["boundedness-scan", "--grid", "2x8", "--symbol", "riesz_product:0,1", "--out", "{out}"],
         "riesz_product component 0 out of range 1..2"),
        (["boundedness-scan", "--grid", "2x8", "--symbol", "riesz_product:3,1", "--out", "{out}"],
         "riesz_product component 3 out of range 1..2"),
        (["boundedness-scan", "--seed", "-1", "--out", "{out}"],
         "config does not match schema at $.seed: -1 is less than the minimum of 0"),
        (["boundedness-scan", "--config", "{negative_seed}", "--out", "{out}"],
         "config does not match schema at $.seed: -1 is less than the minimum of 0"),
        (["boundedness-scan", "--grid", "0x8", "--out", "{out}"],
         "config does not match schema at $.d: 0 is less than the minimum of 1"),
        (["boundedness-scan", "--family", "0", "--out", "{out}"],
         "config does not match schema at $.family: 0 is less than the minimum of 1"),
        (["boundedness-scan", "--k", "-1", "--out", "{out}"],
         "config does not match schema at $.k: -1 is less than the minimum of 0"),
        (["boundedness-scan", "--t-min", "-1", "--out", "{out}"],
         "config does not match schema at $.t_min: -1 is less than the minimum of 0"),
        (["boundedness-scan", "--symbol", "", "--out", "{out}"],
         "config does not match schema at $.symbol: '' should be non-empty"),
        (["boundedness-scan", "--t-min", "5", "--out", "{out}"],
         "dilation range needs t_min <= t_max, got t_min=5, t_max=3"),
        (["boundedness-scan", "--symbol", "det_pow:x", "--out", "{out}"],
         "symbol 'det_pow:x' needs an integer power k, got 'x'"),
        (["boundedness-scan", "--symbol", "det_pow:1.5", "--out", "{out}"],
         "symbol 'det_pow:1.5' needs an integer power k, got '1.5'"),
        (["boundedness-scan", "--symbol", "riesz_product:a", "--out", "{out}"],
         "symbol 'riesz_product:a' needs comma-separated components, each an integer, got 'a'"),
        (["boundedness-scan", "--symbol", "det_norm:abc", "--out", "{out}"],
         "symbol 'det_norm:abc' needs a number beta, got 'abc'"),
        (["decompose-symbol", "--symbol", "det_norm:1", "--d", "0"],
         "dimension d must be >= 1, got 0"),
        (["boundedness-scan", "--config", "{gamma}", "--out", "{out}"],
         "Additional properties are not allowed ('gamma' was unexpected)"),
        *[(["boundedness-scan", "--config", f"{{{name}}}", "--out", "{out}"],
           f"{name} must be an integer, got {value!r}")
          for name, value in _INTEGRAL_FLOATS.items()],
        *[(["boundedness-scan", "--config", f"{{{name}}}", "--out", "{out}"],
           f"{field} must be a number, got NaN")
          for name, (field, _) in _NAN_FIELDS.items()],
        (["boundedness-scan", "--grid", "3x4", "--symbol", "dot_norm:1", "--out", "{out}"],
         "symbol 'dot_norm:1' takes 2 inputs, but p lists 3 exponents"),
        (["thm3-scan", "--config", "{thm3_three_p}", "--out", "{out}"],
         "symbol 'det' takes 2 inputs, but p lists 3 exponents"),
        (["verify-identities", "--instances", "1", "--out", "{dir}"], "Is a directory"),
        (["report", "--records", "{dir}"], "Is a directory"),
        (["boundedness-scan", "--config", "{dir}", "--out", "{out}"], "Is a directory"),
        (["boundedness-scan", "--grid", "2x8", "--family", "1", "--t-max", "0",
          "--out", "{garbage}"], "Not a directory"),
    ],
    ids=["report-not-json", "report-empty", "instances-0", "instances-negative",
         "experiment-of-another-command", "riesz-component-0",
         "riesz-component-above-d", "seed-negative", "config-seed-negative", "grid-d-0",
         "family-0", "k-negative", "t-min-negative", "symbol-empty", "t-min-above-t-max", "det-pow-not-integer", "det-pow-fraction",
         "riesz-component-not-integer", "det-norm-not-number", "decompose-d-0",
         "config-gamma", *[f"config-{name}-float" for name in _INTEGRAL_FLOATS],
         "config-r-nan", "config-p-nan", "config-cutoff-nan", "arity-boundedness",
         "config-arity-thm3", "identities-out-directory", "report-records-directory",
         "config-directory", "scan-out-file"],
)
def test_bad_input_exits_one(capsys, tmp_path, argv, message):
    # Each of these once crashed with a traceback, checked nothing and
    # exited 0, or named the wrong thing: experiment-of-another-command
    # wrote a boundedness record under out/jacobian, and the riesz ids
    # named the 0-based components -1 and 2.  A malformed symbol argument
    # printed a bare int() or float() conversion error, and decompose-symbol
    # --d 0 an arity error.  A config with an integral float in an integer
    # field died with a TypeError traceback.  A NaN r wrote a record of NaN
    # ratios and a NaN cutoff ran with no cutoff; a symbol of another arity
    # than p named neither.  A directory where a file belongs, or a file
    # where a directory belongs, raised out of run_cli.
    garbage, empty = tmp_path / "records.jsonl", tmp_path / "empty.jsonl"
    garbage.write_text("\n{not json\n")
    empty.write_text("")
    jacobian, out = tmp_path / "jacobian.json", tmp_path / "out"
    jacobian.write_text(json.dumps({
        "experiment": "jacobian", "d": 2, "n": 8, "symbol": "det_norm:1",
        "p": [2.0, 2.0], "r": 1.0, "family": 1, "t_max": 0,
    }))
    negative_seed = tmp_path / "negative_seed.json"
    negative_seed.write_text(json.dumps({
        "experiment": "boundedness", "d": 2, "n": 8, "symbol": "det_norm:1",
        "p": [2.0, 2.0], "r": 1.0, "seed": -1,
    }))
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({
        "experiment": "boundedness", "d": 2, "n": 8, "symbol": "det_norm:1",
        "p": [2.0, 2.0], "r": 1.0, "gamma": 3.0,
    }))
    files = {"{garbage}": str(garbage), "{empty}": str(empty),
             "{jacobian}": str(jacobian), "{negative_seed}": str(negative_seed),
             "{gamma}": str(gamma), "{out}": str(out), "{dir}": str(tmp_path)}
    for name, value in _INTEGRAL_FLOATS.items():
        path = tmp_path / f"float_{name}.json"
        path.write_text(json.dumps({
            "experiment": "boundedness", "d": 2, "n": 8, "symbol": "det_norm:1",
            "p": [2.0, 2.0], "r": 1.0, name: value,
        }))
        files[f"{{{name}}}"] = str(path)
    for name, (field, value) in _NAN_FIELDS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "experiment": "boundedness", "d": 2, "n": 8, "symbol": "det_norm:1",
            "p": [2.0, 2.0], "r": 1.0, "family": 1, "t_max": 0, field: value,
        }))
        files[f"{{{name}}}"] = str(path)
    thm3 = tmp_path / "thm3_three_p.json"
    thm3.write_text(json.dumps({
        "experiment": "thm3", "d": 2, "n": 8, "symbol": "det", "k": 1,
        "p": [3.0, 3.0, 3.0], "r": 1.0, "family": 1, "t_max": 0,
    }))
    files["{thm3_three_p}"] = str(thm3)
    argv = [files.get(a, a) for a in argv]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["boundedness-scan", "--grid", "2x8", "--out", "{file}"], "Not a directory"),
        (["jacobian-estimate", "--out", "{records_dir}"], "Is a directory"),
        (["verify-identities", "--instances", "1", "--out", "{dir}"], "Is a directory"),
        (["verify-identities", "--out", "{file}/report.json"], "Not a directory"),
    ],
    ids=["scan-out-file", "scan-records-directory",
         "identities-out-directory", "identities-out-below-file"],
)
def test_bad_output_path_refused_before_the_work(monkeypatch, capsys, tmp_path, argv,
                                                 message):
    # A bad output path once surfaced only when the record was written, after
    # the whole scan or identity suite had run.
    def entered(*args, **kwargs):
        raise AssertionError("the work ran before the output path was checked")

    for command in cli._SCANS:
        monkeypatch.setitem(cli._SCANS, command, entered)
    monkeypatch.setattr(cli, "run_identity_suite", entered)
    (tmp_path / "file").write_text("")
    (tmp_path / "runs" / "jacobian" / "records.jsonl").mkdir(parents=True)
    argv = [a.format(file=tmp_path / "file", records_dir=tmp_path / "runs", dir=tmp_path)
            for a in argv]
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


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

    def test_separable_scan_of_non_smooth_symbol_exits_one(self, capsys, tmp_path):
        code = run_cli([
            "boundedness-scan", "--symbol", "det_norm:0.5", "--grid", "2x32",
            "--family", "2", "--strategy", "separable", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "midpoint error" in capsys.readouterr().err
        assert not (tmp_path / "boundedness").exists()

    @pytest.mark.parametrize(
        "symbol, code",
        [("det_norm:400", 0), ("det_norm:1e19", 0), ("det_norm:inf", 1),
         ("dot_norm:nan", 1)],
    )
    def test_large_or_non_finite_beta(self, capsys, tmp_path, symbol, code):
        # These once wrote ratios [NaN] with passed=True and exit code 0;
        # det_norm:1e19 wrote NaN and exited 2, its quotient an ulp above 1.
        assert run_cli([
            "boundedness-scan", "--symbol", symbol, "--grid", "2x16",
            "--family", "1", "--out", str(tmp_path),
        ]) == code
        path = tmp_path / "boundedness" / "records.jsonl"
        if code == 1:
            assert "beta must be finite" in capsys.readouterr().err
            assert not path.exists()
        else:
            rec = json.loads(path.read_text())
            ratios = [x for row in rec["sweep"] for x in row["ratios"]]
            assert rec["passed"] and all(math.isfinite(x) for x in ratios)

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

    @pytest.mark.parametrize("command, experiment, symbol",
                             [("boundedness-scan", "boundedness", "det_norm:1"),
                              ("thm3-scan", "thm3", "det")])
    def test_one_dimensional_grid_runs_on_default_exponents(self, tmp_path, command,
                                                            experiment, symbol):
        # --grid 1xN once took p_1 = d = 1 and was refused though no exponent
        # was set; its defaults are now those of a config with p = [2.0], r = 2.0.
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": experiment, "d": 1, "n": 8, "symbol": symbol, "p": [2.0], "r": 2.0,
        }))
        records = []
        for how in (["--grid", "1x8"], ["--config", str(cfgfile)]):
            out = tmp_path / how[0][2:]
            assert run_cli([command, *how, "--out", str(out)]) == 0
            records.append(json.loads((out / experiment / "records.jsonl").read_text()))
            validate_record(records[-1])
        assert records[0]["config_hash"] == records[1]["config_hash"]

    @pytest.mark.parametrize("command, kind",
                             [("jacobian-estimate", "Jacobian"), ("hessian-estimate", "Hessian")])
    def test_one_dimensional_estimate_names_the_dimension(self, capsys, tmp_path, command, kind):
        code = run_cli([command, "--grid", "1x8", "--out", str(tmp_path)])
        assert code == 1
        assert f"{kind} estimate needs dimension d >= 2, got 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
            "experiment": "boundedness",
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
        rec = json.loads((tmp_path / "boundedness" / "records.jsonl").read_text())
        assert rec["kind"] == "boundedness" and len(rec["sweep"]) == 2

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
            (["boundedness-scan", "--k", "3"], "no derivative order k"),
            (["jacobian-estimate", "--k", "3"], "no derivative order k"),
            (["hessian-estimate", "--k", "3"], "no derivative order k"),
            (["thm3-scan", "--symbol", "det_norm:1"], "not linear in slot 1"),
            (["thm3-scan", "--symbol", "det_pow:3"], "not linear in slot 1"),
            (["boundedness-scan", "--grid", "3x8", "--strategy", "separable"],
             "annulus grids implemented for d <= 2"),
            (["boundedness-scan", "--grid", "2x8", "--symbol", "one:7"],
             "symbol 'one' takes no argument"),
            (["thm3-scan", "--symbol", "det:xyz"], "symbol 'det' takes no argument"),
            (["boundedness-scan", "--symbol", "riesz_product:1,,2"],
             "comma-separated components"),
        ],
        ids=["jacobian-strategy", "jacobian-symbol", "hessian-strategy",
             "hessian-symbol", "thm3-strategy", "boundedness-k", "jacobian-k",
             "hessian-k", "thm3-det-norm", "thm3-det-pow-3", "separable-3d",
             "one-argument", "det-argument", "riesz-empty-component"],
    )
    def test_ignored_field_exits_one(self, capsys, tmp_path, argv, message):
        code = run_cli([*argv, "--family", "1", "--t-max", "0", "--out", str(tmp_path)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, experiment, d",
        [("boundedness-scan", "boundedness", 2), ("thm3-scan", "thm3", 2),
         ("jacobian-estimate", "jacobian", 2), ("hessian-estimate", "hessian", 3)],
    )
    def test_cutoff_leaving_no_mode_exits_one(self, capsys, tmp_path, command, experiment, d):
        # Every ratio once read 0 and passed, or the Jacobian scan divided by 0.
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": experiment, "d": d, "n": 8, "symbol": "det",
            "p": [float(d)] * d, "r": 1.0, "cutoff": 0.5, "family": 1, "t_max": 0,
        }))
        code = run_cli([command, "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 1
        assert "leave no nonzero mode" in capsys.readouterr().err
        assert not (tmp_path / experiment).exists()

    def test_dilation_beyond_int64_exits_one(self, capsys, monkeypatch, tmp_path):
        # The padded 16-point output holds frequencies up to 2^t 8, so the
        # range is refused at t_max = 63 before any operator call; the scan
        # once read wrapped frequencies there, and later applied its
        # operator at t = 58 before failing at t = 59.
        calls, apply = [], harness.apply_direct_family
        monkeypatch.setattr(harness, "apply_direct_family",
                            lambda *args: calls.append(args) or apply(*args))
        code = run_cli([
            "boundedness-scan", "--grid", "2x8", "--family", "1",
            "--t-min", "58", "--t-max", "63", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "n=16, t=63 overflow int64" in capsys.readouterr().err
        assert not calls
        assert not list(tmp_path.iterdir())

    def test_smoothness_field_exits_one(self, capsys, tmp_path):
        # thm3-scan derives s = k(m-1)/m; the config has no field to set it.
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": "thm3", "d": 2, "n": 8, "symbol": "det",
            "p": [2.0, 2.0], "r": 1.0, "k": 1, "s": 0.25, "family": 1,
        }))
        code = run_cli(["thm3-scan", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 1
        assert "does not match schema" in capsys.readouterr().err
        assert not (tmp_path / "thm3").exists()

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
    def test_json_and_files(self, capsys):
        code = run_cli(["decompose-symbol", "--symbol", "det_norm:1", "--d", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symbol"] == "norm[det,1.0]"
        assert payload["rank"] == 2
        assert payload["n_angular"] == 32
        assert len(payload["coefficient_moduli"]) == 2

    def test_unknown_symbol(self, capsys):
        code = run_cli(["decompose-symbol", "--symbol", "nope"])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--radial", "--rank", "--angular", "--out"])
    def test_radial_flag_removed(self, capsys, flag):
        code = run_cli(["decompose-symbol", "--symbol", "det_norm:1", flag, "16"])
        assert code == 1
        assert flag in capsys.readouterr().err


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

    def test_schema_violation_names_its_path(self, capsys, tmp_path):
        path = self._records(tmp_path)
        payload = json.loads(path.read_text().strip())
        payload["ratios"][0] = -1.0
        path.write_text(json.dumps(payload) + "\n")
        assert run_cli(["report", "--records", str(path)]) == 1
        assert ("record does not match schema at $.ratios[0]: "
                "-1.0 is less than the minimum of 0") in capsys.readouterr().err

    def test_vacuous_steps_flagged(self, capsys, tmp_path):
        # hessian-estimate's default cutoff 2 on n = 8: at t = 3 no
        # determinant mode but the mean meets the test function's band.
        run_cli([
            "hessian-estimate", "--grid", "2x8", "--family", "1",
            "--t-max", "3", "--out", str(tmp_path),
        ])
        path = tmp_path / "hessian" / "records.jsonl"
        capsys.readouterr()
        run_cli(["report", "--records", str(path)])
        out = capsys.readouterr().out
        assert "vacuous_t=3 vacuous_difference_t=3" in out

    def test_no_vacuous_flag_without_active_modes(self, capsys, tmp_path):
        path = self._records(tmp_path)
        capsys.readouterr()
        run_cli(["report", "--records", str(path)])
        assert "vacuous" not in capsys.readouterr().out

    def test_identity_steps_named(self, capsys, tmp_path):
        # det_norm:1 is degree 0: the operator runs at t = 0 only, and the
        # t = 1 output is the dilated t = 0 output.
        path = self._records(tmp_path)
        capsys.readouterr()
        run_cli(["report", "--records", str(path)])
        assert capsys.readouterr().out.rstrip().endswith(" identity_t=1")

    def test_no_identity_note_on_a_det_scan(self, capsys, tmp_path):
        run_cli([
            "boundedness-scan", "--symbol", "det", "--grid", "2x8",
            "--family", "1", "--t-max", "2", "--out", str(tmp_path),
        ])
        path = tmp_path / "boundedness" / "records.jsonl"
        assert json.loads(path.read_text())["extra"]["applied_t"] == [0, 1, 2]
        capsys.readouterr()
        run_cli(["report", "--records", str(path)])
        assert "identity_t" not in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert run_cli(["report", "--records", "absent.jsonl"]) == 1

    def test_module_entry_point_exits_one(self, tmp_path):
        # python -m mlab.cli once imported the module and exited 0 without
        # running a command.
        src = str(ROOT / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mlab.cli", "report",
             "--records", str(tmp_path / "absent.jsonl")],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "records file not found" in proc.stderr
