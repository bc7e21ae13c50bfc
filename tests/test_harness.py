"""Experiment driver: random families, dilation sweeps, report records."""

import csv
import json
import math

import numpy as np
import pytest

from mlab import (
    ExperimentConfig,
    Field,
    GridSpec,
    bessel_norm,
    bessel_norm_dilated,
    boundedness_scan,
    dealiased_product,
    dft_forward,
    dilate_dyadic,
    hessian_estimate,
    holder_conjugate,
    jacobian_estimate,
    lp_norm,
    pair,
    pair_dilated,
    random_field,
    thm3_estimate_ratio,
    validate_record,
    write_records,
    write_summary_csv,
)
from mlab.grid import padded_points, regrid_field, support
from mlab.harness import _family_seeds

from conftest import random_trig, rel_err


class TestRandomField:
    def test_deterministic(self, grid2d):
        a = random_field(7, grid2d, 2.0)
        b = random_field(7, grid2d, 2.0)
        assert np.array_equal(a.samples, b.samples)

    def test_real_valued(self, grid2d):
        f = random_field(8, grid2d, 2.0)
        assert f.is_real
        assert float(np.max(np.abs(f.samples.imag))) == 0.0

    def test_profile_readback(self):
        g = GridSpec(d=2, n=32)
        f = random_field(9, g, 2.0)
        spec = dft_forward(f)
        radius = g.freq_radius()
        want = (1.0 + radius) ** -2.0
        got = np.abs(spec.coeffs)
        live = radius > 0
        assert float(np.max(np.abs(got[live] - want[live]))) <= 1e-12

    def test_cutoff_keeps_single_shell(self, grid2d):
        f = random_field(10, grid2d, 2.0, cutoff=1.0)
        freqs, _ = support(dft_forward(f), tol=1e-13)
        radii = np.sqrt(np.sum(freqs.astype(float) ** 2, axis=1))
        assert freqs.shape[0] == 4
        assert np.all(radii <= 1.0 + 1e-12)
        assert np.all(radii > 0)

    def test_mean_zero_default(self, grid2d):
        f = random_field(11, grid2d, 2.0)
        assert abs(np.mean(f.samples)) <= 1e-14
        g = random_field(11, grid2d, 2.0, mean_zero=False)
        assert abs(np.mean(g.samples)) > 1e-6

    def test_rejects_negative_gamma(self, grid2d):
        with pytest.raises(ValueError):
            random_field(12, grid2d, -1.0)


class TestDilatedHelpers:
    def test_pair_dilated_matches_direct(self):
        g = GridSpec(d=2, n=8)
        f, _ = random_trig(g, degree=2, seed=160)
        big = GridSpec(d=2, n=16)
        phi, _ = random_trig(big, degree=7, seed=161)
        ft = dilate_dyadic(f, 1)
        assert ft.grid.n == 16
        direct = pair(ft, phi)
        fast = pair_dilated(dft_forward(f), 1, dft_forward(phi))
        assert abs(direct - fast) <= 1e-12 * max(abs(direct), 1.0)

    def test_pair_dilated_drops_out_of_band_modes(self):
        g = GridSpec(d=2, n=8)
        f, _ = random_trig(g, degree=3, seed=162)
        phi, _ = random_trig(g, degree=3, seed=163)
        # t = 2 maps degree-3 modes to radius 12, beyond the n = 8 band of
        # phi, so only the surviving low modes contribute.
        val = pair_dilated(dft_forward(f), 2, dft_forward(phi))
        assert np.isfinite(abs(val))

    def test_bessel_norm_dilated_matches_direct(self):
        g = GridSpec(d=2, n=8)
        f = random_field(13, g, 2.0, cutoff=2.0)
        for t in (0, 1, 2):
            ft = dilate_dyadic(f, t)
            direct = bessel_norm(ft, 2.4, 0.8)
            fast = bessel_norm_dilated(f, t, 2.4, 0.8)
            assert rel_err(np.array(fast), np.array(direct)) <= 1e-10


class TestExperimentConfig:
    def test_exponent_consistency_enforced(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                experiment="x", d=2, n=8, symbol="det", p=(2.0, 2.0), r=2.0
            )

    def test_rejects_p_at_or_below_one(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                experiment="x", d=2, n=8, symbol="det", p=(1.0, 2.0), r=1.0
            )

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                experiment="x", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0,
                strategy="magic",
            )

    def test_rejects_bad_sweep_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                experiment="x", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0,
                t_min=3, t_max=1,
            )

    def test_hash_ignores_out_dir(self):
        a = ExperimentConfig(
            experiment="x", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0,
            out_dir="left",
        )
        b = ExperimentConfig(
            experiment="x", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0,
            out_dir="right",
        )
        c = ExperimentConfig(
            experiment="x", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0,
            seed=99,
        )
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_grid_and_arity(self):
        cfg = ExperimentConfig(
            experiment="x", d=2, n=16, symbol="det", p=(3.0, 3.0, 3.0), r=1.0
        )
        assert cfg.m == 3
        assert cfg.grid == GridSpec(2, 16)


def _cfg(**kw) -> ExperimentConfig:
    base = dict(
        experiment="scan", d=2, n=16, symbol="det_norm:1", p=(2.0, 2.0), r=1.0,
        family=2, t_min=0, t_max=2, seed=21,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestBoundednessScan:
    def test_homogeneous_sweep_is_flat(self):
        # Full-band inputs force the dilation to enlarge the grid by 2^t, so
        # the sample multiset and every quadrature norm are preserved exactly.
        # A band cutoff below n/4 would skip the enlargement and perturb the
        # L^1 Riemann sum at the percent level.
        rec = boundedness_scan(_cfg())
        assert rec.passed
        assert rec.kind == "boundedness"
        assert len(rec.sweep) == 3
        assert len(rec.ratios) == 2
        for i in range(2):
            column = [row["ratios"][i] for row in rec.sweep]
            assert max(column) / min(column) <= 1.0 + 1e-10

    def test_riesz_ratio_stable_across_resolutions(self):
        maxima = []
        for n in (16, 32, 64):
            rec = boundedness_scan(
                _cfg(symbol="riesz_product:1,2", n=n, cutoff=4.0, t_min=0, t_max=0)
            )
            assert rec.passed
            maxima.append(rec.max_ratio)
        assert max(maxima) <= 2.0 * min(maxima)

    def test_separable_strategy_smoke(self):
        rec = boundedness_scan(
            _cfg(n=8, cutoff=2.0, t_max=1, strategy="separable", rank=8)
        )
        assert rec.passed

    def test_record_passes_schema(self):
        rec = boundedness_scan(_cfg(cutoff=2.0, t_max=1))
        validate_record(rec.to_dict())

    def test_payload_deterministic(self):
        a = boundedness_scan(_cfg(cutoff=2.0, t_max=1)).to_dict()
        b = boundedness_scan(_cfg(cutoff=2.0, t_max=1)).to_dict()
        a.pop("runtime_seconds")
        b.pop("runtime_seconds")
        assert a == b


class TestTransferScan:
    def test_k_zero_reduces_to_plain_pairing(self):
        cfg = _cfg(
            experiment="thm3", symbol="det", n=8, k=0, cutoff=2.0,
            t_min=0, t_max=0, seed=5,
        )
        rec = thm3_estimate_ratio(cfg)
        block = _family_seeds(cfg, 3)[0]
        g = cfg.grid
        fs = [random_field(sd, g, cfg.gamma, cutoff=cfg.cutoff) for sd in block[:2]]
        phi = random_field(block[2], g, cfg.gamma + 2.0)
        prod = dealiased_product(fs, pad_factor=2)
        num = abs(pair(prod, regrid_field(phi, prod.grid.n)))
        r_star = holder_conjugate(cfg.r)
        den = lp_norm(phi, r_star)
        for f in fs:
            den *= lp_norm(f, 2.0)
        want = num / den
        got = rec.sweep[0]["ratios"][0]
        assert rel_err(np.array(got), np.array(want)) <= 1e-12
        assert rec.extra["s"] == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_transfer_sweeps_pass(self, k):
        cfg = _cfg(
            experiment="thm3", symbol="det", n=8, k=k, cutoff=2.0,
            t_min=0, t_max=2, seed=6,
        )
        rec = thm3_estimate_ratio(cfg)
        assert rec.passed
        assert rec.kind == "transfer"
        assert rec.extra["k"] == k
        assert rec.extra["s"] == pytest.approx(k * 0.5)


class TestDeterminantEstimates:
    def test_jacobian_sweep(self):
        cfg = ExperimentConfig(
            experiment="jac", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0,
            family=2, t_min=0, t_max=2, seed=31, cutoff=2.0,
        )
        rec = jacobian_estimate(cfg)
        assert rec.passed
        assert rec.extra["u_equals_v_numerator"] == 0.0
        assert rec.extra["s"] == pytest.approx(0.5)
        assert len(rec.extra["difference_sweep"]) == 3
        base = max(rec.sweep[0]["ratios"])
        assert rec.max_ratio <= 4.0 * base

    def test_hessian_sweep_planar(self):
        cfg = ExperimentConfig(
            experiment="hess", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0,
            family=2, t_min=0, t_max=2, seed=32, cutoff=2.0,
        )
        rec = hessian_estimate(cfg)
        assert rec.passed
        assert rec.extra["u_equals_v_numerator"] == 0.0
        assert rec.extra["s"] == pytest.approx(1.0)
        assert all(np.isfinite(x) for row in rec.sweep for x in row["ratios"])

    def test_jacobian_rejects_wrong_exponents(self):
        cfg = ExperimentConfig(
            experiment="jac", d=2, n=8, symbol="det", p=(2.0, 2.0, 2.0),
            r=1.0 / 1.5, family=1,
        )
        with pytest.raises(ValueError):
            jacobian_estimate(cfg)

    def test_hessian_rejects_wrong_smoothness(self):
        cfg = ExperimentConfig(
            experiment="hess", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0,
            s=0.25, family=1,
        )
        with pytest.raises(ValueError):
            hessian_estimate(cfg)


def _bits(record) -> tuple:
    """Ratios and sweep of a record as exact float bit patterns."""
    ratios = [x.hex() for x in record.ratios]
    sweep = [(row["t"], [x.hex() for x in row["ratios"]]) for row in record.sweep]
    return ratios, sweep


class TestDeterminism:
    """Equal config hashes give bitwise-equal ratios and sweeps."""

    @pytest.mark.parametrize(
        "scan,fields",
        [
            (boundedness_scan, dict(symbol="det_norm:1")),
            (boundedness_scan, dict(symbol="det_norm:1", strategy="separable")),
            (jacobian_estimate, dict(symbol="det")),
        ],
        ids=["boundedness-direct", "boundedness-separable", "jacobian"],
    )
    def test_same_config_same_bits(self, scan, fields):
        def config() -> ExperimentConfig:
            return ExperimentConfig(
                experiment="det", d=2, n=8, p=(2.0, 2.0), r=1.0,
                family=1, t_min=0, t_max=2, seed=41, **fields,
            )

        a, b = scan(config()), scan(config())
        assert a.config_hash == b.config_hash
        assert _bits(a) == _bits(b)


class TestRecordIO:
    def test_write_records_appends(self, tmp_path):
        rec = boundedness_scan(_cfg(n=8, cutoff=2.0, t_max=1))
        path = tmp_path / "records.jsonl"
        write_records(path, [rec])
        write_records(path, [rec])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_record(json.loads(line))

    def test_summary_csv_one_row_per_member(self, tmp_path):
        rec = boundedness_scan(_cfg(n=8, cutoff=2.0, t_max=2, family=3))
        path = tmp_path / "summary.csv"
        write_summary_csv(path, rec)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["experiment", "kind", "instance",
                           "ratio_t0", "ratio_t1", "ratio_t2"]
        assert len(rows) == 1 + 3
        for i, row in enumerate(rows[1:]):
            assert row[2] == str(i)
            assert float(row[3]) == rec.sweep[0]["ratios"][i]
