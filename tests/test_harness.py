"""Experiment driver: random families, dilation sweeps, report records."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from mlab import (
    ExperimentConfig,
    Field,
    GridSpec,
    Separable,
    bessel_norm,
    boundedness_scan,
    dealiased_product,
    dft_forward,
    dft_inverse,
    dilate_dyadic,
    hessian_det_pointwise,
    hessian_estimate,
    holder_conjugate,
    jacobian_estimate,
    lp_norm,
    pair,
    random_field,
    random_spectrum,
    thm3_estimate_ratio,
    validate_record,
    write_records,
)
from mlab import decomp, determinants, grid, harness, operators, spaces
from mlab.grid import padded_points, pair_spectra, regrid_field, support
from mlab.spaces import bessel_norms
from mlab.harness import _family_seeds, _oscillation_ok

from conftest import random_trig, rel_err, tiled
from oracles import boundedness_scan_per_step, random_field_mesh


class TestRandomField:
    def test_deterministic(self, grid2d):
        a = random_field(7, grid2d, 2.0)
        b = random_field(7, grid2d, 2.0)
        assert np.array_equal(a.samples, b.samples)

    def test_real_valued(self, grid2d):
        f = random_field(8, grid2d, 2.0)
        assert float(np.max(np.abs(f.samples.imag))) == 0.0

    @pytest.mark.parametrize("t", [0, 2])
    def test_profile_readback(self, t):
        # On a dilated grid the profile reads the frequencies 2^t k.
        g = GridSpec(d=2, n=32, t=t)
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

    def test_mean_zero(self, grid2d):
        f = random_field(11, grid2d, 2.0)
        assert abs(np.mean(f.samples)) <= 1e-14

    @pytest.mark.parametrize("gamma, cutoff", [(2.0, 0.5), (1e6, None)])
    def test_rejects_family_with_no_mode(self, grid2d, gamma, cutoff):
        # A cutoff below the first shell, or a decay that underflows every
        # nonzero mode, leaves only the mean, which is zeroed.
        with pytest.raises(ValueError, match="leave no nonzero mode"):
            random_field(14, grid2d, gamma, cutoff=cutoff)

    def test_rejects_negative_gamma(self, grid2d):
        with pytest.raises(ValueError):
            random_field(12, grid2d, -1.0)

    @pytest.mark.parametrize("d, n", [(1, 16), (2, 8), (3, 4)])
    @pytest.mark.parametrize("t", [0, 2])
    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    @pytest.mark.parametrize("cutoff", [None, 1.5])
    def test_matches_meshgrid_oracle_bitwise(self, d, n, t, gamma, cutoff):
        # The cutoff scales with the dilated lattice, keeping its first shells.
        g = GridSpec(d=d, n=n, t=t)
        if cutoff is not None:
            cutoff *= 1 << t
        for seed in (0, 1, 2):
            f = random_field(seed, g, gamma, cutoff=cutoff)
            want = random_field_mesh(seed, d, n, t, gamma, cutoff)
            assert np.array_equal(f.samples.real, want)

    @pytest.mark.parametrize("cutoff", [None, 1.5])
    def test_field_is_the_real_inverse_of_the_spectrum(self, grid2d, cutoff):
        spec = random_spectrum(13, grid2d, 2.0, cutoff=cutoff)
        f = random_field(13, grid2d, 2.0, cutoff=cutoff)
        assert spec.coeffs[0, 0] == 0.0
        assert f.samples.real.tobytes() == dft_inverse(spec).samples.real.tobytes()
        assert not np.any(f.samples.imag)


class TestDilatedRoutes:
    """The sweeps' route for a dilated quantity, ``dilate_dyadic`` of a
    spectrum, against the tiled full-grid field."""

    def test_pairing_of_dilated_spectrum_matches_direct(self):
        g = GridSpec(d=2, n=8)
        f, _ = random_trig(g, degree=2, seed=160)
        big = GridSpec(d=2, n=16)
        phi, _ = random_trig(big, degree=7, seed=161)
        ft = dilate_dyadic(f, 1)
        direct = pair(tiled(ft), phi)
        fast = pair_spectra(dilate_dyadic(dft_forward(f), 1), dft_forward(phi))
        assert abs(direct - fast) <= 1e-12 * max(abs(direct), 1.0)
        assert pair(ft, phi) == fast

    def test_pairing_drops_out_of_band_modes(self):
        # A determinant-sized grid four times phi's, as in the Hessian scan,
        # and full-band inputs with Nyquist modes on both grids.  For t >= 1
        # most dilated modes of f leave phi's band and must drop out.
        f = random_field(162, GridSpec(d=2, n=64), 1.0)
        phi = random_field(163, GridSpec(d=2, n=16), 1.0)
        for t in range(4):
            full = tiled(dilate_dyadic(f, t))
            direct = pair(full, regrid_field(phi, full.grid.n))
            fast = pair_spectra(dilate_dyadic(dft_forward(f), t), dft_forward(phi))
            assert abs(direct - fast) <= 1e-12 * abs(direct)

    def test_bessel_norms_of_dilated_spectrum_match_direct(self):
        g = GridSpec(d=2, n=8)
        f = random_field(13, g, 2.0, cutoff=2.0)
        spec = dft_forward(f)
        for t in (0, 1, 2):
            direct = bessel_norm(tiled(dilate_dyadic(f, t)), 2.4, 0.8)
            (fast,) = bessel_norms([dilate_dyadic(spec, t)], [2.4], 0.8)
            assert rel_err(np.array(fast), np.array(direct)) <= 1e-10
            assert fast == bessel_norm(dilate_dyadic(f, t), 2.4, 0.8)


class TestTransformWork:
    """A dilated step transforms the base cell: the points passed to
    ``dft_forward`` and ``dft_inverse`` do not depend on ``t``; and an
    estimate sweep transforms only its determinants."""

    @pytest.fixture
    def counter(self, monkeypatch):
        # points[0]: points of every transform; points[1]: forward calls.
        points = [0, 0]
        originals = {name: getattr(grid, name) for name in ("dft_forward", "dft_inverse")}
        for mod in (grid, spaces, decomp, operators, determinants, harness):
            for name, fn in originals.items():
                if hasattr(mod, name):

                    def counted(s, *args, _fn=fn, _name=name, **kwargs):
                        points[0] += s.grid.npoints
                        points[1] += _name == "dft_forward"
                        return _fn(s, *args, **kwargs)

                    monkeypatch.setattr(mod, name, counted)
        return points

    @pytest.mark.parametrize(
        "scan, changes, forward",
        [
            # Per member: the two determinants.  The inputs, u - v and phi
            # are drawn as spectra.
            (jacobian_estimate, dict(n=128, p=(2.0, 2.0), t_max=5), 4 * 2),
            (hessian_estimate, dict(d=3, n=16, p=(3.0, 3.0, 3.0), t_max=5), 4 * 2),
        ],
    )
    def test_estimate_sweep_transforms_each_field_once(self, counter, scan, changes, forward):
        scan(_cfg(experiment="estimate", symbol="det", family=4, **changes))
        assert counter[1] == forward

    @pytest.mark.parametrize(
        "scan, changes",
        [
            (boundedness_scan, {}),
            (boundedness_scan, {"strategy": "separable"}),
            (thm3_estimate_ratio, {"experiment": "thm3", "symbol": "det", "k": 2}),
        ],
    )
    def test_points_do_not_depend_on_t(self, counter, scan, changes):
        counts = []
        for t in range(4):
            counter[0] = 0
            scan(_cfg(n=16, cutoff=3.0, t_min=t, t_max=t, **changes))
            counts.append(counter[0])
        assert counts[0] > 0 and counts == [counts[0]] * 4


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

    @pytest.mark.parametrize(
        "changes, message",
        [({"seed": -1}, r"^\$\.seed: -1 is less than the minimum of 0$"),
         ({"d": 0}, r"^\$\.d: 0 is less than the minimum of 1$")],
    )
    def test_rejects_negative_seed_and_zero_dimension(self, changes, message):
        payload = dict(experiment="x", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{**payload, **changes})

    @pytest.mark.parametrize("name", ["d", "n", "k", "seed", "family", "t_min", "t_max"])
    @pytest.mark.parametrize("value", [2.0, True, "2", None])
    def test_rejects_integer_field_that_is_not_an_int(self, name, value):
        # A JSON config may carry 2.0 where an integer belongs (Draft 2020-12
        # counts it as one); the scans need ints, and k alone may be None.
        payload = dict(experiment="x", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0)
        payload[name] = value
        if name == "k" and value is None:
            assert ExperimentConfig(**payload).k is None
            return
        if isinstance(value, float) and name == "n":
            message = "$.n: 2.0 is less than the minimum of 4"
        elif isinstance(value, float):
            message = f"{name} must be an integer, got {value!r}"
        else:
            types = "'integer', 'null'" if name == "k" else "'integer'"
            message = f"$.{name}: {value!r} is not of type {types}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**payload)

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
        # The dilated inputs keep the base samples, so every quadrature norm
        # is preserved exactly.
        rec = boundedness_scan(_cfg())
        assert rec.passed
        assert rec.kind == "boundedness"
        assert len(rec.sweep) == 3
        assert len(rec.ratios) == 2
        for i in range(2):
            column = [row["ratios"][i] for row in rec.sweep]
            assert max(column) / min(column) <= 1.0 + 1e-10

    @pytest.mark.parametrize(
        "symbol, strategy",
        [("det_norm:1", "direct"), ("det_norm:1", "separable"), ("one", "direct")],
    )
    def test_band_limited_sweep_is_flat(self, symbol, strategy):
        # cutoff 3 at n = 32: the dilated inputs keep the base samples, so
        # the L^1 ratio stays constant on every route.
        rec = boundedness_scan(
            _cfg(symbol=symbol, n=32, cutoff=3.0, t_max=3, strategy=strategy)
        )
        assert rec.passed
        assert all(row["ratios"] == rec.sweep[0]["ratios"] for row in rec.sweep)

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
            _cfg(n=8, cutoff=2.0, t_max=1, strategy="separable")
        )
        assert rec.passed
        assert rec.extra["rank"] == 2
        assert rec.extra["n_angular"] == 32
        assert rec.extra["residual"] <= 1e-14

    def test_direct_scan_enumerates_each_step_once(self, monkeypatch):
        # The members of a step share one enumeration, so the tuples the
        # symbol sees do not depend on the family size.  A degree-zero
        # symbol is enumerated at t_min alone, whatever t_max is; det, of
        # degree 2, at every one of the 4 steps of t 0..3.
        seen = []

        def counted(sym, xis, _evaluate=operators.evaluate):
            out = _evaluate(sym, xis)
            seen[-1] += out.size
            return out

        monkeypatch.setattr(operators, "evaluate", counted)

        def tuples(**kw):
            seen.append(0)
            boundedness_scan(_cfg(n=8, **kw))
            return seen[-1]

        per_family = {family: tuples(family=family, t_max=1) for family in (1, 3)}
        assert per_family[1] > 0 and per_family[3] == per_family[1]
        assert tuples(t_max=0) == tuples(t_max=3)
        assert tuples(symbol="det", t_max=3) == 4 * tuples(symbol="det", t_max=0) > 0

    def test_separable_scan_calls_apply_operator_once_per_member(self, monkeypatch):
        # The separable scan reaches its operator through the module's
        # ``apply_operator`` binding, once per member at t_min, in member
        # order, with the operator and the member's list of fields; the
        # later rows repeat the t_min row.  perfbench's Capture oracle reads
        # the first call as member 0 at t_min.
        calls = []

        def recorded(op, fields, _apply=harness.apply_operator):
            out = _apply(op, fields)
            calls.append((op, fields, out))
            return out

        monkeypatch.setattr(harness, "apply_operator", recorded)
        cfg = _cfg(n=8, cutoff=2.0, family=3, t_max=1, strategy="separable")
        boundedness_scan(cfg)
        assert len(calls) == 3
        for (op, fields, out), block in zip(calls, _family_seeds(cfg, 2)):
            assert isinstance(op.strategy, Separable)
            assert isinstance(fields, list) and len(fields) == 2
            assert all(isinstance(f, Field) for f in fields)
            assert all(f.grid == cfg.grid.dilated(cfg.t_min) for f in fields)
            for f, seed in zip(fields, block):
                want = random_field(seed, cfg.grid, harness.DECAY, cutoff=cfg.cutoff)
                assert np.array_equal(f.samples, want.samples)
            assert isinstance(out, Field)

    @pytest.mark.parametrize("cutoff", [None, 3.0])
    @pytest.mark.parametrize("family", [1, 3])
    @pytest.mark.parametrize("t_min", [0, 2])
    @pytest.mark.parametrize(
        "symbol, strategy",
        [
            ("det_norm:1", "direct"),
            ("det_norm:1", "separable"),
            ("dot_norm:1", "direct"),
            ("dot_norm:1", "separable"),
            ("riesz_product:1,2", "direct"),
            ("riesz_product:1,2", "separable"),
            ("det", "direct"),
        ],
    )
    def test_records_equal_per_step_oracle(
        self, monkeypatch, symbol, strategy, t_min, family, cutoff
    ):
        # Repeating the t_min row of a degree-zero operator gives, bitwise,
        # the record of applying the operator at every step; this is the
        # scan's one check of the dilation identity.  det is not degree zero
        # and is applied at every step.  The grids the norms read are checked
        # as well: a degree-zero scan takes its norms at t_min only, det's on
        # each step's t.
        normed = []

        def recorded(f, p, _norm=harness.lp_norm):
            normed.append(f.grid.t)
            return _norm(f, p)

        monkeypatch.setattr(harness, "lp_norm", recorded)
        cfg = _cfg(n=8, symbol=symbol, strategy=strategy, t_min=t_min,
                   t_max=t_min + 2, family=family, cutoff=cutoff)
        got = boundedness_scan(cfg).to_dict()
        steps = list(range(t_min, t_min + 3)) if symbol == "det" else [t_min]
        assert normed == [t for t in steps for _ in range(3 * family)]
        got.pop("runtime_seconds")
        applied = got["extra"].pop("applied_t")
        assert json.dumps(got, sort_keys=True) == json.dumps(
            boundedness_scan_per_step(cfg), sort_keys=True)
        assert applied == steps

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
        fs = [random_field(sd, g, harness.DECAY, cutoff=cfg.cutoff) for sd in block[:2]]
        phi = random_field(block[2], g, harness.DECAY + 2.0)
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

    def test_needs_derivative_order(self):
        cfg = _cfg(experiment="thm3", symbol="det", n=8, t_max=0)
        with pytest.raises(ValueError, match="derivative order k"):
            thm3_estimate_ratio(cfg)

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

    def test_active_modes_count_band_meeting_modes(self):
        # Cutoff 2 leaves determinant modes with |eta_i| <= 4; phi's n = 8
        # band is [-4, 3], so at t = 3 only the mean mode can meet it.
        cfg = ExperimentConfig(
            experiment="hess", d=2, n=8, symbol="det", p=(2.0, 2.0), r=1.0,
            family=2, t_min=0, t_max=3, seed=33, cutoff=2.0,
        )
        rec = hessian_estimate(cfg)
        validate_record(rec.to_dict())
        for i, block in enumerate(_family_seeds(cfg, 3)):
            u = random_spectrum(block[0], cfg.grid, harness.DECAY, cutoff=cfg.cutoff)
            spec = dft_forward(hessian_det_pointwise(u))
            peak = float(np.max(np.abs(spec.coeffs)))
            freqs, _ = support(spec, tol=1e-15 * peak)
            freqs = freqs[np.any(freqs != 0, axis=1)]
            for row in rec.sweep:
                target = -(2 ** row["t"]) * freqs
                want = int(np.sum(np.all((target >= -4) & (target <= 3), axis=1)))
                assert row["active_modes"][i] == want
        assert [min(row["active_modes"]) > 0 for row in rec.sweep] == [
            True, True, True, False
        ]
        assert rec.sweep[3]["active_modes"] == [0, 0]
        assert rec.extra["difference_sweep"][3]["active_modes"] == [0, 0]
        assert all(
            row["active_modes"][i] > 0
            for row in rec.extra["difference_sweep"][:3]
            for i in range(2)
        )

    def test_steps_that_only_the_mean_meets_read_zero(self):
        # At 3x16 the determinant's modes are 2^t eta with |eta_a| <= 16;
        # from t = 4 on only eta = 0 lies in phi's band [-8, 7], and phi's
        # drawn mean is exactly 0.
        cfg = ExperimentConfig(
            experiment="hess", d=3, n=16, symbol="det", p=(3.0, 3.0, 3.0), r=1.0,
            family=4, t_min=0, t_max=5,
        )
        rec = hessian_estimate(cfg)
        rows = rec.sweep[4:] + tuple(rec.extra["difference_sweep"][4:])
        assert [row["t"] for row in rows] == [4, 5, 4, 5]
        for row in rows:
            assert row["ratios"] == [0.0] * 4
            assert row["active_modes"] == [0] * 4
        assert all(x > 0.0 for x in rec.sweep[3]["ratios"])

    @pytest.mark.parametrize(
        "scan, changes",
        [
            (jacobian_estimate, dict(d=2, n=64, p=(2.0, 2.0))),
            (hessian_estimate, dict(d=3, n=8, p=(3.0, 3.0, 3.0))),
        ],
    )
    def test_memory_does_not_grow_with_the_family(self, scan, changes):
        # The sweep holds one member at a time: its traced peak at family 8
        # stays near that at family 2.
        def peak(family: int) -> int:
            cfg = ExperimentConfig(experiment="det", symbol="det", r=1.0, family=family,
                                   t_min=0, t_max=3, **changes)
            tracemalloc.start()
            try:
                scan(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # caches filled by a first run are not the sweep's
        small, large = peak(2), peak(8)
        assert large <= 1.25 * small, (small, large)

    @pytest.mark.parametrize(
        "scan, d, n, det_n",
        [(hessian_estimate, 3, 16, 32), (hessian_estimate, 3, 8, 16),
         (jacobian_estimate, 2, 128, 256)],
    )
    def test_record_names_the_determinant_grid(self, scan, d, n, det_n):
        cfg = ExperimentConfig(
            experiment="det", d=d, n=n, symbol="det", p=(float(d),) * d, r=1.0,
            family=1, t_max=0,
        )
        rec = scan(cfg).to_dict()
        validate_record(rec)
        assert rec["extra"]["det_n"] == det_n

    def test_jacobian_rejects_wrong_exponents(self):
        cfg = ExperimentConfig(
            experiment="jac", d=2, n=8, symbol="det", p=(2.0, 2.0, 2.0),
            r=1.0 / 1.5, family=1,
        )
        with pytest.raises(ValueError):
            jacobian_estimate(cfg)


class TestVerdictHelpers:
    # NaN second in its row: Python's max/min skip it there, so a check
    # that relied on them alone would pass.
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_ratio_fails(self, bad):
        rows = [{"t": 0, "ratios": [1.0, 1.0]}, {"t": 1, "ratios": [1.0, bad]}]
        assert not _oscillation_ok(rows, 4.0)
        rows[0]["ratios"] = [1.0, bad]
        assert not _oscillation_ok(rows, 4.0)


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

