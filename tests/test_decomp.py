"""Dyadic partition of unity and separable symbol expansions."""

import json
import math
import time

import numpy as np
import pytest

from mlab import (
    BudgetExceededError,
    DyadicPartition,
    GridSpec,
    build_annulus_grid,
    dft_forward,
    evaluate,
    load_expansion,
    localize,
    normalized_power_symbol,
    det_symbol,
    one_symbol,
    partition_for_grid,
    phi_profile,
    product_symbol,
    psi_profile,
    resolve_symbol,
    riesz_factor,
    save_expansion,
    separable_expand,
    spectrum_from_modes,
)
from mlab.grid import dft_inverse

from conftest import random_trig, rel_err


class TestProfiles:
    def test_psi_support_and_peak(self):
        r = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        vals = psi_profile(r)
        assert vals[0] == 0.0
        assert vals[2] == pytest.approx(1.0)
        assert vals[4] == 0.0

    def test_psi_zero_at_origin(self):
        assert psi_profile(np.array([0.0]))[0] == 0.0

    def test_phi_plateau(self):
        r = np.array([0.125, 0.5, 1.0, 2.0, 8.0])
        vals = phi_profile(r)
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(1.0)
        assert vals[2] == pytest.approx(1.0)
        assert vals[3] == pytest.approx(1.0)
        assert vals[4] == 0.0


class TestPartition:
    def test_telescoping_dense_sweep(self):
        part = DyadicPartition(-4, 10)
        r = np.geomspace(2.0**-4, 2.0**10, 10_000)
        dev = np.max(np.abs(part.partition_sum(r) - 1.0))
        assert dev <= 1e-12

    def test_covers_predicate(self):
        part = DyadicPartition(0, 3)
        assert part.covers([1.0, 8.0])
        assert not part.covers([0.5])
        assert not part.covers([9.0])
        assert part.covers([])

    def test_partition_for_grid_covers_lattice(self):
        for d, n in ((1, 16), (2, 16), (3, 8)):
            g = GridSpec(d=d, n=n)
            part = partition_for_grid(n, d)
            radii = g.freq_radius().reshape(-1)
            assert part.covers(radii[radii > 0.0])

    def test_bad_scale_order_rejected(self):
        with pytest.raises(ValueError):
            DyadicPartition(3, 1)


class TestLocalize:
    def test_reconstruction_of_mean_free_field(self):
        g = GridSpec(d=2, n=16)
        f, modes = random_trig(g, degree=6, seed=40)
        modes = dict(modes)
        modes[(0, 0)] = 0.0
        f = dft_inverse(spectrum_from_modes(g, modes))
        part = partition_for_grid(g.n, g.d)
        acc = np.zeros(g.shape, dtype=np.complex128)
        for j in part.scales:
            acc += localize(f, part, j).samples
        assert rel_err(acc, f.samples) <= 1e-10

    def test_reconstruction_drops_mean_mode(self):
        g = GridSpec(d=2, n=16)
        f, _ = random_trig(g, degree=6, seed=41)
        part = partition_for_grid(g.n, g.d)
        acc = np.zeros(g.shape, dtype=np.complex128)
        for j in part.scales:
            acc += localize(f, part, j).samples
        mean = complex(dft_forward(f).coeffs.reshape(-1)[0])
        assert rel_err(acc + mean, f.samples) <= 1e-10

    def test_single_scale_isolates_annulus(self):
        g = GridSpec(d=1, n=32)
        # |xi| = 2 sits at the peak of scale j = 1 and outside scales j >= 3.
        f = dft_inverse(spectrum_from_modes(g, {(2,): 1.0}))
        part = DyadicPartition(0, 4)
        kept = localize(f, part, 1)
        gone = localize(f, part, 3)
        assert rel_err(kept.samples, f.samples) <= 1e-12
        assert float(np.max(np.abs(gone.samples))) <= 1e-12


class TestAnnulusGrid:
    def test_weights_sum_to_sphere_measure(self):
        assert float(np.sum(build_annulus_grid(2, 64).weights)) == pytest.approx(
            2.0 * math.pi, rel=1e-15
        )
        assert float(np.sum(build_annulus_grid(1).weights)) == 2.0

    def test_nodes_are_unit_directions(self):
        for d, n_ang in ((1, 64), (2, 32), (2, 64)):
            grid = build_annulus_grid(d, n_ang)
            r = np.linalg.norm(grid.points, axis=-1)
            assert np.all(np.abs(r - 1.0) <= 1e-15)


class TestSeparableExpansion:
    def test_constant_symbol_rank_one(self):
        exp = separable_expand(one_symbol(2, 2), n_angular=16, rank=1)
        # The weighted node matrix is sqrt(w) sqrt(w)^T, so the single
        # coefficient is the measure of the circle, sum(w) = 2 pi.
        assert exp.rank == 1
        want = float(np.sum(exp.grid.weights))
        assert want == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert abs(exp.coeffs[0]) == pytest.approx(want, rel=1e-12)
        assert exp.residual <= 1e-12

    def test_det_norm_spectrum_decay(self):
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        exp = separable_expand(sym, rank=32, n_angular=64)
        s = exp.spectrum
        assert s[31] <= 1e-6 * s[0]
        assert exp.tail_residual(16) <= 1e-6 * exp.tail_residual(1)

    @pytest.mark.parametrize("beta, tol", [(0.5, 1e-9), (1.0, 1e-12), (2.0, 1e-12), (3.0, 1e-12)])
    def test_det_norm_spectrum_is_circulant_dft(self, beta, tol):
        # det_norm:beta in d = 2 depends on theta_2 - theta_1 only, so its
        # weighted angular matrix is circulant: its singular values are the
        # moduli of the DFT of one row, with no SVD involved.
        sym = normalized_power_symbol(det_symbol(2), beta)
        n = 64
        exp = separable_expand(sym, rank=n, n_angular=n)
        theta = 2.0 * math.pi * np.arange(n) / n
        e1 = np.tile([1.0, 0.0], (n, 1))
        c = evaluate(sym, [e1, np.stack([np.cos(theta), np.sin(theta)], axis=-1)])
        want = np.sort(np.abs(np.fft.fft(c)))[::-1] * 2.0 * math.pi / n
        assert float(np.max(np.abs(exp.spectrum - want))) <= tol * exp.spectrum[0]

    def test_det_norm_one_pinned(self):
        # sin(theta_2 - theta_1) has exactly two angular modes, each of
        # weighted singular value pi.
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        started = time.perf_counter()
        exp = separable_expand(sym, rank=32)
        elapsed = time.perf_counter() - started
        assert exp.spectrum[0] == pytest.approx(math.pi, rel=1e-12)
        assert exp.spectrum[1] == pytest.approx(math.pi, rel=1e-12)
        assert exp.residual <= 1e-12
        assert elapsed <= 0.1

    def test_trilinear_riesz_product_builds(self):
        sym = resolve_symbol("riesz_product:1,2,1", 2)
        exp = separable_expand(sym, rank=2)
        assert exp.m == 3 and exp.grid.n_points == 64
        assert exp.residual <= 1e-12

    def test_arity_beyond_budget_rejected(self):
        sym = resolve_symbol("riesz_product:1,2,1,2,1", 2)
        with pytest.raises(BudgetExceededError):
            separable_expand(sym, rank=2)

    def test_residual_nonincreasing_in_rank(self):
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        exp = separable_expand(sym, n_angular=32, rank=16)
        tails = [exp.tail_residual(r) for r in range(1, 17)]
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))

    def test_rank_one_product_expands_exactly(self):
        sym = product_symbol([riesz_factor(2, 0), riesz_factor(2, 1)])
        exp = separable_expand(sym, n_angular=32, rank=4)
        assert exp.residual <= 1e-12
        assert exp.spectrum[1] <= 1e-12 * exp.spectrum[0]

    def test_rejects_non_homogeneous(self):
        from mlab import power_symbol

        with pytest.raises(ValueError):
            separable_expand(power_symbol(det_symbol(2), 1))

    def test_save_load_round_trip(self, tmp_path):
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        exp = separable_expand(sym, n_angular=16, rank=4)
        save_expansion(exp, tmp_path / "exp")
        back = load_expansion(tmp_path / "exp")
        assert back.m == exp.m and back.d == exp.d and back.rank == exp.rank
        assert np.allclose(back.coeffs, exp.coeffs)
        for j in range(exp.m):
            assert np.allclose(back.factors[j], exp.factors[j])
        pts = np.array([[1.0, 1.0], [2.0, -1.0]])
        assert np.allclose(back.factor_values(0, pts), exp.factor_values(0, pts))

    def test_load_rejects_old_format(self, tmp_path):
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        save_expansion(separable_expand(sym, n_angular=16, rank=4), tmp_path / "exp")
        header_path = tmp_path / "exp.json"
        header = json.loads(header_path.read_text())
        header["format"] = "mlab-expansion-1"
        header["n_radial"] = 8
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="mlab-expansion-1"):
            load_expansion(tmp_path / "exp")
