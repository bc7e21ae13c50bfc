"""Grid transforms, derivatives, dealiased products, dilation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlab import (
    Field,
    FrequencyOverflowError,
    GridSpec,
    Spectrum,
    coeff_at,
    dealiased_product,
    dft_forward,
    dft_inverse,
    dilate_dyadic,
    field_from_modes,
    pair,
    spectral_derivative,
    spectrum_from_modes,
    support,
)
from mlab.grid import padded_points, product_on_grid, regrid_field

from conftest import random_trig, rel_err
from oracles import (
    convolve_modes,
    dft_direct,
    diff_modes,
    modes_on_grid,
    quadrature_lp,
    quadrature_pair,
)


class TestGridSpec:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(d=1, n=12)
        with pytest.raises(ValueError):
            GridSpec(d=1, n=2)

    def test_rejects_bad_dimension_and_period(self):
        with pytest.raises(ValueError):
            GridSpec(d=0, n=8)
        with pytest.raises(ValueError):
            GridSpec(d=1, n=8, period=0.0)

    def test_axis_points_and_spacing(self):
        g = GridSpec(d=1, n=8, period=4.0)
        assert g.spacing == 0.5
        assert np.allclose(g.axis_points(), 0.5 * np.arange(8))
        assert g.kscale == pytest.approx(2.0 * math.pi / 4.0)

    def test_freqs_storage_order(self):
        g = GridSpec(d=1, n=8)
        assert list(g.freqs()) == [0, 1, 2, 3, -4, -3, -2, -1]


class TestTransforms:
    def test_forward_matches_direct_summation_1d(self, grid1d):
        f, _ = random_trig(grid1d, degree=3, seed=1)
        want = dft_direct(f.samples, grid1d.period)
        got = dft_forward(f)
        worst = max(abs(coeff_at(got, xi) - c) for xi, c in want.items())
        assert worst <= 1e-12

    def test_forward_matches_direct_summation_2d(self):
        g = GridSpec(d=2, n=4)
        f, _ = random_trig(g, degree=1, seed=2)
        want = dft_direct(f.samples, g.period)
        got = dft_forward(f)
        worst = max(abs(coeff_at(got, xi) - c) for xi, c in want.items())
        assert worst <= 1e-12

    def test_parseval_direct_oracle(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=3)
        s = dft_forward(f)
        lhs = float(np.sum(np.abs(s.coeffs) ** 2))
        rhs = float(np.sum(np.abs(f.samples) ** 2)) / grid2d.npoints
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    @given(
        d=st.integers(min_value=1, max_value=3),
        logn=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_identity(self, d, logn, seed):
        g = GridSpec(d=d, n=2**logn)
        rng = np.random.default_rng(seed)
        f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        back = dft_inverse(dft_forward(f))
        assert rel_err(back.samples, f.samples) <= 1e-12

    @given(
        logn=st.integers(min_value=2, max_value=6),
        d=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_parseval_property(self, logn, d, seed):
        g = GridSpec(d=d, n=2**logn)
        rng = np.random.default_rng(seed)
        f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        s = dft_forward(f)
        lhs = float(np.sum(np.abs(s.coeffs) ** 2))
        rhs = float(np.sum(np.abs(f.samples) ** 2)) / g.npoints
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_delta_at_origin_is_constant_one(self, grid1d):
        f = field_from_modes(grid1d, {(0,): 1.0})
        assert rel_err(f.samples, np.ones(grid1d.shape)) <= 1e-14

    def test_half_pair_makes_cosine(self, grid1d):
        f = field_from_modes(grid1d, {(1,): 0.5, (-1,): 0.5}, is_real=True)
        x = grid1d.axis_points()
        assert rel_err(f.real_samples(), np.cos(x)) <= 1e-14

    def test_mode_outside_band_rejected(self, grid1d):
        with pytest.raises(FrequencyOverflowError):
            spectrum_from_modes(grid1d, {(4,): 1.0})

    def test_support(self, grid2d):
        s = spectrum_from_modes(grid2d, {(1, 2): 1.0, (-3, 0): 2.0})
        freqs, coeffs = support(s)
        found = {tuple(map(int, row)) for row in freqs}
        assert found == {(1, 2), (-3, 0)}
        assert coeffs.shape == (2,)


class TestDerivative:
    def test_sin_to_cos(self):
        g = GridSpec(d=1, n=16)
        x = g.axis_points()
        f = Field(g, np.sin(x), is_real=True)
        df = spectral_derivative(f, 0)
        assert rel_err(df.real_samples(), np.cos(x)) <= 1e-12

    def test_constant_to_zero(self, grid1d):
        f = Field(grid1d, np.ones(grid1d.shape), is_real=True)
        df = spectral_derivative(f, 0)
        assert float(np.max(np.abs(df.samples))) <= 1e-14

    def test_matches_term_by_term_oracle(self):
        g = GridSpec(d=2, n=16)
        f, modes = random_trig(g, degree=4, seed=5)
        for axis in range(2):
            want = modes_on_grid(diff_modes(modes, axis, g.period), g.d, g.n, g.period)
            got = spectral_derivative(f, axis)
            assert rel_err(got.samples, want) <= 1e-12

    def test_mixed_partials_commute(self, grid2d):
        # Each composition roundtrips through the inverse transform, so the
        # comparison is at machine roundoff rather than bit level.
        f, _ = random_trig(grid2d, degree=3, seed=6)
        d12 = spectral_derivative(spectral_derivative(f, 0), 1)
        d21 = spectral_derivative(spectral_derivative(f, 1), 0)
        c12 = dft_forward(d12).coeffs
        c21 = dft_forward(d21).coeffs
        assert rel_err(c12, c21) <= 1e-15

    def test_axis_out_of_range(self, grid1d):
        f = Field(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError):
            spectral_derivative(f, 1)


class TestDealiasedProduct:
    def test_plane_wave_square_exact(self, grid1d):
        f = field_from_modes(grid1d, {(1,): 1.0})
        prod = dealiased_product([f, f], pad_factor=2)
        want = field_from_modes(prod.grid, {(2,): 1.0})
        assert rel_err(prod.samples, want.samples) <= 1e-14

    def test_three_factors_match_convolution_oracle(self):
        g = GridSpec(d=1, n=16)
        fs, mode_dicts = [], []
        for seed in (7, 8, 9):
            f, modes = random_trig(g, degree=2, seed=seed)
            fs.append(f)
            mode_dicts.append(modes)
        prod = dealiased_product(fs, pad_factor=3)
        want = convolve_modes(convolve_modes(mode_dicts[0], mode_dicts[1]), mode_dicts[2])
        got = dft_forward(prod)
        worst = max(abs(coeff_at(got, xi) - c) for xi, c in want.items())
        scale = max(abs(c) for c in want.values())
        assert worst <= 1e-12 * scale

    def test_2d_pair_matches_convolution_oracle(self):
        # Combined degree 4 fits the retained band of n = 16, so the
        # restriction back to the input grid loses nothing.
        g = GridSpec(d=2, n=16)
        f, mf = random_trig(g, degree=2, seed=10)
        h, mh = random_trig(g, degree=2, seed=11)
        prod = dealiased_product([f, h], pad_factor=2)
        want = convolve_modes(mf, mh)
        got = dft_forward(prod)
        worst = max(abs(coeff_at(got, xi) - c) for xi, c in want.items())
        scale = max(abs(c) for c in want.values())
        assert worst <= 1e-12 * scale

    def test_identity_factor(self, grid1d):
        f, _ = random_trig(grid1d, degree=2, seed=20)
        one = Field(grid1d, np.ones(grid1d.shape), is_real=True)
        prod = dealiased_product([f, one], pad_factor=2)
        assert rel_err(prod.samples, f.samples) <= 1e-13

    def test_rejects_small_pad_factor(self, grid1d):
        f = Field(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError):
            dealiased_product([f, f, f], pad_factor=2)

    def test_padded_points_power_of_two(self):
        assert padded_points(8, 2) == 16
        assert padded_points(8, 3) == 32
        assert padded_points(16, 1) == 16


class TestPair:
    def test_constants_give_volume(self, grid1d):
        one = Field(grid1d, np.ones(grid1d.shape), is_real=True)
        assert pair(one, one) == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_sin_cos_orthogonal(self):
        g = GridSpec(d=1, n=16)
        x = g.axis_points()
        assert abs(pair(Field(g, np.sin(x)), Field(g, np.cos(x)))) <= 1e-12

    def test_matches_direct_quadrature(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=12)
        g, _ = random_trig(grid2d, degree=3, seed=13)
        want = quadrature_pair(f.samples, g.samples, grid2d.period)
        assert abs(pair(f, g) - want) <= 1e-12 * abs(want)

    def test_mismatched_grids_rejected(self, grid1d, grid2d):
        f = Field(grid1d, np.ones(grid1d.shape))
        g = Field(grid2d, np.ones(grid2d.shape))
        with pytest.raises(Exception):
            pair(f, g)


class TestDilation:
    def test_t_zero_is_identity(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=14)
        g = dilate_dyadic(f, 0)
        assert np.array_equal(g.samples, f.samples)

    def test_cosine_doubles_frequency(self):
        g = GridSpec(d=1, n=16)
        x = g.axis_points()
        f = Field(g, np.cos(x), is_real=True)
        ft = dilate_dyadic(f, 1)
        xt = ft.grid.axis_points()
        assert rel_err(ft.real_samples(), np.cos(2.0 * xt)) <= 1e-13

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_lp_norms_preserved(self, p):
        g = GridSpec(d=2, n=8)
        f, _ = random_trig(g, degree=3, seed=15)
        ft = dilate_dyadic(f, 2)
        before = quadrature_lp(f.samples, p, g.period)
        after = quadrature_lp(ft.samples, p, ft.grid.period)
        assert abs(after - before) <= 1e-12 * before

    def test_enlarges_grid_only_as_needed(self):
        g = GridSpec(d=1, n=16)
        low = field_from_modes(g, {(1,): 1.0, (-1,): 1.0})
        assert dilate_dyadic(low, 2).grid.n == 16
        full, _ = random_trig(g, degree=7, seed=16)
        assert dilate_dyadic(full, 1).grid.n == 32

    def test_regrid_refines_and_coarsens(self):
        g = GridSpec(d=1, n=8)
        f, modes = random_trig(g, degree=2, seed=17)
        fine = regrid_field(f, 32)
        want = modes_on_grid(modes, 1, 32, g.period)
        assert rel_err(fine.samples, want) <= 1e-12
        back = regrid_field(fine, 8)
        assert rel_err(back.samples, f.samples) <= 1e-12

    def test_product_on_grid_matches_oracle(self):
        g = GridSpec(d=1, n=8)
        f, mf = random_trig(g, degree=2, seed=18)
        h, mh = random_trig(g, degree=2, seed=19)
        prod = product_on_grid([f, h], 32)
        want = modes_on_grid(mf, 1, 32, g.period) * modes_on_grid(mh, 1, 32, g.period)
        assert rel_err(prod.samples, want) <= 1e-12
