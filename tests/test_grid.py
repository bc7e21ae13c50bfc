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
    lp_norm,
    pair,
    spectral_derivative,
    spectrum_from_modes,
    support,
)
from mlab.grid import (
    active_in_band,
    active_modes,
    apply_multiplier,
    apply_multipliers,
    derivative_multiplier,
    noise_floor,
    padded_inverse,
    padded_points,
    pair_spectra,
    product_on_grid,
    regrid_field,
    regrid_spectrum,
)
from mlab.errors import GridMismatchError
from mlab.spaces import multi_indices

from conftest import random_trig, rel_err, tiled, unit
from oracles import (
    convolve_modes,
    dft_direct,
    diff_modes,
    fft_forward_reference,
    fft_inverse_reference,
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

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            GridSpec(d=0, n=8)

    def test_axis_points_and_spacing(self):
        g = GridSpec(d=1, n=8)
        assert g.spacing == 2.0 * math.pi / 8
        assert np.allclose(g.axis_points(), g.spacing * np.arange(8))

    def test_dilated_grid(self):
        g = GridSpec(d=2, n=8).dilated(2)
        assert g == GridSpec(d=2, n=8, t=2) == GridSpec(2, 8, 2) and g.with_n(16).t == 2
        assert list(g.freqs()) == [0, 4, 8, 12, -16, -12, -8, -4]
        assert g.spacing == 2.0 * math.pi / 32 and g.axis_points()[1] == g.spacing
        with pytest.raises(ValueError):
            GridSpec(d=1, n=8, t=-1)

    def test_freqs_storage_order(self):
        g = GridSpec(d=1, n=8)
        assert list(g.freqs()) == [0, 1, 2, 3, -4, -3, -2, -1]

    @pytest.mark.parametrize("n, t_last", [(8, 59), (4, 60), (16, 58)])
    def test_refuses_frequencies_beyond_int64(self, n, t_last):
        # n 2^t < 2^63 keeps every frequency 2^t k, |k| <= n/2, in int64;
        # at t = 62 the n = 8 frequencies once wrapped around silently.
        g = GridSpec(d=2, n=n, t=t_last)
        assert g.freqs().max() == (n // 2 - 1) << t_last
        assert g.freqs().min() == -(n // 2 << t_last)
        with pytest.raises(ValueError, match="overflow int64"):
            GridSpec(d=2, n=n, t=t_last + 1)
        with pytest.raises(ValueError, match="overflow int64"):
            g.dilated(1)
        with pytest.raises(ValueError, match="overflow int64"):
            g.with_n(2 * n)


class TestTransforms:
    def test_forward_matches_direct_summation_1d(self, grid1d):
        f, _ = random_trig(grid1d, degree=3, seed=1)
        want = dft_direct(f.samples)
        got = dft_forward(f)
        worst = max(abs(coeff_at(got, xi) - c) for xi, c in want.items())
        assert worst <= 1e-12

    def test_forward_matches_direct_summation_2d(self):
        g = GridSpec(d=2, n=4)
        f, _ = random_trig(g, degree=1, seed=2)
        want = dft_direct(f.samples)
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
        f = field_from_modes(grid1d, {(1,): 0.5, (-1,): 0.5})
        x = grid1d.axis_points()
        assert rel_err(f.samples.real, np.cos(x)) <= 1e-14

    def test_mode_outside_band_rejected(self, grid1d):
        with pytest.raises(FrequencyOverflowError):
            spectrum_from_modes(grid1d, {(4,): 1.0})

    def test_support(self, grid2d):
        s = spectrum_from_modes(grid2d, {(1, 2): 1.0, (-3, 0): 2.0})
        freqs, coeffs = support(s)
        found = {tuple(map(int, row)) for row in freqs}
        assert found == {(1, 2), (-3, 0)}
        assert coeffs.shape == (2,)

    def test_active_modes_drop_the_noise_floor(self, grid2d):
        s = spectrum_from_modes(
            grid2d, {(1, 2): 1.0, (-3, 0): 2.0, (2, 2): 2e-15, (0, 1): 3e-15}
        )
        assert noise_floor(s) == 2e-15
        freqs, coeffs = active_modes(s)
        assert {tuple(map(int, row)) for row in freqs} == {(1, 2), (-3, 0), (0, 1)}
        assert sorted(abs(coeffs)) == [3e-15, 1.0, 2.0]


class TestDerivative:
    def test_sin_to_cos(self):
        g = GridSpec(d=1, n=16)
        x = g.axis_points()
        f = Field(g, np.sin(x))
        df = spectral_derivative(f, (1,))
        assert rel_err(df.samples.real, np.cos(x)) <= 1e-12

    def test_constant_to_zero(self, grid1d):
        f = Field(grid1d, np.ones(grid1d.shape))
        df = spectral_derivative(f, (1,))
        assert float(np.max(np.abs(df.samples))) <= 1e-14

    def test_matches_term_by_term_oracle(self):
        g = GridSpec(d=2, n=16)
        f, modes = random_trig(g, degree=4, seed=5)
        for axis in range(2):
            want = modes_on_grid(diff_modes(modes, axis), g.d, g.n)
            got = spectral_derivative(f, unit(2, axis))
            assert rel_err(got.samples, want) <= 1e-12

    def test_mixed_partials_commute(self, grid2d):
        # Each composition roundtrips through the inverse transform, so the
        # comparison is at machine roundoff rather than bit level.
        f, _ = random_trig(grid2d, degree=3, seed=6)
        d12 = spectral_derivative(spectral_derivative(f, (1, 0)), (0, 1))
        d21 = spectral_derivative(spectral_derivative(f, (0, 1)), (1, 0))
        c12 = dft_forward(d12).coeffs
        c21 = dft_forward(d21).coeffs
        assert rel_err(c12, c21) <= 1e-15

    @pytest.mark.parametrize("t", [1, 2])
    def test_dilated_field_matches_tiled_grid(self, t):
        # Full band: the cell's Nyquist row -2^t n/2 is the tiled grid's own,
        # zeroed on both, while every interior row is differentiated.
        g = GridSpec(d=2, n=8)
        ft = dilate_dyadic(Field(g, np.random.default_rng(24).standard_normal(g.shape)), t)
        for axis in range(2):
            got = spectral_derivative(ft, unit(2, axis))
            want = spectral_derivative(tiled(ft), unit(2, axis))
            assert got.grid == ft.grid
            assert rel_err(tiled(got).samples, want.samples) <= 1e-13

    def test_axis_out_of_range(self, grid1d):
        f = Field(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError):
            spectral_derivative(f, (0, 1))


class TestApplyMultiplier:
    @pytest.mark.parametrize("t", [0, 2])
    @pytest.mark.parametrize("pad", [1, 2], ids=["n", "2n"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_derivative_matches_term_by_term_oracle(self, d, pad, t):
        # The dilated field has modes 2^t xi; its samples on the cell nodes
        # x_p / 2^t are those of the same coefficients at xi on x_p.
        g = GridSpec(d=d, n=8)
        _, modes = random_trig(g, degree=3, seed=40 + d, real=False)
        spec = dilate_dyadic(spectrum_from_modes(g, modes), t)
        n_out = pad * g.n
        for alpha in multi_indices(d, 2):
            want = {tuple(c << t for c in xi): v for xi, v in modes.items()}
            for axis, reps in enumerate(alpha):
                for _ in range(reps):
                    want = diff_modes(want, axis)
            want = {tuple(c >> t for c in xi): v for xi, v in want.items()}
            got = apply_multiplier(spec, derivative_multiplier(spec.grid, alpha), n_out)
            assert got.grid == spec.grid.with_n(n_out)
            assert rel_err(got.samples, modes_on_grid(want, d, n_out)) <= 1e-12

    def test_multiplier_is_the_product_of_first_derivatives(self, grid2d):
        m0, m1 = (derivative_multiplier(grid2d, unit(2, a)) for a in range(2))
        assert np.array_equal(derivative_multiplier(grid2d, (2, 1)), m0 * m0 * m1)
        assert np.array_equal(derivative_multiplier(grid2d, (0, 0)), np.ones((1, 1)))
        with pytest.raises(ValueError):
            derivative_multiplier(grid2d, (1, -1))


def _full_band(g: GridSpec, seed: int) -> Spectrum:
    """Complex coefficients on every mode, Nyquist rows included."""
    rng = np.random.default_rng(seed)
    return Spectrum(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))


def _multipliers(g: GridSpec) -> list[np.ndarray]:
    """Broadcast derivative multipliers, a full-shape Bessel weight and the
    constant one."""
    return [derivative_multiplier(g, unit(g.d, g.d - 1)),
            derivative_multiplier(g, (1,) * g.d),
            (1.0 + g.freq_radius() ** 2) ** -0.75,
            np.ones((1,) * g.d)]


N_OUTS = [4, 8, 16, 32]  # n/2, n, 2n, 4n of the n = 8 grids below


class TestTransformsAreTheReference:
    """Bitwise against numpy's FFT with the scaling applied afterwards, on
    coefficients padded frequency by frequency (``oracles``)."""

    @pytest.mark.parametrize("t", [0, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_forward_and_inverse(self, d, t):
        g = GridSpec(d=d, n=8, t=t)
        s = _full_band(g, 50 + d)
        f = dft_inverse(s)
        assert f.grid == g and np.array_equal(f.samples, fft_inverse_reference(s.coeffs, 8))
        back = dft_forward(f)
        assert back.grid == g and np.array_equal(back.coeffs, fft_forward_reference(f.samples))

    @pytest.mark.parametrize("n_out", N_OUTS)
    @pytest.mark.parametrize("t", [0, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_padded_inverse(self, d, t, n_out):
        s = _full_band(GridSpec(d=d, n=8, t=t), 60 + d)
        got = padded_inverse(s, n_out)
        assert got.grid == s.grid.with_n(n_out)
        assert np.array_equal(got.samples, fft_inverse_reference(s.coeffs, n_out))

    @pytest.mark.parametrize("n_out", N_OUTS)
    @pytest.mark.parametrize("t", [0, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_apply_multiplier(self, d, t, n_out):
        s = _full_band(GridSpec(d=d, n=8, t=t), 70 + d)
        for mult in _multipliers(s.grid):
            got = apply_multiplier(s, mult, n_out)
            assert got.grid == s.grid.with_n(n_out)
            assert np.array_equal(got.samples, fft_inverse_reference(s.coeffs * mult, n_out))

    @pytest.mark.parametrize("n_out", N_OUTS)
    @pytest.mark.parametrize("t", [0, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_apply_multipliers_stacks_two_spectra(self, d, t, n_out):
        g = GridSpec(d=d, n=8, t=t)
        a, b = _full_band(g, 80 + d), _full_band(g, 90 + d)
        terms = [(s, m) for m in _multipliers(g) for s in (a, b)]
        got = apply_multipliers(terms, n_out)
        assert got.shape == (len(terms),) + g.with_n(n_out).shape
        for row, (s, m) in zip(got, terms):
            assert np.array_equal(row, fft_inverse_reference(s.coeffs * m, n_out))

    def test_default_grid_is_the_spectra_grid(self, grid2d):
        s = _full_band(grid2d, 100)
        got = apply_multipliers([(s, np.ones((1, 1)))])
        assert np.array_equal(got[0], fft_inverse_reference(s.coeffs, grid2d.n))
        assert apply_multiplier(s, np.ones((1, 1))).grid == grid2d

    def test_refuses_an_empty_stack(self):
        with pytest.raises(ValueError, match="apply_multipliers"):
            apply_multipliers([])

    @pytest.mark.parametrize("other", [GridSpec(d=2, n=16), GridSpec(d=2, n=8, t=1)],
                             ids=["n", "t"])
    def test_refuses_spectra_on_two_grids(self, other):
        a = _full_band(GridSpec(d=2, n=8), 110)
        b = _full_band(other, 111)
        with pytest.raises(GridMismatchError):
            apply_multipliers([(a, np.ones((1, 1))), (b, np.ones((1, 1)))])

    @pytest.mark.parametrize("n_out", [0, 6, -8])
    def test_refuses_a_bad_output_grid(self, n_out):
        # Only None means the spectrum's own grid; 0 is refused like any bad n.
        s = _full_band(GridSpec(d=2, n=16), 120)
        for call in (lambda: apply_multiplier(s, np.ones((1, 1)), n_out),
                     lambda: apply_multipliers([(s, np.ones((1, 1)))], n_out)):
            with pytest.raises(ValueError, match=f"n must be a power of two >= 4, got {n_out}"):
                call()


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
        one = Field(grid1d, np.ones(grid1d.shape))
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
        one = Field(grid1d, np.ones(grid1d.shape))
        assert pair(one, one) == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_sin_cos_orthogonal(self):
        g = GridSpec(d=1, n=16)
        x = g.axis_points()
        assert abs(pair(Field(g, np.sin(x)), Field(g, np.cos(x)))) <= 1e-12

    def test_matches_direct_quadrature(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=12)
        g, _ = random_trig(grid2d, degree=3, seed=13)
        want = quadrature_pair(f.samples, g.samples)
        assert abs(pair(f, g) - want) <= 1e-12 * abs(want)

    def test_mismatched_grids_rejected(self, grid1d, grid2d):
        f = Field(grid1d, np.ones(grid1d.shape))
        g = Field(grid2d, np.ones(grid2d.shape))
        with pytest.raises(Exception):
            pair(f, g)

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_dilated_against_undilated_matches_tiled_quadrature(self, t):
        # A dilated field on an 8-point cell against a full-band 16-point
        # field: the exact pairing equals the quadrature of the tiled field
        # against the other one on their common refinement.
        f, _ = random_trig(GridSpec(d=2, n=8), degree=3, seed=21)
        g = Field(GridSpec(d=2, n=16), np.random.default_rng(22).standard_normal((16, 16)))
        ft = dilate_dyadic(f, t)
        full = tiled(ft)
        n = max(full.grid.n, 32)
        want = pair(regrid_field(full, n), regrid_field(g, n))
        assert abs(pair(ft, g) - want) <= 1e-13 * abs(want)
        assert abs(pair(g, ft) - want) <= 1e-13 * abs(want)


class TestDilation:
    def test_t_zero_is_identity(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=14)
        g = dilate_dyadic(f, 0)
        assert np.array_equal(g.samples, f.samples)

    def test_cosine_doubles_frequency(self):
        g = GridSpec(d=1, n=16)
        x = g.axis_points()
        f = Field(g, np.cos(x))
        ft = dilate_dyadic(f, 1)
        xt = ft.grid.axis_points()
        assert rel_err(ft.samples.real, np.cos(2.0 * xt)) <= 1e-13

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_lp_norms_preserved(self, p):
        g = GridSpec(d=2, n=8)
        f, _ = random_trig(g, degree=3, seed=15)
        ft = dilate_dyadic(f, 2)
        before = quadrature_lp(f.samples, p)
        after = quadrature_lp(tiled(ft).samples, p)
        assert abs(after - before) <= 1e-12 * before
        assert abs(lp_norm(ft, p) - after) <= 1e-14 * after

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_dilated_field_is_the_base_cell(self, t):
        # Band-limited or full band, f(2^t x) keeps f's samples, not copied,
        # as one cell of the grid with dyadic exponent t.
        g = GridSpec(d=1, n=16)
        low = field_from_modes(g, {(1,): 1.0, (-1,): 1.0})
        full, _ = random_trig(g, degree=7, seed=16)
        for f in (low, full):
            ft = dilate_dyadic(f, t)
            assert ft.grid == g.dilated(t) and ft.grid.n == 16
            assert np.shares_memory(ft.samples, f.samples)
            assert dilate_dyadic(ft, 1).grid == g.dilated(t + 1)

    @pytest.mark.parametrize("p", [1.0, 3.0, 4.0])
    def test_band_limited_lp_norms_preserved(self, p):
        # A 2x32 field of degree 3: the dilated samples are those of f, not a
        # subsample of them, so no quadrature norm moves.
        g = GridSpec(d=2, n=32)
        f, _ = random_trig(g, degree=3, seed=19)
        before = quadrature_lp(f.samples, p)
        for t in range(1, 4):
            after = quadrature_lp(tiled(dilate_dyadic(f, t)).samples, p)
            assert abs(after - before) <= 1e-12 * before

    @pytest.mark.parametrize("t", [1, 2])
    def test_full_band_spectrum_matches_tiled_grid(self, t):
        # Nyquist modes included: the cell's mode at -n/2 is -2^t n/2, the
        # Nyquist mode of the tiled grid, and no mode lies off the lattice.
        g = GridSpec(d=2, n=8)
        rng = np.random.default_rng(18)
        f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        cell = dft_forward(dilate_dyadic(f, t))
        full = dft_forward(tiled(dilate_dyadic(f, t)))
        freqs, values = support(cell)
        assert freqs.min() == -(8 << t) // 2
        want = np.array([coeff_at(full, tuple(xi)) for xi in freqs])
        assert rel_err(values, want) <= 1e-14
        lattice = np.zeros(full.grid.shape, dtype=bool)
        lattice[np.ix_(*[np.arange(0, 8 << t, 1 << t)] * 2)] = True
        assert np.max(np.abs(full.coeffs[~lattice])) <= 1e-14 * np.max(np.abs(values))

    def test_off_lattice_modes(self):
        # On a t = 2 grid only multiples of 4 are frequencies: reading one
        # elsewhere gives 0, building one there raises.
        g = GridSpec(d=2, n=8, t=2)
        s = spectrum_from_modes(g, {(4, -16): 1.0 + 2.0j, (0, 12): 3.0})
        assert coeff_at(s, (4, -16)) == 1.0 + 2.0j and coeff_at(s, (0, 12)) == 3.0
        for xi in [(1, -16), (4, -15), (2, 12), (0, 16), (-20, 0)]:
            assert coeff_at(s, xi) == 0.0
        with pytest.raises(ValueError, match="lattice"):
            spectrum_from_modes(g, {(2, 0): 1.0})
        with pytest.raises(FrequencyOverflowError):
            spectrum_from_modes(g, {(16, 0): 1.0})
        assert np.count_nonzero(s.coeffs) == 2

    @pytest.mark.parametrize("t", [0, 1, 3])
    def test_dilated_spectrum_is_the_dilated_fields(self, t):
        # The one dilation verb: a spectrum moves to the dilated grid with
        # its array, not copied, and equals the transform of the dilated field.
        f, _ = random_trig(GridSpec(d=2, n=8), degree=3, seed=23)
        spec = dft_forward(f)
        st_ = dilate_dyadic(spec, t)
        assert isinstance(st_, Spectrum) and st_.grid == f.grid.dilated(t)
        assert st_.coeffs is spec.coeffs
        assert np.array_equal(dft_forward(dilate_dyadic(f, t)).coeffs, st_.coeffs)
        with pytest.raises(ValueError):
            dilate_dyadic(spec, -1)

    def test_active_in_band_counts_the_paired_modes(self):
        # A mode counts when -2^t xi lies in phi's band, it is not the mean,
        # and its modulus exceeds tol.
        g = GridSpec(d=1, n=16)
        a = spectrum_from_modes(g, {(0,): 5.0, (1,): 1.0, (3,): 1e-3, (4,): 1.0, (5,): 1.0})
        phi = dft_forward(Field(GridSpec(d=1, n=8), np.ones(8)))
        assert active_in_band(a, phi, 0.0) == 3
        assert active_in_band(a, phi, 1e-2) == 2
        assert active_in_band(dilate_dyadic(a, 1), phi, 0.0) == 1  # only 2 * 1
        assert active_in_band(dilate_dyadic(a, 3), phi, 0.0) == 0
        # The modes it counts are those pair_spectra reads.
        b = spectrum_from_modes(g, {(5,): 1.0, (-4,): 1.0})
        assert active_in_band(b, phi, 0.0) == 0 and pair_spectra(b, phi) == 0

    def test_zero_field_stays_zero(self, grid2d):
        ft = dilate_dyadic(Field(grid2d, np.zeros(grid2d.shape)), 3)
        assert ft.grid == grid2d.dilated(3) and not np.any(ft.samples)

    def test_regrid_refines_and_coarsens(self):
        g = GridSpec(d=1, n=8)
        f, modes = random_trig(g, degree=2, seed=17)
        fine = regrid_field(f, 32)
        want = modes_on_grid(modes, 1, 32)
        assert rel_err(fine.samples, want) <= 1e-12
        back = regrid_field(fine, 8)
        assert rel_err(back.samples, f.samples) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("factor", [2, 4])
    def test_padded_inverse_equals_two_step_form_bitwise(self, d, factor):
        # Full band, Nyquist rows included: every line of the old grid is
        # nonzero, so each pass transforms all the lines it can.
        g = GridSpec(d=d, n=8)
        rng = np.random.default_rng(40 + d)
        s = Spectrum(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        got = padded_inverse(s, factor * g.n)
        want = dft_inverse(regrid_spectrum(s, factor * g.n))
        assert got.grid == want.grid
        assert got.samples.tobytes() == want.samples.tobytes()

    def test_product_on_grid_matches_oracle(self):
        g = GridSpec(d=1, n=8)
        f, mf = random_trig(g, degree=2, seed=18)
        h, mh = random_trig(g, degree=2, seed=19)
        prod = product_on_grid([f, h], 32)
        want = modes_on_grid(mf, 1, 32) * modes_on_grid(mh, 1, 32)
        assert rel_err(prod.samples, want) <= 1e-12
