"""Lebesgue, Bessel-potential, and Sobolev norms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlab import (
    Field,
    GridSpec,
    bessel_norm,
    bessel_potential,
    dft_forward,
    dilate_dyadic,
    field_from_modes,
    grad_sup_norms,
    holder_conjugate,
    lp_norm,
    sobolev_wkp_norm,
    spectral_derivative,
)
from mlab.errors import GridMismatchError
from mlab.spaces import bessel_norms

from conftest import random_trig, rel_err, tiled, unit
from oracles import TWO_PI, diff_modes, fd_gradient_sup, modes_on_grid, quadrature_lp


class TestLpNorm:
    def test_constant_on_circle(self, grid1d):
        one = Field(grid1d, np.ones(grid1d.shape))
        assert lp_norm(one, 2.0) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_matches_summation_oracle_p4(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=21)
        want = quadrature_lp(f.samples, 4.0)
        assert lp_norm(f, 4.0) == pytest.approx(want, rel=1e-13)

    def test_sup_norm(self, grid1d):
        f, _ = random_trig(grid1d, degree=2, seed=22)
        assert lp_norm(f, math.inf) == pytest.approx(float(np.max(np.abs(f.samples))))

    def test_rejects_bad_exponent(self, grid1d):
        f = Field(grid1d, np.ones(grid1d.shape))
        for p in (0.0, -1.0):
            with pytest.raises(ValueError):
                lp_norm(f, p)

    def test_quasi_norm_matches_sample_sum(self, grid2d):
        # Parseval does not reach p < 1; the oracle is the direct sample sum
        # (h^d sum_x |f(x)|^p)^(1/p) with h the grid spacing.
        f, _ = random_trig(grid2d, degree=3, seed=24)
        h = TWO_PI / grid2d.n
        want = (h**2 * sum(abs(v) ** 0.5 for v in f.samples.ravel())) ** 2
        assert lp_norm(f, 0.5) == pytest.approx(want, rel=1e-13)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_triangle_inequality(self, seed):
        g = GridSpec(d=1, n=16)
        rng = np.random.default_rng(seed)
        a = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        b = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        ab = Field(g, a.samples + b.samples)
        for p in (1.0, 2.0, 4.0, math.inf):
            assert lp_norm(ab, p) <= lp_norm(a, p) + lp_norm(b, p) + 1e-12


class TestBesselPotential:
    def test_s_zero_is_identity(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=23)
        g = bessel_potential(f, 0.0)
        assert rel_err(g.samples, f.samples) <= 1e-13

    def test_single_mode_scaling(self):
        g = GridSpec(d=2, n=16)
        f = field_from_modes(g, {(3, 4): 1.0})
        out = bessel_potential(f, 1.5)
        want = (1.0 + 25.0) ** 0.75
        got = dft_forward(out)
        from mlab import coeff_at

        assert coeff_at(got, (3, 4)) == pytest.approx(want, rel=1e-13)

    def test_s_two_is_one_minus_laplacian(self):
        g = GridSpec(d=2, n=16)
        f, _ = random_trig(g, degree=4, seed=24)
        got = bessel_potential(f, 2.0)
        lap = spectral_derivative(f, (2, 0)).samples + spectral_derivative(f, (0, 2)).samples
        want = f.samples - lap
        assert rel_err(got.samples, want) <= 1e-10


class TestBesselNorm:
    def test_s_zero_equals_lp(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=25)
        for p in (1.0, 2.0, 3.0):
            assert bessel_norm(f, p, 0.0) == pytest.approx(lp_norm(f, p), rel=1e-13)

    def test_plancherel_p2(self):
        # (sum over xi of (1+|xi|^2)^s |c_xi|^2 * (2 pi)^d) ** 0.5
        g = GridSpec(d=2, n=16)
        f, modes = random_trig(g, degree=4, seed=26)
        for s in (0.0, 0.5, 1.0, 4.0 / 3.0):
            total = 0.0
            for xi, c in modes.items():
                k2 = sum(x**2 for x in xi)
                total += (1.0 + k2) ** s * abs(c) ** 2
            want = math.sqrt(total * TWO_PI**g.d)
            assert bessel_norm(f, 2.0, s) == pytest.approx(want, rel=1e-10)

    def test_sobolev_identity_s1(self):
        g = GridSpec(d=2, n=16)
        f, _ = random_trig(g, degree=4, seed=27)
        lhs = bessel_norm(f, 2.0, 1.0) ** 2
        rhs = lp_norm(f, 2.0) ** 2
        for axis in range(2):
            rhs += lp_norm(spectral_derivative(f, unit(2, axis)), 2.0) ** 2
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_monotone_in_s(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=28)
        values = [bessel_norm(f, 3.0, s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b * (1.0 + 1e-12) for a, b in zip(values, values[1:]))


class TestBesselNorms:
    def test_batch_matches_one_norm_at_a_time(self, grid2d):
        fs = [random_trig(grid2d, degree=3, seed=29 + i)[0] for i in range(2)]
        specs = [dft_forward(f) for f in fs]
        ps = [1.5, 3.0, 3.0]
        got = bessel_norms([specs[0], specs[1], specs[0]], ps, 0.7)
        want = [bessel_norm(f, p, 0.7) for f, p in zip([fs[0], fs[1], fs[0]], ps)]
        assert got == want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_p2_parseval_matches_quadrature(self, d):
        # p = 2 reads the weighted coefficients; the quadrature of the
        # inverted potential is its oracle, on dilated grids too.
        g = GridSpec(d=d, n=8)
        f, _ = random_trig(g, degree=3, seed=34 + d)
        spec = dft_forward(f)
        for t in range(4):
            for s in (0.0, 0.5, 4.0 / 3.0):
                (got,) = bessel_norms([dilate_dyadic(spec, t)], [2.0], s)
                want = lp_norm(bessel_potential(dilate_dyadic(f, t), s), 2.0)
                assert abs(got - want) <= 1e-13 * want

    def test_mixed_batch_keeps_quadrature_for_other_exponents(self, grid2d):
        fs = [random_trig(grid2d, degree=3, seed=38 + i)[0] for i in range(2)]
        specs = [dilate_dyadic(dft_forward(f), 1) for f in fs]
        norms = bessel_norms([specs[0], specs[0], specs[1], specs[1]],
                             [2.0, 3.0, 3.0, 2.0], 0.7)
        want = [lp_norm(bessel_potential(dilate_dyadic(f, 1), 0.7), 3.0) for f in fs]
        assert [norms[1], norms[2]] == want
        for j, f in ((0, fs[0]), (3, fs[1])):
            quadrature = lp_norm(bessel_potential(dilate_dyadic(f, 1), 0.7), 2.0)
            assert abs(norms[j] - quadrature) <= 1e-13 * quadrature

    @pytest.mark.parametrize("t", [1, 2])
    def test_dilated_spectra_match_tiled_fields(self, t):
        g = GridSpec(d=2, n=8)
        f, _ = random_trig(g, degree=3, seed=31)
        ft = dilate_dyadic(f, t)
        (got,) = bessel_norms([dilate_dyadic(dft_forward(f), t)], [2.4], 0.8)
        want = bessel_norm(tiled(ft), 2.4, 0.8)
        assert abs(got - want) <= 1e-12 * want

    def test_repeated_spectrum_costs_one_inverse(self, grid2d, monkeypatch):
        # Dilations of one spectrum share its array: one potential for all
        # of them, one lp_norm per distinct exponent.
        from mlab import spaces

        spec = dft_forward(random_trig(grid2d, degree=3, seed=32)[0])
        calls = {"inverse": 0, "lp": 0}
        inverse, lp = spaces.apply_multiplier, spaces.lp_norm

        def counted_inverse(*args, **kwargs):
            calls["inverse"] += 1
            return inverse(*args, **kwargs)

        def counted_lp(*args, **kwargs):
            calls["lp"] += 1
            return lp(*args, **kwargs)

        monkeypatch.setattr(spaces, "apply_multiplier", counted_inverse)
        monkeypatch.setattr(spaces, "lp_norm", counted_lp)
        slots = [dilate_dyadic(spec, 1) for _ in range(3)]
        norms = bessel_norms(slots, [3.0, 3.0, 1.5], 1.0)
        assert calls == {"inverse": 1, "lp": 2} and norms[0] == norms[1]

    def test_p2_inverts_no_potential(self, grid2d, monkeypatch):
        from mlab import spaces

        def no_inverse(*args, **kwargs):
            raise AssertionError("a p = 2 norm inverted its potential")

        spec = dilate_dyadic(dft_forward(random_trig(grid2d, degree=3, seed=40)[0]), 2)
        monkeypatch.setattr(spaces, "apply_multiplier", no_inverse)
        assert bessel_norms([spec, spec], [2.0, 2], 1.0)[0] > 0

    def test_rejects_mixed_grids_and_lengths(self, grid2d):
        spec = dft_forward(random_trig(grid2d, degree=2, seed=33)[0])
        with pytest.raises(GridMismatchError):
            bessel_norms([spec, dilate_dyadic(spec, 1)], [2.0, 2.0], 1.0)
        with pytest.raises(GridMismatchError):
            bessel_norms([], [], 1.0)
        with pytest.raises(ValueError):
            bessel_norms([spec], [2.0, 2.0], 1.0)


class TestSobolevNorm:
    def test_k_zero_is_lp(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=29)
        assert sobolev_wkp_norm(f, 0, 3.0) == pytest.approx(lp_norm(f, 3.0), rel=1e-13)

    def test_sine_w12(self):
        g = GridSpec(d=1, n=16)
        x = g.axis_points()
        f = Field(g, np.sin(x))
        # ||sin||_2 + ||cos||_2 = 2 sqrt(pi) on [0, 2pi)
        assert sobolev_wkp_norm(f, 1, 2.0) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_matches_term_by_term_oracle_k2(self):
        g = GridSpec(d=2, n=16)
        f, modes = random_trig(g, degree=3, seed=30)
        want = 0.0
        # alpha over |alpha| <= 2 in 2d: (0,0),(1,0),(0,1),(2,0),(1,1),(0,2)
        for alpha in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            m = dict(modes)
            for axis, reps in enumerate(alpha):
                for _ in range(reps):
                    m = diff_modes(m, axis)
            vals = modes_on_grid(m, g.d, g.n)
            want += quadrature_lp(vals, 2.0)
        assert sobolev_wkp_norm(f, 2, 2.0) == pytest.approx(want, rel=1e-11)

    def test_rejects_negative_order(self, grid1d):
        f = Field(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError):
            sobolev_wkp_norm(f, -1, 2.0)


class TestGradSupNorms:
    def test_constant_is_zero(self, grid2d):
        one = Field(grid2d, np.ones(grid2d.shape))
        assert grad_sup_norms(one, 1) <= 1e-14
        assert grad_sup_norms(one, 2) <= 1e-14

    def test_sine_order_one(self):
        g = GridSpec(d=1, n=32)
        x = g.axis_points()
        f = Field(g, np.sin(x))
        assert grad_sup_norms(f, 1) == pytest.approx(1.0, abs=1e-10)

    def test_matches_finite_difference_scan(self):
        # The cross-check targets the derivative values: finite differences
        # on a dense direct evaluation, max over the library's own lattice.
        g = GridSpec(d=2, n=16)
        f, modes = random_trig(g, degree=3, seed=31)
        want = fd_gradient_sup(modes, d=2, n_fine=128, n_coarse=16)
        got = grad_sup_norms(f, 1)
        assert got == pytest.approx(want, rel=1e-4)

    def test_rejects_bad_order(self, grid1d):
        f = Field(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError):
            grad_sup_norms(f, 3)


class TestConjugates:
    def test_holder_conjugate_values(self):
        assert holder_conjugate(2.0) == 2.0
        assert holder_conjugate(1.0) == math.inf
        assert holder_conjugate(math.inf) == 1.0
        assert holder_conjugate(4.0) == pytest.approx(4.0 / 3.0)
        with pytest.raises(ValueError):
            holder_conjugate(0.5)
