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
    field_from_modes,
    grad_sup_norms,
    holder_conjugate,
    lp_norm,
    sobolev_wkp_norm,
    spectral_derivative,
)
from conftest import random_trig, rel_err
from oracles import diff_modes, fd_gradient_sup, modes_on_grid, quadrature_lp


class TestLpNorm:
    def test_constant_on_circle(self, grid1d):
        one = Field(grid1d, np.ones(grid1d.shape), is_real=True)
        assert lp_norm(one, 2.0) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_matches_summation_oracle_p4(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=21)
        want = quadrature_lp(f.samples, 4.0, grid2d.period)
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
        h = grid2d.period / grid2d.n
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
        lap = spectral_derivative(spectral_derivative(f, 0), 0).samples
        lap = lap + spectral_derivative(spectral_derivative(f, 1), 1).samples
        want = f.samples - lap
        assert rel_err(got.samples, want) <= 1e-10


class TestBesselNorm:
    def test_s_zero_equals_lp(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=25)
        for p in (1.0, 2.0, 3.0):
            assert bessel_norm(f, p, 0.0) == pytest.approx(lp_norm(f, p), rel=1e-13)

    def test_plancherel_p2(self):
        # (sum over xi of (1+|k xi|^2)^s |c_xi|^2 * period^d) ** 0.5
        g = GridSpec(d=2, n=16)
        f, modes = random_trig(g, degree=4, seed=26)
        for s in (0.0, 0.5, 1.0, 4.0 / 3.0):
            total = 0.0
            for xi, c in modes.items():
                k2 = sum((g.kscale * x) ** 2 for x in xi)
                total += (1.0 + k2) ** s * abs(c) ** 2
            want = math.sqrt(total * g.period**g.d)
            assert bessel_norm(f, 2.0, s) == pytest.approx(want, rel=1e-10)

    def test_sobolev_identity_s1(self):
        g = GridSpec(d=2, n=16)
        f, _ = random_trig(g, degree=4, seed=27)
        lhs = bessel_norm(f, 2.0, 1.0) ** 2
        rhs = lp_norm(f, 2.0) ** 2
        for axis in range(2):
            rhs += lp_norm(spectral_derivative(f, axis), 2.0) ** 2
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_monotone_in_s(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=28)
        values = [bessel_norm(f, 3.0, s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b * (1.0 + 1e-12) for a, b in zip(values, values[1:]))


class TestSobolevNorm:
    def test_k_zero_is_lp(self, grid2d):
        f, _ = random_trig(grid2d, degree=3, seed=29)
        assert sobolev_wkp_norm(f, 0, 3.0) == pytest.approx(lp_norm(f, 3.0), rel=1e-13)

    def test_sine_w12(self):
        g = GridSpec(d=1, n=16)
        x = g.axis_points()
        f = Field(g, np.sin(x), is_real=True)
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
                    m = diff_modes(m, axis, g.period)
            vals = modes_on_grid(m, g.d, g.n, g.period)
            want += quadrature_lp(vals, 2.0, g.period)
        assert sobolev_wkp_norm(f, 2, 2.0) == pytest.approx(want, rel=1e-11)

    def test_rejects_negative_order(self, grid1d):
        f = Field(grid1d, np.ones(grid1d.shape))
        with pytest.raises(ValueError):
            sobolev_wkp_norm(f, -1, 2.0)


class TestGradSupNorms:
    def test_constant_is_zero(self, grid2d):
        one = Field(grid2d, np.ones(grid2d.shape), is_real=True)
        assert grad_sup_norms(one, 1) <= 1e-14
        assert grad_sup_norms(one, 2) <= 1e-14

    def test_sine_order_one(self):
        g = GridSpec(d=1, n=32)
        x = g.axis_points()
        f = Field(g, np.sin(x), is_real=True)
        assert grad_sup_norms(f, 1) == pytest.approx(1.0, abs=1e-10)

    def test_matches_finite_difference_scan(self):
        # The cross-check targets the derivative values: finite differences
        # on a dense direct evaluation, max over the library's own lattice.
        g = GridSpec(d=2, n=16)
        f, modes = random_trig(g, degree=3, seed=31)
        want = fd_gradient_sup(modes, d=2, n_fine=128, period=g.period, n_coarse=16)
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
