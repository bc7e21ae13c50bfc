"""Determinant routes: pointwise vs multiplier numerics, exact identities."""

import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from mlab import (
    BudgetExceededError,
    Field,
    GridSpec,
    cofactor_matrix,
    field_from_modes,
    hessian_det_fourier,
    hessian_det_pointwise,
    jacobian_det_fourier,
    jacobian_det_pointwise,
    jacobian_matrix,
    lp_norm,
    pair,
    poly_const,
    poly_det,
    poly_var,
    random_poly,
    run_identity_suite,
    second_cofactor,
    symbolic_baer_jerison_check,
    symbolic_detPtau_average_check,
    symbolic_detPtau_check,
    symbolic_hessian2d_check,
    symbolic_piola_check,
)
from mlab.grid import padded_points

from conftest import random_trig, rel_l2
from oracles import det_cofactor, det_cofactor_grid, diff_modes, modes_on_grid


def _jacobian_oracle(mode_list, d, n_out, period):
    """Entry-wise mode differentiation, then cofactor determinants."""
    rows = []
    for modes in mode_list:
        rows.append(
            [modes_on_grid(diff_modes(modes, j, period), d, n_out, period)
             for j in range(d)]
        )
    mat = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    return det_cofactor_grid(mat)


class TestPointwiseRoutes:
    def test_jacobian_matches_cofactor_oracle_2d(self):
        g = GridSpec(d=2, n=8)
        u1, m1 = random_trig(g, degree=2, seed=120)
        u2, m2 = random_trig(g, degree=2, seed=121)
        got = jacobian_det_pointwise([u1, u2])
        n_out = padded_points(8, 2)
        want = _jacobian_oracle([m1, m2], 2, n_out, g.period)
        assert rel_l2(got.samples, want) <= 1e-12

    def test_jacobian_matches_cofactor_oracle_3d(self):
        g = GridSpec(d=3, n=4)
        us, ms = [], []
        for s in (122, 123, 124):
            u, m = random_trig(g, degree=1, seed=s)
            us.append(u)
            ms.append(m)
        got = jacobian_det_pointwise(us)
        want = _jacobian_oracle(ms, 3, padded_points(4, 3), g.period)
        assert rel_l2(got.samples, want) <= 1e-12

    def test_hessian_matches_cofactor_oracle_2d(self):
        g = GridSpec(d=2, n=8)
        u, m = random_trig(g, degree=2, seed=125)
        got = hessian_det_pointwise(u)
        n_out = padded_points(8, 2)
        rows = []
        for i in range(2):
            di = diff_modes(m, i, g.period)
            rows.append(
                [modes_on_grid(diff_modes(di, j, g.period), 2, n_out, g.period)
                 for j in range(2)]
            )
        mat = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
        want = det_cofactor_grid(mat)
        assert rel_l2(got.samples, want) <= 1e-12

    def test_component_count_enforced(self):
        g = GridSpec(d=2, n=8)
        u, _ = random_trig(g, degree=1, seed=126)
        with pytest.raises(ValueError):
            jacobian_det_pointwise([u])


class TestFourierRoutes:
    def test_jacobian_separable_sines(self):
        g = GridSpec(d=2, n=16)
        u1 = field_from_modes(g, {(1, 0): -0.5j, (-1, 0): 0.5j})   # sin x1
        u2 = field_from_modes(g, {(0, 1): -0.5j, (0, -1): 0.5j})   # sin x2
        got = jacobian_det_fourier([u1, u2])
        x1, x2 = np.meshgrid(got.grid.axis_points(), got.grid.axis_points(), indexing="ij")
        want = np.cos(x1) * np.cos(x2)
        assert rel_l2(got.samples, want) <= 1e-10

    def test_hessian_cosine_sum(self):
        g = GridSpec(d=2, n=16)
        u = field_from_modes(
            g, {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5}
        )
        got = hessian_det_fourier(u)
        x1, x2 = np.meshgrid(got.grid.axis_points(), got.grid.axis_points(), indexing="ij")
        want = np.cos(x1) * np.cos(x2)
        assert rel_l2(got.samples, want) <= 1e-10

    def test_hessian_of_plane_wave_vanishes(self):
        g = GridSpec(d=2, n=16)
        u = field_from_modes(g, {(2, 1): 0.5, (-2, -1): 0.5})
        got = hessian_det_fourier(u)
        # Collinear frequency tuples annihilate the integer determinant
        # exactly, so the output coefficients are exact zeros.
        assert float(np.max(np.abs(got.samples))) == 0.0

    @pytest.mark.parametrize("d,n,deg", [(2, 16, 3), (3, 8, 2)])
    def test_jacobian_routes_agree(self, d, n, deg):
        g = GridSpec(d=d, n=n)
        us = [random_trig(g, degree=deg, seed=130 + 10 * d + i)[0] for i in range(d)]
        a = jacobian_det_fourier(us)
        b = jacobian_det_pointwise(us)
        assert a.grid == b.grid
        assert rel_l2(a.samples, b.samples) <= 1e-9

    @pytest.mark.parametrize("d,n,deg", [(2, 16, 3), (3, 8, 2)])
    def test_hessian_routes_agree(self, d, n, deg):
        g = GridSpec(d=d, n=n)
        u, _ = random_trig(g, degree=deg, seed=140 + d)
        a = hessian_det_fourier(u)
        b = hessian_det_pointwise(u)
        assert a.grid == b.grid
        assert rel_l2(a.samples, b.samples) <= 1e-9

    def test_component_swap_flips_sign(self):
        g = GridSpec(d=2, n=8)
        u1, _ = random_trig(g, degree=2, seed=150)
        u2, _ = random_trig(g, degree=2, seed=151)
        a = jacobian_det_fourier([u1, u2])
        b = jacobian_det_fourier([u2, u1])
        # One transform round trip separates the two evaluations, so the
        # antisymmetry holds to rounding rather than bitwise.
        scale = float(np.max(np.abs(a.samples)))
        assert float(np.max(np.abs(a.samples + b.samples))) <= 1e-13 * scale

    def test_jacobian_det_has_zero_mean(self):
        g = GridSpec(d=2, n=16)
        us = [random_trig(g, degree=3, seed=152 + i)[0] for i in range(2)]
        detJ = jacobian_det_fourier(us)
        one = Field(detJ.grid, np.ones(detJ.grid.shape))
        total = pair(detJ, one)
        scale = lp_norm(detJ, 2.0) * lp_norm(one, 2.0)
        assert abs(total) <= 1e-10 * scale

    def test_over_budget_raises(self, monkeypatch):
        # 2x8 inputs of degree 3 have 49 active modes each, so both routes
        # enumerate 49^2 = 2401 tuples; over budget they raise, never
        # truncate the band.
        g = GridSpec(d=2, n=8)
        us = [random_trig(g, degree=3, seed=154 + i)[0] for i in range(2)]
        monkeypatch.setenv("MLAB_BUDGET", "1000")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceededError, match="exceeds budget 1000"):
                jacobian_det_fourier(us)
            with pytest.raises(BudgetExceededError, match="exceeds budget 1000"):
                hessian_det_fourier(us[0])

    def test_dimension_one_rejected(self):
        g = GridSpec(d=1, n=8)
        u, _ = random_trig(g, degree=2, seed=156)
        with pytest.raises(ValueError):
            jacobian_det_fourier([u])


class TestSymbolicIdentities:
    def test_piola_identity_map(self):
        us = [poly_var(2, 0), poly_var(2, 1)]
        rep = symbolic_piola_check(2, us)
        assert rep.passed and rep.identity == "piola"

    @pytest.mark.parametrize("d,deg", [(2, 3), (3, 2), (4, 2)])
    def test_piola_random(self, d, deg):
        import random as _random

        rng = _random.Random(200 + d)
        for _ in range(3):
            us = [random_poly(d, deg, rng) for _ in range(d)]
            assert symbolic_piola_check(d, us).passed

    def test_piola_dimension_guard(self):
        with pytest.raises(ValueError):
            symbolic_piola_check(5, [poly_var(5, i) for i in range(5)])

    def test_hessian2d_random(self):
        import random as _random

        rng = _random.Random(210)
        for _ in range(5):
            assert symbolic_hessian2d_check(random_poly(2, 4, rng)).passed

    def test_detPtau_identity_perm_numeric_oracle(self):
        import random as _random

        rng = _random.Random(220)
        for d in (2, 3):
            for tau in permutations(range(d)):
                nus = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
                rep = symbolic_detPtau_check(d, tau, nus)
                assert rep.passed
                # Independent evaluation of both sides with Fractions.
                P = [
                    [Fraction(nus[tau[i]][i] * nus[tau[i]][r]) for i in range(d)]
                    for r in range(d)
                ]
                V = [[Fraction(nus[i][r]) for i in range(d)] for r in range(d)]
                from oracles import perm_sign_by_inversions

                rhs = Fraction(perm_sign_by_inversions(tau))
                for i in range(d):
                    rhs *= nus[tau[i]][i]
                rhs *= det_cofactor(V)
                assert det_cofactor(P) == rhs

    def test_detPtau_formal_all_taus_d3(self):
        for tau in permutations(range(3)):
            assert symbolic_detPtau_check(3, tau, None).passed

    def test_detPtau_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            symbolic_detPtau_check(2, (0, 0))

    @pytest.mark.parametrize("d", [2, 3])
    def test_detPtau_average(self, d):
        rep = symbolic_detPtau_average_check(d)
        assert rep.passed and rep.identity == "det-P-tau-average"

    def test_detPtau_average_numeric_oracle(self):
        import random as _random

        rng = _random.Random(230)
        d = 3
        nus = [[Fraction(rng.randint(-5, 5)) for _ in range(d)] for _ in range(d)]
        total = Fraction(0)
        for tau in permutations(range(d)):
            P = [
                [nus[tau[i]][i] * nus[tau[i]][r] for i in range(d)]
                for r in range(d)
            ]
            total += det_cofactor(P)
        V = [[nus[i][r] for i in range(d)] for r in range(d)]
        assert total == det_cofactor(V) ** 2

    @pytest.mark.parametrize("d,deg", [(2, 3), (3, 2)])
    def test_baer_jerison_random(self, d, deg):
        import random as _random

        rng = _random.Random(240 + d)
        for _ in range(3):
            assert symbolic_baer_jerison_check(d, random_poly(d, deg, rng)).passed

    def test_second_cofactor_vanishes_on_equal_indices(self):
        H = [[poly_var(4, 2 * i + j) for j in range(2)] for i in range(2)]
        assert second_cofactor(H, 0, 0, 0, 1).is_zero
        assert second_cofactor(H, 0, 0, 1, 0).is_zero

    def test_cofactor_matrix_2x2(self):
        a, b = poly_var(4, 0), poly_var(4, 1)
        c, d_ = poly_var(4, 2), poly_var(4, 3)
        cof = cofactor_matrix([[a, b], [c, d_]])
        assert cof[0][0].terms == d_.terms
        assert cof[0][1].terms == (-c).terms
        assert cof[1][0].terms == (-b).terms
        assert cof[1][1].terms == a.terms

    def test_jacobian_matrix_shape_guard(self):
        with pytest.raises(ValueError):
            jacobian_matrix([poly_var(2, 0)])


class TestIdentitySuite:
    def test_full_suite_passes(self):
        reports = run_identity_suite(instances=2, seed=3)
        assert all(r.passed for r in reports)
        names = {r.identity for r in reports}
        assert names == {
            "piola",
            "hessian-2d",
            "det-P-tau",
            "det-P-tau-average",
            "baer-jerison",
        }
        for r in reports:
            assert r.residual == "0"
            d = r.to_dict()
            assert d["passed"] is True
