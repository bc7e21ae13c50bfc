"""Determinant routes: pointwise vs multiplier numerics, exact identities."""

import warnings
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from mlab import (
    BudgetExceededError,
    DetReport,
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
    poly_zero,
    random_poly,
    run_identity_suite,
    second_cofactor,
    symbolic_baer_jerison_check,
    symbolic_detPtau_average_check,
    symbolic_detPtau_check,
    symbolic_hessian2d_check,
    symbolic_piola_check,
)
from mlab import determinants
from mlab.grid import (
    Spectrum, _band_block, apply_multiplier, derivative_multiplier, dft_forward,
    dilate_dyadic, padded_points, regrid_field, spectral_derivative,
)
from mlab.harness import _sweep_det_n, random_field

from conftest import random_trig, rel_l2, unit
from oracles import det_cofactor, det_cofactor_grid, diff_modes, modes_on_grid


def _jacobian_oracle(mode_list, d, n_out):
    """Entry-wise mode differentiation, then cofactor determinants."""
    rows = []
    for modes in mode_list:
        rows.append([modes_on_grid(diff_modes(modes, j), d, n_out) for j in range(d)])
    mat = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    return det_cofactor_grid(mat)


class TestPointwiseRoutes:
    def test_jacobian_matches_cofactor_oracle_2d(self):
        g = GridSpec(d=2, n=8)
        u1, m1 = random_trig(g, degree=2, seed=120)
        u2, m2 = random_trig(g, degree=2, seed=121)
        got = jacobian_det_pointwise([u1, u2])
        n_out = padded_points(8, 2)
        want = _jacobian_oracle([m1, m2], 2, n_out)
        assert rel_l2(got.samples, want) <= 1e-12

    def test_jacobian_matches_cofactor_oracle_3d(self):
        g = GridSpec(d=3, n=4)
        us, ms = [], []
        for s in (122, 123, 124):
            u, m = random_trig(g, degree=1, seed=s)
            us.append(u)
            ms.append(m)
        got = jacobian_det_pointwise(us)
        want = _jacobian_oracle(ms, 3, padded_points(4, 3))
        assert rel_l2(got.samples, want) <= 1e-12

    def test_hessian_matches_cofactor_oracle_2d(self):
        g = GridSpec(d=2, n=8)
        u, m = random_trig(g, degree=2, seed=125)
        got = hessian_det_pointwise(u)
        n_out = padded_points(8, 2)
        rows = []
        for i in range(2):
            di = diff_modes(m, i)
            rows.append(
                [modes_on_grid(diff_modes(di, j), 2, n_out)
                 for j in range(2)]
            )
        mat = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
        want = det_cofactor_grid(mat)
        assert rel_l2(got.samples, want) <= 1e-12

    def test_hessian_matches_cofactor_oracle_3d(self):
        g = GridSpec(d=3, n=4)
        u, m = random_trig(g, degree=1, seed=127)
        got = hessian_det_pointwise(u)
        n_out = padded_points(4, 3)
        rows = []
        for i in range(3):
            di = diff_modes(m, i)
            rows.append(
                [modes_on_grid(diff_modes(di, j), 3, n_out)
                 for j in range(3)]
            )
        mat = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
        assert rel_l2(got.samples, det_cofactor_grid(mat)) <= 1e-12

    def test_jacobian_matches_cofactor_oracle_4d(self):
        g = GridSpec(d=4, n=4)
        us, ms = [], []
        for s in range(4):
            _, full = random_trig(g, degree=1, seed=128 + s, real=False)
            # A sparse subset keeps the direct-evaluation oracle cheap on
            # the 16^4 padded grid.
            modes = dict(list(full.items())[s::9])
            us.append(field_from_modes(g, modes))
            ms.append(modes)
        got = jacobian_det_pointwise(us)
        want = _jacobian_oracle(ms, 4, padded_points(4, 4))
        assert rel_l2(got.samples, want) <= 1e-12

    def test_component_count_enforced(self):
        g = GridSpec(d=2, n=8)
        u, _ = random_trig(g, degree=1, seed=126)
        with pytest.raises(ValueError):
            jacobian_det_pointwise([u])


def _stacked_det(entries) -> np.ndarray:
    """``np.linalg.det`` of the stacked per-entry sample arrays."""
    mat = np.stack([np.stack(row, axis=-1) for row in entries], axis=-2)
    return np.linalg.det(mat)


class TestFullBandRoutes:
    """Full-band ``random_field`` inputs carry Nyquist modes, as in the
    estimate scans; the reference route differentiates field by field with
    ``spectral_derivative``, resamples with ``regrid_field`` and takes a
    batched LU determinant."""

    def test_jacobian_matches_stacked_det(self):
        g = GridSpec(d=2, n=32)
        us = [random_field(170 + i, g, 2.0) for i in range(2)]
        n_out = padded_points(g.n, 2)
        want = _stacked_det(
            [[regrid_field(spectral_derivative(u, unit(2, j)), n_out).samples for j in range(2)]
             for u in us]
        )
        got = jacobian_det_pointwise(us)
        assert got.grid.n == n_out
        assert rel_l2(got.samples, want) <= 1e-12

    def test_hessian_matches_stacked_det(self):
        g = GridSpec(d=3, n=8)
        u = random_field(172, g, 2.0)
        n_out = padded_points(g.n, 3)
        firsts = [spectral_derivative(u, unit(3, i)) for i in range(3)]
        want = _stacked_det(
            [[regrid_field(spectral_derivative(fi, unit(3, j)), n_out).samples for j in range(3)]
             for fi in firsts]
        )
        got = hessian_det_pointwise(u)
        assert got.grid.n == n_out
        assert rel_l2(got.samples, want) <= 1e-12

    @pytest.mark.parametrize("route", ["jacobian", "hessian"])
    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8), (3, 16)])
    def test_sweep_grid_keeps_the_band_alias_free(self, route, d, n):
        # The estimate sweep reads only the band blocks of the determinant,
        # so on its smaller grid they must match the d-fold pad's.
        g = GridSpec(d=d, n=n)
        us = [random_field(180 + i, g, 2.0) for i in range(d)]
        det_n = _sweep_det_n(d, n)
        if route == "jacobian":
            full, small = jacobian_det_pointwise(us), jacobian_det_pointwise(us, det_n)
        else:
            full = hessian_det_pointwise(us[0])
            small = hessian_det_pointwise(us[0], det_n)
        assert small.grid.n == det_n
        phi = Spectrum(g, np.zeros(g.shape))
        for t in range(4):
            want, _ = _band_block(dilate_dyadic(dft_forward(full), t), phi)
            got, _ = _band_block(dilate_dyadic(dft_forward(small), t), phi)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_grid_coarser_than_input_rejected(self):
        g = GridSpec(d=2, n=16)
        us = [random_field(190 + i, g, 2.0) for i in range(2)]
        with pytest.raises(ValueError, match="coarser"):
            jacobian_det_pointwise(us, 8)
        with pytest.raises(ValueError, match="coarser"):
            hessian_det_pointwise(us[0], 8)


def _count_ifft(monkeypatch) -> list[int]:
    """Counts the calls of ``numpy.fft.ifft``, the 1-D inverse passes."""
    calls = [0]
    ifft = np.fft.ifft

    def counted(*args, **kwargs):
        calls[0] += 1
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    return calls


class TestStackedEntries:
    """The entries of a pointwise determinant are one stack, transformed
    together: one inverse pass per band sub-block, ``2^d - 1`` in all, and
    bitwise what one ``apply_multiplier`` per entry gives."""

    def test_jacobian_transforms_its_entries_together(self, monkeypatch):
        g = GridSpec(d=2, n=16)
        specs = [dft_forward(random_field(200 + i, g, 2.0)) for i in range(2)]
        calls = _count_ifft(monkeypatch)
        got = jacobian_det_pointwise(specs)
        assert calls[0] == 3
        n_out = padded_points(g.n, 2)
        mults = [derivative_multiplier(g, unit(2, j)) for j in range(2)]
        want = poly_det([[apply_multiplier(s, m, n_out).samples for m in mults] for s in specs])
        assert np.array_equal(got.samples, want)

    def test_hessian_transforms_its_entries_together(self, monkeypatch):
        g = GridSpec(d=3, n=8)
        spec = dft_forward(random_field(210, g, 2.0))
        calls = _count_ifft(monkeypatch)
        got = hessian_det_pointwise(spec)
        assert calls[0] == 7
        n_out = padded_points(g.n, 3)
        H = [[apply_multiplier(spec, derivative_multiplier(g, tuple(
                 int(a == i) + int(a == j) for a in range(3))), n_out).samples
              for j in range(3)] for i in range(3)]
        assert np.array_equal(got.samples, poly_det(H))


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

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_detPtau_formal_all_taus(self, monkeypatch, d):
        seen = []
        real = determinants.perm_sign
        monkeypatch.setattr(determinants, "perm_sign", lambda t: seen.append(t) or real(t))
        rep = symbolic_detPtau_check(d)
        assert rep == DetReport("det-P-tau", d, 2 * d, True, "0")
        assert sorted(seen) == list(permutations(range(d)))

    @pytest.mark.parametrize("d", [1, 6])
    def test_detPtau_dimension_guard(self, d):
        with pytest.raises(ValueError, match="supported dimensions are 2..5"):
            symbolic_detPtau_check(d)

    @pytest.mark.parametrize("tau", list(permutations(range(4))))
    def test_detPtau_fails_on_one_sign_flipped_permutation(self, monkeypatch, tau):
        # Every permutation is checked: a wrong sign on any single one of the
        # 24 at d = 4 must surface, in the check and in the suite's report.
        real = determinants.perm_sign
        monkeypatch.setattr(determinants, "perm_sign",
                            lambda t: -real(t) if t == tau else real(t))
        rep = symbolic_detPtau_check(4)
        assert not rep.passed and rep.residual != "0"
        reports = run_identity_suite(2, 0)
        (suite,) = [r for r in reports if r.identity == "det-P-tau" and r.d == 4]
        assert not suite.passed and suite.residual != "0"

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

    @pytest.mark.parametrize("d", [2, 3])
    def test_fraction_coefficients_pass_exactly(self, d):
        rng = random.Random(250 + d)
        third = Fraction(1, 3)
        us = [random_poly(d, 2, rng).scale(third) for _ in range(d)]
        assert any(type(c) is Fraction and c.denominator == 3
                   for u in us for c in u.terms.values())
        for rep in (symbolic_piola_check(d, us),
                    symbolic_baer_jerison_check(d, us[0])):
            assert rep.passed and rep.residual == "0"

    @pytest.mark.parametrize("d", [2, 3])
    def test_baer_jerison_fails_on_a_sign_flipped_second_cofactor(self, monkeypatch, d):
        # The check builds its table of second cofactors through the module's
        # ``second_cofactor``; a wrong cofactor must surface as a residual.
        real = determinants.second_cofactor
        monkeypatch.setattr(determinants, "second_cofactor",
                            lambda H, i, j, k, l: -real(H, i, j, k, l))
        rep = symbolic_baer_jerison_check(d, random_poly(d, 3, random.Random(260 + d)))
        assert not rep.passed and rep.residual != "0"

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


# ``run_identity_suite(instances, seed).to_dict()`` for instances 1, 2 and
# 20, each seed 0-2: every batch passes with residual 0, at the degree of its
# drawn (or formal) inputs.
SUITE_REPORTS = [
    ("piola", 2, 3, True, "0"),
    ("piola", 3, 2, True, "0"),
    ("piola", 4, 2, True, "0"),
    ("hessian-2d", 2, 4, True, "0"),
    ("det-P-tau", 2, 4, True, "0"),
    ("det-P-tau", 3, 6, True, "0"),
    ("det-P-tau", 4, 8, True, "0"),
    ("det-P-tau-average", 2, 4, True, "0"),
    ("det-P-tau-average", 3, 6, True, "0"),
    ("baer-jerison", 2, 3, True, "0"),
    ("baer-jerison", 3, 2, True, "0"),
]
SUITE_KEYS = ("identity", "d", "degree", "passed", "residual")


class TestIdentitySuite:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("instances", [1, 2, 20])
    def test_reports_are_pinned(self, instances, seed):
        got = [r.to_dict() for r in run_identity_suite(instances, seed)]
        assert got == [dict(zip(SUITE_KEYS, row)) for row in SUITE_REPORTS]

    @pytest.mark.parametrize("d", [2, 3])
    def test_formal_symmetries_catch_an_unshifted_second_cofactor(self, monkeypatch, d):
        # Dropping the ``k - 1`` (and ``l - 1``) index shift flips the sign of
        # every cofactor with ``k > i`` xor ``l > j``; the row swap breaks.
        def unshifted(H, i, j, k, l):
            if i == k or j == l:
                return poly_zero(H[0][0].d)
            minor = determinants._minor(H, {i, k}, {j, l})
            return minor.scale(-((-1) ** (i + j + k + l)))

        assert determinants._second_cofactor_symmetries(d).passed
        monkeypatch.setattr(determinants, "second_cofactor", unshifted)
        assert not determinants._second_cofactor_symmetries(d).passed
        reports = run_identity_suite(2, 0)
        bj = [r for r in reports if r.identity == "baer-jerison"]
        assert [r.d for r in bj] == [2, 3]
        assert not any(r.passed for r in bj) and all(r.residual != "0" for r in bj)
        assert all(r.passed for r in reports if r.identity != "baer-jerison")

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
