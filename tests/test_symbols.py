"""Multiplier symbols: determinant powers, normalization, condition checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlab import (
    check_derivative_conditions,
    check_hormander_annulus,
    check_poly_homogeneity,
    det_symbol,
    dot_symbol,
    evaluate,
    normalized_power_symbol,
    one_symbol,
    power_symbol,
    product_symbol,
    resolve_symbol,
    riesz_factor,
)

from oracles import det_cofactor, scalar_symbol


def _ev(sym, *tuples):
    blocks = [np.asarray([t], dtype=np.float64) for t in tuples]
    return complex(evaluate(sym, blocks)[0])


int_vecs = st.tuples(
    st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20)
)


class TestDetSymbol:
    def test_unit_vectors(self):
        sym = power_symbol(det_symbol(2), 2)
        assert _ev(sym, (1, 0), (0, 1)) == 1.0

    def test_swapped_unit_vectors_even_power(self):
        sym = power_symbol(det_symbol(2), 2)
        assert _ev(sym, (0, 1), (1, 0)) == 1.0

    def test_cube_matches_direct_determinant(self):
        rng = np.random.default_rng(32)
        sym = power_symbol(det_symbol(2), 3)
        for _ in range(10):
            x1, x2 = rng.integers(-9, 10, size=(2, 2))
            det = det_cofactor([[x1[0], x2[0]], [x1[1], x2[1]]])
            assert _ev(sym, tuple(x1), tuple(x2)) == pytest.approx(float(det) ** 3)

    def test_d3_leibniz_matches_cofactor(self):
        rng = np.random.default_rng(33)
        sym = det_symbol(3)
        for _ in range(10):
            cols = rng.integers(-9, 10, size=(3, 3))
            det = det_cofactor([[int(cols[j][i]) for j in range(3)] for i in range(3)])
            assert _ev(sym, *map(tuple, cols)) == float(det)

    @given(x1=int_vecs, x2=int_vecs, x3=int_vecs)
    def test_multilinear_in_first_slot(self, x1, x2, x3):
        sym = det_symbol(2)
        merged = tuple(a + b for a, b in zip(x1, x2))
        lhs = _ev(sym, merged, x3)
        rhs = _ev(sym, x1, x3) + _ev(sym, x2, x3)
        assert lhs == rhs

    @given(x=int_vecs, y=int_vecs)
    def test_repeated_slot_exactly_zero(self, x, y):
        # Integer tuples keep every Leibniz term exact, so the signed sum
        # cancels without roundoff.
        assert _ev(det_symbol(2), x, x) == 0.0
        assert _ev(det_symbol(2), y, y) == 0.0

    @given(x1=int_vecs, x2=int_vecs)
    def test_alternating_shift_identity(self, x1, x2):
        sym = det_symbol(2)
        total = tuple(a + b for a, b in zip(x1, x2))
        assert _ev(sym, x1, x2) == _ev(sym, total, x2)

    @given(x1=int_vecs, x2=int_vecs)
    def test_swap_antisymmetry(self, x1, x2):
        sym = det_symbol(2)
        assert _ev(sym, x1, x2) == -_ev(sym, x2, x1)


_REGISTRY_IDS = ["det", "det_pow:2", "det_norm:1", "det_norm:0.5", "dot_norm:1", "riesz_product:1,2"]


class TestEvaluate:
    def _tuples(self, mixed: bool) -> np.ndarray:
        """(B, 2, 2) integer tuples, each slot nonzero unless ``mixed``."""
        rng = np.random.default_rng(35)
        tuples = rng.integers(-9, 10, size=(64, 2, 2)).astype(np.float64)
        tuples[np.all(tuples == 0.0, axis=-1)] = 1.0
        if mixed:
            tuples[::5, 0] = 0.0
            tuples[2::7, 1] = 0.0
        return tuples

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("mixed", [False, True], ids=["live", "mixed"])
    @pytest.mark.parametrize("sym_id", _REGISTRY_IDS)
    def test_matches_per_tuple_definition(self, sym_id, mixed, layout):
        sym = resolve_symbol(sym_id, 2)
        tuples = self._tuples(mixed)
        blocks = [tuples[:, j, :] for j in range(2)]
        if layout == "contiguous":
            blocks = [np.ascontiguousarray(b) for b in blocks]
        got = evaluate(sym, blocks)
        scalar = scalar_symbol(sym_id)
        want = np.array([scalar(tuple(x), tuple(y)) for x, y in tuples])
        assert got.dtype == np.complex128
        assert got.shape == (tuples.shape[0],)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("sym_id", ["det", "det_pow:2", "det_norm:1"])
    def test_repeated_slot_exactly_zero(self, sym_id):
        tuples = self._tuples(mixed=False)
        tuples[:, 1] = tuples[:, 0]
        got = evaluate(resolve_symbol(sym_id, 2), [tuples[:, 0, :], tuples[:, 1, :]])
        assert np.all(got == 0.0)


class TestNormalizedSymbol:
    def test_hand_value(self):
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        # |det((1,0),(1,1))| / (|(1,0)| |(1,1)|) = 1 / sqrt(2)
        assert _ev(sym, (1, 0), (1, 1)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_zero_rule(self):
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        assert _ev(sym, (0, 0), (1, 1)) == 0.0

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_poly_homogeneous(self, beta):
        sym = normalized_power_symbol(det_symbol(2), beta)
        report = check_poly_homogeneity(sym, samples=64, seed=0, tol=1e-10)
        assert report.passed, report.constants

    def test_dot_symbol_normalization(self):
        sym = normalized_power_symbol(dot_symbol(2), 1.0)
        assert _ev(sym, (1, 0), (0, 1)) == 0.0
        assert _ev(sym, (2, 0), (3, 0)) == pytest.approx(1.0, rel=1e-14)


class TestProductSymbol:
    def test_all_ones(self):
        sym = product_symbol([riesz_factor(2, 0)] * 0 or [one_symbol(1, 2), one_symbol(1, 2)])
        assert _ev(sym, (3, 4), (1, 2)) == 1.0

    def test_riesz_times_one(self):
        sym = product_symbol([riesz_factor(2, 0), one_symbol(1, 2)])
        assert _ev(sym, (1, 0), (5, -7)) == pytest.approx(1.0, rel=1e-14)

    def test_random_tables_pointwise(self):
        rng = np.random.default_rng(34)
        f1 = riesz_factor(2, 0)
        f2 = riesz_factor(2, 1)
        sym = product_symbol([f1, f2])
        pts = rng.integers(-9, 10, size=(2, 16, 2)).astype(np.float64)
        pts[np.all(pts == 0.0, axis=-1)] = 1.0
        want = evaluate(f1, [pts[0]]) * evaluate(f2, [pts[1]])
        got = evaluate(sym, [pts[0], pts[1]])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_riesz_product_poly_homogeneous(self):
        sym = product_symbol([riesz_factor(2, 0), riesz_factor(2, 1)])
        report = check_poly_homogeneity(sym, samples=64, seed=1, tol=1e-10)
        assert report.passed

    def test_rejects_mixed_arity(self):
        with pytest.raises(ValueError):
            product_symbol([det_symbol(2), riesz_factor(2, 0)])


class TestResolveSymbol:
    def test_registry_round_trip(self):
        assert resolve_symbol("det", 3).m == 3
        assert resolve_symbol("det_pow:2", 2).m == 2
        assert resolve_symbol("det_norm:1", 2).poly_homogeneous
        assert resolve_symbol("riesz_product:1,2", 2).m == 2

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            resolve_symbol("nope", 2)
        with pytest.raises(ValueError):
            resolve_symbol("riesz_product:", 2)


class TestDerivativeConditions:
    def test_constant_symbol_flat(self):
        report = check_derivative_conditions(one_symbol(2, 2), weighting="CM", max_order=1)
        assert report.passed
        derivative_keys = [k for k in report.constants if k != "order0"]
        assert report.constants["order0"] == pytest.approx(1.0)
        assert all(report.constants[k] <= 1e-8 for k in derivative_keys)

    def test_normalized_det_stable_across_scales(self):
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        report = check_derivative_conditions(sym, weighting="CM", max_order=1)
        assert report.passed
        vals = list(report.per_scale.values())
        assert max(vals) <= 2.0 * min(vals)
        assert all(math.isfinite(v) for v in vals)

    def test_unnormalized_det_fails_product_weighting(self):
        sym = power_symbol(det_symbol(2), 1)
        report = check_derivative_conditions(sym, weighting="PRODUCT", max_order=1)
        assert not report.passed
        vals = list(report.per_scale.values())
        # Degree-2 growth: the per-scale supremum climbs with the dyadic scale.
        assert vals[-1] > 4.0 * vals[0]

    def test_rejects_unknown_weighting(self):
        with pytest.raises(ValueError):
            check_derivative_conditions(one_symbol(2, 2), weighting="bogus")


class TestHormanderAnnulus:
    def test_constant_symbol_measure(self):
        report = check_hormander_annulus(one_symbol(2, 1), r_list=(0.5, 1.0, 2.0))
        want = math.sqrt(report.constants["annulus_measure"])
        assert report.constants["sup_norm"] == pytest.approx(want, rel=1e-12)
        vals = list(report.per_scale.values())
        assert max(vals) == pytest.approx(min(vals), rel=1e-12)

    def test_mihlin_product_bounded_over_scales(self):
        sym = product_symbol([riesz_factor(2, 0), riesz_factor(2, 1)])
        report = check_hormander_annulus(
            sym, r_list=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0), points_per_axis=7
        )
        vals = list(report.per_scale.values())
        assert all(math.isfinite(v) for v in vals)
        assert max(vals) <= 2.0 * min(vals)
