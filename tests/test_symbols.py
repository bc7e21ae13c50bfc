"""Multiplier symbols: determinant powers, normalization, homogeneity flags."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlab import (
    SymbolSpec,
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

# (symbol, d, m) for the broadcast-layout test: arity 2 and 3 where defined.
_LAYOUT_CASES = [
    (sym_id, d, d) for sym_id in ("det", "det_pow:2", "det_norm:1", "det_norm:0.5") for d in (2, 3)
] + [
    ("dot_norm:1", 2, 2),
    ("dot_norm:1", 3, 2),
    ("riesz_product:1,2", 2, 2),
    ("riesz_product:1,2,1", 2, 3),
    ("one", 2, 2),
    ("one", 2, 3),
]


def _layouts(d: int, m: int, zeros: bool, layout: str):
    """Broadcasting blocks of ``m`` integer frequency sets in ``d``
    dimensions, their flat repeat/tile copies and the broadcast shape.
    With ``zeros``, every set holds the zero vector."""
    rng = np.random.default_rng(36)
    sizes = [5, 7, 6][:m]
    sets = []
    for size in sizes:
        x = rng.integers(-4, 5, size=(size, d)).astype(np.float64)
        x[np.all(x == 0.0, axis=-1)] = 1.0
        if zeros:
            x[1] = 0.0
        sets.append(x)
    if layout == "rows-columns":
        # apply_direct: rows of the first m - 1 slots against columns.
        row_sets = [x[rng.integers(0, x.shape[0], size=9)] for x in sets[:-1]]
        if zeros and row_sets:
            row_sets[0][0] = 0.0
        blocks = [x[:, None, :] for x in row_sets] + [sets[-1][None, :, :]]
        shape = (9, sizes[-1]) if row_sets else (1, sizes[-1])
        flat = [np.repeat(x, sizes[-1], axis=0) for x in row_sets]
        flat.append(np.tile(sets[-1], (shape[0], 1)))
    else:
        # decomp: one axis per slot.
        blocks = [
            x.reshape((1,) * j + (x.shape[0],) + (1,) * (m - 1 - j) + (d,))
            for j, x in enumerate(sets)
        ]
        shape = tuple(sizes)
        flat = [
            np.repeat(np.tile(x, (math.prod(sizes[:j]), 1)), math.prod(sizes[j + 1 :]), axis=0)
            for j, x in enumerate(sets)
        ]
    return blocks, flat, shape


# Every registry id in every dimension 1..3 where it is defined.
_TOTAL_CASES = [
    (sym_id, d)
    for sym_id in ("one", "det", "det_pow:2", "det_norm:0.5", "det_norm:1", "det_norm:2",
                   "dot_norm:1", "riesz_product:1,2")
    for d in (1, 2, 3)
    if not (sym_id == "riesz_product:1,2" and d == 1)
]


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

    @pytest.mark.parametrize("layout", ["rows-columns", "outer"])
    @pytest.mark.parametrize("zeros", [False, True], ids=["live", "zero-slots"])
    @pytest.mark.parametrize("sym_id, d, m", _LAYOUT_CASES)
    def test_broadcast_blocks_equal_flat_blocks(self, sym_id, d, m, zeros, layout):
        """Broadcast views give bitwise the values of repeat/tile copies."""
        sym = resolve_symbol(sym_id, d, m)
        blocks, flat, shape = _layouts(d, m, zeros, layout)
        got = evaluate(sym, blocks)
        want = evaluate(sym, flat)
        assert got.shape == shape
        assert np.array_equal(got.reshape(-1), want)

    @pytest.mark.parametrize("layout", ["rows-columns", "outer"])
    @pytest.mark.parametrize("sym_id, d", _TOTAL_CASES)
    def test_one_evaluator_call_on_the_blocks_as_given(self, sym_id, d, layout):
        # Zero slots go to the evaluator with the rest: no gather into
        # flat copies of the live tuples, no second call.
        sym = resolve_symbol(sym_id, d)
        calls = []

        def spy(*blocks):
            calls.append([b.shape for b in blocks])
            return sym.evaluator(*blocks)

        blocks, _, shape = _layouts(d, sym.m, True, layout)
        got = evaluate(dataclasses.replace(sym, evaluator=spy), blocks)
        assert calls == [[b.shape for b in blocks]]
        assert got.shape == shape

    @pytest.mark.parametrize("layout", ["rows-columns", "outer"])
    @pytest.mark.parametrize("sym_id, d, m", _LAYOUT_CASES)
    def test_live_tuples_equal_a_gather_of_the_live_rows(self, sym_id, d, m, layout):
        """On blocks with zero slots, each live tuple has bitwise the value
        of the evaluator on a flat gather of the live rows alone, and each
        zero-slot tuple has the value 0 of a null symbol or the 1 of
        ``one``: the values of an evaluation that never shows the
        evaluator a zero vector."""
        sym = resolve_symbol(sym_id, d, m)
        blocks, flat, shape = _layouts(d, m, True, layout)
        got = evaluate(sym, blocks).reshape(-1)
        live = np.ones(math.prod(shape), dtype=bool)
        for x in flat:
            live &= np.any(x != 0.0, axis=-1)
        assert live.any() and not live.all()
        want = evaluate(sym, [x[live] for x in flat])
        assert np.array_equal(got[live], want)
        assert np.all(got[~live] == (0.0 if sym.null_on_zero_slots else 1.0))

    @pytest.mark.parametrize("layout", ["rows-columns", "outer"])
    @pytest.mark.parametrize("sym_id, d", _TOTAL_CASES)
    def test_evaluators_are_total(self, sym_id, d, layout):
        """Every registry evaluator takes zero slots as they come: finite,
        no floating-point warning, and 0 there exactly when the symbol says
        it is null on zero slots."""
        sym = resolve_symbol(sym_id, d)
        blocks, _, shape = _layouts(d, sym.m, True, layout)
        with np.errstate(all="raise"):
            values = np.broadcast_to(sym.evaluator(*blocks), shape)
        zero_slot = np.zeros(shape, dtype=bool)
        for b in blocks:
            zero_slot = zero_slot | np.all(b == 0.0, axis=-1)
        assert zero_slot.any() and not zero_slot.all()
        assert np.all(np.isfinite(values))
        assert sym.null_on_zero_slots == bool(np.all(values[zero_slot] == 0.0))
        assert sym.null_on_zero_slots == (sym_id != "one")

    def test_non_broadcasting_blocks_raise(self):
        with pytest.raises(ValueError, match="broadcast"):
            evaluate(det_symbol(2), [np.ones((3, 2)), np.ones((4, 2))])

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

    def test_zero_slot_is_zero(self):
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        assert _ev(sym, (0, 0), (1, 1)) == 0.0

    def test_dot_symbol_normalization(self):
        sym = normalized_power_symbol(dot_symbol(2), 1.0)
        assert _ev(sym, (1, 0), (0, 1)) == 0.0
        assert _ev(sym, (2, 0), (3, 0)) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("beta", [math.inf, math.nan, -1.0, 0.0])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            normalized_power_symbol(det_symbol(2), beta)

    @pytest.mark.parametrize(
        "base, unit_pair",
        [(det_symbol(2), ((30, 0), (0, 30))), (dot_symbol(2), ((30, 0), (40, 0)))],
        ids=["det", "dot"],
    )
    def test_large_beta_is_finite(self, base, unit_pair):
        # base^400 and the norms^400 both overflow at |xi| ~ 10; their
        # quotient, at most 1 in modulus, does not.
        sym = normalized_power_symbol(base, 400.0)
        rng = np.random.default_rng(0)
        a, b = rng.integers(-40, 41, size=(2, 64, 2)).astype(np.float64)
        values = evaluate(sym, [a, b])
        assert np.all(np.isfinite(values)) and np.all(np.abs(values) <= 1.0)
        assert _ev(sym, *unit_pair) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("spec_id", ["det_norm:1e17", "dot_norm:1e17"])
    def test_huge_integer_beta_stays_in_the_unit_disc(self, spec_id):
        # On 2x16 lattice pairs the float quotient reaches 1 + 2.2e-16,
        # whose 1e17th power was 4.4e9 before the quotient was clamped.
        axis = np.fft.fftfreq(16, 1 / 16)
        lattice = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        values = evaluate(resolve_symbol(spec_id, 2, m=2),
                          [lattice[:, None, :], lattice[None, :, :]])
        assert np.abs(values).max() <= 1.0


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

    def test_rejects_mixed_arity(self):
        with pytest.raises(ValueError):
            product_symbol([det_symbol(2), riesz_factor(2, 0)])


class TestResolveSymbol:
    def test_registry_round_trip(self):
        assert resolve_symbol("det", 3).m == 3
        assert resolve_symbol("det_pow:2", 2).m == 2
        assert resolve_symbol("det_norm:1", 2).poly_homogeneous
        assert resolve_symbol("riesz_product:1,2", 2).m == 2

    @pytest.mark.parametrize(
        "spec_id", ["nope", "riesz_product:", "one:7", "det:xyz", "riesz_product:1,,2"]
    )
    def test_unknown_id(self, spec_id):
        # one:7, det:xyz and riesz_product:1,,2 once resolved, dropping the
        # argument or the empty component.
        with pytest.raises(ValueError):
            resolve_symbol(spec_id, 2)

    @pytest.mark.parametrize(
        "spec_id, component", [("riesz_product:0,1", 0), ("riesz_product:3,1", 3)]
    )
    def test_component_out_of_range_names_the_typed_component(self, spec_id, component):
        # The message once named the 0-based index: -1 and 2 here.
        with pytest.raises(ValueError, match=rf"component {component} out of range 1\.\.2$"):
            resolve_symbol(spec_id, 2)


def _dyadic_rescale_deviation(sym, samples=64, seed=0):
    """Largest change of ``sym`` when each slot of a nonzero integer tuple
    is rescaled by its own power of two in ``2^-4 .. 2^4``; the rescaling is
    exact in floating point, so any deviation is the symbol's."""
    rng = np.random.default_rng(seed)
    tuples = rng.integers(-8, 9, size=(samples, sym.m, sym.d)).astype(np.float64)
    zero = np.all(tuples == 0.0, axis=-1)
    tuples[zero] = 1.0
    base = evaluate(sym, list(tuples.transpose(1, 0, 2)))
    worst = 0.0
    for _ in range(4):
        scales = 2.0 ** rng.integers(-4, 5, size=(samples, sym.m, 1))
        scaled = evaluate(sym, list((tuples * scales).transpose(1, 0, 2)))
        worst = max(worst, float(np.max(np.abs(scaled - base))))
    return worst


@pytest.mark.parametrize("sym_id", [
    "one", "det", "det_pow:2", "det_norm:0.5", "det_norm:1", "det_norm:1.5",
    "det_norm:2", "dot_norm:1", "riesz_product:1,2",
])
def test_poly_homogeneous_flag_is_truthful(sym_id):
    # The scans' invariance-vs-oscillation verdict and separable_expand both
    # read the flag, so it must hold exactly when the symbol is invariant.
    sym = resolve_symbol(sym_id, 2)
    invariant = _dyadic_rescale_deviation(sym) <= 1e-10
    assert sym.poly_homogeneous == invariant
    if sym_id in ("det", "det_pow:2"):
        assert not invariant
