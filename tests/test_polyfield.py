"""Exact rational polynomial ring: arithmetic, calculus, determinants."""

import pickle
import random
from copy import copy, deepcopy
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlab import (
    PolyField,
    perm_sign,
    poly_const,
    poly_det,
    poly_var,
    poly_zero,
    random_poly,
)

from mlab.polyfield import MAX_EXPONENT

from oracles import (
    det_cofactor,
    diff_poly_terms,
    eval_poly_terms,
    mul_poly_terms,
    perm_sign_by_inversions,
)


def _rand_poly(
    d: int, rng_vals: list[int], max_exp: int = 2, kind: str = "fraction"
) -> PolyField:
    """Deterministic small polynomial from a flat list of integers.

    ``kind`` "int" keeps integer coefficients (the integer fast path);
    "fraction" divides each by a denominator from the list.
    """
    terms: dict[tuple[int, ...], int | Fraction] = {}
    per_term = d + 2
    for k in range(len(rng_vals) // per_term):
        chunk = rng_vals[k * per_term : (k + 1) * per_term]
        expo = tuple(abs(v) % (max_exp + 1) for v in chunk[:d])
        num, den_raw = chunk[d], chunk[d + 1]
        c = num if kind == "int" else Fraction(num, abs(den_raw) % 5 + 1)
        terms[expo] = terms.get(expo, 0) + c
    return PolyField(d, terms)


def _leibniz_sum(mat: list[list], zero):
    """``sum_perm sign(perm) prod_i mat[i][perm[i]]``, from ``zero`` up."""
    total = zero
    for perm in permutations(range(len(mat))):
        term = mat[0][perm[0]]
        for i in range(1, len(mat)):
            term = term * mat[i][perm[i]]
        total = total + term if perm_sign_by_inversions(perm) > 0 else total - term
    return total


KINDS = ("int", "fraction")
small_ints = st.lists(st.integers(-9, 9), min_size=12, max_size=12)


class TestRing:
    def test_zero_and_const(self):
        z = poly_zero(2)
        assert z.is_zero
        c = poly_const(2, Fraction(3, 7))
        assert c.eval((5, -2)) == Fraction(3, 7)

    def test_var_eval(self):
        x1 = poly_var(3, 1)
        assert x1.eval((9, Fraction(2, 3), 4)) == Fraction(2, 3)

    def test_mul_known_product(self):
        x = poly_var(1, 0)
        p = (x + poly_const(1, 1)) * (x - poly_const(1, 1))
        assert p.terms == {(2,): Fraction(1), (0,): Fraction(-1)}

    def test_zero_coefficients_are_dropped(self):
        x = poly_var(1, 0)
        p = x - x
        assert p.is_zero and p.terms == {}

    @given(small_ints, small_ints, small_ints)
    def test_add_associative(self, a, b, c):
        for kind in KINDS:
            p, q, r = (_rand_poly(2, v, kind=kind) for v in (a, b, c))
            assert ((p + q) + r).terms == (p + (q + r)).terms

    @given(small_ints, small_ints, small_ints)
    def test_mul_distributes(self, a, b, c):
        for kind in KINDS:
            p, q, r = (_rand_poly(2, v, kind=kind) for v in (a, b, c))
            assert (p * (q + r)).terms == (p * q + p * r).terms

    @given(small_ints, small_ints)
    def test_mul_commutative(self, a, b):
        for kind in KINDS:
            p, q = _rand_poly(2, a, kind=kind), _rand_poly(2, b, kind=kind)
            assert (p * q).terms == (q * p).terms

    @given(small_ints, small_ints)
    def test_sub_is_add_of_negation(self, a, b):
        for kind in KINDS:
            p, q = _rand_poly(2, a, kind=kind), _rand_poly(2, b, kind=kind)
            assert (p - q).terms == (p + (-q)).terms
            assert (p - p).is_zero

    @given(small_ints)
    def test_eval_matches_term_oracle(self, a):
        p = _rand_poly(2, a)
        point = (Fraction(3, 2), Fraction(-1, 3))
        assert p.eval(point) == eval_poly_terms(p.terms, point)

    def test_dimension_mismatch_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            poly_var(2, 0) + poly_var(3, 0)


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != 0}


def _combine(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _nonzero(out)


def _repr_of(terms: dict) -> str:
    """``PolyField.__repr__`` written from its definition: exponent-tuple order."""
    if not terms:
        return "PolyField(0)"
    parts = []
    for e, c in sorted(terms.items()):
        mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k)
        parts.append(f"{c}{'*' + mono if mono else ''}")
    return "PolyField(" + " + ".join(parts) + ")"


@st.composite
def _term_maps(draw):
    """``d`` in 1..16 (the formal det-P-tau run's width), two term maps of
    one coefficient kind, a scale factor, an axis and a rational point."""
    d = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(KINDS))
    coeff = (st.integers(-9, 9) if kind == "int"
             else st.fractions(-9, 9, max_denominator=7))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * d), coeff, max_size=6)
    point = tuple(draw(st.lists(st.fractions(-3, 3, max_denominator=5),
                                min_size=d, max_size=d)))
    return (d, kind, draw(terms), draw(terms), draw(coeff),
            draw(st.integers(0, d - 1)), point)


class TestPackedKernel:
    """The packed-key ring against the tuple-keyed oracles in ``oracles``."""

    @settings(max_examples=100)
    @given(_term_maps())
    def test_matches_tuple_keyed_oracle(self, case):
        d, kind, a, b, c, axis, point = case
        p, q = PolyField(d, a), PolyField(d, b)
        A, B = _nonzero(a), _nonzero(b)
        assert p.terms == A and q.terms == B
        results = {
            "mul": (p * q, mul_poly_terms(A, B)),
            "add": (p + q, _combine(A, B, 1)),
            "sub": (p - q, _combine(A, B, -1)),
            "neg": (-p, {e: -v for e, v in A.items()}),
            "scale": (p.scale(c), _nonzero({e: c * v for e, v in A.items()})),
            "diff": (p.diff(axis), diff_poly_terms(A, axis)),
        }
        for name, (got, want) in results.items():
            assert got.d == d, name
            assert got.terms == want, name
            assert repr(got) == _repr_of(want), name
            if kind == "int":
                assert all(type(v) is int for v in got.terms.values()), name
        assert p.degree() == max((sum(e) for e in A), default=0)
        assert p.eval(point) == eval_poly_terms(A, point)
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)
        assert p == PolyField(d, dict(reversed(A.items())))
        assert (p == q) == (A == B)
        assert p.is_zero == (not A)

    def test_terms_is_a_fresh_dict(self):
        p = poly_var(3, 1)
        p.terms[(0, 0, 0)] = 5
        assert p.terms == {(0, 1, 0): 1}

    def test_immutable_copyable_and_unhashable(self):
        p = poly_var(2, 0) * poly_var(2, 1) - poly_const(2, Fraction(1, 3))
        with pytest.raises(AttributeError):
            p.d = 3
        for q in (copy(p), deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and repr(q) == repr(p)
        with pytest.raises(TypeError):
            hash(p)

    def test_mismatched_dimensions_rejected_by_every_binary_op(self):
        p, q = poly_var(2, 0), poly_var(3, 0)
        for op in (lambda: p + q, lambda: p - q, lambda: p * q):
            with pytest.raises(ValueError, match="variable count mismatch"):
                op()


class TestNoSilentCarry:
    """An exponent no packed field can hold is refused, never carried over."""

    def test_largest_exponent_is_kept(self):
        p = PolyField(3, {(0, MAX_EXPONENT, 0): 2})
        assert p.terms == {(0, MAX_EXPONENT, 0): 2}
        assert p.degree() == MAX_EXPONENT

    @pytest.mark.parametrize("expo", [(MAX_EXPONENT + 1,), (0, MAX_EXPONENT + 1, 0)])
    def test_constructor_refuses_an_exponent_above_the_field(self, expo):
        with pytest.raises(ValueError, match=f"exponent {MAX_EXPONENT + 1} "):
            PolyField(len(expo), {expo: 1})

    @pytest.mark.parametrize("expo", [(-1, 0), (0, 1, 2)])
    def test_constructor_refuses_negative_or_misshapen_exponents(self, expo):
        with pytest.raises(ValueError):
            PolyField(2, {expo: 1})

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_product_refuses_an_exponent_above_the_field(self, axis):
        # The product's ``axis`` field would hold MAX_EXPONENT + 1, its guard
        # bit; kept, one more product could carry it into x_{axis-1}.
        half = (MAX_EXPONENT + 1) // 2
        a = tuple(half if i == axis else 1 for i in range(3))
        p = PolyField(3, {a: 1, (0, 0, 0): 1})
        with pytest.raises(ValueError, match=f"exponent {MAX_EXPONENT + 1} of x{axis}"):
            p * p

    def test_product_up_to_the_field_maximum_is_exact(self):
        x = poly_var(2, 1)
        low = PolyField(2, {(3, MAX_EXPONENT // 2): 1})
        high = PolyField(2, {(1, MAX_EXPONENT - MAX_EXPONENT // 2): -2})
        assert (low * high).terms == {(4, MAX_EXPONENT): -2}
        assert (low * high).diff(1).terms == {(4, MAX_EXPONENT - 1): -2 * MAX_EXPONENT}
        assert (x * low).terms == {(3, MAX_EXPONENT // 2 + 1): 1}


class TestCalculus:
    def test_power_rule(self):
        x = poly_var(1, 0)
        p = x * x * x
        assert p.diff(0).terms == {(2,): Fraction(3)}

    @given(small_ints, small_ints)
    def test_product_rule(self, a, b):
        for kind in KINDS:
            p, q = _rand_poly(2, a, kind=kind), _rand_poly(2, b, kind=kind)
            lhs = (p * q).diff(0)
            rhs = p.diff(0) * q + p * q.diff(0)
            assert lhs.terms == rhs.terms

    @given(small_ints)
    def test_mixed_partials_commute(self, a):
        p = _rand_poly(2, a, max_exp=3)
        assert p.diff(0).diff(1).terms == p.diff(1).diff(0).terms

    def test_axis_out_of_range(self):
        import pytest

        with pytest.raises(ValueError):
            poly_var(2, 0).diff(2)


class TestCoefficientKinds:
    def test_integer_inputs_keep_int_coefficients(self):
        rng = random.Random(170)
        p, q = random_poly(2, 3, rng), random_poly(2, 3, rng)
        mat = [[random_poly(2, 2, rng, terms=3) for _ in range(3)] for _ in range(3)]
        results = [p + q, p - q, p * q, p.diff(0), p.scale(-3), poly_det(mat),
                   poly_var(2, 1), poly_const(2, 5)]
        for r in results:
            assert not r.is_zero
            assert all(type(c) is int for c in r.terms.values())

    def test_other_numbers_become_exact_fractions(self):
        c = poly_const(2, 0.1).terms[(0, 0)]
        assert type(c) is Fraction and c == Fraction(0.1)
        h = poly_var(2, 0).scale(0.5).terms[(1, 0)]
        assert type(h) is Fraction and h == Fraction(1, 2)


class TestPermSign:
    def test_identity_and_swap(self):
        assert perm_sign((0, 1, 2)) == 1
        assert perm_sign((1, 0, 2)) == -1

    @given(st.permutations(list(range(5))))
    def test_matches_inversion_count(self, perm):
        assert perm_sign(tuple(perm)) == perm_sign_by_inversions(tuple(perm))


class TestPolyDet:
    def test_identity_matrix(self):
        eye = [
            [poly_const(1, 1 if i == j else 0) for j in range(3)]
            for i in range(3)
        ]
        assert poly_det(eye).terms == {(0,): Fraction(1)}

    def test_two_by_two_formula(self):
        a, b = poly_var(2, 0), poly_var(2, 1)
        mat = [[a, b], [b, a]]
        want = a * a - b * b
        assert poly_det(mat).terms == want.terms

    @given(st.lists(st.integers(-6, 6), min_size=9, max_size=9))
    def test_matches_cofactor_oracle_3x3(self, vals):
        mat = [
            [poly_const(1, vals[3 * i + j]) for j in range(3)] for i in range(3)
        ]
        got = poly_det(mat).eval((0,))
        want = det_cofactor([[Fraction(v) for v in row] for row in
                             [vals[0:3], vals[3:6], vals[6:9]]])
        assert got == want

    @given(small_ints, small_ints, small_ints, small_ints)
    def test_row_swap_flips_sign(self, a, b, c, d):
        rows = [[_rand_poly(2, a), _rand_poly(2, b)],
                [_rand_poly(2, c), _rand_poly(2, d)]]
        swapped = [rows[1], rows[0]]
        assert poly_det(swapped).terms == (-poly_det(rows)).terms

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_leibniz_sum(self, n):
        rng = random.Random(180 + n)
        for _ in range(3):
            mat = [
                [random_poly(2, 2, rng, terms=3) for _ in range(n)] for _ in range(n)
            ]
            assert poly_det(mat).terms == _leibniz_sum(mat, poly_zero(2)).terms

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_arrays_match_leibniz_sum(self, n):
        # Column j keeps one broadcast shape, (h, 1) or (1, w), as the
        # in-place sum needs; integer entries make every route exact.
        rng = np.random.default_rng(190 + n)
        shapes = [(5, 1) if j % 2 else (1, 7) for j in range(n)]
        mat = [[rng.integers(-9, 10, size=shapes[j]) for j in range(n)] for _ in range(n)]
        kept = [[a.copy() for a in row] for row in mat]
        got, want = poly_det(mat), _leibniz_sum(mat, 0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        # The sum accumulates into a fresh product, never into an entry.
        for row, old in zip(mat, kept):
            assert all(np.array_equal(a, b) for a, b in zip(row, old))

    def test_one_by_one_result_does_not_alias_its_entry(self):
        block = np.arange(12.0).reshape(4, 3)
        got = poly_det([[block[..., 0]]])
        assert np.array_equal(got, block[..., 0])
        assert not np.shares_memory(got, block)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            poly_det([[poly_const(1, 1), poly_const(1, 2)]])
