"""Multilinear multiplier application: direct oracle, separable path, transfer."""

import math

import numpy as np
import pytest

from mlab import (
    BudgetExceededError,
    Field,
    GridSpec,
    OperatorSpec,
    Separable,
    SymbolSpec,
    UncoveredSpectrumError,
    apply_direct,
    apply_operator,
    apply_separable,
    coeff_at,
    dealiased_product,
    det_symbol,
    dft_forward,
    dilate_dyadic,
    field_from_modes,
    lp_norm,
    normalized_power_symbol,
    one_symbol,
    pair,
    pair_with_transfer,
    power_symbol,
    product_symbol,
    resolve_symbol,
    riesz_factor,
    separable_expand,
    spectral_derivative,
    spectrum_from_modes,
)
from mlab.grid import padded_points, regrid_field
from mlab.harness import random_field
from mlab.operators import enumeration_budget

from conftest import random_trig, rel_l2
from oracles import apply_multilinear_modes, modes_on_grid, scalar_symbol


def _smooth(x: tuple[int, ...], y: tuple[int, ...]) -> complex:
    return complex(math.cos(0.7 * x[0] + 0.3 * y[-1]), math.sin(0.2 * x[-1] - 0.5 * y[0]))


def _smooth_symbol(d: int) -> SymbolSpec:
    """Smooth complex bilinear symbol, total on zero slots; ``_smooth`` per tuple."""

    def ev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.cos(0.7 * a[:, 0] + 0.3 * b[:, -1]) + 1j * np.sin(0.2 * a[:, -1] - 0.5 * b[:, 0])

    return SymbolSpec(m=2, d=d, evaluator=ev, name="smooth", zero_rule=None)


def _input_modes(grid: GridSpec, kind: str, seed: int) -> dict[tuple[int, ...], complex]:
    """``full``: every mode of the band, the Nyquist row ``-n/2`` and the mean
    included; ``sparse``: three modes, one on the Nyquist corner."""
    rng = np.random.default_rng(seed)
    half = grid.n // 2
    if kind == "full":
        keys = [tuple(int(c) - half for c in idx) for idx in np.ndindex(*grid.shape)]
    else:
        keys = [(-half,) * grid.d, (1,) * grid.d, (half - 1,) + (0,) * (grid.d - 1)]
    return {k: complex(rng.standard_normal(), rng.standard_normal()) for k in keys}


# (symbol, m, d, n, pad_factor, input kinds)
_ORACLE_CASES = [
    ("riesz_product:1", 1, 1, 8, None, ("full",)),
    ("riesz_product:2", 1, 2, 8, None, ("full",)),
    ("dot_norm:1", 2, 1, 16, None, ("full", "full")),
    ("det_norm:1", 2, 2, 8, None, ("full", "full")),
    ("det_pow:2", 2, 2, 8, 4, ("full", "full")),
    ("det_norm:1", 2, 2, 8, None, ("sparse", "full")),
    ("smooth", 2, 2, 8, None, ("full", "sparse")),
    ("one", 2, 2, 8, None, ("full", "full")),
    ("one", 3, 1, 8, None, ("full", "full", "full")),
    ("riesz_product:1,2,1", 3, 2, 4, None, ("full", "full", "full")),
]


class TestApplyDirect:
    @pytest.mark.parametrize(
        "sym_id, m, d, n, pad_factor, kinds",
        _ORACLE_CASES,
        ids=[f"{c[0]}-m{c[1]}-d{c[2]}-n{c[3]}-pad{c[4]}-{'+'.join(c[5])}" for c in _ORACLE_CASES],
    )
    def test_matches_per_tuple_oracle(self, sym_id, m, d, n, pad_factor, kinds):
        grid = GridSpec(d=d, n=n)
        sym = _smooth_symbol(d) if sym_id == "smooth" else resolve_symbol(sym_id, d, m)
        modes = [_input_modes(grid, kind, seed=200 + j) for j, kind in enumerate(kinds)]
        fields = [field_from_modes(grid, md) for md in modes]
        got = apply_direct(OperatorSpec(sym, m, pad_factor=pad_factor), fields)
        scalar = _smooth if sym_id == "smooth" else scalar_symbol(sym_id)
        want = apply_multilinear_modes(scalar, *modes)
        assert got.grid.n == padded_points(n, pad_factor or m)
        want_coeffs = spectrum_from_modes(got.grid, want).coeffs
        got_coeffs = dft_forward(got).coeffs
        scale = float(np.max(np.abs(want_coeffs)))
        assert float(np.max(np.abs(got_coeffs - want_coeffs))) <= 1e-12 * scale

    def test_constant_symbol_is_product_m2(self, grid2d):
        f1, _ = random_trig(grid2d, degree=2, seed=50)
        f2, _ = random_trig(grid2d, degree=2, seed=51)
        op = OperatorSpec(one_symbol(2, 2), 2)
        got = apply_direct(op, [f1, f2])
        want = dealiased_product([f1, f2], pad_factor=2)
        assert rel_l2(regrid_field(got, grid2d.n).samples, want.samples) <= 1e-12

    def test_constant_symbol_is_product_m3(self, grid1d):
        fs = [random_trig(grid1d, degree=1, seed=s)[0] for s in (52, 53, 54)]
        op = OperatorSpec(one_symbol(3, 1), 3)
        got = apply_direct(op, fs)
        want = dealiased_product(fs, pad_factor=3)
        assert rel_l2(regrid_field(got, grid1d.n).samples, want.samples) <= 1e-12

    def test_single_mode_projection_m1(self, grid1d):
        f, modes = random_trig(grid1d, degree=3, seed=55)

        def ev(b: np.ndarray) -> np.ndarray:
            return np.where((b[:, 0] == 2.0), 1.0 + 0.0j, 0.0)

        sym = SymbolSpec(m=1, d=1, evaluator=ev, name="proj-2")
        op = OperatorSpec(sym, 1)
        got = apply_direct(op, [f])
        want = modes_on_grid({(2,): modes[(2,)]}, 1, got.grid.n, grid1d.period)
        assert rel_l2(got.samples, want) <= 1e-12

    def test_matches_double_loop_oracle(self, grid1d):
        sym = _smooth_symbol(1)
        f1, m1 = random_trig(grid1d, degree=3, seed=56, real=False)
        f2, m2 = random_trig(grid1d, degree=3, seed=57, real=False)
        op = OperatorSpec(sym, 2)
        got = apply_direct(op, [f1, f2])
        want_modes = apply_multilinear_modes(_smooth, m1, m2)
        got_spec = dft_forward(got)
        worst = max(abs(coeff_at(got_spec, xi) - c) for xi, c in want_modes.items())
        scale = max(abs(c) for c in want_modes.values())
        assert worst <= 1e-12 * scale

    def test_multilinear_in_each_slot(self, grid1d):
        opspec = OperatorSpec(_smooth_symbol(1), 2)
        f, _ = random_trig(grid1d, degree=2, seed=58)
        g, _ = random_trig(grid1d, degree=2, seed=59)
        h, _ = random_trig(grid1d, degree=2, seed=60)
        alpha, beta = 1.3, -0.7
        combo = Field(grid1d, alpha * f.samples + beta * g.samples)
        lhs = apply_direct(opspec, [combo, h])
        a = apply_direct(opspec, [f, h])
        b = apply_direct(opspec, [g, h])
        want = alpha * a.samples + beta * b.samples
        assert rel_l2(lhs.samples, want) <= 1e-12

    def test_dilation_equivariance_exact(self):
        g = GridSpec(d=2, n=8)
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        op = OperatorSpec(sym, 2)
        f1, _ = random_trig(g, degree=3, seed=61)
        f2, _ = random_trig(g, degree=3, seed=62)
        base = apply_direct(op, [f1, f2])
        for t in (1, 2):
            lhs = apply_direct(op, [dilate_dyadic(f1, t), dilate_dyadic(f2, t)])
            rhs = dilate_dyadic(base, t)
            n = max(lhs.grid.n, rhs.grid.n)
            from mlab.grid import regrid_spectrum

            cl = regrid_spectrum(dft_forward(lhs), n).coeffs
            cr = regrid_spectrum(dft_forward(rhs), n).coeffs
            scale = float(np.max(np.abs(cr)))
            assert float(np.max(np.abs(cl - cr))) <= 1e-13 * scale

    def test_ratio_invariance_under_dilation(self):
        g = GridSpec(d=2, n=8)
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        op = OperatorSpec(sym, 2)
        f1, _ = random_trig(g, degree=3, seed=63)
        f2, _ = random_trig(g, degree=3, seed=64)
        def ratio(t: int) -> float:
            a = dilate_dyadic(f1, t)
            b = dilate_dyadic(f2, t)
            out = apply_direct(op, [a, b])
            return lp_norm(out, 1.0) / (lp_norm(a, 2.0) * lp_norm(b, 2.0))
        r0 = ratio(0)
        for t in (1, 2):
            assert abs(ratio(t) - r0) <= 1e-10 * r0

    def test_budget_cap(self, grid1d, monkeypatch):
        monkeypatch.setenv("MLAB_BUDGET", "10")
        assert enumeration_budget() == 10
        f, _ = random_trig(grid1d, degree=3, seed=65)
        op = OperatorSpec(one_symbol(2, 1), 2)
        with pytest.raises(BudgetExceededError):
            apply_direct(op, [f, f])

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_malformed_budget_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("MLAB_BUDGET", raw)
        with pytest.raises(ValueError, match="MLAB_BUDGET"):
            enumeration_budget()

    def test_wrong_field_count(self, grid1d):
        f, _ = random_trig(grid1d, degree=2, seed=66)
        op = OperatorSpec(one_symbol(2, 1), 2)
        with pytest.raises(ValueError):
            apply_direct(op, [f])


class TestApplySeparable:
    def _op(self, sym, rank: int) -> OperatorSpec:
        exp = separable_expand(sym, rank=rank)
        return OperatorSpec(sym, sym.m, strategy=Separable(exp))

    def test_rank_one_product_symbol(self):
        g = GridSpec(d=2, n=16)
        sym = product_symbol([riesz_factor(2, 0), riesz_factor(2, 1)])
        op = self._op(sym, rank=4)
        f1, _ = random_trig(g, degree=3, seed=67)
        f2, _ = random_trig(g, degree=3, seed=68)
        got = apply_separable(op, [f1, f2])
        want = apply_direct(OperatorSpec(sym, 2), [f1, f2])
        assert rel_l2(got.samples, want.samples) <= 1e-8

    def test_constant_symbol_on_covered_annuli(self):
        g = GridSpec(d=2, n=16)
        sym = one_symbol(2, 2)
        op = self._op(sym, rank=2)
        f1, _ = random_trig(g, degree=3, seed=69)
        f2, _ = random_trig(g, degree=3, seed=70)
        # The partition covers dyadic annuli only, so the inputs must carry
        # no mean mode for the constant symbol to be representable.
        f1 = Field(g, f1.samples - np.mean(f1.samples))
        f2 = Field(g, f2.samples - np.mean(f2.samples))
        got = apply_separable(op, [f1, f2])
        want = apply_direct(OperatorSpec(sym, 2), [f1, f2])
        assert rel_l2(got.samples, want.samples) <= 1e-8

    def test_det_norm_small_grid(self):
        g = GridSpec(d=2, n=8)
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        op = self._op(sym, rank=24)
        f1, _ = random_trig(g, degree=3, seed=71)
        f2, _ = random_trig(g, degree=3, seed=72)
        got = apply_separable(op, [f1, f2])
        want = apply_direct(OperatorSpec(sym, 2), [f1, f2])
        assert rel_l2(got.samples, want.samples) <= 1e-4

    def test_uncovered_spectrum_rejected(self):
        # Every separable multiplier is 0 at the origin, so the constant
        # symbol cannot act on inputs that carry a mean mode.
        g = GridSpec(d=2, n=16)
        sym = one_symbol(2, 2)
        op = self._op(sym, rank=2)
        f, _ = random_trig(g, degree=6, seed=73)
        f = Field(g, f.samples - np.mean(f.samples) + 1.0)
        with pytest.raises(UncoveredSpectrumError):
            apply_separable(op, [f, f])

    def test_trilinear_riesz_product(self):
        g = GridSpec(d=2, n=8)
        sym = resolve_symbol("riesz_product:1,2,1", 2)
        op = self._op(sym, rank=2)
        fs = [random_trig(g, degree=3, seed=s)[0] for s in (115, 116, 117)]
        got = apply_separable(op, fs)
        want = apply_direct(OperatorSpec(sym, 3), fs)
        assert rel_l2(got.samples, want.samples) <= 1e-8

    def test_apply_operator_dispatch(self):
        g = GridSpec(d=2, n=8)
        sym = one_symbol(2, 2)
        f1, _ = random_trig(g, degree=2, seed=74)
        f2, _ = random_trig(g, degree=2, seed=75)
        f1 = Field(g, f1.samples - np.mean(f1.samples))
        f2 = Field(g, f2.samples - np.mean(f2.samples))
        direct = apply_operator(OperatorSpec(sym, 2), [f1, f2])
        sep = apply_operator(self._op(sym, rank=2), [f1, f2])
        n = min(direct.grid.n, sep.grid.n)
        assert rel_l2(
            regrid_field(sep, n).samples, regrid_field(direct, n).samples
        ) <= 1e-8


class TestPairWithTransfer:
    def test_k_zero_is_plain_product_pairing(self):
        g = GridSpec(d=2, n=8)
        f1, _ = random_trig(g, degree=2, seed=76)
        f2, _ = random_trig(g, degree=2, seed=77)
        phi, _ = random_trig(g, degree=2, seed=78)
        got = pair_with_transfer(det_symbol(2), 0, [f1, f2], phi)
        prod = dealiased_product([f1, f2], pad_factor=2)
        want = pair(prod, phi)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_k1_single_mode_fields(self):
        g = GridSpec(d=2, n=16)
        f1 = field_from_modes(g, {(1, 2): 1.0, (-1, -2): 1.0})
        f2 = field_from_modes(g, {(2, -1): 0.5, (-2, 1): 0.5})
        # Output lives at (3, 1) and its reflections; phi must reach them.
        phi, _ = random_trig(g, degree=3, seed=79)
        sym = det_symbol(2)
        got = pair_with_transfer(sym, 1, [f1, f2], phi)
        out = apply_direct(OperatorSpec(power_symbol(sym, 1), 2), [f1, f2])
        want = pair(out, regrid_field(phi, out.grid.n))
        scale = max(abs(want), 1e-30)
        assert abs(got - want) <= 1e-10 * scale

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_direct_pairing_random_fields(self, k):
        g = GridSpec(d=2, n=16)
        f1, _ = random_trig(g, degree=3, seed=80 + k)
        f2, _ = random_trig(g, degree=3, seed=90 + k)
        phi, _ = random_trig(g, degree=3, seed=100 + k)
        sym = det_symbol(2)
        got = pair_with_transfer(sym, k, [f1, f2], phi)
        out = apply_direct(OperatorSpec(power_symbol(sym, k), 2), [f1, f2])
        want = pair(out, regrid_field(phi, out.grid.n))
        assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_full_band_phi_matches_direct_pairing(self, k):
        # A full-band test function has an active Nyquist row; the
        # transferred derivatives must keep it, as the direct pairing does.
        g = GridSpec(d=2, n=8)
        f1 = random_field(120 + k, g, 2.0)
        f2 = random_field(130 + k, g, 2.0)
        phi = random_field(140 + k, g, 4.0)
        sym = det_symbol(2)
        got = pair_with_transfer(sym, k, [f1, f2], phi)
        out = apply_direct(OperatorSpec(power_symbol(sym, k), 2), [f1, f2])
        want = pair(out, regrid_field(phi, out.grid.n))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_k3_small_case(self):
        g = GridSpec(d=2, n=8)
        f1, _ = random_trig(g, degree=1, seed=110)
        f2, _ = random_trig(g, degree=1, seed=111)
        phi, _ = random_trig(g, degree=1, seed=112)
        sym = det_symbol(2)
        got = pair_with_transfer(sym, 3, [f1, f2], phi)
        out = apply_direct(OperatorSpec(power_symbol(sym, 3), 2), [f1, f2])
        want = pair(out, regrid_field(phi, out.grid.n))
        assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)

    def test_rejects_non_alternating_symbol(self):
        g = GridSpec(d=2, n=8)
        f, _ = random_trig(g, degree=1, seed=113)
        phi, _ = random_trig(g, degree=1, seed=114)
        with pytest.raises(ValueError):
            pair_with_transfer(one_symbol(2, 2), 1, [f, f], phi)


class TestOperatorSpec:
    def test_pad_factor_default_is_arity(self):
        op = OperatorSpec(one_symbol(3, 1), 3)
        assert op.pad == 3

    def test_rejects_pad_below_arity(self):
        with pytest.raises(ValueError):
            OperatorSpec(one_symbol(2, 1), 2, pad_factor=1)

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            OperatorSpec(one_symbol(2, 1), 3)
