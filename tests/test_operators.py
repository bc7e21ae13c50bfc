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
    Spectrum,
    SymbolSpec,
    UncoveredSpectrumError,
    apply_direct,
    apply_direct_family,
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
from mlab import operators
from mlab.grid import (
    active_modes,
    dft_inverse,
    padded_points,
    regrid_field,
)
from mlab.harness import random_field
from mlab.operators import enumeration_budget
from mlab.symbols import evaluate

from conftest import phase_symbol, random_trig, rel_l2, tiled
from oracles import apply_multilinear_modes, modes_on_grid, scalar_symbol


def _smooth(x: tuple[int, ...], y: tuple[int, ...]) -> complex:
    return complex(math.cos(0.7 * x[0] + 0.3 * y[-1]), math.sin(0.2 * x[-1] - 0.5 * y[0]))


def _smooth_symbol(d: int) -> SymbolSpec:
    """Smooth complex bilinear symbol, total on zero slots; ``_smooth`` per tuple."""

    def ev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.cos(0.7 * a[..., 0] + 0.3 * b[..., -1]) + 1j * np.sin(0.2 * a[..., -1] - 0.5 * b[..., 0])

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


def _direct_and_oracle(
    sym_id: str,
    grid: GridSpec,
    modes: list[dict[tuple[int, ...], complex]],
    pad_factor: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """FFT-order output coefficients of ``apply_direct`` on fields with the
    given modes, and those of the per-tuple oracle on the same grid."""
    m = len(modes)
    sym = _smooth_symbol(grid.d) if sym_id == "smooth" else resolve_symbol(sym_id, grid.d, m)
    fields = [field_from_modes(grid, md) for md in modes]
    got = apply_direct(OperatorSpec(sym, m, pad_factor=pad_factor), fields)
    scalar = _smooth if sym_id == "smooth" else scalar_symbol(sym_id)
    want = apply_multilinear_modes(scalar, *modes)
    return dft_forward(got).coeffs, spectrum_from_modes(got.grid, want).coeffs


def _max_rel(got: np.ndarray, want: np.ndarray) -> float:
    """Largest coefficient error relative to the largest reference coefficient."""
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


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
        modes = [_input_modes(grid, kind, seed=200 + j) for j, kind in enumerate(kinds)]
        got, want = _direct_and_oracle(sym_id, grid, modes, pad_factor)
        assert got.shape == (padded_points(n, pad_factor or m),) * d
        assert _max_rel(got, want) <= 1e-12

    @pytest.mark.parametrize(
        "sym_id, m, d, n, kinds",
        [
            ("riesz_product:2", 1, 2, 8, ("full",)),
            ("det_norm:1", 2, 2, 8, ("full", "full")),
            ("smooth", 2, 2, 8, ("full", "sparse")),
            ("one", 3, 1, 8, ("full", "full", "sparse")),
            ("riesz_product:1,2,1", 3, 2, 4, ("full", "full", "sparse")),
        ],
    )
    def test_block_partition(self, monkeypatch, sym_id, m, d, n, kinds):
        # _CHUNK 1 makes every tuple its own block; 37 splits the column slot
        # (col_step < n_cols) or leaves a partial last row block.
        grid = GridSpec(d=d, n=n)
        modes = [_input_modes(grid, kind, seed=210 + j) for j, kind in enumerate(kinds)]
        outputs = []
        for chunk in (1, 37, operators._CHUNK):
            monkeypatch.setattr(operators, "_CHUNK", chunk)
            got, want = _direct_and_oracle(sym_id, grid, modes)
            assert _max_rel(got, want) <= 1e-12
            outputs.append(got)
        for got in outputs[:-1]:
            assert _max_rel(got, outputs[-1]) <= 1e-14

    @pytest.mark.parametrize("sym_id", ["det_norm:1", "smooth", "one"])
    @pytest.mark.parametrize("scales", [(2, 2), (4, 4), (2, 1)])
    def test_compact_lattice_dilated(self, sym_id, scales):
        # Undilated inputs whose modes all lie on 2Z^d or 4Z^d, one slot
        # possibly on Z^d: modes are placed by frequency, with no lattice
        # inferred from them.
        base = GridSpec(d=2, n=8)
        grid = GridSpec(d=2, n=8 * max(scales))
        modes = [
            {tuple(a * c for c in xi): v for xi, v in _input_modes(base, kind, 220 + j).items()}
            for j, (a, kind) in enumerate(zip(scales, ("full", "sparse")))
        ]
        got, want = _direct_and_oracle(sym_id, grid, modes)
        assert _max_rel(got, want) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_compact_lattice_mean_only(self, m):
        grid = GridSpec(d=2, n=8)
        modes = [{(0, 0): complex(1.5 + j, -0.5)} for j in range(m)]
        got, want = _direct_and_oracle("one", grid, modes)
        assert _max_rel(got, want) <= 1e-12

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
            return np.where((b[..., 0] == 2.0), 1.0 + 0.0j, 0.0)

        sym = SymbolSpec(m=1, d=1, evaluator=ev, name="proj-2")
        op = OperatorSpec(sym, 1)
        got = apply_direct(op, [f])
        want = modes_on_grid({(2,): modes[(2,)]}, 1, got.grid.n)
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

    @pytest.mark.parametrize("t", [0, 2])
    def test_budget_counts_tuples_with_mean_mode(self, grid2d, monkeypatch, t):
        # The mean mode is active, and det's zero_rule 0 skips its tuples,
        # but the budget is judged on the full product, also for dilated
        # inputs, which accumulate on the compact lattice.
        u, modes = random_trig(grid2d, degree=1, seed=67)
        v, _ = random_trig(grid2d, degree=1, seed=68)
        u, v = dilate_dyadic(u, t), dilate_dyadic(v, t)
        assert abs(modes[(0, 0)]) > 0.0
        total = len(modes) ** 2
        op = OperatorSpec(det_symbol(2), 2)
        monkeypatch.setenv("MLAB_BUDGET", str(total))
        apply_direct(op, [u, v])
        monkeypatch.setenv("MLAB_BUDGET", str(total - 1))
        with pytest.raises(BudgetExceededError, match=f"{total} tuples"):
            apply_direct(op, [u, v])

    def test_row_indexed_evaluator_raises(self, grid2d):
        # ``b[:, c]`` reads the wrong axis of a broadcast block; the shape
        # check turns the silently wrong values into an error.
        def ev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return a[:, 0] * b[:, 0]

        sym = SymbolSpec(m=2, d=2, evaluator=ev, name="first-components")
        u, _ = random_trig(grid2d, degree=2, seed=69)
        with pytest.raises(ValueError, match="first-components"):
            apply_direct(OperatorSpec(sym, 2), [u, u])

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
    def _op(self, sym) -> OperatorSpec:
        exp = separable_expand(sym)
        return OperatorSpec(sym, sym.m, strategy=Separable(exp))

    def test_rank_one_product_symbol(self):
        g = GridSpec(d=2, n=16)
        sym = product_symbol([riesz_factor(2, 0), riesz_factor(2, 1)])
        op = self._op(sym)
        f1, _ = random_trig(g, degree=3, seed=67)
        f2, _ = random_trig(g, degree=3, seed=68)
        got = apply_separable(op, [f1, f2])
        want = apply_direct(OperatorSpec(sym, 2), [f1, f2])
        assert rel_l2(got.samples, want.samples) <= 1e-8

    def test_constant_symbol_on_covered_annuli(self):
        g = GridSpec(d=2, n=16)
        sym = one_symbol(2, 2)
        op = self._op(sym)
        f1, _ = random_trig(g, degree=3, seed=69)
        f2, _ = random_trig(g, degree=3, seed=70)
        # Every separable multiplier is 0 at the origin, so the inputs must
        # carry no mean mode for the constant symbol to be representable.
        f1 = Field(g, f1.samples - np.mean(f1.samples))
        f2 = Field(g, f2.samples - np.mean(f2.samples))
        got = apply_separable(op, [f1, f2])
        want = apply_direct(OperatorSpec(sym, 2), [f1, f2])
        assert rel_l2(got.samples, want.samples) <= 1e-8

    def test_det_norm_small_grid(self):
        g = GridSpec(d=2, n=8)
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        op = self._op(sym)
        f1, _ = random_trig(g, degree=3, seed=71)
        f2, _ = random_trig(g, degree=3, seed=72)
        got = apply_separable(op, [f1, f2])
        want = apply_direct(OperatorSpec(sym, 2), [f1, f2])
        assert rel_l2(got.samples, want.samples) <= 1e-12

    def test_det_norm_odd_power_off_grid(self):
        # sin^17 has angular modes up to 17; 32 nodes would alias them and
        # be wrong at directions off the nodes.
        g = GridSpec(d=2, n=16)
        sym = resolve_symbol("det_norm:17", 2)
        op = self._op(sym)
        f1, _ = random_trig(g, degree=5, seed=71)
        f2, _ = random_trig(g, degree=5, seed=72)
        got = apply_separable(op, [f1, f2])
        want = apply_direct(OperatorSpec(sym, 2), [f1, f2])
        assert rel_l2(got.samples, want.samples) <= 1e-12

    def test_uncovered_spectrum_rejected(self):
        # Every separable multiplier is 0 at the origin, so the constant
        # symbol cannot act on inputs that carry a mean mode.
        g = GridSpec(d=2, n=16)
        sym = one_symbol(2, 2)
        op = self._op(sym)
        f, _ = random_trig(g, degree=6, seed=73)
        f = Field(g, f.samples - np.mean(f.samples) + 1.0)
        with pytest.raises(UncoveredSpectrumError):
            apply_separable(op, [f, f])

    def test_total_symbol_nonzero_on_zero_slots_rejected(self):
        # zero_rule None: the evaluator is total and gives a nonzero value
        # on zero slots, which no separable term carries.
        def ev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            ra = np.maximum(np.hypot(a[..., 0], a[..., 1]), 1.0)
            rb = np.maximum(np.hypot(b[..., 0], b[..., 1]), 1.0)
            return (1.0 + a[..., 0] / ra) * (1.0 + b[..., 1] / rb)

        sym = SymbolSpec(m=2, d=2, evaluator=ev, name="shifted-riesz",
                         poly_homogeneous=True, zero_rule=None)
        op = self._op(sym)
        g = GridSpec(d=2, n=8)
        f, _ = random_trig(g, degree=2, seed=76)
        f0 = Field(g, f.samples - np.mean(f.samples))
        with pytest.raises(UncoveredSpectrumError):
            apply_separable(op, [f, f0])
        got = apply_separable(op, [f0, f0])
        want = apply_direct(OperatorSpec(sym, 2), [f0, f0])
        assert rel_l2(got.samples, want.samples) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_complex_symbol_matches_direct(self, m):
        g = GridSpec(d=2, n=8)
        sym = phase_symbol(m)
        op = self._op(sym)
        assert op.strategy.expansion.residual <= 1e-12
        fs = [random_trig(g, degree=3, seed=150 + j, real=False)[0] for j in range(m)]
        got = apply_separable(op, fs)
        want = apply_direct(OperatorSpec(sym, m), fs)
        assert rel_l2(got.samples, want.samples) <= 1e-12

    def test_trilinear_riesz_product(self):
        g = GridSpec(d=2, n=8)
        sym = resolve_symbol("riesz_product:1,2,1", 2)
        op = self._op(sym)
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
        sep = apply_operator(self._op(sym), [f1, f2])
        n = min(direct.grid.n, sep.grid.n)
        assert rel_l2(
            regrid_field(sep, n).samples, regrid_field(direct, n).samples
        ) <= 1e-8


# -- dilated grids ------------------------------------------------------------
#
# On inputs dilated by 2^t the operators work on the padded cell and return
# it on the same t.  The oracles below are the full-grid formulas on the
# tiled inputs (``conftest.tiled``): every output coefficient placed on the
# padded 2^t n grid, one inverse transform of that whole grid per spectrum;
# the cell output, tiled, must match them.


def _full_grid_direct(op: OperatorSpec, fields: list[Field]) -> np.ndarray:
    """Output samples of ``apply_direct``: every tuple's weight added at its
    sum frequency on the padded grid, then one full-grid inverse."""
    fields = [tiled(f) for f in fields]
    grid = fields[0].grid
    n_out = padded_points(grid.n, op.pad)
    supports = [active_modes(dft_forward(f)) for f in fields]
    m, d = op.m, grid.d
    blocks, weights = [], np.ones((1,) * m, dtype=np.complex128)
    for j, (fr, c) in enumerate(supports):
        shape = [1] * m
        shape[j] = fr.shape[0]
        blocks.append(fr.astype(np.float64).reshape(shape + [d]))
        weights = weights * c.reshape(shape)
    weights = weights * evaluate(op.symbol, blocks)
    sums = sum(blocks).astype(np.int64) % n_out
    sums = np.broadcast_to(sums, weights.shape + (d,)).reshape(-1, d)
    coeffs = np.zeros((n_out,) * d, dtype=np.complex128)
    np.add.at(coeffs, tuple(sums.T), weights.reshape(-1))
    return np.fft.ifftn(coeffs) * n_out**d


def _full_grid_separable(op: OperatorSpec, fields: list[Field]) -> np.ndarray:
    """Output samples of ``apply_separable``: per term, each slot's weighted
    coefficients on the padded grid, one full-grid inverse per slot."""
    fields = [tiled(f) for f in fields]
    exp = op.strategy.expansion
    grid = fields[0].grid
    n_out = padded_points(grid.n, op.pad)
    slots = []
    for j, f in enumerate(fields):
        freqs, coeffs = active_modes(dft_forward(f))
        live = np.any(freqs != 0, axis=-1)
        freqs, coeffs = freqs[live], coeffs[live]
        slots.append((tuple((freqs % n_out).T), coeffs * exp.factor_values(j, freqs)))
    acc = np.zeros((n_out,) * grid.d, dtype=np.complex128)
    for l in range(exp.rank):
        term = np.full(acc.shape, exp.coeffs[l], dtype=np.complex128)
        for idx, values in slots:
            loc = np.zeros(acc.shape, dtype=np.complex128)
            loc[idx] = values[l]
            term *= np.fft.ifftn(loc) * n_out**grid.d
        acc += term
    return acc


def _total_symbol(m: int, d: int) -> SymbolSpec:
    """Smooth complex symbol, total on zero slots (``zero_rule`` None)."""

    def ev(*blocks: np.ndarray) -> np.ndarray:
        phase = sum((0.7 - 0.2 * j) * b[..., 0] + 0.3 * b[..., -1] for j, b in enumerate(blocks))
        return np.cos(phase) + 1j * np.sin(0.5 * phase - 0.1)

    return SymbolSpec(m=m, d=d, evaluator=ev, name="total", zero_rule=None)


def _shifted_riesz(m: int, d: int) -> SymbolSpec:
    """Degree-0 symbol ``prod_j (1 + xi_j[0] / |xi_j|)``, total on zero slots."""

    def ev(*blocks: np.ndarray) -> np.ndarray:
        out = 1.0
        for b in blocks:
            out = out * (1.0 + b[..., 0] / np.maximum(np.linalg.norm(b, axis=-1), 1.0))
        return out

    return SymbolSpec(m=m, d=d, evaluator=ev, name="shifted-riesz",
                      poly_homogeneous=True, zero_rule=None)


# Base grid per dimension: the dilated grid is 2^t times finer.
_BASE_N = {1: 8, 2: 8, 3: 4}


def _lattice_inputs(d: int, m: int, t: int, seed: int, mean: bool = True) -> list[Field]:
    """``m`` dilated inputs: slots 0 and 2 on the even modes only, slot 1
    full band.  ``mean`` False drops the mean mode."""
    base = GridSpec(d=d, n=_BASE_N[d])
    rng = np.random.default_rng(seed)
    half = base.n // 2
    fields = []
    for j in range(m):
        keys = [tuple(int(c) - half for c in idx) for idx in np.ndindex(*base.shape)]
        if j % 2 == 0:
            keys = [xi for xi in keys if all(c % 2 == 0 for c in xi)]
        if not mean:
            keys = [xi for xi in keys if any(xi)]
        modes = {xi: complex(rng.standard_normal(), rng.standard_normal()) for xi in keys}
        fields.append(dilate_dyadic(field_from_modes(base, modes), t))
    return fields


_LATTICE_CASES = [
    (d, m, t)
    for d in (1, 2, 3)
    for m in (1, 2, 3)
    for t in range(4)
    if not (d == 3 and m == 3 and t == 3)  # a 128^3 output grid
]


def _tile_cell(f: Field) -> np.ndarray:
    return tiled(f).samples


class TestCompactLattice:
    @pytest.mark.parametrize("t", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cell_inverse_matches_full_grid(self, d, t):
        # A spectrum on a t-dilated cell, inverted there and tiled, against
        # the same coefficients placed at 2^t k and inverted on the whole grid.
        grid = GridSpec(d=d, n=16)
        cell = GridSpec(d=d, n=16 >> t, t=t)
        rng = np.random.default_rng(230 + t)
        coeffs = rng.standard_normal(cell.shape) + 1j * rng.standard_normal(cell.shape)
        full = np.zeros(grid.shape, dtype=np.complex128)
        full[np.ix_(*([cell.freqs() % grid.n] * d))] = coeffs
        got = dft_inverse(Spectrum(cell, coeffs))
        assert _max_rel(_tile_cell(got), np.fft.ifftn(full) * grid.npoints) <= 1e-14

    @pytest.mark.parametrize("d, m, t", _LATTICE_CASES)
    @pytest.mark.parametrize("zero_rule", [0, None])
    def test_direct_matches_full_grid(self, d, m, t, zero_rule):
        if zero_rule == 0:
            sym = resolve_symbol("riesz_product:" + ",".join(["1"] * m), d)
        else:
            sym = _total_symbol(m, d)
        op = OperatorSpec(sym, m)
        fields = _lattice_inputs(d, m, t, seed=240 + 10 * d + m)
        got = apply_direct(op, fields)
        assert got.grid == fields[0].grid.with_n(padded_points(fields[0].grid.n, m))
        assert got.grid.t == t
        assert _max_rel(_tile_cell(got), _full_grid_direct(op, fields)) <= 1e-14

    @pytest.mark.parametrize("d, m, t", [c for c in _LATTICE_CASES if c[0] < 3])
    @pytest.mark.parametrize("zero_rule", [0, None])
    def test_separable_matches_full_grid(self, d, m, t, zero_rule):
        if zero_rule == 0:
            sym = resolve_symbol("riesz_product:" + ",".join([str(d)] * m), d)
        else:
            sym = _shifted_riesz(m, d)
        op = OperatorSpec(sym, m, strategy=Separable(separable_expand(sym)))
        fields = _lattice_inputs(d, m, t, seed=260 + 10 * d + m, mean=zero_rule == 0)
        got = apply_separable(op, fields)
        assert got.grid == fields[0].grid.with_n(padded_points(fields[0].grid.n, m))
        assert got.grid.t == t
        assert _max_rel(_tile_cell(got), _full_grid_separable(op, fields)) <= 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("t", [0, 2])
    def test_mean_only_inputs(self, d, m, t):
        base = GridSpec(d=d, n=_BASE_N[d])
        fields = [
            dilate_dyadic(field_from_modes(base, {(0,) * d: complex(1.5 + j, -0.5)}), t)
            for j in range(m)
        ]
        for sym in (one_symbol(m, d), _total_symbol(m, d)):
            op = OperatorSpec(sym, m)
            got = apply_direct(op, fields)
            assert _max_rel(_tile_cell(got), _full_grid_direct(op, fields)) <= 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_inputs_give_zero_without_a_transform(self, monkeypatch, d, m):
        base = GridSpec(d=d, n=8)
        fields = [dilate_dyadic(Field(base, np.zeros(base.shape)), 1)] * m
        grid_out = base.dilated(1).with_n(padded_points(8, m))
        sym = resolve_symbol("riesz_product:" + ",".join(["1"] * m), d)
        sep = apply_separable(OperatorSpec(sym, m, strategy=Separable(separable_expand(sym))), fields)
        assert sep.grid == grid_out and not np.any(sep.samples)

        def no_inverse(*args, **kwargs):
            raise AssertionError("inverse transform of an empty output")

        monkeypatch.setattr(operators, "dft_inverse", no_inverse)
        for sym in (one_symbol(m, d), _total_symbol(m, d)):
            out = apply_direct(OperatorSpec(sym, m), fields)
            assert out.grid == grid_out and not np.any(out.samples)

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize(
        "sym_id, strategy",
        [("det_norm:1", "direct"), ("det_norm:1", "separable"),
         ("riesz_product:1,2", "direct"), ("riesz_product:1,2", "separable"),
         ("one", "direct")],
    )
    def test_degree_zero_dilation_keeps_output_samples(self, sym_id, strategy, t):
        # a(2^t xi) = a(xi), so T(f(2^t .)) is T(f)(2^t .): the undilated
        # output's samples on the dilated grid.
        base = GridSpec(d=2, n=8)
        sym = resolve_symbol(sym_id, 2, m=2)
        op = OperatorSpec(sym, 2)
        if strategy == "separable":
            op = OperatorSpec(sym, 2, strategy=Separable(separable_expand(sym)))
        fs = [random_field(280 + j, base, 1.0) for j in range(2)]
        want = apply_operator(op, fs)
        got = apply_operator(op, [dilate_dyadic(f, t) for f in fs])
        assert got.grid == want.grid.dilated(t)
        assert _max_rel(got.samples, want.samples) <= 1e-14


def _family(d: int, m: int, t: int, seed: int) -> list[list[Field]]:
    """Four members on one grid: two full-band members with a mean mode,
    whose supports are equal; a third with a cutoff, whose supports are
    smaller; and the third with every spectrum rolled by one index along
    the first axis, whose supports have the third's sizes but other modes.
    The family forms three groups."""
    base = GridSpec(d=d, n=_BASE_N[d])
    full = [_lattice_inputs(d, m, t, seed=seed + i) for i in range(2)]
    cut = [dilate_dyadic(random_field(seed + 10 + j, base, 1.0, cutoff=1.0), t) for j in range(m)]
    rolled = [
        dft_inverse(Spectrum(f.grid, np.roll(dft_forward(f).coeffs, 1, axis=0))) for f in cut
    ]
    return full + [cut, rolled]


def _counted_tuples(monkeypatch) -> list[int]:
    """Tuples ``operators.evaluate`` receives from here on, in one counter."""
    seen = [0]

    def counted(sym, xis):
        out = evaluate(sym, xis)
        seen[0] += out.size
        return out

    monkeypatch.setattr(operators, "evaluate", counted)
    return seen


class TestApplyDirectFamily:
    @pytest.mark.parametrize("t", [0, 2])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("zero_rule", [0, None])
    def test_members_equal_their_own_calls(self, monkeypatch, d, m, t, zero_rule):
        if zero_rule == 0:
            sym = resolve_symbol("riesz_product:" + ",".join(["1"] * m), d)
        else:
            sym = _total_symbol(m, d)
        op = OperatorSpec(sym, m)
        family = _family(d, m, t, seed=300 + 10 * d + m)
        want = [apply_direct(op, fs) for fs in family]
        seen = _counted_tuples(monkeypatch)
        for members in (family[:1], family):
            seen[0] = 0
            got = apply_direct_family(op, members)
            assert len(got) == len(members)
            for out, ref in zip(got, want):
                assert out.grid == ref.grid
                assert out.samples.tobytes() == ref.samples.tobytes()
        # The two full-band members share one enumeration; the cutoff
        # member and its rolled copy are a group each.
        freqs = [[active_modes(dft_forward(f))[0] for f in fs] for fs in family]
        if zero_rule == 0:
            freqs = [[fr[np.any(fr != 0, axis=-1)] for fr in frs] for frs in freqs]
        tuples = [math.prod(fr.shape[0] for fr in frs) for frs in freqs]
        assert tuples[2] < tuples[0] == tuples[1]
        assert seen[0] == tuples[0] + tuples[2] + tuples[3]

    def test_empty_family(self):
        assert apply_direct_family(OperatorSpec(one_symbol(2, 1), 2), []) == []

    def test_over_budget_group_raises(self, monkeypatch):
        op = OperatorSpec(det_symbol(2), 2)
        family = _family(2, 2, 1, seed=330)
        small, big = family[2:3], family[:1]
        total = math.prod(active_modes(dft_forward(f))[0].shape[0] for f in big[0])
        monkeypatch.setenv("MLAB_BUDGET", str(total - 1))
        apply_direct(op, small[0])
        with pytest.raises(BudgetExceededError, match=f"{total} tuples"):
            apply_direct(op, big[0])
        with pytest.raises(BudgetExceededError, match=f"{total} tuples"):
            apply_direct_family(op, small + big)
        monkeypatch.setenv("MLAB_BUDGET", str(total))
        assert len(apply_direct_family(op, small + big)) == 2


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
    @pytest.mark.parametrize("d, n, degree", [(2, 16, 3), (3, 8, 1)])
    def test_matches_direct_pairing_random_fields(self, d, n, degree, k):
        g = GridSpec(d=d, n=n)
        fields = [random_trig(g, degree=degree, seed=80 + 10 * i + k)[0] for i in range(d)]
        phi, _ = random_trig(g, degree=3, seed=100 + k)
        sym = det_symbol(d)
        got = pair_with_transfer(sym, k, fields, phi)
        out = apply_direct(OperatorSpec(power_symbol(sym, k), d), fields)
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

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("t_fields, t_phi", [(0, 1), (0, 2), (1, 0)])
    def test_phi_on_another_dilation_matches_direct_pairing(self, t_fields, t_phi, k):
        # A test function more dilated than the inputs once raised
        # "negative shift count".
        g = GridSpec(d=2, n=8)
        f1, f2 = (dilate_dyadic(random_field(sd, g, 2.0), t_fields) for sd in (160, 161))
        phi = dilate_dyadic(random_field(162 + k, g, 4.0), t_phi)
        sym = det_symbol(2)
        got = pair_with_transfer(sym, k, [f1, f2], phi)
        want = pair(apply_direct(OperatorSpec(power_symbol(sym, k), 2), [f1, f2]), phi)
        assert abs(want) > 1e-3
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("d, k", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 2)])
    def test_one_direct_application_per_multi_index(self, monkeypatch, d, k):
        # The d^k ordered derivative combinations collapse to the
        # C(d + k - 1, k) multi-indices |alpha| = k.
        calls = []
        direct = operators.apply_direct

        def counted(*args, **kwargs):
            calls.append(args)
            return direct(*args, **kwargs)

        monkeypatch.setattr(operators, "apply_direct", counted)
        g = GridSpec(d=d, n=8)
        fields = [random_trig(g, degree=1, seed=150 + i)[0] for i in range(d)]
        phi, _ = random_trig(g, degree=1, seed=149)
        pair_with_transfer(det_symbol(d), k, fields, phi)
        assert len(calls) == math.comb(d + k - 1, k)

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

    @pytest.mark.parametrize("sym_id, linear", [
        ("det", True), ("det_pow:1", True), ("det_norm:1", False), ("det_pow:3", False),
    ])
    def test_slot_one_linearity_probe(self, sym_id, linear):
        # The rewrite needs sigma linear in slot 1.  det_norm:1 and det_pow:3
        # are alternating but not linear; their transferred pairings were
        # 46-118 % off the direct pairing before the probe refused them.
        g = GridSpec(d=2, n=8)
        f1, f2, phi = (random_field(sd, g, 2.0) for sd in (0, 131, 262))
        sym = resolve_symbol(sym_id, 2, m=2)
        if not linear:
            with pytest.raises(ValueError, match="not linear in slot 1"):
                pair_with_transfer(sym, 1, [f1, f2], phi)
            return
        got = pair_with_transfer(sym, 1, [f1, f2], phi)
        out = apply_direct(OperatorSpec(power_symbol(sym, 1), 2), [f1, f2])
        want = pair(out, regrid_field(phi, out.grid.n))
        assert abs(got - want) <= 1e-12 * abs(want)


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
