"""Multilinear multiplier operators: direct enumeration and separable fast path.

``apply_direct`` is the reference evaluator: it enumerates every tuple of
active input modes, evaluates the symbol there, and accumulates the output
coefficient at the sum frequency.  The output lives on a grid enlarged by
``pad_factor`` so the result is exact as a trigonometric polynomial; with
``pad_factor >= m`` no sum of input frequencies can wrap.  The tuples form
an outer sum of row tuples (the first ``m - 1`` slots) and column modes (the
last slot), so each block's weights and output positions are broadcast
products and sums.  Positions are linear indices of frequencies shifted by
``n/2`` per axis, which keeps every sum inside the output band without a
modulo; one roll per axis restores FFT order.

``apply_separable`` evaluates the same operator through the angular
separable expansion of a degree-zero symbol: each term is one
single-variable multiplier per slot, the factor evaluated at the direction
of every nonzero mode, so each term costs ``m`` multiplier applications and
one dealiased pointwise product.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .decomp import SeparableExpansion
from .errors import BudgetExceededError, GridMismatchError, UncoveredSpectrumError
from .grid import (
    _SUPPORT_RTOL,
    Field,
    Spectrum,
    common_grid,
    dft_forward,
    dft_inverse,
    padded_points,
    pair,
    product_on_grid,
    regrid_field,
    spectral_derivative,
    support,
)
from .symbols import SymbolSpec, evaluate

__all__ = [
    "DEFAULT_BUDGET",
    "enumeration_budget",
    "Direct",
    "Separable",
    "OperatorSpec",
    "apply_direct",
    "apply_separable",
    "apply_operator",
    "pair_with_transfer",
]

DEFAULT_BUDGET = 20_000_000
_CHUNK = 1 << 19


def enumeration_budget() -> int:
    """Tuple-enumeration cap; override with the ``MLAB_BUDGET`` env var.

    A value that is not a positive integer raises ``ValueError``.
    """
    raw = os.environ.get("MLAB_BUDGET", "")
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"MLAB_BUDGET must be a positive integer, got {raw!r}")
    return budget


@dataclass(frozen=True)
class Direct:
    """Exhaustive enumeration strategy."""


@dataclass(frozen=True)
class Separable:
    """Angular separable expansion fast path."""

    expansion: SeparableExpansion


@dataclass(frozen=True)
class OperatorSpec:
    """A multiplier operator: symbol, arity, strategy, output padding."""

    symbol: SymbolSpec
    m: int
    strategy: Direct | Separable = field(default_factory=Direct)
    pad_factor: int | None = None

    def __post_init__(self) -> None:
        if self.m != self.symbol.m:
            raise ValueError(f"arity {self.m} != symbol arity {self.symbol.m}")
        if self.pad_factor is not None and self.pad_factor < self.m:
            raise ValueError("pad_factor below arity would alias output frequencies")

    @property
    def pad(self) -> int:
        return self.pad_factor if self.pad_factor is not None else self.m


def apply_direct(op: OperatorSpec, fields: list[Field]) -> Field:
    """Reference evaluation by exhaustive mode-tuple enumeration.

    Output coefficient at ``eta`` is
    ``sum_{xi_1 + ... + xi_m = eta} a(xi_1, ..., xi_m) prod_j fhat_j(xi_j)``
    over the active modes of the inputs, returned on the ``pad``-enlarged
    grid.  Enumerations beyond the configured budget raise.

    The tuples are enumerated as an outer sum: rows are the combinations of
    the first ``m - 1`` slots, columns the modes of the last slot, taken in
    blocks of about ``_CHUNK`` tuples.  A block's weights are the row's
    coefficient product times the symbol times the column's coefficient.
    Its output positions are outer sums of per-mode linear indices of the
    shifted frequencies ``xi + n/2``: each component lies in ``[0, n)``, so
    a sum of ``m`` of them lies in ``[0, m (n - 1)]``, inside the ``n_out``
    band, and no tuple needs a modulo.  One roll by ``-m n/2`` per axis puts
    the accumulated coefficients back in FFT order.
    """
    if len(fields) != op.m:
        raise ValueError(f"expected {op.m} inputs, got {len(fields)}")
    grid = common_grid(fields)
    if grid.d != op.symbol.d:
        raise GridMismatchError("symbol dimension differs from grid dimension")
    # Modes within one ulp of the largest coefficient are transform noise,
    # not content; keeping them would inflate sparse supports to the full
    # lattice after any FFT round trip.
    supports = []
    for f in fields:
        s = dft_forward(f)
        peak = float(np.max(np.abs(s.coeffs)))
        supports.append(support(s, tol=_SUPPORT_RTOL * peak))
    sizes = [fr.shape[0] for fr, _ in supports]
    total = math.prod(sizes)
    budget = enumeration_budget()
    if total > budget:
        raise BudgetExceededError(
            f"direct enumeration of {total} tuples exceeds budget {budget}"
        )
    n_out = padded_points(grid.n, op.pad)
    grid_out = grid.with_n(n_out)
    acc_re = np.zeros(grid_out.npoints, dtype=np.float64)
    acc_im = np.zeros(grid_out.npoints, dtype=np.float64)
    half = grid.n // 2
    if total > 0:
        strides = n_out ** np.arange(grid.d - 1, -1, -1, dtype=np.int64)
        lin = [(fr + half) @ strides for fr, _ in supports]
        xis = [fr.astype(np.float64) for fr, _ in supports]
        coeffs = [c for _, c in supports]
        n_cols = sizes[-1]
        n_rows = total // n_cols
        col_step = min(n_cols, _CHUNK)
        row_step = max(1, _CHUNK // col_step)
        for r0 in range(0, n_rows, row_step):
            rem = np.arange(r0, min(r0 + row_step, n_rows), dtype=np.int64)
            height = rem.shape[0]
            prefix = np.ones(height, dtype=np.complex128)
            row_lin = np.zeros(height, dtype=np.int64)
            row_xis = []
            for j in range(op.m - 2, -1, -1):
                idx = rem % sizes[j]
                rem = rem // sizes[j]
                prefix = prefix * coeffs[j][idx]
                row_lin += lin[j][idx]
                row_xis.append(xis[j][idx])
            row_xis.reverse()
            for c0 in range(0, n_cols, col_step):
                cols = slice(c0, c0 + col_step)
                col_xis = xis[-1][cols]
                width = col_xis.shape[0]
                blocks = [np.repeat(x, width, axis=0) for x in row_xis]
                blocks.append(np.tile(col_xis, (height, 1)))
                sym = evaluate(op.symbol, blocks).reshape(height, width)
                weights = (prefix[:, None] * sym * coeffs[-1][cols]).reshape(-1)
                flat = (row_lin[:, None] + lin[-1][cols]).reshape(-1)
                acc_re += np.bincount(flat, weights=weights.real, minlength=grid_out.npoints)
                acc_im += np.bincount(flat, weights=weights.imag, minlength=grid_out.npoints)
    shifted = (acc_re + 1j * acc_im).reshape(grid_out.shape)
    coeffs_out = np.roll(shifted, (-op.m * half,) * grid.d, axis=tuple(range(grid.d)))
    return dft_inverse(Spectrum(grid_out, coeffs_out))


def _check_mean_modes(op: OperatorSpec, spectra: list[Spectrum]) -> None:
    """Every multiplier is 0 at the origin, so a symbol that is not null on
    zero slots cannot act on an input with an active mean mode."""
    if op.symbol.zero_rule in (0, None):
        return
    for s in spectra:
        peak = float(np.max(np.abs(s.coeffs)))
        if abs(s.coeffs.reshape(-1)[0]) > _SUPPORT_RTOL * peak:
            raise UncoveredSpectrumError(
                "input has a mean mode but the symbol is not null on zero slots"
            )


def apply_separable(op: OperatorSpec, fields: list[Field]) -> Field:
    """Fast path through the separable expansion of a poly-homogeneous symbol.

    Degree zero in each slot makes the dyadic scale sum of a factor collapse
    to ``sum_s psi(2^-s xi) F_jl(2^-s xi) = F_jl(xi / |xi|)``, so slot ``j`` of
    term ``l`` is the single-variable multiplier ``F_jl`` at the direction of
    every nonzero mode and 0 at the origin.  The slot outputs are multiplied
    on the padded grid.  Agreement with ``apply_direct`` is governed by the
    recorded expansion residual plus the angular interpolation error.
    """
    if not isinstance(op.strategy, Separable):
        raise ValueError("operator strategy is not separable")
    exp = op.strategy.expansion
    if exp.m != op.m:
        raise ValueError("expansion arity differs from operator arity")
    if len(fields) != op.m:
        raise ValueError(f"expected {op.m} inputs, got {len(fields)}")
    grid = common_grid(fields)
    spectra = [dft_forward(f) for f in fields]
    _check_mean_modes(op, spectra)

    pts = np.stack([m.reshape(-1) for m in grid.freq_mesh()], axis=-1).astype(np.float64)
    nonzero = np.any(pts != 0.0, axis=-1)

    multipliers = []  # per slot: (rank, npoints)
    for slot in range(op.m):
        M = np.zeros((exp.rank, grid.npoints), dtype=np.complex128)
        M[:, nonzero] = exp.factor_values(slot, pts[nonzero])
        multipliers.append(M)

    n_out = padded_points(grid.n, op.pad)
    grid_out = grid.with_n(n_out)
    acc = np.zeros(grid_out.shape, dtype=np.complex128)
    for l in range(exp.rank):
        gs = []
        for slot in range(op.m):
            loc = spectra[slot].coeffs * multipliers[slot][l].reshape(grid.shape)
            gs.append(dft_inverse(Spectrum(grid, loc)))
        acc += exp.coeffs[l] * product_on_grid(gs, n_out).samples
    return Field(grid_out, acc)


def apply_operator(op: OperatorSpec, fields: list[Field]) -> Field:
    if isinstance(op.strategy, Separable):
        return apply_separable(op, fields)
    return apply_direct(op, fields)


def _probe_alternating(sigma_m: SymbolSpec, seed: int = 7, tol: float = 1e-10) -> None:
    """Reject symbols that are not alternating multilinear (sampled)."""
    rng = np.random.default_rng(seed)
    m, d = sigma_m.m, sigma_m.d
    B = 32
    tuples = rng.integers(-6, 7, size=(B, m, d)).astype(np.float64)
    generic = np.max(np.abs(evaluate(sigma_m, [tuples[:, j] for j in range(m)])))
    scale = max(float(generic), 1.0)
    for a in range(m):
        for b in range(a + 1, m):
            clone = tuples.copy()
            clone[:, b] = clone[:, a]
            dup = np.max(np.abs(evaluate(sigma_m, [clone[:, j] for j in range(m)])))
            if float(dup) > tol * scale:
                raise ValueError(
                    f"symbol {sigma_m.name!r} is not alternating (repeated-slot probe)"
                )


def pair_with_transfer(
    sigma_m: SymbolSpec,
    k: int,
    fields: list[Field],
    phi: Field,
) -> complex:
    """Derivative-transferred pairing ``<T_{sigma_m^k}(f_1, ..., f_m), phi>``.

    Uses the alternating rewrite
    ``sigma_m(xi_1, ..., xi_m) = sigma_m(xi_1 + ... + xi_m, xi_2, ..., xi_m)``
    and multilinearity in the first slot to move every factor of the output
    frequency onto ``phi`` as a spectral derivative: with
    ``C_l(xi_2, ..., xi_m) = sigma_m(e_l, xi_2, ..., xi_m)``,

    ``<T, phi> = (i period / 2 pi)^k sum_{l_1..l_k}
    <T_{C_{l_1} ... C_{l_k}}(f...), d_{l_1} ... d_{l_k} phi>``.

    ``k = 0`` degenerates to the plain pairing with symbol one.  The rewrite
    is a pointwise identity on every tuple, zero slots included, so the
    result matches the direct pairing to rounding error.
    """
    if k < 0:
        raise ValueError("power must be >= 0")
    grid = common_grid(fields)
    m, d = sigma_m.m, sigma_m.d
    if phi.grid.d != grid.d or phi.grid.period != grid.period:
        raise GridMismatchError("test function incompatible with input grid")
    _probe_alternating(sigma_m)
    if sigma_m.zero_rule not in (None, 0.0):
        raise ValueError("alternating symbols must vanish on zero slots")
    n_out = padded_points(grid.n, m)

    if k == 0:
        from .symbols import one_symbol

        op = OperatorSpec(one_symbol(m, d), m)
        T = apply_direct(op, fields)
        return pair(T, regrid_field(phi, n_out))

    scale = (1j * grid.period / (2.0 * math.pi)) ** k
    total = 0.0 + 0.0j
    for combo in iter_product(range(d), repeat=k):

        def reduced(*blocks: np.ndarray, _combo=combo) -> np.ndarray:
            out = np.ones(blocks[0].shape[0], dtype=np.complex128)
            for l in _combo:
                e = np.zeros((blocks[0].shape[0], d))
                e[:, l] = 1.0
                out = out * np.asarray(
                    sigma_m.evaluator(e, *blocks[1:]), dtype=np.complex128
                )
            return out

        c_sym = SymbolSpec(
            m=m,
            d=d,
            evaluator=reduced,
            name=f"{sigma_m.name}-reduced{combo}",
            zero_rule=None,
        )
        op = OperatorSpec(c_sym, m)
        T = apply_direct(op, fields)
        # Differentiate on the padded grid: there the Nyquist row of phi is
        # an interior mode, which ``spectral_derivative`` keeps.
        dphi = regrid_field(phi, n_out)
        for l in combo:
            dphi = spectral_derivative(dphi, l)
        total += pair(T, dphi)
    return complex(scale * total)
