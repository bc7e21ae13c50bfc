"""Multilinear multiplier operators: direct enumeration and separable fast path.

``apply_direct`` is the reference evaluator: it enumerates every tuple of
active input modes, evaluates the symbol there, and accumulates the output
coefficient at the sum frequency.  The output lives on a grid enlarged by
``pad_factor`` so the result is exact as a trigonometric polynomial; with
``pad_factor >= m`` no sum of input frequencies can wrap.

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
    GridSpec,
    Spectrum,
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


def _common_grid(fields: list[Field]) -> GridSpec:
    g0 = fields[0].grid
    for f in fields[1:]:
        if f.grid != g0:
            raise GridMismatchError("operator inputs live on different grids")
    return g0


def apply_direct(op: OperatorSpec, fields: list[Field]) -> Field:
    """Reference evaluation by exhaustive mode-tuple enumeration.

    Output coefficient at ``eta`` is
    ``sum_{xi_1 + ... + xi_m = eta} a(xi_1, ..., xi_m) prod_j fhat_j(xi_j)``
    over the active modes of the inputs, returned on the ``pad``-enlarged
    grid.  Enumerations beyond the configured budget raise.
    """
    if len(fields) != op.m:
        raise ValueError(f"expected {op.m} inputs, got {len(fields)}")
    grid = _common_grid(fields)
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
    total = int(np.prod([max(s, 1) for s in sizes]))
    if any(s == 0 for s in sizes):
        total = 0
    budget = enumeration_budget()
    if total > budget:
        raise BudgetExceededError(
            f"direct enumeration of {total} tuples exceeds budget {budget}"
        )
    n_out = padded_points(grid.n, op.pad)
    grid_out = grid.with_n(n_out)
    acc_re = np.zeros(grid_out.npoints, dtype=np.float64)
    acc_im = np.zeros(grid_out.npoints, dtype=np.float64)
    if total > 0:
        strides = np.array(
            [n_out ** (grid.d - 1 - ax) for ax in range(grid.d)], dtype=np.int64
        )
        for start in range(0, total, _CHUNK):
            lin = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
            xis = []
            coeff = np.ones(lin.shape[0], dtype=np.complex128)
            rem = lin
            for j in range(op.m - 1, -1, -1):
                idx = rem % sizes[j]
                rem = rem // sizes[j]
                xis.append(supports[j][0][idx])
                coeff = coeff * supports[j][1][idx]
            xis.reverse()
            weights = coeff * evaluate(op.symbol, [x.astype(np.float64) for x in xis])
            eta = np.zeros((lin.shape[0], grid.d), dtype=np.int64)
            for x in xis:
                eta += x
            flat = (eta % n_out) @ strides
            acc_re += np.bincount(flat, weights=weights.real, minlength=grid_out.npoints)
            acc_im += np.bincount(flat, weights=weights.imag, minlength=grid_out.npoints)
    coeffs = (acc_re + 1j * acc_im).reshape(grid_out.shape)
    return dft_inverse(Spectrum(grid_out, coeffs))


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
    grid = _common_grid(fields)
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
    pad_factor: int | None = None,
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
    grid = _common_grid(fields)
    m, d = sigma_m.m, sigma_m.d
    if phi.grid.d != grid.d or phi.grid.period != grid.period:
        raise GridMismatchError("test function incompatible with input grid")
    _probe_alternating(sigma_m)
    if sigma_m.zero_rule not in (None, 0.0):
        raise ValueError("alternating symbols must vanish on zero slots")
    pad = pad_factor if pad_factor is not None else m
    n_out = padded_points(grid.n, pad)

    if k == 0:
        from .symbols import one_symbol

        op = OperatorSpec(one_symbol(m, d), m, pad_factor=pad)
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
        op = OperatorSpec(c_sym, m, pad_factor=pad)
        T = apply_direct(op, fields)
        dphi = phi
        for l in combo:
            dphi = spectral_derivative(dphi, l)
        total += pair(T, regrid_field(dphi, n_out))
    return complex(scale * total)
