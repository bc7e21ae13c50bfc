"""Multilinear multiplier operators: direct enumeration and separable fast path.

``apply_direct`` is the reference evaluator: it enumerates every tuple of
active input modes, evaluates the symbol there, and accumulates the output
coefficient at the sum frequency.  ``apply_direct_family`` holds its one
enumeration loop and runs it once for every group of input tuples whose
supports are equal: the symbol values and output positions of a block serve
every member of the group, only the weights and their accumulation are per
member, and every output is bitwise equal to the member's own call.
``apply_direct`` is the family of one.  The output lives on a grid enlarged by
``pad_factor`` so the result is exact as a trigonometric polynomial; with
``pad_factor >= m`` no sum of input frequencies can wrap.  The tuples form
an outer sum of row tuples (the first ``m - 1`` slots) and column modes (the
last slot), taken in cache-sized blocks, so each block's weights and output
positions are broadcast products and sums.  Positions are linear indices of
frequencies shifted by ``n/2`` per axis, which keeps every sum inside the
output band without a modulo.

Both routes work on the inputs' grid as it is: on a grid dilated by
``dilate_dyadic`` (``GridSpec.t > 0``) the symbol sees the physical
frequencies ``2^t k``, the modes are placed by their index ``k`` on the
padded cell, and the output is that cell on the same ``t``, so the
``2^t``-times finer grid is never built.

``apply_separable`` evaluates the same operator through the angular
separable expansion of a degree-zero symbol: each term is one
single-variable multiplier per slot, the factor evaluated at the direction
of every active nonzero mode, so each term costs ``m`` inverse transforms
and one pointwise product on the padded cell.

``pair_with_transfer`` pairs an alternating symbol's power with a test
function by moving the output frequency onto it: a sum over multi-indices
``|alpha| = k`` with weight ``k! / alpha!`` of one ``apply_direct`` and one
``grid.apply_multiplier`` derivative ``d^alpha phi`` each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomp import SeparableExpansion
from .errors import (
    BudgetExceededError,
    GridMismatchError,
    UncoveredSpectrumError,
    enumeration_budget,
)
from .grid import (
    Field,
    GridSpec,
    Spectrum,
    active_modes,
    apply_multiplier,
    common_grid,
    derivative_multiplier,
    dft_forward,
    dft_inverse,
    padded_points,
    pair,
    regrid_spectrum,
)
from .spaces import multi_indices
from .symbols import SymbolSpec, evaluate

__all__ = [
    "enumeration_budget",
    "Separable",
    "OperatorSpec",
    "apply_direct",
    "apply_direct_family",
    "apply_separable",
    "apply_operator",
    "pair_with_transfer",
]

_CHUNK = 1 << 14


@dataclass(frozen=True)
class Separable:
    """Angular separable expansion fast path."""

    expansion: SeparableExpansion


@dataclass(frozen=True)
class OperatorSpec:
    """A multiplier operator: symbol, arity, strategy (None: direct), output padding."""

    symbol: SymbolSpec
    m: int
    strategy: Separable | None = None
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
    grid.  Enumerations beyond the configured budget raise.  This is
    ``apply_direct_family`` on a family of one, which holds the one
    enumeration loop.
    """
    return apply_direct_family(op, [fields])[0]


def apply_direct_family(op: OperatorSpec, batch: list[list[Field]]) -> list[Field]:
    """``apply_direct`` of every input tuple of ``batch``, in order, each
    output bitwise equal to its own call.

    Every member is validated and checked against the budget as its own
    call would be, before any enumeration.  When the symbol is
    ``null_on_zero_slots``, the mean mode is then dropped from every
    support: the budget still counts the full product, and tuples with a
    zero slot add exactly nothing.  Members on the same grid whose supports
    are equal, slot by slot, form a group, and each group's tuples are
    enumerated once: the symbol values and output positions of a block
    serve every member of the group, and only the weights and their
    accumulation are per member.

    The tuples are enumerated as an outer sum: rows are the combinations of
    the first ``m - 1`` slots, columns the modes of the last slot, taken in
    blocks of about ``_CHUNK`` tuples, small enough that every temporary of
    a block stays in cache.  The symbol sees a block as broadcasting views,
    the row slots shaped ``(height, 1, d)`` and the column slot
    ``(1, width, d)``, so no tuple is copied.  A member's weights are its
    row coefficient product times the symbol times its column coefficient.
    Weights and positions are written into one workspace that every block
    reuses, so the blocks do not churn the heap: freed block-sized
    temporaries would otherwise be trimmed and page-faulted back in on
    every block.

    Output positions are outer sums of per-mode linear indices of the
    shifted FFT indices ``xi / 2^t + n/2``: each component lies in
    ``[0, n)``, so a sum of ``m`` of them lies in ``[0, m (n - 1)]``, inside
    the ``n_out`` band, and no tuple needs a modulo.  A member accumulates
    the real and imaginary parts of its weights with one ``bincount`` each.
    One roll per axis puts the accumulated cell in FFT order and one
    ``dft_inverse`` runs there.  When no tuple is live the output is zero
    and no transform runs.
    """
    budget = enumeration_budget()
    groups: dict = {}
    for i, fields in enumerate(batch):
        if len(fields) != op.m:
            raise ValueError(f"expected {op.m} inputs, got {len(fields)}")
        grid = common_grid(fields)
        if grid.d != op.symbol.d:
            raise GridMismatchError("symbol dimension differs from grid dimension")
        supports = [active_modes(dft_forward(f)) for f in fields]
        total = math.prod(fr.shape[0] for fr, _ in supports)
        if total > budget:
            raise BudgetExceededError(
                f"direct enumeration of {total} tuples exceeds budget {budget}"
            )
        if op.symbol.null_on_zero_slots:
            # Tuples with a zero slot add exactly nothing: drop each mean mode.
            live = [np.any(fr != 0, axis=-1) for fr, _ in supports]
            supports = [(fr[keep], c[keep]) for (fr, c), keep in zip(supports, live)]
        key = (grid, *(fr.tobytes() for fr, _ in supports))
        if key not in groups:
            groups[key] = (grid, [fr for fr, _ in supports], [], [])
        _, _, members, coeffs = groups[key]
        members.append(i)
        coeffs.append([c for _, c in supports])
    outs: list = [None] * len(batch)
    for grid, freqs, members, coeffs in groups.values():
        for i, out in zip(members, _enumerate_group(op, grid, freqs, coeffs)):
            outs[i] = out
    return outs


def _enumerate_group(
    op: OperatorSpec,
    grid: GridSpec,
    freqs: list[np.ndarray],
    coeffs: list[list[np.ndarray]],
) -> list[Field]:
    """The block loop of ``apply_direct_family`` over one group: ``freqs``
    holds the shared support of each slot, ``coeffs[i][j]`` member ``i``'s
    coefficients on slot ``j``."""
    sizes = [fr.shape[0] for fr in freqs]
    total = math.prod(sizes)
    grid_out = grid.with_n(padded_points(grid.n, op.pad))
    if total == 0:
        return [Field(grid_out, np.zeros(grid_out.shape, dtype=np.complex128)) for _ in coeffs]
    half = grid.n // 2
    accs = [np.zeros((2, grid_out.npoints), dtype=np.float64) for _ in coeffs]
    strides = grid_out.n ** np.arange(grid.d - 1, -1, -1, dtype=np.int64)
    lin = [((fr >> grid.t) + half) @ strides for fr in freqs]
    xis = [fr.astype(np.float64) for fr in freqs]
    n_cols = sizes[-1]
    n_rows = total // n_cols
    col_step = min(n_cols, _CHUNK)
    row_step = max(1, _CHUNK // col_step)
    block = min(row_step, n_rows) * col_step
    work = np.empty(5 * block)
    w_buf = work[: 2 * block].view(np.complex128)
    parts = work[2 * block : 4 * block].reshape(2, block)
    flat_buf = work[4 * block :].view(np.int64)
    for r0 in range(0, n_rows, row_step):
        rem = np.arange(r0, min(r0 + row_step, n_rows), dtype=np.int64)
        height = rem.shape[0]
        row_lin = np.zeros(height, dtype=np.int64)
        row_idx, row_xis = [], []
        for j in range(op.m - 2, -1, -1):
            idx = rem % sizes[j]
            rem = rem // sizes[j]
            row_idx.append((j, idx))
            row_lin += lin[j][idx]
            row_xis.append(xis[j][idx][:, None, :])
        row_xis.reverse()
        prefixes = []
        for member in coeffs:
            prefix = np.ones(height, dtype=np.complex128)
            for j, idx in row_idx:
                prefix = prefix * member[j][idx]
            prefixes.append(prefix)
        for c0 in range(0, n_cols, col_step):
            cols = slice(c0, c0 + col_step)
            sym = evaluate(op.symbol, row_xis + [xis[-1][None, cols]])
            size = sym.size
            flat = flat_buf[:size]
            np.add(row_lin[:, None], lin[-1][cols], out=flat.reshape(sym.shape))
            weights = w_buf[:size].reshape(sym.shape)
            re, im = parts[:, :size]
            for prefix, member, (acc_re, acc_im) in zip(prefixes, coeffs, accs):
                np.multiply(prefix[:, None], sym, out=weights)
                weights *= member[-1][cols]
                re[:], im[:] = weights.real.reshape(-1), weights.imag.reshape(-1)
                acc_re += np.bincount(flat, weights=re, minlength=acc_re.size)
                acc_im += np.bincount(flat, weights=im, minlength=acc_im.size)
    outs = []
    for acc_re, acc_im in accs:
        shifted = (acc_re + 1j * acc_im).reshape(grid_out.shape)
        coeffs_out = np.roll(shifted, (-op.m * half,) * grid.d, axis=tuple(range(grid.d)))
        outs.append(dft_inverse(Spectrum(grid_out, coeffs_out)))
    return outs


def apply_separable(op: OperatorSpec, fields: list[Field]) -> Field:
    """Fast path through the separable expansion of a poly-homogeneous symbol.

    Degree zero in each slot makes the dyadic scale sum of a factor collapse
    to ``sum_s psi(2^-s xi) F_jl(2^-s xi) = F_jl(xi / |xi|)``, so slot ``j`` of
    term ``l`` is the single-variable multiplier ``F_jl``, a Laurent
    polynomial in the direction ``xi / |xi|``, at every active nonzero mode
    and 0 at the origin; the factors are evaluated only at the modes
    ``apply_direct`` enumerates.  Each slot's coefficients
    times factor values are scattered by FFT index onto the padded cell,
    which holds every sum of ``m`` input frequencies without a wrap; per
    term, one ``dft_inverse`` per slot and their pointwise product are
    formed there, and the terms are summed.  The agreement with
    ``apply_direct`` is bounded by the expansion's recorded ``residual``,
    the symbol's relative error on and between the angular nodes, up to the
    rounding of the transforms.

    Every multiplier is 0 at the origin, so unless the symbol is
    ``null_on_zero_slots`` an input whose mean mode is active raises
    ``UncoveredSpectrumError``: the symbol may then be nonzero on zero
    slots, which no term carries.
    """
    if not isinstance(op.strategy, Separable):
        raise ValueError("operator strategy is not separable")
    exp = op.strategy.expansion
    if exp.m != op.m:
        raise ValueError("expansion arity differs from operator arity")
    if len(fields) != op.m:
        raise ValueError(f"expected {op.m} inputs, got {len(fields)}")
    grid = common_grid(fields)
    grid_out = grid.with_n(padded_points(grid.n, op.pad))

    slots = []  # per slot: live frequencies, (rank, K) coefficients times factor values
    for j, f in enumerate(fields):
        freqs, coeffs = active_modes(dft_forward(f))
        live = np.any(freqs != 0, axis=-1)
        if not live.all() and not op.symbol.null_on_zero_slots:
            raise UncoveredSpectrumError(
                "input has a mean mode but the symbol is not null on zero slots"
            )
        freqs, coeffs = freqs[live], coeffs[live]
        slots.append((freqs, coeffs * exp.factor_values(j, freqs)))

    slots = [(tuple(((freqs >> grid.t) % grid_out.n).T), values) for freqs, values in slots]
    acc = np.zeros(grid_out.shape, dtype=np.complex128)
    for l in range(exp.rank):
        term = np.full(grid_out.shape, exp.coeffs[l], dtype=np.complex128)
        for pos, values in slots:
            loc = np.zeros(grid_out.shape, dtype=np.complex128)
            loc[pos] = values[l]
            term *= dft_inverse(Spectrum(grid_out, loc)).samples
        acc += term
    return Field(grid_out, acc)


def apply_operator(op: OperatorSpec, fields: list[Field]) -> Field:
    if isinstance(op.strategy, Separable):
        return apply_separable(op, fields)
    return apply_direct(op, fields)


def _probe_alternating(sigma_m: SymbolSpec, seed: int = 7, tol: float = 1e-10) -> None:
    """Reject symbols that are not alternating, or not linear in slot 1
    (sampled on integer tuples, where a polynomial symbol is exact)."""
    rng = np.random.default_rng(seed)
    m, d = sigma_m.m, sigma_m.d
    tuples = rng.integers(-6, 7, size=(32, m, d)).astype(np.float64)
    other = rng.integers(-6, 7, size=(32, d)).astype(np.float64)
    c = rng.integers(-3, 4, size=(32, 1)).astype(np.float64)

    def sigma(first: np.ndarray, rest: np.ndarray) -> np.ndarray:
        return evaluate(sigma_m, [first] + [rest[:, j] for j in range(1, m)])

    base = sigma(tuples[:, 0], tuples)
    bound = tol * max(float(np.max(np.abs(base))), 1.0)

    def off(values: np.ndarray) -> bool:
        return not np.max(np.abs(values)) <= bound  # a NaN is off too

    for a in range(m):
        for b in range(a + 1, m):
            clone = tuples.copy()
            clone[:, b] = clone[:, a]
            if off(sigma(clone[:, 0], clone)):
                raise ValueError(f"symbol {sigma_m.name!r} is not alternating")
    additive = sigma(tuples[:, 0] + other, tuples) - base - sigma(other, tuples)
    if off(additive) or off(sigma(c * tuples[:, 0], tuples) - c[:, 0] * base):
        raise ValueError(f"symbol {sigma_m.name!r} is not linear in slot 1")


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
    ``C_l(xi_2, ..., xi_m) = sigma_m(e_l, xi_2, ..., xi_m)`` and
    ``C^alpha = prod_l C_l^{alpha_l}``, the multinomial expansion of
    ``(sum_l eta_l C_l)^k`` gives

    ``<T, phi> = i^k sum_{|alpha| = k} (k! / alpha!)
    <T_{C^alpha}(f...), d^alpha phi>``,

    one ``apply_direct`` per multi-index, ``C(d + k - 1, k)`` in all.
    ``k = 0`` has the one index ``alpha = 0``: the plain pairing with symbol
    one.  The rewrite is a pointwise identity on every tuple, zero slots
    included, so the result matches the direct pairing to rounding error.
    """
    if k < 0:
        raise ValueError("power must be >= 0")
    grid = common_grid(fields)
    m, d = sigma_m.m, sigma_m.d
    if phi.grid.d != grid.d:
        raise GridMismatchError("test function incompatible with input grid")
    _probe_alternating(sigma_m)
    # Differentiate phi on its grid padded by m, where its Nyquist row is an
    # interior mode that ``derivative_multiplier`` keeps.  Inputs more
    # dilated than phi meet only its modes on their lattice, so phi is read
    # on their grid and the pairing is a quadrature there; a phi more
    # dilated than the inputs keeps its own grid, and ``pair`` reads T
    # against it across the two grids.
    lift = max(grid.t - phi.grid.t, 0)
    phi_spec = regrid_spectrum(dft_forward(phi), padded_points(phi.grid.n, m), lift)
    total = 0.0 + 0.0j
    for alpha in multi_indices(d, k):
        if sum(alpha) != k:
            continue

        def reduced(*blocks: np.ndarray, _alpha=alpha) -> np.ndarray:
            shape = np.broadcast_shapes(*(b.shape[:-1] for b in blocks))
            out = np.ones(shape, dtype=np.complex128)
            for l, reps in enumerate(_alpha):
                if reps:
                    e = np.eye(d)[l].reshape((1,) * (blocks[0].ndim - 1) + (d,))
                    c_l = np.asarray(sigma_m.evaluator(e, *blocks[1:]), dtype=np.complex128)
                    for _ in range(reps):
                        out = out * c_l
            return out

        c_sym = SymbolSpec(
            m=m,
            d=d,
            evaluator=reduced,
            name=f"{sigma_m.name}-reduced{alpha}",
            null_on_zero_slots=False,
        )
        T = apply_direct(OperatorSpec(c_sym, m), fields)
        dphi = apply_multiplier(phi_spec, derivative_multiplier(phi_spec.grid, alpha))
        weight = math.factorial(k) // math.prod(math.factorial(a) for a in alpha)
        total += weight * pair(T, dphi)
    return complex(1j**k * total)
