"""Dyadic Littlewood-Paley partitions and low-rank separable symbol expansions.

The partition profile is built from the classical smooth step
``S(u) = e(u) / (e(u) + e(1 - u))`` with ``e(u) = exp(-1/u)``.  ``S`` hits 0
and 1 exactly at the endpoints, so the dyadic bumps telescope to exactly one
on the covered band and the supports are sharp.

A degree-zero poly-homogeneous symbol restricted to the product annulus
factors as ``phi(r_1) ... phi(r_m) S(theta_1, ..., theta_m)``: the radial
part is the rank-one cutoff, so every separable structure lives in the
angular function ``S``.  The expansion therefore samples ``sigma`` on unit
directions only (signs for d = 1, equispaced angles for d = 2) and factors
the angular Fourier coefficients of that table by one recursive SVD for
every arity: the slot-0 unfolding is split by an SVD, and each kept right
singular vector, reshaped to the remaining slots, is split the same way,
as in TT-SVD (Oseledets, SIAM J. Sci. Comput. 33, 2011).  Each factor is a
Laurent polynomial in its slot's direction ``z = xi / |xi|``, evaluated at
any nonzero frequency by Horner's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, enumeration_budget
from .grid import Field, apply_multiplier, dft_forward
from .symbols import SymbolSpec, evaluate

__all__ = [
    "smooth_step",
    "psi_profile",
    "DyadicPartition",
    "localize",
    "AnnulusGrid",
    "SeparableExpansion",
    "separable_expand",
]


_START_NODES = 32
_MAX_NODES = 1024


def smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity step: exactly 0 for u <= 0, exactly 1 for u >= 1."""
    u = np.asarray(u, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def _g(t: np.ndarray) -> np.ndarray:
    """Smooth nonincreasing ramp: 1 for t <= 0, 0 for t >= 1."""
    return 1.0 - smooth_step(np.asarray(t, dtype=np.float64))


def psi_profile(r) -> np.ndarray:
    """Dyadic bump in radius: support exactly [1/2, 2], equals 1 at r = 1.

    ``psi(r) = g(log2 r) - g(log2 r + 1)`` telescopes across scales.
    """
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    pos = r > 0.0
    t = np.log2(r[pos])
    out[pos] = _g(t) - _g(t + 1.0)
    return out


@dataclass(frozen=True)
class DyadicPartition:
    """Scales ``j_min .. j_max`` of the bump ``psi(2^-j |xi|)``."""

    j_min: int
    j_max: int

    def __post_init__(self) -> None:
        if self.j_max < self.j_min:
            raise ValueError("j_max must be >= j_min")

    @property
    def scales(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def psi_at_scale(self, r, j: int) -> np.ndarray:
        return psi_profile(np.asarray(r, dtype=np.float64) / 2.0**j)

    def partition_sum(self, r) -> np.ndarray:
        """``sum_j psi(2^-j r)``; exactly 1 on ``[2^j_min, 2^j_max]``."""
        r = np.asarray(r, dtype=np.float64)
        total = np.zeros_like(r)
        for j in self.scales:
            total += self.psi_at_scale(r, j)
        return total

    def covers(self, radii) -> bool:
        r = np.asarray(radii, dtype=np.float64)
        r = r[r > 0.0]
        if r.size == 0:
            return True
        return bool(np.all((r >= 2.0**self.j_min) & (r <= 2.0**self.j_max)))


def partition_for_grid(n: int, d: int) -> DyadicPartition:
    """Partition covering every nonzero lattice mode of an ``(n, d)`` grid."""
    top = math.ceil(math.log2(math.sqrt(d) * n / 2.0))
    return DyadicPartition(0, max(top, 1))


def localize(f: Field, part: DyadicPartition, j: int) -> Field:
    """Frequency localization: multiply the spectrum by ``psi(2^-j |xi|)``."""
    return apply_multiplier(dft_forward(f), part.psi_at_scale(f.grid.freq_radius(), j))


@dataclass(frozen=True)
class AnnulusGrid:
    """Uniform direction set on the unit sphere of the annulus.

    Signs ``+1, -1`` for d = 1, ``n`` equispaced angles for d = 2: as
    ``z = xi / |xi|``, the ``n``-th roots of unity (``n = 2`` for the signs).
    """

    points: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def build_annulus_grid(d: int) -> AnnulusGrid:
    """Starting direction set of the expansion: the signs for d = 1,
    ``_START_NODES`` angles for d = 2."""
    if d == 1:
        return AnnulusGrid(points=np.array([[1.0], [-1.0]]))
    if d == 2:
        return AnnulusGrid(points=_circle_points(_START_NODES))
    raise NotImplementedError("annulus grids implemented for d <= 2")


def _circle_points(n: int, shift: float = 0.0) -> np.ndarray:
    """Unit vectors at the angles ``2 pi (i + shift) / n``."""
    theta = 2.0 * math.pi * (np.arange(n) + shift) / n
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


@dataclass(frozen=True)
class SeparableExpansion:
    """Rank-``R`` separable model ``sum_l c_l prod_j F_jl(xi_j / |xi_j|)``.

    ``factors[j]`` has shape ``(R, n + 1)``, ``n = grid.n_points``: row ``l``
    holds the Laurent coefficients of ``F_jl`` for ``z^(-n/2) ... z^(n/2)``,
    the Nyquist one split evenly between ``+-n/2``.  ``R`` is the numerical
    rank of the angular coefficient tensor, and ``spectrum`` holds the
    singular values, nonincreasing, of its slot-0 unfolding (``n`` rows by
    ``n^(m-1)`` columns): for a symbol of ``theta_2 - theta_1``, the moduli
    of its coefficients.  For m > 2 each kept singular value may carry
    several terms, so ``R`` can exceed the count of kept values.
    ``residual`` is the larger of the returned terms' measured relative
    error on the coefficients (by Parseval, on the direction grid) and the
    interpolation error at the midpoints between nodes.
    """

    m: int
    d: int
    grid: AnnulusGrid
    coeffs: np.ndarray
    factors: tuple[np.ndarray, ...]
    residual: float
    spectrum: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.coeffs.shape[0])

    def factor_values(self, slot: int, points: np.ndarray) -> np.ndarray:
        """Evaluate every rank-factor of one slot at arbitrary nonzero points.

        A factor is a Laurent polynomial in the direction ``z = xi / |xi|``
        (``(xi_1 + i xi_2) / |xi|`` for d = 2, the sign of ``xi_1`` for
        d = 1), evaluated by Horner's rule from both ends: in ``z`` for the
        positive powers and in ``conj(z) = 1 / z`` for the negative ones,
        with no ``atan2`` or ``exp``.  Returns an array of shape ``(rank, B)``.
        """
        pts = np.asarray(points, dtype=np.float64)
        radius = np.linalg.norm(pts, axis=-1)
        if np.any(radius <= 0.0):
            raise ValueError("factor evaluation needs nonzero frequencies")
        z = pts @ np.array([1.0, 1j])[: self.d] / radius
        w = np.conj(z)
        laurent = self.factors[slot]
        half = laurent.shape[1] // 2
        pos, neg = laurent[:, -1:] * z, laurent[:, :1] * w
        for k in range(1, half):
            pos += laurent[:, -1 - k, None]
            pos *= z
            neg += laurent[:, k, None]
            neg *= w
        return laurent[:, half, None] + pos + neg


def _symbol_on_product(sym: SymbolSpec, slots: list[np.ndarray]) -> np.ndarray:
    """Dense tensor of ``sigma`` on the product of one direction set per slot."""
    m = len(slots)
    blocks = [
        p.reshape((1,) * j + (p.shape[0],) + (1,) * (m - 1 - j) + (p.shape[1],))
        for j, p in enumerate(slots)
    ]
    return evaluate(sym, blocks)


def _midpoint_error(sym: SymbolSpec, samples: np.ndarray) -> float:
    """Largest relative error of the trigonometric interpolant of ``samples``
    half a node off the angle grid in one slot, the other slots on the nodes.

    A half-node shift in slot ``j`` flips the sign of every angular mode
    aliased along ``j``, so the error is the tail of the symbol's Fourier
    coefficients beyond ``n / 2``.  Shifting every slot at once would be a
    rotation, which leaves a symbol of the angle differences (``det_norm``,
    ``dot_norm``) unchanged and hides its aliasing.  The interpolant is the
    one ``factor_values`` evaluates: its Nyquist term ``cos(n theta / 2)``
    vanishes at the midpoints.  That term's split between ``+-n/2`` is not
    determined by the nodes, so a resolved symbol must leave it empty: the
    share of the samples in slot ``j``'s Nyquist mode counts as error too.
    """
    n = samples.shape[0]
    total = float(np.linalg.norm(samples))
    if total == 0.0:
        return 0.0
    nodes, mids = _circle_points(n), _circle_points(n, shift=0.5)
    shift = np.exp(1j * math.pi * np.fft.fftfreq(n))
    shift[n // 2] = 0.0
    worst = 0.0
    for j in range(sym.m):
        hat = np.fft.fft(samples, axis=j)
        along = shift.reshape([n if i == j else 1 for i in range(sym.m)])
        interp = np.fft.ifft(hat * along, axis=j)
        exact = _symbol_on_product(sym, [mids if i == j else nodes for i in range(sym.m)])
        nyquist = float(np.linalg.norm(np.take(hat, n // 2, axis=j))) / math.sqrt(n)
        worst = max(worst, float(np.linalg.norm(interp - exact)) / total, nyquist / total)
    return worst


def separable_expand(sym: SymbolSpec) -> SeparableExpansion:
    """Separable expansion of a poly-homogeneous symbol at its numerical rank.

    The symbol is sampled on the ``m``-fold product of the direction set:
    the signs for d = 1; for d = 2, ``_START_NODES`` angles, doubled while
    the interpolation error at the midpoints between nodes exceeds
    ``n_points * eps``.  A symbol that is not resolved at ``_MAX_NODES``
    angles (one not smooth on the circle, such as ``det_norm`` with a
    non-integer power) raises ``ValueError`` with the measured error, and a
    direction product above ``enumeration_budget()`` raises
    ``BudgetExceededError``.

    The angular Fourier coefficients ``fftn(samples) / n^m`` are expanded
    by ``_svd_expand``, one recursive SVD for every arity, with ``floor`` as
    the relative cut of every unfolding's singular values (numpy's
    ``matrix_rank`` rule).  The recorded ``residual`` is the larger of the
    midpoint error and the relative error of the returned terms against
    the coefficients, which by Parseval is their error on the nodes.
    """
    if not sym.poly_homogeneous:
        raise ValueError("separable expansion requires a poly-homogeneous symbol")
    grid = build_annulus_grid(sym.d)
    budget = enumeration_budget()
    while True:
        if grid.n_points**sym.m > budget:
            raise BudgetExceededError(
                f"direction product of {grid.n_points}^{sym.m} nodes exceeds "
                f"budget {budget}"
            )
        samples = _symbol_on_product(sym, [grid.points] * sym.m)
        floor = grid.n_points * np.finfo(np.float64).eps
        alias = _midpoint_error(sym, samples) if sym.d == 2 else 0.0
        if alias <= floor:
            break
        if grid.n_points >= _MAX_NODES:
            raise ValueError(
                f"{sym.name!r} is not resolved by {grid.n_points} angles: midpoint "
                f"error {alias:.3e} > {floor:.3e}"
            )
        grid = AnnulusGrid(points=_circle_points(2 * grid.n_points))
    hat = np.fft.fftn(samples) / grid.n_points**sym.m
    coeffs, tables, spectrum = _svd_expand(hat, floor)
    norm = float(np.linalg.norm(hat))
    error = float(np.linalg.norm(hat - _model(coeffs, tables))) / norm if norm else 0.0
    # FFT order to z^(-n/2) ... z^(n/2), the Nyquist mode halved onto both ends.
    half = grid.n_points // 2
    factors = tuple(np.concatenate([t[:, half:], t[:, : half + 1]], axis=1) for t in tables)
    for f in factors:
        f[:, [0, -1]] /= 2.0
    return SeparableExpansion(
        m=sym.m,
        d=sym.d,
        grid=grid,
        coeffs=coeffs.astype(np.complex128),
        factors=factors,
        residual=max(error, alias),
        spectrum=spectrum,
    )


def _svd_expand(
    tensor: np.ndarray, floor: float
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Sum of products of one vector per axis, by recursive SVD of unfoldings.

    The slot-0 unfolding ``tensor.reshape(n, -1)`` is factored by an SVD
    keeping the singular values above ``s_0 * floor``; each kept row of
    ``vh``, reshaped to the remaining axes, is expanded the same way, and a
    1-D remainder is the last factor as it is.  Returns the term
    coefficients, one ``(R, n_j)`` table per axis and the singular values of
    this unfolding.
    """
    n = tensor.shape[0]
    u, s, vh = np.linalg.svd(tensor.reshape(n, -1), full_matrices=False)
    coeffs = [np.zeros(0)]
    factors = [[np.zeros((0, k)) for k in tensor.shape]]
    for l in range(int(np.count_nonzero(s > s[0] * floor))):
        rest = vh[l].reshape(tensor.shape[1:])
        if rest.ndim > 1:
            c, fs, _ = _svd_expand(rest, floor)
        elif rest.ndim == 1:
            c, fs = np.ones(1), [rest[None]]
        else:  # m = 1: the row is a unit scalar
            c, fs = rest.reshape(1), []
        coeffs.append(s[l] * c)
        factors.append([np.repeat(u[None, :, l], c.shape[0], axis=0), *fs])
    return np.concatenate(coeffs), [np.concatenate(f) for f in zip(*factors)], s


def _model(coeffs: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """``sum_l c_l prod_j F_jl`` on the product of the node sets."""
    cols = np.ones((coeffs.shape[0], 1))
    for f in factors[1:]:
        cols = (cols[:, :, None] * f[:, None, :]).reshape(coeffs.shape[0], -1)
    model = (factors[0].T * coeffs) @ cols
    return model.reshape(tuple(f.shape[1] for f in factors))

