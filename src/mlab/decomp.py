"""Dyadic Littlewood-Paley partitions and low-rank separable symbol expansions.

The partition profile is built from the classical smooth step
``S(u) = e(u) / (e(u) + e(1 - u))`` with ``e(u) = exp(-1/u)``.  ``S`` hits 0
and 1 exactly at the endpoints, so the dyadic bumps telescope to exactly one
on the covered band and the supports are sharp.

A degree-zero poly-homogeneous symbol restricted to the product annulus
factors as ``phi(r_1) ... phi(r_m) S(theta_1, ..., theta_m)``: the radial
part is the rank-one cutoff, so every separable structure lives in the
angular function ``S``.  The expansion therefore samples ``sigma`` on unit
directions only (signs for d = 1, equispaced angles for d = 2) and
factors that table; a factor is evaluated at any nonzero frequency through
its direction, by trigonometric interpolation in angle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BudgetExceededError
from .grid import Field, Spectrum, dft_forward, dft_inverse
from .symbols import SymbolSpec, evaluate
from . import snapshot

__all__ = [
    "smooth_step",
    "psi_profile",
    "phi_profile",
    "DyadicPartition",
    "localize",
    "AnnulusGrid",
    "SeparableExpansion",
    "separable_expand",
    "save_expansion",
    "load_expansion",
]


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


def phi_profile(r) -> np.ndarray:
    """Companion cutoff: support [1/4, 4], identically 1 on [1/2, 2]."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    pos = r > 0.0
    t = np.log2(r[pos])
    out[pos] = _g(t - 1.0) - _g(t + 2.0)
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
    s = dft_forward(f)
    radius = f.grid.freq_radius()
    return dft_inverse(Spectrum(f.grid, s.coeffs * part.psi_at_scale(radius, j)))


@dataclass(frozen=True)
class AnnulusGrid:
    """Uniform direction set on the unit sphere of the annulus.

    Signs ``+1, -1`` for d = 1 (weight 1 each), ``n_angular`` equispaced
    angles for d = 2 (weight ``2 pi / n_angular`` each).  ``weights`` is the
    ``L^2`` quadrature weight per node on the sphere.
    """

    d: int
    n_angular: int
    angles: np.ndarray
    points: np.ndarray
    weights: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def build_annulus_grid(d: int, n_angular: int = 64) -> AnnulusGrid:
    if d == 1:
        angles = np.array([0.0, math.pi])
        points = np.array([[1.0], [-1.0]])
        weights = np.ones(2)
    elif d == 2:
        if n_angular < 1:
            raise ValueError("need at least one angular node")
        angles = 2.0 * math.pi * np.arange(n_angular) / n_angular
        points = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        weights = np.full(n_angular, 2.0 * math.pi / n_angular)
    else:
        raise NotImplementedError("annulus grids implemented for d <= 2")
    return AnnulusGrid(
        d=d, n_angular=points.shape[0], angles=angles, points=points, weights=weights
    )


@dataclass(frozen=True)
class SeparableExpansion:
    """Rank-``R`` separable model ``sum_l c_l prod_j F_jl(xi_j / |xi_j|)``.

    ``factors[j]`` has shape ``(R, n_points)`` holding the slot-``j`` tables.
    ``spectrum`` is the full singular-value sequence (m = 2) or the extracted
    coefficient magnitudes (m > 2), nonincreasing either way.  ``residual``
    is the relative error of the truncated model on the direction grid.
    """

    m: int
    d: int
    grid: AnnulusGrid
    coeffs: np.ndarray
    factors: tuple[np.ndarray, ...]
    residual: float
    spectrum: np.ndarray
    symbol_name: str = "symbol"

    @property
    def rank(self) -> int:
        return int(self.coeffs.shape[0])

    def factor_values(self, slot: int, points: np.ndarray) -> np.ndarray:
        """Evaluate every rank-factor of one slot at arbitrary nonzero points.

        A factor depends on the direction only: sign lookup for d = 1,
        trigonometric interpolation in ``theta = atan2(xi_2, xi_1)`` for
        d = 2.  Returns an array of shape ``(rank, B)``.
        """
        pts = np.asarray(points, dtype=np.float64)
        if np.any(np.linalg.norm(pts, axis=-1) <= 0.0):
            raise ValueError("factor evaluation needs nonzero frequencies")
        table = self.factors[slot]
        if self.d == 1:
            return table[:, (pts[:, 0] < 0.0).astype(int)]
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        n_ang = self.grid.n_angular
        k = np.fft.fftfreq(n_ang, 1.0 / n_ang)
        hat = np.fft.fft(table, axis=-1) / n_ang  # (rank, n_ang)
        vals = hat @ np.exp(1j * np.outer(k, theta))
        if n_ang % 2 == 0:
            # Real-symmetric treatment of the angular Nyquist mode.
            ny = n_ang // 2
            vals += np.outer(hat[:, ny], np.cos(ny * theta) - np.exp(-1j * ny * theta))
        return vals

    def tail_residual(self, rank: int) -> float:
        """Relative tail of the recorded spectrum beyond ``rank`` terms."""
        s = self.spectrum
        total = float(np.sqrt(np.sum(s**2)))
        if total == 0.0:
            return 0.0
        return float(np.sqrt(np.sum(s[rank:] ** 2))) / total


def _symbol_on_product(sym: SymbolSpec, grid: AnnulusGrid) -> np.ndarray:
    """Dense tensor of ``sigma`` on the ``m``-fold product of unit directions."""
    sizes = [grid.n_points] * sym.m
    idx = np.unravel_index(np.arange(int(np.prod(sizes))), sizes)
    return evaluate(sym, [grid.points[i] for i in idx]).reshape(sizes)


def separable_expand(
    sym: SymbolSpec,
    rank: int = 32,
    n_angular: int = 64,
    budget: int = 30_000_000,
) -> SeparableExpansion:
    """Low-rank separable expansion of a poly-homogeneous symbol.

    The symbol is sampled on the ``m``-fold product of the direction set
    (``n_angular`` angles for d = 2, signs for d = 1).  For ``m = 2`` the
    expansion is the SVD of the quadrature weighted node matrix; for
    ``m > 2`` greedy rank-one deflation with a fixed 200-sweep alternating
    refinement per term.
    """
    if not sym.poly_homogeneous:
        raise ValueError("separable expansion requires a poly-homogeneous symbol")
    grid = build_annulus_grid(sym.d, n_angular)
    if grid.n_points**sym.m > budget:
        raise BudgetExceededError(
            f"direction product of {grid.n_points}^{sym.m} nodes exceeds budget"
        )
    tensor = _symbol_on_product(sym, grid)
    sqw = np.sqrt(grid.weights)
    weighted = tensor
    for j in range(sym.m):
        shape = [1] * sym.m
        shape[j] = grid.n_points
        weighted = weighted * sqw.reshape(shape)

    if sym.m == 2:
        u, s, vh = np.linalg.svd(weighted, full_matrices=False)
        r = min(rank, s.shape[0])
        total = float(np.sqrt(np.sum(s**2)))
        resid = 0.0 if total == 0.0 else float(np.sqrt(np.sum(s[r:] ** 2))) / total
        f1 = (u[:, :r].T / sqw[None, :]).copy()
        f2 = (vh[:r, :].conj() / sqw[None, :]).copy()
        coeffs = s[:r].astype(np.complex128)
        spectrum = s.copy()
        factors = (f1, f2)
    else:
        coeffs_list: list[complex] = []
        factor_lists: list[list[np.ndarray]] = [[] for _ in range(sym.m)]
        resid_tensor = weighted.copy()
        norm0 = float(np.linalg.norm(weighted.reshape(-1)))
        r = rank
        for _ in range(r):
            vecs = _rank_one_deflate(resid_tensor, sweeps=200)
            coef = _contract_all(resid_tensor, vecs)
            if abs(coef) == 0.0:
                break
            coeffs_list.append(coef)
            for j in range(sym.m):
                factor_lists[j].append(vecs[j] / sqw)
            resid_tensor = resid_tensor - coef * _outer(vecs)
        coeffs = np.asarray(coeffs_list, dtype=np.complex128)
        order = np.argsort(-np.abs(coeffs), kind="stable")
        coeffs = coeffs[order]
        factors = tuple(
            np.stack([factor_lists[j][i] for i in order], axis=0) for j in range(sym.m)
        )
        resid = 0.0 if norm0 == 0.0 else float(np.linalg.norm(resid_tensor.reshape(-1))) / norm0
        spectrum = np.abs(coeffs)

    return SeparableExpansion(
        m=sym.m,
        d=sym.d,
        grid=grid,
        coeffs=coeffs,
        factors=factors,
        residual=resid,
        spectrum=spectrum,
        symbol_name=sym.name,
    )


def _outer(vecs: list[np.ndarray]) -> np.ndarray:
    out = vecs[0]
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return out


def _contract_all(tensor: np.ndarray, vecs: list[np.ndarray]) -> complex:
    out = tensor
    for v in reversed(vecs):
        out = out @ v.conj()
    return complex(out)


def _contract_except(tensor: np.ndarray, vecs: list[np.ndarray], skip: int) -> np.ndarray:
    """Contract every slot but ``skip`` with the conjugate factors."""
    out = np.moveaxis(tensor, skip, 0)
    for v in reversed([vecs[j] for j in range(len(vecs)) if j != skip]):
        out = out @ v.conj()
    return out


def _rank_one_deflate(tensor: np.ndarray, sweeps: int) -> list[np.ndarray]:
    """Dominant rank-one factor set by alternating power refinement."""
    m = tensor.ndim
    flat = np.argmax(np.abs(tensor))
    idx = np.unravel_index(flat, tensor.shape)
    vecs: list[np.ndarray] = []
    for j in range(m):
        sl = list(idx)
        sl[j] = slice(None)
        v = np.asarray(tensor[tuple(sl)], dtype=np.complex128).copy()
        nv = np.linalg.norm(v)
        vecs.append(v / nv if nv > 0 else np.ones(tensor.shape[j]) / math.sqrt(tensor.shape[j]))
    for _ in range(sweeps):
        for j in range(m):
            w = _contract_except(tensor, vecs, j)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return vecs
            vecs[j] = w / nw
    return vecs


_EXPANSION_FORMAT = "mlab-expansion-2"


def save_expansion(exp: SeparableExpansion, prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>.json`` header and ``<prefix>.bin`` factor tables."""
    prefix = Path(prefix)
    header = {
        "format": _EXPANSION_FORMAT,
        "symbol": exp.symbol_name,
        "m": exp.m,
        "d": exp.d,
        "n_angular": exp.grid.n_angular,
        "rank": exp.rank,
        "residual": exp.residual,
        "spectrum": [float(s) for s in exp.spectrum],
        "coeffs_real": [float(c.real) for c in exp.coeffs],
        "coeffs_imag": [float(c.imag) for c in exp.coeffs],
        "tables": ["factors[%d]" % j for j in range(exp.m)],
    }
    json_path = prefix.with_suffix(".json")
    bin_path = prefix.with_suffix(".bin")
    json_path.write_text(json.dumps(header, indent=2, sort_keys=True))
    with open(bin_path, "wb") as fh:
        for j in range(exp.m):
            snapshot.write_array_record(fh, exp.factors[j].reshape(-1))
    return json_path, bin_path


def load_expansion(prefix: str | Path) -> SeparableExpansion:
    prefix = Path(prefix)
    header = json.loads(prefix.with_suffix(".json").read_text())
    fmt = header.get("format")
    if fmt != _EXPANSION_FORMAT:
        raise ValueError(f"expansion format {fmt!r} is not {_EXPANSION_FORMAT!r}")
    m, d = int(header["m"]), int(header["d"])
    grid = build_annulus_grid(d, int(header["n_angular"]))
    rank = int(header["rank"])
    coeffs = np.asarray(header["coeffs_real"], dtype=np.float64) + 1j * np.asarray(
        header["coeffs_imag"], dtype=np.float64
    )
    factors = []
    with open(prefix.with_suffix(".bin"), "rb") as fh:
        for _ in range(m):
            flat = snapshot.read_array_record(fh)
            factors.append(flat.reshape(rank, grid.n_points))
    return SeparableExpansion(
        m=m,
        d=d,
        grid=grid,
        coeffs=coeffs,
        factors=tuple(factors),
        residual=float(header["residual"]),
        spectrum=np.asarray(header["spectrum"], dtype=np.float64),
        symbol_name=str(header.get("symbol", "symbol")),
    )
