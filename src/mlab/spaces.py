"""Norms and smoothing operators on grid fields.

All norms are quadrature norms of the trigonometric polynomial the samples
represent; for ``p = 2`` they coincide with the continuum norms by Parseval.
For ``0 < p < 1`` the same quadrature gives the ``L^p`` quasi-norm.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .grid import Field, Spectrum, dft_forward, dft_inverse, spectral_derivative

__all__ = [
    "holder_conjugate",
    "lp_norm",
    "bessel_potential",
    "bessel_norm",
    "sobolev_wkp_norm",
    "grad_sup_norms",
]


def holder_conjugate(r: float) -> float:
    """``r* = r / (r - 1)``; ``inf`` for ``r = 1`` and ``1`` for ``r = inf``."""
    if r < 1:
        raise ValueError(f"exponent must satisfy r >= 1, got {r}")
    if r == 1:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


def lp_norm(f: Field, p: float) -> float:
    """Quadrature ``L^p`` norm, a quasi-norm for ``0 < p < 1``; ``p = inf``
    gives the max modulus."""
    if p <= 0:
        raise ValueError(f"exponent must satisfy p > 0, got {p}")
    a = np.abs(f.samples)
    if math.isinf(p):
        return float(a.max())
    w = (f.grid.period / f.grid.n) ** f.grid.d
    return float((w * np.sum(a**p)) ** (1.0 / p))


def bessel_potential(f: Field, s: float) -> Field:
    """Multiply the spectrum by ``(1 + |k|^2)^{s/2}`` with ``k`` physical.

    ``k = (2 pi / period) xi`` so the operator agrees with the continuum
    Bessel potential on the represented band.
    """
    spec = dft_forward(f)
    mesh = f.grid.freq_mesh()
    k2 = sum((f.grid.kscale * m.astype(np.float64)) ** 2 for m in mesh)
    weight = (1.0 + k2) ** (s / 2.0)
    return dft_inverse(Spectrum(f.grid, spec.coeffs * weight), is_real=f.is_real)


def bessel_norm(f: Field, p: float, s: float) -> float:
    """``L^p_s`` norm, ``lp_norm(bessel_potential(f, s), p)``."""
    return lp_norm(bessel_potential(f, s), p)


def _multi_indices(d: int, max_order: int):
    for order in range(max_order + 1):
        for alpha in itertools.combinations_with_replacement(range(d), order):
            counts = [0] * d
            for axis in alpha:
                counts[axis] += 1
            yield tuple(counts)


def _derive(f: Field, alpha: tuple[int, ...]) -> Field:
    out = f
    for axis, reps in enumerate(alpha):
        for _ in range(reps):
            out = spectral_derivative(out, axis)
    return out


def sobolev_wkp_norm(f: Field, k: int, p: float) -> float:
    """``W^{k,p}`` norm as the sum of ``L^p`` norms over ``|alpha| <= k``."""
    if k < 0:
        raise ValueError(f"order must satisfy k >= 0, got {k}")
    return float(sum(lp_norm(_derive(f, alpha), p) for alpha in _multi_indices(f.grid.d, k)))


def grad_sup_norms(f: Field, order: int) -> float:
    """Sup norms of first or second derivatives.

    ``order = 1``: max over grid points of the Euclidean gradient norm.
    ``order = 2``: max modulus over grid points and Hessian entries.
    """
    if order == 1:
        g2 = np.zeros(f.grid.shape, dtype=np.float64)
        for axis in range(f.grid.d):
            g2 += np.abs(spectral_derivative(f, axis).samples) ** 2
        return float(np.sqrt(g2.max()))
    if order == 2:
        worst = 0.0
        for i in range(f.grid.d):
            fi = spectral_derivative(f, i)
            for j in range(i, f.grid.d):
                worst = max(worst, float(np.abs(spectral_derivative(fi, j).samples).max()))
        return worst
    raise ValueError(f"order must be 1 or 2, got {order}")
