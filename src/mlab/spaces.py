"""Norms and smoothing operators on grid fields.

All norms are quadrature norms on the torus ``[0, 2 pi)^d`` of the
trigonometric polynomial the samples represent; for ``p = 2`` they coincide
with the continuum norms by Parseval.  For ``0 < p < 1`` the same quadrature
gives the ``L^p`` quasi-norm.  Derivatives and Bessel weights read the
integer frequencies ``xi``, which on this torus are the physical ones.  On a
dilated grid (``GridSpec.t > 0``) the sums run over the one cell the samples
hold, and derivatives and Bessel weights see its frequencies ``2^t xi``, so a
dilated field's norms are those of ``grid.dilate_dyadic`` of the field or of
its spectrum.  :func:`bessel_norms` forms every Bessel norm, the scans'
batches of dilated spectra as well as :func:`bessel_norm`.  A ``p = 2``
Bessel norm needs no transform: it is ``grid.multiplier_l2_norm`` of the
weighted spectrum, by Parseval.  Every other potential and derivative is one
``grid.apply_multiplier`` of a spectrum transformed once, derivatives indexed
by multi-index ``alpha``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import GridMismatchError
from .grid import (
    TWO_PI,
    Field,
    GridSpec,
    Spectrum,
    apply_multiplier,
    as_spectrum,
    derivative_multiplier,
    dft_forward,
    multiplier_l2_norm,
)

__all__ = [
    "holder_conjugate",
    "lp_norm",
    "bessel_potential",
    "bessel_norm",
    "bessel_norms",
    "multi_indices",
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
    w = (TWO_PI / f.grid.n) ** f.grid.d
    return float((w * np.sum(a**p)) ** (1.0 / p))


@functools.lru_cache(maxsize=8)
def _bessel_weight(grid: GridSpec, s: float) -> np.ndarray:
    """``(1 + |xi|^2)^{s/2}`` on the frequency mesh, read-only.

    Built once per ``(grid, s)`` while it stays among the last eight asked
    for: a scan's sweep asks for one weight per dilation step, for every
    member of its family.
    """
    xi2 = sum(m.astype(np.float64) ** 2 for m in grid.freq_mesh())
    weight = (1.0 + xi2) ** (s / 2.0)
    weight.flags.writeable = False
    return weight


def bessel_potential(f: Field, s: float) -> Field:
    """Multiply the spectrum by ``(1 + |xi|^2)^{s/2}``: on the torus ``[0, 2
    pi)^d`` the continuum Bessel potential on the represented band."""
    return apply_multiplier(dft_forward(f), _bessel_weight(f.grid, s))


def bessel_norms(specs: list[Spectrum], p: list[float], s: float) -> list[float]:
    """``L^{p_j}_s`` norm of the field with spectrum ``specs[j]``, every ``j``.

    All spectra live on one grid, and the batch reads that grid's cached
    weight.  A ``p = 2`` norm is ``multiplier_l2_norm`` of the weighted
    coefficients, with no transform.  For every other exponent the potential
    is formed once per distinct coefficient array (a spectrum and its
    dilations share one) and each ``lp_norm`` once per distinct (array,
    exponent), so a spectrum repeated in several slots costs at most one
    transform.
    """
    grids = {spec.grid for spec in specs}
    if len(grids) != 1:
        raise GridMismatchError(f"a Bessel norm batch needs one grid, got {len(grids)}")
    weight = _bessel_weight(grids.pop(), s)
    keys = [id(spec.coeffs) for spec in specs]
    batch: dict[int, tuple[Spectrum, set[float]]] = {}
    for spec, key, pj in zip(specs, keys, p, strict=True):
        batch.setdefault(key, (spec, set()))[1].add(pj)
    norms = {}
    for key, (spec, exponents) in batch.items():
        if 2.0 in exponents:
            norms[key, 2.0] = multiplier_l2_norm(spec, weight)
        quadrature = exponents - {2.0}
        if quadrature:
            potential = apply_multiplier(spec, weight)  # one potential alive at a time
            norms.update({(key, pj): lp_norm(potential, pj) for pj in quadrature})
    return [norms[key, pj] for key, pj in zip(keys, p)]


def bessel_norm(f: Field, p: float, s: float) -> float:
    """``L^p_s`` norm, ``lp_norm(bessel_potential(f, s), p)``."""
    return bessel_norms([dft_forward(f)], [p], s)[0]


def multi_indices(d: int, max_order: int):
    """Every ``alpha`` in ``N^d`` with ``|alpha| <= max_order``, by order."""
    for order in range(max_order + 1):
        for alpha in itertools.combinations_with_replacement(range(d), order):
            yield tuple(alpha.count(axis) for axis in range(d))


def sobolev_wkp_norm(f: Field, k: int, p: float) -> float:
    """``W^{k,p}`` norm as the sum of ``L^p`` norms over ``|alpha| <= k``:
    one forward transform, then one inverse per ``alpha``."""
    if k < 0:
        raise ValueError(f"order must satisfy k >= 0, got {k}")
    spec = dft_forward(f)
    return float(sum(lp_norm(apply_multiplier(spec, derivative_multiplier(f.grid, alpha)), p)
                     for alpha in multi_indices(f.grid.d, k)))


def grad_sup_norms(f: Field | Spectrum, order: int) -> float:
    """Sup norms of first or second derivatives of a field or its spectrum.

    ``order = 1``: max over grid points of the Euclidean gradient norm.
    ``order = 2``: max modulus over grid points and Hessian entries.
    One forward transform of a field (none of a spectrum), then one inverse
    per derivative ``d^alpha``, ``|alpha| = order``.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    spec = as_spectrum(f)
    moduli = (np.abs(apply_multiplier(spec, derivative_multiplier(f.grid, alpha)).samples)
              for alpha in multi_indices(f.grid.d, order) if sum(alpha) == order)
    if order == 1:
        return float(np.sqrt(sum(m**2 for m in moduli).max()))
    return max(float(m.max()) for m in moduli)
