"""Independent reference implementations used as test oracles.

Everything here is written from the definitions, without the library's FFT
plumbing: direct summation transforms, term-by-term mode arithmetic,
cofactor determinant expansion, finite differences on dense scans.  Slow on
purpose; keep grids small.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Direct-summation transforms (quadratic cost, no FFT)
# ---------------------------------------------------------------------------


def dft_direct(samples: np.ndarray, period: float = TWO_PI) -> dict[tuple[int, ...], complex]:
    """coeffs(xi) = n^-d sum_p f(x_p) exp(-i (2 pi / period) xi . x_p).

    Returns a dict over the full frequency lattice [-n/2, n/2)^d.
    """
    shape = samples.shape
    n = shape[0]
    d = samples.ndim
    k = TWO_PI / period
    x_axis = period * np.arange(n) / n
    out: dict[tuple[int, ...], complex] = {}
    freqs = [range(-(n // 2), n // 2)] * d
    for xi in itertools.product(*freqs):
        acc = 0.0 + 0.0j
        for p in itertools.product(*(range(n),) * d):
            phase = sum(xi[a] * x_axis[p[a]] for a in range(d))
            acc += samples[p] * np.exp(-1j * k * phase)
        out[xi] = acc / n**d
    return out


def eval_modes(
    modes: dict[tuple[int, ...], complex],
    points: np.ndarray,
    period: float = TWO_PI,
) -> np.ndarray:
    """Evaluate sum_xi c_xi exp(i (2 pi / period) xi . x) at arbitrary points."""
    k = TWO_PI / period
    pts = np.asarray(points, dtype=np.float64)
    out = np.zeros(pts.shape[:-1], dtype=np.complex128)
    for xi, c in modes.items():
        out += c * np.exp(1j * k * (pts @ np.asarray(xi, dtype=np.float64)))
    return out


def modes_on_grid(
    modes: dict[tuple[int, ...], complex], d: int, n: int, period: float = TWO_PI
) -> np.ndarray:
    """Sample a mode dict on the uniform grid, direct evaluation."""
    axis = period * np.arange(n) / n
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack(mesh, axis=-1)
    return eval_modes(modes, pts, period)


def diff_modes(
    modes: dict[tuple[int, ...], complex], axis: int, period: float = TWO_PI
) -> dict[tuple[int, ...], complex]:
    """Term-by-term derivative: multiply each mode by i (2 pi / period) xi_axis."""
    k = TWO_PI / period
    return {xi: c * 1j * k * xi[axis] for xi, c in modes.items()}


def convolve_modes(
    a: dict[tuple[int, ...], complex], b: dict[tuple[int, ...], complex]
) -> dict[tuple[int, ...], complex]:
    """Coefficient convolution, the spectrum of the pointwise product."""
    out: dict[tuple[int, ...], complex] = {}
    for xa, ca in a.items():
        for xb, cb in b.items():
            key = tuple(i + j for i, j in zip(xa, xb))
            out[key] = out.get(key, 0.0 + 0.0j) + ca * cb
    return out


def quadrature_pair(f: np.ndarray, g: np.ndarray, period: float = TWO_PI) -> complex:
    """<f, g> = (period/n)^d sum_p f(x_p) g(x_p), no conjugation."""
    n = f.shape[0]
    w = (period / n) ** f.ndim
    return complex(w * np.sum(f * g))


def quadrature_lp(f: np.ndarray, p: float, period: float = TWO_PI) -> float:
    n = f.shape[0]
    if math.isinf(p):
        return float(np.max(np.abs(f)))
    w = (period / n) ** f.ndim
    return float((w * np.sum(np.abs(f) ** p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Per-tuple multilinear multiplier application
# ---------------------------------------------------------------------------


def apply_multilinear_modes(
    symbol_fn: callable, *mode_dicts: dict[tuple[int, ...], complex]
) -> dict[tuple[int, ...], complex]:
    """T(f_1, ..., f_m) coefficients by a loop over every mode tuple.

    ``symbol_fn`` takes the ``m`` integer frequency tuples of one mode tuple
    and returns its symbol value; each tuple contributes at the sum frequency.
    """
    out: dict[tuple[int, ...], complex] = {}
    for combo in itertools.product(*(d.items() for d in mode_dicts)):
        xis = [xi for xi, _ in combo]
        w = complex(symbol_fn(*xis))
        for _, c in combo:
            w *= c
        key = tuple(sum(parts) for parts in zip(*xis))
        out[key] = out.get(key, 0.0 + 0.0j) + w
    return out


def _norm(xi: tuple) -> float:
    return math.sqrt(sum(c * c for c in xi))


def scalar_symbol(spec_id: str) -> callable:
    """Per-tuple value of a registry symbol, written from its definition.

    Mirrors the ids of ``mlab.symbols.resolve_symbol``; every symbol but
    ``one`` is 0 when a slot is the zero vector.
    """
    head, _, arg = spec_id.partition(":")
    if head == "one":
        return lambda *xis: 1.0

    def det(*xis):
        d = len(xis)
        return det_cofactor([[xis[j][i] for j in range(d)] for i in range(d)])

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    if head == "det":
        return det
    if head == "det_pow":
        return lambda *xis: det(*xis) ** int(arg)
    if head == "riesz_product":
        comps = [int(tok) - 1 for tok in arg.split(",")]

        def riesz(*xis):
            if not all(any(xi) for xi in xis):
                return 0.0
            return math.prod(xi[c] / _norm(xi) for c, xi in zip(comps, xis))

        return riesz
    base = {"det_norm": det, "dot_norm": dot}[head]
    beta = float(arg)

    def normalized(*xis):
        if not all(any(xi) for xi in xis):
            return 0.0
        num = base(*xis)
        num = num ** int(beta) if beta.is_integer() else abs(num) ** beta
        return num / math.prod(_norm(xi) for xi in xis) ** beta

    return normalized


# ---------------------------------------------------------------------------
# Determinants by cofactor expansion (first column)
# ---------------------------------------------------------------------------


def det_cofactor(mat: list[list]) -> object:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = None
    for i in range(n):
        minor = [row[1:] for j, row in enumerate(mat) if j != i]
        term = mat[i][0] * det_cofactor(minor)
        if i % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def det_cofactor_grid(mats: np.ndarray) -> np.ndarray:
    """Pointwise cofactor determinant of an (..., d, d) stack."""
    d = mats.shape[-1]
    if d == 1:
        return mats[..., 0, 0]
    total = np.zeros(mats.shape[:-2], dtype=mats.dtype)
    for i in range(d):
        rows = [j for j in range(d) if j != i]
        minor = mats[..., rows, :][..., :, 1:]
        sign = -1.0 if i % 2 else 1.0
        total = total + sign * mats[..., i, 0] * det_cofactor_grid(minor)
    return total


def perm_sign_by_inversions(perm: tuple[int, ...]) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


# ---------------------------------------------------------------------------
# Dense finite-difference scan for sup norms of derivatives
# ---------------------------------------------------------------------------


def fd_gradient_sup(
    modes: dict[tuple[int, ...], complex],
    d: int,
    n_fine: int = 256,
    period: float = TWO_PI,
    n_coarse: int | None = None,
) -> float:
    """Max Euclidean gradient norm via 4th-order central differences.

    The trig polynomial is evaluated directly from its modes on a dense
    grid; derivatives never touch the library.  With ``n_coarse`` the max is
    restricted to the sublattice of ``n_coarse`` points per axis, matching a
    sup norm taken over a coarser grid.
    """
    axis = period * np.arange(n_fine) / n_fine
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack(mesh, axis=-1)
    vals = eval_modes(modes, pts, period)
    h = period / n_fine
    g2 = np.zeros_like(vals, dtype=np.float64)
    for a in range(d):
        plus1 = np.roll(vals, -1, axis=a)
        minus1 = np.roll(vals, 1, axis=a)
        plus2 = np.roll(vals, -2, axis=a)
        minus2 = np.roll(vals, 2, axis=a)
        deriv = (8.0 * (plus1 - minus1) - (plus2 - minus2)) / (12.0 * h)
        g2 += np.abs(deriv) ** 2
    if n_coarse is not None:
        if n_fine % n_coarse:
            raise ValueError("n_fine must be a multiple of n_coarse")
        stride = n_fine // n_coarse
        g2 = g2[tuple(slice(None, None, stride) for _ in range(d))]
    return float(np.sqrt(g2.max()))


# ---------------------------------------------------------------------------
# Random rational polynomials evaluated the pedestrian way
# ---------------------------------------------------------------------------


def eval_poly_terms(
    terms: dict[tuple[int, ...], Fraction], point: tuple[Fraction, ...]
) -> Fraction:
    total = Fraction(0)
    for expo, coef in terms.items():
        term = coef
        for x, e in zip(point, expo):
            term *= x**e
        total += term
    return total
