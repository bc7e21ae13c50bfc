"""Independent reference implementations used as test oracles.

Everything here is written from the definitions, without the library's FFT
plumbing: direct summation transforms, term-by-term mode arithmetic,
cofactor determinant expansion, finite differences on dense scans.  Slow on
purpose; keep grids small.  The transform layer's reference is numpy's own
FFT, scaled afterwards, of a coefficient array padded frequency by
frequency.  The one exception is the per-step boundedness scan at the end,
which replays the scan's loop on the library's own operators and checks
only how often they run.
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


def dft_direct(samples: np.ndarray) -> dict[tuple[int, ...], complex]:
    """coeffs(xi) = n^-d sum_p f(x_p) exp(-i xi . x_p), x_p = 2 pi p / n.

    Returns a dict over the full frequency lattice [-n/2, n/2)^d.
    """
    shape = samples.shape
    n = shape[0]
    d = samples.ndim
    x_axis = TWO_PI * np.arange(n) / n
    out: dict[tuple[int, ...], complex] = {}
    freqs = [range(-(n // 2), n // 2)] * d
    for xi in itertools.product(*freqs):
        acc = 0.0 + 0.0j
        for p in itertools.product(*(range(n),) * d):
            phase = sum(xi[a] * x_axis[p[a]] for a in range(d))
            acc += samples[p] * np.exp(-1j * phase)
        out[xi] = acc / n**d
    return out


def eval_modes(modes: dict[tuple[int, ...], complex], points: np.ndarray) -> np.ndarray:
    """Evaluate sum_xi c_xi exp(i xi . x) at arbitrary points."""
    pts = np.asarray(points, dtype=np.float64)
    out = np.zeros(pts.shape[:-1], dtype=np.complex128)
    for xi, c in modes.items():
        out += c * np.exp(1j * (pts @ np.asarray(xi, dtype=np.float64)))
    return out


def modes_on_grid(modes: dict[tuple[int, ...], complex], d: int, n: int) -> np.ndarray:
    """Sample a mode dict on the uniform grid, direct evaluation."""
    axis = TWO_PI * np.arange(n) / n
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack(mesh, axis=-1)
    return eval_modes(modes, pts)


def diff_modes(
    modes: dict[tuple[int, ...], complex], axis: int
) -> dict[tuple[int, ...], complex]:
    """Term-by-term derivative: multiply each mode by i xi_axis."""
    return {xi: c * 1j * xi[axis] for xi, c in modes.items()}


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


def regrid_coeffs(coeffs: np.ndarray, n_out: int) -> np.ndarray:
    """FFT-order coefficients zero padded (or truncated) to ``n_out`` per
    axis, frequency by frequency: every ``xi`` with components in
    ``[-h, h)``, ``h = min(n, n_out) / 2``, keeps its value."""
    n, d = coeffs.shape[0], coeffs.ndim
    h = min(n, n_out) // 2
    out = np.zeros((n_out,) * d, dtype=np.complex128)
    for xi in itertools.product(range(-h, h), repeat=d):
        out[tuple(c % n_out for c in xi)] = coeffs[tuple(c % n for c in xi)]
    return out


def fft_forward_reference(samples: np.ndarray) -> np.ndarray:
    """The forward transform as numpy's unnormalized FFT over the point count."""
    return np.fft.fftn(samples) / samples.size


def fft_inverse_reference(coeffs: np.ndarray, n_out: int) -> np.ndarray:
    """The inverse transform on an ``n_out`` grid as numpy's ``ifftn`` of the
    zero-padded (or truncated) coefficients times the point count."""
    padded = regrid_coeffs(coeffs, n_out)
    return np.fft.ifftn(padded) * padded.size


def quadrature_pair(f: np.ndarray, g: np.ndarray) -> complex:
    """<f, g> = (2 pi/n)^d sum_p f(x_p) g(x_p), no conjugation."""
    n = f.shape[0]
    w = (TWO_PI / n) ** f.ndim
    return complex(w * np.sum(f * g))


def quadrature_lp(f: np.ndarray, p: float) -> float:
    n = f.shape[0]
    if math.isinf(p):
        return float(np.max(np.abs(f)))
    w = (TWO_PI / n) ** f.ndim
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
    n_coarse: int | None = None,
) -> float:
    """Max Euclidean gradient norm via 4th-order central differences.

    The trig polynomial is evaluated directly from its modes on a dense
    grid; derivatives never touch the library.  With ``n_coarse`` the max is
    restricted to the sublattice of ``n_coarse`` points per axis, matching a
    sup norm taken over a coarser grid.
    """
    axis = TWO_PI * np.arange(n_fine) / n_fine
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack(mesh, axis=-1)
    vals = eval_modes(modes, pts)
    h = TWO_PI / n_fine
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


def mul_poly_terms(
    a: dict[tuple[int, ...], Fraction], b: dict[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    """Product of two exponent-tuple term maps, zero coefficients dropped."""
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def diff_poly_terms(
    terms: dict[tuple[int, ...], Fraction], axis: int
) -> dict[tuple[int, ...], Fraction]:
    """Partial derivative of an exponent-tuple term map in variable ``axis``."""
    out: dict[tuple[int, ...], Fraction] = {}
    for expo, coef in terms.items():
        if expo[axis]:
            lower = expo[:axis] + (expo[axis] - 1,) + expo[axis + 1 :]
            out[lower] = out.get(lower, 0) + coef * expo[axis]
    return out


# ---------------------------------------------------------------------------
# Seeded random fields built on the full frequency mesh
# ---------------------------------------------------------------------------


def random_field_mesh(
    seed: int, d: int, n: int, t: int, gamma: float, cutoff: float | None
) -> np.ndarray:
    """Real samples of ``harness.random_field`` on the grid ``(d, n)`` with
    dyadic exponent ``t``, built the long way: a dense frequency meshgrid,
    a stacked FFT index per mode, and flat indices by stride products.

    The random draws, the profile and the assignment order are those of the
    library, so the samples agree bitwise.
    """
    rng = np.random.default_rng(seed)
    axis = np.arange(n, dtype=np.int64)
    axis[axis >= n // 2] -= n
    mesh = np.meshgrid(*([axis << t] * d), indexing="ij")
    radius = np.sqrt(sum(m.astype(np.float64) ** 2 for m in mesh)).reshape(-1)
    profile = (1.0 + radius) ** (-gamma)

    index = np.stack([(m.reshape(-1) >> t) % n for m in mesh], axis=-1)
    strides = np.array([n ** (d - 1 - ax) for ax in range(d)], dtype=np.int64)
    own = index @ strides
    partner = ((n - index) % n) @ strides

    phases = rng.uniform(0.0, 2.0 * math.pi, size=own.shape[0])
    signs = rng.integers(0, 2, size=own.shape[0]) * 2 - 1
    coeffs = np.zeros(own.shape[0], dtype=np.complex128)
    lead = own < partner
    coeffs[own[lead]] = profile[lead] * np.exp(1j * phases[lead])
    coeffs[partner[lead]] = np.conj(coeffs[own[lead]])
    selfp = own == partner
    coeffs[own[selfp]] = profile[selfp] * signs[selfp]
    if cutoff is not None:
        coeffs[radius > cutoff] = 0.0
    coeffs[0] = 0.0
    return (np.fft.ifftn(coeffs.reshape((n,) * d)) * n**d).real


# ---------------------------------------------------------------------------
# The boundedness scan with its operator applied at every sweep step
# ---------------------------------------------------------------------------


def boundedness_scan_per_step(cfg) -> dict:
    """``harness.boundedness_scan(cfg).to_dict()`` without
    ``runtime_seconds`` and ``extra.applied_t``, computed the long way: the
    operator runs on the dilated family at every step ``t``, degree-zero
    symbols included, instead of repeating the ``t_min`` row."""
    from mlab import harness
    from mlab.decomp import separable_expand
    from mlab.grid import dilate_dyadic
    from mlab.operators import OperatorSpec, Separable, apply_direct_family, apply_operator
    from mlab.spaces import lp_norm
    from mlab.symbols import resolve_symbol

    sym = resolve_symbol(cfg.symbol, cfg.d, m=cfg.m)
    op, extra = OperatorSpec(sym, cfg.m), {}
    if cfg.strategy == "separable":
        exp = separable_expand(sym)
        op = OperatorSpec(sym, cfg.m, strategy=Separable(exp))
        extra = {"rank": exp.rank, "n_angular": exp.grid.n_points, "residual": exp.residual}
    families = [
        [harness.random_field(s, cfg.grid, harness.DECAY, cutoff=cfg.cutoff) for s in block]
        for block in harness._family_seeds(cfg, cfg.m)
    ]
    sweep_rows = []
    for t in range(cfg.t_min, cfg.t_max + 1):
        batch = [[dilate_dyadic(f, t) for f in fs] for fs in families]
        if cfg.strategy == "separable":
            outs = [apply_operator(op, fts) for fts in batch]
        else:
            outs = apply_direct_family(op, batch)
        ratios = []
        for fts, out in zip(batch, outs):
            num = lp_norm(out, cfg.r)
            den = math.prod(lp_norm(ft, pj) for ft, pj in zip(fts, cfg.p))
            ratios.append(num / den if den > 0 else 0.0)
        sweep_rows.append({"t": t, "ratios": ratios})
    allr = [x for row in sweep_rows for x in row["ratios"]]
    return {
        "config_hash": cfg.config_hash(),
        "experiment": cfg.experiment,
        "kind": "boundedness",
        "ratios": sweep_rows[0]["ratios"],
        "max_ratio": max(allr),
        "median_ratio": float(np.median(allr)),
        "min_ratio": min(allr),
        "sweep": sweep_rows,
        "thresholds": {"sweep_max_over_base": harness.OSCILLATION_FACTOR},
        "passed": harness._oscillation_ok(sweep_rows, harness.OSCILLATION_FACTOR),
        "extra": extra,
    }
