"""Periodic grids, discrete Fourier transforms, and exact spectral operations.

Conventions, fixed once for the whole library:

* one torus ``[0, 2 pi)^d``, whose length is ``TWO_PI``,
* grid points ``x_p = 2 pi p / n`` with ``p`` in ``{0, ..., n-1}^d``,
* forward transform ``coeffs(xi) = n^-d sum_p f(x_p) exp(-i xi . x_p)``,
* inverse transform ``f(x_p) = sum_xi coeffs(xi) exp(+i xi . x_p)``,
* integer frequencies ``xi`` with components in ``[-n/2, n/2)``.

A grid with dyadic exponent ``t > 0`` holds one cell ``[0, 2 pi / 2^t)^d``
of a field that repeats ``2^t`` times per period and axis, such as
``f(2^t x)``: nodes ``x_p / 2^t``, frequencies ``2^t xi``.  Transforms, norms
and pairings read the cell alone; the ``2^t n`` grid is never built.
:func:`dilate_dyadic` is the one dilation verb, for fields and spectra
alike; :func:`pair_spectra` pairs spectra on two grids of one torus, and
:func:`active_in_band` counts the modes such a pairing reads.

:func:`apply_multipliers` is the one route from spectra to Fourier
multipliers of one function each: a derivative ``d^alpha`` (with
:func:`derivative_multiplier` of a multi-index ``alpha``), a Bessel
potential, a Littlewood-Paley piece, inverted on the spectra's grid or a
zero-padded one.  It stacks its terms and transforms them together, in
place, in one output buffer; :func:`apply_multiplier` is its one-term case
and :func:`padded_inverse` that of the constant multiplier one.
:func:`multiplier_l2_norm` is the one route to the ``L^2`` norm of such a
field: by discrete Parseval it reads the weighted coefficients and runs no
inverse transform.  No other module multiplies a spectrum's coefficients.

Under this pairing a multiplier identically equal to one reproduces the
pointwise product of its inputs, which is the anchor every other constant in
the library is calibrated against.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import FrequencyOverflowError, GridMismatchError

__all__ = [
    "TWO_PI",
    "GridSpec",
    "Field",
    "Spectrum",
    "dft_forward",
    "dft_inverse",
    "as_spectrum",
    "coeff_at",
    "support",
    "noise_floor",
    "active_modes",
    "spectrum_from_modes",
    "field_from_modes",
    "derivative_multiplier",
    "apply_multiplier",
    "apply_multipliers",
    "multiplier_l2_norm",
    "spectral_derivative",
    "regrid_spectrum",
    "padded_inverse",
    "regrid_field",
    "common_grid",
    "product_on_grid",
    "dealiased_product",
    "pair",
    "pair_spectra",
    "active_in_band",
    "dilate_dyadic",
]

TWO_PI = 2.0 * math.pi

# Relative magnitude below which a coefficient counts as inactive; one forward
# inverse transform roundtrip perturbs exact zeros by about 1e-17 of the peak.
_SUPPORT_RTOL = 1e-15


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on ``[0, 2 pi)^d``, ``n`` points per axis, ``n``
    a power of two; with dyadic exponent ``t``, one cell ``[0, 2 pi /
    2^t)^d`` of it, whose integer frequency at FFT index ``k`` is ``2^t k``.
    Frequencies are int64, so ``n 2^t`` must stay below ``2^63``."""

    d: int
    n: int
    t: int = 0

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.n < 4 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 4, got {self.n}")
        if self.t < 0:
            raise ValueError(f"dyadic exponent must be >= 0, got {self.t}")
        if self.n << self.t >= 1 << 63:
            raise ValueError(f"dilated frequencies of n={self.n}, t={self.t} overflow int64")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def npoints(self) -> int:
        return self.n**self.d

    @property
    def spacing(self) -> float:
        return TWO_PI / (self.n << self.t)

    def axis_points(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n) / (self.n << self.t)

    def freqs(self) -> np.ndarray:
        """Integer frequencies along one axis in FFT storage order."""
        f = np.arange(self.n, dtype=np.int64)
        f[f >= self.n // 2] -= self.n
        return f << self.t

    def freq_mesh(self) -> tuple[np.ndarray, ...]:
        """Integer frequencies, one array per axis, of length ``n`` along it
        and 1 elsewhere: an open mesh that broadcasts to ``shape``."""
        return np.ix_(*([self.freqs()] * self.d))

    def freq_radius(self) -> np.ndarray:
        """Euclidean lattice radius ``|xi|``, a ``shape``-shaped array."""
        mesh = self.freq_mesh()
        return np.sqrt(sum(m.astype(np.float64) ** 2 for m in mesh))

    def with_n(self, n: int) -> "GridSpec":
        return GridSpec(self.d, n, t=self.t)

    def dilated(self, t: int) -> "GridSpec":
        """The grid of the fields on this one dilated by ``2^t``."""
        return GridSpec(self.d, self.n, t=self.t + t)


@dataclass(frozen=True, eq=False)
class Field:
    """Complex samples on a :class:`GridSpec`, row-major ``grid.shape``."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            raise ValueError(f"samples shape {arr.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Fourier coefficients on a :class:`GridSpec`, FFT storage order."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            raise ValueError(f"coeffs shape {arr.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "coeffs", arr)


def dft_forward(f: Field) -> Spectrum:
    """Forward transform, ``coeffs(xi) = n^-d sum_p f(x_p) e^{-i xi . x_p}``.

    ``norm="forward"`` scales by ``n^-d`` inside the FFT and ``out`` takes its
    passes, so the result is the one array made.  Bitwise equal to
    ``np.fft.fftn(x) / n^d``: ``n`` is a power of two, so every scaling is
    exact and commutes with rounding."""
    coeffs = np.fft.fftn(f.samples, norm="forward",
                         out=np.empty(f.grid.shape, dtype=np.complex128))
    return Spectrum(f.grid, coeffs)


def dft_inverse(s: Spectrum) -> Field:
    """Inverse transform; exact round trip with :func:`dft_forward`.

    ``norm="forward"`` leaves the inverse unscaled: bitwise equal to
    ``np.fft.ifftn(x) * n^d``, for the reason :func:`dft_forward` gives, in
    one array."""
    samples = np.fft.ifftn(s.coeffs, norm="forward",
                           out=np.empty(s.grid.shape, dtype=np.complex128))
    return Field(s.grid, samples)


def as_spectrum(x: Field | Spectrum) -> Spectrum:
    """``x`` itself if it is a spectrum, else ``dft_forward(x)``: routes that
    accept either let a caller holding the spectrum skip the transform."""
    return x if isinstance(x, Spectrum) else dft_forward(x)


def coeff_at(s: Spectrum, xi: tuple[int, ...]) -> complex:
    """Coefficient at integer frequency ``xi``; zero outside the band and off
    the grid's ``2^t`` lattice."""
    n, t = s.grid.n, s.grid.t
    idx = []
    for c in xi:
        k = c >> t
        if k << t != c or not (-n // 2 <= k < n // 2):
            return 0.0 + 0.0j
        idx.append(k % n)
    return complex(s.coeffs[tuple(idx)])


def support(s: Spectrum, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Active modes of a spectrum.

    Returns ``(freqs, values)`` with ``freqs`` an ``(K, d)`` int64 array of
    integer frequency vectors and ``values`` the matching coefficients.
    """
    flat = s.coeffs.reshape(-1)
    keep = np.flatnonzero(np.abs(flat) > tol)
    axis = s.grid.freqs()
    idx = np.unravel_index(keep, s.grid.shape)
    freqs = np.stack([axis[i] for i in idx], axis=-1).astype(np.int64)
    if freqs.size == 0:
        freqs = freqs.reshape(0, s.grid.d)
    return freqs, flat[keep]


def noise_floor(s: Spectrum) -> float:
    """Magnitude at or below which a coefficient of ``s`` is transform noise,
    not content: ``_SUPPORT_RTOL`` times the largest coefficient."""
    return _SUPPORT_RTOL * float(np.max(np.abs(s.coeffs)))


def active_modes(s: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """``support`` of ``s`` above its ``noise_floor``.

    Keeping the noise would inflate a sparse support to the full lattice
    after any transform round trip.
    """
    return support(s, tol=noise_floor(s))


def spectrum_from_modes(grid: GridSpec, modes: dict[tuple[int, ...], complex]) -> Spectrum:
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    half, t = grid.n // 2, grid.t
    for xi, c in modes.items():
        if len(xi) != grid.d:
            raise ValueError(f"mode {xi} has wrong dimension")
        if any((comp >> t) << t != comp for comp in xi):
            raise ValueError(f"mode {xi} off the 2^{t} lattice of its grid")
        if any(not (-half <= comp >> t < half) for comp in xi):
            raise FrequencyOverflowError(f"mode {xi} outside the band of n={grid.n}, t={t}")
        coeffs[tuple((comp >> t) % grid.n for comp in xi)] += c
    return Spectrum(grid, coeffs)


def field_from_modes(grid: GridSpec, modes: dict[tuple[int, ...], complex]) -> Field:
    return dft_inverse(spectrum_from_modes(grid, modes))


def derivative_multiplier(grid: GridSpec, alpha: tuple[int, ...]) -> np.ndarray:
    """Fourier multiplier of the partial derivative ``d^alpha``.

    The product, in axis order, of ``alpha_a`` factors ``i xi_a`` per axis,
    each with the Nyquist row ``xi_a = -2^t n/2`` zeroed so that derivatives
    of real fields stay real; all ones for ``alpha = 0``.
    Each factor has length ``n`` along its axis and 1 elsewhere, so the
    product broadcasts against a spectrum.
    """
    if len(alpha) != grid.d or any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} invalid for d={grid.d}")
    f = grid.freqs()
    factor = 1j * f.astype(np.float64)
    factor[f == -(grid.n // 2 << grid.t)] = 0.0
    factors = [factor.reshape((1,) * axis + (grid.n,) + (1,) * (grid.d - axis - 1))
               for axis, reps in enumerate(alpha) for _ in range(reps)]
    return functools.reduce(operator.mul, factors) if factors else np.ones((1,) * grid.d)


def apply_multiplier(s: Spectrum, mult: np.ndarray, n_out: int | None = None) -> Field:
    """The field of ``s`` times a Fourier multiplier ``mult`` that broadcasts
    against it, inverted on an ``n_out`` grid (default ``s.grid.n``): the
    one-term case of :func:`apply_multipliers`."""
    samples = apply_multipliers([(s, mult)], n_out)[0]
    return Field(s.grid.with_n(samples.shape[0]), samples)


def _band_slices(n: int, n_out: int) -> list[tuple[slice, slice]]:
    """Per axis, the ``(source, destination)`` index slices of the
    frequencies that both an ``n`` and an ``n_out`` grid hold: ``[0, h)``
    keeps its index and ``[-h, 0)`` sits at the top of each axis, ``h =
    min(n, n_out) / 2``; one pair when the grids agree."""
    if n == n_out:
        return [(slice(None), slice(None))]
    h = min(n, n_out) // 2
    return [(slice(h), slice(h)), (slice(n - h, None), slice(n_out - h, None))]


def apply_multipliers(terms: list[tuple[Spectrum, np.ndarray]],
                      n_out: int | None = None) -> np.ndarray:
    """The fields of the spectra of ``terms`` times their multipliers,
    inverted on an ``n_out`` grid (default the spectra's own ``n``), as one
    stack of sample arrays of shape ``(len(terms), n_out, ..., n_out)``.

    The stack is the one array made.  Each product is written straight into
    its band of the zeroed stack, zero padded (or truncated) to ``n_out``,
    and the inverse runs in place on it as 1-D passes, last axis first, with
    the stack's terms transformed together.  Before the pass along an axis,
    only the lines whose indices on the axes not yet transformed lie in the
    old band can be nonzero, so on a padded grid each pass runs on those
    lines alone: ``2^d - 1`` FFT calls for the whole stack.  Every line gets
    the 1-D transform ``np.fft.ifftn`` gives it, unscaled by
    ``norm="forward"``, so each term is bitwise ``np.fft.ifftn`` of its
    zero-padded product times ``n_out^d`` (see :func:`dft_inverse`).  The
    spectra must share one grid.
    """
    if not terms:
        raise ValueError("apply_multipliers needs at least one (spectrum, multiplier) term")
    grid = terms[0][0].grid
    if any(s.grid != grid for s, _ in terms):
        raise GridMismatchError("apply_multipliers terms live on different grids")
    grid_out = grid if n_out is None else grid.with_n(n_out)
    bands = _band_slices(grid.n, grid_out.n)
    out = np.zeros((len(terms),) + grid_out.shape, dtype=np.complex128)
    for k, (s, mult) in enumerate(terms):
        mult = np.broadcast_to(mult, grid.shape)
        for block in itertools.product(bands, repeat=grid.d):
            src = tuple(b[0] for b in block)
            np.multiply(s.coeffs[src], mult[src], out=out[(k,) + tuple(b[1] for b in block)])
    lines = [b[1] for b in bands] if grid_out.n > grid.n else [slice(None)]
    for axis in reversed(range(grid.d)):
        for lead in itertools.product(lines, repeat=axis):
            view = out[(slice(None),) + lead]
            np.fft.ifft(view, axis=axis + 1, norm="forward", out=view)
    return out


def multiplier_l2_norm(s: Spectrum, mult: np.ndarray) -> float:
    """``L^2`` norm of ``apply_multiplier(s, mult)`` by discrete Parseval,
    ``sqrt((2 pi)^d sum_xi |mult(xi) shat(xi)|^2)``.

    Equal to rounding to the cell quadrature of the inverted field, on a
    dilated grid too, where dilation moves neither samples nor coefficients;
    no inverse transform runs and ``np.vdot`` forms no ``|.|^2`` temporary.
    """
    weighted = s.coeffs * mult
    return math.sqrt(TWO_PI**s.grid.d * np.vdot(weighted, weighted).real)


def spectral_derivative(f: Field, alpha: tuple[int, ...]) -> Field:
    """Partial derivative ``d^alpha f`` by Fourier multiplication with
    :func:`derivative_multiplier`."""
    return apply_multiplier(dft_forward(f), derivative_multiplier(f.grid, alpha))


def _axis_index_map(n_old: int, n_new: int, scale: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs mapping frequency ``xi -> scale * xi`` between two grids."""
    f = np.arange(n_old, dtype=np.int64)
    f[f >= n_old // 2] -= n_old
    tgt = scale * f
    keep = (tgt >= -(n_new // 2)) & (tgt < n_new // 2)
    old_idx = np.flatnonzero(keep)
    new_idx = tgt[keep] % n_new
    return old_idx, new_idx


def regrid_spectrum(s: Spectrum, n_new: int, t: int = 0) -> Spectrum:
    """Exact zero-padding (or truncation) of a spectrum to an ``n_new`` grid.

    ``t > 0`` keeps only the modes on the ``2^t``-times coarser lattice, on
    ``s.grid.dilated(t)``: all that a field on that grid pairs with.
    """
    if n_new == s.grid.n and t == 0:
        return s
    grid_new = s.grid.dilated(t).with_n(n_new)
    new_idx, old_idx = _axis_index_map(n_new, s.grid.n, scale=1 << t)
    coeffs = np.zeros(grid_new.shape, dtype=np.complex128)
    coeffs[np.ix_(*([new_idx] * s.grid.d))] = s.coeffs[np.ix_(*([old_idx] * s.grid.d))]
    return Spectrum(grid_new, coeffs)


def padded_inverse(s: Spectrum, n_new: int) -> Field:
    """``dft_inverse(regrid_spectrum(s, n_new))``, bitwise, without the
    padded copy: :func:`apply_multipliers` of ``s`` alone with the constant
    multiplier one, whose passes skip the lines the padding keeps zero."""
    return apply_multiplier(s, np.ones((1,) * s.grid.d), n_new)


def regrid_field(f: Field, n_new: int) -> Field:
    """Spectral resampling of a field onto an ``n_new`` grid.

    With the one-sided Nyquist convention the trigonometric interpolant of a
    real sample set can be complex between the coarse nodes.
    """
    return padded_inverse(dft_forward(f), n_new)


def common_grid(fields: list[Field]) -> GridSpec:
    """The grid every field lives on; raises when two of them differ."""
    if not fields:
        raise ValueError("need at least one field")
    g0 = fields[0].grid
    for f in fields[1:]:
        if f.grid != g0:
            raise GridMismatchError("fields live on different grids")
    return g0


def product_on_grid(fields: list[Field], n_out: int) -> Field:
    """Pointwise product evaluated on an ``n_out`` grid via zero padding.

    Exact (as a trigonometric polynomial) whenever the combined degree of the
    factors fits in the ``n_out`` band.
    """
    g0 = common_grid(fields)
    out = np.ones(g0.with_n(n_out).shape, dtype=np.complex128)
    for f in fields:
        out = out * regrid_field(f, n_out).samples
    return Field(g0.with_n(n_out), out)


def padded_points(n: int, factor: int) -> int:
    """Smallest power-of-two multiple of ``n`` that is ``>= factor * n``."""
    if factor < 1:
        raise ValueError("pad factor must be >= 1")
    out = n
    while out < factor * n:
        out *= 2
    return out


def dealiased_product(fields: list[Field], pad_factor: int) -> Field:
    """Aliasing-free pointwise product, restricted back to the input grid.

    ``pad_factor`` must be at least the number of factors; the product is
    formed on a grid enlarged by (at least) that factor, so no spurious
    wrap-around enters the retained band.
    """
    if pad_factor < len(fields):
        raise ValueError(f"pad_factor {pad_factor} < number of factors {len(fields)}")
    n = fields[0].grid.n
    big = product_on_grid(fields, padded_points(n, pad_factor))
    return regrid_field(big, n)


def pair(f: Field, g: Field) -> complex:
    """Pairing ``int f g`` without conjugation: on a common grid the cell
    quadrature ``(2 pi/n)^d sum_p f(x_p) g(x_p)``, on two grids of one
    torus (a dilated and an undilated one) :func:`pair_spectra`."""
    if f.grid != g.grid:
        return pair_spectra(dft_forward(f), dft_forward(g))
    w = (TWO_PI / f.grid.n) ** f.grid.d
    return complex(w * np.sum(f.samples * g.samples))


def _band_block(a: Spectrum, b: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of ``a`` at the ``xi`` with ``-xi`` in the band of
    ``b``, and those of ``b`` at ``-xi``, entry for entry, gathered per axis
    with ``np.ix_``; ``a.grid.t >= b.grid.t``, and ``xi = 0`` comes first."""
    if a.grid.d != b.grid.d:
        raise GridMismatchError("pairing needs two grids of the same dimension")
    a_idx, b_idx = _axis_index_map(a.grid.n, b.grid.n, scale=-(1 << (a.grid.t - b.grid.t)))
    d = a.grid.d
    return a.coeffs[np.ix_(*([a_idx] * d))], b.coeffs[np.ix_(*([b_idx] * d))]


def pair_spectra(a: Spectrum, b: Spectrum) -> complex:
    """``(2 pi)^d sum_xi ahat(xi) bhat(-xi)`` over the ``xi`` in both bands:
    the exact pairing of two trigonometric polynomials on one torus."""
    if a.grid.t < b.grid.t:
        a, b = b, a
    a_block, b_block = _band_block(a, b)
    return complex(TWO_PI**a.grid.d * np.sum(a_block * b_block))


def active_in_band(a: Spectrum, b: Spectrum, tol: float) -> int:
    """Modes of ``a`` other than the mean that :func:`pair_spectra` reads
    against ``b`` (``-xi`` in ``b``'s band), with modulus above ``tol``;
    ``a.grid.t >= b.grid.t``."""
    a_block, _ = _band_block(a, b)
    live = np.abs(a_block) > tol
    live.flat[0] = False
    return int(np.count_nonzero(live))


def dilate_dyadic(x: Field | Spectrum, t: int) -> Field | Spectrum:
    """Dyadic dilation ``f(x) -> f(2^t x)`` of a field or of its spectrum:
    the same array, not copied, on the grid ``x.grid.dilated(t)``.

    The node ``x_p / 2^t`` of the cell carries ``f(x_p)``, and the
    coefficient at ``xi`` moves to ``2^t xi``.  No transform runs,
    band-limited or not, and every quadrature ``L^p`` norm is unchanged.
    """
    if t < 0:
        raise ValueError(f"dilation exponent must be >= 0, got {t}")
    if isinstance(x, Spectrum):
        return Spectrum(x.grid.dilated(t), x.coeffs)
    return Field(x.grid.dilated(t), x.samples)
