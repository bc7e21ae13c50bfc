"""Periodic grids, discrete Fourier transforms, and exact spectral operations.

Conventions, fixed once for the whole library:

* grid points ``x_p = period * p / n`` with ``p`` in ``{0, ..., n-1}^d``,
* forward transform ``coeffs(xi) = n^-d sum_p f(x_p) exp(-i (2 pi / period) xi . x_p)``,
* inverse transform ``f(x_p) = sum_xi coeffs(xi) exp(+i (2 pi / period) xi . x_p)``,
* integer frequencies ``xi`` with components in ``[-n/2, n/2)``.

Under this pairing a multiplier identically equal to one reproduces the
pointwise product of its inputs, which is the anchor every other constant in
the library is calibrated against.
"""

from __future__ import annotations

import math
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
    "coeff_at",
    "support",
    "spectrum_from_modes",
    "field_from_modes",
    "spectral_derivative",
    "regrid_spectrum",
    "regrid_field",
    "common_grid",
    "product_on_grid",
    "dealiased_product",
    "pair",
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
    """Uniform periodic grid on ``[0, period)^d``.

    ``n`` points per axis, ``n`` a power of two so that dyadic dilation stays
    on the lattice.
    """

    d: int
    n: int
    period: float = TWO_PI

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.n < 4 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 4, got {self.n}")
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive and finite, got {self.period}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def npoints(self) -> int:
        return self.n**self.d

    @property
    def spacing(self) -> float:
        return self.period / self.n

    @property
    def kscale(self) -> float:
        """Physical wavenumber per integer frequency unit, ``2 pi / period``."""
        return TWO_PI / self.period

    def axis_points(self) -> np.ndarray:
        return self.period * np.arange(self.n) / self.n

    def freqs(self) -> np.ndarray:
        """Integer frequencies along one axis in FFT storage order."""
        f = np.arange(self.n, dtype=np.int64)
        f[f >= self.n // 2] -= self.n
        return f

    def freq_mesh(self) -> tuple[np.ndarray, ...]:
        """Integer frequency meshes, one ``shape``-shaped array per axis."""
        return np.meshgrid(*([self.freqs()] * self.d), indexing="ij")

    def freq_radius(self) -> np.ndarray:
        """Euclidean lattice radius ``|xi|`` on the full frequency mesh."""
        mesh = self.freq_mesh()
        return np.sqrt(sum(m.astype(np.float64) ** 2 for m in mesh))

    def with_n(self, n: int) -> "GridSpec":
        return GridSpec(self.d, n, self.period)


@dataclass(frozen=True, eq=False)
class Field:
    """Complex samples on a :class:`GridSpec`, row-major ``grid.shape``."""

    grid: GridSpec
    samples: np.ndarray
    is_real: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            raise ValueError(f"samples shape {arr.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "samples", arr)
        if self.is_real:
            scale = float(np.max(np.abs(arr))) or 1.0
            if float(np.max(np.abs(arr.imag))) > 1e-12 * scale:
                raise ValueError("field flagged real has non-negligible imaginary part")

    def real_samples(self) -> np.ndarray:
        return self.samples.real


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
    """Forward transform, ``coeffs(xi) = n^-d sum_p f(x_p) e^{-i k xi . x_p}``."""
    return Spectrum(f.grid, np.fft.fftn(f.samples) / f.grid.npoints)


def dft_inverse(s: Spectrum, is_real: bool = False) -> Field:
    """Inverse transform; exact round trip with :func:`dft_forward`."""
    return Field(s.grid, np.fft.ifftn(s.coeffs) * s.grid.npoints, is_real=is_real)


def coeff_at(s: Spectrum, xi: tuple[int, ...]) -> complex:
    """Coefficient at integer frequency ``xi``; zero outside the band."""
    n = s.grid.n
    idx = []
    for c in xi:
        if not (-n // 2 <= c < n // 2):
            return 0.0 + 0.0j
        idx.append(c % n)
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


def spectrum_from_modes(grid: GridSpec, modes: dict[tuple[int, ...], complex]) -> Spectrum:
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    half = grid.n // 2
    for xi, c in modes.items():
        if len(xi) != grid.d:
            raise ValueError(f"mode {xi} has wrong dimension")
        if any(not (-half <= comp < half) for comp in xi):
            raise FrequencyOverflowError(f"mode {xi} outside the band of n={grid.n}")
        coeffs[tuple(comp % grid.n for comp in xi)] += c
    return Spectrum(grid, coeffs)


def field_from_modes(
    grid: GridSpec, modes: dict[tuple[int, ...], complex], is_real: bool = False
) -> Field:
    return dft_inverse(spectrum_from_modes(grid, modes), is_real=is_real)


def spectral_derivative(f: Field, axis: int) -> Field:
    """Partial derivative along ``axis`` by Fourier multiplication.

    Coefficients are multiplied by ``i (2 pi / period) xi_axis``; the Nyquist
    row ``xi_axis = -n/2`` is zeroed so that derivatives of real fields stay
    real.
    """
    if not (0 <= axis < f.grid.d):
        raise ValueError(f"axis {axis} out of range for d={f.grid.d}")
    s = dft_forward(f)
    mesh = f.grid.freq_mesh()[axis]
    mult = 1j * f.grid.kscale * mesh.astype(np.float64)
    mult[mesh == -(f.grid.n // 2)] = 0.0
    return dft_inverse(Spectrum(f.grid, s.coeffs * mult), is_real=f.is_real)


def _axis_index_map(n_old: int, n_new: int, scale: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs mapping frequency ``xi -> scale * xi`` between two grids."""
    f = np.arange(n_old, dtype=np.int64)
    f[f >= n_old // 2] -= n_old
    tgt = scale * f
    keep = (tgt >= -(n_new // 2)) & (tgt < n_new // 2)
    old_idx = np.flatnonzero(keep)
    new_idx = tgt[keep] % n_new
    return old_idx, new_idx


def regrid_spectrum(s: Spectrum, n_new: int) -> Spectrum:
    """Exact zero-padding (or truncation) of a spectrum to an ``n_new`` grid."""
    if n_new == s.grid.n:
        return s
    grid_new = s.grid.with_n(n_new)
    old_idx, new_idx = _axis_index_map(s.grid.n, n_new)
    coeffs = np.zeros(grid_new.shape, dtype=np.complex128)
    coeffs[np.ix_(*([new_idx] * s.grid.d))] = s.coeffs[np.ix_(*([old_idx] * s.grid.d))]
    return Spectrum(grid_new, coeffs)


def regrid_field(f: Field, n_new: int) -> Field:
    """Spectral resampling of a field onto an ``n_new`` grid.

    The result is not flagged real even when the input is: with the one-sided
    Nyquist convention the trigonometric interpolant of a real sample set can
    be complex between the coarse nodes.
    """
    return dft_inverse(regrid_spectrum(dft_forward(f), n_new))


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
    """Quadrature pairing ``(period/n)^d sum_p f(x_p) g(x_p)`` (no conjugation)."""
    if f.grid != g.grid:
        raise GridMismatchError("pairing requires a common grid")
    w = (f.grid.period / f.grid.n) ** f.grid.d
    return complex(w * np.sum(f.samples * g.samples))


def dilate_dyadic(f: Field, t: int) -> Field:
    """Dyadic dilation ``f(x) -> f(2^t x)`` by exact coefficient remapping.

    The coefficient at ``xi`` moves to ``2^t xi``.  When the dilated spectrum
    no longer fits the band the grid is enlarged (same period, more points),
    which keeps the sample multiset of the output identical to the input's up
    to repetition; every quadrature ``L^p`` norm is then preserved exactly.
    """
    if t < 0:
        raise ValueError(f"dilation exponent must be >= 0, got {t}")
    if t == 0:
        return f
    s = dft_forward(f)
    # Transform roundtrip noise would otherwise mark every mode active and
    # force the maximal enlargement even for band-limited inputs.
    peak = float(np.max(np.abs(s.coeffs)))
    tol = _SUPPORT_RTOL * peak
    coeffs_in = np.where(np.abs(s.coeffs) > tol, s.coeffs, 0.0)
    s = Spectrum(f.grid, coeffs_in)
    freqs, _ = support(s)
    n = f.grid.n
    scale = 1 << t
    # Smallest power-of-two enlargement on which every scaled active mode is
    # representable; for a full-band input this is exactly 2^t n, which makes
    # the output samples a plain repetition of the input samples.
    max_pos = int(freqs.max(initial=0))
    min_neg = int(freqs.min(initial=0))
    n_out = n
    while scale * max_pos > n_out // 2 - 1 or scale * min_neg < -(n_out // 2):
        n_out *= 2
    grid_out = f.grid.with_n(n_out)
    old_idx, new_idx = _axis_index_map(n, n_out, scale=scale)
    if old_idx.size < n:
        # Only exactly-zero rows may be dropped by the remap.
        dropped = np.setdiff1d(np.arange(n), old_idx)
        sl = [slice(None)] * f.grid.d
        for ax in range(f.grid.d):
            sl_ax = list(sl)
            sl_ax[ax] = dropped
            if np.any(s.coeffs[tuple(sl_ax)]):
                raise FrequencyOverflowError("active mode outside the remappable band")
    coeffs = np.zeros(grid_out.shape, dtype=np.complex128)
    coeffs[np.ix_(*([new_idx] * f.grid.d))] = s.coeffs[np.ix_(*([old_idx] * f.grid.d))]
    return dft_inverse(Spectrum(grid_out, coeffs), is_real=f.is_real)
