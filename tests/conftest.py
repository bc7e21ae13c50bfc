import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mlab import Field, GridSpec, SymbolSpec, dft_inverse, spectrum_from_modes

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    scale = float(np.max(np.abs(want)))
    if scale == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want))) / scale


def unit(d: int, axis: int) -> tuple[int, ...]:
    """The multi-index of the first derivative along ``axis`` in ``d`` dimensions."""
    return tuple(int(a == axis) for a in range(d))


def rel_l2(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got).reshape(-1)
    want = np.asarray(want).reshape(-1)
    scale = float(np.linalg.norm(want))
    if scale == 0.0:
        return float(np.linalg.norm(got))
    return float(np.linalg.norm(got - want)) / scale


def tiled(f: Field) -> Field:
    """The full-grid oracle of a dilated field: its cell samples repeated
    ``2^t`` times per axis on the undilated ``2^t n`` grid of the period."""
    g = f.grid
    full = GridSpec(g.d, g.n << g.t)
    return Field(full, np.tile(f.samples, (1 << g.t,) * g.d))


def random_trig(
    grid: GridSpec, degree: int, seed: int, real: bool = True
) -> tuple[Field, dict[tuple[int, ...], complex]]:
    """Random trig polynomial of max frequency ``degree`` plus its mode dict.

    The mode dict is the ground truth the oracles consume; the Field comes
    from the library's inverse transform of the same modes.
    """
    rng = np.random.default_rng(seed)
    modes: dict[tuple[int, ...], complex] = {}
    lo, hi = -degree, degree + 1
    for xi in np.ndindex(*(2 * degree + 1,) * grid.d):
        key = tuple(int(x) + lo for x in xi)
        c = complex(rng.standard_normal(), rng.standard_normal())
        modes[key] = c
    if real:
        sym: dict[tuple[int, ...], complex] = {}
        for xi, c in modes.items():
            neg = tuple(-x for x in xi)
            sym[xi] = 0.5 * (c + modes[neg].conjugate())
        modes = sym
    spec = spectrum_from_modes(grid, modes)
    return dft_inverse(spec), modes


def phase_symbol(m: int) -> SymbolSpec:
    """Complex degree-0 symbol in d = 2 with two terms, written in the unit
    phases ``z_j = e^{i theta_j}``: ``z_1 z_2^2 + 0.5i conj(z_1) z_2`` for
    m = 2, ``z_1 z_2 conj(z_3) + 0.5i z_1^2 conj(z_2) z_3^2`` for m = 3."""
    if m not in (2, 3):
        raise ValueError(f"phase symbol defined for m = 2, 3, got {m}")

    def ev(*blocks: np.ndarray) -> np.ndarray:
        z = [(b[..., 0] + 1j * b[..., 1]) / np.hypot(b[..., 0], b[..., 1]) for b in blocks]
        if m == 2:
            return z[0] * z[1] ** 2 + 0.5j * z[0].conj() * z[1]
        return z[0] * z[1] * z[2].conj() + 0.5j * z[0] ** 2 * z[1].conj() * z[2] ** 2

    return SymbolSpec(m=m, d=2, evaluator=ev, name=f"phase{m}", poly_homogeneous=True)


@pytest.fixture
def grid1d() -> GridSpec:
    return GridSpec(d=1, n=8)


@pytest.fixture
def grid2d() -> GridSpec:
    return GridSpec(d=2, n=8)
