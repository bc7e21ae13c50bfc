"""Multilinear multiplier symbols and sampled hypothesis checkers.

A symbol is a function of ``m`` integer frequency vectors, evaluated in
batches: the evaluator receives ``m`` float arrays of shape ``(B, d)``, which
may be strided views, and returns ``(B,)`` real or complex values; the
built-in evaluators read the blocks one column at a time.  Frequencies are
passed in lattice units; any physical ``2 pi / period`` scaling belongs to
the operator calling the symbol, not to the symbol itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceededError
from .polyfield import perm_sign
from .spaces import _multi_indices

__all__ = [
    "SymbolSpec",
    "ConditionReport",
    "evaluate",
    "det_symbol",
    "dot_symbol",
    "one_symbol",
    "power_symbol",
    "normalized_power_symbol",
    "riesz_factor",
    "product_symbol",
    "resolve_symbol",
    "check_poly_homogeneity",
    "check_derivative_conditions",
    "check_hormander_annulus",
]

Evaluator = Callable[..., np.ndarray]


@dataclass(frozen=True)
class SymbolSpec:
    """A multilinear multiplier symbol with structural flags.

    ``zero_rule`` is the value assigned whenever any argument is the zero
    vector; ``None`` means the evaluator is total and handles zero slots by
    itself (used for reduced symbols that must not be masked).
    """

    m: int
    d: int
    evaluator: Evaluator
    name: str = "symbol"
    poly_homogeneous: bool = False
    zero_rule: complex | None = 0.0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"arity must be >= 1, got {self.m}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")


def _as_batches(xis: Sequence[np.ndarray], m: int, d: int) -> list[np.ndarray]:
    if len(xis) != m:
        raise ValueError(f"expected {m} frequency blocks, got {len(xis)}")
    out = []
    for x in xis:
        a = np.asarray(x, dtype=np.float64)
        if a.ndim == 1:
            a = a[None, :]
        if a.shape[-1] != d:
            raise ValueError(f"frequency block has dimension {a.shape[-1]}, expected {d}")
        out.append(a)
    return out


def _zero_rows(b: np.ndarray) -> np.ndarray:
    """Rows of a ``(B, d)`` block that are the zero vector, one column at a time."""
    zero = b[:, 0] == 0.0
    for c in range(1, b.shape[1]):
        zero &= b[:, c] == 0.0
    return zero


def _norm(b: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a ``(B, d)`` block, one column at a time."""
    r2 = b[:, 0] * b[:, 0]
    for c in range(1, b.shape[1]):
        r2 += b[:, c] * b[:, c]
    return np.sqrt(r2)


def evaluate(sym: SymbolSpec, xis: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate a symbol on a batch of frequency tuples, applying zero_rule.

    Evaluators may return real or complex values; the result is ``complex128``.
    A batch with no zero slot goes to the evaluator as given, without a copy.
    """
    blocks = _as_batches(xis, sym.m, sym.d)
    if sym.zero_rule is None:
        return np.asarray(sym.evaluator(*blocks), dtype=np.complex128)
    zero_slot = _zero_rows(blocks[0])
    for b in blocks[1:]:
        zero_slot |= _zero_rows(b)
    if not zero_slot.any():
        return np.asarray(sym.evaluator(*blocks), dtype=np.complex128)
    out = np.full(blocks[0].shape[0], complex(sym.zero_rule), dtype=np.complex128)
    live = ~zero_slot
    if np.any(live):
        out[live] = sym.evaluator(*[b.compress(live, axis=0) for b in blocks])
    return out


def det_symbol(d: int) -> SymbolSpec:
    """``det(xi_1, ..., xi_d)``, the matrix having the ``xi_j`` as columns.

    Evaluated by Leibniz expansion rather than a factorization: on integer
    frequency tuples every product and partial sum is exact in float64, so
    the symbol is exactly alternating there.
    """
    perms = list(itertools.permutations(range(d)))
    signs = [perm_sign(p) for p in perms]

    def ev(*blocks: np.ndarray) -> np.ndarray:
        out = 0.0
        for sign, p in zip(signs, perms):
            term = blocks[0][:, p[0]]
            for col in range(1, d):
                term = term * blocks[col][:, p[col]]
            out = out + term if sign > 0 else out - term
        return out

    return SymbolSpec(m=d, d=d, evaluator=ev, name="det")


def dot_symbol(d: int) -> SymbolSpec:
    """Bilinear symbol ``xi_1 . xi_2``."""

    def ev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = a[:, 0] * b[:, 0]
        for c in range(1, d):
            out += a[:, c] * b[:, c]
        return out

    return SymbolSpec(m=2, d=d, evaluator=ev, name="dot")


def one_symbol(m: int, d: int) -> SymbolSpec:
    """The constant symbol 1, including on zero slots."""

    def ev(*blocks: np.ndarray) -> np.ndarray:
        return np.ones(blocks[0].shape[0], dtype=np.float64)

    return SymbolSpec(
        m=m, d=d, evaluator=ev, name="one", poly_homogeneous=True, zero_rule=1.0
    )


def power_symbol(base: SymbolSpec, k: int) -> SymbolSpec:
    """``base^k`` with integer ``k >= 0``; ``k = 0`` is the constant 1."""
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    if k == 0:
        return one_symbol(base.m, base.d)

    def ev(*blocks: np.ndarray) -> np.ndarray:
        return base.evaluator(*blocks) ** k

    zr = None if base.zero_rule is None else complex(base.zero_rule) ** k
    return SymbolSpec(
        m=base.m,
        d=base.d,
        evaluator=ev,
        name=f"{base.name}^{k}",
        zero_rule=zr,
    )


def normalized_power_symbol(base: SymbolSpec, beta: float) -> SymbolSpec:
    """``base^beta / prod_j |xi_j|^beta``, signed for integer ``beta``.

    Degree-zero poly-homogeneous by construction.  Non-integer ``beta`` uses
    ``|base|^beta`` so the power is defined for symbols of either sign.
    """
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    signed = float(beta).is_integer()

    def ev(*blocks: np.ndarray) -> np.ndarray:
        num = base.evaluator(*blocks)
        num = num**int(beta) if signed else np.abs(num) ** beta
        den = _norm(blocks[0])
        for b in blocks[1:]:
            den *= _norm(b)
        return num / den**beta

    return SymbolSpec(
        m=base.m,
        d=base.d,
        evaluator=ev,
        name=f"norm[{base.name},{beta}]",
        poly_homogeneous=True,
        zero_rule=0.0,
    )


def riesz_factor(d: int, component: int) -> SymbolSpec:
    """Single-variable Riesz symbol ``xi_c / |xi|``."""
    if not (0 <= component < d):
        raise ValueError(f"component {component} out of range for d={d}")

    def ev(b: np.ndarray) -> np.ndarray:
        return b[:, component] / _norm(b)

    return SymbolSpec(
        m=1, d=d, evaluator=ev, name=f"riesz{component + 1}", poly_homogeneous=True
    )


def product_symbol(factors: Sequence[SymbolSpec]) -> SymbolSpec:
    """Tensor-product symbol ``a_1(xi_1) ... a_m(xi_m)`` from arity-1 factors."""
    if not factors:
        raise ValueError("need at least one factor")
    d = factors[0].d
    for f in factors:
        if f.m != 1 or f.d != d:
            raise ValueError("product factors must be arity-1 symbols of equal dimension")

    def ev(*blocks: np.ndarray) -> np.ndarray:
        out = factors[0].evaluator(blocks[0])
        for fac, b in zip(factors[1:], blocks[1:]):
            out = out * fac.evaluator(b)
        return out

    if any(f.zero_rule is None for f in factors):
        zr: complex | None = None
    else:
        zr = 1.0
        for f in factors:
            zr *= complex(f.zero_rule)
    return SymbolSpec(
        m=len(factors),
        d=d,
        evaluator=ev,
        name="*".join(f.name for f in factors),
        poly_homogeneous=all(f.poly_homogeneous for f in factors),
        zero_rule=zr,
    )


def resolve_symbol(spec_id: str, d: int, m: int | None = None) -> SymbolSpec:
    """Build a symbol from a registry id.

    Recognised ids: ``one``, ``det``, ``det_pow:k``, ``det_norm:beta``,
    ``dot_norm:beta``, ``riesz_product:j1,...,jm`` (1-based components).
    """
    head, _, arg = spec_id.partition(":")
    if head == "one":
        return one_symbol(m or 2, d)
    if head == "det":
        return det_symbol(d)
    if head == "det_pow":
        return power_symbol(det_symbol(d), int(arg))
    if head == "det_norm":
        return normalized_power_symbol(det_symbol(d), float(arg))
    if head == "dot_norm":
        return normalized_power_symbol(dot_symbol(d), float(arg))
    if head == "riesz_product":
        comps = [int(tok) for tok in arg.split(",") if tok]
        if not comps:
            raise ValueError("riesz_product needs at least one component")
        return product_symbol([riesz_factor(d, c - 1) for c in comps])
    raise ValueError(f"unknown symbol id {spec_id!r}")


@dataclass
class ConditionReport:
    """Outcome of a sampled symbol-hypothesis check."""

    condition: str
    description: str
    constants: dict[str, float]
    worst_ratio: float
    samples_used: int
    samples_skipped: int
    passed: bool
    threshold: float
    per_scale: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "description": self.description,
            "constants": self.constants,
            "worst_ratio": self.worst_ratio,
            "samples_used": self.samples_used,
            "samples_skipped": self.samples_skipped,
            "passed": self.passed,
            "threshold": self.threshold,
            "per_scale": self.per_scale,
        }


def _random_tuples(rng: np.random.Generator, m: int, d: int, count: int) -> np.ndarray:
    """Nonzero integer frequency tuples, shape (count, m, d)."""
    out = rng.integers(-8, 9, size=(count, m, d)).astype(np.float64)
    for j in range(m):
        bad = np.all(out[:, j, :] == 0.0, axis=-1)
        while np.any(bad):
            out[bad, j, :] = rng.integers(-8, 9, size=(int(bad.sum()), d))
            bad = np.all(out[:, j, :] == 0.0, axis=-1)
    return out


def check_poly_homogeneity(
    sym: SymbolSpec, samples: int = 64, seed: int = 0, tol: float = 1e-10
) -> ConditionReport:
    """Sampled check of ``sigma(t_1 xi_1, ..., t_m xi_m) = sigma(xi...)``.

    Scale factors are dyadic powers ``2^-4 .. 2^4`` so the rescaling itself
    is exact in floating point; any deviation is the symbol's.
    """
    rng = np.random.default_rng(seed)
    tuples = _random_tuples(rng, sym.m, sym.d, samples)
    base = evaluate(sym, [tuples[:, j, :] for j in range(sym.m)])
    worst = 0.0
    for _ in range(4):
        ts = 2.0 ** rng.integers(-4, 5, size=(samples, sym.m))
        scaled = [tuples[:, j, :] * ts[:, j : j + 1] for j in range(sym.m)]
        dev = np.max(np.abs(evaluate(sym, scaled) - base))
        worst = max(worst, float(dev))
    return ConditionReport(
        condition="poly-homogeneity",
        description=f"{sym.name}: dyadic rescale invariance over {samples} tuples",
        constants={"max_deviation": worst},
        worst_ratio=worst,
        samples_used=samples,
        samples_skipped=0,
        passed=worst <= tol,
        threshold=tol,
    )


def _fd_derivative(
    sym: SymbolSpec, tuples: np.ndarray, alpha: dict[tuple[int, int], int], steps: np.ndarray
) -> np.ndarray:
    """Central finite-difference estimate of a first or second derivative.

    ``alpha`` maps ``(slot, axis)`` to its order; total order <= 2.
    """

    def shifted(offsets: list[tuple[tuple[int, int], float]]) -> np.ndarray:
        pts = tuples.copy()
        for (j, i), mult in offsets:
            pts[:, j, i] += mult * steps[:, j]
        return evaluate(sym, [pts[:, j, :] for j in range(sym.m)])

    items = list(alpha.items())
    total = sum(o for _, o in items)
    if total == 1:
        (coord, _), = items
        h = steps[:, coord[0]]
        return (shifted([(coord, 1.0)]) - shifted([(coord, -1.0)])) / (2.0 * h)
    if total == 2 and len(items) == 1:
        coord, _ = items[0]
        h = steps[:, coord[0]]
        return (shifted([(coord, 1.0)]) - 2.0 * shifted([]) + shifted([(coord, -1.0)])) / h**2
    if total == 2:
        (c1, _), (c2, _) = items
        h1 = steps[:, c1[0]]
        h2 = steps[:, c2[0]]
        plus = shifted([(c1, 1.0), (c2, 1.0)]) + shifted([(c1, -1.0), (c2, -1.0)])
        minus = shifted([(c1, 1.0), (c2, -1.0)]) + shifted([(c1, -1.0), (c2, 1.0)])
        return (plus - minus) / (4.0 * h1 * h2)
    raise ValueError("finite differences implemented up to order 2")


def check_derivative_conditions(
    sym: SymbolSpec,
    weighting: str = "CM",
    max_order: int = 1,
    samples: int = 32,
    seed: int = 0,
    threshold: float = 2.0,
) -> ConditionReport:
    """Sampled derivative-decay check.

    ``weighting='CM'`` weights ``|d^alpha sigma|`` by ``(sum_j |xi_j|)^|alpha|``;
    ``weighting='PRODUCT'`` uses the per-slot weight ``prod_j |xi_j|^|alpha_j|``.
    Derivatives are central finite differences with step ``|xi_j| / 64`` in
    slot ``j``, sampled across 6 dyadic scales.  The check passes when the
    per-scale supremum is stable: largest/smallest scale supremum within
    ``threshold``.
    """
    if weighting not in ("CM", "PRODUCT"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    rng = np.random.default_rng(seed)
    scales = 2.0 ** np.arange(6)
    coords = [(j, i) for j in range(sym.m) for i in range(sym.d)]
    alphas: list[dict[tuple[int, int], int]] = [{c: 1} for c in coords]
    if max_order >= 2:
        alphas += [{c: 2} for c in coords]
        alphas += [{a: 1, b: 1} for a, b in itertools.combinations(coords, 2)]

    constants: dict[str, float] = {}
    per_scale: dict[str, float] = {}
    used = skipped = 0
    base = _random_tuples(rng, sym.m, sym.d, samples)
    dirs = base / np.linalg.norm(base, axis=-1, keepdims=True)
    radii = rng.uniform(1.0, 2.0, size=(samples, sym.m, 1))

    order0 = 0.0
    for scale in scales:
        tuples = scale * radii * dirs
        mags = np.linalg.norm(tuples, axis=-1)  # (samples, m)
        ok = np.all(mags > 64.0 * np.finfo(float).tiny, axis=-1)
        skipped += int((~ok).sum())
        used += int(ok.sum())
        tuples = tuples[ok]
        mags = mags[ok]
        if tuples.shape[0] == 0:
            continue
        order0 = max(order0, float(np.max(np.abs(evaluate(sym, [tuples[:, j, :] for j in range(sym.m)])))))
        steps = mags / 64.0
        sup_here = 0.0
        for alpha in alphas:
            order = sum(alpha.values())
            est = np.abs(_fd_derivative(sym, tuples, alpha, steps))
            if weighting == "CM":
                weight = np.sum(mags, axis=-1) ** order
            else:
                weight = np.ones(tuples.shape[0])
                for (j, _), o in alpha.items():
                    weight = weight * mags[:, j] ** o
            weighted = float(np.max(est * weight))
            key = "d" + "".join(f"({j + 1},{i + 1})^{o}" for (j, i), o in sorted(alpha.items()))
            constants[key] = max(constants.get(key, 0.0), weighted)
            sup_here = max(sup_here, weighted)
        per_scale[f"2^{int(math.log2(scale))}"] = sup_here
    constants["order0"] = order0

    vals = [v for v in per_scale.values() if v > 0.0]
    if vals and min(vals) > 0.0:
        worst = max(vals) / min(vals)
    else:
        worst = 1.0 if len(set(per_scale.values())) <= 1 else math.inf
    return ConditionReport(
        condition=f"derivative-{weighting}",
        description=f"{sym.name}: weighted FD derivatives to order {max_order}",
        constants=constants,
        worst_ratio=float(worst),
        samples_used=used,
        samples_skipped=skipped,
        passed=bool(worst <= threshold),
        threshold=threshold,
        per_scale=per_scale,
    )


def check_hormander_annulus(
    sym: SymbolSpec,
    smoothness_order: int = 1,
    r_list: Sequence[float] = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    points_per_axis: int = 9,
    budget: int = 2_000_000,
    threshold: float = math.inf,
) -> ConditionReport:
    """Discrete Sobolev norm of ``a(R .)`` on the product-space annulus.

    The concatenated variable ``z = (xi_1, ..., xi_m)`` ranges over a uniform
    Cartesian grid; the ``L^2`` quadrature is restricted to the annulus
    ``1 <= |z| <= 2`` while central differences may use the surrounding
    collar.  Reports the supremum over ``R``.
    """
    D = sym.m * sym.d
    s = smoothness_order
    core = points_per_axis
    h = 4.0 / (core - 1)
    ext = core + 2 * s
    if ext**D > budget:
        raise BudgetExceededError(f"annulus grid {ext}^{D} exceeds budget {budget}")
    axis = np.linspace(-2.0 - s * h, 2.0 + s * h, ext)
    mesh = np.meshgrid(*([axis] * D), indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)  # (P, D)

    core_sl = tuple(slice(s, ext - s) for _ in range(D))
    radius = np.sqrt(sum(m**2 for m in mesh))[core_sl]
    annulus = (radius >= 1.0) & (radius <= 2.0)
    measure = float(annulus.sum()) * h**D

    def diff_axis(a: np.ndarray, axis_i: int) -> np.ndarray:
        upper = [slice(None)] * a.ndim
        lower = [slice(None)] * a.ndim
        upper[axis_i] = slice(2, None)
        lower[axis_i] = slice(None, -2)
        return (a[tuple(upper)] - a[tuple(lower)]) / (2.0 * h)

    per_r: dict[str, float] = {}
    for R in r_list:
        blocks = [R * pts[:, j * sym.d : (j + 1) * sym.d] for j in range(sym.m)]
        vals = evaluate(sym, blocks).reshape((ext,) * D)
        total = 0.0
        for alpha in _multi_indices(D, s):
            a = vals
            for axis_i, reps in enumerate(alpha):
                for _ in range(reps):
                    a = diff_axis(a, axis_i)
            # After alpha_k differences along axis k the array lost alpha_k
            # cells per side there; trim the rest of the collar to the core.
            sl = tuple(
                slice(s - alpha[k], a.shape[k] - (s - alpha[k])) for k in range(D)
            )
            a = a[sl]
            total += float(np.sum(np.abs(a[annulus]) ** 2)) * h**D
        per_r[f"R={R}"] = math.sqrt(total)
    sup = max(per_r.values())
    return ConditionReport(
        condition=f"hormander-annulus-H{s}",
        description=f"{sym.name}: discrete Sobolev norm on 1<=|z|<=2, sup over R",
        constants={"sup_norm": sup, "annulus_measure": measure},
        worst_ratio=sup,
        samples_used=int(annulus.sum()) * len(r_list),
        samples_skipped=0,
        passed=bool(sup <= threshold),
        threshold=threshold,
        per_scale=per_r,
    )

