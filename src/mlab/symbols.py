"""Multilinear multiplier symbols.

A symbol is a function of ``m`` integer frequency vectors, evaluated in
batches: the evaluator receives ``m`` float arrays of shapes ``(..., d)``,
which may be strided views and broadcast against each other, and returns
real or complex values of the broadcast shape.  A flat ``(B, d)`` batch is
the special case of equal shapes; an outer product of per-slot sets passes
slot ``j`` shaped ``(1, ..., n_j, ..., 1, d)``, so no tuple is copied and
per-slot quantities such as ``|xi_j|`` cost one operation per mode, not per
tuple.  The built-in evaluators read component ``c`` as ``b[..., c]``, which
gives every tuple the same floating-point operations in the same order
under either layout.  Frequencies are passed in lattice units, which on the
one torus ``[0, 2 pi)^d`` are the physical ones: no operator rescales them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .polyfield import poly_det

__all__ = [
    "SymbolSpec",
    "evaluate",
    "det_symbol",
    "dot_symbol",
    "one_symbol",
    "power_symbol",
    "normalized_power_symbol",
    "riesz_factor",
    "product_symbol",
    "resolve_symbol",
]

Evaluator = Callable[..., np.ndarray]


@dataclass(frozen=True)
class SymbolSpec:
    """A multilinear multiplier symbol with structural flags.

    Evaluators are total: every tuple has a value, zero slots included, and
    the evaluator computes it.  ``null_on_zero_slots`` states that this
    value is 0 whenever any argument is the zero vector; only the operators
    read it, to skip or to refuse mean modes.
    """

    m: int
    d: int
    evaluator: Evaluator
    name: str = "symbol"
    poly_homogeneous: bool = False
    null_on_zero_slots: bool = True

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


def _norm(b: np.ndarray) -> np.ndarray:
    """Euclidean norm of every vector of a ``(..., d)`` block, one component
    at a time, and ``inf`` for the zero vector: a quotient by it is 0."""
    r2 = b[..., 0] * b[..., 0]
    for c in range(1, b.shape[-1]):
        r2 += b[..., c] * b[..., c]
    return np.where(r2 == 0.0, np.inf, np.sqrt(r2))


def evaluate(sym: SymbolSpec, xis: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate a symbol on broadcasting frequency blocks.

    The result is ``complex128`` of the blocks' broadcast shape (without the
    trailing ``d``); an evaluator returning any other shape raises
    ``ValueError``.  The blocks go to the evaluator as given, without a
    copy, zero vectors included: evaluators are total.
    """
    blocks = _as_batches(xis, sym.m, sym.d)
    try:
        shape = np.broadcast_shapes(*(b.shape[:-1] for b in blocks))
    except ValueError:
        raise ValueError(
            f"frequency blocks of shapes {[b.shape for b in blocks]} do not broadcast"
        ) from None
    out = np.asarray(sym.evaluator(*blocks), dtype=np.complex128)
    if out.shape != shape:
        # An evaluator that indexes a block on the wrong axis lands here.
        raise ValueError(
            f"symbol {sym.name!r} returned shape {out.shape} for frequency blocks "
            f"of broadcast shape {shape}"
        )
    return out


def det_symbol(d: int) -> SymbolSpec:
    """``det(xi_1, ..., xi_d)``, the matrix having the ``xi_j`` as columns.

    Evaluated by the cofactor expansion :func:`poly_det` rather than a
    factorization: on integer frequency tuples every product and partial
    sum is exact in float64, so the symbol is exactly alternating there.
    Column ``j`` is block ``j``: one dtype and broadcast shape, as the
    in-place sums of ``poly_det`` need.  The value is never a view.
    """

    def ev(*blocks: np.ndarray) -> np.ndarray:
        return poly_det([[b[..., row] for b in blocks] for row in range(d)])

    return SymbolSpec(m=d, d=d, evaluator=ev, name="det")


def dot_symbol(d: int) -> SymbolSpec:
    """Bilinear symbol ``xi_1 . xi_2``."""

    def ev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = a[..., 0] * b[..., 0]
        for c in range(1, d):
            out += a[..., c] * b[..., c]
        return out

    return SymbolSpec(m=2, d=d, evaluator=ev, name="dot")


def one_symbol(m: int, d: int) -> SymbolSpec:
    """The constant symbol 1, including on zero slots."""

    def ev(*blocks: np.ndarray) -> np.ndarray:
        return np.ones(np.broadcast_shapes(*(b.shape[:-1] for b in blocks)))

    return SymbolSpec(m=m, d=d, evaluator=ev, name="one", poly_homogeneous=True,
                      null_on_zero_slots=False)


def power_symbol(base: SymbolSpec, k: int) -> SymbolSpec:
    """``base^k`` with integer ``k >= 0``; ``k = 0`` is the constant 1."""
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    if k == 0:
        return one_symbol(base.m, base.d)

    def ev(*blocks: np.ndarray) -> np.ndarray:
        return base.evaluator(*blocks) ** k

    return SymbolSpec(
        m=base.m,
        d=base.d,
        evaluator=ev,
        name=f"{base.name}^{k}",
        null_on_zero_slots=base.null_on_zero_slots,
    )


def normalized_power_symbol(base: SymbolSpec, beta: float) -> SymbolSpec:
    """``base^beta / prod_j |xi_j|^beta``, signed for integer ``beta``.

    Degree-zero poly-homogeneous by construction.  Non-integer ``beta`` uses
    ``|base|^beta`` so the power is defined for symbols of either sign.  The
    quotient is formed before the power: for ``det`` (Hadamard) and ``dot``
    (Cauchy-Schwarz) it is at most 1 in modulus.  Rounding can put it an ulp
    above 1, which a large ``beta`` would blow up, so the power takes it
    clamped to modulus 1; ``beta = 1`` takes no power and no clamp.  A zero
    slot's norm is ``inf``, so the value there is 0.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    signed = float(beta).is_integer()

    def ev(*blocks: np.ndarray) -> np.ndarray:
        den = _norm(blocks[0])
        for b in blocks[1:]:
            den = den * _norm(b)
        q = base.evaluator(*blocks) / den
        if beta == 1:
            return q
        modulus = np.abs(q)
        if not signed:
            return np.minimum(modulus, 1.0) ** beta
        return (q / np.maximum(modulus, 1.0)) ** int(beta)

    return SymbolSpec(
        m=base.m,
        d=base.d,
        evaluator=ev,
        name=f"norm[{base.name},{beta}]",
        poly_homogeneous=True,
    )


def riesz_factor(d: int, component: int) -> SymbolSpec:
    """Single-variable Riesz symbol ``xi_c / |xi|``, 0 at the origin."""
    if not (0 <= component < d):
        raise ValueError(f"component {component} out of range for d={d}")

    def ev(b: np.ndarray) -> np.ndarray:
        return b[..., component] / _norm(b)

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

    return SymbolSpec(
        m=len(factors),
        d=d,
        evaluator=ev,
        name="*".join(f.name for f in factors),
        poly_homogeneous=all(f.poly_homogeneous for f in factors),
        null_on_zero_slots=all(f.null_on_zero_slots for f in factors),
    )


def _argument(spec_id: str, text: str, kind: type, expected: str):
    """``kind(text)``; a malformed argument names the symbol id."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"symbol {spec_id!r} needs {expected}, got {text!r}") from None


def resolve_symbol(spec_id: str, d: int, m: int | None = None) -> SymbolSpec:
    """Build a symbol from a registry id.

    Recognised ids: ``one``, ``det``, ``det_pow:k``, ``det_norm:beta``,
    ``dot_norm:beta``, ``riesz_product:j1,...,jm`` (1-based components).
    ``one`` and ``det`` take no argument, and no component may be empty.
    ``m``, when given, is the number of inputs, one per exponent ``p_j``:
    it is the arity of ``one``, and any other symbol must take that many.
    A malformed argument, a dimension ``d < 1`` or another arity raises
    ``ValueError`` naming it.
    """
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    head, sep, arg = spec_id.partition(":")
    if head in ("one", "det") and sep:
        raise ValueError(f"symbol {head!r} takes no argument, got {spec_id!r}")
    if head == "one":
        sym = one_symbol(m or 2, d)
    elif head == "det":
        sym = det_symbol(d)
    elif head == "det_pow":
        sym = power_symbol(det_symbol(d), _argument(spec_id, arg, int, "an integer power k"))
    elif head in ("det_norm", "dot_norm"):
        base = det_symbol(d) if head == "det_norm" else dot_symbol(d)
        sym = normalized_power_symbol(base, _argument(spec_id, arg, float, "a number beta"))
    elif head == "riesz_product":
        components = [_argument(spec_id, c, int, "comma-separated components, each an integer")
                      for c in arg.split(",")]
        for c in components:
            if not 1 <= c <= d:
                raise ValueError(f"riesz_product component {c} out of range 1..{d}")
        sym = product_symbol([riesz_factor(d, c - 1) for c in components])
    else:
        raise ValueError(f"unknown symbol id {spec_id!r}")
    if m is not None and sym.m != m:
        raise ValueError(f"symbol {spec_id!r} takes {sym.m} inputs, but p lists {m} exponents")
    return sym
