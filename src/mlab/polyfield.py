"""Exact multivariate polynomials over the rationals.

Polynomials in ``d`` variables are stored as maps from exponent tuples to
exact ``int`` or ``Fraction`` coefficients, so every ring operation,
differentiation, and determinant expansion below is exact.  Integer inputs
stay Python integers throughout, which is far cheaper than ``Fraction``;
any other number enters as a ``Fraction``.  This is the substrate for the
symbolic divergence-form identity checks: a residual there is the zero
polynomial or the identity fails, no tolerances involved.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import TypeVar

__all__ = [
    "PolyField",
    "poly_zero",
    "poly_const",
    "poly_var",
    "poly_det",
    "perm_sign",
]

_Expo = tuple[int, ...]
_Coeff = int | Fraction
_Entry = TypeVar("_Entry")


def _exact(c: object) -> _Coeff:
    """``c`` itself if it is an ``int``, else ``Fraction(c)`` (exact for floats)."""
    return c if type(c) is int else Fraction(c)


def perm_sign(perm: tuple[int, ...]) -> int:
    """Sign of a permutation given as a tuple of 0-based images."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class PolyField:
    """Polynomial in ``d`` variables with exact ``int`` or ``Fraction`` coefficients."""

    d: int
    terms: dict[_Expo, _Coeff] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if 0 in self.terms.values():
            clean = {e: c for e, c in self.terms.items() if c != 0}
            object.__setattr__(self, "terms", clean)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def __add__(self, other: "PolyField") -> "PolyField":
        if self.d != other.d:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return PolyField(self.d, out)

    def __neg__(self) -> "PolyField":
        return PolyField(self.d, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "PolyField") -> "PolyField":
        if self.d != other.d:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return PolyField(self.d, out)

    def __mul__(self, other: "PolyField") -> "PolyField":
        if self.d != other.d:
            raise ValueError("variable count mismatch")
        out: dict[_Expo, _Coeff] = {}
        pairs = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in pairs:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return PolyField(self.d, out)

    def scale(self, c: Fraction | int) -> "PolyField":
        c = _exact(c)
        return PolyField(self.d, {e: c * v for e, v in self.terms.items()})

    def diff(self, axis: int) -> "PolyField":
        """Exact partial derivative in variable ``axis``."""
        if not 0 <= axis < self.d:
            raise ValueError("axis out of range")
        out: dict[_Expo, _Coeff] = {}
        for e, c in self.terms.items():
            k = e[axis]
            if k == 0:
                continue
            e2 = e[:axis] + (k - 1,) + e[axis + 1 :]
            out[e2] = out.get(e2, 0) + c * k
        return PolyField(self.d, out)

    def eval(self, point: tuple[Fraction | int, ...]) -> Fraction:
        if len(point) != self.d:
            raise ValueError("point dimension mismatch")
        xs = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(xs, e):
                v *= x**k
            total += v
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "PolyField(0)"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k)
            parts.append(f"{c}{'*' + mono if mono else ''}")
        return "PolyField(" + " + ".join(parts) + ")"


def poly_zero(d: int) -> PolyField:
    return PolyField(d, {})


def poly_const(d: int, c: Fraction | int) -> PolyField:
    return PolyField(d, {(0,) * d: _exact(c)})


def poly_var(d: int, axis: int) -> PolyField:
    if not 0 <= axis < d:
        raise ValueError("axis out of range")
    expo = tuple(1 if i == axis else 0 for i in range(d))
    return PolyField(d, {expo: 1})


def poly_det(matrix: list[list[_Entry]]) -> _Entry:
    """Determinant of a square matrix by Laplace (cofactor) expansion.

    Expands along the first row, recursively: ``9`` entry products for
    ``n = 3`` and ``40`` for ``n = 4``, against ``n! n`` for the Leibniz
    sum.  The entries only need ``*``, ``+=`` and ``-=``: exact
    :class:`PolyField` polynomials, numbers, or sample arrays, which gives
    a pointwise determinant over a grid without stacking the entries.
    Each sum accumulates in place into its first term, a fresh product, so
    array entries keep one dtype and one broadcast shape per column.  No
    entry is ever written, and ``n = 1`` returns a copy of its entry.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return copy(matrix[0][0])
    return _laplace(matrix, 0, tuple(range(n)))


def _laplace(matrix: list[list[_Entry]], row: int, cols: tuple[int, ...]) -> _Entry:
    """Minor of ``matrix`` on rows ``row..`` and columns ``cols``."""
    if len(cols) == 1:
        return matrix[row][cols[0]]
    out = matrix[row][cols[0]] * _laplace(matrix, row + 1, cols[1:])
    for k in range(1, len(cols)):
        term = matrix[row][cols[k]] * _laplace(matrix, row + 1, cols[:k] + cols[k + 1 :])
        if k % 2:
            out -= term
        else:
            out += term
    return out
