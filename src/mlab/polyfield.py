"""Exact multivariate polynomials over the rationals.

A polynomial in ``d`` variables maps monomials to exact ``int`` or
``Fraction`` coefficients, so every ring operation, differentiation, and
determinant expansion below is exact.  Integer inputs stay Python integers
throughout, which is far cheaper than ``Fraction``; any other number enters
as a ``Fraction``.  This is the substrate for the symbolic divergence-form
identity checks: a residual there is the zero polynomial or the identity
fails, no tolerances involved.

Each monomial is stored under one packed ``int`` key: variable ``i``'s
exponent fills one byte (``FIELD_BITS``), variable 0 the most significant
one, so integer order is the order of the exponent tuples.  A product adds
keys and a derivative subtracts one axis's unit.  The top bit of every byte
is a guard that stays clear: exponents run up to ``MAX_EXPONENT = 127``, the
sum of two such fields cannot carry into its neighbour, and an exponent
that would set a guard bit, given to the constructor or reached by a
product, is refused with a ``ValueError`` rather than wrapped.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from functools import cache, reduce
from operator import or_
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

# One byte per variable: its top bit is the guard, so exponents are 0..127.
FIELD_BITS = 8
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


def _exact(c: object) -> _Coeff:
    """``c`` itself if it is an ``int``, else ``Fraction(c)`` (exact for floats)."""
    return c if type(c) is int else Fraction(c)


@cache
def _guard(d: int) -> int:
    """The guard bits (top bit of each field) of a ``d``-variable key."""
    top = 1 << (FIELD_BITS - 1)
    return sum(top << (FIELD_BITS * i) for i in range(d))


def _pack(d: int, expo: _Expo) -> int:
    """Packed key of an exponent tuple; refuses exponents no field can hold."""
    if len(expo) != d:
        raise ValueError(f"exponent tuple {expo} does not have {d} entries")
    key = 0
    for k in expo:
        if not 0 <= k <= MAX_EXPONENT:
            raise ValueError(
                f"exponent {k} is outside the packed field range 0..{MAX_EXPONENT}")
        key = (key << FIELD_BITS) | k
    return key


def _unpack(d: int, key: int) -> _Expo:
    return tuple(key.to_bytes(d, "big"))


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


class PolyField:
    """Immutable polynomial in ``d`` variables with exact ``int`` or
    ``Fraction`` coefficients.

    ``PolyField(d, {exponent_tuple: coefficient})`` builds one; zero
    coefficients are dropped and an exponent outside ``0..MAX_EXPONENT``
    raises ``ValueError``.  Terms are held under packed ``int`` keys (see
    the module docstring); :attr:`terms` unpacks them into a fresh
    tuple-keyed dict on every read.
    """

    __slots__ = ("d", "_packed")

    d: int
    _packed: dict[int, _Coeff]

    def __init__(self, d: int, terms: dict[_Expo, _Coeff] | None = None) -> None:
        packed = {_pack(d, e): _exact(c) for e, c in (terms or {}).items()}
        if 0 in packed.values():
            packed = {e: c for e, c in packed.items() if c != 0}
        _set_d(self, d)
        _set_packed(self, packed)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PolyField is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"PolyField is immutable; cannot delete {name!r}")

    def __copy__(self) -> "PolyField":
        return self

    def __reduce__(self) -> tuple:
        return PolyField, (self.d, self.terms)

    @property
    def terms(self) -> dict[_Expo, _Coeff]:
        """The terms as a new ``{exponent_tuple: coefficient}`` dict."""
        d = self.d
        return {_unpack(d, e): c for e, c in self._packed.items()}

    @property
    def is_zero(self) -> bool:
        return not self._packed

    def degree(self) -> int:
        d = self.d
        return max((sum(_unpack(d, e)) for e in self._packed), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyField):
            return NotImplemented
        return self.d == other.d and self._packed == other._packed

    def __add__(self, other: "PolyField") -> "PolyField":
        d = self.d
        if d != other.d:
            raise ValueError("variable count mismatch")
        out = dict(self._packed)
        for e, c in other._packed.items():
            out[e] = out.get(e, 0) + c
        return _make(d, out)

    def __neg__(self) -> "PolyField":
        return _make(self.d, {e: -c for e, c in self._packed.items()})

    def __sub__(self, other: "PolyField") -> "PolyField":
        d = self.d
        if d != other.d:
            raise ValueError("variable count mismatch")
        out = dict(self._packed)
        for e, c in other._packed.items():
            out[e] = out.get(e, 0) - c
        return _make(d, out)

    def __mul__(self, other: "PolyField") -> "PolyField":
        d = self.d
        if d != other.d:
            raise ValueError("variable count mismatch")
        out: dict[int, _Coeff] = {}
        pairs = other._packed.items()
        for e1, c1 in self._packed.items():
            for e2, c2 in pairs:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        if reduce(or_, out, 0) & _guard(d):
            _refuse_overflow(d, out)
        return _make(d, out)

    def scale(self, c: Fraction | int) -> "PolyField":
        c = _exact(c)
        return _make(self.d, {e: c * v for e, v in self._packed.items()})

    def diff(self, axis: int) -> "PolyField":
        """Exact partial derivative in variable ``axis``."""
        if not 0 <= axis < self.d:
            raise ValueError("axis out of range")
        shift = FIELD_BITS * (self.d - 1 - axis)
        unit = 1 << shift
        return _make(self.d, {
            e - unit: c * k
            for e, c in self._packed.items()
            if (k := (e >> shift) & _FIELD_MASK)
        })

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
        if not self._packed:
            return "PolyField(0)"
        parts = []
        for key, c in sorted(self._packed.items()):
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(_unpack(self.d, key)) if k)
            parts.append(f"{c}{'*' + mono if mono else ''}")
        return "PolyField(" + " + ".join(parts) + ")"


# Slot setters: the only writes to a PolyField, made once, as it is built.
_new = object.__new__
_set_d = PolyField.d.__set__
_set_packed = PolyField._packed.__set__


def _make(d: int, packed: dict[int, _Coeff]) -> PolyField:
    """A :class:`PolyField` over an already packed term map, zeros dropped."""
    if 0 in packed.values():
        packed = {e: c for e, c in packed.items() if c != 0}
    p = _new(PolyField)
    _set_d(p, d)
    _set_packed(p, packed)
    return p


def _refuse_overflow(d: int, out: dict[int, _Coeff]) -> None:
    """Raise for the first product exponent that set a guard bit."""
    for key in out:
        for i, k in enumerate(_unpack(d, key)):
            if k > MAX_EXPONENT:
                raise ValueError(
                    f"product exponent {k} of x{i} exceeds the packed field "
                    f"maximum {MAX_EXPONENT}")


def poly_zero(d: int) -> PolyField:
    return _make(d, {})


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
    :class:`PolyField` polynomials, numbers, or sample arrays, for example
    views of the one stack the pointwise determinant routes build.
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
