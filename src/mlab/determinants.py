"""Jacobian and Hessian determinants three ways, plus exact identity checks.

Numeric routes: the pointwise route samples the spectral derivatives of
the matrix entries on a ``d``-fold padded grid, all of them as one stack
from one ``grid.apply_multipliers`` call, and takes determinants sample by
sample on views of that stack; the
multiplier route applies the alternating symbol ``det`` (or its square) and
multiplies by the constant ``i^d`` (``i^{2d} / d!``).  Both are exact for trigonometric
polynomials that fit the padding, so they must agree to rounding.

Symbolic routes: the divergence-form identities behind the distributional
determinants are verified as exact polynomial cancellations over the
rationals.  A residual is either the zero polynomial or the check fails.
Identities in polynomial inputs run on seeded random polynomials; those in
free vectors (the ``det P_tau`` factorization for every permutation, and
its average) run once on formal variables, which settles every vector.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from .grid import (
    Field,
    Spectrum,
    apply_multipliers,
    as_spectrum,
    common_grid,
    derivative_multiplier,
    padded_points,
)
from .operators import OperatorSpec, apply_direct
from .polyfield import PolyField, perm_sign, poly_const, poly_det, poly_var, poly_zero
from .symbols import det_symbol, power_symbol

__all__ = [
    "DetReport",
    "jacobian_det_pointwise",
    "hessian_det_pointwise",
    "jacobian_det_fourier",
    "hessian_det_fourier",
    "jacobian_matrix",
    "cofactor_matrix",
    "second_cofactor",
    "symbolic_piola_check",
    "symbolic_hessian2d_check",
    "symbolic_detPtau_check",
    "symbolic_detPtau_average_check",
    "symbolic_baer_jerison_check",
    "random_poly",
    "run_identity_suite",
]


@dataclass(frozen=True)
class DetReport:
    """Outcome of one identity check (or one randomized batch of it)."""

    identity: str
    d: int
    degree: int
    passed: bool
    residual: str

    def to_dict(self) -> dict:
        return asdict(self)


def _report(identity: str, d: int, degree: int, residuals: list[PolyField]) -> DetReport:
    worst = Fraction(0)
    for r in residuals:
        for c in r._packed.values():
            if abs(c) > worst:
                worst = abs(c)
    passed = all(r.is_zero for r in residuals)
    return DetReport(identity, d, degree, passed, str(worst))


# ---------------------------------------------------------------------------
# numeric routes


def _det_points(n: int, d: int, n_out: int | None) -> int:
    """The determinant's grid: ``n_out``, by default ``n`` padded by ``d``.

    An ``n_out`` below ``n`` would truncate the entries, so it is refused.
    """
    if n_out is None:
        return padded_points(n, d)
    if n_out < n:
        raise ValueError(f"determinant grid {n_out} is coarser than the input grid {n}")
    return n_out


def jacobian_det_pointwise(us: list[Field | Spectrum], n_out: int | None = None) -> Field:
    """``det`` of the matrix ``[d u_i / d x_j]`` sampled on an ``n_out`` grid.

    Each component is a field or its spectrum; a field costs one forward
    transform (``grid.as_spectrum``).  The ``d^2`` entries, each a spectrum
    times a first-order :func:`derivative_multiplier`, are inverted on the
    ``n_out`` grid as one stack by one :func:`apply_multipliers` call, and
    the determinant is the cofactor expansion :func:`poly_det` over views
    of that stack.

    ``n_out`` defaults to the grid padded by ``d``, on which every mode of
    the determinant is alias free.  A caller that reads only the modes
    ``|eta_a| <= b`` may pass any ``n_out >= b + d n/2``.  Every term of
    the determinant is a product of ``d`` entries that differentiates along
    each axis ``a``, and that entry's multiplier zeroes the Nyquist row
    ``xi_a = -n/2``, so the term's modes have ``-d n/2 < xi_a <= d (n/2 -
    1)``.  No alias ``eta + k n_out`` (``k != 0``) of a read mode lies in
    that range, so the read coefficients are exact to rounding.
    """
    grid = common_grid(us)
    d = grid.d
    if len(us) != d:
        raise ValueError(f"need {d} components, got {len(us)}")
    n_out = _det_points(grid.n, d, n_out)
    mults = [derivative_multiplier(grid, tuple(int(a == j) for a in range(d)))
             for j in range(d)]
    specs = [as_spectrum(u) for u in us]
    stack = apply_multipliers([(spec, m) for spec in specs for m in mults], n_out)
    entries = [[stack[i * d + j] for j in range(d)] for i in range(d)]
    return Field(grid.with_n(n_out), poly_det(entries))


def hessian_det_pointwise(u: Field | Spectrum, n_out: int | None = None) -> Field:
    """``det`` of the spectral Hessian of ``u``, a field or its spectrum,
    sampled on an ``n_out`` grid.

    Only the ``d (d + 1) / 2`` entries with ``i <= j`` are transformed,
    one stack of multipliers of ``d^alpha``, ``alpha = e_i + e_j``, from one
    :func:`apply_multipliers` call; ``H_ji`` is the view ``H_ij``.
    ``n_out`` defaults to the grid padded by ``d``; as for
    :func:`jacobian_det_pointwise`, the modes ``|eta_a| <= b`` are exact on
    any ``n_out >= b + d n/2``, since every term ``prod_i H_{i sigma(i)}``
    differentiates along each axis.
    """
    d = u.grid.d
    n_out = _det_points(u.grid.n, d, n_out)
    spec = as_spectrum(u)
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    alphas = [tuple(int(a == i) + int(a == j) for a in range(d)) for i, j in pairs]
    stack = apply_multipliers([(spec, derivative_multiplier(u.grid, alpha))
                               for alpha in alphas], n_out)
    H = [[None] * d for _ in range(d)]
    for k, (i, j) in enumerate(pairs):
        H[i][j] = H[j][i] = stack[k]
    return Field(u.grid.with_n(n_out), poly_det(H))


def jacobian_det_fourier(us: list[Field]) -> Field:
    """Jacobian determinant through the alternating multiplier.

    ``det grad u = i^d T_det(u_1, ..., u_d)`` where ``T_det`` carries the
    symbol ``det(xi_1, ..., xi_d)``.  The constant is frozen by calibration
    on single-mode inputs and covered by the route-agreement tests.
    """
    grid = common_grid(us)
    d = grid.d
    if d < 2:
        raise ValueError("needs dimension >= 2")
    if len(us) != d:
        raise ValueError(f"need {d} components, got {len(us)}")
    op = OperatorSpec(det_symbol(d), d)
    T = apply_direct(op, us)
    return Field(T.grid, 1j**d * T.samples)


def hessian_det_fourier(u: Field) -> Field:
    """Hessian determinant through the squared alternating multiplier.

    ``det grad^2 u = i^{2d} / d! T_{det^2}(u, ..., u)``:
    symmetrizing the permutation expansion of the Hessian determinant over
    the orderings of the ``d`` identical inputs turns the mixed product of
    frequency components into ``det(xi_1, ..., xi_d)^2 / d!``.
    """
    d = u.grid.d
    if d < 2:
        raise ValueError("needs dimension >= 2")
    op = OperatorSpec(power_symbol(det_symbol(d), 2), d)
    T = apply_direct(op, [u] * d)
    return Field(T.grid, 1j ** (2 * d) / math.factorial(d) * T.samples)


# ---------------------------------------------------------------------------
# exact symbolic checks


def jacobian_matrix(us: list[PolyField]) -> list[list[PolyField]]:
    """``J[i][j] = d u_i / d x_j`` as exact polynomials."""
    d = us[0].d
    if len(us) != d:
        raise ValueError("component count must match variable count")
    return [[u.diff(j) for j in range(d)] for u in us]


def _minor(mat: list[list[PolyField]], drop_rows: set[int], drop_cols: set[int]) -> PolyField:
    d = len(mat)
    rows = [r for r in range(d) if r not in drop_rows]
    cols = [c for c in range(d) if c not in drop_cols]
    if not rows:
        return poly_const(mat[0][0].d, 1)
    return poly_det([[mat[r][c] for c in cols] for r in rows])


def cofactor_matrix(mat: list[list[PolyField]]) -> list[list[PolyField]]:
    """``cof[i][j] = (-1)^(i+j)`` times the minor deleting row i, column j."""
    d = len(mat)
    return [[_signed(_minor(mat, {i}, {j}), i + j) for j in range(d)] for i in range(d)]


def _signed(p: PolyField, power: int) -> PolyField:
    """``(-1)^power p``."""
    return -p if power % 2 else p


def second_cofactor(
    H: list[list[PolyField]], i: int, j: int, k: int, l: int
) -> PolyField:
    """Second cofactor ``C_ij^kl`` of a matrix of polynomials.

    Defined as minus the second partial of ``det`` in the entries,
    ``C_ij^kl = - d^2 det(H) / dH_ij dH_kl``, which is the signed minor
    deleting rows ``{i, k}`` and columns ``{j, l}``; zero when ``i = k`` or
    ``j = l``.  This sign normalization is the one under which the
    ``d (d-1)`` divergence form below holds with positive left side.
    """
    nvars = H[0][0].d
    if i == k or j == l:
        return poly_zero(nvars)
    kp = k - 1 if k > i else k
    lp = l - 1 if l > j else l
    return _signed(_minor(H, {i, k}, {j, l}), i + j + kp + lp + 1)


def symbolic_piola_check(d: int, us: list[PolyField]) -> DetReport:
    """Cofactor divergence identity and the row expansion it implies.

    With ``C_ij`` the ``(j, i)`` cofactor of the Jacobian, each column is
    divergence free, ``sum_i d_i C_ij = 0``, and consequently
    ``det(grad u) = sum_i d_i (u_j C_ij)`` for every ``j``.  Both families
    are checked as exact polynomial identities.
    """
    if not 2 <= d <= 4:
        raise ValueError("supported dimensions are 2..4")
    J = jacobian_matrix(us)
    cof = cofactor_matrix(J)
    detJ = poly_det(J)
    residuals = []
    for j in range(d):
        div = poly_zero(d)
        expansion = poly_zero(d)
        for i in range(d):
            c_ij = cof[j][i]
            div = div + c_ij.diff(i)
            expansion = expansion + (us[j] * c_ij).diff(i)
        residuals.append(div)
        residuals.append(detJ - expansion)
    degree = max(u.degree() for u in us)
    return _report("piola", d, degree, residuals)


def symbolic_hessian2d_check(u: PolyField) -> DetReport:
    """Planar double-divergence form of the Hessian determinant.

    ``2 det(grad^2 u) = 2 d_12(d_1 u d_2 u) - d_11((d_2 u)^2)
    - d_22((d_1 u)^2)`` as an exact polynomial identity.
    """
    if u.d != 2:
        raise ValueError("planar identity needs two variables")
    u1, u2 = u.diff(0), u.diff(1)
    H = [[u.diff(i).diff(j) for j in range(2)] for i in range(2)]
    lhs = poly_det(H).scale(2)
    rhs = (
        (u1 * u2).diff(0).diff(1).scale(2)
        - (u2 * u2).diff(0).diff(0)
        - (u1 * u1).diff(1).diff(1)
    )
    return _report("hessian-2d", 2, u.degree(), [lhs - rhs])


def _formal_vectors(d: int) -> list[list[PolyField]]:
    """``d`` formal vectors: entry ``r`` of ``nu_i`` is the ``(i d + r)``-th
    of ``d^2`` variables, so an identity on them holds for every choice of
    vectors at once."""
    return [[poly_var(d * d, i * d + r) for r in range(d)] for i in range(d)]


def _permuted_columns(
    vecs: list[list[PolyField]], tau: tuple[int, ...]
) -> list[list[PolyField]]:
    """``P_tau``, whose column ``i`` is ``nu_{tau(i), i} nu_{tau(i)}``."""
    d = len(vecs)
    return [[vecs[tau[i]][i] * vecs[tau[i]][r] for i in range(d)] for r in range(d)]


def symbolic_detPtau_check(d: int) -> DetReport:
    """Factorization of the permuted rank-one column matrix, every ``tau``.

    ``P_tau`` has columns ``nu_{tau(i), i} nu_{tau(i)}``; the check is
    ``det P_tau = sign(tau) (prod_i nu_{tau(i), i}) det(nu_1, ..., nu_d)``
    exactly over the rationals, for every permutation ``tau`` of
    ``0..d-1``, on formal vectors: one call settles the identity for every
    choice of vectors.
    """
    if not 2 <= d <= 5:
        raise ValueError("supported dimensions are 2..5")
    vecs = _formal_vectors(d)
    det_nu = poly_det(vecs)  # rows nu_i: the transpose of the columns nu_i
    residuals = []
    for tau in permutations(range(d)):
        rhs = poly_const(d * d, perm_sign(tau))
        for i in range(d):
            rhs = rhs * vecs[tau[i]][i]
        residuals.append(poly_det(_permuted_columns(vecs, tau)) - rhs * det_nu)
    return _report("det-P-tau", d, 2 * d, residuals)


def symbolic_detPtau_average_check(d: int) -> DetReport:
    """Sum of ``det P_tau`` over all permutations equals ``det(nu)^2``.

    This is the exact algebraic content behind the squared determinant
    symbol of the Hessian multiplier, checked on formal variables.
    """
    if not 2 <= d <= 4:
        raise ValueError("supported dimensions are 2..4")
    vecs = _formal_vectors(d)
    total = poly_zero(d * d)
    for tau in permutations(range(d)):
        total = total + poly_det(_permuted_columns(vecs, tau))
    det_nu = poly_det(vecs)
    return _report("det-P-tau-average", d, 2 * d, [total - det_nu * det_nu])


def symbolic_baer_jerison_check(d: int, u: PolyField) -> DetReport:
    """Permutation-sum and second-cofactor forms of the Hessian determinant.

    Two exact checks on one input:

    1. the double permutation sum over ``sgn(sigma) sgn(tau)
       d^2_{sigma(2) tau(2)} [d_{sigma(1)} u d_{tau(1)} u
       prod_{j >= 3} d^2_{sigma(j) tau(j)} u]`` equals ``-d! det(grad^2 u)``
       (the overall sign is calibrated in d = 2 and held fixed);
    2. ``d (d-1) det(grad^2 u) = sum_{i,j} d^2_{ij} [sum_{k != i, l != j}
       d_k u d_l u C_ij^kl]`` with the second cofactors of ``grad^2 u``.

    The index symmetries of ``C_ij^kl`` hold for every symmetric matrix, so
    :func:`run_identity_suite` checks them once per ``d`` on a formal one
    (:func:`_second_cofactor_symmetries`) instead of on every input.
    """
    if not 2 <= d <= 3:
        raise ValueError("supported dimensions are 2..3 (permutation cost)")
    if u.d != d:
        raise ValueError("variable count must match dimension")
    grads = [u.diff(i) for i in range(d)]
    H = [[grads[i].diff(j) for j in range(d)] for i in range(d)]
    detH = poly_det(H)
    G = [[grads[k] * grads[l] for l in range(d)] for k in range(d)]
    residuals = []

    # The brackets are summed by their outer derivative d^2_{sigma(2) tau(2)}
    # first, which is linear, and each group is differentiated once.
    groups: dict[tuple[int, int], PolyField] = {}
    for sigma in permutations(range(d)):
        for tau in permutations(range(d)):
            inner = G[sigma[0]][tau[0]]
            for j in range(2, d):
                inner = inner * H[sigma[j]][tau[j]]
            key = (sigma[1], tau[1])
            acc = groups.get(key, poly_zero(d))
            groups[key] = acc + _signed(inner, perm_sign(sigma) != perm_sign(tau))
    perm_sum = poly_zero(d)
    for (a, b), acc in groups.items():
        perm_sum = perm_sum + acc.diff(a).diff(b)
    residuals.append(detH.scale(math.factorial(d)) + perm_sum)

    div_sum = poly_zero(d)
    for i in range(d):
        for j in range(d):
            inner = poly_zero(d)
            for k in range(d):
                if k == i:
                    continue
                for l in range(d):
                    if l == j:
                        continue
                    inner = inner + G[k][l] * second_cofactor(H, i, j, k, l)
            div_sum = div_sum + inner.diff(i).diff(j)
    residuals.append(detH.scale(d * (d - 1)) - div_sum)

    return _report("baer-jerison", d, u.degree(), residuals)


def _second_cofactor_symmetries(d: int) -> DetReport:
    """Index symmetries of the second cofactors of a formal symmetric matrix.

    ``H_ij = H_ji`` is the ``(i, j)``-th of ``d (d + 1) / 2`` variables.  The
    row swap ``C_ij^kl = -C_kj^il``, the column swap ``C_ij^kl = -C_il^kj``
    and the pair exchange ``C_ij^kl = C_kl^ij`` hold for every matrix, the
    transposition ``C_ij^kl = C_ji^lk`` for every symmetric one; on formal
    entries each is an exact identity for every Hessian at once.  The
    report's degree is that of the cofactors, ``d - 2``.
    """
    nvars = d * (d + 1) // 2
    H = [[None] * d for _ in range(d)]
    for v, (i, j) in enumerate((i, j) for i in range(d) for j in range(i, d)):
        H[i][j] = H[j][i] = poly_var(nvars, v)
    C = {ijkl: second_cofactor(H, *ijkl) for ijkl in product(range(d), repeat=4)}
    residuals = []
    for (i, j, k, l), c in C.items():
        residuals.append(c + C[k, j, i, l])
        residuals.append(c + C[i, l, k, j])
        residuals.append(c - C[j, i, l, k])
        residuals.append(c - C[k, l, i, j])
    return _report("baer-jerison", d, d - 2, residuals)


# ---------------------------------------------------------------------------
# randomized suite


def random_poly(
    d: int, degree: int, rng: random.Random, terms: int | None = None
) -> PolyField:
    """Random polynomial with small integer coefficients, degree <= degree."""
    count = terms if terms is not None else 2 * degree + 3
    out: dict[tuple[int, ...], int] = {}
    # ``randrange(n) + a`` draws what ``randint(a, a + n - 1)`` draws, one
    # call frame cheaper.
    for _ in range(count):
        left = degree
        expo = []
        for _ in range(d):
            k = rng.randrange(left + 1)
            expo.append(k)
            left -= k
        c = rng.randrange(19) - 9
        if c == 0:
            c = 1
        e = tuple(expo)
        out[e] = out.get(e, 0) + c
    return PolyField(d, out)


def run_identity_suite(instances: int = 20, seed: int = 0) -> list[DetReport]:
    """Every symbolic identity, one report per batch.

    The ``piola``, ``hessian-2d`` and ``baer-jerison`` batches each
    aggregate ``instances`` random polynomial inputs drawn from ``seed``.
    The identities polynomial in free vectors run once on formal vectors:
    ``det-P-tau`` over every permutation for d = 2, 3, 4 and its average
    for d = 2, 3.  A report passes only if every residual is the zero
    polynomial.  Each ``baer-jerison`` batch also holds the second-cofactor
    symmetries, checked once on a formal symmetric matrix of that ``d``.
    """
    if instances < 1:
        raise ValueError(f"need at least one instance per batch, got {instances}")
    rng = random.Random(seed)
    reports: list[DetReport] = []

    for d, degree in ((2, 3), (3, 2), (4, 2)):
        inputs = [[random_poly(d, degree, rng) for _ in range(d)] for _ in range(instances)]
        reports.append(_merge([symbolic_piola_check(d, us) for us in inputs]))

    inputs = [random_poly(2, 4, rng) for _ in range(instances)]
    reports.append(_merge([symbolic_hessian2d_check(u) for u in inputs]))

    for d in (2, 3, 4):
        reports.append(symbolic_detPtau_check(d))

    for d in (2, 3):
        reports.append(symbolic_detPtau_average_check(d))

    for d, degree in ((2, 3), (3, 2)):
        inputs = [random_poly(d, degree, rng) for _ in range(instances)]
        batch = [symbolic_baer_jerison_check(d, u) for u in inputs]
        reports.append(_merge(batch + [_second_cofactor_symmetries(d)]))

    return reports


def _merge(batch: list[DetReport]) -> DetReport:
    worst = max((Fraction(r.residual) for r in batch), default=Fraction(0))
    return DetReport(
        identity=batch[0].identity,
        d=batch[0].d,
        degree=max(r.degree for r in batch),
        passed=all(r.passed for r in batch),
        residual=str(worst),
    )
