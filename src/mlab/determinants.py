"""Jacobian and Hessian determinants three ways, plus exact identity checks.

Numeric routes: the pointwise route samples spectral derivatives on a
``d``-fold padded grid and takes determinants sample by sample; the
multiplier route applies the alternating symbol ``det`` (or its square) and
rescales by a frozen convention constant.  Both are exact for trigonometric
polynomials that fit the padding, so they must agree to rounding.

Symbolic routes: the divergence-form identities behind the distributional
determinants are verified as exact polynomial cancellations over the
rationals.  A residual is either the zero polynomial or the check fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .grid import Field, common_grid, padded_points, regrid_field, spectral_derivative
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
        return {
            "identity": self.identity,
            "d": self.d,
            "degree": self.degree,
            "passed": self.passed,
            "residual": self.residual,
        }


def _report(identity: str, d: int, degree: int, residuals: list[PolyField]) -> DetReport:
    worst = Fraction(0)
    for r in residuals:
        for c in r.terms.values():
            if abs(c) > worst:
                worst = abs(c)
    passed = all(r.is_zero for r in residuals)
    return DetReport(identity, d, degree, passed, str(worst))


# ---------------------------------------------------------------------------
# numeric routes


def jacobian_det_pointwise(us: list[Field]) -> Field:
    """``det`` of the matrix ``[d u_i / d x_j]`` sampled on the grid padded by ``d``."""
    grid = common_grid(us)
    d = grid.d
    if len(us) != d:
        raise ValueError(f"need {d} components, got {len(us)}")
    n_out = padded_points(grid.n, d)
    rows = []
    for u in us:
        rows.append(
            [regrid_field(spectral_derivative(u, j), n_out).samples for j in range(d)]
        )
    mat = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    return Field(grid.with_n(n_out), np.linalg.det(mat))


def hessian_det_pointwise(u: Field) -> Field:
    """``det`` of the spectral Hessian of ``u`` sampled on the grid padded by ``d``."""
    d = u.grid.d
    n_out = padded_points(u.grid.n, d)
    firsts = [spectral_derivative(u, i) for i in range(d)]
    rows = []
    for i in range(d):
        rows.append(
            [
                regrid_field(spectral_derivative(firsts[i], j), n_out).samples
                for j in range(d)
            ]
        )
    mat = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    return Field(u.grid.with_n(n_out), np.linalg.det(mat))


def jacobian_det_fourier(us: list[Field]) -> Field:
    """Jacobian determinant through the alternating multiplier.

    ``det grad u = (i 2 pi / period)^d T_det(u_1, ..., u_d)`` where ``T_det``
    carries the symbol ``det(xi_1, ..., xi_d)``.  The constant is frozen by
    calibration on single-mode inputs and covered by the route-agreement
    tests.
    """
    grid = common_grid(us)
    d = grid.d
    if d < 2:
        raise ValueError("needs dimension >= 2")
    if len(us) != d:
        raise ValueError(f"need {d} components, got {len(us)}")
    op = OperatorSpec(det_symbol(d), d)
    T = apply_direct(op, us)
    c = (1j * grid.kscale) ** d
    return Field(T.grid, c * T.samples)


def hessian_det_fourier(u: Field) -> Field:
    """Hessian determinant through the squared alternating multiplier.

    ``det grad^2 u = (i 2 pi / period)^{2d} / d! T_{det^2}(u, ..., u)``:
    symmetrizing the permutation expansion of the Hessian determinant over
    the orderings of the ``d`` identical inputs turns the mixed product of
    frequency components into ``det(xi_1, ..., xi_d)^2 / d!``.
    """
    d = u.grid.d
    if d < 2:
        raise ValueError("needs dimension >= 2")
    op = OperatorSpec(power_symbol(det_symbol(d), 2), d)
    T = apply_direct(op, [u] * d)
    c = (1j * u.grid.kscale) ** (2 * d) / math.factorial(d)
    return Field(T.grid, c * T.samples)


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
    return [
        [_minor(mat, {i}, {j}).scale((-1) ** (i + j)) for j in range(d)]
        for i in range(d)
    ]


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
    sign = (-1) ** (i + j + kp + lp)
    return _minor(H, {i, k}, {j, l}).scale(-sign)


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


def _nu_polys(
    d: int, nus: list[list[Fraction | int]] | None
) -> tuple[int, list[list[PolyField]]]:
    """Vectors as polynomials: constants if given, formal variables if not."""
    if nus is None:
        nvars = d * d
        vecs = [[poly_var(nvars, i * d + r) for r in range(d)] for i in range(d)]
    else:
        if len(nus) != d or any(len(v) != d for v in nus):
            raise ValueError("need d vectors of length d")
        nvars = 1
        vecs = [[poly_const(nvars, Fraction(x)) for x in v] for v in nus]
    return nvars, vecs


def symbolic_detPtau_check(
    d: int,
    tau: tuple[int, ...],
    nus: list[list[Fraction | int]] | None = None,
) -> DetReport:
    """Factorization of the permuted rank-one column matrix.

    ``P_tau`` has columns ``nu_{tau(i), i} nu_{tau(i)}``; the check is
    ``det P_tau = sign(tau) (prod_i nu_{tau(i), i}) det(nu_1, ..., nu_d)``
    exactly over the rationals.  ``nus = None`` runs the identity on formal
    variables, settling it for every choice of vectors at once.
    """
    if not 2 <= d <= 5:
        raise ValueError("supported dimensions are 2..5")
    if sorted(tau) != list(range(d)):
        raise ValueError("tau must be a permutation of 0..d-1")
    nvars, vecs = _nu_polys(d, nus)
    P = [[vecs[tau[i]][i] * vecs[tau[i]][r] for i in range(d)] for r in range(d)]
    V = [[vecs[i][r] for i in range(d)] for r in range(d)]
    rhs = poly_const(nvars, perm_sign(tau))
    for i in range(d):
        rhs = rhs * vecs[tau[i]][i]
    rhs = rhs * poly_det(V)
    degree = 0 if nus is not None else 2 * d
    return _report("det-P-tau", d, degree, [poly_det(P) - rhs])


def symbolic_detPtau_average_check(d: int) -> DetReport:
    """Sum of ``det P_tau`` over all permutations equals ``det(nu)^2``.

    This is the exact algebraic content behind the squared determinant
    symbol of the Hessian multiplier, checked on formal variables.
    """
    if not 2 <= d <= 4:
        raise ValueError("supported dimensions are 2..4")
    nvars, vecs = _nu_polys(d, None)
    V = [[vecs[i][r] for i in range(d)] for r in range(d)]
    total = poly_zero(nvars)
    for tau in permutations(range(d)):
        P = [[vecs[tau[i]][i] * vecs[tau[i]][r] for i in range(d)] for r in range(d)]
        total = total + poly_det(P)
    detV = poly_det(V)
    return _report("det-P-tau-average", d, 2 * d, [total - detV * detV])


def symbolic_baer_jerison_check(d: int, u: PolyField) -> DetReport:
    """Permutation-sum and second-cofactor forms of the Hessian determinant.

    Three exact checks on one input:

    1. the double permutation sum over ``sgn(sigma) sgn(tau)
       d^2_{sigma(2) tau(2)} [d_{sigma(1)} u d_{tau(1)} u
       prod_{j >= 3} d^2_{sigma(j) tau(j)} u]`` equals ``-d! det(grad^2 u)``
       (the overall sign is calibrated in d = 2 and held fixed);
    2. ``d (d-1) det(grad^2 u) = sum_{i,j} d^2_{ij} [sum_{k != i, l != j}
       d_k u d_l u C_ij^kl]`` with the second cofactors of ``grad^2 u``;
    3. the symmetries ``C_ij^kl = -C_kj^il = -C_il^kj = C_ji^lk``, plus the
       mixed-partial symmetry ``C_ij^kl = C_kl^ij``.
    """
    if not 2 <= d <= 3:
        raise ValueError("supported dimensions are 2..3 (permutation cost)")
    if u.d != d:
        raise ValueError("variable count must match dimension")
    grads = [u.diff(i) for i in range(d)]
    H = [[grads[i].diff(j) for j in range(d)] for i in range(d)]
    detH = poly_det(H)
    residuals = []

    perm_sum = poly_zero(d)
    for sigma in permutations(range(d)):
        for tau in permutations(range(d)):
            inner = grads[sigma[0]] * grads[tau[0]]
            for j in range(2, d):
                inner = inner * H[sigma[j]][tau[j]]
            term = inner.diff(sigma[1]).diff(tau[1])
            perm_sum = perm_sum + term.scale(perm_sign(sigma) * perm_sign(tau))
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
                    inner = inner + grads[k] * grads[l] * second_cofactor(H, i, j, k, l)
            div_sum = div_sum + inner.diff(i).diff(j)
    residuals.append(detH.scale(d * (d - 1)) - div_sum)

    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    c = second_cofactor(H, i, j, k, l)
                    residuals.append(c + second_cofactor(H, k, j, i, l))
                    residuals.append(c + second_cofactor(H, i, l, k, j))
                    residuals.append(c - second_cofactor(H, j, i, l, k))
                    residuals.append(c - second_cofactor(H, k, l, i, j))

    return _report("baer-jerison", d, u.degree(), residuals)


# ---------------------------------------------------------------------------
# randomized suite


def random_poly(
    d: int, degree: int, rng: random.Random, terms: int | None = None
) -> PolyField:
    """Random polynomial with small integer coefficients, degree <= degree."""
    count = terms if terms is not None else 2 * degree + 3
    out: dict[tuple[int, ...], Fraction] = {}
    for _ in range(count):
        left = degree
        expo = []
        for _ in range(d):
            k = rng.randint(0, left)
            expo.append(k)
            left -= k
        c = rng.randint(-9, 9)
        if c == 0:
            c = 1
        e = tuple(expo)
        out[e] = out.get(e, Fraction(0)) + Fraction(c)
    return PolyField(d, out)


def run_identity_suite(instances: int = 20, seed: int = 0) -> list[DetReport]:
    """Randomized batches of every symbolic identity; one report per batch.

    Each report aggregates ``instances`` random inputs (plus a formal
    variable run where the identity is polynomial in free vectors); it
    passes only if every residual is the zero polynomial.
    """
    rng = random.Random(seed)
    reports: list[DetReport] = []

    for d, degree in ((2, 3), (3, 2), (4, 2)):
        batch = []
        for _ in range(instances):
            us = [random_poly(d, degree, rng) for _ in range(d)]
            batch.append(symbolic_piola_check(d, us))
        reports.append(_merge(batch))

    batch = [
        symbolic_hessian2d_check(random_poly(2, 4, rng)) for _ in range(instances)
    ]
    reports.append(_merge(batch))

    for d in (2, 3, 4):
        batch = []
        taus = list(permutations(range(d)))
        for _ in range(instances):
            tau = taus[rng.randrange(len(taus))]
            nus = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
            batch.append(symbolic_detPtau_check(d, tau, nus))
        for tau in taus if d <= 3 else taus[:6]:
            batch.append(symbolic_detPtau_check(d, tau, None))
        reports.append(_merge(batch))

    for d in (2, 3):
        reports.append(symbolic_detPtau_average_check(d))

    for d, degree in ((2, 3), (3, 2)):
        batch = []
        for _ in range(instances):
            batch.append(symbolic_baer_jerison_check(d, random_poly(d, degree, rng)))
        reports.append(_merge(batch))

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
