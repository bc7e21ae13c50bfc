"""Dyadic partition of unity and separable symbol expansions."""

import math
import time

import numpy as np
import pytest

from mlab import (
    AnnulusGrid,
    BudgetExceededError,
    DyadicPartition,
    GridSpec,
    build_annulus_grid,
    dft_forward,
    evaluate,
    localize,
    normalized_power_symbol,
    det_symbol,
    one_symbol,
    partition_for_grid,
    product_symbol,
    psi_profile,
    resolve_symbol,
    riesz_factor,
    separable_expand,
    spectrum_from_modes,
)
from mlab.decomp import SeparableExpansion
from mlab.grid import dft_inverse

from conftest import phase_symbol, random_trig, rel_err


class TestProfiles:
    def test_psi_support_and_peak(self):
        r = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        vals = psi_profile(r)
        assert vals[0] == 0.0
        assert vals[2] == pytest.approx(1.0)
        assert vals[4] == 0.0

    def test_psi_zero_at_origin(self):
        assert psi_profile(np.array([0.0]))[0] == 0.0


class TestPartition:
    def test_telescoping_dense_sweep(self):
        part = DyadicPartition(-4, 10)
        r = np.geomspace(2.0**-4, 2.0**10, 10_000)
        dev = np.max(np.abs(part.partition_sum(r) - 1.0))
        assert dev <= 1e-12

    def test_covers_predicate(self):
        part = DyadicPartition(0, 3)
        assert part.covers([1.0, 8.0])
        assert not part.covers([0.5])
        assert not part.covers([9.0])
        assert part.covers([])

    def test_partition_for_grid_covers_lattice(self):
        for d, n in ((1, 16), (2, 16), (3, 8)):
            g = GridSpec(d=d, n=n)
            part = partition_for_grid(n, d)
            radii = g.freq_radius().reshape(-1)
            assert part.covers(radii[radii > 0.0])

    def test_bad_scale_order_rejected(self):
        with pytest.raises(ValueError):
            DyadicPartition(3, 1)


class TestLocalize:
    def test_reconstruction_of_mean_free_field(self):
        g = GridSpec(d=2, n=16)
        f, modes = random_trig(g, degree=6, seed=40)
        modes = dict(modes)
        modes[(0, 0)] = 0.0
        f = dft_inverse(spectrum_from_modes(g, modes))
        part = partition_for_grid(g.n, g.d)
        acc = np.zeros(g.shape, dtype=np.complex128)
        for j in part.scales:
            acc += localize(f, part, j).samples
        assert rel_err(acc, f.samples) <= 1e-10

    def test_reconstruction_drops_mean_mode(self):
        g = GridSpec(d=2, n=16)
        f, _ = random_trig(g, degree=6, seed=41)
        part = partition_for_grid(g.n, g.d)
        acc = np.zeros(g.shape, dtype=np.complex128)
        for j in part.scales:
            acc += localize(f, part, j).samples
        mean = complex(dft_forward(f).coeffs.reshape(-1)[0])
        assert rel_err(acc + mean, f.samples) <= 1e-10

    def test_single_scale_isolates_annulus(self):
        g = GridSpec(d=1, n=32)
        # |xi| = 2 sits at the peak of scale j = 1 and outside scales j >= 3.
        f = dft_inverse(spectrum_from_modes(g, {(2,): 1.0}))
        part = DyadicPartition(0, 4)
        kept = localize(f, part, 1)
        gone = localize(f, part, 3)
        assert rel_err(kept.samples, f.samples) <= 1e-12
        assert float(np.max(np.abs(gone.samples))) <= 1e-12


class TestAnnulusGrid:
    def test_nodes_are_unit_directions(self):
        doubled = separable_expand(resolve_symbol("det_norm:20", 2)).grid
        for grid in (build_annulus_grid(1), build_annulus_grid(2), doubled):
            r = np.linalg.norm(grid.points, axis=-1)
            assert np.all(np.abs(r - 1.0) <= 1e-15)


class TestSeparableExpansion:
    def test_constant_symbol_rank_one(self):
        exp = separable_expand(one_symbol(2, 2))
        # The angular coefficient tensor is zero but for its mean, 1, at
        # k = 0, so the single coefficient is 1.
        assert exp.rank == 1
        assert abs(exp.coeffs[0]) == pytest.approx(1.0, rel=1e-12)
        assert exp.residual <= 1e-12

    @pytest.mark.parametrize(
        "spec, d, rank",
        [
            # sin^b(theta_2 - theta_1) has angular modes |k| <= b of b's parity
            ("det_norm:1", 2, 2),
            ("det_norm:2", 2, 3),
            ("det_norm:3", 2, 4),
            ("dot_norm:1", 2, 2),
            # products of one-slot factors are rank one for any arity
            ("riesz_product:1,2", 2, 1),
            ("one", 2, 1),
            ("riesz_product:1,2,1", 2, 1),
            ("det_norm:1", 1, 1),
            ("riesz_product:1,1,1,1", 1, 1),
        ],
    )
    def test_rank_is_numerical_rank(self, spec, d, rank):
        exp = separable_expand(resolve_symbol(spec, d))
        assert exp.rank == rank
        assert exp.residual <= 1e-14

    @pytest.mark.parametrize(
        "spec, d, nodes",
        [
            ("det_norm:1", 2, 32),
            ("det_norm:2", 2, 32),
            ("det_norm:3", 2, 32),
            ("dot_norm:1", 2, 32),
            ("riesz_product:1,2", 2, 32),
            ("riesz_product:1,2,1", 2, 32),
            ("one", 2, 32),
            # sin^20 has angular modes up to 20, aliased at 32 nodes
            ("det_norm:20", 2, 64),
            # odd powers: mode 17 folds onto 15 at 32 nodes, seen only off
            # the nodes in one slot (a shift of both slots is a rotation)
            ("det_norm:17", 2, 64),
            ("dot_norm:17", 2, 64),
            # mode 16 sits on the Nyquist mode of 32 nodes
            ("det_norm:16", 2, 64),
            ("det_norm:1", 1, 2),
        ],
    )
    def test_node_count_is_derived(self, spec, d, nodes):
        exp = separable_expand(resolve_symbol(spec, d))
        assert exp.grid.n_points == nodes
        assert exp.residual <= nodes * np.finfo(np.float64).eps

    @pytest.mark.parametrize("spec", ["det_norm:0.5", "det_norm:1.5"])
    def test_non_smooth_symbol_raises(self, spec):
        # |sin|^beta with non-integer beta is not smooth where the directions
        # are parallel; its interpolation error falls only like n^-(beta+1),
        # so no node count reaches rounding and the expansion must refuse.
        started = time.perf_counter()
        with pytest.raises(ValueError, match=r"1024 angles: midpoint error \d\.\d{3}e-0[3-7]"):
            separable_expand(resolve_symbol(spec, 2))
        assert time.perf_counter() - started <= 1.0

    @pytest.mark.parametrize(
        "sym",
        [
            resolve_symbol("det_norm:17", 2),
            resolve_symbol("riesz_product:1,2,1", 2),
            resolve_symbol("riesz_product:1,1,1,1", 1),
            phase_symbol(2),
            phase_symbol(3),
        ],
        ids=lambda sym: sym.name,
    )
    def test_residual_bounds_the_factors_at_the_nodes(self, sym):
        # The model is rebuilt from ``factor_values`` at the nodes, the
        # route ``apply_separable`` takes, not from the stored tables.
        exp = separable_expand(sym)
        pts = exp.grid.points
        values = [exp.factor_values(j, pts) for j in range(exp.m)]
        model = 0.0
        for l in range(exp.rank):
            term = exp.coeffs[l]
            for v in values:
                term = np.multiply.outer(term, v[l])
            model = model + term
        n = exp.grid.n_points
        blocks = [
            pts.reshape((1,) * j + (n,) + (1,) * (exp.m - 1 - j) + (sym.d,))
            for j in range(exp.m)
        ]
        samples = evaluate(sym, blocks)
        err = float(np.linalg.norm(model - samples)) / float(np.linalg.norm(samples))
        assert exp.residual <= 1e-12
        assert err <= exp.residual + 1e-14

    def test_det_norm_spectrum_decay(self):
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        exp = separable_expand(sym)
        s = exp.spectrum
        assert s[31] <= 1e-6 * s[0]
        assert np.linalg.norm(s[16:]) <= 1e-6 * np.linalg.norm(s[1:])

    @pytest.mark.parametrize("beta, tol", [(1.0, 1e-12), (2.0, 1e-12), (3.0, 1e-12)])
    def test_det_norm_spectrum_is_circulant_dft(self, beta, tol):
        # det_norm:beta in d = 2 depends on theta_2 - theta_1 only, so its
        # node matrix is circulant and its angular coefficient matrix holds
        # the DFT of one row, over n, on the antidiagonal k_1 + k_2 = 0: the
        # singular values are those moduli, with no SVD involved.
        sym = normalized_power_symbol(det_symbol(2), beta)
        exp = separable_expand(sym)
        n = exp.grid.n_points
        theta = 2.0 * math.pi * np.arange(n) / n
        e1 = np.tile([1.0, 0.0], (n, 1))
        c = evaluate(sym, [e1, np.stack([np.cos(theta), np.sin(theta)], axis=-1)])
        want = np.sort(np.abs(np.fft.fft(c)))[::-1] / n
        assert float(np.max(np.abs(exp.spectrum - want))) <= tol * exp.spectrum[0]

    def test_det_norm_one_pinned(self):
        # sin(theta_2 - theta_1) has exactly two angular modes, each of
        # coefficient modulus 1/2.
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        started = time.perf_counter()
        exp = separable_expand(sym)
        elapsed = time.perf_counter() - started
        assert exp.spectrum[0] == pytest.approx(0.5, rel=1e-12)
        assert exp.spectrum[1] == pytest.approx(0.5, rel=1e-12)
        assert exp.residual <= 1e-12
        assert elapsed <= 0.1

    @pytest.mark.parametrize(
        "spec", ["det_norm:1", "det_norm:2", "det_norm:3", "dot_norm:1", "dot_norm:2"]
    )
    def test_spectrum_sums_to_the_angular_ceiling(self, spec):
        # A symbol h(theta_2 - theta_1) puts h's angular coefficients on the
        # antidiagonal of the coefficient matrix, so the spectrum is their
        # moduli and its sum is the (2, 2) -> 1 ceiling sum_k |h^(k)|, which
        # is 1 for these powers of sin and cos.
        exp = separable_expand(resolve_symbol(spec, 2))
        assert float(np.sum(exp.spectrum)) == pytest.approx(1.0, abs=1e-12)

    def test_trilinear_riesz_product_builds(self):
        sym = resolve_symbol("riesz_product:1,2,1", 2)
        exp = separable_expand(sym)
        assert exp.m == 3 and exp.grid.n_points == 32
        assert exp.residual <= 1e-12

    def test_arity_beyond_budget_rejected(self, monkeypatch):
        sym = resolve_symbol("riesz_product:1,2,1,2,1", 2)
        with pytest.raises(BudgetExceededError):
            separable_expand(sym)
        # The direction product is capped by the enumeration budget.
        monkeypatch.setenv("MLAB_BUDGET", "1000")
        with pytest.raises(BudgetExceededError, match="32\\^2 nodes exceeds budget 1000"):
            separable_expand(resolve_symbol("riesz_product:1,2", 2))

    def test_residual_nonincreasing_in_rank(self):
        sym = normalized_power_symbol(det_symbol(2), 1.0)
        exp = separable_expand(sym)
        s = exp.spectrum
        assert all(a >= b - 1e-15 * s[0] for a, b in zip(s[:16], s[1:17]))

    def test_rank_one_product_expands_exactly(self):
        sym = product_symbol([riesz_factor(2, 0), riesz_factor(2, 1)])
        exp = separable_expand(sym)
        assert exp.residual <= 1e-12
        assert exp.spectrum[1] <= 1e-12 * exp.spectrum[0]

    def test_rejects_non_homogeneous(self):
        from mlab import power_symbol

        with pytest.raises(ValueError):
            separable_expand(power_symbol(det_symbol(2), 1))


def _laurent_expansion(grid: AnnulusGrid, rows: list[np.ndarray]) -> SeparableExpansion:
    """An expansion whose slot-``j`` factors are the Laurent rows ``rows[j]``."""
    rank = rows[0].shape[0]
    return SeparableExpansion(m=len(rows), d=grid.points.shape[1], grid=grid,
                              coeffs=np.ones(rank), factors=tuple(rows), residual=0.0,
                              spectrum=np.ones(rank))


def _random_rows(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestFactorValues:
    @pytest.mark.parametrize("nodes, tol", [(32, 1e-14), (1024, 1e-12)])
    def test_powers_of_the_direction_match_the_angle_formula(self, nodes, tol):
        # Random complex Laurent rows weight every power z^k, |k| <= n/2; the
        # points cover every lattice direction of a 32-point grid, the four
        # axis directions and theta = pi among them.
        rng = np.random.default_rng(nodes)
        rows = [_random_rows(rng, (3, nodes + 1)) for _ in range(2)]
        theta = 2.0 * math.pi * np.arange(nodes) / nodes
        grid = AnnulusGrid(points=np.stack([np.cos(theta), np.sin(theta)], axis=-1))
        exp = _laurent_expansion(grid, rows)
        f = np.arange(-16, 16)
        pts = np.stack(np.meshgrid(f, f, indexing="ij"), axis=-1).reshape(-1, 2)
        pts = np.concatenate([pts[np.any(pts != 0, axis=1)], [[-3, 0], [0, -7]]])
        k = np.arange(-(nodes // 2), nodes // 2 + 1)
        basis = np.exp(1j * np.outer(k, np.arctan2(pts[:, 1], pts[:, 0])))
        for slot, a in enumerate(rows):
            got = exp.factor_values(slot, pts)
            want = a @ basis
            assert got.shape == (3, pts.shape[0])
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    def test_signs_are_the_square_roots_of_unity(self):
        # d = 1 takes the same path: z = xi_1 / |xi_1| = +-1, the n = 2
        # roots of unity, so F(+-1) = a_0 +- (a_1 + a_-1).
        rows = _random_rows(np.random.default_rng(2), (3, 3))
        exp = _laurent_expansion(build_annulus_grid(1), [rows])
        pts = np.array([[3.0], [-1.0], [1.0], [-7.0]])
        got = exp.factor_values(0, pts)
        want = rows[:, 1, None] + (rows[:, 0, None] + rows[:, 2, None]) * np.sign(pts[:, 0])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_zero_point_rejected(self):
        exp = separable_expand(resolve_symbol("det_norm:1", 2))
        with pytest.raises(ValueError, match="nonzero"):
            exp.factor_values(0, np.array([[1.0, 2.0], [0.0, 0.0]]))
