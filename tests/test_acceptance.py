"""Acceptance suite: one test and one printed verdict line per criterion.

Each criterion is checked at its stated tolerance; runtime ceilings are part
of the criterion and asserted alongside the numbers.
"""

import time

import numpy as np

from mlab import (
    ExperimentConfig,
    GridSpec,
    OperatorSpec,
    Separable,
    apply_direct,
    apply_separable,
    bessel_norm,
    boundedness_scan,
    dealiased_product,
    det_symbol,
    dft_forward,
    hessian_det_fourier,
    hessian_det_pointwise,
    hessian_estimate,
    jacobian_det_fourier,
    jacobian_det_pointwise,
    jacobian_estimate,
    localize,
    lp_norm,
    one_symbol,
    pair,
    pair_with_transfer,
    partition_for_grid,
    power_symbol,
    resolve_symbol,
    run_identity_suite,
    separable_expand,
    spectral_derivative,
)
from mlab.grid import TWO_PI, Field, regrid_field

from conftest import random_trig, rel_l2, unit


def _verdict(ok: bool, label: str) -> None:
    print(("PASS " if ok else "FAIL ") + label, flush=True)
    assert ok, label


def test_c01_convention_anchor():
    started = time.perf_counter()
    worst = 0.0
    for d, deg in ((1, 5), (2, 2)):
        g = GridSpec(d=d, n=16)
        for m in (2, 3):
            fs = [
                random_trig(g, degree=deg, seed=1000 + 10 * d + m + i)[0]
                for i in range(m)
            ]
            got = apply_direct(OperatorSpec(one_symbol(m, d), m), fs)
            want = dealiased_product(fs, pad_factor=m)
            worst = max(worst, rel_l2(regrid_field(got, g.n).samples, want.samples))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed <= 10.0
    _verdict(
        ok,
        f"criterion 1 (convention anchor, symbol one = product): "
        f"worst rel err {worst:.3e} <= 1e-12, {elapsed:.1f}s <= 10s",
    )


def test_c02_separable_vs_direct():
    started = time.perf_counter()
    g = GridSpec(d=2, n=16)
    f1, _ = random_trig(g, degree=3, seed=1010)
    f2, _ = random_trig(g, degree=3, seed=1011)

    sym = resolve_symbol("det_norm:1", 2, m=2)
    exp = separable_expand(sym)
    sep = apply_separable(OperatorSpec(sym, 2, strategy=Separable(exp)), [f1, f2])
    direct = apply_direct(OperatorSpec(sym, 2), [f1, f2])
    err_det = rel_l2(sep.samples, direct.samples)

    rsym = resolve_symbol("riesz_product:1,2", 2, m=2)
    rexp = separable_expand(rsym)
    rsep = apply_separable(OperatorSpec(rsym, 2, strategy=Separable(rexp)), [f1, f2])
    rdirect = apply_direct(OperatorSpec(rsym, 2), [f1, f2])
    err_rank1 = rel_l2(rsep.samples, rdirect.samples)

    elapsed = time.perf_counter() - started
    ok = err_det <= 1e-5 and err_rank1 <= 1e-8 and elapsed <= 60.0
    _verdict(
        ok,
        f"criterion 2 (separable fast path): det_norm rel L2 {err_det:.3e} <= 1e-5, "
        f"rank-1 product {err_rank1:.3e} <= 1e-8, {elapsed:.1f}s <= 60s",
    )


def _route_agreement(make_pair, instances: int) -> float:
    worst = 0.0
    for a, b in (make_pair(i) for i in range(instances)):
        worst = max(worst, rel_l2(a.samples, b.samples))
    return worst


def test_c03_jacobian_routes():
    started = time.perf_counter()

    def planar(i: int):
        g = GridSpec(d=2, n=16)
        us = [random_trig(g, degree=3, seed=1100 + 10 * i + j)[0] for j in range(2)]
        return jacobian_det_fourier(us), jacobian_det_pointwise(us)

    def spatial(i: int):
        g = GridSpec(d=3, n=8)
        us = [random_trig(g, degree=2, seed=1200 + 10 * i + j)[0] for j in range(3)]
        return jacobian_det_fourier(us), jacobian_det_pointwise(us)

    worst = max(_route_agreement(planar, 10), _route_agreement(spatial, 10))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed <= 120.0
    _verdict(
        ok,
        f"criterion 3 (Jacobian det: multiplier = pointwise): worst rel L2 "
        f"{worst:.3e} <= 1e-9, {elapsed:.1f}s <= 120s",
    )


def test_c04_hessian_routes():
    started = time.perf_counter()

    def planar(i: int):
        g = GridSpec(d=2, n=16)
        u, _ = random_trig(g, degree=3, seed=1300 + i)
        return hessian_det_fourier(u), hessian_det_pointwise(u)

    def spatial(i: int):
        g = GridSpec(d=3, n=8)
        u, _ = random_trig(g, degree=2, seed=1400 + i)
        return hessian_det_fourier(u), hessian_det_pointwise(u)

    worst = max(_route_agreement(planar, 10), _route_agreement(spatial, 10))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed <= 120.0
    _verdict(
        ok,
        f"criterion 4 (Hessian det: multiplier = pointwise): worst rel L2 "
        f"{worst:.3e} <= 1e-9, {elapsed:.1f}s <= 120s",
    )


def test_c05_symbolic_suite():
    started = time.perf_counter()
    reports = run_identity_suite(instances=20, seed=0)
    elapsed = time.perf_counter() - started
    all_zero = all(r.passed and r.residual == "0" for r in reports)
    names = {r.identity for r in reports}
    complete = names == {
        "piola", "hessian-2d", "det-P-tau", "det-P-tau-average", "baer-jerison"
    }
    ok = all_zero and complete and elapsed <= 120.0
    _verdict(
        ok,
        f"criterion 5 (symbolic identities, 20 rational instances each): "
        f"{len(reports)} batches, every residual exactly 0, {elapsed:.1f}s <= 120s",
    )


def test_c06_partition_of_unity():
    part = partition_for_grid(16, 2)
    radii = np.geomspace(2.0**part.j_min, 2.0**part.j_max, 10_000)
    dev = float(np.max(np.abs(part.partition_sum(radii) - 1.0)))

    g = GridSpec(d=2, n=16)
    f, _ = random_trig(g, degree=6, seed=1500)
    f = Field(g, f.samples - np.mean(f.samples))
    total = np.zeros(g.shape, dtype=np.complex128)
    for j in part.scales:
        total = total + localize(f, part, j).samples
    rec_err = rel_l2(total, f.samples)

    ok = dev <= 1e-12 and rec_err <= 1e-10
    _verdict(
        ok,
        f"criterion 6 (dyadic partition of unity): max |sum psi - 1| {dev:.3e} "
        f"<= 1e-12 on 1e4 radii, reconstruction {rec_err:.3e} <= 1e-10",
    )


def test_c07_homogeneous_sweep_invariance():
    cfg = ExperimentConfig(
        experiment="acc-boundedness", d=2, n=16, symbol="det_norm:1",
        p=(2.0, 2.0), r=1.0, family=4, t_min=0, t_max=3, seed=0,
    )
    rec = boundedness_scan(cfg)
    spread = 1.0
    for i in range(len(rec.ratios)):
        column = [row["ratios"][i] for row in rec.sweep]
        spread = max(spread, max(column) / min(column))
    ok = rec.passed and spread <= 1.0 + 1e-10
    _verdict(
        ok,
        f"criterion 7 (degree-0 homogeneity, dilation sweep t=0..3): "
        f"per-member max/min {spread:.12f} <= 1 + 1e-10",
    )


def test_c08_singular_value_decay():
    sym = resolve_symbol("det_norm:1", 2, m=2)
    exp = separable_expand(sym)
    ratio = float(exp.spectrum[31] / exp.spectrum[0])
    ok = ratio <= 1e-6
    _verdict(
        ok,
        f"criterion 8 (separable coefficient decay): s32/s1 {ratio:.3e} <= 1e-6",
    )


def test_c09_derivative_transfer():
    started = time.perf_counter()
    g = GridSpec(d=2, n=16)
    sym = det_symbol(2)
    worst = 0.0
    for k in (1, 2):
        for i in range(10):
            f1, _ = random_trig(g, degree=3, seed=1600 + 100 * k + 3 * i)
            f2, _ = random_trig(g, degree=3, seed=1601 + 100 * k + 3 * i)
            phi, _ = random_trig(g, degree=3, seed=1602 + 100 * k + 3 * i)
            got = pair_with_transfer(sym, k, [f1, f2], phi)
            out = apply_direct(OperatorSpec(power_symbol(sym, k), 2), [f1, f2])
            want = pair(out, regrid_field(phi, out.grid.n))
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8
    _verdict(
        ok,
        f"criterion 9 (derivative transfer, k in {{1,2}}, 10 instances): "
        f"worst rel err {worst:.3e} <= 1e-8 ({elapsed:.1f}s)",
    )


def test_c10_estimate_sweeps():
    started = time.perf_counter()
    jac_cfg = ExperimentConfig(
        experiment="acc-jacobian", d=2, n=16, symbol="det", p=(2.0, 2.0),
        r=1.0, family=4, t_min=0, t_max=5, seed=0,
    )
    jac = jacobian_estimate(jac_cfg)
    hess_cfg = ExperimentConfig(
        experiment="acc-hessian", d=3, n=8, symbol="det", p=(3.0, 3.0, 3.0),
        r=1.0, family=4, t_min=0, t_max=5, seed=0, cutoff=2.0,
    )
    hess = hessian_estimate(hess_cfg)
    elapsed = time.perf_counter() - started

    def rise(rec):
        return rec.max_ratio / max(rec.sweep[0]["ratios"])

    ok = (
        jac.passed
        and hess.passed
        and jac.extra["u_equals_v_numerator"] == 0.0
        and hess.extra["u_equals_v_numerator"] == 0.0
        and rise(jac) <= 4.0
        and rise(hess) <= 4.0
        and elapsed <= 300.0
    )
    _verdict(
        ok,
        f"criterion 10 (estimate sweeps t=0..5): jacobian rise {rise(jac):.3f} "
        f"<= 4, hessian rise {rise(hess):.3f} <= 4, u=v difference exactly 0, "
        f"{elapsed:.1f}s <= 300s",
    )


def test_c11_bessel_spaces():
    g = GridSpec(d=2, n=16)
    f, _ = random_trig(g, degree=5, seed=1700)

    spec = dft_forward(f)
    mesh = g.freq_mesh()
    r2 = np.zeros(g.shape)
    for m in mesh:
        r2 = r2 + np.asarray(m, dtype=np.float64) ** 2
    worst_plancherel = 0.0
    for s in (0.5, 1.0, 4.0 / 3.0):
        got = bessel_norm(f, 2.0, s)
        want = float(
            np.sqrt(np.sum((1.0 + r2) ** s * np.abs(spec.coeffs) ** 2) * TWO_PI**g.d)
        )
        worst_plancherel = max(worst_plancherel, abs(got - want) / want)

    lhs = bessel_norm(f, 2.0, 1.0) ** 2
    rhs = lp_norm(f, 2.0) ** 2 + sum(
        lp_norm(spectral_derivative(f, unit(2, ax)), 2.0) ** 2 for ax in range(2)
    )
    ident_err = abs(lhs - rhs) / rhs

    ok = worst_plancherel <= 1e-10 and ident_err <= 1e-10
    _verdict(
        ok,
        f"criterion 11 (Bessel spaces): p=2 Plancherel {worst_plancherel:.3e} "
        f"<= 1e-10, s=1 gradient identity {ident_err:.3e} <= 1e-10",
    )
