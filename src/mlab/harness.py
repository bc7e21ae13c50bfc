"""Experiment driver: random spectral families, ratio scans, dilation sweeps.

Every experiment follows the same shape: a seeded family of random fields,
a ratio of an operator functional against the product of norms the estimate
predicts, and a dyadic dilation sweep of that ratio.  Dilation is exact
coefficient remapping, so degree-zero poly-homogeneous symbols must give a
sweep that is constant to rounding; oscillation families for the estimate
experiments are only required to stay within a configured factor of the
undilated ratio.  Thresholds are artifact policy, recorded in the reports,
never a claim about sharp constants.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .decomp import separable_expand
from .determinants import hessian_det_pointwise, jacobian_det_pointwise
from .grid import (
    Field,
    GridSpec,
    Spectrum,
    dft_forward,
    dft_inverse,
    dilate_dyadic,
    support,
)
from .operators import OperatorSpec, Separable, apply_operator, pair_with_transfer
from .spaces import (
    bessel_norm,
    grad_sup_norms,
    holder_conjugate,
    lp_norm,
    sobolev_wkp_norm,
)
from .symbols import resolve_symbol

__all__ = [
    "ExperimentConfig",
    "ReportRecord",
    "random_field",
    "pair_dilated",
    "bessel_norm_dilated",
    "boundedness_scan",
    "thm3_estimate_ratio",
    "jacobian_estimate",
    "hessian_estimate",
    "write_records",
    "write_summary_csv",
]

INVARIANCE_TOLERANCE = 1.0 + 1e-10
OSCILLATION_FACTOR = 4.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: grid, symbol, exponents, family, sweep range.

    ``p`` lists the input Lebesgue exponents; the output exponent ``r`` must
    satisfy ``1/r = sum 1/p_j`` to 1e-12, which with ``p_j > 1`` puts it in
    ``(1/m, inf)``: the quasi-Banach range ``r < 1`` included.  The seed
    fully determines the generated family.
    """

    experiment: str
    d: int
    n: int
    symbol: str
    p: tuple[float, ...]
    r: float
    period: float = 2.0 * math.pi
    s: float | None = None
    k: int = 0
    gamma: float = 2.0
    cutoff: float | None = None
    seed: int = 0
    family: int = 4
    t_min: int = 0
    t_max: int = 3
    strategy: str = "direct"
    rank: int = 32
    sweep_tolerance: float | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        if not self.p or any(x <= 1.0 for x in self.p):
            raise ValueError("input exponents must satisfy p_j > 1")
        if abs(1.0 / self.r - sum(1.0 / x for x in self.p)) > 1e-12:
            raise ValueError("exponents violate 1/r = sum 1/p_j")
        if self.k < 0:
            raise ValueError("derivative order must be >= 0")
        if self.family < 1:
            raise ValueError("family size must be >= 1")
        if self.t_min > self.t_max or self.t_min < 0:
            raise ValueError("bad dilation range")
        if self.strategy not in ("direct", "separable"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.gamma < 0:
            raise ValueError("decay exponent must be >= 0")

    @property
    def m(self) -> int:
        return len(self.p)

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.d, self.n, self.period)

    def config_hash(self) -> str:
        payload = {
            k: v
            for k, v in self.__dict__.items()
            if k != "out_dir"
        }
        payload["p"] = list(self.p)
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ReportRecord:
    """Scan outcome: per-instance ratios, sweep table, threshold verdict."""

    config_hash: str
    experiment: str
    kind: str
    ratios: tuple[float, ...]
    max_ratio: float
    median_ratio: float
    min_ratio: float
    sweep: tuple[dict, ...]
    thresholds: dict
    passed: bool
    runtime_seconds: float
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "experiment": self.experiment,
            "kind": self.kind,
            "ratios": list(self.ratios),
            "max_ratio": self.max_ratio,
            "median_ratio": self.median_ratio,
            "min_ratio": self.min_ratio,
            "sweep": [dict(row) for row in self.sweep],
            "thresholds": dict(self.thresholds),
            "passed": self.passed,
            "runtime_seconds": self.runtime_seconds,
            "extra": self.extra,
        }


def random_field(
    seed: int,
    grid: GridSpec,
    gamma: float,
    mean_zero: bool = True,
    cutoff: float | None = None,
) -> Field:
    """Seeded real field with coefficient modulus ``(1 + |xi|)^-gamma``.

    Phases are independent and uniform on a canonical half lattice and
    mirrored conjugate-symmetrically; self-paired modes get a random sign.
    The modulus therefore matches the profile exactly at every active mode.
    ``cutoff`` zeroes all modes with lattice radius beyond it.
    """
    if gamma < 0:
        raise ValueError("decay exponent must be >= 0")
    rng = np.random.default_rng(seed)
    n, d = grid.n, grid.d
    mesh = grid.freq_mesh()
    radius = grid.freq_radius().reshape(-1)
    profile = (1.0 + radius) ** (-gamma)

    index = np.stack([np.asarray(m).reshape(-1) % n for m in mesh], axis=-1)
    strides = np.array([n ** (d - 1 - ax) for ax in range(d)], dtype=np.int64)
    own = index @ strides
    partner = ((n - index) % n) @ strides

    phases = rng.uniform(0.0, 2.0 * math.pi, size=own.shape[0])
    signs = rng.integers(0, 2, size=own.shape[0]) * 2 - 1

    coeffs = np.zeros(own.shape[0], dtype=np.complex128)
    lead = own < partner
    coeffs[own[lead]] = profile[lead] * np.exp(1j * phases[lead])
    coeffs[partner[lead]] = np.conj(coeffs[own[lead]])
    selfp = own == partner
    coeffs[own[selfp]] = profile[selfp] * signs[selfp]

    if cutoff is not None:
        coeffs[radius > cutoff] = 0.0
    if mean_zero:
        coeffs[0] = 0.0
    f = dft_inverse(Spectrum(grid, coeffs.reshape(grid.shape)))
    return Field(grid, f.samples.real.astype(np.complex128), is_real=True)


def pair_dilated(dets: Spectrum, t: int, phi: Spectrum) -> complex:
    """``pair(dilate(D, t), phi)`` evaluated without materializing the grid.

    Equals ``period^d sum_eta Dhat(eta) phihat(-2^t eta)``; only modes whose
    scaled image lands in the band of ``phi`` contribute.
    """
    if dets.grid.d != phi.grid.d or dets.grid.period != phi.grid.period:
        raise ValueError("incompatible spectra")
    scale = 1 << t
    freqs, vals = support(dets)
    target = -scale * freqs
    n_phi = phi.grid.n
    ok = np.all((target >= -(n_phi // 2)) & (target <= n_phi // 2 - 1), axis=1)
    strides = np.array(
        [n_phi ** (phi.grid.d - 1 - ax) for ax in range(phi.grid.d)], dtype=np.int64
    )
    flat = (target[ok] % n_phi) @ strides
    phi_vals = phi.coeffs.reshape(-1)[flat]
    return complex(dets.grid.period**dets.grid.d * np.sum(vals[ok] * phi_vals))


def bessel_norm_dilated(f: Field, t: int, p: float, s: float) -> float:
    """``bessel_norm(dilate_dyadic(f, t), p, s)`` via base-grid reweighting.

    The dilated samples are a repetition of the base samples of the field
    whose coefficients carry the weight ``(1 + |2^t k|^2)^(s/2)``, so the
    quadrature norm is computed exactly on the small grid.
    """
    spec = dft_forward(f)
    scale = float(1 << t) * f.grid.kscale
    mesh = f.grid.freq_mesh()
    r2 = np.zeros(f.grid.shape, dtype=np.float64)
    for m in mesh:
        r2 = r2 + (scale * np.asarray(m, dtype=np.float64)) ** 2
    weighted = Spectrum(f.grid, spec.coeffs * (1.0 + r2) ** (s / 2.0))
    return lp_norm(dft_inverse(weighted), p)


def _family_seeds(cfg: ExperimentConfig, streams: int) -> list[list[int]]:
    """Per-instance seed blocks, disjoint across instances and streams."""
    return [
        [cfg.seed + 9973 * i + 131 * j for j in range(streams)]
        for i in range(cfg.family)
    ]


def _median(xs: list[float]) -> float:
    return float(np.median(np.asarray(xs))) if xs else 0.0


def _sweep_spread(sweep_rows: list[dict]) -> float:
    """Largest per-member max/min ratio spread along the sweep."""
    members = len(sweep_rows[0]["ratios"])
    worst = 1.0
    for i in range(members):
        column = [row["ratios"][i] for row in sweep_rows]
        low = min(column)
        if low > 0:
            worst = max(worst, max(column) / low)
        elif max(column) > 0:
            worst = math.inf
    return worst


def _oscillation_ok(sweep_rows: list[dict], tol: float) -> bool:
    """Family-level sweep bound: no ratio anywhere exceeds ``tol`` times the
    family ratio at the base dilation.  Individual members are not normalized
    by their own base, which can be small through phase cancellation."""
    base = max(sweep_rows[0]["ratios"])
    top = max(x for row in sweep_rows for x in row["ratios"])
    if base <= 0.0:
        return top <= 0.0
    return top <= tol * base


def _finish(
    cfg: ExperimentConfig,
    kind: str,
    sweep_rows: list[dict],
    thresholds: dict,
    passed: bool,
    started: float,
    extra: dict | None = None,
) -> ReportRecord:
    base = sweep_rows[0]["ratios"]
    allr = [x for row in sweep_rows for x in row["ratios"]]
    return ReportRecord(
        config_hash=cfg.config_hash(),
        experiment=cfg.experiment,
        kind=kind,
        ratios=tuple(base),
        max_ratio=max(allr),
        median_ratio=_median(allr),
        min_ratio=min(allr),
        sweep=tuple(sweep_rows),
        thresholds=thresholds,
        passed=passed,
        runtime_seconds=time.perf_counter() - started,
        extra=extra or {},
    )


def _build_operator(cfg: ExperimentConfig) -> OperatorSpec:
    sym = resolve_symbol(cfg.symbol, cfg.d, m=cfg.m)
    if cfg.strategy == "separable":
        exp = separable_expand(sym, rank=cfg.rank)
        return OperatorSpec(sym, cfg.m, strategy=Separable(exp))
    return OperatorSpec(sym, cfg.m)


def boundedness_scan(cfg: ExperimentConfig) -> ReportRecord:
    """Ratio ``||T(f_1..f_m)||_r / prod ||f_j||_{p_j}`` over family and sweep."""
    started = time.perf_counter()
    op = _build_operator(cfg)
    grid = cfg.grid
    seeds = _family_seeds(cfg, cfg.m)
    families = [
        [random_field(s, grid, cfg.gamma, cutoff=cfg.cutoff) for s in block]
        for block in seeds
    ]
    sweep_rows = []
    for t in range(cfg.t_min, cfg.t_max + 1):
        ratios = []
        for fs in families:
            fts = [dilate_dyadic(f, t) for f in fs]
            out = apply_operator(op, fts)
            num = lp_norm(out, cfg.r)
            den = 1.0
            for ft, pj in zip(fts, cfg.p):
                den *= lp_norm(ft, pj)
            ratios.append(num / den if den > 0 else 0.0)
        sweep_rows.append({"t": t, "ratios": ratios})

    tol = cfg.sweep_tolerance
    if tol is None:
        tol = INVARIANCE_TOLERANCE if op.symbol.poly_homogeneous else OSCILLATION_FACTOR
    if op.symbol.poly_homogeneous:
        # Invariance is per family member: each member's ratio must be
        # constant along the sweep, members need not agree with each other.
        passed = _sweep_spread(sweep_rows) <= tol
        thresholds = {"per_member_max_over_min": tol}
    else:
        passed = _oscillation_ok(sweep_rows, tol)
        thresholds = {"sweep_max_over_base": tol}
    return _finish(cfg, "boundedness", sweep_rows, thresholds, passed, started)


def thm3_estimate_ratio(cfg: ExperimentConfig) -> ReportRecord:
    """Transferred-pairing ratio against Bessel and Sobolev norms.

    Numerator ``|pair_with_transfer(sigma_m, k, f_1..f_m, phi)|``; denominator
    ``prod_j ||f_j||_{L^{p_j}_s} ||phi||_{W^{k, r*}}`` with ``s = k(m-1)/m``
    and ``r*`` the conjugate of ``r``.  Only the inputs are dilated.
    """
    started = time.perf_counter()
    if cfg.strategy != "direct":
        raise ValueError("the transfer scan runs only the direct strategy")
    k = cfg.k
    sym = resolve_symbol(cfg.symbol, cfg.d, m=cfg.m)
    grid = cfg.grid
    m = cfg.m
    s = k * (m - 1) / m
    if cfg.s is not None and abs(cfg.s - s) > 1e-12:
        raise ValueError(f"smoothness must be k(m-1)/m = {s}")
    r_star = holder_conjugate(cfg.r)
    seeds = _family_seeds(cfg, m + 1)
    sweep_rows = []
    for t in range(cfg.t_min, cfg.t_max + 1):
        ratios = []
        for block in seeds:
            fs = [
                random_field(sd, grid, cfg.gamma, cutoff=cfg.cutoff)
                for sd in block[:m]
            ]
            phi = random_field(block[m], grid, cfg.gamma + 2.0)
            fts = [dilate_dyadic(f, t) for f in fs]
            num = abs(pair_with_transfer(sym, k, fts, phi))
            den = sobolev_wkp_norm(phi, k, r_star)
            for ft, pj in zip(fts, cfg.p):
                den *= bessel_norm(ft, pj, s)
            ratios.append(num / den if den > 0 else 0.0)
        sweep_rows.append({"t": t, "ratios": ratios})
    tol = cfg.sweep_tolerance if cfg.sweep_tolerance is not None else OSCILLATION_FACTOR
    passed = _oscillation_ok(sweep_rows, tol)
    return _finish(
        cfg,
        "transfer",
        sweep_rows,
        {"sweep_max_over_base": tol},
        passed,
        started,
        extra={"k": k, "s": s, "r_star": r_star},
    )


def _estimate_sweep(
    cfg: ExperimentConfig,
    s: float,
    det_of: "callable",
    sup_order: int,
    components: int,
) -> tuple[list[dict], list[dict], float]:
    """Shared plain/difference sweep for the determinant estimates.

    The determinant of the dilated input is never materialized: with
    ``D = det(u)`` on the base grid, dilating by ``2^t`` multiplies the
    pairing by ``2^{q d t}`` (``q`` = derivative order inside the
    determinant) and remaps the test function's coefficients, which is
    ``pair_dilated``; input norms dilate through ``bessel_norm_dilated``.
    ``components`` is ``d`` for the Jacobian (a map) and 1 for the Hessian
    (a scalar reused in every norm factor).
    """
    grid = cfg.grid
    d = cfg.d
    q = sup_order
    seeds = _family_seeds(cfg, 2 * components + 1)
    instances = []
    for block in seeds:
        us = [
            random_field(sd, grid, cfg.gamma, cutoff=cfg.cutoff)
            for sd in block[:components]
        ]
        vs = [
            random_field(sd, grid, cfg.gamma, cutoff=cfg.cutoff)
            for sd in block[components : 2 * components]
        ]
        # Full-band smooth test function: a band cutoff here would make the
        # undilated pairing unrepresentatively small and the sweep ratios
        # erratic relative to it.
        phi = random_field(block[2 * components], grid, cfg.gamma + 2.0)
        Du = dft_forward(det_of(us))
        Dv = dft_forward(det_of(vs))
        phihat = dft_forward(phi)
        sup = grad_sup_norms(phi, sup_order)
        instances.append((us, vs, Du, Dv, phihat, sup))

    sweep_rows = []
    diff_rows = []
    for t in range(cfg.t_min, cfg.t_max + 1):
        amp = float(2 ** (q * d * t))
        ratios = []
        diffs = []
        for us, vs, Du, Dv, phihat, sup in instances:
            u_norms = [
                bessel_norm_dilated(us[j % components], t, pj, s)
                for j, pj in enumerate(cfg.p)
            ]
            v_norms = [
                bessel_norm_dilated(vs[j % components], t, pj, s)
                for j, pj in enumerate(cfg.p)
            ]
            num = amp * abs(pair_dilated(Du, t, phihat))
            den = math.prod(u_norms) * sup
            ratios.append(num / den if den > 0 else 0.0)
            dnum = amp * abs(
                pair_dilated(Spectrum(Du.grid, Du.coeffs - Dv.coeffs), t, phihat)
            )
            dsum = 0.0
            for j in range(d):
                delta = bessel_norm_dilated(
                    Field(
                        grid,
                        us[j % components].samples - vs[j % components].samples,
                    ),
                    t,
                    cfg.p[j],
                    s,
                )
                dsum += delta / (u_norms[j] + v_norms[j])
            dden = (math.prod(u_norms) + math.prod(v_norms)) * dsum * sup
            diffs.append(dnum / dden if dden > 0 else 0.0)
        sweep_rows.append({"t": t, "ratios": ratios})
        diff_rows.append({"t": t, "ratios": diffs})

    # u = v makes the difference numerator identically zero: the spectra
    # cancel exactly before any pairing.
    _, _, Du0, _, phihat0, _ = instances[0]
    zero_num = abs(
        pair_dilated(Spectrum(Du0.grid, Du0.coeffs - Du0.coeffs), cfg.t_min, phihat0)
    )
    return sweep_rows, diff_rows, zero_num


def _require_pointwise_det(cfg: ExperimentConfig) -> None:
    """The determinant estimates always run the pointwise ``det`` route."""
    if cfg.strategy != "direct":
        raise ValueError(f"{cfg.experiment} runs only the direct strategy")
    if cfg.symbol != "det":
        raise ValueError(f"{cfg.experiment} runs only the symbol 'det'")


def jacobian_estimate(cfg: ExperimentConfig) -> ReportRecord:
    """Distributional-Jacobian pairing ratios with ``s = 1 - 1/d``.

    Plain ratio ``|<det grad u, phi>| / (prod_k ||u_k||_{L^{p_k}_s}
    ||grad phi||_inf)`` plus the relative difference form, both across the
    dilation sweep.
    """
    started = time.perf_counter()
    _require_pointwise_det(cfg)
    if abs(sum(1.0 / x for x in cfg.p) - 1.0) > 1e-12:
        raise ValueError("Jacobian estimate needs sum 1/p_k = 1")
    if len(cfg.p) != cfg.d:
        raise ValueError("need one exponent per component")
    s = 1.0 - 1.0 / cfg.d
    if cfg.s is not None and abs(cfg.s - s) > 1e-12:
        raise ValueError(f"smoothness must be 1 - 1/d = {s}")
    sweep_rows, diff_rows, zero_num = _estimate_sweep(
        cfg, s, jacobian_det_pointwise, sup_order=1, components=cfg.d
    )
    tol = cfg.sweep_tolerance if cfg.sweep_tolerance is not None else OSCILLATION_FACTOR
    passed = _oscillation_ok(sweep_rows, tol) and zero_num == 0.0
    return _finish(
        cfg,
        "jacobian",
        sweep_rows,
        {"sweep_max_over_base": tol},
        passed,
        started,
        extra={
            "s": s,
            "difference_sweep": diff_rows,
            "u_equals_v_numerator": zero_num,
        },
    )


def hessian_estimate(cfg: ExperimentConfig) -> ReportRecord:
    """Distributional-Hessian pairing ratios with ``s = 2 - 2/d``."""
    started = time.perf_counter()
    _require_pointwise_det(cfg)
    if abs(sum(1.0 / x for x in cfg.p) - 1.0) > 1e-12:
        raise ValueError("Hessian estimate needs sum 1/p_k = 1")
    if len(cfg.p) != cfg.d:
        raise ValueError("need one exponent per slot")
    if cfg.d < 2:
        raise ValueError("needs dimension >= 2")
    s = 2.0 - 2.0 / cfg.d
    if cfg.s is not None and abs(cfg.s - s) > 1e-12:
        raise ValueError(f"smoothness must be 2 - 2/d = {s}")

    def det_of(fields: list[Field]) -> Field:
        return hessian_det_pointwise(fields[0])

    sweep_rows, diff_rows, zero_num = _estimate_sweep(
        cfg, s, det_of, sup_order=2, components=1
    )
    tol = cfg.sweep_tolerance if cfg.sweep_tolerance is not None else OSCILLATION_FACTOR
    passed = _oscillation_ok(sweep_rows, tol) and zero_num == 0.0
    return _finish(
        cfg,
        "hessian",
        sweep_rows,
        {"sweep_max_over_base": tol},
        passed,
        started,
        extra={
            "s": s,
            "difference_sweep": diff_rows,
            "u_equals_v_numerator": zero_num,
        },
    )


def write_records(path: str | Path, records: list[ReportRecord]) -> None:
    """Append records as JSON lines (one object per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")


def write_summary_csv(path: str | Path, record: ReportRecord) -> None:
    """One row per family member with the ratio at every sweep step."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ts = [row["t"] for row in record.sweep]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["experiment", "kind", "instance"] + [f"ratio_t{t}" for t in ts]
        )
        members = len(record.sweep[0]["ratios"])
        for i in range(members):
            writer.writerow(
                [record.experiment, record.kind, i]
                + [record.sweep[j]["ratios"][i] for j in range(len(ts))]
            )
