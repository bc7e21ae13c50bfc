"""Experiment driver: random spectral families, ratio scans, dilation sweeps.

Every experiment has the same shape, and one private driver runs it:
``_draw`` yields each member of a seeded family (the spectra of its random
input fields and, where the scan pairs against one, of a full-band test
function), ``_sweep`` is the one loop over the dyadic dilation range
``t_min .. t_max``, and ``_scan`` builds one row per step from the scan's
``step(t)`` and gives the verdict.  Each public scan keeps only its
refusals, its per-member preparation and its ``step``.  The boundedness and
transfer scans read each drawn spectrum as the field ``random_field``
returns; the estimate sweeps read the drawn spectra themselves and stream
the family, one member at a time through every step.
Dilation keeps the base samples on a grid with dyadic exponent ``t``
(``GridSpec.t``).  A degree-zero poly-homogeneous operator commutes with
that dilation, so its boundedness step does not depend on ``t``: the scan
runs it once, at ``t_min``, and hands ``_scan`` a step that returns that
row at every ``t``.  Any other scan runs its step at every ``t``.  Every
family must stay within a fixed factor of its ratio at ``t_min``.  Each
dilated quantity has one route below this module: ``grid.dilate_dyadic`` of
a field or spectrum, ``grid.pair_spectra`` and ``grid.active_in_band``
across grids, and one ``spaces.bessel_norms`` batch per sweep step of the
transfer scan and per member and step of the estimate sweeps.  Where the direct
boundedness scan applies its operator, it applies it to the step's whole
family with one ``operators.apply_direct_family`` call, which enumerates
the tuples of equal supports once.  The separable scan, whose symbols are
all degree zero, calls ``apply_operator`` once per member.  Thresholds are
artifact policy, recorded in the reports, never a claim about sharp
constants.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .decomp import separable_expand
from .determinants import hessian_det_pointwise, jacobian_det_pointwise
from .grid import (
    Field,
    GridSpec,
    Spectrum,
    active_in_band,
    dft_forward,
    dft_inverse,
    dilate_dyadic,
    noise_floor,
    padded_points,
    pair_spectra,
)
from .operators import (
    OperatorSpec,
    Separable,
    apply_direct_family,
    apply_operator,
    pair_with_transfer,
)
from .schemas import validate_config
from .spaces import (
    bessel_norms,
    grad_sup_norms,
    holder_conjugate,
    lp_norm,
    sobolev_wkp_norm,
)
from .symbols import resolve_symbol

__all__ = [
    "ExperimentConfig",
    "ReportRecord",
    "random_spectrum",
    "random_field",
    "boundedness_scan",
    "thm3_estimate_ratio",
    "jacobian_estimate",
    "hessian_estimate",
    "write_records",
]

OSCILLATION_FACTOR = 4.0
# Coefficient decay of every random input field; test functions decay by
# two orders more.
DECAY = 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: grid, symbol, exponents, family, sweep range.

    Each field's type and range is ``CONFIG_SCHEMA``'s: the config checks
    its JSON form against it and refuses with its ``SchemaValidationError``.
    ``p`` lists the input Lebesgue exponents; the output exponent ``r`` must
    satisfy ``1/r = sum 1/p_j`` to 1e-12, which with ``p_j > 1`` puts it in
    ``(1/m, inf)``: the quasi-Banach range ``r < 1`` included.  The seed
    fully determines the generated family.  A scan rejects a set ``k`` that
    it would not read; each scan derives its smoothness ``s`` itself.
    """

    experiment: str
    d: int
    n: int
    symbol: str
    p: tuple[float, ...]
    r: float
    k: int | None = None
    cutoff: float | None = None
    seed: int = 0
    family: int = 4
    t_min: int = 0
    t_max: int = 3
    strategy: str = "direct"
    out_dir: str | None = None

    def __post_init__(self) -> None:
        # CONFIG_SCHEMA states every per-field type and range; what follows
        # is what it cannot say.
        validate_config(self._payload())
        # The schema takes an integral float such as 2.0 as an integer (Draft
        # 2020-12); the scans index and shift with these, so they need ints.
        for name in ("d", "n", "k", "seed", "family", "t_min", "t_max"):
            value = getattr(self, name)
            if isinstance(value, float):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        # The schema accepts NaN, which every comparison below would pass.
        for name, values in (("r", [self.r]), ("p", self.p), ("cutoff", [self.cutoff])):
            if any(x is not None and math.isnan(x) for x in values):
                raise ValueError(f"{name} must be a number, got NaN")
        if abs(1.0 / self.r - sum(1.0 / x for x in self.p)) > 1e-12:
            raise ValueError("exponents violate 1/r = sum 1/p_j")
        if self.t_min > self.t_max:
            raise ValueError("dilation range needs t_min <= t_max, "
                             f"got t_min={self.t_min}, t_max={self.t_max}")

    @property
    def m(self) -> int:
        return len(self.p)

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.d, self.n)

    def _payload(self) -> dict:
        """The config's JSON form: ``p`` as a list, as a config file has it."""
        payload = dict(self.__dict__)
        if isinstance(self.p, tuple):
            payload["p"] = list(self.p)
        return payload

    def config_hash(self) -> str:
        payload = self._payload()
        del payload["out_dir"]
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
        # JSON arrays are lists: a schema validator rejects tuples.
        return {**asdict(self), "ratios": list(self.ratios),
                "sweep": [dict(row) for row in self.sweep]}


def random_spectrum(
    seed: int,
    grid: GridSpec,
    gamma: float,
    cutoff: float | None = None,
) -> Spectrum:
    """Seeded spectrum of a real mean-zero field, coefficient modulus
    ``(1 + |xi|)^-gamma``.

    Phases are independent and uniform on a canonical half lattice and
    mirrored conjugate-symmetrically; self-paired modes get a random sign.
    The modulus therefore matches the profile exactly at every active mode,
    and the mean is exactly 0.  ``cutoff`` zeroes all modes with lattice
    radius beyond it.  A cutoff and decay that leave no nonzero coefficient
    raise ``ValueError``: every ratio of such a family would read 0 and
    check nothing.
    """
    if gamma < 0:
        raise ValueError("decay exponent must be >= 0")
    rng = np.random.default_rng(seed)
    n, d = grid.n, grid.d
    radius = grid.freq_radius().reshape(-1)
    profile = (1.0 + radius) ** (-gamma)

    # Row-major flat index of each mode and of its negative, -k mod n per axis.
    own = np.arange(grid.npoints)
    negated = -np.arange(n) % n
    partner = own.reshape(grid.shape)[np.ix_(*([negated] * d))].reshape(-1)

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
    coeffs[0] = 0.0
    if not np.any(coeffs):
        raise ValueError(f"cutoff {cutoff} and decay {gamma} leave no nonzero mode")
    return Spectrum(grid, coeffs.reshape(grid.shape))


def _real_field(spec: Spectrum) -> Field:
    """The real part of the inverse transform of ``spec``."""
    return Field(spec.grid, dft_inverse(spec).samples.real)


def random_field(
    seed: int,
    grid: GridSpec,
    gamma: float,
    cutoff: float | None = None,
) -> Field:
    """Seeded real mean-zero field: the real samples of
    ``random_spectrum(seed, grid, gamma, cutoff)``, whose refusals it keeps."""
    return _real_field(random_spectrum(seed, grid, gamma, cutoff))


def _family_seeds(cfg: ExperimentConfig, streams: int) -> list[list[int]]:
    """Per-instance seed blocks, disjoint across instances and streams."""
    return [
        [cfg.seed + 9973 * i + 131 * j for j in range(streams)]
        for i in range(cfg.family)
    ]


def _draw(
    cfg: ExperimentConfig, inputs: int, test_function: bool = False
) -> Iterator[tuple[list[Spectrum], Spectrum | None]]:
    """Each member's ``inputs`` random spectra at decay ``DECAY`` and, with
    ``test_function``, the spectrum of its full-band test function ``phi``
    at decay ``DECAY + 2`` from the next seed of the member's block; ``phi``
    is ``None`` otherwise.  A member is drawn only when the caller asks for
    it.  A band cutoff on ``phi`` would make the undilated pairing
    unrepresentatively small and the sweep ratios erratic relative to it."""
    for block in _family_seeds(cfg, inputs + test_function):
        specs = [random_spectrum(s, cfg.grid, DECAY, cutoff=cfg.cutoff) for s in block[:inputs]]
        phi = random_spectrum(block[inputs], cfg.grid, DECAY + 2.0) if test_function else None
        yield specs, phi


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the denominator vanishes."""
    return num / den if den > 0 else 0.0


def _oscillation_ok(sweep_rows: list[dict], tol: float) -> bool:
    """Family-level sweep bound: no ratio anywhere exceeds ``tol`` times the
    family ratio at the base dilation.  Individual members are not normalized
    by their own base, which can be small through phase cancellation.  Any
    ratio that is not finite fails the bound."""
    ratios = [x for row in sweep_rows for x in row["ratios"]]
    if not all(math.isfinite(x) for x in ratios):
        return False
    base = max(sweep_rows[0]["ratios"])
    top = max(ratios)
    if base <= 0.0:
        return top <= 0.0
    return top <= tol * base


def _sweep(cfg: ExperimentConfig, step: Callable[[int], object]) -> list:
    """``step(t)`` at every ``t`` of the dilation range ``t_min .. t_max``,
    in order: the one loop over that range."""
    return [step(t) for t in range(cfg.t_min, cfg.t_max + 1)]


def _scan(
    cfg: ExperimentConfig, kind: str, started: float, step: Callable[[int], dict],
    extra: dict, holds: bool = True,
) -> ReportRecord:
    """The dilation sweep ``t_min .. t_max``: row ``{"t": t, **step(t)}``,
    then the verdict: the family may oscillate within ``OSCILLATION_FACTOR``
    of its base ratio, and ``holds`` is an exact check of the scan's own that
    the verdict also needs."""
    sweep_rows = _sweep(cfg, lambda t: {"t": t, **step(t)})
    allr = [x for row in sweep_rows for x in row["ratios"]]
    return ReportRecord(
        config_hash=cfg.config_hash(),
        experiment=cfg.experiment,
        kind=kind,
        ratios=tuple(sweep_rows[0]["ratios"]),
        max_ratio=max(allr),
        median_ratio=float(np.median(np.asarray(allr))),
        min_ratio=min(allr),
        sweep=tuple(sweep_rows),
        thresholds={"sweep_max_over_base": OSCILLATION_FACTOR},
        passed=_oscillation_ok(sweep_rows, OSCILLATION_FACTOR) and holds,
        runtime_seconds=time.perf_counter() - started,
        extra=extra,
    )


def boundedness_scan(cfg: ExperimentConfig) -> ReportRecord:
    """Ratio ``||T(f_1..f_m)||_r / prod ||f_j||_{p_j}`` over family and sweep.

    A degree-zero symbol (``poly_homogeneous``) commutes with dilation,
    ``T(f(2^s .)) = T(f)(2^s .)``, and a dilated field keeps its samples, so
    every ratio is that of ``t_min``: the step runs once, at ``t_min``, and
    every later row repeats its ratios.  Any other symbol runs its operator
    at every step.  ``extra.applied_t`` lists the steps at which the
    operator ran.  A range whose padded output grid at ``t_max`` has
    frequencies beyond int64 is refused before any operator call.
    """
    started = time.perf_counter()
    if cfg.k is not None:
        raise ValueError("the boundedness scan takes no derivative order k")
    sym = resolve_symbol(cfg.symbol, cfg.d, m=cfg.m)
    strategy, extra = None, {}
    if cfg.strategy == "separable":
        exp = separable_expand(sym)
        strategy = Separable(exp)
        extra = {
            "rank": exp.rank,
            "n_angular": exp.grid.n_points,
            "residual": exp.residual,
        }
    op = OperatorSpec(sym, cfg.m, strategy=strategy)
    # GridSpec refuses frequencies beyond int64: refuse the range before the
    # first operator call, not at the step that reaches it.
    cfg.grid.with_n(padded_points(cfg.n, cfg.m)).dilated(cfg.t_max)
    families = [[_real_field(sp) for sp in specs] for specs, _ in _draw(cfg, cfg.m)]
    applied_t = extra["applied_t"] = []

    def step(t: int) -> dict:
        batch = [[dilate_dyadic(f, t) for f in fs] for fs in families]
        if strategy is not None:
            outs = [apply_operator(op, fts) for fts in batch]
        else:
            outs = apply_direct_family(op, batch)
        applied_t.append(t)
        return {"ratios": [
            _ratio(lp_norm(out, cfg.r),
                   math.prod(lp_norm(ft, pj) for ft, pj in zip(fts, cfg.p)))
            for fts, out in zip(batch, outs)
        ]}

    if sym.poly_homogeneous:
        first = step(cfg.t_min)
        return _scan(cfg, "boundedness", started, lambda t: first, extra)
    return _scan(cfg, "boundedness", started, step, extra)


def thm3_estimate_ratio(cfg: ExperimentConfig) -> ReportRecord:
    """Transferred-pairing ratio against Bessel and Sobolev norms.

    Numerator ``|pair_with_transfer(sigma_m, k, f_1..f_m, phi)|``; denominator
    ``prod_j ||f_j||_{L^{p_j}_s} ||phi||_{W^{k, r*}}`` with ``s = k(m-1)/m``
    and ``r*`` the conjugate of ``r``.  Only the inputs are dilated: their
    spectra are taken once per member and their Bessel norms are one
    ``bessel_norms`` batch per step; ``phi``'s norm is taken once per member.
    """
    started = time.perf_counter()
    if cfg.strategy != "direct":
        raise ValueError("the transfer scan runs only the direct strategy")
    k = cfg.k
    if k is None:
        raise ValueError("the transfer scan needs a derivative order k")
    sym = resolve_symbol(cfg.symbol, cfg.d, m=cfg.m)
    m = cfg.m
    s = k * (m - 1) / m
    r_star = holder_conjugate(cfg.r)
    members = [([_real_field(sp) for sp in specs], _real_field(phi))
               for specs, phi in _draw(cfg, m, test_function=True)]
    spectra = [[dft_forward(f) for f in fs] for fs, _ in members]
    phi_norms = [sobolev_wkp_norm(phi, k, r_star) for _, phi in members]

    def step(t: int) -> dict:
        slots = [dilate_dyadic(sp, t) for specs in spectra for sp in specs]
        norms = bessel_norms(slots, list(cfg.p) * len(members), s)
        ratios = []
        for i, (fs, phi) in enumerate(members):
            fts = [dilate_dyadic(f, t) for f in fs]
            num = abs(pair_with_transfer(sym, k, fts, phi))
            den = math.prod(norms[i * m : (i + 1) * m], start=phi_norms[i])
            ratios.append(_ratio(num, den))
        return {"ratios": ratios}

    return _scan(cfg, "transfer", started, step, {"k": k, "s": s, "r_star": r_star})


def _sweep_det_n(d: int, n: int) -> int:
    """Points per axis on which an estimate scan samples a determinant: it
    reads the modes ``|eta_a| <= n/2``, exact on ``(d + 1) n/2`` points by
    the bound in ``jacobian_det_pointwise``, which this power of two meets."""
    return padded_points(n, (d + 2) // 2)


def _determinant_estimate(cfg: ExperimentConfig, order: int) -> ReportRecord:
    """Distributional Jacobian (``order`` 1) or Hessian (``order`` 2)
    pairing ratios with ``s = order (1 - 1/d)``.

    Plain ratio ``|<det D^order u, phi>| / (prod_k ||u_k||_{L^{p_k}_s}
    ||D^order phi||_inf)`` plus the relative difference form of ``u`` and
    ``v`` (``extra.difference_sweep``), both across the dilation sweep, and
    the exact zero of the difference numerator at ``u = v``.  ``extra.det_n``
    is the number of points per axis of the grid the determinants were
    sampled on (``_sweep_det_n``); both always run the pointwise ``det``
    route.

    The determinant of the dilated input is never materialized: with
    ``D = det(D^order u)`` on the base grid, dilating by ``2^t`` multiplies
    the pairing by ``2^{order d t}``, and the pairing is ``pair_spectra`` of
    the dilated spectrum of ``D``.  The Jacobian's ``u`` is a map with ``d``
    components, the Hessian's a scalar reused in every norm factor.

    The family streams: ``_draw`` draws one member at a time, ``member``
    reduces it to its entry of every sweep row and difference row, and its
    arrays are dropped before the next member is drawn, so memory does not
    grow with the family; ``step(t)`` assembles the rows from those entries.  A member's
    inputs and ``phi`` are used as drawn spectra, ``u - v`` is their
    difference, and the only transforms are the two determinants'.  Each
    step's input norms are one ``bessel_norms`` batch per member, whose
    ``p = 2`` norms (the Jacobian's in its critical ``d = 2`` space) are
    Parseval sums with no transform.  Each row's ``active_modes`` counts,
    per member, the determinant modes that meet the test function's band at
    that step (mean excluded), above ``noise_floor`` of the spectrum held
    here.  Member 0's pass also takes the ``u = v`` numerator.
    """
    started = time.perf_counter()
    kind = ("jacobian", "hessian")[order - 1]
    if cfg.strategy != "direct":
        raise ValueError(f"{cfg.experiment} runs only the direct strategy")
    if cfg.symbol != "det":
        raise ValueError(f"{cfg.experiment} runs only the symbol 'det'")
    if cfg.k is not None:
        raise ValueError(f"{cfg.experiment} takes no derivative order k")
    if cfg.d < 2:
        raise ValueError(f"{kind.capitalize()} estimate needs dimension d >= 2, got {cfg.d}")
    if abs(sum(1.0 / x for x in cfg.p) - 1.0) > 1e-12:
        raise ValueError(f"{kind.capitalize()} estimate needs sum 1/p_k = 1")
    if len(cfg.p) != cfg.d:
        raise ValueError(f"need one exponent per {('component', 'slot')[order - 1]}")
    d = cfg.d
    s = order - order / d
    det_n = _sweep_det_n(d, cfg.n)
    components = d if order == 1 else 1

    def det_spectrum(specs: list[Spectrum]) -> Spectrum:
        if order == 1:
            return dft_forward(jacobian_det_pointwise(specs, det_n))
        return dft_forward(hessian_det_pointwise(specs[0], det_n))

    def member(specs: list[Spectrum], phihat: Spectrum) -> list[tuple]:
        """``(ratio, active, difference ratio, difference active)`` of one
        member at every step."""
        nonlocal zero_num
        us, vs = specs[:components], specs[components:]
        deltas = [Spectrum(cfg.grid, u.coeffs - v.coeffs) for u, v in zip(us, vs)]
        Du, Dv = det_spectrum(us), det_spectrum(vs)
        Ddiff = Spectrum(Du.grid, Du.coeffs - Dv.coeffs)
        tol_u, tol_diff = noise_floor(Du), noise_floor(Ddiff)
        sup = grad_sup_norms(phihat, order)
        # The u, v and difference spectrum of every norm slot.
        slots = [group[j % components] for group in (us, vs, deltas) for j in range(d)]

        def at(t: int) -> tuple:
            amp = float(2 ** (order * d * t))
            norms = bessel_norms([dilate_dyadic(sp, t) for sp in slots], list(cfg.p) * 3, s)
            u_norms, v_norms, delta_norms = norms[:d], norms[d : 2 * d], norms[2 * d :]
            Du_t, Ddiff_t = dilate_dyadic(Du, t), dilate_dyadic(Ddiff, t)
            num = amp * abs(pair_spectra(Du_t, phihat))
            dnum = amp * abs(pair_spectra(Ddiff_t, phihat))
            dsum = sum(delta_norms[j] / (u_norms[j] + v_norms[j]) for j in range(d))
            dden = (math.prod(u_norms) + math.prod(v_norms)) * dsum * sup
            return (_ratio(num, math.prod(u_norms) * sup), active_in_band(Du_t, phihat, tol_u),
                    _ratio(dnum, dden), active_in_band(Ddiff_t, phihat, tol_diff))

        column = _sweep(cfg, at)
        if zero_num is None:
            # u = v makes the difference numerator identically zero: the
            # spectra cancel exactly before any pairing.
            zero = Spectrum(Du.grid, Du.coeffs - Du.coeffs)
            zero_num = abs(pair_spectra(dilate_dyadic(zero, cfg.t_min), phihat))
        return column

    zero_num = None
    columns = [member(specs, phihat)
               for specs, phihat in _draw(cfg, 2 * components, test_function=True)]
    diff_rows = []

    def step(t: int) -> dict:
        ratios, active, diffs, diff_active = map(list, zip(*(c[t - cfg.t_min] for c in columns)))
        diff_rows.append({"t": t, "ratios": diffs, "active_modes": diff_active})
        return {"ratios": ratios, "active_modes": active}

    extra = {"s": s, "difference_sweep": diff_rows,
             "u_equals_v_numerator": zero_num, "det_n": det_n}
    return _scan(cfg, kind, started, step, extra, holds=zero_num == 0.0)


def jacobian_estimate(cfg: ExperimentConfig) -> ReportRecord:
    """Distributional-Jacobian pairing ratios with ``s = 1 - 1/d``."""
    return _determinant_estimate(cfg, 1)


def hessian_estimate(cfg: ExperimentConfig) -> ReportRecord:
    """Distributional-Hessian pairing ratios with ``s = 2 - 2/d``."""
    return _determinant_estimate(cfg, 2)


def write_records(path: str | Path, records: list[ReportRecord]) -> None:
    """Append records as JSON lines (one object per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")

