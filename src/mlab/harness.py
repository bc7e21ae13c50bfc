"""Experiment driver: random spectral families, ratio scans, dilation sweeps.

Every experiment has the same shape, and one private driver runs it:
``_draw`` yields each member of a seeded family (its random input fields
and, where the scan pairs against one, a full-band test function), and
``_scan`` runs the dyadic dilation sweep ``t_min .. t_max``, builds one row
per step from the scan's ``step(t)``, and gives the verdict.  Each public
scan keeps only its refusals, its per-member preparation and its ``step``.
Dilation keeps the base samples on a grid with dyadic exponent ``t``
(``GridSpec.t``).  A degree-zero poly-homogeneous operator commutes with
that dilation, so the boundedness scan applies it at ``t_min`` only,
dilates its output for every later step, and asks each member's ratio to be
constant along the sweep; any other symbol's operator runs at every step,
and its family, like those of the estimate experiments, need only stay
within a configured factor of the undilated ratio.  Each dilated quantity
has one route below this module: ``grid.dilate_dyadic`` of a field or
spectrum, ``grid.pair_spectra`` and ``grid.active_in_band`` across grids,
and one ``spaces.bessel_norms`` batch per sweep step.  Where the direct
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
    "random_field",
    "boundedness_scan",
    "thm3_estimate_ratio",
    "jacobian_estimate",
    "hessian_estimate",
    "write_records",
]

INVARIANCE_TOLERANCE = 1.0 + 1e-10
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


def random_field(
    seed: int,
    grid: GridSpec,
    gamma: float,
    cutoff: float | None = None,
) -> Field:
    """Seeded real mean-zero field, coefficient modulus ``(1 + |xi|)^-gamma``.

    Phases are independent and uniform on a canonical half lattice and
    mirrored conjugate-symmetrically; self-paired modes get a random sign.
    The modulus therefore matches the profile exactly at every active mode.
    ``cutoff`` zeroes all modes with lattice radius beyond it.  A cutoff and
    decay that leave no nonzero coefficient raise ``ValueError``: every
    ratio of such a family would read 0 and check nothing.
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
    f = dft_inverse(Spectrum(grid, coeffs.reshape(grid.shape)))
    return Field(grid, f.samples.real)


def _family_seeds(cfg: ExperimentConfig, streams: int) -> list[list[int]]:
    """Per-instance seed blocks, disjoint across instances and streams."""
    return [
        [cfg.seed + 9973 * i + 131 * j for j in range(streams)]
        for i in range(cfg.family)
    ]


def _draw(
    cfg: ExperimentConfig, inputs: int, test_function: bool = False
) -> Iterator[tuple[list[Field], Field | None]]:
    """Each member's ``inputs`` random fields at decay ``DECAY`` and, with
    ``test_function``, its full-band test function ``phi`` at decay ``DECAY +
    2`` from the next seed of the member's block; ``phi`` is ``None``
    otherwise.  A band cutoff on ``phi`` would make the undilated pairing
    unrepresentatively small and the sweep ratios erratic relative to it."""
    for block in _family_seeds(cfg, inputs + test_function):
        fields = [random_field(s, cfg.grid, DECAY, cutoff=cfg.cutoff) for s in block[:inputs]]
        phi = random_field(block[inputs], cfg.grid, DECAY + 2.0) if test_function else None
        yield fields, phi


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the denominator vanishes."""
    return num / den if den > 0 else 0.0


def _all_finite(sweep_rows: list[dict]) -> bool:
    return all(math.isfinite(x) for row in sweep_rows for x in row["ratios"])


def _sweep_spread(sweep_rows: list[dict]) -> float:
    """Largest per-member max/min ratio spread along the sweep; infinite
    when any ratio is not finite."""
    if not _all_finite(sweep_rows):
        return math.inf
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
    by their own base, which can be small through phase cancellation.  Any
    ratio that is not finite fails the bound."""
    if not _all_finite(sweep_rows):
        return False
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
        median_ratio=float(np.median(np.asarray(allr))),
        min_ratio=min(allr),
        sweep=tuple(sweep_rows),
        thresholds=thresholds,
        passed=passed,
        runtime_seconds=time.perf_counter() - started,
        extra=extra or {},
    )


def _scan(
    cfg: ExperimentConfig, kind: str, started: float, step: Callable[[int], dict],
    extra: dict, invariant: bool = False, holds: bool = True,
) -> ReportRecord:
    """The dilation sweep ``t_min .. t_max``: row ``{"t": t, **step(t)}``,
    then the verdict.  ``invariant`` asks for each member's ratio to be
    constant along the sweep (per-member spread within
    ``INVARIANCE_TOLERANCE``); otherwise the family may oscillate within
    ``OSCILLATION_FACTOR`` of its base ratio.  ``holds`` is an exact check of
    the scan's own that the verdict also needs."""
    sweep_rows = [{"t": t, **step(t)} for t in range(cfg.t_min, cfg.t_max + 1)]
    if invariant:
        passed = _sweep_spread(sweep_rows) <= INVARIANCE_TOLERANCE
        thresholds = {"per_member_max_over_min": INVARIANCE_TOLERANCE}
    else:
        passed = _oscillation_ok(sweep_rows, OSCILLATION_FACTOR)
        thresholds = {"sweep_max_over_base": OSCILLATION_FACTOR}
    return _finish(cfg, kind, sweep_rows, thresholds, passed and holds, started, extra)


def boundedness_scan(cfg: ExperimentConfig) -> ReportRecord:
    """Ratio ``||T(f_1..f_m)||_r / prod ||f_j||_{p_j}`` over family and sweep.

    A degree-zero symbol (``poly_homogeneous``) commutes with dilation,
    ``T(f(2^s .)) = T(f)(2^s .)``, so its operator runs once per member, at
    ``t_min``, and each later step's output is ``dilate_dyadic`` of that
    output; the ratio is still formed at every step, and each member's ratio
    must be constant along the sweep.  Any other symbol runs its operator at
    every step.  ``extra.applied_t`` lists the steps at which the operator
    ran.
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
    families = [fs for fs, _ in _draw(cfg, cfg.m)]
    applied_t, base_outs = [], None
    extra["applied_t"] = applied_t

    def step(t: int) -> dict:
        nonlocal base_outs
        batch = [[dilate_dyadic(f, t) for f in fs] for fs in families]
        if base_outs is not None:
            # Degree 0: T(f(2^s .)) = T(f)(2^s .), s = t - t_min.
            outs = [dilate_dyadic(out, t - cfg.t_min) for out in base_outs]
        else:
            if strategy is not None:
                outs = [apply_operator(op, fts) for fts in batch]
            else:
                outs = apply_direct_family(op, batch)
            applied_t.append(t)
            base_outs = outs if sym.poly_homogeneous else None
        return {"ratios": [
            _ratio(lp_norm(out, cfg.r),
                   math.prod(lp_norm(ft, pj) for ft, pj in zip(fts, cfg.p)))
            for fts, out in zip(batch, outs)
        ]}

    return _scan(cfg, "boundedness", started, step, extra, invariant=sym.poly_homogeneous)


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
    members = list(_draw(cfg, m, test_function=True))
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
    Spectra, determinants and their difference are computed once per
    instance, not once per step, and each field is transformed once: the
    determinant and sup-norm routes take the spectra.  All input norms of a
    step are one ``bessel_norms`` batch, whose ``p = 2`` norms (the
    Jacobian's in its critical ``d = 2`` space) are Parseval sums with no
    transform.  Each row's ``active_modes`` counts, per member, the
    determinant modes that meet the test function's band at that step (mean
    excluded), above ``noise_floor`` of the spectrum held here.
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

    instances = []
    for fields, phi in _draw(cfg, 2 * components, test_function=True):
        us, vs = fields[:components], fields[components:]
        u_specs = [dft_forward(u) for u in us]
        Du = det_spectrum(u_specs)
        v_specs = [dft_forward(v) for v in vs]
        Dv = det_spectrum(v_specs)
        spectra = [
            u_specs,
            v_specs,
            [dft_forward(Field(cfg.grid, u.samples - v.samples)) for u, v in zip(us, vs)],
        ]
        phihat = dft_forward(phi)
        Ddiff = Spectrum(Du.grid, Du.coeffs - Dv.coeffs)
        instances.append(
            {
                # The u, v and difference spectrum of every norm slot.
                "slots": [specs[j % components] for specs in spectra for j in range(d)],
                "Du": Du,
                "Ddiff": Ddiff,
                "tol_u": noise_floor(Du),
                "tol_diff": noise_floor(Ddiff),
                "phi": phihat,
                "sup": grad_sup_norms(phihat, order),
            }
        )
    diff_rows = []

    def step(t: int) -> dict:
        amp = float(2 ** (order * d * t))
        slots = [dilate_dyadic(sp, t) for inst in instances for sp in inst["slots"]]
        norms = bessel_norms(slots, list(cfg.p) * (3 * len(instances)), s)
        rows = [norms[j : j + d] for j in range(0, len(norms), d)]
        ratios, diffs, active, diff_active = [], [], [], []
        for i, inst in enumerate(instances):
            phihat, sup = inst["phi"], inst["sup"]
            u_norms, v_norms, deltas = rows[3 * i : 3 * i + 3]
            Du, Ddiff = dilate_dyadic(inst["Du"], t), dilate_dyadic(inst["Ddiff"], t)
            num = amp * abs(pair_spectra(Du, phihat))
            ratios.append(_ratio(num, math.prod(u_norms) * sup))
            active.append(active_in_band(Du, phihat, inst["tol_u"]))
            dnum = amp * abs(pair_spectra(Ddiff, phihat))
            dsum = sum(deltas[j] / (u_norms[j] + v_norms[j]) for j in range(d))
            dden = (math.prod(u_norms) + math.prod(v_norms)) * dsum * sup
            diffs.append(_ratio(dnum, dden))
            diff_active.append(active_in_band(Ddiff, phihat, inst["tol_diff"]))
        diff_rows.append({"t": t, "ratios": diffs, "active_modes": diff_active})
        return {"ratios": ratios, "active_modes": active}

    # u = v makes the difference numerator identically zero: the spectra
    # cancel exactly before any pairing.
    Du0, phihat0 = instances[0]["Du"], instances[0]["phi"]
    zero = Spectrum(Du0.grid, Du0.coeffs - Du0.coeffs)
    zero_num = abs(pair_spectra(dilate_dyadic(zero, cfg.t_min), phihat0))
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

