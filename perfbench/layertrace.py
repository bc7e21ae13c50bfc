"""Per-module spans recorded from outside ``mlab``.

``Tracer.install`` wraps every public function of the traced modules, plus
the one hot method the layer table needs, and rebinds the wrapper in every
``mlab`` namespace that holds the function: a name imported into another
module (``operators.dft_inverse`` is ``grid.dft_inverse``), the package's
re-exports, and function tables such as ``cli._SCANS``.  A binding that was
missed would hide its calls inside its caller's self time.

Spans are aggregated as they close: per function the call count, total and
self time (total minus the time of directly nested spans), per edge the
number of calls from one span into another, plus the work counters of the
layer table.  Nothing is written while tracing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

import numpy as np

MODULES = ("grid", "spaces", "symbols", "decomp", "operators", "determinants",
           "polyfield", "harness", "schemas", "cli")
METHODS = (("decomp", "SeparableExpansion", "factor_values"),)


class _Frame:
    __slots__ = ("name", "child", "tuples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child = 0.0
        self.tuples = 0


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every binding."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object, bool]] = []
        self.budget = importlib.import_module("mlab.operators").enumeration_budget()

    # -- installation -----------------------------------------------------

    def _targets(self) -> dict[int, str]:
        targets = {}
        for short in MODULES:
            mod = importlib.import_module(f"mlab.{short}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = f"{short}.{name}"
        return targets

    def install(self) -> "Tracer":
        targets = self._targets()
        wrappers: dict[int, Callable] = {}

        def traced(value):
            root = inspect.unwrap(value)
            name = targets.get(id(root)) if inspect.isfunction(root) else None
            if name is None:
                return None
            if id(value) not in wrappers:
                wrappers[id(value)] = self._wrap(name, value)
            return wrappers[id(value)]

        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mlab" or modname.startswith("mlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        wrapper = traced(v2)
                        if wrapper is not None:
                            self._restore.append((value, k2, v2, True))
                            value[k2] = wrapper
                    continue
                wrapper = traced(value)
                if wrapper is not None:
                    self._restore.append((mod, key, value, False))
                    setattr(mod, key, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"mlab.{short}"), cls_name)
            original = vars(cls)[meth]
            self._restore.append((cls, meth, original, False))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", original))
        return self

    def uninstall(self) -> None:
        for container, key, value, is_dict in reversed(self._restore):
            if is_dict:
                container[key] = value
            else:
                setattr(container, key, value)
        self._restore.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = _HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame.child
                if parent is not None:
                    parent.child += elapsed
                    self.edges[(parent.name, name)] += 1
            if hook is not None:
                hook(self, frame, parent, args, result)
            return result

        return wrapper

    def bump_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)


# -- work counters at the layer boundaries ----------------------------------


def _fft(tr: Tracer, frame, parent, args, result) -> None:
    tr.counts["grid.fft_points"] += args[0].grid.npoints


def _dilate(tr: Tracer, frame, parent, args, result) -> None:
    tr.bump_max("grid.max_n", result.grid.n)


def _evaluate(tr: Tracer, frame, parent, args, result) -> None:
    block = np.asarray(args[1][0])
    count = 1 if block.ndim == 1 else block.shape[0]
    tr.counts["symbols.eval_tuples"] += count
    if parent is not None and parent.name == "operators.apply_direct":
        parent.tuples += count


def _direct(tr: Tracer, frame, parent, args, result) -> None:
    tr.counts["operators.direct_tuples"] += frame.tuples
    tr.bump_max("operators.budget_frac", frame.tuples / tr.budget)


def _separable(tr: Tracer, frame, parent, args, result) -> None:
    tr.counts["operators.separable_terms"] += args[0].strategy.expansion.rank


def _expand(tr: Tracer, frame, parent, args, result) -> None:
    tr.bump_max("decomp.expand_nodes", result.grid.n_points)
    tr.bump_max("decomp.expand_rank", result.rank)
    tr.bump_max("decomp.expand_residual", result.residual)


def _factor_values(tr: Tracer, frame, parent, args, result) -> None:
    tr.counts["decomp.factor_points"] += len(args[2])


def _pointwise(tr: Tracer, frame, parent, args, result) -> None:
    tr.counts["determinants.pointwise_points"] += result.grid.npoints


_IDENTITY_CHECKS = frozenset(
    f"determinants.symbolic_{name}_check"
    for name in ("piola", "hessian2d", "detPtau", "detPtau_average", "baer_jerison")
)


def _identity(tr: Tracer, frame, parent, args, result) -> None:
    if parent is None or parent.name not in _IDENTITY_CHECKS:
        tr.counts["determinants.identities_checked"] += 1


def _norm(tr: Tracer, frame, parent, args, result) -> None:
    tr.counts["spaces.norm_calls"] += 1


_HOOKS: dict[str, Callable] = {
    "grid.dft_forward": _fft,
    "grid.dft_inverse": _fft,
    "grid.dilate_dyadic": _dilate,
    "symbols.evaluate": _evaluate,
    "operators.apply_direct": _direct,
    "operators.apply_separable": _separable,
    "decomp.separable_expand": _expand,
    "decomp.SeparableExpansion.factor_values": _factor_values,
    "determinants.jacobian_det_pointwise": _pointwise,
    "determinants.hessian_det_pointwise": _pointwise,
    "spaces.lp_norm": _norm,
    "spaces.bessel_norm": _norm,
    "spaces.sobolev_wkp_norm": _norm,
    "spaces.grad_sup_norms": _norm,
    **{name: _identity for name in _IDENTITY_CHECKS},
}


# -- per-layer metrics --------------------------------------------------------

_FFT = ("grid.dft_forward", "grid.dft_inverse")
_REGRID = ("grid.regrid_spectrum", "grid.regrid_field", "grid.product_on_grid",
           "grid.dealiased_product")
_POINTWISE = ("determinants.jacobian_det_pointwise", "determinants.hessian_det_pointwise")
_FOURIER = ("determinants.jacobian_det_fourier", "determinants.hessian_det_fourier")
_HARNESS_NAMED = ("harness.random_field", "harness.pair_dilated",
                  "harness.bessel_norm_dilated")
_RECORD_IO = ("harness.write_records", "harness.write_summary_csv")

# name -> unit, in report order.  Times and counts are per traced round of
# the workload; ``*_frac``, ``*_rel_err`` and the expansion figures are maxima.
PER_LAYER = {
    "grid.fft_s": "s", "grid.fft_calls": "count", "grid.fft_points": "count",
    "grid.regrid_s": "s", "grid.dilate_s": "s", "grid.max_n": "points",
    "grid.support_s": "s",
    "spaces.norm_s": "s", "spaces.norm_calls": "count",
    "symbols.eval_s": "s", "symbols.eval_tuples": "count", "symbols.ns_per_tuple": "ns",
    "decomp.expand_s": "s", "decomp.expand_nodes": "count",
    "decomp.expand_rank": "count", "decomp.expand_residual": "rel",
    "decomp.factor_values_s": "s", "decomp.factor_points": "count",
    "operators.direct_s": "s", "operators.direct_tuples": "count",
    "operators.direct_ns_per_tuple": "ns", "operators.budget_frac": "frac",
    "operators.separable_s": "s", "operators.separable_terms": "count",
    "operators.separable_rel_err": "rel",
    "determinants.pointwise_s": "s", "determinants.pointwise_points": "count",
    "determinants.identities_s": "s", "determinants.identities_checked": "count",
    "polyfield.poly_det_s": "s",
    "harness.self_s": "s", "harness.random_field_s": "s",
    "harness.pair_dilated_s": "s", "harness.bessel_dilated_s": "s",
    "cli.record_io_s": "s",
    **{f"module.{short}_s": "s" for short in MODULES},
    "trace.wall_s": "s", "trace.self_sum_frac": "frac", "trace.overhead_frac": "frac",
}


def layer_metrics(
    tr: Tracer,
    rounds: int,
    traced_wall: float,
    overhead_frac: float,
    rel_errors: dict[str, float],
) -> dict[str, float]:
    """Per-layer figures from one tracer that saw ``rounds`` traced rounds."""

    def self_of(names) -> float:
        return sum(tr.self_time[n] for n in names) / rounds

    def in_module(short: str) -> list[str]:
        return [n for n in tr.self_time if n.split(".")[0] == short]

    def per_round(key: str) -> float:
        return tr.counts[key] / rounds

    def ns_per(seconds: float, count: int) -> float:
        return 1e9 * seconds / count if count else 0.0

    determinants = in_module("determinants")
    harness = in_module("harness")
    values = {
        "grid.fft_s": self_of(_FFT),
        "grid.fft_calls": sum(tr.calls[n] for n in _FFT) / rounds,
        "grid.fft_points": per_round("grid.fft_points"),
        "grid.regrid_s": self_of(_REGRID),
        "grid.dilate_s": self_of(["grid.dilate_dyadic"]),
        "grid.max_n": tr.maxima.get("grid.max_n", 0),
        "grid.support_s": self_of(["grid.support"]),
        "spaces.norm_s": self_of(in_module("spaces")),
        "spaces.norm_calls": per_round("spaces.norm_calls"),
        "symbols.eval_s": self_of(["symbols.evaluate"]),
        "symbols.eval_tuples": per_round("symbols.eval_tuples"),
        "symbols.ns_per_tuple": ns_per(tr.self_time["symbols.evaluate"],
                                       tr.counts["symbols.eval_tuples"]),
        "decomp.expand_s": tr.total["decomp.separable_expand"] / rounds,
        "decomp.expand_nodes": tr.maxima.get("decomp.expand_nodes", 0),
        "decomp.expand_rank": tr.maxima.get("decomp.expand_rank", 0),
        "decomp.expand_residual": tr.maxima.get("decomp.expand_residual", 0.0),
        "decomp.factor_values_s": self_of(["decomp.SeparableExpansion.factor_values"]),
        "decomp.factor_points": per_round("decomp.factor_points"),
        "operators.direct_s": self_of(["operators.apply_direct"]),
        "operators.direct_tuples": per_round("operators.direct_tuples"),
        "operators.direct_ns_per_tuple": ns_per(tr.total["operators.apply_direct"],
                                                tr.counts["operators.direct_tuples"]),
        "operators.budget_frac": tr.maxima.get("operators.budget_frac", 0.0),
        "operators.separable_s": self_of(["operators.apply_separable"]),
        "operators.separable_terms": per_round("operators.separable_terms"),
        "operators.separable_rel_err": rel_errors.get("separable", 0.0),
        "determinants.pointwise_s": self_of(_POINTWISE),
        "determinants.pointwise_points": per_round("determinants.pointwise_points"),
        "determinants.identities_s": self_of(
            [n for n in determinants if n not in _POINTWISE + _FOURIER]),
        "determinants.identities_checked": per_round("determinants.identities_checked"),
        "polyfield.poly_det_s": self_of(["polyfield.poly_det"]),
        "harness.self_s": self_of(
            [n for n in harness if n not in _HARNESS_NAMED + _RECORD_IO]),
        "harness.random_field_s": self_of(["harness.random_field"]),
        "harness.pair_dilated_s": self_of(["harness.pair_dilated"]),
        "harness.bessel_dilated_s": self_of(["harness.bessel_norm_dilated"]),
        "cli.record_io_s": self_of(_RECORD_IO) + self_of(in_module("schemas")),
        **{f"module.{short}_s": self_of(in_module(short)) for short in MODULES},
        "trace.wall_s": traced_wall / rounds,
        "trace.self_sum_frac": (sum(tr.self_time.values()) / traced_wall
                                if traced_wall else 0.0),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: float(values[name]) for name in PER_LAYER}
