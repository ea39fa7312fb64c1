"""In-memory span tracer that wraps mamp's public functions from outside.

The package binds its functions with ``from .x import f``, so a function has
one binding in its home module and one more in every module that imports it.
``Tracer.install`` wraps the function object itself and then replaces every
binding of that object in every ``mamp.*`` module, so no call site is missed.
Class methods are wrapped on the classes that define them.

Spans are kept in memory as (name, start, end, parent, run id, attribute) and
written out once by ``Tracer.dump``.  The CLI runs with ``--threads 1``, so a
single call stack is enough to find each span's parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (home module, function name, span name, attribute taken from the call)
FUNCTIONS = [
    ("operators", "build_structured_operator", "operators.build", None),
    ("operators", "build_iid_gaussian_operator", "operators.build", None),
    ("operators", "sample_instance", "operators.sample_instance", None),
    ("spectral", "exact_moments_from_singular_values", "spectral.moments", None),
    ("spectral", "estimate_moments_power_recursion", "spectral.moments", None),
    ("spectral", "bound_extremal_eigenvalues", "spectral.moments", None),
    ("spectral", "tables_from_singular_values", "spectral.tables", None),
    ("spectral", "build_moment_tables", "spectral.tables", None),
    ("denoisers", "bg_mmse", "denoisers.bg_mmse", "entries"),
    ("denoisers", "scalar_mmse", "denoisers.scalar_mmse", None),
    ("core", "run_bo_mamp", "algo.bo_mamp", "iterations"),
    ("core", "memory_le_step", "core.memory_le_step", None),
    ("core", "optimal_damping", "core.optimal_damping", "singular"),
    ("baselines", "run_bo_oamp", "algo.bo_oamp", "iterations"),
    ("baselines", "run_mf_oamp", "algo.mf_oamp", "iterations"),
    ("baselines", "run_amp", "algo.amp", "iterations"),
    ("baselines", "lmmse_le", "baselines.lmmse_le", None),
    ("evolution", "run_bo_mamp_se", "evolution.se_bo_mamp", "nle_mode"),
    ("evolution", "run_bo_oamp_se", "evolution.se_scalar", None),
    ("evolution", "run_mf_oamp_se", "evolution.se_scalar", None),
    ("evolution", "oamp_fixed_point", "evolution.fixed_point", None),
    ("evolution", "bo_oamp_fixed_point_exact", "evolution.fixed_point_exact", None),
    ("evolution", "series_gamma_se", "evolution.series", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "emit_csv", "harness.emit", None),
    ("harness", "emit_plot_script", "harness.emit", None),
]

# (home module, class name, method name, span name)
METHODS = [
    ("operators", "TransformOperator", "apply", "operators.apply"),
    ("operators", "TransformOperator", "apply_adjoint", "operators.apply_adjoint"),
    ("operators", "TransformOperator", "apply_gram", "operators.apply_gram"),
    ("operators", "TransformOperator", "gram_eigenvalues", "operators.gram_eigenvalues"),
    ("spectral", "MomentTables", "w_scaled_extended", "spectral.w_ext"),
    ("evolution", "CorrelatedNoiseSampler", "sample", "evolution.sampler"),
    ("harness", "RunReport", "to_json", "harness.emit"),
]

# Algorithm entry points: setup ends at the first call into one of them.
ENTRY_POINTS = [
    ("core", "run_bo_mamp"),
    ("baselines", "run_bo_oamp"),
    ("baselines", "run_mf_oamp"),
    ("baselines", "run_amp"),
    ("evolution", "run_bo_mamp_se"),
    ("evolution", "run_bo_oamp_se"),
    ("evolution", "run_mf_oamp_se"),
    ("evolution", "oamp_fixed_point"),
    ("evolution", "bo_oamp_fixed_point_exact"),
]


def _attribute(kind, args, kwargs, result):
    if kind == "entries":
        return int(getattr(args[0], "size", 0))
    if kind == "iterations":
        return len(result.records)
    if kind == "singular":
        return int(bool(result.singular))
    if kind == "nle_mode":
        return kwargs.get("nle_mode", "mc")
    raise ValueError(f"unknown span attribute {kind!r}")


def _home(module: str):
    return sys.modules[f"mamp.{module}"]


def rebind(module: str, name: str, make_wrapper) -> None:
    """Replace ``mamp.<module>.<name>`` at every binding in the package.

    Raises AttributeError when the function no longer exists, so a renamed
    target fails loudly instead of reading as a layer that did no work.
    """
    original = getattr(_home(module), name)
    wrapped = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mamp" or mod_name.startswith("mamp."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def subclasses(cls):
    """cls and every subclass defined so far."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(subclasses(sub))
    return out


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, start: float, end: float) -> None:
        """Record a span that was timed outside a wrapped call (e.g. import)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.run_id, None])

    def wrap(self, fn, name: str, attr_kind=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1, run_id, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if attr_kind is not None:
                record[5] = _attribute(attr_kind, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, fn_name, span_name, attr_kind in FUNCTIONS:
            rebind(
                module, fn_name,
                lambda fn, s=span_name, a=attr_kind: self.wrap(fn, s, a),
            )
        for module, cls_name, method, span_name in METHODS:
            base = getattr(_home(module), cls_name)
            for cls in subclasses(base):
                if method in vars(cls):
                    setattr(cls, method, self.wrap(vars(cls)[method], span_name))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)
