"""Out-of-band spans around vkt's layer functions.

The tracer lives entirely in the benchmark: it rebinds each listed function
in every `vkt` module namespace that holds it (``from .affineweyl import
orbit_normal_form`` also binds it as ``vkt.fusion.orbit_normal_form``), so
no file under ``src/`` changes.  Spans are kept in memory as tuples
``(name, start, end, parent, job, note)`` and written out when the pass
ends; ``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from time import perf_counter

_CALLS_SELF = ("calls", "self_s")
_CALLS_SELF_TOTAL = ("calls", "self_s", "total_s")
_TOTAL = ("total_s",)

CHECKS = (
    "check_double_count", "check_f_epsilon", "check_cyclic_generator",
    "check_annihilation", "check_oracle_equivalence", "check_algebra_axioms",
    "check_delta_identity", "check_orbit_constancy", "check_stabilizers",
    "check_grading_flags",
)

# (module, attribute path inside it, metrics reported for its span name).
# A span's name is "<module>.<attribute>", with "__init__" written "init".
LAYER_FUNCTIONS = (
    ("zlattice", "smith_normal_form", _CALLS_SELF),
    ("zlattice", "coset_representatives", _CALLS_SELF),
    ("zlattice", "inverse_rational", _CALLS_SELF),
    ("rootdata", "root_datum_from_spec", _CALLS_SELF),
    ("rootdata", "weyl_group_elements", _CALLS_SELF),
    ("rootdata", "weight_multiplicities", _CALLS_SELF),
    ("rootdata", "tensor_decompose", _CALLS_SELF),
    ("rootdata", "dominant_representative", _CALLS_SELF),
    ("twist", "twisting_from_level", _CALLS_SELF),
    ("twist", "f_epsilon_points", _CALLS_SELF),
    ("affineweyl", "orbit_normal_form", _CALLS_SELF_TOTAL),
    ("affineweyl", "box_reduce", _CALLS_SELF),
    ("affineweyl", "enumerate_basis_orbits", _CALLS_SELF_TOTAL),
    ("cyclo", "eval_character_at_point", _CALLS_SELF),
    ("cyclo", "invert_field_matrix", _CALLS_SELF),
    ("cyclo", "CyclotomicInt.__init__", _CALLS_SELF),
    ("fusion", "FusionRing.__init__", _CALLS_SELF_TOTAL),
    ("fusion", "fusion_product", _CALLS_SELF_TOTAL),
    ("fusion", "class_from_weight", _CALLS_SELF),
    ("fusion", "verlinde_classes", _CALLS_SELF),
    ("fusion", "verlinde_ideal_member", _CALLS_SELF),
    ("fusion", "delta_eval", _CALLS_SELF_TOTAL),
    ("fusion", "structure_constants_via_characters", _CALLS_SELF_TOTAL),
    *(("checks", name, _TOTAL) for name in CHECKS),
    ("cli", "render", _CALLS_SELF),
)

def span_name(module, attr):
    return f"{module}.{attr.replace('__init__', 'init')}"


# What a span notes about its result, for the ratios.
_OBSERVERS = {
    "affineweyl.orbit_normal_form": lambda red: int(red.is_zero),
    "affineweyl.enumerate_basis_orbits": len,
}


class Tracer:
    """Records one span per call of each layer function while installed."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = [-1]
        self._undo = []

    def install(self):
        """Wrap every layer function in every loaded `vkt` namespace."""
        for module in {module for module, _, _ in LAYER_FUNCTIONS}:
            importlib.import_module(f"vkt.{module}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "vkt" or name.startswith("vkt."))]
        for module, attr, _ in LAYER_FUNCTIONS:
            name = span_name(module, attr)
            owner = sys.modules[f"vkt.{module}"]
            if "." in attr:  # a method: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    def _rebind(self, target, key, value):
        self._undo.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, stack[-1], self.job, None)
            if observe is not None:
                spans[sid] = (name, start, end, stack[-1], self.job, observe(result))
            return result

        return traced

    def write(self, path):
        """Write the spans as gzipped JSON lines: name, start, end, parent,
        job, note; `parent` is the index of the enclosing span or -1."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def module_shares(spans):
    """Each module's share of the self time of all spans."""
    by_module = {}
    for span, own in zip(spans, self_times(spans)):
        module = span[0].split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + own
    total = sum(by_module.values())
    return {module: _ratio(t, total) for module, t in sorted(by_module.items())}


def summarize(spans):
    """Per-layer metrics from a list of spans: calls, self and total time
    of each layer function, and four ratios (each 0.0 when its denominator
    is 0).  Total time sums only the outermost span of each name, so recursion is
    not counted twice."""
    calls, self_s, total_s = {}, {}, {}
    for (name, start, end, parent, _, _), own in zip(spans, self_times(spans)):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total_s[name] = total_s.get(name, 0.0) + (end - start)

    out = {}
    for module, attr, metrics in LAYER_FUNCTIONS:
        name = span_name(module, attr)
        values = {"calls": calls.get(name, 0), "self_s": self_s.get(name, 0.0),
                  "total_s": total_s.get(name, 0.0)}
        for metric in metrics:
            out[f"{name}.{metric}"] = values[metric]

    def children(parent_name, child_name):
        return sum(1 for name, _, _, parent, _, _ in spans
                   if name == child_name and parent >= 0 and spans[parent][0] == parent_name)

    onf = "affineweyl.orbit_normal_form"
    ebo = "affineweyl.enumerate_basis_orbits"
    fp = "fusion.fusion_product"
    # a span's note is None when its call raised
    basis = sum(span[5] or 0 for span in spans if span[0] == ebo)
    zeros = sum(span[5] or 0 for span in spans if span[0] == onf)
    # a product was computed, not served from the cache, iff it decomposed
    computed = {parent for name, _, _, parent, _, _ in spans
                if name == "rootdata.tensor_decompose" and parent >= 0
                and spans[parent][0] == fp}
    out["affineweyl.enumerate_basis_orbits.yield"] = _ratio(basis, children(ebo, onf))
    out["affineweyl.orbit_normal_form.zero_ratio"] = _ratio(zeros, calls.get(onf, 0))
    out["affineweyl.box_reduce.per_orbit"] = _ratio(
        children(onf, "affineweyl.box_reduce"), calls.get(onf, 0))
    out["fusion.fusion_product.cache_hit_ratio"] = (
        1.0 - _ratio(len(computed), calls.get(fp, 0)) if calls.get(fp) else 0.0)
    return out
