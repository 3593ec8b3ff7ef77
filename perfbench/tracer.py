"""Spans and counts around the package's public functions, from outside it.

``Tracer.install`` replaces each hooked function in every approxagg module
namespace that holds it (``indices.output_vector`` and
``theorems.output_vector`` are the same object imported by name) and
methods on their classes.  Timed hooks record a span (name, start, end,
parent) in memory; hot per-item hooks only count.  A span's self time is
its duration minus the part its child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

SIXTH = Fraction(1, 6)


def _on_output_vector(tr, result):
    tr.counts["mechanism.profiles_evaluated"] += len(result)
    if tr.open["oracle.nearest_ci"]:
        tr.counts["oracle.nearest_output_vectors"] += 1


def _on_transform(tr, result):
    tr.counts["fourier.transform_points"] += len(result.weights)


def _on_closed_families(tr, result):
    tr.counts["mechanism.family_members"] += len(result)


def _on_ic_conjunction(tr, result):
    if tr.open["theorems.sweep"]:
        tr.counts["theorems.tuples_checked"] += 1


def _on_ic_xor(tr, result):
    # the xor sweep checks its bound only where IC < 1/6
    if tr.open["theorems.sweep"]:
        tr.counts["theorems.tuples_checked"] += 1
        if result < SIXTH:
            tr.counts["theorems.tuples_nonvacuous"] += 1


def _on_and_bound(tr, result):
    # the conjunction sweep checks its bound only where it is below 1
    if tr.open["theorems.sweep"] and result < 1:
        tr.counts["theorems.tuples_nonvacuous"] += 1


# (module, attribute, span name, callback on the result)
TIMED = [
    ("cli", "main", "cli.main", None),
    ("bitfn", "majority", "bitfn.build", None),
    ("bitfn", "oligarchy", "bitfn.build", None),
    ("bitfn", "linear", "bitfn.build", None),
    ("bitfn", "dictator", "bitfn.build", None),
    ("bitfn", "constant", "bitfn.build", None),
    ("bitfn", "BoolFn.parse", "bitfn.build", None),
    ("fourier", "transform", "fourier.transform", _on_transform),
    ("fourier", "spectral_sum", "fourier.spectral_sum", None),
    ("mechanism", "_profile_columns", "mechanism.profile_columns", None),
    ("mechanism", "output_vector", "mechanism.output_vector", _on_output_vector),
    ("mechanism", "sample_profiles", "mechanism.sample_eval", None),
    ("mechanism", "_outputs_for_samples", "mechanism.sample_eval", None),
    ("mechanism", "closed_families", "mechanism.closed_families", _on_closed_families),
    ("mechanism", "parse_mechanism", "mechanism.parse", None),
    ("indices", "inconsistency_index", "indices.inconsistency_index", None),
    ("indices", "dependency_index", "indices.dependency_index", None),
    ("indices", "_column_groups", "indices.column_groups", None),
    ("oracle", "enumerate_ci", "oracle.enumerate_ci", None),
    ("oracle", "nearest_ci", "oracle.nearest_ci", None),
    ("theorems", "_sweep_mand_chunk", "theorems.sweep", None),
    ("theorems", "_sweep_mxor_chunk", "theorems.sweep", None),
    ("theorems", "blr_three_function", "theorems.blr", None),
]

# hot per-item functions: counted, not timed
COUNTED = [
    ("agenda", "Agenda.is_consistent", "agenda.is_consistent_calls", None),
    ("bitfn", "BoolFn.evaluate", "bitfn.evaluate_calls", None),
    ("mechanism", "apply", "mechanism.apply_calls", None),
    ("indices", "ic_conjunction", "indices.ic_conjunction_calls", _on_ic_conjunction),
    ("indices", "ic_xor", "indices.ic_xor_calls", _on_ic_xor),
    ("theorems", "and_bound", "theorems.and_bound_calls", _on_and_bound),
]

# per-layer metric -> (unit, source): ("self", span) is summed self time,
# ("calls", span) the number of spans, ("count", key) a counter
LAYER_METRICS = {
    "cli.self_s": ("s", "self", "cli.main"),
    "cli.stdout_bytes": ("bytes", "count", "cli.stdout_bytes"),
    "agenda.is_consistent_calls": ("count", "count", "agenda.is_consistent_calls"),
    "bitfn.build_s": ("s", "self", "bitfn.build"),
    "bitfn.evaluate_calls": ("count", "count", "bitfn.evaluate_calls"),
    "fourier.transform_s": ("s", "self", "fourier.transform"),
    "fourier.transform_calls": ("count", "calls", "fourier.transform"),
    "fourier.transform_points": ("count", "count", "fourier.transform_points"),
    "fourier.spectral_sum_s": ("s", "self", "fourier.spectral_sum"),
    "mechanism.profile_columns_s": ("s", "self", "mechanism.profile_columns"),
    "mechanism.output_vector_s": ("s", "self", "mechanism.output_vector"),
    "mechanism.output_vector_calls": ("count", "calls", "mechanism.output_vector"),
    "mechanism.profiles_evaluated": ("count", "count", "mechanism.profiles_evaluated"),
    "mechanism.sample_eval_s": ("s", "self", "mechanism.sample_eval"),
    "mechanism.apply_calls": ("count", "count", "mechanism.apply_calls"),
    "mechanism.closed_families_s": ("s", "self", "mechanism.closed_families"),
    "mechanism.family_members": ("count", "count", "mechanism.family_members"),
    "mechanism.parse_s": ("s", "self", "mechanism.parse"),
    "indices.inconsistency_index_s": ("s", "self", "indices.inconsistency_index"),
    "indices.dependency_index_s": ("s", "self", "indices.dependency_index"),
    "indices.column_groups_s": ("s", "self", "indices.column_groups"),
    "indices.ic_conjunction_calls": ("count", "count", "indices.ic_conjunction_calls"),
    "indices.ic_xor_calls": ("count", "count", "indices.ic_xor_calls"),
    "oracle.enumerate_ci_s": ("s", "self", "oracle.enumerate_ci"),
    "oracle.nearest_ci_s": ("s", "self", "oracle.nearest_ci"),
    "oracle.nearest_output_vectors": ("count", "count", "oracle.nearest_output_vectors"),
    "theorems.sweep_self_s": ("s", "self", "theorems.sweep"),
    "theorems.tuples_checked": ("count", "count", "theorems.tuples_checked"),
    "theorems.tuples_nonvacuous": ("count", "count", "theorems.tuples_nonvacuous"),
    "theorems.blr_s": ("s", "self", "theorems.blr"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.open: Counter = Counter()   # open spans per name
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self._caches: list = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, on_result):
        spans, stack, open_, tr = self.spans, self.stack, self.open, self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            open_[name] += 1
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                open_[name] -= 1
            if on_result is not None:
                on_result(tr, result)
            return result

        return wrapper

    def _counted(self, name, fn, on_result):
        counts, tr = self.counts, self

        if on_result is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                on_result(tr, result)
                return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package: str = "approxagg"):
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        self._caches = list({id(v): v for mod in modules for v in vars(mod).values()
                             if callable(getattr(v, "cache_clear", None))}.values())
        for hooks, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for mod_name, attr, name, on_result in hooks:
                owner = sys.modules[f"{package}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    self._patch_method(getattr(owner, cls_name), meth,
                                       lambda fn: make(name, fn, on_result))
                else:
                    orig = getattr(owner, attr)
                    wrapper = make(name, orig, on_result)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                self._set(mod, key, wrapper)

    def _patch_method(self, cls, meth, wrap):
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrap(raw.__func__))
        else:
            wrapped = wrap(raw)
        # aliases such as BoolFn.__call__ = evaluate share the wrapper
        for key, value in list(vars(cls).items()):
            if value is raw:
                self._set(cls, key, wrapped)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def clear_caches(self):
        """Empty the package's lru caches, as a fresh process would start."""
        for fn in self._caches:
            fn.cache_clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, first: int, last: int, counts: Counter,
                      own: list[int]) -> dict[str, float]:
        """Per-layer metrics over spans[first:last] and a counter delta."""
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for i in range(first, last):
            name = self.spans[i][0]
            self_ns[name] += own[i]
            calls[name] += 1
        out = {}
        for metric, (_, kind, key) in LAYER_METRICS.items():
            if kind == "self":
                out[metric] = self_ns[key] / 1e9
            elif kind == "calls":
                out[metric] = calls[key]
            else:
                out[metric] = counts[key]
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            fh.writelines(f"{i},{n},{s},{e},{p}\n"
                          for i, (n, s, e, p) in enumerate(self.spans))
