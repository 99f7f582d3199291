"""In-memory span tracer for the traced benchmark run.

While a `Tracer` is active it replaces chosen public functions of enfkit's
modules with wrappers, in every enfkit module that binds them, so calls
between modules are seen as well as calls from the benchmark.  Each call
becomes a span (name, start, end, parent).  Spans are kept in flat arrays and
reduced once the run ends: a span's self time is its duration minus the
durations of its direct children, and a name's inclusive time counts only
its outermost spans, so recursion is not counted twice.  Counters are taken
at the same boundaries from the arguments and results of the wrapped calls.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import Counter

#: The modules of the enfkit package, which are the benchmark's layers.
LAYERS = (
    "parsing", "symbolic", "formulas", "normalizer", "synthesis", "transducers",
    "processes", "runtime", "modelcheck", "bisim", "harness", "cli",
)


def tree_nodes(obj) -> int:
    """Number of term nodes (dataclass instances) in a term, a tuple of terms
    or a parsed spec file; iterative, so deep terms cannot overflow."""
    count = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, (tuple, list, frozenset)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            count += 1
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
    return count


def _count_parse(t, args, kwargs, result):
    t.counts["parsing.nodes"] += tree_nodes(result)


def _count_equations(t, args, kwargs, result):
    t.counts["normalizer.equations"] += len(result.order)


def _count_minterms(t, args, kwargs, result):
    t.counts["normalizer.minterms"] += sum(
        len(body) for body in result.bodies.values() if body not in ("tt", "ff")
    )


def _count_det_equations(t, args, kwargs, result):
    t.counts["normalizer.det_equations"] += len(result.order)


def _count_nf(t, args, kwargs, result):
    t.counts["normalizer.nf_nodes"] += tree_nodes(result)


def _count_compile(t, args, kwargs, result):
    t.compiled.add(str(args[0]))


def _count_composite(t, args, kwargs, result):
    t.counts["runtime.composite_states"] += len(result)
    t.counts["runtime.composite_transitions"] += sum(1 for _ in result.transitions())


def _count_traces(t, args, kwargs, result):
    t.counts["processes.trace_count"] += len(result)


def _count_bisim(t, args, kwargs, result):
    t.counts["bisim.union_states"] += len(args[0]) + len(args[2])


#: (layer, function, counter) for every wrapped function.
TARGETS = (
    ("parsing", "parse_formula", _count_parse),
    ("parsing", "parse_process", _count_parse),
    ("parsing", "parse_transducer", _count_parse),
    ("parsing", "parse_specfile", None),
    ("symbolic", "satisfiable", None),
    ("formulas", "classify", None),
    ("normalizer", "normalize", _count_nf),
    ("normalizer", "stage2_equations", _count_equations),
    ("normalizer", "stage3_align", None),
    ("normalizer", "stage4_minterms", _count_minterms),
    ("normalizer", "stage5_powerset", _count_det_equations),
    ("normalizer", "stage6_rebuild", None),
    ("synthesis", "compile_formula", _count_compile),
    ("synthesis", "synthesize", None),
    ("synthesis", "optimize", None),
    ("transducers", "tstep", None),
    ("transducers", "alpha_eq", None),
    ("processes", "reachable", None),
    ("processes", "traces", _count_traces),
    ("processes", "weak_trace_derivatives", None),
    ("runtime", "composite_lts", _count_composite),
    ("runtime", "istep", None),
    ("runtime", "simulate", None),
    ("modelcheck", "mc_eval", None),
    ("modelcheck", "satisfies", None),
    ("modelcheck", "sat_oracle", None),
    ("bisim", "bisim", _count_bisim),
    ("bisim", "naive_bisim", None),
    ("harness", "check_soundness", None),
    ("harness", "check_transparency", None),
    ("harness", "check_nvtt", None),
    ("harness", "check_violation_semantics", None),
    ("harness", "violates", None),
    ("harness", "is_sat", None),
    ("harness", "make_corpus", None),
    ("harness", "gen_formula", None),
    ("harness", "gen_process", None),
    ("cli", "main", None),
    ("cli", "cmd_verify", None),
)

#: Per-layer metrics a traced run reports: name -> (unit, better).
LAYER_METRICS = {
    "parsing.parse_s": ("s", "lower"),
    "parsing.nodes_per_s": ("1/s", "higher"),
    "normalizer.normalize_s": ("s", "lower"),
    **{f"normalizer.stage{k}_s": ("s", "lower") for k in range(2, 7)},
    "normalizer.equations": ("count", "lower"),
    "normalizer.minterms": ("count", "lower"),
    "normalizer.det_equations": ("count", "lower"),
    "normalizer.nf_nodes": ("count", "lower"),
    "symbolic.satisfiable_calls": ("count", "lower"),
    "symbolic.satisfiable_s": ("s", "lower"),
    "synthesis.compile_calls": ("count", "lower"),
    "synthesis.compile_s": ("s", "lower"),
    "synthesis.distinct_formulas_per_compile": ("ratio", "higher"),
    "runtime.composite_lts_s": ("s", "lower"),
    "runtime.composite_states": ("count", "lower"),
    "runtime.composite_transitions": ("count", "lower"),
    "runtime.istep_s": ("s", "lower"),
    "transducers.tstep_calls": ("count", "lower"),
    "transducers.tstep_s": ("s", "lower"),
    "modelcheck.mc_eval_s": ("s", "lower"),
    "modelcheck.mc_eval_calls": ("count", "lower"),
    "modelcheck.sat_oracle_s": ("s", "lower"),
    "processes.reachable_s": ("s", "lower"),
    "processes.traces_s": ("s", "lower"),
    "processes.trace_count": ("count", "lower"),
    "processes.weak_trace_derivatives_s": ("s", "lower"),
    "harness.violates_s": ("s", "lower"),
    "harness.violates_calls": ("count", "lower"),
    "bisim.bisim_s": ("s", "lower"),
    "bisim.union_states": ("count", "lower"),
    "harness.check_soundness_s": ("s", "lower"),
    "harness.check_transparency_s": ("s", "lower"),
    "harness.check_nvtt_s": ("s", "lower"),
    "harness.check_violation_semantics_s": ("s", "lower"),
    "cli.verify_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.traced_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

#: Metrics that are the inclusive time of one wrapped function.
_INCLUSIVE = {
    "normalizer.normalize_s": "normalize",
    "normalizer.stage2_s": "stage2_equations",
    "normalizer.stage3_s": "stage3_align",
    "normalizer.stage4_s": "stage4_minterms",
    "normalizer.stage5_s": "stage5_powerset",
    "normalizer.stage6_s": "stage6_rebuild",
    "symbolic.satisfiable_s": "satisfiable",
    "synthesis.compile_s": "compile_formula",
    "runtime.composite_lts_s": "composite_lts",
    "runtime.istep_s": "istep",
    "transducers.tstep_s": "tstep",
    "modelcheck.mc_eval_s": "mc_eval",
    "modelcheck.sat_oracle_s": "sat_oracle",
    "processes.reachable_s": "reachable",
    "processes.traces_s": "traces",
    "processes.weak_trace_derivatives_s": "weak_trace_derivatives",
    "harness.violates_s": "violates",
    "bisim.bisim_s": "bisim",
    "harness.check_soundness_s": "check_soundness",
    "harness.check_transparency_s": "check_transparency",
    "harness.check_nvtt_s": "check_nvtt",
    "harness.check_violation_semantics_s": "check_violation_semantics",
    "cli.verify_s": "cmd_verify",
}

#: Metrics that are the number of calls of one wrapped function.
_CALLS = {
    "symbolic.satisfiable_calls": "satisfiable",
    "synthesis.compile_calls": "compile_formula",
    "transducers.tstep_calls": "tstep",
    "modelcheck.mc_eval_calls": "mc_eval",
    "harness.violates_calls": "violates",
}


class Tracer:
    """Context manager that wraps the TARGETS while active."""

    def __init__(self):
        self.names = [name for _, name, _ in TARGETS]
        self.layer_of = [LAYERS.index(layer) for layer, _, _ in TARGETS]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # no ancestor span of the same name
        self.span_layer_outer = array("b")  # no ancestor span of the same layer
        self.counts = Counter()
        self.compiled = set()
        self._stack = []
        self._active = [0] * len(TARGETS)
        self._layer_active = [0] * len(LAYERS)
        self._patched = []

    def _wrap(self, index, fn, counter):
        starts, ends, stack = self.span_start, self.span_end, self._stack
        active, layer_active, layer = self._active, self._layer_active, self.layer_of[index]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            self.span_name.append(index)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_outer.append(active[index] == 0)
            self.span_layer_outer.append(layer_active[layer] == 0)
            ends.append(0.0)
            active[index] += 1
            layer_active[layer] += 1
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
                active[index] -= 1
                layer_active[layer] -= 1
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [
            m for name, m in sys.modules.items() if name == "enfkit" or name.startswith("enfkit.")
        ]
        for index, (layer, name, counter) in enumerate(TARGETS):
            original = getattr(sys.modules[f"enfkit.{layer}"], name)
            wrapper = self._wrap(index, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def reduce(self) -> dict:
        """Self time per layer, inclusive time and calls per function, and
        the counters, from the recorded spans."""
        n = len(self.span_start)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        layer_self = [0.0] * len(LAYERS)
        inclusive = [0.0] * len(TARGETS)
        layer_inclusive = [0.0] * len(LAYERS)
        calls = [0] * len(TARGETS)
        for i in range(n):
            index = self.span_name[i]
            duration = end[i] - start[i]
            layer = self.layer_of[index]
            layer_self[layer] += duration - child[i]
            calls[index] += 1
            if self.span_outer[i]:
                inclusive[index] += duration
            if self.span_layer_outer[i]:
                layer_inclusive[layer] += duration
        by_name = {name: i for i, name in enumerate(self.names)}
        out = {f"{layer}.self_s": layer_self[i] for i, layer in enumerate(LAYERS)}
        for metric, name in _INCLUSIVE.items():
            out[metric] = inclusive[by_name[name]]
        for metric, name in _CALLS.items():
            out[metric] = calls[by_name[name]]
        parse_s = layer_inclusive[LAYERS.index("parsing")]
        out["parsing.parse_s"] = parse_s
        out["parsing.nodes_per_s"] = self.counts["parsing.nodes"] / parse_s if parse_s else 0.0
        for key in ("normalizer.equations", "normalizer.minterms", "normalizer.det_equations",
                    "normalizer.nf_nodes", "runtime.composite_states",
                    "runtime.composite_transitions", "processes.trace_count",
                    "bisim.union_states"):
            out[key] = self.counts[key]
        compile_calls = out["synthesis.compile_calls"]
        out["synthesis.distinct_formulas_per_compile"] = (
            len(self.compiled) / compile_calls if compile_calls else 0.0
        )
        out["trace.spans"] = n
        return out
