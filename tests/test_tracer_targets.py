"""The functions the benchmark tracer wraps keep their signatures.

`perfbench/tracer.py` names the enfkit functions it wraps in `TARGETS`, and
the benchmark calls them across versions of the package, so each keeps its
parameters: their names, kinds and defaults, pinned here.  Annotations are
left out; they do not change how a function is called.  The tracer's source
is only read and run here, never written or byte-compiled to disk.
"""
import importlib
import inspect
import os
import types

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")

PINNED = {
    "parsing.parse_formula": "(text, domain)",
    "parsing.parse_process": "(text, domain)",
    "parsing.parse_transducer": "(text, domain)",
    "parsing.parse_specfile": "(text)",
    "symbolic.satisfiable": "(c, variables, d)",
    "formulas.classify": "(f, d)",
    "normalizer.normalize": "(f, d)",
    "normalizer.stage2_equations": "(f, d)",
    "normalizer.stage3_align": "(eqs)",
    "normalizer.stage4_minterms": "(eqs)",
    "normalizer.stage5_powerset": "(eqs)",
    "normalizer.stage6_rebuild": "(eqs)",
    "synthesis.compile_formula": "(f, d)",
    "synthesis.synthesize": "(f, d)",
    "synthesis.optimize": "(e)",
    "transducers.tstep": "(e, domain)",
    "transducers.alpha_eq": "(e1, e2)",
    "processes.reachable": "(p, bound)",
    "processes.traces": "(lts, s, depth)",
    "processes.weak_trace_derivatives": "(lts, s, trace)",
    "runtime.composite_lts": "(enforcer, system, domain, bound=10000)",
    "runtime.istep": "(cfg, sys_steps, domain)",
    "runtime.simulate": "(enforcer, system, steps, policy, domain)",
    "modelcheck.mc_eval": "(f, lts, valuation, domain)",
    "modelcheck.satisfies": "(system, f, domain, bound=10000)",
    "modelcheck.sat_oracle": "(system, f, domain, bound=10000)",
    "bisim.bisim": "(lts1, s1, lts2, s2)",
    "bisim.naive_bisim": "(lts1, s1, lts2, s2)",
    "harness.check_soundness": "(pair, depth=6)",
    "harness.check_transparency": "(pair)",
    "harness.check_nvtt": "(pair, depth)",
    "harness.check_violation_semantics": "(pair, depth)",
    "harness.violates": "(system, trace, f, domain)",
    "harness.is_sat": "(f, d, bound=10000)",
    "harness.make_corpus": "(d, n, seed)",
    "harness.gen_formula": "(d, size, seed)",
    "harness.gen_process": "(d, size, seed)",
    "cli.main": "(argv=None)",
    "cli.cmd_verify": "(args)",
}


def _tracer_targets():
    with open(TRACER, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("tracer")
    exec(compile(source, TRACER, "exec"), module.__dict__)  # noqa: S102 - the repo's own file
    return module.TARGETS


def _parameters(fn) -> str:
    empty = inspect.Parameter.empty
    sig = inspect.signature(fn)
    bare = [p.replace(annotation=empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=empty))


def test_every_traced_function_keeps_its_signature():
    targets = [f"{layer}.{name}" for layer, name, _ in _tracer_targets()]
    assert sorted(targets) == sorted(PINNED)
    for target in targets:
        layer, name = target.split(".")
        fn = getattr(importlib.import_module(f"enfkit.{layer}"), name)
        assert _parameters(fn) == PINNED[target], target
