"""enfkit: synthesise suppression enforcers from safety formulas and check
the enforcement correctness criteria on finite instances."""

from .symbolic import (
    Action,
    Domain,
    INSERT,
    SymbolicAction,
    TAU,
    denote,
    disjoint,
    eval_condition,
    match,
    normalize_pattern,
    satisfiable,
    underline,
)
from .formulas import Formula, classify
from .processes import LTS, Process, reachable, step, trace_tree, traces, weak_step
from .modelcheck import mc_eval, sat_oracle, satisfies, shortest_violation
from .normalizer import (
    EquationSystem,
    normalize,
    stage2_equations,
    stage3_align,
    stage4_minterms,
    stage5_powerset,
    stage6_rebuild,
)
from .synthesis import compile_formula, optimize, synthesize
from .transducers import Transducer, alpha_eq, transducer_lts, tstep
from .runtime import Config, composite_lts, istep, simulate
from .bisim import bisim, naive_bisim
from .harness import (
    Pair,
    Verdict,
    after,
    check_nvtt,
    check_normalization,
    check_oracle_agreement,
    check_soundness,
    check_transparency,
    check_violation_semantics,
    gen_formula,
    gen_process,
    is_sat,
    make_corpus,
    violates,
    violating_traces,
)
from .parsing import (
    SpecFile,
    load_specfile,
    parse_formula,
    parse_lts,
    parse_process,
    parse_specfile,
    parse_transducer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
