"""Stage 5 keeps the stage-4 body of a state holding one variable, and aligns
and splits only the states that merge two or more.  On seeded formulas, on
the inputs of both compile-ladder goldens and on the formulas of
`random:200:42` it gives the system that aligning and splitting every state
gives (`naive_stage5_powerset`), and the invariants that make the shortcut
exact hold of every stage-4 body.  On the same formulas the pattern
pre-pass and stage 6 give the very term (terms are interned) that their
oracles give: the pre-pass that copies the used names at every guard
(`naive_normalize_formula_patterns`) and the recursive expansion renamed
in pre-order after (`naive_stage6_rebuild`)."""
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from enfkit.normalizer import (
    EquationBoundExceeded,
    normalize_formula_patterns,
    stage2_equations,
    stage3_align,
    stage4_minterms,
    stage5_powerset,
    stage6_rebuild,
)
from enfkit.harness import gen_formula, make_corpus
from enfkit.symbolic import BoundExceeded, Domain, SymbolicAction, disjoint_under, pattern_key

from oracles import naive_normalize_formula_patterns, naive_stage5_powerset, naive_stage6_rebuild

D23 = Domain({"i", "j"}, {"req", "ans", "cls"})
D34 = Domain({"i", "j", "k"}, {"req", "ans", "cls", "ack"})
DOMAINS = {"2x3": D23, "3x4": D34}
# the formulas of tests/golden/compile_ladder_2x3.txt and compile_ladder_3x4.txt
LADDERS = [(D23, size, seed) for size in range(8, 21, 2) for seed in range(10)] + [
    (D34, size, seed) for size in range(8, 17) for seed in range(40)
]


def _stage4(f, d):
    return stage4_minterms(stage3_align(stage2_equations(normalize_formula_patterns(f, d), d)))


def _same_as_the_oracles(f, d) -> int:
    """Checks that the pattern pre-pass, stage 5 (each on its own builder)
    and stage 6 give their oracles' results, and returns how many of the
    stage-5 states merge variables."""
    assert normalize_formula_patterns(f, d) is naive_normalize_formula_patterns(f, d), f
    try:
        fast = stage5_powerset(_stage4(f, d))
    except BoundExceeded:
        with pytest.raises(BoundExceeded):
            naive_stage5_powerset(_stage4(f, d))
        return 0
    slow = naive_stage5_powerset(_stage4(f, d))
    assert (fast.start, fast.order) == (slow.start, slow.order)
    assert list(fast.bodies.items()) == list(slow.bodies.items())
    try:
        rebuilt = naive_stage6_rebuild(fast)
    except EquationBoundExceeded:
        with pytest.raises(EquationBoundExceeded):
            stage6_rebuild(fast)
    else:
        assert stage6_rebuild(fast) is rebuilt, f
    return sum(isinstance(k, frozenset) and len(k) > 1 for k in fast.order)


def test_stage5_matches_the_oracle_on_the_compile_ladders():
    merged = sum(_same_as_the_oracles(gen_formula(d, size, seed), d) for d, size, seed in LADDERS)
    assert merged > 0  # the slow path runs too


def test_the_stages_match_the_oracles_on_a_corpus(dom):
    for f, _ in make_corpus(dom, 200, 42):  # verify --corpus random:200:42
        _same_as_the_oracles(f, dom)


@settings(max_examples=80, deadline=None)
@given(dom=st.sampled_from(sorted(DOMAINS)), size=st.integers(1, 20), seed=st.integers(0, 10**6))
def test_stage5_matches_the_oracle_on_seeded_formulas(dom, size, seed):
    d = DOMAINS[dom]
    _same_as_the_oracles(gen_formula(d, size, seed), d)


def _minterm_bodies(f, d):
    """Every stage-4 body the builder derived, for stage 5's merges too."""
    eqs = _stage4(f, d)
    stage5_powerset(eqs)
    builder = eqs.builder
    return [body for body in builder._minterms.values() if body not in ("tt", "ff")]


@pytest.mark.parametrize("dom", sorted(DOMAINS))
def test_each_stage4_body_aligns_same_shaped_patterns_and_splits_them_disjointly(dom):
    d = DOMAINS[dom]
    bodies = 0
    for size in (8, 12, 16):
        for seed in range(15):
            try:
                found = _minterm_bodies(gen_formula(d, size, seed), d)
            except BoundExceeded:
                continue
            for body in found:
                bodies += 1
                by_shape: dict = {}
                for br in body:
                    key = pattern_key(br.action.pattern, 0, {})[0]
                    by_shape.setdefault(key, set()).add(br.action.pattern)
                assert all(len(patterns) == 1 for patterns in by_shape.values())
                by_pattern: dict = {}
                for br in body:
                    by_pattern.setdefault(br.action.pattern, {})[br.action.condition] = None
                for pattern, conditions in by_pattern.items():
                    for c1, c2 in combinations(conditions, 2):
                        guards = SymbolicAction(pattern, c1), SymbolicAction(pattern, c2)
                        assert disjoint_under(*guards, d), guards
    assert bodies > 100
