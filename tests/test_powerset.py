"""Stage 5 keeps the stage-4 body of a state holding one variable, and aligns
and splits only the states that merge two or more; the invariants that make
the shortcut exact hold of every stage-4 body.  Stage 5 against its oracle is
the `normaliser stages` row of tests/test_oracles.py."""
from itertools import combinations

import pytest

from enfkit.harness import gen_formula
from enfkit.normalizer import (
    normalize_formula_patterns,
    stage2_equations,
    stage3_align,
    stage4_minterms,
    stage5_powerset,
)
from enfkit.symbolic import BoundExceeded, SymbolicAction, disjoint_under, pattern_key

from inputs import DOMAINS


def _stage4(f, d):
    return stage4_minterms(stage3_align(stage2_equations(normalize_formula_patterns(f, d), d)))


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
