"""Stage 6 names each fixpoint binder once, `X0`, `X1`, ... in pre-order,
as it expands the determinised system.  On hand-written systems whose
naming a first-reference or post-order numbering would get wrong, it gives
the very term (terms are interned) that the recursive expansion renamed in
pre-order after gives (`naive_stage6_rebuild`), and it counts the rebuild
bound as that does.  The same identity on generated formulas, the ladder and
a corpus, and that of the pattern pre-pass, is the `normaliser stages` row
of tests/test_oracles.py."""
import pytest

from enfkit import normalizer
from enfkit.normalizer import Branch, EquationBoundExceeded, EquationSystem, stage6_rebuild
from enfkit.parsing import parse_formula

from oracles import naive_stage6_rebuild


def _system(dom, bodies):
    """A hand-written system over `bodies`, variable -> (action text,
    target) pairs or "tt"/"ff", read from variable 0."""
    def action(text):
        return parse_formula(f"[{text}]tt", dom).action

    bodies = {
        k: b if b in ("tt", "ff") else tuple(Branch(action(a), t) for a, t in b)
        for k, b in bodies.items()
    }
    return EquationSystem(0, tuple(bodies), bodies, None)


def test_a_binder_on_two_disjoint_paths_gets_two_names(dom):
    # variable 1 is a binder under each branch of 0; naming by first
    # reference would give both copies one name
    eqs = _system(dom, {0: [("i?req", 1), ("i!ans", 1)], 1: [("j?req", 1), ("j!ans", 2)], 2: "ff"})
    want = "[i?req](max X0.[j?req]X0 && [j!ans]ff) && [i!ans](max X1.[j?req]X1 && [j!ans]ff)"
    assert str(stage6_rebuild(eqs)) == want
    assert stage6_rebuild(eqs) is naive_stage6_rebuild(eqs)


def test_nested_binders_are_named_outside_in(dom):
    # the inner binder, 1, is referred to before the outer one, 0; naming
    # by first reference or in post-order would swap the two names
    eqs = _system(dom, {0: [("i?req", 1)], 1: [("j?req", 1), ("i!ans", 0), ("j!ans", 2)], 2: "tt"})
    want = "max X0.[i?req](max X1.[j?req]X1 && [i!ans]X0 && [j!ans]tt)"
    assert str(stage6_rebuild(eqs)) == want
    assert stage6_rebuild(eqs) is naive_stage6_rebuild(eqs)


def test_a_body_of_no_branches_rebuilds_as_tt(dom):
    # an empty conjunction is tt, and it takes no formula of its siblings
    eqs = _system(dom, {0: [("i?req", 1), ("i!ans", 2)], 1: [], 2: "ff"})
    assert str(stage6_rebuild(eqs)) == "[i?req]tt && [i!ans]ff"
    assert stage6_rebuild(eqs) is naive_stage6_rebuild(eqs)


def test_the_rebuild_bound_counts_the_necessities_of_the_expansion(dom, monkeypatch):
    # six necessities: two at the root, two under each of its branches
    eqs = _system(dom, {0: [("i?req", 1), ("i!ans", 1)], 1: [("j?req", 1), ("j!ans", 2)], 2: "ff"})
    monkeypatch.setattr(normalizer, "MAX_REBUILD_BOXES", 6)
    assert stage6_rebuild(eqs) is naive_stage6_rebuild(eqs)
    monkeypatch.setattr(normalizer, "MAX_REBUILD_BOXES", 5)
    for rebuild in (stage6_rebuild, naive_stage6_rebuild):
        with pytest.raises(EquationBoundExceeded, match="grew past the safety bound"):
            rebuild(eqs)
