"""The synthesis theorems, checked once per formula for every system: each
compiled enforcer of a satisfiable formula is sound (its composite with the
chaos process satisfies the formula) and transparent (it passes every
action the formula's residuals allow as itself).  Wrong enforcers fail, and
the one-path process of their witness trace fails the per-pair check."""
import pytest
from hypothesis import given, settings, strategies as st

from enfkit.harness import Pair, check_soundness, check_transparency, gen_formula, is_sat, make_corpus
from enfkit.symbolic import BoundExceeded, Domain
from enfkit.synthesis import compile_formula
from enfkit.transducers import ID

from oracles import one_path, universal_soundness, universal_transparency

D23 = Domain({"i", "j"}, {"req", "ans", "cls"})
D34 = Domain({"i", "j", "k"}, {"req", "ans", "cls", "ack"})
DOMAINS = {"2x3": D23, "3x4": D34}


def _compiled(f, d):
    try:
        return compile_formula(f, d)
    except BoundExceeded:
        return None


def _failures(e, f, d) -> set:
    """The universal checks `e` fails on `f`; each failure's witness, as a
    one-path process, must fail the matching per-pair check."""
    failed = set()
    trace = universal_soundness(e, f, d)
    if trace is not None and is_sat(f, d):
        failed.add("soundness")
        assert check_soundness(Pair(f, one_path(trace), d, enforcer=e)).outcome == "fail"
    trace = universal_transparency(e, f, d)
    if trace is not None:
        failed.add("transparency")
        assert check_transparency(Pair(f, one_path(trace), d, enforcer=e)).outcome == "fail"
    return failed


@settings(max_examples=60, deadline=None)
@given(dom=st.sampled_from(sorted(DOMAINS)), size=st.integers(1, 14), seed=st.integers(0, 10**6))
def test_a_compiled_enforcer_is_sound_and_transparent_for_every_system(dom, size, seed):
    d = DOMAINS[dom]
    f = gen_formula(d, size, seed)
    e = _compiled(f, d)
    if e is None:
        return
    assert universal_transparency(e, f, d) is None
    if is_sat(f, d):
        assert universal_soundness(e, f, d) is None


@settings(max_examples=60, deadline=None)
@given(
    dom=st.sampled_from(sorted(DOMAINS)),
    sizes=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
)
def test_a_wrong_enforcers_witness_fails_the_per_pair_check(dom, sizes, seeds):
    d = DOMAINS[dom]
    f, g = (gen_formula(d, size, seed) for size, seed in zip(sizes, seeds))
    other = _compiled(g, d)
    for e in (ID, other) if other is not None else (ID,):
        _failures(e, f, d)


@pytest.mark.parametrize("dom", sorted(DOMAINS))
def test_the_identity_and_another_formulas_enforcer_fail(dom):
    d = DOMAINS[dom]
    formulas = [gen_formula(d, 4 + seed % 9, seed) for seed in range(40)]
    enforcers = [_compiled(f, d) for f in formulas]
    by_id, by_other = set(), set()
    for i, f in enumerate(formulas):
        by_id |= _failures(ID, f, d)
        other = enforcers[(i + 1) % len(formulas)]
        if other is not None:
            by_other |= _failures(other, f, d)
    assert by_id == {"soundness"}  # the identity passes every action as itself
    assert by_other == {"soundness", "transparency"}


def test_passing_both_universal_checks_passes_every_pair_of_the_pinned_corpus():
    checked = 0
    for f, p in make_corpus(D23, 200, 42):  # `verify --corpus random:200:42`
        e = _compiled(f, D23)
        if e is None or universal_soundness(e, f, D23) is not None:
            continue
        if universal_transparency(e, f, D23) is not None:
            continue
        pair = Pair(f, p, D23, enforcer=e)
        assert check_soundness(pair).outcome != "fail"
        assert check_transparency(pair).outcome != "fail"
        checked += 1
    assert checked > 100
