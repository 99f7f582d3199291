"""Memos keyed on term values, and facts kept on the terms: an LTS's
tau-closure and weak-step memos, the formula facts of free variables,
guardedness and the safety fragment, the necessity view, and the
guard-disjointness memo.
A memo or a fact must return what a fresh computation returns, whoever
filled it."""
import pytest

from enfkit import formulas, symbolic
from enfkit.formulas import (
    FormulaError,
    Max,
    free_data_vars,
    free_logic_vars,
    is_guarded,
    is_shml,
    necessities,
    unfold,
)
from enfkit.harness import gen_formula, gen_process, violates
from enfkit.modelcheck import mc_eval, sat_oracle
from enfkit.parsing import parse_formula
from enfkit.processes import LTS, reachable, tau_closure, traces, weak_step
from enfkit.runtime import composite_lts
from enfkit.symbolic import TAU
from enfkit.synthesis import compile_formula

SEEDS = range(12)


def _fresh(lts):
    return LTS(lts.initial, list(lts.transitions()), lts.states)


def _used(lts, f, dom):
    """Fill the LTS's memos through every algorithm that reads them."""
    denotation = mc_eval(f, lts, {}, dom)
    sat_oracle((lts, lts.initial), f, dom)
    for t in sorted(traces(lts, lts.initial, 3), key=lambda t: (len(t), tuple(map(str, t)))):
        violates((lts, lts.initial), t, f, dom)
    return denotation


def _assert_memos_agree(lts, dom):
    fresh = _fresh(lts)
    for s in lts.states:
        assert tau_closure(lts, s) == tau_closure(fresh, s)
        assert tau_closure(lts, s) is tau_closure(lts, s)
        for label in (*dom.actions, TAU):
            assert weak_step(lts, s, label) == weak_step(fresh, s, label)
            assert weak_step(lts, s, label) is weak_step(lts, s, label)


@pytest.mark.parametrize("seed", SEEDS)
def test_process_lts_memos_match_a_fresh_lts(dom, seed):
    f = gen_formula(dom, 6, seed)
    lts = reachable(gen_process(dom, 16, seed), 10_000)
    first = _used(lts, f, dom)
    _assert_memos_agree(lts, dom)
    assert mc_eval(f, lts, {}, dom) == first


@pytest.mark.parametrize("seed", SEEDS)
def test_composite_lts_memos_match_a_fresh_lts(dom, seed):
    f = gen_formula(dom, 6, seed)
    comp = composite_lts(compile_formula(f, dom), gen_process(dom, 16, seed), dom, 10_000)
    first = _used(comp, f, dom)
    _assert_memos_agree(comp, dom)
    assert mc_eval(f, comp, {}, dom) == first


def _fixpoints(f):
    if isinstance(f, Max):
        yield f
    for child in getattr(f, "items", ()):
        yield from _fixpoints(child)
    body = getattr(f, "body", None)
    if body is not None:
        yield from _fixpoints(body)


def _necessity_view(f):
    try:
        return necessities(f)
    except FormulaError as exc:
        return str(exc)


def _facts(f):
    return (
        free_logic_vars(f), free_data_vars(f), is_shml(f), is_guarded(f), _necessity_view(f)
    )


@pytest.mark.parametrize("seed", range(40))
def test_formula_memos_agree_across_equal_terms(dom, seed):
    f = gen_formula(dom, 1 + seed % 16, seed)
    assert _facts(parse_formula(str(f), dom)) == _facts(f)
    if isinstance(f, Max):
        assert _facts(unfold(f)) == _facts(unfold(f)) == _facts(parse_formula(str(unfold(f)), dom))
    # inner fixpoints are open, so their unfoldings are compared only with
    # each other: equal terms, built separately
    for fix in _fixpoints(f):
        once, twice = unfold(fix), unfold(fix)
        assert once == twice
        assert _facts(once) == _facts(twice)


@pytest.mark.parametrize(
    "text, facts",
    [
        ("max X.X", (frozenset(), frozenset(), True, False)),
        ("max X.[i?req]X", (frozenset(), frozenset(), True, True)),
        ("max X.max Y.[i?req]X && Y", (frozenset(), frozenset(), True, False)),
        ("<(x)?req>[x!ans]ff", (frozenset(), frozenset(), False, True)),
        ("[(x)?req]ff || min X.[i!ans]X", (frozenset(), frozenset(), False, True)),
    ],
)
def test_formula_memos_on_hand_written_formulas(dom, text, facts):
    f = parse_formula(text, dom)
    assert _facts(f)[:4] == facts
    assert _facts(parse_formula(str(f), dom)) == _facts(f)


def test_formula_memos_on_open_subterms(dom):
    f = parse_formula("max X.[(x)?req](<x!ans>X && max Y.Y)", dom)
    inner = f.body.body
    assert _facts(inner)[:4] == (frozenset({"X"}), frozenset({"x"}), False, False)
    dia, loop = inner.items
    assert _facts(dia)[:4] == (frozenset({"X"}), frozenset({"x"}), False, True)
    assert _facts(loop) == (frozenset(), frozenset(), True, False, "fixpoint is not guarded")


def test_a_compile_decides_each_guard_pair_once(dom, monkeypatch):
    # the normal-form test asks the same guard pairs at every conjunction of
    # the unshared normal form; the memo decides each distinct pair once (a
    # pair of an input and an output guard needs no decision)
    asked, decided = [], []
    ask, decide = formulas.disjoint_under, symbolic._decide

    def counted_ask(sa1, sa2, d):
        asked.append((sa1, sa2))
        return ask(sa1, sa2, d)

    def counted_decide(c, values):
        if symbolic._PORT.name in symbolic.cond_vars(c):  # a disjointness query
            decided.append(c)
        return decide(c, values)

    monkeypatch.setattr(formulas, "disjoint_under", counted_ask)
    monkeypatch.setattr(symbolic, "_decide", counted_decide)
    symbolic.disjoint_under.cache_clear()
    compile_formula(gen_formula(dom, 24, 15), dom)
    assert len(asked) > 2 * len(set(asked))
    same_polarity = {(a, b) for a, b in asked if a.pattern.is_input == b.pattern.is_input}
    assert len(decided) == len(same_polarity)
